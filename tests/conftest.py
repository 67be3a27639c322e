"""Shared fixtures (prime tables are expensive, so build them once) and the
interval oracle for the eta kernel."""

import pytest
from mpmath import iv

from divlat import campaigns, sieve_for_count, sieve_primes


@pytest.fixture(scope="session")
def small_table():
    """Primes to 10^6 (78498 of them)."""
    return sieve_primes(10 ** 6)


@pytest.fixture(scope="session")
def medium_table():
    """Enough primes to cross a few checkpoint strides."""
    return sieve_for_count(250_000)


@pytest.fixture(scope="session")
def campaign_table():
    """Table large enough for the full hard campaign at t = 2."""
    return sieve_for_count(campaigns.hard_threshold(2))


def iv_log_eta_sums(primes, t, ks):
    """Independent oracle for `campaigns.log_eta_sums`: the per-prime interval
    sum of log(1 + exp(-log(p) / t)) at the active iv precision, at each k in ks."""
    want = set(ks)
    e = iv.mpf(-1) / t
    total = iv.mpf(0)
    out = {0: total} if 0 in want else {}
    for j in range(max(ks)):
        total += iv.log(1 + iv.exp(iv.log(iv.mpf(int(primes[j]))) * e))
        if j + 1 in want:
            out[j + 1] = total
    return out
