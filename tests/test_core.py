"""Core arithmetic: sieve, factorization, exact combinatorics."""

import math
import tracemalloc
from functools import lru_cache
from itertools import permutations, product

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divlat import (
    CapacityError,
    binomial,
    divisors_sorted,
    eulerian,
    factorize,
    mobius,
    primorial,
    rosser_check,
    sieve_for_count,
    sieve_primes,
    surjections,
)
from divlat import core
from divlat.core import divisor_table, pi_upper_bound, prime_upper_bound


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % p for p in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


# ---------------------------------------------------------------------------
# sieve
# ---------------------------------------------------------------------------

def test_sieve_first_primes():
    assert list(sieve_primes(10).primes) == [2, 3, 5, 7]


def test_sieve_boundary():
    assert list(sieve_primes(2).primes) == [2]


def test_sieve_matches_trial_division():
    assert list(sieve_primes(10_000).primes) == trial_division_primes(10_000)


def test_sieve_pi_of_million(small_table):
    assert small_table.count == 78_498


def test_sieve_segmented_consistency():
    # 5M fits the first segment of 2^21 numbers prime to 6 (up to 6,291,455);
    # later segments, sieved by the first one's base primes, are checked
    # against the oracle at their edges below
    seg = sieve_primes(5_000_000)
    assert seg.count == 348_513  # pi(5e6)
    assert int(seg.primes[0]) == 2
    assert int(seg.primes[-1]) == 4_999_999


@lru_cache(maxsize=1)
def eratosthenes(limit):
    """Plain sieve over every integer <= limit: the oracle for sieve_primes."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return np.flatnonzero(flags).astype(np.int64)


# 4,194,305 and 8,388,609 were the last values of the first and second
# segments of 2^21 odd slots; over the numbers prime to 6 the segments end
# at 6,291,455 and 12,582,911.  Below 200 the slot mapping meets 2, 3 and
# the first residues mod 6.
_ORACLE_EDGES = [2, 3, 4, 9, 25, 4_194_303, 4_194_304, 4_194_305, 4_194_306, 4_194_307,
                 5_000_000, 8_388_609, 8_388_611]


_SIEVE_LIMITS = [*_ORACLE_EDGES, *(n for n in range(2, 201) if n not in _ORACLE_EDGES),
                 6_291_453, 6_291_455, 6_291_457, 12_582_909, 12_582_911, 12_582_913]


@pytest.mark.parametrize("limit", _SIEVE_LIMITS)
def test_sieve_matches_eratosthenes_oracle(limit):
    oracle = eratosthenes(12_582_913)
    got = sieve_primes(limit)
    assert got.limit == limit and got.primes.dtype == np.uint32
    assert np.array_equal(got.primes, oracle[oracle <= limit])


@pytest.mark.parametrize("k", [*range(1, 61), 39_016, 39_017])
def test_sieve_for_count_holds_k_primes(k):
    table = sieve_for_count(k)
    assert table.count >= k and table.limit == prime_upper_bound(k)


def test_sieve_for_count_at_250k(medium_table):
    assert medium_table.count >= 250_000
    oracle = eratosthenes(8_388_611)
    assert np.array_equal(medium_table.primes, oracle[oracle <= medium_table.limit])


def test_sieve_holds_one_segment_beside_its_table():
    """numpy reports its buffers to tracemalloc.  At the campaigns' size the
    table is 14.3 MiB, 4 bytes a prime, and the sieve peaks at most 3 MiB
    above it (2.55 MiB): one reused 2 MiB segment of flags and the indices of
    one 2^18-slot sub-block of it.  A whole segment's indices took 5.4 MiB,
    fresh flags beside them 8.3 MiB, and an int64 copy of the table would
    take 28.6 MiB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        table = sieve_for_count(3_750_230)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert table.count == 3_751_685 and table.primes.itemsize == 4
    assert peak <= table.primes.nbytes + (3 << 20)


def test_pi_upper_bound_at_every_prime_to_ten_million():
    # pi is constant between primes and each branch of the bound increases,
    # so the bound at every prime p_k (pi(p_k) = k) covers every x <= 10^7
    primes = eratosthenes(12_582_913)
    primes = primes[primes <= 10 ** 7]
    bounds = np.array([pi_upper_bound(p) for p in primes.tolist()])
    assert (bounds >= np.arange(1, primes.size + 1)).all()


@pytest.mark.parametrize("x", [*_SIEVE_LIMITS, 355_990, 355_991, 10 ** 7, 63_401_732])
def test_pi_upper_bound_is_the_cited_bound_rounded_up(x):
    """The float bound is the ceiling of the real Rosser-Schoenfeld or
    Dusart value, computed at 50 digits, and at least pi(x): at 355,991,
    where Dusart's bound starts, that value is 30456.03 against pi = 30456."""
    with mpmath.workdps(50):
        lx = mpmath.log(x)
        shape = 1 + 1 / lx + mpmath.mpf("2.51") / lx ** 2 if x >= 355_991 else mpmath.mpf("1.25506")
        assert pi_upper_bound(x) == int(mpmath.ceil(x / lx * shape))
    oracle = eratosthenes(12_582_913)
    pi = 3_751_685 if x == 63_401_732 else int(np.searchsorted(oracle, x, side="right"))
    assert pi <= pi_upper_bound(x)


# 6,291,469 is the first prime past the first segment: the second segment of
# that limit holds it alone, a one-entry write to the table's last slot
@pytest.mark.parametrize("limit", [25, 1_000_000, 6_291_469, 12_582_913])
def test_sieve_refuses_a_bound_one_short(limit, monkeypatch):
    pi = sieve_primes(limit).count
    monkeypatch.setattr(core, "pi_upper_bound", lambda x: pi - 1)
    with pytest.raises(ArithmeticError, match="exceeds its proven bound"):
        sieve_primes(limit)


def test_sieve_rejects_tiny_limit():
    with pytest.raises(ValueError):
        sieve_primes(1)


def test_sieve_rejects_limit_past_the_32_bit_table():
    """The table holds uint32 entries, so 2^32 is refused, and so is 2^44, whose
    square root once left the first segment; both before any allocation."""
    tracemalloc.start()
    try:
        for limit in (2 ** 32, (2 * 2 ** 21) ** 2):
            with pytest.raises(CapacityError, match="32-bit prime table"):
                sieve_primes(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sieve_deep_window_matches_trial_division(small_table):
    lo, hi = 500_000, 501_000
    window = [int(p) for p in small_table.primes
              if lo <= p <= hi]
    oracle = [n for n in range(lo, hi + 1)
              if all(n % p for p in range(2, math.isqrt(n) + 1))]
    assert window == oracle


def test_factorize_capacity_on_hard_semiprime(small_table, monkeypatch):
    p = int(small_table.primes[9999])   # 104729
    q = int(small_table.primes[9998])   # 104723
    monkeypatch.setattr(core, "FACTOR_TRIAL_LIMIT", 10_000)
    with pytest.raises(CapacityError, match="unfactored residue"):
        factorize(p * q)


def test_nth_prime(small_table):
    assert small_table.nth(1) == 2
    assert small_table.nth(4) == 7
    assert small_table.nth(2149) == 18_869


def test_nth_prime_capacity(small_table):
    with pytest.raises(CapacityError, match="sieve limit"):
        small_table.nth(small_table.count + 1)


def test_primorial():
    assert primorial(0) == 1
    assert primorial(3) == 30
    assert primorial(10) == 6_469_693_230
    with pytest.raises(ValueError):
        primorial(-1)


# ---------------------------------------------------------------------------
# factorization and divisors
# ---------------------------------------------------------------------------

def test_factorize_basics():
    assert factorize(1).factors == ()
    assert factorize(1).omega == 0
    assert factorize(12).factors == ((2, 2), (3, 1))
    f = factorize(30030)
    assert f.factors == ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1))
    assert f.omega == 6
    assert f.gamma == 30030
    assert f.is_squarefree


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_mobius():
    assert mobius(factorize(1)) == 1
    assert mobius(factorize(6)) == 1
    assert mobius(factorize(30)) == -1
    assert mobius(factorize(12)) == 0


def test_divisors_sorted():
    assert divisors_sorted(factorize(6)) == [1, 2, 3, 6]
    assert divisors_sorted(factorize(30)) == [1, 2, 3, 5, 6, 10, 15, 30]
    assert divisors_sorted(factorize(12)) == [1, 2, 3, 4, 6, 12]


def test_divisor_cap(monkeypatch):
    from divlat import core
    monkeypatch.setattr(core, "DIVISOR_CAP", 4)
    with pytest.raises(CapacityError):
        divisors_sorted(factorize(12))


def test_divisor_table_matches_trial_division():
    for n in [*range(1, 3001), primorial(10), 720720]:
        small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        expected = sorted({*small, *(n // d for d in small)})
        divs, mus, omegas = divisor_table(factorize(n))
        assert list(divs) == expected
        for d, mu, om in zip(divs, mus, omegas):
            f = factorize(d)
            assert (mu, om) == (mobius(f), f.omega), (n, d)


@given(st.integers(min_value=1, max_value=100_000))
@settings(max_examples=150)
def test_divisor_pairing_and_mobius_sum(n):
    f = factorize(n)
    divs = divisors_sorted(f)
    assert divs[0] == 1 and divs[-1] == n
    assert all(d * (n // d) == n and n % d == 0 for d in divs)
    total = sum(mobius(factorize(d)) for d in divs)
    assert total == (1 if n == 1 else 0)


# ---------------------------------------------------------------------------
# exponent walk
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def trial_division_exponents(upto):
    """(n, exponents of factorize(n)) for n = 2..upto."""
    return [(n, tuple(e for _, e in factorize(n).factors)) for n in range(2, upto + 1)]


@pytest.mark.parametrize("block", [1, 7, 1 << 15])
def test_exponent_walk_matches_factorize(block, monkeypatch):
    monkeypatch.setattr(core, "_SIGNATURE_BLOCK", block)
    want = trial_division_exponents(40_000)
    assert list(core.exponent_signatures(20_000)) == want[:19_999]
    for upto in range(-2, 40):
        assert list(core.exponent_signatures(upto)) == want[:max(upto - 1, 0)]


# p^2 and p^3 at isqrt(upto), and p just above it: p^2 - 1 leaves p out of the walk's
# primes, so p, 2p, ... are each read as one prime left above the root
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 101, 181, 199])
def test_exponent_walk_at_the_root_boundary(p):
    for upto in {p * p - 1, p * p, p * p + 1, p ** 3 - 1, p ** 3, p ** 3 + 1}:
        if upto <= 40_000:
            walk = list(core.exponent_signatures(upto))
            assert walk == trial_division_exponents(40_000)[:upto - 1], upto
            assert dict(walk)[p] == (1,) and dict(walk).get(p * p, (2,)) == (2,)
            assert dict(walk).get(p ** 3, (3,)) == (3,)


# primes to 10^6 hold every prime up to isqrt(n) for n < 1000003^2; 999983 is the
# largest of them, so the first window sits on its square
@given(st.integers(10 ** 12 - 4 * 10 ** 7, 10 ** 12 + 4 * 10 ** 6), st.integers(1, 10))
@example(999_983 ** 2 - 4, 8)
@example(10 ** 12 - 3, 6)
@settings(max_examples=20, deadline=None)
def test_exponent_block_near_a_trillion_matches_factorize(small_table, lo, width):
    block = core._signature_block(lo, lo + width, small_table.primes.tolist())
    assert list(block) == [(n, tuple(e for _, e in factorize(n).factors))
                           for n in range(lo, lo + width)]


# ---------------------------------------------------------------------------
# combinatorics
# ---------------------------------------------------------------------------

def test_binomial():
    assert binomial(4, 2) == 6
    assert binomial(7, 3) == 35
    assert binomial(3, -1) == 0
    assert binomial(3, 5) == 0


def descents_oracle(i):
    """Row of Eulerian numbers by literal descent counting."""
    row = [0] * i
    for perm in permutations(range(i)):
        row[sum(1 for a in range(i - 1) if perm[a] > perm[a + 1])] += 1
    return row


def test_eulerian_values():
    assert eulerian(1, 0) == 1
    assert eulerian(3, 1) == 4


@pytest.mark.parametrize("i", range(1, 8))
def test_eulerian_against_descent_counting(i):
    assert [eulerian(i, j) for j in range(i)] == descents_oracle(i)


def test_eulerian_row_sums_and_symmetry():
    for i in range(1, 13):
        row = [eulerian(i, j) for j in range(i)]
        assert sum(row) == math.factorial(i)
        assert row == row[::-1]


def test_eulerian_domain():
    with pytest.raises(ValueError):
        eulerian(3, 3)
    with pytest.raises(ValueError):
        eulerian(0, 0)


def surjection_oracle(i, j):
    count = 0
    for f in product(range(j), repeat=i):
        if len(set(f)) == j:
            count += 1
    return count


def test_surjections_examples():
    assert surjections(3, 2) == 6
    assert surjections(2, 3) == 0
    assert surjections(4, 4) == 24


def test_surjections_vanishing_below_diagonal():
    for j in range(1, 9):
        for i in range(0, j):
            assert surjections(i, j) == 0
        assert surjections(j, j) == math.factorial(j)


def test_surjections_against_map_enumeration():
    for i in range(0, 7):
        for j in range(1, 6):
            if j ** i <= 200_000:
                assert surjections(i, j) == surjection_oracle(i, j)


def stirling2(i, j):
    if i == j:
        return 1
    if j == 0 or j > i:
        return 0
    return j * stirling2(i - 1, j) + stirling2(i - 1, j - 1)


def test_surjections_stirling_identity():
    for i in range(1, 9):
        for j in range(1, 9):
            assert surjections(i, j) == math.factorial(j) * stirling2(i, j)


def test_surjections_domain():
    with pytest.raises(ValueError):
        surjections(3, 0)


# ---------------------------------------------------------------------------
# p_k > k log k
# ---------------------------------------------------------------------------

def test_rosser_small(small_table):
    res = rosser_check(small_table, 10)
    assert res.passed
    assert res.k_range == (1, 10)
    # k = 1: 2 > 0
    assert rosser_check(small_table, 1).passed


def test_rosser_worst_location(small_table):
    res = rosser_check(small_table, 1000)
    k = res.argmin[0]
    p = small_table.nth(k)
    assert p - k * math.log(k) == pytest.approx(res.worst_margin, abs=1e-6)
    assert res.worst_margin > 0


@pytest.mark.parametrize("k_max", [1, 2, 3, 4, 5, 17, 100, 999, 5000])
def test_rosser_matches_exact_oracle(small_table, k_max):
    """argmin and worst margin against a 200-bit per-k minimum."""
    with mpmath.workprec(200):
        margin, k = min((int(small_table.primes[k - 1]) - k * mpmath.log(k), k)
                        for k in range(1, k_max + 1))
        res = rosser_check(small_table, k_max)
        assert res.passed
        assert res.argmin == (k,)
        assert abs(res.worst_margin - margin) <= 1e-15


def test_rosser_fails_on_non_prime_table():
    """Ascending integers 2, 3, 4, ...: p_k = k + 1 loses to k log k, worst at k_max."""
    k_max = 3_750_230
    table = core.PrimeTable(limit=k_max + 1, primes=np.arange(2, k_max + 2, dtype=np.int64))
    res = rosser_check(table, k_max)
    assert res.passed is False
    assert res.argmin == (k_max,)
    assert res.worst_margin < 0


def test_rosser_capacity(small_table):
    with pytest.raises(CapacityError):
        rosser_check(small_table, small_table.count + 1)
