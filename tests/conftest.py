"""Shared fixtures (prime tables are expensive, so build them once) and the
independent oracles the tests check the library against: the interval
sum for the eta kernel, the float accumulator with numpy's own outward
rounding, the threshold-count chain's bound as one interval product, two
routes to the energy kernel R_s, the energy sweep at every n, and a
quadrature of the sinc-power integral."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from mpmath import iv

from divlat import CapacityError, campaigns, energy, factorize, sieve_for_count, sieve_primes
from divlat.certify import DEFAULT_PREC, dyadic_upper, interval_ends, iv_exact, iv_prec
from divlat.energy import composition_counts

#: largest (alpha+1)^(2s) that R_brute enumerates
R_BRUTE_CAP = 10 ** 8
#: absolute error allowed in the sinc-power quadrature
SINC_BUDGET = 1e-8


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
    """Independent oracle for `kernel.log_eta_sums`: the per-prime interval
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


_PER_TERM_REL = 2.0 ** -47
_U = 2.0 ** -53


@dataclass
class NextafterEtaAccumulator:
    """Oracle for `campaigns.EtaAccumulator`: the same enclosure of
    log_sum(t, k), rounded outward by np.nextafter and np.spacing and with
    the per-term budget built per block, as the accumulator did before it
    stepped bit patterns.  Same blocks, same budget, same bits."""

    t: int
    k: int = 0
    sum_mid: float = 0.0
    sum_comp: float = 0.0
    eval_err: float = 0.0

    BLOCK = 2_000

    @property
    def value(self) -> float:
        return self.sum_mid + self.sum_comp

    @property
    def width_bound(self) -> float:
        return self.eval_err + 4.0 * _U * abs(self.value) + 2.0 * np.spacing(abs(self.value))

    def extend(self, primes):
        primes = np.asarray(primes, dtype=np.float64)
        n = primes.size
        lo_out = np.empty(n)
        hi_out = np.empty(n)
        pos = 0
        while pos < n:
            step = min(self.BLOCK - (self.k % self.BLOCK), n - pos)
            term = np.log1p(primes[pos:pos + step] ** (-1.0 / self.t))
            cs = np.cumsum(term)
            idx = np.arange(1, step + 1, dtype=np.float64)
            base = self.value
            w = (self.width_bound + (_PER_TERM_REL + _U * idx) * cs
                 + 4.0 * np.spacing(base + cs))
            lo_out[pos:pos + step] = np.nextafter(base + (cs - w), -np.inf)
            hi_out[pos:pos + step] = np.nextafter(base + (cs + w), np.inf)
            block_sum = float(cs[-1])
            self.eval_err += (_PER_TERM_REL + _U * step) * block_sum
            total = self.sum_mid + block_sum
            if abs(self.sum_mid) >= abs(block_sum):
                self.sum_comp += (self.sum_mid - total) + block_sum
            else:
                self.sum_comp += (block_sum - total) + self.sum_mid
            self.sum_mid = total
            self.k += step
            pos += step
        return lo_out, hi_out


def chain_bound_oracle(lt, q):
    """Independent oracle for the bound `moments.H_chain_check` reports at a
    non-integral q: the least float at or above the upper end of the
    DEFAULT_PREC interval product L_t exp(-q log 2)."""
    with iv_prec(DEFAULT_PREC):
        return dyadic_upper(*interval_ends(iv.mpf(lt) * iv.exp(-iv_exact(q) * iv.ln2))[1:])


def R_brute(s, alpha):
    """Ground-truth energy kernel by enumeration of tuple halves.

    Every s-tuple over {0..alpha} appears once in the enumerated sum
    array; matching pairs are counted across the two halves.  Capped at
    (alpha+1)^(2s) examined pairs.
    """
    if s < 1 or alpha < 0:
        raise ValueError(f"need s >= 1 and alpha >= 0, got s={s}, alpha={alpha}")
    if (alpha + 1) ** (2 * s) > R_BRUTE_CAP:
        raise CapacityError(
            f"(alpha+1)^(2s) = {(alpha + 1) ** (2 * s)} exceeds cap {R_BRUTE_CAP}")
    sums = np.zeros(1, dtype=np.int64)
    step = np.arange(alpha + 1, dtype=np.int64)
    for _ in range(s):
        sums = (sums[:, None] + step[None, :]).ravel()
    ordered = np.sort(sums)
    lo = np.searchsorted(ordered, sums, side="left")
    hi = np.searchsorted(ordered, sums, side="right")
    return int((hi - lo).sum())


def R_convolution(s, alpha):
    """Energy kernel as the sum of squared composition counts."""
    if s < 1 or alpha < 0:
        raise ValueError(f"need s >= 1 and alpha >= 0, got s={s}, alpha={alpha}")
    return sum(c * c for c in composition_counts(s, alpha))


def energy_sweep_oracle(upto, s):
    """Oracle for `energy.energy_sweep`'s violations: the full sandwich at
    every n = 2..upto, each n factored by trial division."""
    reps = (energy(factorize(n), s) for n in range(2, upto + 1))
    return [rep for rep in reps if not rep.holds]


def _gauss_legendre_panels(f, n_panels, nodes):
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for i in range(n_panels):
        a, b = i * math.pi, (i + 1) * math.pi
        xm = 0.5 * (b - a) * xs + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(np.dot(ws, f(xm)))
    return total


def sinc_quadrature(s):
    """Float estimate of the integral of (sin x / x)^(2s) over the line.

    For s = 1 it is the classical Dirichlet value pi.  For s >= 2 the even
    integrand is integrated over [0, X] with Gauss-Legendre panels of
    width pi (node count doubled until the estimate stabilizes), where X
    is chosen so the analytic tail bound 2 X^(1-2s)/(2s-1) fits inside
    half of SINC_BUDGET; half the tail is added back.  No rigorous error
    bound: an oracle, not a certificate.
    """
    if s == 1:
        return math.pi
    n_panels = 1
    while 2 * (n_panels * math.pi) ** (1 - 2 * s) / (2 * s - 1) > SINC_BUDGET / 2:
        n_panels += 1
    tail = 2 * (n_panels * math.pi) ** (1 - 2 * s) / (2 * s - 1)

    def f(x):
        out = np.ones_like(x)
        nz = x != 0
        out[nz] = (np.sin(x[nz]) / x[nz]) ** (2 * s)
        return out

    nodes = 16
    prev = _gauss_legendre_panels(f, n_panels, nodes)
    while nodes <= 512:
        nodes *= 2
        est = _gauss_legendre_panels(f, n_panels, nodes)
        if abs(est - prev) <= SINC_BUDGET / 8:
            return 2 * est + tail / 2
        prev = est
    raise AssertionError(f"quadrature did not stabilize for s = {s}")
