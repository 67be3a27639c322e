"""Exact integer number theory underpinning the whole package.

Everything here is exact: primes come from a segmented Eratosthenes
sieve, factorizations from complete trial division, and the
combinatorial quantities (binomials, Eulerian numbers, surjection
counts) from arbitrary-precision integer formulas.  Floating point
appears only in `rosser_check`, where the analytic side k*log(k) is
compared with a certified error allowance.

Key objects:
    PrimeTable      immutable ascending table of primes (1-indexed access)
    Factorization   n as a list of (prime, exponent) pairs
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import CapacityError
from .reports import CampaignResult

#: hard ceiling on divisor enumeration (2^26 divisors ~ 0.5 GiB of ints)
DIVISOR_CAP = 1 << 26

_SEGMENT = 1 << 22


def _simple_sieve(limit: int) -> np.ndarray:
    """Plain sieve of Eratosthenes up to `limit` inclusive."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return np.flatnonzero(flags).astype(np.int64)


@dataclass(frozen=True)
class PrimeTable:
    """Ascending primes <= limit; entry k (1-indexed) is the k-th prime."""

    limit: int
    primes: np.ndarray

    def __post_init__(self):
        self.primes.setflags(write=False)

    @property
    def count(self) -> int:
        return int(self.primes.size)

    def nth(self, k: int) -> int:
        """The k-th prime (1-indexed)."""
        if k < 1:
            raise ValueError(f"prime index must be >= 1, got {k}")
        if k > self.count:
            need = prime_upper_bound(k)
            raise CapacityError(
                f"table holds {self.count} primes (limit {self.limit}); "
                f"p_{k} needs a sieve limit of about {need}")
        return int(self.primes[k - 1])

    def __len__(self) -> int:
        return self.count


def prime_upper_bound(k: int) -> int:
    """Upper bound on p_k, used to size sieves (k(log k + log log k) for k >= 6)."""
    if k < 6:
        return 13
    lk = math.log(k)
    return int(k * (lk + math.log(lk)) * 1.02) + 10


def sieve_primes(limit: int) -> PrimeTable:
    """Segmented sieve of all primes <= limit.

    Segments of 4M keep peak memory bounded regardless of limit, so
    campaign-scale tables (limit ~ 7e7) stay cheap to build.
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit <= _SEGMENT:
        return PrimeTable(limit=limit, primes=_simple_sieve(limit))
    base = _simple_sieve(math.isqrt(limit))
    chunks = [base[base <= limit]]
    lo = int(base[-1]) + 1 if base.size else 2
    lo = max(lo, math.isqrt(limit) + 1)
    while lo <= limit:
        hi = min(lo + _SEGMENT - 1, limit)
        flags = np.ones(hi - lo + 1, dtype=bool)
        for p in base:
            p = int(p)
            start = ((lo + p - 1) // p) * p
            if start < p * p:
                start = p * p
            if start > hi:
                continue
            flags[start - lo:: p] = False
        chunks.append(np.flatnonzero(flags).astype(np.int64) + lo)
        lo = hi + 1
    return PrimeTable(limit=limit, primes=np.concatenate(chunks))


def sieve_for_count(k: int) -> PrimeTable:
    """Smallest convenient table guaranteed to hold at least k primes."""
    limit = max(13, prime_upper_bound(k))
    table = sieve_primes(limit)
    while table.count < k:  # bound above should prevent this
        limit *= 2
        table = sieve_primes(limit)
    return table


def nth_prime(k: int, table: PrimeTable) -> int:
    """p_k out of a table, 1-indexed (p_1 = 2)."""
    return table.nth(k)


_small_primes: list[int] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def _ensure_small_primes(k: int) -> list[int]:
    global _small_primes
    if len(_small_primes) < k:
        _small_primes = [int(p) for p in sieve_for_count(k).primes[: max(k, 64)]]
    return _small_primes


def primorial(k: int) -> int:
    """Product of the first k primes; the empty product (k=0) is 1."""
    if k < 0:
        raise ValueError(f"primorial index must be >= 0, got {k}")
    primes = _ensure_small_primes(k)
    return reduce(lambda a, p: a * p, primes[:k], 1)


@dataclass(frozen=True)
class Factorization:
    """n = prod p^e with strictly increasing primes and e >= 1."""

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def omega(self) -> int:
        """Number of distinct prime divisors."""
        return len(self.factors)

    @property
    def gamma(self) -> int:
        """Radical: product of the distinct primes."""
        return reduce(lambda a, pe: a * pe[0], self.factors, 1)

    @property
    def tau(self) -> int:
        """Number of divisors."""
        return reduce(lambda a, pe: a * (pe[1] + 1), self.factors, 1)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


#: trial division gives up when the remaining cofactor needs a divisor
#: above this bound (would imply minutes of wheel work)
FACTOR_TRIAL_LIMIT = 10 ** 7


def factorize(n: int, trial_limit: int = FACTOR_TRIAL_LIMIT) -> Factorization:
    """Complete factorization by wheel trial division.

    Raises CapacityError when a composite cofactor survives trial
    division up to `trial_limit` (primality of the residue can then not
    be certified here).
    """
    if n < 1:
        raise ValueError(f"cannot factor n = {n}; need n >= 1")
    m = n
    factors: list[tuple[int, int]] = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    d = 5
    while d * d <= m:
        if d > trial_limit:
            raise CapacityError(
                f"unfactored residue {m} of {n}: smallest factor exceeds "
                f"trial limit {trial_limit}")
        for q in (d, d + 2):  # 6k-1, 6k+1 wheel
            if m % q == 0:
                e = 0
                while m % q == 0:
                    m //= q
                    e += 1
                factors.append((q, e))
        d += 6
    if m > 1:
        factors.append((m, 1))
    factors.sort()
    return Factorization(n=n, factors=tuple(factors))


def mobius(f: Factorization) -> int:
    """Mobius function: 0 on non-squarefree n, else (-1)^omega."""
    if any(e >= 2 for _, e in f.factors):
        return 0
    return -1 if f.omega % 2 else 1


def divisor_table(f: Factorization) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(divisors, mu(d), omega(d)) of n, all three in increasing order of d.

    The three columns grow prime by prime as parallel lists; one argsort
    of the divisors then orders them.  Raises CapacityError, before
    enumerating, when tau(n) exceeds DIVISOR_CAP.
    """
    if f.tau > DIVISOR_CAP:
        raise CapacityError(f"tau(n) = {f.tau} exceeds divisor cap {DIVISOR_CAP}")
    divs, mus, omegas = [1], [1], [0]
    for p, e in f.factors:
        base = divs[:]
        negated = [-m for m in mus]
        raised = [w + 1 for w in omegas]
        pj = 1
        for j in range(e):
            pj *= p
            divs += [d * pj for d in base]
            mus += [0] * len(base) if j else negated
            omegas += raised
    order = sorted(range(len(divs)), key=divs.__getitem__)
    return (tuple(map(divs.__getitem__, order)), tuple(map(mus.__getitem__, order)),
            tuple(map(omegas.__getitem__, order)))


def divisors_sorted(f: Factorization) -> list[int]:
    """All divisors of n in increasing order (1 first, n last)."""
    return list(divisor_table(f)[0])


def binomial(a: int, b: int) -> int:
    """Exact binomial coefficient; 0 outside 0 <= b <= a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def eulerian(i: int, j: int) -> int:
    """Eulerian number A(i,j): permutations of i elements with j descents.

    Computed from the alternating sum
        A(i,j) = sum_{v=0}^{j} C(i+1,v) (-1)^v (j+1-v)^i.
    """
    if i < 1 or j < 0 or j > i - 1:
        raise ValueError(f"eulerian number A({i},{j}) undefined; need 0 <= j <= i-1")
    return sum(math.comb(i + 1, v) * (-1) ** v * (j + 1 - v) ** i for v in range(j + 1))


def surjections(i: int, j: int) -> int:
    """Number of surjections from an i-set onto a j-set.

    S(i,j) = sum_{v=0}^{j} (-1)^(j-v) C(j,v) v^i; the sum vanishes for
    i < j and equals i! at i = j.
    """
    if j < 1:
        raise ValueError(f"target set must be nonempty, got j = {j}")
    if i < 0:
        raise ValueError(f"domain size must be >= 0, got i = {i}")
    return sum((-1) ** (j - v) * math.comb(j, v) * v ** i for v in range(j + 1))


def rosser_check(table: PrimeTable, k_max: int) -> CampaignResult:
    """Verify p_k > k*log(k) for k = 1..k_max.

    The comparison p_k - k*log(k) is done in float64 with an explicit
    allowance for the rounding of k*log(k); known margins are orders of
    magnitude above that allowance.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if table.count < k_max:
        raise CapacityError(
            f"table holds {table.count} primes, campaign needs {k_max}")
    t0 = time.perf_counter()
    k = np.arange(1, k_max + 1, dtype=np.float64)
    rhs = k * np.log(k)  # k=1 gives exactly 0.0
    p = table.primes[:k_max].astype(np.float64)
    slack = p - rhs
    allowance = 8.0 * np.spacing(rhs) + 8.0 * np.spacing(p)
    margins = slack - allowance
    i = int(np.argmin(margins))
    passed = bool(margins[i] > 0.0)
    return CampaignResult(
        label="p_k > k log k",
        t_range=None,
        k_range=(1, k_max),
        passed=passed,
        worst_margin=float(margins[i]),
        argmin=(i + 1,),
        wall_time=time.perf_counter() - t0,
    )
