"""Exact integer number theory underpinning the whole package.

Everything here is exact.  Primes come from one segmented Eratosthenes
sieve over the numbers prime to 6, written 4 bytes a prime (so below 2^32)
into one uint32 array sized by a proven bound on pi(x), beside one reused
segment of flags and one of indices.  The first k primes are sieved to a
proven bound on p_k: Dusart's k(ln k + ln ln k - 0.9484) for k >= 39017,
Rosser's k(ln k + ln ln k) for 6 <= k < 39017.  Floating point appears only
in these bounds, rounded up by far more than their error; `rosser_check` compares
k*log(k) through `certify.escalate`.  Factorizations come from complete trial
division, the exponents of n = 2..x from one blockwise walk over prime
powers; binomials, Eulerian numbers and surjections from integer formulas.

Key objects:
    PrimeTable      immutable ascending table of primes (1-indexed access)
    Factorization   n as a list of (prime, exponent) pairs
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Iterator

from mpmath import iv

from .certify import escalate
from .errors import CapacityError
from .reports import CampaignResult

if TYPE_CHECKING:
    import numpy as np

#: hard ceiling on divisor enumeration (2^26 divisors ~ 0.5 GiB of ints)
DIVISOR_CAP = 1 << 26

#: slots per sieve segment; slot j stands for 3j + 1 + (j & 1): 1, 5, 7, 11, 13, ...
_SEGMENT = 1 << 21
#: numbers per block of `exponent_signatures`
_SIGNATURE_BLOCK = 1 << 15


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
            raise CapacityError(
                f"table holds {self.count} primes (limit {self.limit}); "
                f"p_{k} needs a sieve limit of at most {prime_upper_bound(k)}")
        return int(self.primes[k - 1])


def prime_upper_bound(k: int) -> int:
    """Proven upper bound on p_k, the k-th prime.

    Dusart (Math. Comp. 68, 1999): p_k <= k(ln k + ln ln k - 0.9484) for
    k >= 39017.  Rosser (1941): p_k < k(ln k + ln ln k) for k >= 6.
    Below that p_k <= 11, so 13 serves.  The float value is rounded up
    with a relative margin far above its rounding error, so the bound
    cannot undershoot.
    """
    if k < 6:
        return 13
    lk = math.log(k)
    shift = 0.9484 if k >= 39017 else 0.0
    return math.ceil(k * (lk + math.log(lk) - shift) * (1 + 2 ** -40))


def pi_upper_bound(x: int) -> int:
    """Proven upper bound on pi(x), x >= 2: x/ln x (1 + 1/ln x + 2.51/ln^2 x) for
    x >= 355991 (Dusart, Math. Comp. 68, 1999), 1.25506 x/ln x below (Rosser and
    Schoenfeld, 1962), rounded up like `prime_upper_bound`."""
    lx = math.log(x)
    shape = 1 + 1 / lx + 2.51 / lx ** 2 if x >= 355991 else 1.25506
    return math.ceil(x / lx * shape * (1 + 2 ** -40))


def sieve_primes(limit: int) -> PrimeTable:
    """All primes <= limit < 2^32, by a segmented sieve over the numbers prime to 6.

    Each segment of 2^21 of them is flagged in one reused buffer, and its primes
    go straight into one uint32 array of pi_upper_bound(limit) entries, beside
    one segment of indices.  The first segment (up to 6,291,455) sieves itself;
    its primes up to sqrt(limit), read back from the table, sieve every later
    segment, each p as two progressions 2p slots apart, from p p and p (p + 2 or 4).
    """
    import numpy as np  # here, not at module level: `import divlat` loads no numpy

    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit >= 1 << 32:
        raise CapacityError(f"sieve limit {limit} is past the 32-bit prime table's 2^32 - 1")
    slots = (limit + 5) // 6 + (limit + 1) // 6
    out = np.empty(pi_upper_bound(limit), dtype=np.uint32)
    out[:2], pos = (2, 3), min(2, limit - 1)
    buf = np.empty(min(_SEGMENT, slots), dtype=bool)
    for lo in range(0, slots, _SEGMENT):
        flags = buf[:min(_SEGMENT, slots - lo)]
        flags[1:], flags[0] = True, lo > 0  # slot 0 is 1, not prime
        root = math.isqrt(3 * (lo + flags.size) - 1)  # its last value <= 3 (lo + size) - 1
        # a uint32 needle: a Python int would upcast the whole table to int64
        for p in (out[2:np.searchsorted(out[:pos], np.uint32(root), "right")].tolist() if lo else (
                3 * j + 1 + (j & 1) for j in range(1, root // 3 + 1) if flags[j])):
            for q in (p, p + 4 - 2 * (p // 3 & 1)):
                off = p * q // 3 - lo
                flags[max(off, off % (2 * p)):: 2 * p] = False
        idx = np.flatnonzero(flags)
        if pos + idx.size > out.size:  # a short table never leaves here
            raise ArithmeticError(f"pi({limit}) exceeds its proven bound {out.size}")
        seg = np.multiply(idx, 3, out=out[pos:pos + idx.size], casting="unsafe")  # idx < 2^21
        seg += 3 * lo + 1
        seg |= 1  # (3j + 1) | 1 == 3j + 1 + (j & 1), lo being even
        pos += idx.size
        del idx  # before the next segment's indices are built
    return PrimeTable(limit=limit, primes=out[:pos])


def sieve_for_count(k: int) -> PrimeTable:
    """Table guaranteed to hold at least k primes: sieved to prime_upper_bound(k)."""
    return sieve_primes(prime_upper_bound(k))


def primorial(k: int) -> int:
    """Product of the first k primes; the empty product (k=0) is 1."""
    if k < 0:
        raise ValueError(f"primorial index must be >= 0, got {k}")
    return math.prod(sieve_for_count(k).primes[:k].tolist())


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


def factorize(n: int) -> Factorization:
    """Complete factorization by wheel trial division.

    Raises CapacityError when a composite cofactor survives trial
    division up to FACTOR_TRIAL_LIMIT (primality of the residue can then
    not be certified here).
    """
    if n < 1:
        raise ValueError(f"cannot factor n = {n}; need n >= 1")
    trial_limit = FACTOR_TRIAL_LIMIT  # read once per call, not per wheel step
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


def _signature_block(lo: int, hi: int, primes: list[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(n, exponents of n by increasing prime) for lo <= n < hi, given the primes up to
    isqrt(hi - 1).  n / part[i] is 1 or one prime: two above isqrt(hi - 1) exceed hi - 1."""
    exps, part = [()] * (hi - lo), [1] * (hi - lo)
    for p in primes:
        for i in range(-lo % p, hi - lo, p):
            exps[i] += (1,)
            part[i] *= p
        pj = p * p
        while pj < hi:
            for i in range(-lo % pj, hi - lo, pj):
                exps[i] = (*exps[i][:-1], exps[i][-1] + 1)
                part[i] *= p
            pj *= p
    return ((n, e + (1,) if m != n else e) for n, e, m in zip(range(lo, hi), exps, part))


def exponent_signatures(upto: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(n, exponents of n by increasing prime) for n = 2..upto, _SIGNATURE_BLOCK
    numbers at a time; the primes up to isqrt(upto) are the n with exponents
    (1,) in the walk to isqrt(upto)."""
    primes = [p for p, e in exponent_signatures(math.isqrt(upto)) if e == (1,)] if upto > 3 else []
    for lo in range(2, upto + 1, _SIGNATURE_BLOCK):
        yield from _signature_block(lo, min(lo + _SIGNATURE_BLOCK, upto + 1), primes)


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
    """Certify p_k > k*log(k) for k = 1..k_max, and find the worst k.

    The table must be ascending, as the sieve guarantees.  On a block
    [k0, k1], p_k >= p_{k0} and k log k <= k1 log k1, so an enclosure of
    p_{k0} - k1 log k1 bounds every margin in the block from below.  A
    best-first search splits the block of lowest bound at its midpoint
    until that block is a single k: its enclosure is then the certified
    worst margin, and one straddling 0 escalates.  By Rosser's theorem
    (1939) every margin of a true prime table is positive.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if table.count < k_max:
        raise CapacityError(
            f"table holds {table.count} primes, campaign needs {k_max}")
    t0 = time.perf_counter()

    def block(k0: int, k1: int) -> tuple:
        m = iv.mpf(int(table.primes[k0 - 1])) - iv.mpf(k1) * iv.log(k1)
        # m.a is a point, so ties fall to k0 and no interval is compared
        return (m.a, k0, k1, m)

    def decide(level: int):
        heap = [block(1, k_max)]
        while True:
            _, k0, k1, m = heapq.heappop(heap)
            if k0 == k1:
                return None if (m > 0) is None else (k0, m)
            mid = (k0 + k1) // 2
            heapq.heappush(heap, block(k0, mid))
            heapq.heappush(heap, block(mid + 1, k1))

    k, m = escalate(decide, what=f"p_k > k log k for k <= {k_max}")
    return CampaignResult(
        label="p_k > k log k",
        t_range=None,
        k_range=(1, k_max),
        passed=(m > 0) is True,
        worst_margin=math.nextafter(float(m.a), -math.inf),
        argmin=(k,),
        wall_time=time.perf_counter() - t0,
    )
