"""Exact integer number theory underpinning the whole package.

Everything here is exact.  Primes come from one segmented Eratosthenes sieve over
the numbers prime to 6, read out in uint32 blocks (so below 2^32) as they are sieved
(Bays and Hudson, BIT 17, 1977); `sieve_primes` copies them into a table sized by a
proven bound on pi(x), `PrimeStream` keeps only the first.  The first k primes are
sieved to a proven bound on p_k: Dusart's k(ln k + ln ln k - 0.9484) for k >= 39017,
Rosser's k(ln k + ln ln k) for 6 <= k < 39017.  Floating point appears only in these
bounds, rounded up by far more than their error; `rosser_check` compares k*log(k)
through `certify.escalate`.  Factorizations come from complete trial division, the
exponents of n = 2..x from one blockwise walk over prime powers; binomials, Eulerian
numbers and surjections from integer formulas.

Key objects:
    PrimeTable      immutable ascending table of primes (1-indexed access)
    PrimeStream     the same primes, sieved again for each pass over them
    Factorization   n as a list of (prime, exponent) pairs
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterator

from mpmath import iv

from .certify import escalate
from .errors import CapacityError
from .reports import CampaignResult

if TYPE_CHECKING:
    import numpy as np

#: hard ceiling on divisor enumeration (2^26 divisors ~ 0.5 GiB of ints)
DIVISOR_CAP = 1 << 26

#: slots per sieve segment (1 MiB of flags); slot j stands for 3j + 1 + (j & 1): 1, 5, 7, 11, ...
_SEGMENT = 1 << 20
#: slots per read-out of a segment (even, as the `| 1` step needs): 2 MiB of int64 indices
_READOUT = 1 << 18
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
        return int(self.prefix(k)[-1])

    def prefix(self, k: int) -> np.ndarray:
        """The first k primes; a CapacityError past the table's end."""
        if k > self.count:
            raise CapacityError(
                f"table holds {self.count} primes (limit {self.limit}); "
                f"p_{k} needs a sieve limit of at most {prime_upper_bound(k)}")
        return self.primes[:k]

    def blocks(self, k: int) -> Iterator[np.ndarray]:
        return iter((self.prefix(k),))


class PrimeStream:
    """The primes <= limit served as a PrimeTable's, but sieved again by `prime_blocks`
    for each pass past the first block, the one it keeps (the primes to 786,431 at most)."""

    def __init__(self, limit: int):
        self.limit, self._rest = limit, prime_blocks(limit)  # held: a first long pass goes on
        self.head = next(self._rest)

    def prefix(self, k: int) -> np.ndarray:
        if k <= self.head.size:
            return self.head[:k]
        return sieve_primes(min(self.limit, prime_upper_bound(k))).prefix(k)

    def blocks(self, k: int) -> Iterator[np.ndarray]:
        n, rest = 0, ()
        if k > self.head.size:
            rest, self._rest = self._rest or islice(prime_blocks(self.limit), 1, None), None
        for block in chain((self.head,), rest):
            yield block[:k - n]
            n += block.size
            if n >= k:
                return
        raise CapacityError(f"{n} primes up to {self.limit}, {k} needed")


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


def prime_blocks(limit: int) -> Iterator[np.ndarray]:
    """All primes <= limit < 2^32 in ascending nonempty uint32 blocks, one per read-out
    of 2^18 slots (at most 2 MiB of indices), of a segmented sieve over the numbers
    prime to 6 that checks the limit at the call.  Each segment of 2^20 slots is
    flagged in one reused buffer by the primes from 5 to its square root, the first
    block of a sieve to sqrt(limit), each p as two progressions 2p slots apart, from
    p p and p (p + 2 or 4)."""
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit >= 1 << 32:
        raise CapacityError(f"sieve limit {limit} is past the 32-bit prime table's 2^32 - 1")
    return _sieve_blocks(limit)


def _sieve_blocks(limit: int) -> Iterator[np.ndarray]:
    import numpy as np  # here, not at module level: `import divlat` loads no numpy

    slots = (limit + 5) // 6 + (limit + 1) // 6
    root = math.isqrt(3 * slots - 1)  # the last slot's value is at most 3 slots - 1
    roots = next(_sieve_blocks(root))[2:].tolist() if root >= 5 else []
    buf = np.empty(min(_SEGMENT, slots), dtype=bool)
    for lo in range(0, slots, _SEGMENT):
        flags = buf[:min(_SEGMENT, slots - lo)]
        flags[1:], flags[0] = True, lo > 0  # slot 0 is 1, not prime
        for p in roots[:bisect_right(roots, math.isqrt(3 * (lo + flags.size) - 1))]:
            for q in (p, p + 4 - 2 * (p // 3 & 1)):
                off = p * q // 3 - lo
                flags[max(off, off % (2 * p)):: 2 * p] = False
        for sub in range(0, flags.size, _READOUT):
            idx = np.flatnonzero(flags[sub:sub + _READOUT])
            lead = 0 if lo or sub else min(2, limit - 1)  # 2 and 3 open the first block
            block = np.empty(lead + idx.size, dtype=np.uint32)
            block[:lead] = (2, 3)[:lead]
            np.multiply(idx, 3, out=block[lead:], casting="unsafe")  # idx < 2^18
            del idx
            block[lead:] += 3 * (lo + sub) + 1
            block[lead:] |= 1  # (3j + 1) | 1 == 3j + 1 + (j & 1), lo + sub being even
            if block.size:  # only the limit's last read-out can hold no prime
                yield block


def sieve_primes(limit: int) -> PrimeTable:
    """All primes <= limit < 2^32 in one uint32 array of pi_upper_bound(limit)
    entries, filled block by block from `prime_blocks`."""
    import numpy as np

    blocks = prime_blocks(limit)  # checks the limit before the table is allocated
    out, pos = np.empty(pi_upper_bound(limit), dtype=np.uint32), 0
    for block in blocks:
        if pos + block.size > out.size:  # a short table never leaves here
            raise ArithmeticError(f"pi({limit}) exceeds its proven bound {out.size}")
        out[pos:pos + block.size] = block
        pos += block.size
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


def rosser_check(table: PrimeTable | PrimeStream, k_max: int) -> CampaignResult:
    """Certify p_k > k*log(k) for k = 1..k_max, and find the worst k.

    On a range [k0, k1] of the ascending primes of `table.blocks(k_max)`,
    p_k >= p_{k0} and k log k <= k1 log k1, so an enclosure of p_{k0} - k1 log k1
    bounds every margin in it from below.  Block by block, a best-first search
    splits the range of lowest bound at its midpoint until the lowest is a single
    k's; the lowest margin of the blocks before enters it, so a block that cannot
    beat that margin is not split.  The last margin (first k on ties) is
    certified, and one straddling 0 escalates, reading the blocks again.  By
    Rosser's theorem (1939) every margin of a true prime table is positive.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    t0 = time.perf_counter()

    def decide(level: int):
        def bound(k0: int, k1: int) -> tuple:
            m = iv.mpf(int(block[k0 - 1 - base])) - iv.mpf(k1) * iv.log(k1)
            # m.a is a point, so ties fall to k0 and no interval is compared
            return (m.a, k0, k1, m)

        heap, base = [], 0
        for block in table.blocks(k_max):
            heapq.heappush(heap, bound(base + 1, base + block.size))
            while heap[0][1] < heap[0][2]:  # until the lowest bound is a single k's
                _, k0, k1, m = heapq.heappop(heap)
                mid = (k0 + k1) // 2
                heapq.heappush(heap, bound(k0, mid))
                heapq.heappush(heap, bound(mid + 1, k1))
            heap, base = heap[:1], base + block.size
        _, k, _, m = heap[0]
        return None if (m > 0) is None else (k, m)

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
