"""The eta kernel and the constant C, in exact integer arithmetic.

`eta_fixed_point` brackets the eta product

    eta_k = prod_{j<=k} (1 + p_j^(-1/t))

by integers at F = level + 32 bits, and `log_eta_sums` takes one
interval log of that bracket per requested k, in the level's interval
context `certify.iv_at(level)`.  Each root p^(-1/t) comes from
`_root_bracket`: an exact integer square root at t = 2, else mpmath's
stateless interval exp and log at a precision passed as an argument.
Also here: the certified enclosure of the best-possible constant C and
the interval form of the hard right-hand-side factor.  Every precision
is an argument: nothing here reads or sets mpmath's global state.

This module imports no numpy: `moments` reads the kernel, C and the
hard factor from here, and only the float engine in `campaigns` and the
sieve in `core` load numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache

from mpmath.libmp import from_int, mpf_shift, round_ceiling, round_floor, to_int
from mpmath.libmp.libmpi import mpi_div, mpi_exp, mpi_log

from .certify import iv_at

#: certified enclosure of the best-possible constant, re-derived by
#: campaigns.constant_C_search (the test suite asserts containment)
ETA_CONSTANT_LO = "1.0707347245501929454"
ETA_CONSTANT_HI = "1.0707347245501929455"
ETA_CONSTANT_AT = (2, 2149)


def _hard_factor_iv(ctx, t: int, k: int):
    """Enclosure of k^(1-1/t) / ((1-1/t) logplus(k)^(1/t)) at one k, in the
    interval context ctx; multiply by C for the hard right-hand side."""
    ex = 1 - ctx.mpf(1) / t
    logplus = ctx.log(ctx.mpf(max(k, 2)))
    return ctx.exp(ctx.log(ctx.mpf(k)) * ex) / (ex * ctx.exp(ctx.log(logplus) / t))


@lru_cache(maxsize=4096)
def _root_bracket(p: int, t: int, f: int) -> tuple[int, int]:
    """Integers s <= 2^f p^(-1/t) <= u, certified: s^t p <= 2^(tf) <= u^t p.

    t = 2, the campaigns' thousands of roots, takes an exact integer
    square root, over ten times cheaper than the interval.  Otherwise
    the root is exp(log(p) / -t) in mpmath's interval arithmetic at
    f + 32 bits, so its ends, scaled by 2^f and rounded outward, lie at
    most 2 apart.  The precision is an argument, and no context is read.
    Pure in (p, t, f), so cached: a scan draws its primes from a
    pool of 25 at t = 2..6.
    """
    if t == 2:
        s = math.isqrt((1 << 2 * f) // p)
        return s, s + 1
    prec = f + 32
    x, d = from_int(p), from_int(-t)
    lo, hi = mpi_exp(mpi_div(mpi_log((x, x), prec), (d, d), prec), prec)
    return to_int(mpf_shift(lo, f), round_floor), to_int(mpf_shift(hi, f), round_ceiling)


def eta_fixed_point(primes, t: int, ks, level: int) -> tuple[int, dict[int, tuple[int, int]]]:
    """F = level + 32 and, at each k in ks, integers lo <= 2^F eta_k <= hi,
    where eta_k = prod_{j<=k} (1 + primes[j-1]^(-1/t)).

    divlat's one eta kernel: a running pass over primes[:max(ks)] that
    brackets each term by `_root_bracket` and keeps lo rounded down and
    hi rounded up, all in exact integer arithmetic.  t is an int >= 1.
    """
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"eta exponent must be an integer >= 1, got {t!r}")
    f = level + 32
    want = set(ks)
    lo = hi = one = 1 << f
    out = {0: (lo, hi)} if 0 in want else {}
    for j, p in enumerate(map(int, primes[:max(ks)]), start=1):
        s, u = _root_bracket(p, t, f)
        lo = lo * (one + s) >> f
        hi = -(-hi * (one + u) >> f)
        if j in want:
            out[j] = (lo, hi)
    return f, out


def log_eta_sums(primes, t: int, ks, level: int) -> dict:
    """Enclosures of sum_{j<=k} log(1 + primes[j-1]^(-1/t)) at each k in ks.

    divlat's one interval log-eta sum: `eta_fixed_point` at `level`, then
    one interval log per k of [lo, hi] / 2^F in `iv_at(level)`.  t is an
    int >= 1.
    """
    ctx = iv_at(level)
    f, ends = eta_fixed_point(primes, t, ks, level)
    scale = ctx.mpf(1 << f)
    return {k: ctx.log(ctx.mpf([lo, hi]) / scale) for k, (lo, hi) in ends.items()}
