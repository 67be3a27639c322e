"""The eta kernel and the constant C, in exact integer arithmetic.

`eta_fixed_point` brackets the eta product

    eta_k = prod_{j<=k} (1 + p_j^(-1/t))

by integers at F = level + 32 bits, and `log_eta_sums` takes one
interval log of that bracket per requested k.  Each root p^(-1/t) comes
from `_root_bracket`: a Newton estimate, then `_certify_root`, which
widens the estimate until exact integer powers certify both ends.  Also
here: the certified enclosure of the best-possible constant C and the
interval form of the hard right-hand-side factor.

This module imports no numpy: `moments` reads the kernel, C and the
hard factor from here, and only the float engine in `campaigns` loads
numpy.
"""

from __future__ import annotations

import math
from functools import lru_cache

from mpmath import iv

#: certified enclosure of the best-possible constant, re-derived by
#: campaigns.constant_C_search (the test suite asserts containment)
ETA_CONSTANT_LO = "1.0707347245501929454"
ETA_CONSTANT_HI = "1.0707347245501929455"
ETA_CONSTANT_AT = (2, 2149)


def _hard_factor_iv(t: int, k: int):
    """Enclosure of k^(1-1/t) / ((1-1/t) logplus(k)^(1/t)) at one k, at the
    active precision; multiply by C for the hard right-hand side."""
    ex = 1 - iv.mpf(1) / t
    logplus = iv.log(iv.mpf(max(k, 2)))
    return iv.exp(iv.log(iv.mpf(k)) * ex) / (ex * iv.exp(iv.log(logplus) / t))


def _pow_rounded(x: int, t: int, w: int, up: bool) -> tuple[int, int]:
    """(m, e) with m 2^e >= x^t if up, else <= x^t, for integers x >= 0, t >= 1.

    Binary exponentiation on mantissas cut to w bits, every cut rounded
    in the one direction, so the bound holds at each product.
    """
    def cut(v: int, e: int) -> tuple[int, int]:
        k = v.bit_length() - w
        if k <= 0:
            return v, e
        return (-(-v >> k) if up else v >> k), e + k

    m, e = 1, 0
    b, be = cut(x, 0)
    while True:
        if t & 1:
            m, e = cut(m * b, e + be)
        t >>= 1
        if not t:
            return m, e
        b, be = cut(b * b, 2 * be)


def _certify_root(p: int, t: int, f: int, s: int) -> tuple[int, int]:
    """Integers s' <= s and u >= s + 1 with s'^t p <= 2^(tf) <= u^t p, from
    an estimate s of 2^f p^(-1/t).

    Each end is compared by a power rounded up (for s') or down (for u)
    on (f + 64 + bitlength(t))-bit mantissas, and widened by one until
    that exact integer comparison holds, so any estimate is certified.
    """
    top, w = t * f, f + 64 + t.bit_length()

    def excess(x: int, up: bool) -> int:
        """Sign of x^t p - 2^(tf), the power rounded up or down."""
        m, e = _pow_rounded(x, t, w, up)
        a, b = m * p << max(e - top, 0), 1 << max(top - e, 0)
        return (a > b) - (a < b)

    u = s + 1
    while excess(s, True) > 0:
        s -= 1
    while excess(u, False) < 0:
        u += 1
    return s, u


@lru_cache(maxsize=4096)
def _root_bracket(p: int, t: int, f: int) -> tuple[int, int]:
    """Integers s <= 2^f p^(-1/t) <= u, certified: s^t p <= 2^(tf) <= u^t p.

    t = 2 takes an exact integer square root.  Otherwise a Newton
    iteration on truncated powers, seeded from the float root and doubling
    its good bits per step, estimates the root to about f + 8 bits, and
    `_certify_root` certifies the ends.  Pure in (p, t, f), so cached: a
    scan draws its primes from a pool of 25 at t = 2..6.
    """
    if t == 2:
        s = math.isqrt((1 << 2 * f) // p)
        return s, s + 1
    tbits = t.bit_length()
    lg = math.log2(p) / t
    d = math.ceil(lg)  # the root at scale 2^g has g - d + 1 bits
    bits = [f + 8 - d]
    while bits[-1] > 40:  # the float seed is good to about 44 bits
        bits.append((bits[-1] + tbits + 4) // 2 + 1)
    bits.reverse()
    y = int(math.ldexp(2.0 ** (d - lg), bits[0]))
    for prev, b in zip(bits, bits[1:]):
        # y += y (1 - p y^t 2^(-th)) / t at scale h = d + b
        y <<= b - prev
        m, e = _pow_rounded(y, t, b + 64 + tbits, False)
        sh = t * (d + b) - e
        y += (y * ((1 << sh) - p * m) >> sh) // t
    return _certify_root(p, t, f, y >> 8)


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


def log_eta_sums(primes, t: int, ks) -> dict[int, "iv.mpf"]:
    """Enclosures of sum_{j<=k} log(1 + primes[j-1]^(-1/t)) at each k in ks.

    divlat's one interval log-eta sum: `eta_fixed_point` at the active
    precision (escalate's level inside a decide), then one interval log
    per k of [lo, hi] / 2^F.  t is an int >= 1.
    """
    f, ends = eta_fixed_point(primes, t, ks, iv.prec)
    scale = iv.mpf(1 << f)
    return {k: iv.log(iv.mpf([lo, hi]) / scale) for k, (lo, hi) in ends.items()}
