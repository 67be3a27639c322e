"""Conservative comparison helpers.

Exact integers/rationals live on one side of every inequality we check;
the other side is analytic.  These helpers decide such comparisons so
that a "holds" verdict can never be a rounding artifact.

`le_dyadic` is the one decision of an exact int or Fraction x against
an analytic Y: each level gives integers lo 2^e <= Y <= hi 2^e, and x is
compared with both ends by exact cross-multiplication.  It returns the
verdict with the DEFAULT_PREC ends a report reads (`BoundReport.dyadic`).
`fraction_le_enclosure` is le_dyadic on the exact ends of an mpmath
interval (`interval_ends`), never on their 53-bit floats, and returns
the verdict alone.

Every power 2^q is read from `pow2_neg_ends(q, level)`, the integer ends
of 2^-q per (q, level), exact at integral q: the only q where 2^q is
rational, so the only one where a comparison with it can be an equality.
`scaled_le` and `int_vs_pow2` are le_dyadic on those ends, and `pow2_ceil`
reads off them the least integer >= 2^q, the threshold of m >= 2^q.

Elsewhere, mpmath interval comparisons return True/False/None; None
means the enclosures overlap and the verdict must be sought at higher
precision.

`escalate` is the only doubling loop in divlat, and it owns the
precision: its ladder is fixed at DEFAULT_PREC bits doubling up to
PREC_CEILING, and it runs each `decide(level)` inside `iv_prec(level)`,
so no decide sets the precision itself.  Its callers are `le_dyadic`
(called by `scaled_le`, by `moments.chain_check` on the eta kernel's
integer ends, by `moments.thm_bounds` on its cached exponentials, by
`moments.H_chain_check` on the ends of 2^-q, and through
`fraction_le_enclosure` by the optimizer hypothesis), `pow2_ceil`, the
campaign escalation pass, the best-constant search and the two side
conditions in `campaigns`, the even-t walk in `moments.optimal_even_t`,
the two-decimal alpha column of `cli tables`, the interval path of
`energy.vandermonde_positivity`, and the monotone-block search of
`core.rosser_check`.  Past the ceiling a comparison is InconclusiveError.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from mpmath import iv

from .errors import InconclusiveError

DEFAULT_PREC = 128
PREC_CEILING = 4096

@contextmanager
def iv_prec(bits: int):
    """Temporarily set the interval-context working precision."""
    old = iv.prec
    iv.prec = bits
    try:
        yield iv
    finally:
        iv.prec = old


def escalate(decide: Callable[[int], Optional[bool]],
             what: str | Callable[[], str] = "comparison"):
    """Run `decide(level)` inside iv_prec(level) at DEFAULT_PREC bits,
    doubling up to PREC_CEILING, until it returns a verdict.

    `what` names the comparison if the ceiling is passed; a callable is
    called only then, so it can report what `decide` left pending.
    Both ends are read at call time; a start below 1 bit would never
    double, so it is a ValueError.
    """
    level = DEFAULT_PREC
    if level < 1:
        raise ValueError(f"working precision must be >= 1 bit, got {level}")
    while level <= PREC_CEILING:
        with iv_prec(level):
            verdict = decide(level)
        if verdict is not None:
            return verdict
        level *= 2
    if callable(what):
        what = what()
    raise InconclusiveError(f"{what} undecidable at precision ceiling {PREC_CEILING} bits")


def iv_exact(v) -> "iv.mpf":
    """Enclosure of v at the active precision.

    int and Fraction values are enclosed from their exact numerator and
    denominator, never rounded through float first.
    """
    if isinstance(v, Fraction):
        return iv.mpf(v.numerator) / v.denominator
    if isinstance(v, int):
        return iv.mpf(v)
    return iv.mpf(float(v))


def _shift_le(x: int, e: int, y: int) -> bool:
    """Exact x * 2^e <= y for any integer e."""
    return (x << e) <= y if e >= 0 else x <= (y << -e)


@lru_cache(maxsize=256)
def pow2_neg_ends(q: Fraction, level: int) -> tuple[int, int, int]:
    """The integer ends (lo, hi, e) of 2^-q at `level` bits: (1, 1, -q) at
    integral q, else the exact ends of exp(-q log 2), so a sweep's few
    dozen q are each exponentiated once per level."""
    if q.denominator == 1:
        return 1, 1, -q.numerator
    with iv_prec(level):
        return interval_ends(iv.exp(-iv_exact(q) * iv.ln2))


@lru_cache(maxsize=256)
def pow2_ceil(q: Fraction) -> int:
    """The least integer >= 2^q: an integer m >= 2^q exactly when m >= it.
    At non-integral q, 2^q is irrational (2^(c/d) = a/b forces d | c), so it
    is floor(2^q) + 1, found once both ends of 2^-q give one floor."""
    if q <= 0:
        return 1
    if q.denominator == 1:
        return 1 << q.numerator

    def decide(level: int) -> Optional[int]:
        lo, hi, e = pow2_neg_ends(q, level)  # 2^-e / hi <= 2^q <= 2^-e / lo, e < 0
        floor = (1 << -e) // hi
        return floor + 1 if floor == (1 << -e) // lo else None

    return escalate(decide, what=f"floor of 2^({q})")


def int_vs_pow2(m: int, q) -> int:
    """Certified sign of m - 2^q for an integer m >= 0.

    q may be int, float, or Fraction; its exact binary value is used.
    Equality is only reachable when q is an integer, decided exactly.
    """
    qe = Fraction(q)  # exact, floats included
    if qe >= 0 and qe.denominator == 1 and m == 1 << qe.numerator:
        return 0
    # otherwise m != 2^q, so 2^q <= m means m > 2^q; 2^q > 0 >= m for m <= 0
    return 1 if m > 0 and scaled_le(1, qe, m) else -1


def scaled_le(lhs: int, q, rhs: int) -> bool:
    """Certified lhs * 2^q <= rhs for integers lhs, rhs >= 0, decided as
    lhs <= rhs 2^-q by `le_dyadic` on the ends of 2^-q times rhs."""
    if lhs < 0 or rhs < 0:
        raise ValueError(f"scaled_le needs lhs, rhs >= 0, got {lhs} and {rhs}")
    qe = Fraction(q)  # exact, floats included

    def ends(level: int) -> tuple[int, int, int]:
        lo, hi, e = pow2_neg_ends(qe, level)
        return rhs * lo, rhs * hi, e

    return le_dyadic(lhs, ends, what=f"{lhs}*2^{float(qe)} vs {rhs}")[0]


def le_dyadic(x: int | Fraction, make_ends: Callable[[int], tuple],
              what: str = "rational vs dyadic ends") -> tuple[bool, tuple]:
    """Certified x <= Y, with Y pinned by integers lo 2^e <= Y <= hi 2^e.

    divlat's one exact-versus-enclosure decision.  `make_ends(level)` is
    called inside escalate's iv_prec(level) and returns (lo, hi, e); an end
    that is None (no finite bound) decides nothing.  x <= lo 2^e holds and
    x > hi 2^e fails, by exact cross-multiplication; between them the next
    level is tried.  Returns the verdict and the DEFAULT_PREC ends, the
    first level escalate tries: the ones a report reads Y from.
    """
    num, den = (x.numerator, x.denominator) if isinstance(x, Fraction) else (x, 1)
    first = []

    def decide(level: int) -> Optional[bool]:
        lo, hi, e = ends = make_ends(level)
        first.append(ends)
        if lo is not None and _shift_le(num, -e, den * lo):
            return True
        if hi is not None and not _shift_le(num, -e, den * hi):
            return False
        return None

    return escalate(decide, what=what), first[0]


def interval_ends(y: "iv.mpf") -> tuple:
    """Integers (lo, hi, e) with lo 2^e and hi 2^e exactly the ends of y,
    read off its raw (sign, man, exp, bc) ends; a non-finite end is None."""
    ends = []
    for sign, man, exp, bc in y._mpi_:
        # +-inf and nan have man 0 and bc < 0; zero has bc 0
        ends.append(None if not man and bc else (-man if sign else man, exp))
    e = min((end[1] for end in ends if end), default=0)
    lo, hi = (end and end[0] << end[1] - e for end in ends)
    return lo, hi, e


def fraction_le_enclosure(x: int | Fraction, make_interval: Callable[[int], "iv.mpf"],
                          what: str = "rational vs enclosure") -> bool:
    """Certified x <= Y, with Y given by a precision-indexed enclosure.

    `make_interval(level)` is called inside escalate's iv_prec(level) and
    must return an interval guaranteed to contain the true value of Y;
    `le_dyadic` decides on its exact `interval_ends`.
    """
    return le_dyadic(x, lambda level: interval_ends(make_interval(level)), what=what)[0]


def dyadic_upper(m: int, e: int) -> float:
    """The least float >= m 2^e; inf past float range."""
    s = max(abs(m).bit_length() - 53, 0)
    try:
        x = math.ldexp(-(-m >> s), e + s)  # ceil(m / 2^s) has at most 53 bits
    except OverflowError:
        return math.inf if m > 0 else math.nextafter(-math.inf, 0)
    a, b = x.as_integer_ratio()  # ldexp rounds only below the normal range
    return x if _shift_le(m * b, e, a) else math.nextafter(x, math.inf)


def exact_upper(v: int | Fraction) -> float:
    """The least float >= the exact int or Fraction v (float() rounds to nearest)."""
    x = float(v)
    return x if v <= x else math.nextafter(x, math.inf)
