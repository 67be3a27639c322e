"""Conservative comparison helpers.

Exact integers/rationals live on one side of every inequality we check;
the other side is analytic.  These helpers decide such comparisons so
that a "holds" verdict can never be a rounding artifact.  Every
comparison lhs * 2^q <= rhs (m >= 2^q is the case lhs = 1) goes through
one bracket, `_le_pow2`:

* exact path: q = c/d in lowest terms with d <= BRACKET is the integer
  comparison lhs^d 2^c <= rhs^d; integral q is the only equality case;
* integer bracket: otherwise a = floor(q B) with B = BRACKET gives
  2^a < 2^(qB) < 2^(a+1), so lhs^B and rhs^B compared against both ends
  in integer arithmetic decide every case outside that one-step band;
* otherwise mpmath interval arithmetic through `fraction_le_enclosure`,
  comparing q against an enclosure of log2 rhs - log2 lhs;
* still undecided at the ceiling -> InconclusiveError.

`le_dyadic` is the one decision of an exact int or Fraction x against
an analytic Y: each level gives integers lo 2^e <= Y <= hi 2^e, and x is
compared with both ends by exact cross-multiplication.  It returns the
verdict with the DEFAULT_PREC ends a report reads (`dyadic_upper`).
`fraction_le_enclosure` is le_dyadic on the exact ends of an mpmath
interval (`interval_ends`), never on their 53-bit floats, and returns
the verdict alone.

Elsewhere, mpmath interval comparisons return True/False/None; None
means the enclosures overlap and the verdict must be sought at higher
precision.

`escalate` is the only doubling loop in divlat, and it owns the
precision: its ladder is fixed at DEFAULT_PREC bits doubling up to
PREC_CEILING, and it runs each `decide(level)` inside `iv_prec(level)`,
so no decide sets the precision itself.  Its callers are `le_dyadic`
(called by `moments.chain_check` on the eta kernel's integer ends, by
`moments.thm_bounds` on its cached exponentials, by
`moments.H_chain_check` on the ends of L_t 2^-q, and through
`fraction_le_enclosure` by `_le_pow2` and the optimizer hypothesis),
the campaign escalation pass, the best-constant search and the two side
conditions in `campaigns`, the even-t walk in `moments.optimal_even_t`,
the two-decimal alpha column of `cli tables`, the interval path of
`energy.vandermonde_positivity`, and the monotone-block search of
`core.rosser_check`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Optional

from mpmath import iv

from .errors import InconclusiveError

DEFAULT_PREC = 128
PREC_CEILING = 4096
#: B of the integer bracket: 2^q is pinned between 2^(a/B) and 2^((a+1)/B)
BRACKET = 64

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


def _le_pow2(lhs: int, q: Fraction, rhs: int) -> bool:
    """Certified lhs * 2^q <= rhs for integers lhs, rhs >= 1: the one bracket."""
    b = min(q.denominator, BRACKET)
    a, r = divmod(q.numerator * b, q.denominator)  # q b = a + r / denominator
    lhs_b, rhs_b = lhs ** b, rhs ** b
    if _shift_le(lhs_b, a + (r > 0), rhs_b):
        return True
    if r == 0 or not _shift_le(lhs_b, a, rhs_b):
        return False

    def log2_ratio(level: int):
        ln2 = iv.log(iv.mpf(2))
        return iv.log(iv.mpf(rhs)) / ln2 - iv.log(iv.mpf(lhs)) / ln2

    return fraction_le_enclosure(q, log2_ratio, what=f"{lhs}*2^{float(q)} vs {rhs}")


def int_vs_pow2(m: int, q) -> int:
    """Certified sign of m - 2^q for an integer m >= 0.

    q may be int, float, or Fraction; its exact binary value is used.
    Equality is only reachable when q is an integer, decided exactly.
    """
    qe = Fraction(q)  # exact, floats included
    if qe >= 0 and qe.denominator == 1 and m == 1 << qe.numerator:
        return 0
    # otherwise m != 2^q, so 2^q <= m means m > 2^q; 2^q > 0 >= m for m <= 0
    return 1 if m > 0 and _le_pow2(1, qe, m) else -1


def scaled_le(lhs: int, q, rhs: int) -> bool:
    """Certified lhs * 2^q <= rhs for integers lhs, rhs >= 0."""
    if lhs == 0:
        return rhs >= 0
    if rhs <= 0:
        return False
    return _le_pow2(lhs, Fraction(q), rhs)  # exact, floats included


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
