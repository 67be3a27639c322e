"""Result records shared by the verification modules.

Conventions:

* ``exact_value`` is the side of a comparison known exactly (int or
  Fraction); analytic-vs-analytic checks store a certified float there.
* ``bound_value`` is always rounded *up*, so ``holds`` can never be a
  rounding artifact.  The two constructors own that rounding, and every
  module builds its reports through them: `BoundReport.exact` for an int
  or Fraction bound, `BoundReport.dyadic` for a bound of at most hi 2^e
  with integers hi and e.
* ``CampaignResult.passed`` is true only when the worst margin, taken at
  the conservative (outer) interval ends, is strictly positive and no
  comparison stayed inconclusive.
* divlat's records are `typing.NamedTuple`s, so tuples: a changed copy
  is ``record._replace(field=value)``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, NamedTuple

from .certify import dyadic_upper, exact_upper


class BoundReport(NamedTuple):
    """Outcome of one exact-versus-bound comparison."""

    exact_value: int | Fraction | float
    bound_value: float
    slack: float
    holds: bool
    context: dict

    @classmethod
    def exact(cls, value, bound: int | Fraction, holds: bool, context: dict,
              slack: float | None = None) -> BoundReport:
        """`value` against the exact `bound`, reported as the least float at
        or above it; the slack is bound - value unless one is given."""
        if slack is None:
            slack = float(bound - value)
        return cls(value, exact_upper(bound), slack, holds, context)

    @classmethod
    def dyadic(cls, value, hi: int, e: int, holds: bool, context: dict,
               slack: float | None = None) -> BoundReport:
        """`value` against a bound of at most hi 2^e, reported as the least
        float at or above hi 2^e (inf past float range); the slack is that
        float less `value` (inf with it) unless one is given."""
        bound = dyadic_upper(hi, e)
        if slack is None:
            slack = math.inf if bound == math.inf else bound - float(value)
        return cls(value, bound, slack, holds, context)

    def to_jsonable(self) -> dict:
        return {
            "exact_value": _jsonable(self.exact_value),
            "bound_value": self.bound_value,
            "bound_rounding": "up",
            "slack": self.slack,
            "holds": self.holds,
            "context": {k: _jsonable(v) for k, v in self.context.items()},
        }


class CampaignResult(NamedTuple):
    """Outcome of an inequality sweep over a parameter box.

    ``t_range``/``k_range`` name the two swept axes; for sweeps whose
    axes are not literally (t, k) the ``label`` says what they are.
    ``worst_margin`` is min over the box of (rhs_lo - lhs_hi), which the
    eta and rosser campaigns round down; ``sup_ratio`` tracks the largest
    lhs/rhs-style ratio seen (campaign-specific).
    """

    label: str
    t_range: tuple[int, int] | None
    k_range: tuple[int, int]
    passed: bool
    worst_margin: float
    argmin: tuple
    sup_ratio: float | None = None
    arg_sup: tuple | None = None
    wall_time: float = 0.0
    inconclusive: int = 0

    def to_jsonable(self) -> dict:
        return {
            "label": self.label,
            "t_range": list(self.t_range) if self.t_range else None,
            "k_range": list(self.k_range),
            "pass": self.passed,
            "worst_margin": self.worst_margin,
            "argmin": [_jsonable(x) for x in self.argmin],
            "sup_ratio": self.sup_ratio,
            "arg_sup": list(self.arg_sup) if self.arg_sup else None,
            "wall_time": self.wall_time,
            "inconclusive": self.inconclusive,
        }


def _jsonable(v: Any) -> Any:
    """Lossless JSON image: big ints stay ints, Fractions become 'p/q',
    infinite floats become 'inf'/'-inf' (RFC 8259 has no infinity)."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v
