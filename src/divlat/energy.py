"""Multiplicative energy of the divisor set and its exact kernel.

E_s(n) counts 2s-tuples of divisors with equal s-fold products.  It is
multiplicative, with prime-power kernel

    R_s(a) = #{(a_1..a_2s) in {0..a}^2s : a_1+..+a_s = a_{s+1}+..+a_2s},

computed by `R_closed`, an alternating binomial closed form (the tests
check it against tuple enumeration and squared composition counts).

The sandwich for E_s(n) compares exact integers against exact rationals
(tau^(2s-1) times per-prime constants built from Eulerian numbers and
central binomials), so strictness/equality verdicts cannot be rounding
artifacts.  E_s(n), tau and omega depend only on the exponents of n, so
`energy_sweep` decides the sandwich once per prime signature, reading the
exponents of each n from `core.exponent_signatures`.  The module also
houses the supporting polynomial facts: the sign interpolants of minimal
degree (exact Lagrange interpolation), generalized Vandermonde positivity
(one fraction-free elimination, `_det`, over exact integers or over
mpmath intervals, any size), the zero-sum count T_s, the asymptotics
witness for the sandwich constants, and the sinc-power integral identity,
an exact rational equality.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from typing import NamedTuple

from .certify import escalate, iv_at, iv_exact
from .core import (Factorization, binomial, divisors_sorted, eulerian, exponent_signatures,
                   factorize)
from .errors import CapacityError
from .reports import BoundReport, CampaignResult

#: enumeration ceiling of the tuple oracle
ENERGY_ORACLE_CAP = 10 ** 8
#: sign interpolants are checked for lam = 1..SIGN_LEMMA_LAMBDA_MAX
SIGN_LEMMA_LAMBDA_MAX = 6


# ---------------------------------------------------------------------------
# prime-power kernel
# ---------------------------------------------------------------------------

def composition_counts(s: int, alpha: int) -> list[int]:
    """Coefficients of (1 + x + ... + x^alpha)^s, exact integers.

    Convolving with an all-ones window is a sliding prefix-sum, so the
    expansion costs O(s * len) big-int additions.
    """
    if s < 0 or alpha < 0:
        raise ValueError(f"need s, alpha >= 0, got s={s}, alpha={alpha}")
    coeffs = [1]
    for _ in range(s):
        prefix = list(accumulate(coeffs, initial=0))
        n_out = len(coeffs) + alpha
        coeffs = [prefix[min(i + 1, len(coeffs))] - prefix[max(0, i - alpha)]
                  for i in range(n_out)]
    return coeffs


@lru_cache(maxsize=256)
def R_closed(s: int, alpha: int) -> int:
    """Closed-form kernel value

        sum_{v=1}^{s} (-1)^(s-v) C(2s, s-v) C((alpha+1)v + s - 1, 2s-1),

    a polynomial in alpha; the production path inside energy(), cached
    per (s, alpha).
    """
    if s < 1 or alpha < 0:
        raise ValueError(f"need s >= 1 and alpha >= 0, got s={s}, alpha={alpha}")
    return sum((-1) ** (s - v) * binomial(2 * s, s - v)
               * binomial((alpha + 1) * v + s - 1, 2 * s - 1)
               for v in range(1, s + 1))


def multinomial_identity_check(s: int, v: int) -> BoundReport:
    """sum_i C(s; i, v+i, s-v-2i) 2^(s-v-2i) == C(2s, s-v), exactly."""
    if not 0 <= v <= s:
        raise ValueError(f"need 0 <= v <= s, got v={v}, s={s}")
    total = 0
    for i in range(0, (s - v) // 2 + 1):
        rest = s - v - 2 * i
        total += (math.factorial(s)
                  // (math.factorial(i) * math.factorial(v + i) * math.factorial(rest))
                  * 2 ** rest)
    rhs = binomial(2 * s, s - v)
    return BoundReport.exact(total, rhs, total == rhs,
                             {"s": s, "v": v, "rhs": rhs, "check": "multinomial-identity"})


# ---------------------------------------------------------------------------
# energy and its sandwich
# ---------------------------------------------------------------------------

class EnergyReport(NamedTuple):
    """Exact energy with the two-sided tau-power sandwich.

    The bounds tau^(2s-1) c^omega are built from `constants` = (c_lo, c_up)
    only when read; the verdicts were decided without them.
    """

    n: int
    s: int
    energy: int
    tau_pow: int  # tau^(2s-1)
    omega: int
    constants: tuple[Fraction, Fraction]
    strict_lower_holds: bool
    upper_holds: bool
    upper_is_equality: bool
    holds: bool  # strict lower, upper, equality iff squarefree; not in the JSON

    @property
    def lower_bound(self) -> Fraction:
        return self.tau_pow * self.constants[0] ** self.omega

    @property
    def upper_bound(self) -> Fraction:
        return self.tau_pow * self.constants[1] ** self.omega

    def to_jsonable(self) -> dict:
        lower, upper = self.lower_bound, self.upper_bound
        return {
            "n": self.n,
            "s": self.s,
            "energy": self.energy,
            "lower_bound": f"{lower.numerator}/{lower.denominator}",
            "upper_bound": f"{upper.numerator}/{upper.denominator}",
            "strict_lower_holds": self.strict_lower_holds,
            "upper_holds": self.upper_holds,
            "upper_is_equality": self.upper_is_equality,
        }


@lru_cache(maxsize=256)
def _sandwich_constants(s: int) -> tuple[Fraction, Fraction]:
    """A(2s-1, s-1)/(2s-1)! and C(2s, s)/2^(2s-1), the per-prime sandwich constants."""
    return (Fraction(eulerian(2 * s - 1, s - 1), math.factorial(2 * s - 1)),
            Fraction(binomial(2 * s, s), 2 ** (2 * s - 1)))


def energy(f: Factorization, s: int) -> EnergyReport:
    """E_s(n) by multiplicativity (kernel per prime power) plus sandwich:

        tau^(2s-1) (A(2s-1,s-1)/(2s-1)!)^omega < E_s(n)
            <= tau^(2s-1) (C(2s,s)/2^(2s-1))^omega,

    all sides exact; the right side is an equality iff n is squarefree.
    Each side is compared by integer cross-multiplication with the
    constants' numerators and denominators.
    """
    if s < 2:
        raise ValueError(f"energy sandwich stated for s >= 2, got {s}")
    if f.n < 2:
        raise ValueError(f"energy sandwich stated for n >= 2, got {f.n}")
    e_val = math.prod(R_closed(s, e) for _, e in f.factors)
    tau_pow = f.tau ** (2 * s - 1)
    lo, up = constants = _sandwich_constants(s)
    om = f.omega
    lower = tau_pow * lo.numerator ** om   # lower bound times lo.denominator^om
    upper = tau_pow * up.numerator ** om   # upper bound times up.denominator^om
    e_up = e_val * up.denominator ** om
    strict, fits, equal = lower < e_val * lo.denominator ** om, e_up <= upper, e_up == upper
    return EnergyReport(
        n=f.n,
        s=s,
        energy=e_val,
        tau_pow=tau_pow,
        omega=om,
        constants=constants,
        strict_lower_holds=strict,
        upper_holds=fits,
        upper_is_equality=equal,
        holds=strict and fits and equal == f.is_squarefree,
    )


def energy_sweep(upto: int, s: int) -> tuple[int, int, list[EnergyReport]]:
    """The sandwich for n = 2..upto: (n checked, signatures decided, violations).

    A report but its n depends only on s and the sorted exponents of n, so
    `energy` decides each signature at its first n, where trial division
    must give the walk's exponents.
    """
    if s < 2:
        raise ValueError(f"energy sandwich stated for s >= 2, got {s}")
    decided, violations, checked = {}, [], 0
    for checked, (n, exps) in enumerate(exponent_signatures(upto), 1):
        if (rep := decided.get(key := tuple(sorted(exps)))) is None:
            f = factorize(n)
            if tuple(e for _, e in f.factors) != exps:
                raise ArithmeticError(f"{n} = {f.factors} by trial division, {exps} by the walk")
            rep = decided[key] = energy(f, s)
        if not rep.holds:
            violations.append(rep._replace(n=n))
    return checked, len(decided), violations


def brute_energy_oracle(n: int, s: int) -> int:
    """Literal tuple count of d_1..d_s = d_{s+1}..d_2s over divisors.

    Independent ground truth for energy(); capped at tau^(2s) pairs.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got {s}")
    divs = divisors_sorted(factorize(n))
    if len(divs) ** (2 * s) > ENERGY_ORACLE_CAP:
        raise CapacityError(
            f"tau^(2s) = {len(divs) ** (2 * s)} exceeds cap {ENERGY_ORACLE_CAP}")
    counts = Counter(math.prod(tup) for tup in product(divs, repeat=s))
    return sum(c * c for c in counts.values())


# ---------------------------------------------------------------------------
# zero-sum count T_s
# ---------------------------------------------------------------------------

def T_s(s: int, alpha: int) -> int:
    """#{(a_1..a_s) in {-alpha..alpha}^s : sum = 0} (central coefficient)."""
    if s < 1 or alpha < 0:
        raise ValueError(f"need s >= 1 and alpha >= 0, got s={s}, alpha={alpha}")
    return composition_counts(s, 2 * alpha)[s * alpha]


def T_ratio(s: int, alpha: int) -> Fraction:
    """T_s(alpha) / (2 alpha + 1)^(s-1), exact."""
    return Fraction(T_s(s, alpha), (2 * alpha + 1) ** (s - 1))


def T_monotonicity_check(s: int, alpha_max: int) -> CampaignResult:
    """The ratio is constant for s = 1, 2 and strictly decreasing for s >= 3.

    Exact rational comparisons at consecutive integers alpha = 0..alpha_max.
    """
    t0 = time.perf_counter()
    ratios = [T_ratio(s, a) for a in range(alpha_max + 1)]
    diffs = [ratios[a] - ratios[a + 1] for a in range(alpha_max)]
    # a constant ratio scores 1.0 at each equal step, a decreasing one the step
    margins = [(1.0 if d == 0 else -abs(float(d))) if s <= 2 else float(d) for d in diffs]
    worst = min(margins, default=math.inf)
    return CampaignResult(
        label="zero-sum-ratio-monotonicity",
        t_range=(s, s),
        k_range=(0, alpha_max),
        passed=all(d == 0 if s <= 2 else d > 0 for d in diffs),
        worst_margin=worst,
        argmin=(s, margins.index(worst) + 1 if margins else alpha_max),
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# asymptotics witness and the sinc-power integral
# ---------------------------------------------------------------------------

class AsymptoticGapRow(NamedTuple):
    s: int
    lower_exact: float
    lower_asymptotic: float
    lower_gap: float
    upper_exact: float
    upper_asymptotic: float
    upper_gap: float


def eulerian_asymptotic_gap(s_max: int) -> list[AsymptoticGapRow]:
    """Exact sandwich constants against sqrt(3/(pi s)) and sqrt(4/(pi s)).

    Gaps are relative; big-rational ratios are evaluated exactly before
    the final float conversion.
    """
    if not 1 <= s_max <= 200:
        raise ValueError(f"witness range is 1 <= s_max <= 200, got {s_max}")
    rows = []
    for s in range(1, s_max + 1):
        lo, up = _sandwich_constants(s)
        lo_asy = math.sqrt(3 / (math.pi * s))
        up_asy = math.sqrt(4 / (math.pi * s))
        rows.append(AsymptoticGapRow(
            s=s,
            lower_exact=float(lo),
            lower_asymptotic=lo_asy,
            lower_gap=abs(float(lo) - lo_asy) / lo_asy,
            upper_exact=float(up),
            upper_asymptotic=up_asy,
            upper_gap=abs(float(up) - up_asy) / up_asy,
        ))
    return rows


def sinc_integral_check(s: int) -> BoundReport:
    """Integral of (sin x / x)^(2s) over the line vs pi A(2s-1,s-1)/(2s-1)!.

    The integral has the classical closed form (Polya 1913; Medhurst and
    Roberts, Math. Comp. 19, 1965)

        pi / (2^(2s-1) (2s-1)!) * sum_{k<s} (-1)^k C(2s, k) (2s - 2k)^(2s-1),

    so the identity holds exactly when that alternating sum, over its
    denominator, equals the lower sandwich constant.  Both sides are
    Fractions, compared by equality.
    """
    if s < 1:
        raise ValueError(f"identity stated for s >= 1, got {s}")
    polya = Fraction(sum((-1) ** k * binomial(2 * s, k) * (2 * s - 2 * k) ** (2 * s - 1)
                         for k in range(s)),
                     2 ** (2 * s - 1) * math.factorial(2 * s - 1))
    ratio = _sandwich_constants(s)[0]
    return BoundReport.exact(polya, ratio, polya == ratio, {
        "s": s, "rhs": ratio, "check": "sinc-power-integral", "certified": True})


# ---------------------------------------------------------------------------
# exact polynomials: sign interpolants and Vandermonde positivity
# ---------------------------------------------------------------------------

class ExactPolynomial(NamedTuple):
    """Dense polynomial with exact rational coefficients (index = degree)."""

    coefficients: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(coeffs) -> "ExactPolynomial":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return ExactPolynomial(coefficients=tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1  # zero polynomial: -1

    @property
    def leading(self) -> Fraction:
        if not self.coefficients:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def is_even_function(self) -> bool:
        return all(c == 0 for c in self.coefficients[1::2])

    def is_odd_function(self) -> bool:
        return all(c == 0 for c in self.coefficients[0::2])


def _sgn(x) -> int:
    return -1 if x < 0 else (0 if x == 0 else 1)


def sign_interpolant(lam: int, m: int) -> ExactPolynomial:
    """Minimal-degree polynomial with F(j) = sgn(j) j^m on {-lam..lam}.

    The unique polynomial of degree <= 2 lam through the 2 lam + 1 points
    (j, sgn(j) j^m), built by exact Lagrange interpolation.  Its parity
    (even for odd m, odd for even m) is a consequence that
    `sign_lemma_check` verifies, not an assumption of the construction.
    """
    if lam < 1:
        raise ValueError(f"need lam >= 1, got {lam}")
    if not 0 <= m <= 2 * lam - 1:
        raise ValueError(f"need 0 <= m <= 2*lam-1 = {2 * lam - 1}, got m = {m}")
    nodes = range(-lam, lam + 1)
    coeffs = [Fraction(0)] * (2 * lam + 1)
    for j in nodes:
        y = _sgn(j) * j ** m
        if y == 0:
            continue
        basis, denom = [1], 1  # prod (x - k) and prod (j - k) over k != j
        for k in nodes:
            if k != j:
                basis = [a - k * b for a, b in zip([0] + basis, basis + [0])]
                denom *= j - k
        for i, c in enumerate(basis):
            coeffs[i] += Fraction(y * c, denom)
    return ExactPolynomial.from_coeffs(coeffs)


def sign_lemma_check() -> CampaignResult:
    """Parity, exact degree, and leading sign of every sign interpolant.

    Expected shape: even m -> odd function of degree 2 lam - 1 with
    leading sign (-1)^((2 lam - m - 2)/2); odd m -> even function of
    degree 2 lam with leading sign (-1)^((2 lam - m - 1)/2).  The
    interpolation imposes none of these, and the interpolation property
    itself is re-checked pointwise.
    """
    t0 = time.perf_counter()
    first_bad = None
    for lam in range(1, SIGN_LEMMA_LAMBDA_MAX + 1):
        for m in range(0, 2 * lam):
            poly = sign_interpolant(lam, m)
            pts_ok = all(poly(j) == _sgn(j) * j ** m for j in range(-lam, lam + 1))
            if m % 2 == 0:
                shape_ok = (poly.is_odd_function()
                            and poly.degree == 2 * lam - 1
                            and _sgn(poly.leading) == (-1) ** ((2 * lam - m - 2) // 2))
            else:
                shape_ok = (poly.is_even_function()
                            and poly.degree == 2 * lam
                            and _sgn(poly.leading) == (-1) ** ((2 * lam - m - 1) // 2))
            if not (pts_ok and shape_ok):
                first_bad = first_bad or (lam, m)
    return CampaignResult(
        label="sign-interpolant-shape",
        t_range=(1, SIGN_LEMMA_LAMBDA_MAX),
        k_range=(0, 2 * SIGN_LEMMA_LAMBDA_MAX - 1),
        passed=first_bad is None,
        worst_margin=1.0 if first_bad is None else -1.0,
        argmin=first_bad or (SIGN_LEMMA_LAMBDA_MAX, 2 * SIGN_LEMMA_LAMBDA_MAX - 1),
        wall_time=time.perf_counter() - t0,
    )


def _det(matrix: list[list]):
    """Determinant by Bareiss's fraction-free elimination (Math. Comp. 22,
    1968) over int, Fraction or mpmath interval entries.

    Step k replaces each entry below and right of the pivot by the 2x2
    minor with the pivot, divided by the previous pivot; over the ints
    that division is exact.  The pivot is the first entry of its column
    that is provably nonzero (an interval must exclude 0; mpmath's `!=`
    is not certified), and every row swap flips the sign.  Returns None
    when some column has no provable pivot: a singular exact matrix, or
    enclosures too wide.
    """
    m = [row[:] for row in matrix]
    n = len(m)
    exact = all(type(v) is int for row in m for v in row)
    sign, prev = 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n)
                    if (m[r][col] > 0) is True or (m[r][col] < 0) is True), None)
        if piv is None:
            return None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        p = m[col][col]
        for r in range(col + 1, n):
            below = m[r][col]
            for c in range(col + 1, n):
                minor = m[r][c] * p - below * m[col][c]
                m[r][c] = minor // prev if exact else minor / prev
        prev = p
    return sign * prev


def vandermonde_positivity(u, x) -> BoundReport:
    """Sign of the generalized Vandermonde determinant det(x_i^(u_j)).

    Strictly positive for 0 <= u_1 < ... < u_l and 0 < x_1 < ... < x_l.
    Integer exponents with rational nodes give the exact determinant by
    elimination over the integers, each row scaled by den(x_i)^max(u);
    anything else is eliminated in interval arithmetic with escalation
    (InconclusiveError at the ceiling), where int and Fraction entries are
    enclosed exactly rather than rounded to float.  Both paths run the
    same `_det`, in O(l^3) operations.
    """
    ell = len(u)
    if ell == 0 or len(x) != ell:
        raise ValueError("need equally sized nonempty exponent/node sequences")
    if any(u[i] >= u[i + 1] for i in range(ell - 1)) or u[0] < 0:
        raise ValueError("exponents must be strictly increasing and >= 0")
    if any(x[i] >= x[i + 1] for i in range(ell - 1)) or x[0] <= 0:
        raise ValueError("nodes must be strictly increasing and > 0")

    exact_exponents = all(isinstance(v, int) or (isinstance(v, Fraction) and v.denominator == 1)
                          for v in u)
    exact_nodes = all(isinstance(v, (int, Fraction)) for v in x)
    if exact_exponents and exact_nodes:
        # row i times den(x_i)^max(u) is integral; those factors divide out
        us, nodes = [int(uj) for uj in u], [xi.as_integer_ratio() for xi in x]
        det = _det([[a ** uj * b ** (us[-1] - uj) for uj in us] for a, b in nodes])
        det = Fraction(0 if det is None else det, math.prod(b for _, b in nodes) ** us[-1])
        return BoundReport.exact(det, 0, det > 0, {
            "size": ell, "method": "exact-elimination", "check": "vandermonde-positivity"},
            slack=float(det))

    def decide(level: int) -> BoundReport | None:
        ctx = iv_at(level)
        det = _det([[ctx.exp(ctx.log(iv_exact(ctx, xi)) * iv_exact(ctx, uj)) for uj in u]
                    for xi in x])
        if det is None:
            return None
        lo, hi = float(det.a), float(det.b)
        if not (lo > 0.0 or hi < 0.0):
            return None
        return BoundReport.exact(float(det.mid), 0, lo > 0.0, {
            "size": ell, "method": f"interval-{level}bit", "check": "vandermonde-positivity"},
            slack=lo)

    return escalate(decide, what="determinant sign")
