"""Truncated Mobius convolution, its moments, and the bound apparatus.

The central object is M(n,z) = sum of mu(d) over divisors d <= z, a step
function of z with jumps only at divisors.  A DivisorProfile caches the
sorted divisors together with prefix sums of mu, so every quantity here
(interval sums, the moments L_t, the threshold-count H_theta) reduces to
exact integer work on that table.

Two independent identities give the moment

    L_t(n) = integral of M(n,z)^t over [1, n]
           = sum_i M_i^t (d_{i+1} - d_i)          (stepwise)
           = -sum_i d_i (M_i^t - M_{i-1}^t)       (summation by parts)

and their agreement is used as a cross-check everywhere.

Analytic bounds (the eta product, the closed-form moment bounds) are
evaluated with upward-rounded enclosures: a bound comparison can fail
only because the inequality fails, never because of rounding.
alpha(theta), the root of exp(w)/w = e / (theta log 2), is certified
too: `alpha_enclosure` bisects a dyadic bracket at one precision level,
and a reader that needs it narrower reads it at the next level of
`certify.escalate`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, pairwise, repeat
from operator import mul
from typing import NamedTuple

from . import kernel
from .certify import (
    DEFAULT_PREC,
    dyadic_upper,
    escalate,
    fraction_le_enclosure,
    interval_ends,
    iv_at,
    iv_exact,
    le_dyadic,
    pow2_ceil,
    pow2_neg_ends,
)
from .core import Factorization, binomial, divisor_table, factorize, primorial
from .errors import DomainError
from .reports import BoundReport

#: reference values alpha(theta), truncated to two decimals
ALPHA_REFERENCE = {
    0.1: 5.34, 0.2: 4.47, 0.3: 3.94, 0.4: 3.54, 0.5: 3.23,
    0.6: 2.96, 0.7: 2.72, 0.8: 2.50, 0.9: 2.30, 1.0: 2.11,
}


class DivisorProfile(NamedTuple):
    """Sorted divisors of n (`core.divisor_table`) with prefix Mobius sums.

    mobius_prefix[i] = sum of mu(d_j) for j <= i, so M(n,z) is a prefix
    lookup at the largest divisor <= z.  divisor_omega[i] counts the
    distinct primes of d_i; D(n,z) is their maximum up to that divisor.
    """

    n: int
    divisors: tuple[int, ...]
    mobius_prefix: tuple[int, ...]
    divisor_omega: tuple[int, ...]
    factorization: Factorization

    @property
    def tau(self) -> int:
        return len(self.divisors)

    @property
    def omega(self) -> int:
        return self.factorization.omega

    @property
    def is_squarefree(self) -> bool:
        return self.factorization.is_squarefree


def divisor_profile(n: int | Factorization) -> DivisorProfile:
    """`core.divisor_table` of n with the mu column summed into prefixes.

    Raises CapacityError, before enumerating, when tau(n) exceeds
    `core.DIVISOR_CAP`.
    """
    f = n if isinstance(n, Factorization) else factorize(n)
    divisors, mus, omegas = divisor_table(f)
    return DivisorProfile(
        n=f.n,
        divisors=divisors,
        mobius_prefix=tuple(accumulate(mus)),
        divisor_omega=omegas,
        factorization=f,
    )


def mertens_truncated(profile: DivisorProfile, z: float) -> int:
    """M(n,z): Mobius sum over divisors <= z (prefix lookup)."""
    if z < 0:
        raise ValueError(f"truncation point must be >= 0, got {z}")
    i = bisect_right(profile.divisors, z)
    return 0 if i == 0 else profile.mobius_prefix[i - 1]


def interval_sum(profile: DivisorProfile, a: float, b: float) -> int:
    """Mobius sum over divisors d with a <= d <= b."""
    if not 1 <= a <= b:
        raise ValueError(f"need 1 <= a <= b, got a={a}, b={b}")
    hi = bisect_right(profile.divisors, b)
    lo = bisect_left(profile.divisors, a)
    upper = profile.mobius_prefix[hi - 1]
    lower = profile.mobius_prefix[lo - 1] if lo > 0 else 0
    return upper - lower


def interval_sum_check(profile: DivisorProfile, a: float, b: float) -> BoundReport:
    """|interval Mobius sum| against the central binomial C(omega, floor(omega/2))."""
    s = interval_sum(profile, a, b)
    bound = binomial(profile.omega, profile.omega // 2)
    return BoundReport.exact(s, bound, abs(s) <= bound, {
        "n": profile.n, "a": a, "b": b, "check": "interval-mobius-sum"},
        slack=float(bound - abs(s)))


def tau_trunc(profile: DivisorProfile, z: float) -> int:
    """tau(n,z): number of divisors <= z."""
    if z < 1:
        raise ValueError(f"truncation point must be >= 1, got {z}")
    return bisect_right(profile.divisors, z)


def _prime_products(profile: DivisorProfile) -> list[int]:
    """[1, p_1, p_1 p_2, ..., rad(n)]: the least divisors with 0, 1, ... primes."""
    return list(accumulate((p for p, _ in profile.factorization.factors), mul, initial=1))


def max_omega_D(profile: DivisorProfile, z: float) -> int:
    """D(n,z): largest omega(d) over divisors d <= z, the number of products
    p_1 ... p_d of n's smallest primes that are <= z (O(omega))."""
    if z < 1:
        raise ValueError(f"truncation point must be >= 1, got {z}")
    return bisect_right(_prime_products(profile), z) - 1


def tau_trunc_check(profile: DivisorProfile, z: float) -> BoundReport:
    """Squarefree bound tau(n,z) <= sum_{j<=D} C(omega, j)."""
    if not profile.is_squarefree:
        raise ValueError(f"n = {profile.n} is not squarefree")
    tz = tau_trunc(profile, z)
    d = max_omega_D(profile, z)
    bound = sum(binomial(profile.omega, j) for j in range(d + 1))
    return BoundReport.exact(tz, bound, tz <= bound, {
        "n": profile.n, "z": z, "D": d, "check": "tau-truncated"})


def _parity_envelope(omega: int, d: int) -> tuple[int, int]:
    """(lower, upper) of the parity envelope for D(n,z) = d."""
    upper = max((binomial(omega - 1, j) for j in range(0, d + 1, 2)), default=0)
    lower = -max((binomial(omega - 1, j) for j in range(1, d + 1, 2)), default=0)
    return lower, upper


def pe_envelope_check(profile: DivisorProfile, z: float) -> BoundReport:
    """M(n,z) within the parity envelope driven by D(n,z).

    -max over odd j <= D of C(omega-1, j)  <=  M(n,z)  <=
     max over even j <= D of C(omega-1, j); empty maxima count as 0.
    """
    if profile.n < 2:
        raise ValueError(f"envelope needs n >= 2, got n = {profile.n}")
    m = mertens_truncated(profile, z)
    d = max_omega_D(profile, z)
    lower, upper = _parity_envelope(profile.omega, d)
    return BoundReport.exact(m, upper, lower <= m <= upper, {
        "n": profile.n, "z": z, "lower": lower, "upper": upper, "D": d,
        "check": "mertens-envelope"}, slack=float(min(m - lower, upper - m)))


def envelope_violations(profile: DivisorProfile) -> list[BoundReport]:
    """pe_envelope_check at every divisor z; reports the z that fail, ascending.

    D(n,z) = d on the run of divisors from p_1 ... p_d up to p_1 ... p_{d+1}
    (`max_omega_D`), so each run is checked once, by the min and max of its
    M(n,z) against its envelope, and only a failing run divisor by divisor."""
    if profile.n < 2:
        raise ValueError(f"envelope needs n >= 2, got n = {profile.n}")
    divs, pref = profile.divisors, profile.mobius_prefix
    edges = [bisect_left(divs, p) for p in _prime_products(profile)] + [profile.tau]
    bad = []
    for d, (lo, hi) in enumerate(pairwise(edges)):
        lower, upper = _parity_envelope(profile.omega, d)
        run = pref[lo:hi]
        if min(run) < lower or max(run) > upper:
            bad += [pe_envelope_check(profile, z)
                    for z, m in zip(divs[lo:hi], run) if not lower <= m <= upper]
    return bad


def moment_stepwise(profile: DivisorProfile, t: int) -> int:
    """L_t(n) as the stepwise integral sum_i M_i^t (d_{i+1} - d_i)."""
    if t < 1:
        raise ValueError(f"moment order must be >= 1, got {t}")
    divs, pref = profile.divisors, profile.mobius_prefix
    total = 0
    for i in range(len(divs) - 1):
        m = pref[i]
        if m:
            total += m ** t * (divs[i + 1] - divs[i])
    return total


def moment_by_parts(profile: DivisorProfile, t: int) -> int:
    """L_t(n) by summation by parts: -sum_i d_i (M_i^t - M_{i-1}^t).

    Must agree with moment_stepwise on every input; the two are kept as
    mutual oracles.
    """
    if t < 1:
        raise ValueError(f"moment order must be >= 1, got {t}")
    if profile.n == 1:
        return 0
    divs, pref = profile.divisors, profile.mobius_prefix
    total = 0
    prev = 0
    for i, d in enumerate(divs):
        cur = pref[i] ** t
        if cur != prev:
            total += d * (cur - prev)
        prev = cur
    return -total


def J_rho(profile: DivisorProfile, rho: int) -> Fraction:
    """J_rho(n) = sum_i i^rho / d_i over the sorted divisors (squarefree n).

    Computed as an exact single fraction: sum_i i^rho * (n/d_i) over n,
    where n/d_i = d_{tau+1-i} (divisors pair up), so nothing is divided.
    """
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    if not profile.is_squarefree:
        raise ValueError(f"J_rho needs squarefree n, got n = {profile.n}")
    powers = map(pow, range(1, profile.tau + 1), repeat(rho))
    return Fraction(sum(map(mul, powers, reversed(profile.divisors))), profile.n)


def eta_log_interval(primes, t: int):
    """Enclosure of log eta = sum over p of log(1 + p^(-1/t)), t an int >= 1,
    at DEFAULT_PREC bits: `kernel.log_eta_sums` over all of `primes`.
    """
    return kernel.log_eta_sums(primes, t, [len(primes)], DEFAULT_PREC)[len(primes)]


def eta(f: Factorization, t: int) -> float:
    """eta(n,t) = prod over p|n of (1 + p^(-1/t)) for an int t >= 1, rounded up.

    The reported float is a certified upper bound of the true product:
    the least float at or above the upper end of `kernel.eta_fixed_point`
    at DEFAULT_PREC.
    """
    primes = [p for p, _ in f.factors]
    bits, ends = kernel.eta_fixed_point(primes, t, [len(primes)], DEFAULT_PREC)
    return dyadic_upper(ends[len(primes)][1], -bits)


def chain_check(profile: DivisorProfile, t: int, moment: int) -> BoundReport:
    """Verify |L_t(n)| <= t n J_{t-1}(n) <= t n eta(n,t)^t, with L_t(n) the
    caller's `moment` (as in `thm_bounds`).

    The left comparison is exact; the right, J_{t-1} <= eta^t, is decided
    by `certify.le_dyadic` on the integer ends lo^t and hi^t at e = -tF of
    `kernel.eta_fixed_point`, escalating on overlap.  The report's bound
    is t n times the DEFAULT_PREC upper end, with no interval log or exp.
    """
    if t < 2:
        raise ValueError(f"chain check needs t >= 2, got {t}")
    if profile.n < 2 or not profile.is_squarefree:
        raise ValueError(f"chain check needs squarefree n >= 2, got n = {profile.n}")
    n = profile.n
    lt = abs(moment)
    j = J_rho(profile, t - 1)
    middle = t * n * j
    first_holds = lt <= middle
    primes = [p for p, _ in profile.factorization.factors]

    def eta_power(level: int) -> tuple[int, int, int]:
        bits, ends = kernel.eta_fixed_point(primes, t, [len(primes)], level)
        lo, hi = ends[len(primes)]
        return lo ** t, hi ** t, -t * bits

    second_holds, (_, hi, e) = le_dyadic(j, eta_power)
    return BoundReport.dyadic(lt, t * n * hi, e, first_holds and second_holds, {
        "n": n, "t": t, "middle": middle, "middle_holds": first_holds,
        "eta_holds": second_holds, "check": "moment-chain"})


@lru_cache(maxsize=64)
def _primorial_J(omega: int, rho: int) -> tuple[int, Fraction]:
    """primorial(omega) and its exact J_rho, per (omega, rho)."""
    top = primorial(omega)
    return top, J_rho(divisor_profile(top), rho)


def domination_check(profile: DivisorProfile, rho: int) -> BoundReport:
    """J_rho(n) <= J_rho(primorial(omega(n))), both exact rationals."""
    if not profile.is_squarefree:
        raise ValueError(f"domination check needs squarefree n, got {profile.n}")
    lhs = J_rho(profile, rho)
    top, rhs = _primorial_J(profile.omega, rho)
    return BoundReport.exact(lhs, rhs, lhs <= rhs, {
        "n": profile.n, "rho": rho, "primorial": top, "rhs_exact": rhs,
        "check": "primorial-domination"})


@lru_cache(maxsize=256)
def _thm_exponentials(omega: int, t: int, c: str, level: int) -> tuple[tuple, tuple]:
    """exp of both moment-bound exponents, enclosed at `level` bits, as the
    exact integer ends (lo, hi, e) of each enclosure.

    n enters thm_bounds only as a final factor, so these depend on
    (omega, t) and on C's decimal string, which is part of the key: a
    changed kernel.ETA_CONSTANT_HI is never served a stale enclosure.
    """
    ctx = iv_at(level)
    if omega == 0:
        pow_term = expo1 = ctx.mpf(0)
    else:
        pow_term = ctx.exp(ctx.log(ctx.mpf(omega)) * (1 - ctx.mpf(1) / t))
        expo1 = ctx.mpf(c) * t * kernel._hard_factor_iv(ctx, t, omega)
    return interval_ends(ctx.exp(expo1)), interval_ends(ctx.exp(t * pow_term))


def thm_bounds(f: Factorization, t: int, moment: int) -> tuple[BoundReport, BoundReport]:
    """|moment| against both closed-form moment bounds, each certified.

    First:  (1 + [t==2]) n exp( C t omega^(1-1/t) / ((1-1/t) logplus(omega)^(1/t)) )
    Second: 2n exp(t omega^(1-1/t)) when t = 2 and omega <= 55,
            n exp(t omega^(1-1/t)) otherwise,
    with logplus(x) = log(max(x, 2)) and C = kernel.ETA_CONSTANT_HI,
    which the hard campaign certifies.  Each verdict is |moment| / factor
    against the cached ends of the exponential, decided by
    `certify.le_dyadic`, escalating on overlap; the bound is the factor
    times the 128-bit upper end.
    """
    if t < 2:
        raise ValueError(f"moment bounds need t >= 2, got {t}")
    if not f.is_squarefree:
        raise ValueError(f"moment bounds stated for squarefree n, got {f.n}")
    om, n, c = f.omega, f.n, kernel.ETA_CONSTANT_HI
    scales = ((2 if t == 2 else 1) * n, (2 if t == 2 and om <= 55 else 1) * n)
    lt = abs(moment)

    def report(i: int) -> BoundReport:
        holds, (_, hi, e) = le_dyadic(Fraction(lt, scales[i]),
                                      lambda level: _thm_exponentials(om, t, c, level)[i])
        return BoundReport.dyadic(lt, scales[i] * hi, e, holds,
                                  {"n": n, "t": t, "check": f"moment-bound-{i + 1}"})

    return report(0), report(1)


@lru_cache(maxsize=256)
def alpha_enclosure(theta: float | Fraction, level: int) -> tuple[Fraction, Fraction]:
    """Dyadic lo < hi around alpha(theta), bisected at `level` bits.

    alpha is the root of g(w) = w - 1 - log w + log(theta log 2), which
    increases on [1, inf) from g(1) = log(theta log 2) < 0.  hi doubles
    from 2 until g(hi) > 0 is certified; [1, hi] is then bisected, keeping
    g(lo) <= 0 < g(hi) certified, until the sign of g(mid) is undecided.
    theta is read exactly (a float at its binary value, a Fraction as is).
    """
    if not 0 < theta <= 1:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    ctx = iv_at(level)
    c = ctx.log(iv_exact(ctx, theta) * ctx.ln2) - 1

    def g_positive(w: Fraction) -> bool | None:
        x = iv_exact(ctx, w)
        g = x - ctx.log(x) + c
        return True if g.a > 0 else None if g.b > 0 else False

    lo, hi = Fraction(1), Fraction(2)
    while g_positive(hi) is not True:
        hi *= 2
    while (up := g_positive(mid := (lo + hi) / 2)) is not None:
        lo, hi = (lo, mid) if up else (mid, hi)
    return lo, hi


def alpha_of_theta(theta: float | Fraction) -> float:
    """alpha(theta), the root w >= 1 of exp(w)/w = e / (theta log 2): the
    float midpoint of its DEFAULT_PREC `alpha_enclosure`."""
    return float(sum(alpha_enclosure(theta, DEFAULT_PREC)) / 2)


def H_theta_exact(profile: DivisorProfile, theta: float | Fraction) -> int:
    """Count of j in [1,n] with |M(n,j)| >= 2^(theta omega(n)).

    M is constant between consecutive divisors, so the count walks the
    tau(n) - 1 divisor gaps instead of enumerating j: the work is
    O(tau(n)) whatever n is, and `core.DIVISOR_CAP` bounds tau(n) when
    the profile is built.  The threshold is certified at theta's exact
    value (a float's binary value, a Fraction as is): an integer m meets
    2^q, q = theta omega, exactly when m >= `certify.pow2_ceil(q)`.
    """
    if profile.n < 2:
        raise ValueError(f"count needs n >= 2, got {profile.n}")
    if not 0 < theta <= 1:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    threshold = pow2_ceil(Fraction(theta) * profile.omega)
    divs, pref = profile.divisors, profile.mobius_prefix
    total = 0
    for i in range(len(divs) - 1):
        if abs(pref[i]) >= threshold:
            total += divs[i + 1] - divs[i]
    # the last divisor is n itself where M(n,n) = 0 < 2^q
    return total


def H_chain_check(profile: DivisorProfile, theta: float | Fraction, t: int) -> BoundReport:
    """H_theta(n) <= L_t(n) / 2^q, q = t theta omega, for even t, decided
    as H_theta / L_t against the cached ends of 2^-q (`pow2_neg_ends`,
    exact at integral q, the one case where equality can hold) by
    `certify.le_dyadic`; the report's bound is L_t times the DEFAULT_PREC
    upper end."""
    if t % 2 or t < 2:
        raise ValueError(f"chain needs even t >= 2, got {t}")
    h = H_theta_exact(profile, theta)
    lt = moment_by_parts(profile, t)  # > 0 for even t: M(n, z) = 1 on [1, 2)
    q = Fraction(theta) * (t * profile.omega)
    holds, (_, hi, e) = le_dyadic(
        Fraction(h, lt), lambda level: pow2_neg_ends(q, level),
        what=f"threshold-count chain at n = {profile.n}, theta = {theta}, t = {t}")
    return BoundReport.dyadic(h, lt * hi, e, holds, {
        "n": profile.n, "theta": theta, "t": t, "moment": lt, "check": "threshold-count-chain"})


def _optimizer_hypothesis(theta: float | Fraction, omega: int) -> None:
    """Certify alpha(theta) - 1 < log(omega): g(w) = w - log(w e / (theta
    log 2)) increases on [1, inf) and vanishes at alpha, so it is g(1 + log
    omega) > 0, i.e. theta omega > (1 + log omega) / log 2 (never equal:
    e is transcendental)."""
    if not 0 < theta <= 1:
        raise ValueError(f"theta must lie in (0, 1], got {theta}")

    def bound(level: int):
        ctx = iv_at(level)
        return (1 + ctx.log(ctx.mpf(omega))) / ctx.ln2

    if omega < 1 or fraction_le_enclosure(Fraction(theta) * omega, bound,
                                          what="optimizer hypothesis"):
        raise DomainError(f"hypothesis alpha-1 < log(omega) fails at theta = {theta}, "
                          f"omega = {omega}: theta omega <= (1 + log omega) / log 2")


def optimal_even_t(theta: float | Fraction, omega: int) -> int:
    """Even t minimizing f(t) = t (omega^(-1/t) - theta log 2).

    Requires alpha - 1 < log(omega).  f is convex in t (f'' = log(omega)^2
    t^-3 omega^(-1/t) > 0), so the walk t = 2, 4, ... stops at the first t
    where f(t + 2) < f(t) fails, the even argmin (ties go to the smaller t);
    an open step re-walks one precision level up.
    """
    _optimizer_hypothesis(theta, omega)

    def decide(level: int):
        ctx = iv_at(level)
        lw, c = ctx.log(ctx.mpf(omega)), iv_exact(ctx, theta) * ctx.ln2
        here = 2 * (ctx.exp(-lw / 2) - c)
        for t in count(2, 2):
            there = (t + 2) * (ctx.exp(-lw / (t + 2)) - c)
            if (there < here) is not True:
                return t if (there >= here) is True else None
            here = there

    return escalate(decide, what="even-t walk")


def corollary_exponent(theta: float, omega: int) -> float:
    """Exponent of the threshold-count bound: main term plus correction.

    -(theta log2 / alpha) omega log(omega)
      + ((alpha-1)/(1-(alpha-1)/log omega))^3
        * omega / (exp((alpha-1)/(1+(alpha-1)/log omega)) log omega),
    a float from `alpha_of_theta`, the midpoint of the certified alpha
    enclosure (cached per theta); the hypothesis on alpha is certified.
    """
    if omega < 56:
        raise DomainError(f"bound stated for omega >= 56, got {omega}")
    _optimizer_hypothesis(theta, omega)
    alpha = alpha_of_theta(theta)
    lw = math.log(omega)
    main = -(theta * math.log(2) / alpha) * omega * lw
    a1 = alpha - 1
    correction = (a1 / (1 - a1 / lw)) ** 3 * omega / (math.exp(a1 / (1 + a1 / lw)) * lw)
    return main + correction


def corollary_bound(theta: float, omega: int, n: int) -> float:
    """n exp(corollary_exponent); inf on float overflow (still an upper bound)."""
    log_total = math.log(n) + corollary_exponent(theta, omega)
    return math.inf if log_total > 709.0 else math.exp(log_total)
