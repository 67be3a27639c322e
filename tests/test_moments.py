"""Truncated convolution, moments, and the bound apparatus.

Independent oracles used here:
* moment_oracle: M(n,z) is constant on [j, j+1), so the moment integral
  is literally sum_{j=1}^{n-1} M(n,j)^t with M(n,j) summed divisor by
  divisor;
* H_oracle: direct enumeration of j = 1..n with a float threshold
  (inputs chosen away from ties).
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from divlat import certify, kernel, moments
from divlat import (
    DomainError,
    InconclusiveError,
    H_chain_check,
    H_theta_exact,
    J_rho,
    alpha_enclosure,
    alpha_of_theta,
    chain_check,
    corollary_bound,
    corollary_exponent,
    divisor_profile,
    domination_check,
    envelope_violations,
    eta,
    factorize,
    interval_sum,
    interval_sum_check,
    max_omega_D,
    mertens_truncated,
    mobius,
    moment_by_parts,
    moment_stepwise,
    optimal_even_t,
    pe_envelope_check,
    primorial,
    tau_trunc,
    tau_trunc_check,
)
from divlat.certify import interval_ends, iv_at
from divlat.moments import ALPHA_REFERENCE, thm_bounds

from conftest import chain_bound_oracle, spy_on_contexts

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def mu_int(n):
    return mobius(factorize(n))


@lru_cache(maxsize=None)
def trial_divisors(n):
    """Divisors by trial division, independent of the divisor enumerator."""
    return [d for d in range(1, n + 1) if n % d == 0]


def mertens_oracle(n, z):
    return sum(mu_int(d) for d in trial_divisors(n) if d <= z)


def moment_oracle(n, t):
    return sum(mertens_oracle(n, j) ** t for j in range(1, n))


def squarefree_subset_strategy(max_size=6):
    return st.sets(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=max_size)


# ---------------------------------------------------------------------------
# profile and prefix sums
# ---------------------------------------------------------------------------

def test_profile_invariants():
    p = divisor_profile(60)
    assert p.mobius_prefix[-1] == 0
    assert divisor_profile(1).mobius_prefix == (1,)
    steps = [b - a for a, b in zip((0,) + p.mobius_prefix, p.mobius_prefix)]
    assert set(steps) <= {-1, 0, 1}


def test_mertens_truncated():
    assert mertens_truncated(divisor_profile(6), 2) == 0
    assert mertens_truncated(divisor_profile(1), 7) == 1
    assert mertens_truncated(divisor_profile(30), 6) == -1
    assert mertens_truncated(divisor_profile(30), 0.5) == 0


@given(st.integers(2, 3000), st.integers(1, 3000))
@settings(max_examples=100)
def test_mertens_matches_oracle(n, z):
    assert mertens_truncated(divisor_profile(n), z) == mertens_oracle(n, z)


def test_interval_sum():
    p30 = divisor_profile(30)
    assert interval_sum(p30, 2, 15) == 0
    assert interval_sum(divisor_profile(1), 1, 1) == 1
    rep = interval_sum_check(p30, 2, 15)
    assert rep.holds and rep.bound_value == 3
    with pytest.raises(ValueError):
        interval_sum(p30, 5, 2)


def test_tau_trunc_and_D():
    p30 = divisor_profile(30)
    assert tau_trunc(p30, 6) == 5
    assert max_omega_D(p30, 6) == 2
    assert tau_trunc(divisor_profile(6), 1) == 1
    assert max_omega_D(divisor_profile(6), 1) == 0
    rep = tau_trunc_check(p30, 6)
    assert rep.holds and rep.bound_value == 7  # C(3,0)+C(3,1)+C(3,2)


def test_max_omega_D_matches_scan():
    """D(n,z) against the running maximum of divisor_omega at the last divisor <= z."""
    for n in range(1, 2001):
        p = divisor_profile(n)
        running = list(accumulate(p.divisor_omega, max))
        for i, d in enumerate(p.divisors):
            assert max_omega_D(p, d) == max_omega_D(p, d + 0.5) == running[i], (n, d)
        assert max_omega_D(p, n + 10) == running[-1]


def test_envelope():
    rep = pe_envelope_check(divisor_profile(30), 6)
    assert rep.holds
    assert rep.context["lower"] == -2 and rep.context["upper"] == 1
    rep2 = pe_envelope_check(divisor_profile(2), 1)
    assert rep2.holds and rep2.context["lower"] == 0 and rep2.context["upper"] == 1
    with pytest.raises(ValueError):
        pe_envelope_check(divisor_profile(1), 1)


def test_envelope_matches_uncached_binomials():
    p = divisor_profile(primorial(10))
    om = p.omega
    for z in p.divisors:
        d = max(p.divisor_omega[:tau_trunc(p, z)])
        rep = pe_envelope_check(p, z)
        assert rep.context["D"] == d
        assert rep.context["upper"] == max(math.comb(om - 1, j) for j in range(0, d + 1, 2))
        assert rep.context["lower"] == -max((math.comb(om - 1, j) for j in range(1, d + 1, 2)),
                                            default=0)
        assert rep.holds


def _failing_checks(p):
    return [r.to_jsonable() for z in p.divisors if not (r := pe_envelope_check(p, z)).holds]


@pytest.mark.parametrize("narrowing", [0, 1])
def test_envelope_violations_are_the_failing_checks(narrowing, monkeypatch):
    """The one-walk check reports what pe_envelope_check fails at each divisor.

    With the true envelope that is nothing; with one narrower by `narrowing`
    on each side it is every divisor on the true edge, so a walk whose
    filter is one wider or one narrower than the check's fails here.
    """
    envelope = moments._parity_envelope
    monkeypatch.setattr(moments, "_parity_envelope", lambda omega, d: (
        envelope(omega, d)[0] + narrowing, envelope(omega, d)[1] - narrowing))
    found = 0
    for n in (primorial(10), *range(2, 401)):
        p = divisor_profile(n)
        walk = [r.to_jsonable() for r in envelope_violations(p)]
        assert walk == _failing_checks(p), n
        found += len(walk)
    assert (found > 0) == bool(narrowing)


def test_envelope_violations_at_one_emptied_run(monkeypatch):
    """With the envelope at D = d alone narrowed to nothing, exactly d's run
    violates: every divisor whose running maximum of divisor_omega is d and
    no other, in the per-divisor list.  A run edge off by one either way
    moves a divisor in or out of that run."""
    envelope = moments._parity_envelope
    for n in (primorial(10), *range(2, 401)):
        p = divisor_profile(n)
        running = list(accumulate(p.divisor_omega, max))
        for d in range(p.omega + 1):
            monkeypatch.setattr(moments, "_parity_envelope", lambda omega, e: (
                (1, 0) if e == d else envelope(omega, e)))
            walk = [r.to_jsonable() for r in envelope_violations(p)]
            assert walk == _failing_checks(p), (n, d)
            assert [r["context"]["z"] for r in walk] == [
                z for z, e in zip(p.divisors, running) if e == d], (n, d)


def test_envelope_violations_need_n_at_least_2():
    with pytest.raises(ValueError, match="envelope needs n >= 2"):
        envelope_violations(divisor_profile(1))


def test_envelope_exhaustive_small():
    for n in range(2, 400):
        f = factorize(n)
        if not f.is_squarefree:
            continue
        p = divisor_profile(f)
        for z in p.divisors:
            assert pe_envelope_check(p, z).holds
            assert tau_trunc_check(p, z).holds


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_moment_values():
    assert moment_stepwise(divisor_profile(6), 1) == -2
    assert moment_stepwise(divisor_profile(6), 2) == 4
    assert moment_by_parts(divisor_profile(6), 2) == 4
    assert moment_stepwise(divisor_profile(30), 1) == 8
    assert moment_stepwise(divisor_profile(30), 2) == 26
    assert moment_stepwise(divisor_profile(1), 3) == 0
    assert moment_by_parts(divisor_profile(1), 3) == 0


def test_moment_against_integer_step_oracle():
    for n in (2, 6, 12, 30, 210, 330):
        p = divisor_profile(n)
        for t in range(1, 5):
            expected = moment_oracle(n, t)
            assert moment_stepwise(p, t) == expected
            assert moment_by_parts(p, t) == expected


@given(squarefree_subset_strategy(), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_moment_identities_agree(primes, t):
    n = math.prod(primes)
    p = divisor_profile(n)
    assert moment_stepwise(p, t) == moment_by_parts(p, t)


def test_first_moment_closed_form_small():
    for n in range(2, 1500):
        f = factorize(n)
        expected = -math.prod(1 - p for p, _ in f.factors)
        assert moment_stepwise(divisor_profile(f), 1) == expected


def test_moment_radical_invariance():
    for n in (12, 72, 500, 900, 1024):
        f = factorize(n)
        for t in range(1, 5):
            assert (moment_stepwise(divisor_profile(f), t)
                    == moment_stepwise(divisor_profile(f.gamma), t))


# ---------------------------------------------------------------------------
# J_rho, eta, chains
# ---------------------------------------------------------------------------

def test_J_rho():
    p6 = divisor_profile(6)
    assert J_rho(p6, 0) == 2
    assert J_rho(p6, 1) == Fraction(11, 3)
    # J_0(n) = sigma(n)/n on squarefree n
    for n in (2, 6, 15, 30, 210):
        assert J_rho(divisor_profile(n), 0) == Fraction(sum(trial_divisors(n)), n)
    with pytest.raises(ValueError):
        J_rho(divisor_profile(12), 1)


def test_J_rho_matches_definition():
    """J_rho against sum_i i^rho / d_i term by term, at rho = 0..5."""
    squarefree = [n for n in range(1, 3001) if factorize(n).is_squarefree]
    for n in (*squarefree, primorial(10), primorial(14)):
        p = divisor_profile(n)
        for rho in range(6):
            want = sum(Fraction(i ** rho, d) for i, d in enumerate(p.divisors, 1))
            assert J_rho(p, rho) == want, (n, rho)


def test_eta():
    assert eta(factorize(2), 2) == pytest.approx(1 + 2 ** -0.5, rel=1e-12)
    assert eta(factorize(1), 3) == pytest.approx(1.0)
    assert eta(factorize(6), 2) == pytest.approx(2.69270534, rel=1e-8)
    # reported value is an upper bound
    assert eta(factorize(6), 2) >= (1 + 2 ** -0.5) * (1 + 3 ** -0.5)


def test_chain_check():
    p6 = divisor_profile(6)
    rep = chain_check(p6, 2, moment_by_parts(p6, 2))
    assert rep.holds
    assert rep.context["middle"] == 44  # 2 * 6 * 11/3
    assert rep.bound_value == pytest.approx(87.0, abs=0.1)
    p2, p12 = divisor_profile(2), divisor_profile(12)
    rep2 = chain_check(p2, 2, moment_by_parts(p2, 2))
    assert rep2.holds and rep2.exact_value == 1
    with pytest.raises(ValueError):
        chain_check(p12, 2, moment_by_parts(p12, 2))


def test_chain_check_encloses_eta_once_per_level(monkeypatch):
    """Wherever certify starts the ladder, eta^t is enclosed once at each
    level escalate tries, and `bound` comes from the first of them."""
    levels = []
    original = kernel.eta_fixed_point

    def counted(primes, t, ks, level):
        levels.append(level)
        return original(primes, t, ks, level)

    monkeypatch.setattr(certify, "DEFAULT_PREC", 64)
    monkeypatch.setattr(kernel, "eta_fixed_point", counted)
    profile = divisor_profile(30030)
    rep = chain_check(profile, 3, moment_by_parts(profile, 3))
    assert rep.holds and levels and levels == [64 << i for i in range(len(levels))]


def test_chain_check_sums_log_eta_once(monkeypatch):
    """One pass of the eta kernel over the six primes of 30030, and no
    interval log or exp: the enclosure is built from its integer ends."""
    calls, transcendental = [], []
    original = kernel.eta_fixed_point

    def counted(primes, t, ks, level):
        calls.append((t, list(ks)))
        return original(primes, t, ks, level)

    monkeypatch.setattr(kernel, "eta_fixed_point", counted)
    for name in ("log", "exp"):
        spy_on_contexts(monkeypatch, name, lambda level, *a, name=name: transcendental.append(name))
    profile = divisor_profile(30030)
    rep = chain_check(profile, 3, moment_by_parts(profile, 3))
    assert rep.holds and calls == [(3, [6])] and transcendental == []


def test_chain_check_needs_the_lower_end_to_hold(monkeypatch):
    """With eta's lower end dropped to 0 at every level, t n lo^t cannot
    certify the middle, so the chain is undecided up to the ceiling."""
    original = kernel.eta_fixed_point

    def no_lower_end(primes, t, ks, level):
        bits, ends = original(primes, t, ks, level)
        return bits, {k: (0, hi) for k, (_, hi) in ends.items()}

    monkeypatch.setattr(kernel, "eta_fixed_point", no_lower_end)
    profile = divisor_profile(30030)
    with pytest.raises(InconclusiveError):
        chain_check(profile, 4, moment_by_parts(profile, 4))


def test_chain_check_fails_a_moment_above_the_middle():
    """|L_t| <= t n J_{t-1} is a theorem, so no input fails it: with a
    moment one above the middle, the chain must not hold, whatever the eta
    side decides."""
    profile = divisor_profile(30030)
    middle = chain_check(profile, 4, moment_by_parts(profile, 4)).context["middle"]
    rep = chain_check(profile, 4, math.floor(middle) + 1)
    assert rep.context["eta_holds"] and not rep.context["middle_holds"] and not rep.holds


@given(squarefree_subset_strategy(5), st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_chain_holds_randomly(primes, t):
    profile = divisor_profile(math.prod(primes))
    assert chain_check(profile, t, moment_by_parts(profile, t)).holds


def test_domination():
    rep = domination_check(divisor_profile(15), 0)
    assert rep.holds
    assert rep.exact_value == Fraction(24, 15)
    assert rep.context["rhs_exact"] == 2
    # equality on primorials
    rep_eq = domination_check(divisor_profile(primorial(3)), 2)
    assert rep_eq.holds and rep_eq.slack == 0


@given(squarefree_subset_strategy(5), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_domination_random(primes, rho):
    assert domination_check(divisor_profile(math.prod(primes)), rho).holds


def test_thm_bounds():
    lt = moment_stepwise(divisor_profile(6), 2)
    r1, r2 = thm_bounds(factorize(6), 2, lt)
    assert r2.bound_value == pytest.approx(2 * 6 * math.exp(2 * math.sqrt(2)), rel=1e-9)
    assert abs(lt) <= r2.bound_value <= r1.bound_value
    assert r1.holds and r2.holds and r1.exact_value == r2.exact_value == abs(lt)
    r1, r2 = thm_bounds(factorize(1), 3, 0)
    assert r1.bound_value == pytest.approx(1.0) and r2.bound_value == pytest.approx(1.0)
    with pytest.raises(ValueError):
        thm_bounds(factorize(6), 1, 0)
    with pytest.raises(ValueError):
        thm_bounds(factorize(12), 2, 0)


def test_thm_bounds_follows_patched_constant(monkeypatch):
    # the n-independent enclosures are cached; a changed C must not be
    # served the enclosure cached under the old one
    f = factorize(2 * 3 * 5 * 7)

    def values():
        return tuple(r.bound_value for r in thm_bounds(f, 3, 0))

    b1, b2 = values()
    monkeypatch.setattr(kernel, "ETA_CONSTANT_HI", "1.5")
    p1, p2 = values()
    assert p1 > b1 and p2 == b2
    monkeypatch.setattr(kernel, "ETA_CONSTANT_LO", "0.10")
    monkeypatch.setattr(kernel, "ETA_CONSTANT_HI", "0.11")
    assert values()[0] < b1
    monkeypatch.undo()
    assert values() == (b1, b2)


@given(squarefree_subset_strategy(), st.integers(2, 6))
@settings(max_examples=80, deadline=None)
def test_thm_bounds_dominate(primes, t):
    f = factorize(math.prod(primes))
    lt = moment_stepwise(divisor_profile(f), t)
    for rep in thm_bounds(f, t, lt):
        assert rep.holds
        assert Fraction(abs(lt)) <= Fraction(rep.bound_value)


def _first_bound(n: int, t: int, level: int):
    """(1 + [t==2]) n exp(C t w^(1-1/t) / ((1-1/t) log(w)^(1/t))) for w = omega(n) >= 2,
    written out from the statement at `level` bits."""
    iv = iv_at(level)
    w = iv.mpf(factorize(n).omega)
    ex = 1 - iv.mpf(1) / t
    expo = (iv.mpf(kernel.ETA_CONSTANT_HI) * t * iv.exp(iv.log(w) * ex)
            / (ex * iv.exp(iv.log(iv.log(w)) / t)))
    return (2 if t == 2 else 1) * n * iv.exp(expo)


def test_thm_bounds_refuse_what_the_rounded_float_admits():
    """A moment above the true first bound but below its upward-rounded
    float: the float rule m <= b1 passes it, the certified verdict not."""
    n = primorial(14)
    m = 1 + int(_first_bound(n, 4, 256).b)
    first, _ = thm_bounds(factorize(n), 4, m)
    assert m <= first.bound_value
    assert not first.holds


def test_thm_bounds_escalate_inside_the_128_bit_enclosure(monkeypatch):
    """floor(bound) > 2^140 lies inside the 128-bit enclosure; a higher
    level decides it, and floor(bound) + 1 the other way."""
    n, t = 30, 60
    y = _first_bound(n, t, 512)
    m = int(y.a)
    assert m == int(y.b) and m > 2 ** 140  # floor(bound), exactly
    escalations = []  # one list of (level, verdict) per escalate call
    escalate = certify.escalate

    def spy(decide, what="comparison"):
        levels = []
        escalations.append(levels)

        def logged(level):
            levels.append((level, decide(level)))
            return levels[-1][1]
        return escalate(logged, what)

    monkeypatch.setattr(certify, "escalate", spy)
    for moment, verdict in ((m, True), (m + 1, False)):
        escalations.clear()
        assert thm_bounds(factorize(n), t, moment)[0].holds is verdict
        levels = escalations[0]  # the first bound's; the second escalates too
        assert levels[0] == (128, None) and levels[-1][1] is verdict
        assert len(levels) > 1


@pytest.mark.parametrize("start", [128, 8])
def test_reported_bounds_lie_above_the_bound(start, monkeypatch):
    """eta(), chain_check's t n eta^t and both thm_bounds report a float at
    or above the bound evaluated at 300 bits, also when an 8-bit start
    leaves them the wide ends of a low level, where a float read from the
    lower end would lie below it."""
    monkeypatch.setattr(certify, "DEFAULT_PREC", start)
    monkeypatch.setattr(moments, "DEFAULT_PREC", start)
    low = []
    for n in (6, 30, 2310, 30030):
        f, profile = factorize(n), divisor_profile(n)
        for t in (2, 3, 4, 6):
            moment = moment_by_parts(profile, t)
            first, second = thm_bounds(f, t, moment)
            reported = (eta(f, t), chain_check(profile, t, moment).bound_value,
                        first.bound_value, second.bound_value)
            with mp.workprec(300):
                ex, w = 1 - mpf(1) / t, mpf(f.omega)
                eta_t = mp.fprod(1 + mpf(p) ** -(mpf(1) / t) for p, _ in f.factors)
                hard = mpf(kernel.ETA_CONSTANT_HI) * t * w ** ex / (ex * mp.log(w) ** (mpf(1) / t))
                bounds = (eta_t, t * n * eta_t ** t,
                          (2 if t == 2 else 1) * n * mp.exp(hard),
                          (2 if t == 2 and f.omega <= 55 else 1) * n * mp.exp(t * w ** ex))
                low += [(i, n, t) for i, (got, want) in enumerate(zip(reported, bounds))
                        if not mpf(got) >= want]
    assert low == [], start


def test_exact_bounds_are_reported_rounded_up():
    rep = domination_check(divisor_profile(15), 1)
    assert rep.context["rhs_exact"] == Fraction(11, 3)
    assert Fraction(rep.bound_value) >= Fraction(11, 3)  # float(11/3) lies below
    assert rep.slack == float(Fraction(11, 3) - rep.exact_value)


# ---------------------------------------------------------------------------
# alpha, H_theta
# ---------------------------------------------------------------------------

#: the theta grid of test_alpha_monotone
ALPHA_GRID = [0.01 + 0.0099 * i for i in range(100)]


def test_alpha_enclosure_brackets_the_root():
    """g(lo) <= 0 < g(hi) at 256 bits for g(w) = w - 1 - log w + log(theta
    log 2), which increases on [1, inf) and vanishes at alpha; the table's
    thetas are read as the decimals it names."""
    def exact(v) -> mpf:
        q = Fraction(v)
        return mpf(q.numerator) / q.denominator

    thetas = [*ALPHA_GRID, *(Fraction(str(theta)) for theta in ALPHA_REFERENCE)]
    with mp.workprec(256):
        for theta in thetas:
            lo, hi = alpha_enclosure(theta, certify.DEFAULT_PREC)
            c = mp.log(exact(theta) * mp.log(2))
            g_lo, g_hi = (exact(w) - 1 - mp.log(exact(w)) + c for w in (lo, hi))
            assert 1 < lo < hi < lo + Fraction(1, 10 ** 30), theta
            assert g_lo <= 0 < g_hi, theta


def test_alpha_of_theta_matches_lambert_w():
    """alpha = -W_{-1}(-theta log 2 / e), the lower real branch of Lambert W
    (Corless et al., Adv. Comput. Math. 5, 1996), here an oracle only."""
    with mp.workprec(113):
        for theta in [*ALPHA_GRID, *ALPHA_REFERENCE]:
            w = -mp.lambertw(-mpf(theta) * mp.log(2) / mp.e, -1).real
            assert alpha_of_theta(theta) == pytest.approx(float(w), rel=1e-15, abs=0), theta


def test_alpha_table_truncated():
    for theta, expected in ALPHA_REFERENCE.items():
        a = alpha_of_theta(theta)
        assert math.floor(a * 100) / 100 == pytest.approx(expected)


def test_alpha_monotone():
    grid = [alpha_of_theta(theta) for theta in ALPHA_GRID]
    assert all(a > b for a, b in zip(grid, grid[1:]))
    with pytest.raises(ValueError):
        alpha_of_theta(0.0)
    with pytest.raises(ValueError):
        alpha_of_theta(1.5)


def H_oracle(n, theta):
    f = factorize(n)
    thr = 2.0 ** (theta * f.omega)
    return sum(1 for j in range(1, n + 1) if abs(mertens_oracle(n, j)) >= thr)


def test_H_theta():
    assert H_theta_exact(divisor_profile(6), 1.0) == 0
    assert H_theta_exact(divisor_profile(2), 1.0) == 0
    assert H_theta_exact(divisor_profile(30), 0.1) == 1  # j = 5 has M = -2


def test_H_theta_against_enumeration():
    for n in (2, 6, 30, 210, 2310, 4620):
        for theta in (0.1, 0.3, 0.7, 1.0):
            assert H_theta_exact(divisor_profile(n), theta) == H_oracle(n, theta)


def test_H_theta_integral_threshold():
    # theta * omega integral: threshold 2^2 = 4 exactly, |M| = 4 counts
    p = divisor_profile(2 * 3 * 5 * 7)  # omega = 4, theta = 0.5 -> q = 2
    direct = sum(1 for j in range(1, 211) if abs(mertens_oracle(210, j)) >= 4)
    assert H_theta_exact(p, 0.5) == direct


def test_divisor_profile_cap(monkeypatch):
    from divlat import CapacityError, core
    monkeypatch.setattr(core, "DIVISOR_CAP", 8)
    assert divisor_profile(30).tau == 8
    with pytest.raises(CapacityError, match="divisor cap 8"):
        divisor_profile(210)


def H_gap_oracle(primes, theta):
    """H_theta(prod primes) walked over divisor gaps: divisors are products
    of each prime's trial divisors, mu is mu_int, the threshold a float."""
    divs = [1]
    for p in primes:
        divs = [d * e for d in divs for e in trial_divisors(p)]
    divs.sort()
    thr = 2.0 ** (theta * len(primes))
    m = total = 0
    for d, nxt in zip(divs, divs[1:]):
        m += mu_int(d)
        assert abs(abs(m) - thr) > 1e-9 * thr, "near tie: a float threshold cannot decide"
        if abs(m) >= thr:
            total += nxt - d
    return total


def test_H_theta_primorials_and_domain():
    # primorials 9..12 lie past 10^7; the count's work is tau(n) gaps
    for omega in range(9, 13):
        primes = SMALL_PRIMES[:omega]
        profile = divisor_profile(math.prod(primes))
        for theta in (0.15, 0.35):
            h = H_theta_exact(profile, theta)
            assert h > 0 and h == H_gap_oracle(primes, theta), (omega, theta)
    with pytest.raises(ValueError):
        H_theta_exact(divisor_profile(30), 1.5)
    with pytest.raises(ValueError):
        H_theta_exact(divisor_profile(1), 0.5)


def test_eta_domain():
    """eta, eta_log_interval and log_eta_sums take an int t >= 1 only."""
    for t in (0.5, 0, 2.0, 2.5, Fraction(3)):
        with pytest.raises(ValueError):
            eta(factorize(6), t)
        with pytest.raises(ValueError):
            moments.eta_log_interval([2, 3], t)
        with pytest.raises(ValueError):
            kernel.log_eta_sums([2, 3], t, [2], 53)


def test_H_chain():
    rep = H_chain_check(divisor_profile(6), 1.0, 2)
    assert rep.holds and rep.exact_value == 0
    rep30 = H_chain_check(divisor_profile(30), 0.1, 2)
    assert rep30.holds
    assert rep30.context["moment"] == 26
    with pytest.raises(ValueError):
        H_chain_check(divisor_profile(6), 1.0, 3)


@given(squarefree_subset_strategy(4),
       st.sampled_from([0.1, 0.2, 0.5, 0.9, 1.0]),
       st.sampled_from([2, 4]))
@settings(max_examples=60, deadline=None)
def test_H_chain_random(primes, theta, t):
    """Wherever certify starts the ladder, the chain holds and its bound
    lies at or above L_t 2^-q at 300 bits; at integral q it is the least
    float at or above L_t / 2^q, read off the exact ends."""
    profile = divisor_profile(math.prod(primes))
    q = t * Fraction(theta) * profile.omega
    for start in (128, 8):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(certify, "DEFAULT_PREC", start)
            rep = H_chain_check(profile, theta, t)
        lt = rep.context["moment"]
        assert rep.holds
        with mp.workprec(300):
            assert mpf(rep.bound_value) >= mpf(lt) * mp.power(2, -mpf(q.numerator) / q.denominator)
        if q.denominator == 1:
            assert rep.bound_value == certify.exact_upper(Fraction(lt, 2 ** q.numerator))


def test_H_chain_exponentiates_each_q_once(monkeypatch):
    """The ends of 2^-q are cached per (q, level): a second chain at the same
    (omega, theta, t) with non-integral q takes no interval exp."""
    theta, t = Fraction(1, 3), 2  # q = 2 omega / 3, non-integral at omega = 5
    calls = []
    spy_on_contexts(monkeypatch, "exp", lambda level, x: calls.append(x))
    certify.pow2_neg_ends.cache_clear()
    first = H_chain_check(divisor_profile(2310), theta, t)
    assert first.holds and calls
    calls.clear()
    second = H_chain_check(divisor_profile(3 * 5 * 7 * 11 * 13), theta, t)
    assert second.holds and calls == []


def test_H_theta_exponentiates_each_q_once(monkeypatch):
    """The count compares each |M| with one integer per q, pow2_ceil(q):
    q = 5/3 at omega = 5 takes one interval exp, for every n of that omega."""
    calls = []
    spy_on_contexts(monkeypatch, "exp", lambda level, x: calls.append(x))
    certify.pow2_ceil.cache_clear()
    certify.pow2_neg_ends.cache_clear()
    for n in (2310, 2730, 3570):
        profile = divisor_profile(n)
        assert H_theta_exact(profile, Fraction(1, 3)) == H_oracle(n, Fraction(1, 3))
    assert len(calls) == 1 and certify.pow2_ceil(Fraction(5, 3)) == 4  # 2^(5/3) = 3.17


@pytest.mark.parametrize("q", [Fraction(1, 3), Fraction(0.3) * 10, Fraction(2, 7) * 13,
                               Fraction(41, 10), Fraction(1, 2 ** 60) * 3])
def test_pow2_ends_enclose_the_power(q):
    """At levels far below and above DEFAULT_PREC the cached ends of 2^-q
    contain its enclosure at 300 bits, or at level + 64 bits past that."""
    for level in (8, 128, 512):
        iv = iv_at(max(300, level + 64))
        tlo, thi, te = interval_ends(iv.exp(-certify.iv_exact(iv, q) * iv.ln2))
        lo, hi, e = certify.pow2_neg_ends(q, level)
        assert lo * Fraction(2) ** e <= tlo * Fraction(2) ** te
        assert thi * Fraction(2) ** te <= hi * Fraction(2) ** e


def test_H_chain_bound_matches_the_interval_product():
    """On a grid of n, theta and t the reported bound is the oracle's
    L_t exp(-q log 2) rounded up where q is not an integer, and the least
    float at or above L_t / 2^q where it is."""
    for n in (6, 30, 210, 2310, 4199, 30030, 39270):
        profile = divisor_profile(n)
        for theta in [x / 10 for x in range(1, 11)] + [Fraction(3, 10), Fraction(1, 3)]:
            for t in (2, 4, 6):
                rep = H_chain_check(profile, theta, t)
                lt, q = rep.context["moment"], t * Fraction(theta) * profile.omega
                want = (certify.exact_upper(Fraction(lt, 2 ** q.numerator))
                        if q.denominator == 1 else chain_bound_oracle(lt, q))
                assert rep.bound_value == want, (n, theta, t)


def test_H_chain_decides_equality_exactly(monkeypatch):
    """L_2(2310) = 2866 and q = 1 at theta = 1/10: with H forced to L_t / 2^q,
    H 2^q = L_t holds on the exact ends, at 128 bits, and is reported as is."""
    profile, theta = divisor_profile(2310), Fraction(1, 10)
    lt, q = moment_by_parts(profile, 2), 1
    assert lt % 2 ** q == 0
    levels = []
    escalate = certify.escalate

    def spy(decide, what="comparison"):
        def logged(level):
            levels.append(level)
            return decide(level)
        return escalate(logged, what)

    monkeypatch.setattr(moments, "H_theta_exact", lambda profile, theta: lt >> q)
    monkeypatch.setattr(certify, "escalate", spy)
    rep = H_chain_check(profile, theta, 2)
    assert rep.holds and rep.bound_value == rep.exact_value == lt >> q == 1433
    assert levels == [128]


# ---------------------------------------------------------------------------
# even-t optimizer and the closed-form count bound
# ---------------------------------------------------------------------------

def test_optimal_even_t():
    assert optimal_even_t(1.0, 56) == 4
    with pytest.raises(DomainError):
        optimal_even_t(0.1, 56)  # alpha - 1 = 4.35 > log 56


def test_optimal_even_t_on_the_grid():
    """On theta in {0.01, ..., 1.00} x omega in {1..399, 10^3, 10^4, 10^6,
    10^9}: the hypothesis holds exactly where theta omega log 2 - 1 -
    log omega is positive at 256 bits, and there the walk lands on the
    256-bit argmin of f(t) = t (omega^(-1/t) - theta log 2) over even
    t <= 2 ceil(t0) + 4."""
    thetas = [i / 100 for i in range(1, 101)]
    omegas = [*range(1, 400), 10 ** 3, 10 ** 4, 10 ** 6, 10 ** 9]
    alpha = {theta: alpha_of_theta(theta) for theta in thetas}
    with mp.workprec(256):
        ln2 = mp.log(2)
        log = {omega: mp.log(omega) for omega in omegas}
        # t omega^(-1/t) for every even t the oracle reads (t0 < 19 here)
        head = {omega: {t: t * mp.exp(-log[omega] / t) for t in range(2, 45, 2)}
                for omega in omegas}
        walked = 0
        for theta in thetas:
            c = mpf(theta) * ln2
            for omega in omegas:
                sign = omega * c - 1 - log[omega]
                assert abs(sign) > mpf(2) ** -200
                if sign < 0:
                    with pytest.raises(DomainError):
                        optimal_even_t(theta, omega)
                    continue
                t0 = math.log(omega) / (alpha[theta] - 1)
                f = {t: head[omega][t] - t * c for t in range(2, 2 * math.ceil(t0) + 5, 2)}
                assert optimal_even_t(theta, omega) == min(f, key=f.get), (theta, omega)
                walked += 1
    assert walked == 37_048


def test_optimal_even_t_walks_again_after_an_open_step(monkeypatch):
    """From a 4-bit start many steps of the walk are undecided; each must
    send it one level up, so every answer is the 128-bit one."""
    grid = [(Fraction(i, 20), omega) for i in range(1, 21) for omega in range(2, 60, 3)]
    want = {}
    for theta, omega in grid:
        try:
            want[theta, omega] = optimal_even_t(theta, omega)
        except DomainError:
            pass
    monkeypatch.setattr(certify, "DEFAULT_PREC", 4)
    assert len(want) > 100
    assert {key: optimal_even_t(*key) for key in want} == want


def test_optimizer_hypothesis_at_the_doubles_around_its_edge():
    """(1 + log 56) / (56 log 2) is the least theta at omega = 56: the
    double below it fails the hypothesis and the double above holds it."""
    with mp.workprec(256):
        edge = (1 + mp.log(56)) / (56 * mp.log(2))
        near = float(edge)
        lo, hi = ((near, math.nextafter(near, 1)) if mpf(near) < edge
                  else (math.nextafter(near, 0), near))
        assert mpf(lo) < edge < mpf(hi)
    with pytest.raises(DomainError):
        moments._optimizer_hypothesis(lo, 56)
    moments._optimizer_hypothesis(hi, 56)
    assert optimal_even_t(hi, 56) == 2


def test_optimal_even_t_reads_no_float_alpha(monkeypatch):
    def refuse(theta):
        raise AssertionError("float alpha read")

    monkeypatch.setattr(moments, "alpha_of_theta", refuse)
    assert [optimal_even_t(1.0, omega) for omega in (56, 10 ** 3, 10 ** 6)] == [4, 6, 12]


def g_objective(theta, omega, t):
    return t * (omega ** (-1.0 / t) - theta * math.log(2))


@pytest.mark.parametrize("omega", [10 ** 3, 10 ** 6])
def test_optimal_even_t_local(omega):
    theta = 1.0
    t_star = optimal_even_t(theta, omega)
    alpha = alpha_of_theta(theta)
    t0 = math.log(omega) / (alpha - 1)
    assert t_star in (2 * math.ceil(t0 / 2) - 2, 2 * math.ceil(t0 / 2))
    assert g_objective(theta, omega, t_star) <= g_objective(theta, omega, t_star + 2)
    if t_star > 2:
        assert g_objective(theta, omega, t_star) <= g_objective(theta, omega, t_star - 2)


def test_corollary_gating():
    with pytest.raises(DomainError):
        corollary_exponent(0.1, 56)
    with pytest.raises(DomainError):
        corollary_exponent(1.0, 55)


def test_corollary_exponent_negative():
    expo = corollary_exponent(1.0, 56)
    assert expo < 0  # bound below n itself
    assert corollary_bound(1.0, 56, 10 ** 30) < 10 ** 30


def test_corollary_bound_omega_shape():
    # the correction term produces a local bump on omega in [162, 282]
    # (computed by grid evaluation); beyond the bump the exponent falls
    # strictly all the way out, and the bound underflows to 0.0 far out
    expos = {om: corollary_exponent(0.5, om) for om in range(56, 10_001)}
    assert all(expos[om] > expos[om + 1] for om in range(56, 161))
    assert all(expos[om] > expos[om + 1] for om in range(282, 10_000))
    values = [corollary_bound(0.5, om, 1) for om in range(282, 10_001, 50)]
    assert all(a >= b for a, b in zip(values, values[1:]))
