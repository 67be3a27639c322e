"""Acceptance suite: one test per criterion, one printed verdict line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the verdict lines
live.  Criteria with stated runtime budgets measure and assert them.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from divlat import (
    DomainError,
    R_closed,
    T_monotonicity_check,
    T_ratio,
    alpha_of_theta,
    binomial,
    brute_energy_oracle,
    chain_check,
    corollary_exponent,
    divisor_profile,
    energy,
    eulerian_asymptotic_gap,
    factorize,
    hard_threshold,
    induction_margin,
    moment_by_parts,
    moment_stepwise,
    optimal_even_t,
    sieve_for_count,
    sign_lemma_check,
    sinc_integral_check,
    vandermonde_positivity,
    verify_c_easy,
    verify_c_hard,
)
from divlat.certify import scaled_le
from divlat.moments import ALPHA_REFERENCE, H_theta_exact, H_chain_check, thm_bounds
from divlat.moments import interval_sum_check, pe_envelope_check

from conftest import R_BRUTE_CAP, R_brute, R_convolution, sinc_quadrature


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def squarefree_profiles(limit):
    for n in range(2, limit + 1):
        f = factorize(n)
        if f.is_squarefree:
            yield f, divisor_profile(f)


# ---------------------------------------------------------------------------

def test_c01_alpha_table():
    t0 = time.perf_counter()
    ok = True
    for theta, expected in ALPHA_REFERENCE.items():
        a = alpha_of_theta(theta)
        ok &= math.floor(a * 100) / 100 == pytest.approx(expected, abs=1e-12)
    elapsed = time.perf_counter() - t0
    verdict(1, ok and elapsed < 1.0,
            f"all ten alpha(theta) entries reproduced (truncated to 2 dp) "
            f"in {elapsed:.3f}s < 1s")


def test_c02_constant(capsys):
    import json

    from divlat import cli

    t0 = time.perf_counter()
    code = cli.main(["constant-c"])  # sieves internally: whole run in budget
    elapsed = time.perf_counter() - t0
    report = json.loads(capsys.readouterr().out)
    res = report["results"]
    ok = (code == 0
          and report["status"] == "pass"
          and abs(res["value"] - 1.07073472) <= 5e-9
          and res["attained_at"] == [2, 2149]
          and res["unique_maximum"]
          and elapsed < 600.0)
    verdict(2, ok,
            f"constant-c reports {res['value_8dp']} (+/-5e-9 of 1.07073472), "
            f"attained at {tuple(res['attained_at'])}, runner-up "
            f"{res['runner_up']:.10f} at {tuple(res['runner_up_at'])}, "
            f"in {elapsed:.1f}s < 600s")


def test_c03_campaigns(campaign_table):
    easy_ok = True
    inconclusive = 0
    for t in range(2, 100):
        r = verify_c_easy(t, 56, campaign_table)
        easy_ok &= r.passed
        inconclusive += r.inconclusive
    hard_ok = True
    cert_ok = True
    for t in range(2, 100):
        thr = hard_threshold(t)
        r = verify_c_hard(t, thr, campaign_table)
        hard_ok &= r.passed
        inconclusive += r.inconclusive
        cert_ok &= induction_margin(t, thr + 1, variant="hard").holds
    verdict(3, easy_ok and hard_ok and cert_ok and inconclusive == 0,
            f"easy (t=2..99, k<=56) and hard (all per-t thresholds incl. "
            f"t=2 to {hard_threshold(2)}) campaigns pass; induction certified "
            f"at every threshold+1; {inconclusive} comparisons beyond 128 bits")


def test_c04_moment_identity():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for f, profile in squarefree_profiles(10_000):
        for t in range(1, 6):
            ok &= moment_stepwise(profile, t) == moment_by_parts(profile, t)
        checked += 5
    pool = [int(p) for p in sieve_for_count(40).primes[:40]]
    rng = random.Random(20_240_810)
    for _ in range(1000):
        omega = rng.randint(1, 14)
        n = math.prod(rng.sample(pool, omega))
        profile = divisor_profile(factorize(n))
        t = rng.randint(1, 8)
        ok &= moment_stepwise(profile, t) == moment_by_parts(profile, t)
        checked += 1
    elapsed = time.perf_counter() - t0
    verdict(4, ok and elapsed < 120.0,
            f"stepwise == by-parts on {checked} (n,t) cases "
            f"(exhaustive squarefree n<=1e4 t<=5 plus 1000 random with "
            f"omega<=14, t<=8) in {elapsed:.1f}s < 120s")


def test_c05_first_moment_closed_form():
    ok = True
    for n in range(2, 10_001):
        f = factorize(n)
        expected = -math.prod(1 - p for p, _ in f.factors)
        ok &= moment_stepwise(divisor_profile(f), 1) == expected
    verdict(5, ok, "L_1(n) = -prod(1-p) exactly for all 2 <= n <= 10^4")


def test_c06_moment_bounds():
    pool = [int(p) for p in sieve_for_count(20).primes[:20]]
    rng = random.Random(61_803)
    ok_bounds = True
    ok_chain = True
    for _ in range(1000):
        omega = rng.randint(1, 12)
        f = factorize(math.prod(rng.sample(pool, omega)))
        profile = divisor_profile(f)
        for t in range(2, 7):
            lt = moment_stepwise(profile, t)
            for rep in thm_bounds(f, t, lt):
                ok_bounds &= rep.holds and Fraction(abs(lt)) <= Fraction(rep.bound_value)
        t = rng.randint(2, 6)
        ok_chain &= chain_check(profile, t, moment_by_parts(profile, t)).holds
    verdict(6, ok_bounds and ok_chain,
            "both closed-form moment bounds and the exact/certified chain "
            "|L_t| <= t n J_(t-1) <= t n eta^t hold on 1000 samples x t=2..6")


def test_c07_interval_and_envelope_exhaustive():
    ok = True
    pairs = 0
    spot = 0
    for f, profile in squarefree_profiles(5000):
        divs = profile.divisors
        pref = profile.mobius_prefix
        central = binomial(f.omega, f.omega // 2)
        tau = len(divs)
        for i in range(tau):
            base = pref[i - 1] if i else 0
            for j in range(i, tau):
                ok &= abs(pref[j] - base) <= central
                pairs += 1
            # envelope at breakpoint d_i (public API)
            spot += 1
            ok &= pe_envelope_check(profile, divs[i]).holds
        # tie the inlined pair loop to the public API on a sample
        a, b = divs[0], divs[-1]
        rep = interval_sum_check(profile, a, b)
        ok &= rep.holds and rep.exact_value == pref[-1]
    verdict(7, ok,
            f"{pairs} interval Mobius sums within the central binomial and "
            f"{spot} envelope checks, exhaustive over squarefree n <= 5000")


def test_c08_threshold_count_chain():
    ok = True
    checked = 0
    thetas = [x / 10 for x in range(1, 11)]
    for f, profile in squarefree_profiles(5000):
        moments_ = {t: moment_by_parts(profile, t) for t in (2, 4)}
        omega = f.omega
        for theta in thetas:
            h = H_theta_exact(profile, theta)
            for t in (2, 4):
                q = Fraction(t) * Fraction(theta) * omega
                ok &= scaled_le(h, q, moments_[t])
                checked += 1
        # public-API spot checks
        ok &= H_chain_check(profile, 0.5, 2).holds
    verdict(8, ok,
            f"H_theta <= L_t / 2^(t theta omega) on {checked} "
            f"(n, theta, t) combinations, squarefree n <= 5000")


def test_c09_energy():
    ok_routes = True
    for s in range(1, 6):
        for alpha in range(7):
            if (alpha + 1) ** (2 * s) <= R_BRUTE_CAP:
                ok_routes &= R_brute(s, alpha) == R_convolution(s, alpha) == R_closed(s, alpha)
    for s in range(1, 13):
        for alpha in range(51):
            ok_routes &= R_convolution(s, alpha) == R_closed(s, alpha)
    ok_oracle = True
    for n in range(2, 201):
        for s in (2, 3):
            ok_oracle &= energy(factorize(n), s).energy == brute_energy_oracle(n, s)
    ok_sandwich = True
    for n in range(2, 501):
        f = factorize(n)
        for s in (2, 3, 4):
            rep = energy(f, s)
            ok_sandwich &= (rep.strict_lower_holds and rep.upper_holds
                            and rep.upper_is_equality == f.is_squarefree)
    verdict(9, ok_routes and ok_oracle and ok_sandwich,
            "kernel routes agree (brute in-cap s<=5 a<=6; closed==convolution "
            "s<=12 a<=50); energy == tuple oracle (n<=200, s in {2,3}); "
            "sandwich strict-left/equality-iff-squarefree (n<=500, s in {2,3,4})")


def test_c10_sinc_integral():
    ok = sinc_quadrature(1) == math.pi
    worst = 0.0
    for s in range(1, 9):
        rep = sinc_integral_check(s)
        ok &= rep.holds and rep.context["certified"] is True
        gap = abs(sinc_quadrature(s) - math.pi * float(rep.exact_value))
        ok &= gap <= 1e-8
        worst = max(worst, gap)
    verdict(10, ok,
            f"sinc-power integral factor equals A(2s-1,s-1)/(2s-1)! exactly (Polya "
            f"sum) and the quadrature matches pi times it within 1e-8 for s = 1..8 "
            f"(worst quadrature gap {worst:.2e}; s=1 classical)")


def test_c11_asymptotics_witness():
    rows = {r.s: r for r in eulerian_asymptotic_gap(200)}
    ok = rows[100].lower_gap < 0.01 and rows[100].upper_gap < 0.01
    lower = [rows[s].lower_gap for s in range(10, 201)]
    upper = [rows[s].upper_gap for s in range(10, 201)]
    ok &= all(a > b for a, b in zip(lower, lower[1:]))
    ok &= all(a > b for a, b in zip(upper, upper[1:]))
    ok &= rows[200].lower_gap < rows[10].lower_gap
    ok &= rows[200].upper_gap < rows[10].upper_gap
    verdict(11, ok,
            f"relative gaps at s=100: {rows[100].lower_gap:.4%} / "
            f"{rows[100].upper_gap:.4%} (< 1%), strictly decreasing s=10..200")


def test_c12_polynomial_lemmas():
    ok = sign_lemma_check().passed
    rng = random.Random(314_159)
    for _ in range(1000):
        ell = rng.randint(1, 6)
        exps = sorted(rng.sample(range(0, 14), ell))
        nodes = sorted(rng.sample(range(1, 400), ell))
        dens = [rng.randint(1, 12) for _ in nodes]
        xs = sorted({Fraction(a, b) for a, b in zip(nodes, dens)})
        rep = vandermonde_positivity(exps[: len(xs)], xs)
        ok &= rep.holds
    verdict(12, ok,
            "sign interpolants have the stated parity/degree/leading sign "
            "for lam <= 6, and 1000 random exact Vandermonde determinants "
            "(size <= 6) are strictly positive")


def test_c13_zero_sum_ratio():
    ok = True
    for s in (1, 2):
        ok &= T_monotonicity_check(s, 50).passed
        ok &= all(T_ratio(s, a) == 1 for a in range(51))
    for s in range(3, 9):
        ok &= T_monotonicity_check(s, 50).passed
    verdict(13, ok,
            "T_s(a)/(2a+1)^(s-1) exactly constant for s in {1,2} and "
            "strictly decreasing for s = 3..8, a <= 50")


def test_c14_corollary_surrogates():
    # the direct H_theta comparison at omega >= 56 needs n > 10^80 and is
    # explicitly not desk-reproducible; the surrogate checks are:
    ok = True
    # hypothesis gating
    try:
        corollary_exponent(0.1, 56)
        ok = False
    except DomainError:
        pass
    try:
        optimal_even_t(0.1, 56)
        ok = False
    except DomainError:
        pass
    # bound nontrivial at theta=1, omega=56
    ok &= corollary_exponent(1.0, 56) < 0
    # verified omega-shape for theta = 0.5: decreasing, bump, decreasing
    expos = {om: corollary_exponent(0.5, om) for om in range(56, 10_001)}
    ok &= all(expos[om] > expos[om + 1] for om in range(56, 161))
    ok &= all(expos[om] > expos[om + 1] for om in range(282, 10_000))
    # even-t optimizer lands on an even integer adjacent to t0 and beats
    # its even neighbours
    for omega in (10 ** 3, 10 ** 6):
        theta = 1.0
        t_star = optimal_even_t(theta, omega)
        alpha = alpha_of_theta(theta)
        t0 = math.log(omega) / (alpha - 1)
        ok &= t_star in (2 * math.ceil(t0 / 2) - 2, 2 * math.ceil(t0 / 2))

        def g(t):
            return t * (omega ** (-1.0 / t) - theta * math.log(2))

        ok &= g(t_star) <= g(t_star + 2)
        if t_star > 2:
            ok &= g(t_star) <= g(t_star - 2)
    verdict(14, ok,
            "corollary surrogate: hypothesis gating, negative exponent at "
            "(theta=1, omega=56), verified omega-shape, and even-t optimizer "
            "local optimality at omega in {1e3, 1e6}")
