"""Energy kernel routes, sandwich, polynomial facts, integrals."""

import importlib
import math
from fractions import Fraction
from itertools import permutations, product

import numpy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divlat import (
    CapacityError,
    R_closed,
    T_monotonicity_check,
    T_ratio,
    T_s,
    binomial,
    brute_energy_oracle,
    certify,
    energy,
    eulerian,
    eulerian_asymptotic_gap,
    factorize,
    multinomial_identity_check,
    sign_interpolant,
    sign_lemma_check,
    sinc_integral_check,
    vandermonde_positivity,
)
from divlat.certify import iv_exact, iv_prec
from divlat.core import Factorization
from divlat.energy import ExactPolynomial, _det, composition_counts, energy_sweep

from conftest import R_brute, R_convolution, energy_sweep_oracle, sinc_quadrature


# ---------------------------------------------------------------------------
# kernel routes
# ---------------------------------------------------------------------------

def test_kernel_base_values():
    for s in range(1, 6):
        assert R_brute(s, 0) == R_convolution(s, 0) == R_closed(s, 0) == 1
    assert R_brute(2, 1) == 6 == binomial(4, 2)
    assert R_convolution(3, 1) == 20 == binomial(6, 3)
    assert R_brute(2, 2) == R_convolution(2, 2) == R_closed(2, 2) == 19
    for alpha in range(8):
        assert R_convolution(1, alpha) == alpha + 1


def test_kernel_routes_agree_in_cap():
    for s in range(1, 6):
        for alpha in range(7):
            if (alpha + 1) ** (2 * s) <= 10 ** 8:
                assert R_brute(s, alpha) == R_convolution(s, alpha) == R_closed(s, alpha)


@given(st.integers(1, 10), st.integers(0, 40))
@settings(max_examples=120, deadline=None)
def test_kernel_convolution_equals_closed(s, alpha):
    assert R_convolution(s, alpha) == R_closed(s, alpha)


def test_kernel_closed_form_at_large_exponent():
    # the closed form is polynomial in the exponent; spot-check it far
    # beyond the convolution oracle's comfortable range
    assert R_convolution(2, 1000) == R_closed(2, 1000)
    assert R_convolution(3, 400) == R_closed(3, 400)
    rep = energy(factorize(2 ** 50), 2)
    assert rep.energy == R_closed(2, 50)


def test_kernel_brute_cap():
    with pytest.raises(CapacityError):
        R_brute(5, 6)  # 7^10 = 2.8e8 over the cap


def test_kernel_ratio_strictly_decreasing():
    for s in range(2, 9):
        ratios = [Fraction(R_closed(s, a), (a + 1) ** (2 * s - 1)) for a in range(52)]
        assert all(x > y for x, y in zip(ratios, ratios[1:]))


def test_multinomial_identity():
    assert multinomial_identity_check(2, 0).exact_value == 6
    one = multinomial_identity_check(1, 1)
    assert one.exact_value == 1 and one.holds
    for s in range(1, 11):
        for v in range(s + 1):
            assert multinomial_identity_check(s, v).holds


# ---------------------------------------------------------------------------
# energy and oracle
# ---------------------------------------------------------------------------

def test_energy_prime():
    rep = energy(factorize(7), 2)
    assert rep.energy == 6
    assert rep.upper_bound == 6 and rep.upper_is_equality
    assert rep.lower_bound == Fraction(16, 3)
    assert rep.strict_lower_holds


def test_energy_12():
    rep = energy(factorize(12), 2)
    assert rep.energy == 19 * 6 == 114
    assert rep.upper_bound == Fraction(243, 2)  # 216 * (3/4)^2
    assert rep.lower_bound == 96               # 216 * (2/3)^2
    assert rep.strict_lower_holds and rep.upper_holds and not rep.upper_is_equality


def test_energy_domain():
    with pytest.raises(ValueError):
        energy(factorize(6), 1)
    with pytest.raises(ValueError):
        energy(factorize(1), 2)


def test_energy_trivial_bound():
    for n in range(2, 120):
        for s in (2, 3):
            rep = energy(factorize(n), s)
            assert rep.energy <= factorize(n).tau ** (2 * s - 1)


def test_oracle_values():
    assert brute_energy_oracle(2, 2) == 6
    assert brute_energy_oracle(6, 2) == 36
    assert brute_energy_oracle(4, 3) == R_closed(3, 2)


def test_energy_matches_oracle():
    for n in range(2, 120):
        for s in (2, 3):
            assert energy(factorize(n), s).energy == brute_energy_oracle(n, s)


def test_sandwich_classification():
    for n in range(2, 200):
        for s in (2, 3):
            rep = energy(factorize(n), s)
            assert rep.strict_lower_holds
            assert rep.upper_holds
            assert rep.upper_is_equality == factorize(n).is_squarefree


# ---------------------------------------------------------------------------
# the sweep, decided once per prime signature
# ---------------------------------------------------------------------------

ENERGY_MODULE = importlib.import_module("divlat.energy")  # divlat.energy is the function


# doubling c_up fails the 182 squarefree n <= 300 (no equality); raising c_lo
# by 11/10 fails 101 of the 117 others, by their lower bound
@pytest.mark.parametrize("scale", [(1, 2), (Fraction(11, 10), 1)])
@pytest.mark.parametrize("s", [2, 3])
def test_sweep_violations_match_the_per_n_oracle(s, scale, monkeypatch):
    lo, up = ENERGY_MODULE._sandwich_constants(s)
    monkeypatch.setattr(ENERGY_MODULE, "_sandwich_constants",
                        lambda s: (scale[0] * lo, scale[1] * up))
    checked, _, violations = energy_sweep(300, s)
    want = energy_sweep_oracle(300, s)
    assert checked == 299 and len(want) >= 50
    assert [r.to_jsonable() for r in violations] == [r.to_jsonable() for r in want]


def test_sweep_calls_energy_once_per_signature(monkeypatch):
    seen = []

    def counted(f, s):
        seen.append(tuple(sorted(e for _, e in f.factors)))
        return energy(f, s)

    monkeypatch.setattr(ENERGY_MODULE, "energy", counted)
    assert energy_sweep(2000, 3) == (1999, 49, [])
    signatures = {tuple(sorted(e for _, e in factorize(n).factors)) for n in range(2, 2001)}
    assert len(seen) == len(set(seen)) == 49 and set(seen) == signatures
    assert energy_sweep(20_000, 3) == (19_999, 100, [])


def test_sweep_cross_checks_trial_division(monkeypatch):
    # 12 = 2^2 3 is the first n of signature (1, 2); misreport it as 2 3^2
    monkeypatch.setattr(ENERGY_MODULE, "factorize", lambda n: Factorization(
        n, ((2, 1), (3, 2))) if n == 12 else factorize(n))
    with pytest.raises(ArithmeticError, match="12 = "):
        energy_sweep(100, 2)
    # a sweep that stops before 12 never asks for it
    assert energy_sweep(11, 2)[:2] == (10, 4)


def test_sweep_rejects_s_before_walking(monkeypatch):
    entered = []
    monkeypatch.setattr(ENERGY_MODULE, "exponent_signatures", entered.append)
    with pytest.raises(ValueError, match="stated for s >= 2, got 1"):
        energy_sweep(20_000, 1)
    assert entered == []


# ---------------------------------------------------------------------------
# zero-sum counts
# ---------------------------------------------------------------------------

def test_T_values():
    assert T_s(2, 1) == 3
    assert all(T_s(1, a) == 1 for a in range(5))
    # brute tuple count for small cases
    for s in (2, 3):
        for a in (0, 1, 2):
            brute = sum(1 for tup in product(range(-a, a + 1), repeat=s) if sum(tup) == 0)
            assert T_s(s, a) == brute


def test_T_ratio_monotonicity():
    for s in (1, 2):
        res = T_monotonicity_check(s, 50)
        assert res.passed
        assert all(T_ratio(s, a) == 1 for a in range(6))
    for s in range(3, 9):
        assert T_monotonicity_check(s, 50).passed


# ---------------------------------------------------------------------------
# asymptotics and the sinc integral
# ---------------------------------------------------------------------------

def test_asymptotic_gap_values():
    rows = {r.s: r for r in eulerian_asymptotic_gap(100)}
    assert rows[2].lower_exact == pytest.approx(2 / 3)
    assert rows[2].lower_asymptotic == pytest.approx(math.sqrt(3 / (2 * math.pi)), rel=1e-12)
    assert rows[2].upper_exact == pytest.approx(0.75)
    assert rows[2].upper_asymptotic == pytest.approx(math.sqrt(4 / (2 * math.pi)), rel=1e-12)
    assert rows[100].lower_gap < 0.01 and rows[100].upper_gap < 0.01
    with pytest.raises(ValueError):
        eulerian_asymptotic_gap(500)


def test_sinc_integral():
    # the quadrature oracle lies within 1e-8 of pi times the exact factor
    assert sinc_quadrature(1) == math.pi
    assert sinc_quadrature(2) == pytest.approx(2 * math.pi / 3, abs=1e-8)
    assert sinc_quadrature(5) == pytest.approx(
        math.pi * eulerian(9, 4) / math.factorial(9), abs=1e-8)
    for s in range(1, 41):
        rep = sinc_integral_check(s)
        assert rep.holds and rep.context["certified"] is True
        assert rep.exact_value == Fraction(eulerian(2 * s - 1, s - 1), math.factorial(2 * s - 1))
        if s <= 8:
            assert sinc_quadrature(s) == pytest.approx(math.pi * rep.exact_value, abs=1e-8)
    with pytest.raises(ValueError):
        sinc_integral_check(0)


def test_energy_module_imports_no_numpy():
    module = importlib.import_module("divlat.energy")  # divlat.energy is the function
    assert not any(v is numpy for v in vars(module).values())


# ---------------------------------------------------------------------------
# sign interpolants
# ---------------------------------------------------------------------------

def test_interpolant_lambda1():
    poly = sign_interpolant(1, 0)
    assert poly.coefficients == (Fraction(0), Fraction(1))  # F(x) = x


def test_interpolant_lambda2_m1():
    poly = sign_interpolant(2, 1)
    assert poly.degree == 4
    assert poly.coefficients[2] == Fraction(7, 6)
    assert poly.coefficients[4] == Fraction(-1, 6)
    assert poly.is_even_function()


def test_interpolant_lambda3_m5():
    poly = sign_interpolant(3, 5)
    assert poly.is_even_function()
    assert poly.degree == 6
    assert poly.leading > 0  # (-1)^((6-5-1)/2) = +1


def test_interpolant_matches_values():
    for lam in range(1, 6):
        for m in range(0, 2 * lam):
            poly = sign_interpolant(lam, m)
            for j in range(-lam, lam + 1):
                sgn = -1 if j < 0 else (0 if j == 0 else 1)
                assert poly(j) == sgn * j ** m


def test_interpolant_domain():
    with pytest.raises(ValueError):
        sign_interpolant(2, 4)  # m > 2*lam - 1
    with pytest.raises(ValueError):
        sign_interpolant(0, 0)


def test_sign_lemma_sweep():
    res = sign_lemma_check()
    assert res.passed
    assert res.t_range == (1, 6)


def test_exact_polynomial_basics():
    p = ExactPolynomial.from_coeffs([1, 0, Fraction(1, 2), 0])
    assert p.degree == 2
    assert p(2) == 3
    assert composition_counts(2, 2) == [1, 2, 3, 2, 1]


# ---------------------------------------------------------------------------
# Vandermonde positivity
# ---------------------------------------------------------------------------

def test_vandermonde_exact():
    one = vandermonde_positivity([0], [Fraction(3, 7)])
    assert one.holds and one.exact_value == 1
    two = vandermonde_positivity([0, 1], [1, 2])
    assert two.holds and two.exact_value == 1  # det [[1,1],[1,2]]
    with pytest.raises(ValueError):
        vandermonde_positivity([1, 0], [1, 2])
    with pytest.raises(ValueError):
        vandermonde_positivity([0, 1], [2, 1])


def test_vandermonde_random_exact():
    import random
    rng = random.Random(2024)
    for _ in range(120):
        ell = rng.randint(1, 6)
        exps = sorted(rng.sample(range(0, 12), ell))
        nodes = sorted(rng.sample(range(1, 200), ell))
        xs = [Fraction(v, rng.randint(1, 9)) for v in nodes]
        xs = sorted(set(xs))
        exps = exps[: len(xs)]
        rep = vandermonde_positivity(exps, xs)
        assert rep.holds, (exps, xs)


def test_vandermonde_interval_path():
    rep = vandermonde_positivity([0.0, 0.5, 1.5], [1.0, 2.0, 3.5])
    assert rep.holds
    assert rep.context["method"].startswith("interval")


def test_vandermonde_interval_path_past_ceiling(monkeypatch):
    from divlat import InconclusiveError
    monkeypatch.setattr(certify, "PREC_CEILING", 64)
    with pytest.raises(InconclusiveError, match="determinant sign"):
        vandermonde_positivity([0.0, 0.5], [1.0, 2.0])


def test_vandermonde_interval_path_keeps_exact_nodes():
    # as floats both nodes are 1/3 and the determinant collapses to 0
    rep = vandermonde_positivity([Fraction(1, 2), 1],
                                 [Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 20)])
    assert rep.holds and rep.context["method"] == "interval-128bit"


def test_vandermonde_interval_path_past_old_size_cap():
    # the interval path has no size cap: elimination is O(l^3)
    rep = vandermonde_positivity([j / 2 for j in range(10)],
                                 [float(j) for j in range(1, 11)])
    assert rep.holds and rep.context["method"].startswith("interval")
    assert rep.context["size"] == 10


# ---------------------------------------------------------------------------
# the elimination kernel against a Leibniz oracle
# ---------------------------------------------------------------------------

def _leibniz_det(mat):
    n = len(mat)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total += (-1) ** inversions * math.prod(mat[r][c] for r, c in enumerate(perm))
    return total


# half the entries are zero, so row swaps and singular matrices are common
_sparse_entry = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 5)),
)
_square_matrix = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(_sparse_entry, min_size=n, max_size=n),
                       min_size=n, max_size=n))


@given(_square_matrix)
@example([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])  # one swap
@example([[Fraction(1), Fraction(2)], [Fraction(1, 2), Fraction(1)]])  # singular
@settings(max_examples=200, deadline=None)
def test_det_matches_leibniz(mat):
    expected = _leibniz_det(mat)
    got = _det(mat)
    assert (got is None) == (expected == 0)
    if got is not None:
        assert got == expected


@given(_square_matrix)
@settings(max_examples=100, deadline=None)
def test_det_interval_encloses_exact(mat):
    expected = _leibniz_det(mat)
    with iv_prec(128):
        got = _det([[iv_exact(v) for v in row] for row in mat])
        if got is not None:
            assert (got.a <= iv_exact(expected)) is True
            assert (iv_exact(expected) <= got.b) is True
    # an interval pivot is provably nonzero, so a singular input never gets one
    if expected == 0:
        assert got is None
