"""Certified comparisons against exact integer oracles.

For q = a/b with b > 0 and integers m, lhs, rhs >= 0:

    m >= 2^q            <=>  m^b >= 2^a
    lhs * 2^q <= rhs    <=>  lhs^b * 2^a <= rhs^b

and a < 0 moves 2^-a to the other side.  Draws cluster around the
threshold, where the float and low-precision interval passes are weakest.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlat.certify import escalate, int_vs_pow2, scaled_le


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _near(draw, target: float, top: int) -> int:
    """Either anywhere in [0, top] or within 3 of target."""
    if draw(st.booleans()):
        return draw(st.integers(0, top))
    return max(0, math.floor(target) + draw(st.integers(-3, 3)))


@st.composite
def pow2_cases(draw):
    a, b = draw(st.integers(-120, 120)), draw(st.integers(2, 12))
    return _near(draw, 2.0 ** (a / b), 2 ** 64), a, b


@st.composite
def scaled_cases(draw):
    a, b = draw(st.integers(-120, 120)), draw(st.integers(2, 12))
    lhs = draw(st.integers(0, 2 ** 40))
    return lhs, a, b, _near(draw, lhs * 2.0 ** (a / b), 2 ** 80)


@given(pow2_cases())
@settings(max_examples=300, deadline=None)
def test_int_vs_pow2_matches_integer_oracle(case):
    m, a, b = case
    if a >= 0:
        want = _sign(m ** b - (1 << a))
    else:
        want = _sign((m ** b << -a) - 1)
    assert int_vs_pow2(m, Fraction(a, b)) == want


@given(scaled_cases())
@settings(max_examples=300, deadline=None)
def test_scaled_le_matches_integer_oracle(case):
    lhs, a, b, rhs = case
    if a >= 0:
        want = (lhs ** b << a) <= rhs ** b
    else:
        want = lhs ** b <= (rhs ** b << -a)
    assert scaled_le(lhs, Fraction(a, b), rhs) is want


def test_exact_ties_on_integral_exponents():
    assert int_vs_pow2(16, Fraction(8, 2)) == 0
    assert int_vs_pow2(1, Fraction(-6, 3)) == 1
    assert scaled_le(3, Fraction(9, 3), 24) and not scaled_le(3, Fraction(9, 3), 23)
    assert scaled_le(5, Fraction(-4, 2), 2) and not scaled_le(9, Fraction(-4, 2), 2)


@pytest.mark.parametrize("start", [0, -8])
def test_escalate_rejects_start_below_one_bit(start):
    # doubling 0 or a negative start never reaches the ceiling
    tried = []
    with pytest.raises(ValueError, match=f"got {start}"):
        escalate(lambda prec: tried.append(prec), start=start)
    assert tried == []
    assert escalate(lambda prec: prec if prec >= 8 else None, start=1) == 8
