"""Certified comparisons against exact integer oracles.

For q = a/b with b > 0 and integers m, lhs, rhs >= 0:

    m >= 2^q            <=>  m^b >= 2^a
    lhs * 2^q <= rhs    <=>  lhs^b * 2^a <= rhs^b

and a < 0 moves 2^-a to the other side.  Draws cluster around the
threshold, where the interval ends of 2^-q are weakest, and on powers of
two just off it: m = 2^k with q = k +- 1/b.
"""

import ast
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv
from mpmath.libmp import to_rational

from divlat import certify, moments
from divlat.certify import escalate, fraction_le_enclosure, int_vs_pow2, pow2_ceil, scaled_le
from divlat.errors import InconclusiveError
from divlat.reports import BoundReport

from conftest import spy_on_contexts

#: the denominator the edge cases are drawn around
B = 64

#: denominators: small, odd, around and far past B
DENOMS = st.one_of(
    st.integers(2, 12),
    st.sampled_from([63, 65, 127, 128, 255, 256, 511, 512, 1023, 1024]),
    st.integers(13, 1024),
    st.integers(6, 511).map(lambda k: 2 * k + 1),
)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _near(draw, target: float, top: int) -> int:
    """Either anywhere in [0, top] or within 3 of target."""
    if draw(st.booleans()):
        return draw(st.integers(0, top))
    return max(0, math.floor(target) + draw(st.integers(-3, 3)))


@st.composite
def pow2_cases(draw, denoms=DENOMS):
    b = draw(denoms)
    a = draw(st.integers(-64 * b, 64 * b))
    return _near(draw, 2.0 ** (a / b), 2 ** 64), a, b


@st.composite
def pow2_edge_cases(draw):
    """m = 2^k, q = k +- 1/b: m sits just off 2^q, on either side."""
    k, b = draw(st.integers(0, 60)), draw(DENOMS)
    return 1 << k, k * b + draw(st.sampled_from([-1, 1])), b


@st.composite
def negative_q_cases(draw):
    """Non-integral q < 0: every m >= 1 exceeds 2^q."""
    b = draw(DENOMS)
    a = -draw(st.integers(1, 64 * b).filter(lambda c: c % b))
    return draw(st.integers(0, 2 ** 64)), a, b


@st.composite
def scaled_cases(draw, denoms=DENOMS):
    b = draw(denoms)
    a = draw(st.integers(-40 * b, 40 * b))
    lhs = draw(st.integers(0, 2 ** 40))
    return lhs, a, b, _near(draw, lhs * 2.0 ** (a / b), 2 ** 80)


@st.composite
def scaled_edge_cases(draw):
    """floor(q B) in {-1, < -1}, or powers of two just off lhs 2^q = rhs."""
    b = draw(st.integers(B, 1024))
    kind = draw(st.sampled_from(["a_plus_1_zero", "a_negative", "pow2_ends"]))
    if kind == "pow2_ends":
        i, j = draw(st.integers(0, 40)), draw(st.integers(0, 40))
        return 1 << i, (j - i) * b + draw(st.sampled_from([-1, 1])), b, 1 << j
    if kind == "a_plus_1_zero":
        a = -draw(st.integers(1, b // B))  # -1/64 <= q < 0
    else:
        a = -draw(st.integers(b // B + 1, 20 * b))
    lhs = draw(st.integers(1, 2 ** 40))
    return lhs, a, b, _near(draw, lhs * 2.0 ** (a / b), 2 ** 41)


@given(st.one_of(pow2_cases(), pow2_edge_cases(), negative_q_cases()))
@settings(max_examples=600, deadline=None)
@example((1 << 5, 5 * 1024 + 1, 1024))   # m^64 == 2^floor(64 q)
@example((1 << 5, 5 * 1024 - 1, 1024))   # m^64 == 2^(floor(64 q) + 1)
@example((1, -1, 3))
@example((81, 19, 3))    # 2^(19/3) < 81 by 1.2%
@example((1, 7, 64))
def test_int_vs_pow2_matches_integer_oracle(case):
    m, a, b = case
    if a >= 0:
        want = _sign(m ** b - (1 << a))
    else:
        want = _sign((m ** b << -a) - 1)
    assert int_vs_pow2(m, Fraction(a, b)) == want


@given(st.one_of(scaled_cases(), scaled_edge_cases()))
@settings(max_examples=600, deadline=None)
@example((3, -1, 128, 3))                 # floor(64 q) + 1 == 0
@example((1 << 7, 3 * 256 - 1, 256, 1 << 10))  # lhs^64 2^(floor(64 q) + 1) == rhs^64
@example((1 << 7, 3 * 256 + 1, 256, 1 << 10))  # lhs^64 2^floor(64 q) == rhs^64
@example((1, 19, 3, 81))    # 2^(19/3) < 81 by 1.2%
@example((3, 19, 3, 243))
@example((1, 7, 64, 1))
def test_scaled_le_matches_integer_oracle(case):
    lhs, a, b, rhs = case
    if a >= 0:
        want = (lhs ** b << a) <= rhs ** b
    else:
        want = lhs ** b <= (rhs ** b << -a)
    assert scaled_le(lhs, Fraction(a, b), rhs) is want


def test_scaled_le_refuses_negative_inputs():
    """lhs^b drops the sign of a negative lhs at even b, and 2^q > 0 > rhs
    would read as a refutation: outside lhs, rhs >= 0 there is no verdict."""
    for args in ((-1, Fraction(1, 2), 1), (-3, Fraction(1, 3), -1), (0, 1, -1)):
        with pytest.raises(ValueError, match="lhs, rhs >= 0"):
            scaled_le(*args)


@given(st.one_of(pow2_cases(), pow2_edge_cases()).map(lambda case: case[1:]))
@settings(max_examples=600, deadline=None)
@example((19, 3))        # 2^(19/3) = 80.6
@example((1623, 1024))   # 2^q = 2.9993, just below 3
@example((64, 1))        # integral: 2^64 itself
@example((1, 1024))      # just above 1: the ceiling is 2
@example((-3, 7))        # q < 0: 2^q < 1
def test_pow2_ceil_matches_integer_oracle(case):
    """pow2_ceil(c/d) is the T with T^d >= 2^c > (T - 1)^d, for q up to 64,
    from DEFAULT_PREC and, bypassing its cache, from an 8-bit start."""
    c, d = case
    q = Fraction(c, d)
    T = pow2_ceil(q)
    num, den = 1 << max(c, 0), 1 << max(-c, 0)
    assert T ** d * den >= num > (T - 1) ** d * den
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "DEFAULT_PREC", 8)
        assert pow2_ceil.__wrapped__(q) == T


@given(st.one_of(st.integers(-(1 << 80), 1 << 80),
                 st.fractions().filter(lambda v: abs(v) < 1e300)))
@example((1 << 53) + 1)
@example(Fraction(11, 3))
@example(Fraction(-11, 3))
def test_exact_upper_is_the_least_float_above(v):
    up = certify.exact_upper(v)
    assert v <= Fraction(up)
    assert Fraction(math.nextafter(up, -math.inf)) < v


def test_exact_ties_on_integral_exponents():
    assert int_vs_pow2(16, Fraction(8, 2)) == 0
    assert int_vs_pow2(1, Fraction(-6, 3)) == 1
    assert scaled_le(3, Fraction(9, 3), 24) and not scaled_le(3, Fraction(9, 3), 23)
    assert scaled_le(5, Fraction(-4, 2), 2) and not scaled_le(9, Fraction(-4, 2), 2)


@pytest.mark.parametrize("start", [0, -8])
def test_escalate_rejects_start_below_one_bit(start, monkeypatch):
    # doubling 0 or a negative start never reaches the ceiling
    tried = []
    monkeypatch.setattr(certify, "DEFAULT_PREC", start)
    with pytest.raises(ValueError, match=f"got {start}"):
        escalate(lambda prec: tried.append(prec))
    assert tried == []
    monkeypatch.setattr(certify, "DEFAULT_PREC", 1)
    assert escalate(lambda prec: prec if prec >= 8 else None) == 8


def test_escalate_runs_the_fixed_ladder():
    tried = []
    with pytest.raises(InconclusiveError,
                       match="probe undecidable at precision ceiling 4096 bits"):
        escalate(lambda prec: tried.append(prec), what="probe")
    assert tried == [128, 256, 512, 1024, 2048, 4096]
    assert escalate(lambda prec: prec if prec >= 512 else None) == 512


def test_escalate_passes_the_level_and_sets_no_precision(monkeypatch):
    """Each decide(level) sees its level, and mpmath's global `iv.prec` is
    untouched during and after a verdict, an InconclusiveError or an error."""
    seen = []
    start = iv.prec

    def probe(answer_at: int):
        def decide(level: int):
            seen.append((level, iv.prec))
            if level > 1024:
                raise ZeroDivisionError("decide failed")
            return True if level == answer_at else None
        return decide

    assert escalate(probe(512)) is True
    assert seen == [(128, start), (256, start), (512, start)] and iv.prec == start
    monkeypatch.setattr(certify, "PREC_CEILING", 1024)
    with pytest.raises(InconclusiveError):
        escalate(probe(0))
    assert seen[3:] == [(128, start), (256, start), (512, start), (1024, start)]
    assert iv.prec == start
    monkeypatch.setattr(certify, "PREC_CEILING", 4096)
    with pytest.raises(ZeroDivisionError):
        escalate(probe(0))
    assert seen[-1] == (2048, start) and iv.prec == start


def test_each_level_has_one_context_at_its_precision():
    """`iv_at(level)` is made once per level, at that precision."""
    for level in (128, 256, 4096):
        assert certify.iv_at(level) is certify.iv_at(level)
        assert certify.iv_at(level).prec == level
    assert certify.iv_at(128) is not iv


def test_no_decide_sets_its_own_precision():
    """No decide closure in src names a precision guard: each reads its
    level's context from `iv_at`."""
    src = Path(certify.__file__).parent
    decides = [(path.name, node) for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == "decide"]
    assert len(decides) == 10
    for name, node in decides:
        opened = [sub.lineno for sub in ast.walk(node)
                  if isinstance(sub, ast.Name) and sub.id == "iv_prec"]
        assert not opened, (name, opened)


@pytest.mark.parametrize("x, verdict", [(Fraction(1), True), (1 + Fraction(1, 2 ** 199), False)])
def test_fraction_le_enclosure_returns_the_256_bit_verdict(x, verdict):
    """Y = 1 + 2^-200 overlaps x at 128 bits and separates at 256; the
    verdict, and only the verdict, is returned."""
    y = 1 + Fraction(1, 2 ** 200)
    tried = []

    def make_interval(level: int):
        tried.append(level)
        ctx = certify.iv_at(level)
        return certify.iv_exact(ctx, y) + ctx.mpf([-1, 1]) * ctx.mpf(2) ** -level

    assert certify.fraction_le_enclosure(x, make_interval) is verdict
    assert tried == [128, 256]


# dyadic ends lo 2^e <= hi 2^e, e reaching past both ends of float range
_DYADIC_ENDS = st.tuples(st.integers(-(1 << 200), 1 << 200), st.integers(0, 1 << 70),
                         st.integers(-1200, 1200)).map(lambda c: (c[0], c[0] + c[1], c[2]))
# x at a fraction of the band's width from lo 2^e: below, on, inside or above it
_BAND_POSITION = st.one_of(st.sampled_from([Fraction(0), Fraction(1)]),
                           st.fractions(-2, 3, max_denominator=1 << 20))


def _dyadic(m: int, e: int) -> Fraction:
    return m * Fraction(2) ** e


@given(_DYADIC_ENDS, _BAND_POSITION, st.booleans(), st.booleans())
@settings(max_examples=400, deadline=None)
@example((3, 3, -2), Fraction(0), True, False)    # a point: x = lo 2^e holds at once
@example((5, 7, 1000), Fraction(1), False, True)  # x = hi 2^e is inside the band
def test_le_dyadic_against_the_exact_oracle(ends, position, integral, settle_low):
    """Outside the band (lo 2^e, hi 2^e] the 128-bit ends decide, exactly as
    x <= lo 2^e / not x <= hi 2^e; inside it the decision escalates and the
    256-bit ends decide.  The ends handed back are the 128-bit ones."""
    lo, hi, e = ends
    low, high = _dyadic(lo, e), _dyadic(hi, e)
    x = low + (high - low) * position
    if integral:
        x = math.floor(x)
    y = lo if settle_low else hi  # Y pinned to one end of the band at 256 bits
    tried = []

    def make_ends(level: int):
        tried.append(level)
        return ends if level == 128 else (y, y, e)

    holds, got = certify.le_dyadic(x, make_ends)
    assert got == ends
    if x <= low:
        assert holds is True and tried == [128]
    elif x > high:
        assert holds is False and tried == [128]
    else:
        assert holds is (x <= _dyadic(y, e)) and tried == [128, 256]


def test_le_dyadic_undecided_to_the_ceiling():
    """An end that is None decides nothing; an x never separated from the
    ends is InconclusiveError at the ceiling, every level tried."""
    tried = []

    def open_above(level: int):
        tried.append(level)
        return 1, None, 0

    assert certify.le_dyadic(Fraction(1, 2), open_above) == (True, (1, None, 0))
    with pytest.raises(InconclusiveError, match="probe undecidable"):
        certify.le_dyadic(2, open_above, what="probe")
    assert tried == [128] + [128 << i for i in range(6)]
    assert certify.le_dyadic(2, lambda level: (None, 1, 0))[0] is False


@given(st.integers(-(1 << 200), 1 << 200), st.integers(-1300, 1300))
@settings(max_examples=400, deadline=None)
@example(1, -1074)  # the least subnormal
@example(1, -1075)  # below it: the least float above is the least subnormal
@example((1 << 53) - 1, 971)  # the largest float
@example(1 << 53, 971)  # past it: inf
@example(-(1 << 60) - 1, 1000)  # below -max: the least float above is -max
def test_dyadic_upper_is_the_least_float_above(m, e):
    v = _dyadic(m, e)
    up = certify.dyadic_upper(m, e)
    if v > Fraction(sys.float_info.max):
        assert up == math.inf
        return
    assert v <= Fraction(up)
    below = math.nextafter(up, -math.inf)
    assert below == -math.inf or Fraction(below) < v


def _is_least_float_above(up: float, v: Fraction) -> bool:
    below = math.nextafter(up, -math.inf)
    return v <= Fraction(up) and (below == -math.inf or Fraction(below) < v)


_REPORT_VALUES = st.integers(-(1 << 60), 1 << 60)
_GIVEN_SLACK = st.one_of(st.none(), st.floats(allow_nan=False))


@given(_REPORT_VALUES,
       st.one_of(st.integers(-(1 << 1000), 1 << 1000),
                 st.fractions().filter(lambda v: abs(v) < 1e300)),
       _GIVEN_SLACK)
@example(0, (1 << 53) + 1, None)
@example(3, Fraction(1, 3), None)
@example(0, 0, -2.5)  # the Vandermonde form: bound 0, slack given
def test_exact_report_rounds_its_bound_up(value, bound, slack):
    rep = BoundReport.exact(value, bound, True, {"check": "probe"}, slack=slack)
    assert _is_least_float_above(rep.bound_value, Fraction(bound))
    assert rep.slack == (float(bound - value) if slack is None else slack)
    assert (rep.exact_value, rep.holds, rep.context) == (value, True, {"check": "probe"})


@given(_REPORT_VALUES, st.integers(-(1 << 200), 1 << 200), st.integers(-1300, 1300),
       _GIVEN_SLACK)
@settings(max_examples=400, deadline=None)
@example(1, 1, -1075, None)  # below the least subnormal
@example(1, (1 << 53) - 1, 971, None)  # the largest float, exactly
@example(1, 1 << 53, 971, None)  # past it: inf, with inf slack
@example(1, 1 << 53, 971, 0.5)  # a given slack is kept even then
def test_dyadic_report_rounds_its_bound_up(value, hi, e, slack):
    """hi 2^e with e past both ends of float range: the least float at or
    above it, inf past the largest float, and inf slack with an inf bound."""
    rep = BoundReport.dyadic(value, hi, e, False, {}, slack=slack)
    v = _dyadic(hi, e)
    if v > Fraction(sys.float_info.max):
        assert rep.bound_value == math.inf
        assert rep.slack == (math.inf if slack is None else slack)
        return
    assert _is_least_float_above(rep.bound_value, v)
    assert rep.slack == (rep.bound_value - float(value) if slack is None else slack)
    assert (rep.exact_value, rep.holds) == (value, False)


def test_interval_ends_are_read_exactly():
    """The ends of iv.exp(3) at 128 bits, not their 53-bit roundings; a
    non-finite end is None."""
    ctx = certify.iv_at(128)
    y = ctx.exp(3)
    lo, hi, e = certify.interval_ends(y)
    assert (_dyadic(lo, e), _dyadic(hi, e)) == tuple(
        Fraction(*to_rational(end)) for end in y._mpi_)
    assert lo.bit_length() > 120 and 0 < hi - lo < 16
    assert certify.interval_ends(ctx.mpf([2, "inf"])) == (1, None, 1)
    assert certify.interval_ends(ctx.mpf([0, 0])) == (0, 0, 0)


def test_threshold_sweep_decides_at_128_bits(monkeypatch):
    """H_chain_check at ten theta over squarefree n <= 500: every chain and
    every count threshold (`pow2_ceil`) is decided on its 128-bit ends, no
    comparison reaches fraction_le_enclosure, and each non-integral q, of
    the counts and of the chains, is exponentiated once."""
    chains, ceilings, others, exps = [], [], [], []

    def refuse(*args, **kwargs):
        raise AssertionError("fraction_le_enclosure reached")

    def spy(decide, what="comparison"):
        levels = []
        (chains if what.startswith("threshold-count chain")
         else ceilings if what.startswith("floor of 2^") else others).append(levels)

        def logged(level):
            levels.append(level)
            return decide(level)
        return escalate(logged, what)

    spy_on_contexts(monkeypatch, "exp", lambda level, x: exps.append(level))
    monkeypatch.setattr(certify, "fraction_le_enclosure", refuse)
    monkeypatch.setattr(moments, "fraction_le_enclosure", refuse)
    monkeypatch.setattr(certify, "escalate", spy)
    certify.pow2_ceil.cache_clear()
    certify.pow2_neg_ends.cache_clear()
    calls, fractional = 0, set()
    for n in range(2, 501):
        profile = moments.divisor_profile(n)
        if profile.is_squarefree:
            for theta in [x / 10 for x in range(1, 11)]:
                moments.H_chain_check(profile, theta, 2)
                calls += 1
                q = Fraction(theta) * profile.omega
                fractional |= {x for x in (q, 2 * q) if x.denominator != 1}
    assert len(chains) == calls and all(levels == [128] for levels in chains)
    assert ceilings and all(levels == [128] for levels in ceilings) and others == []
    assert len(fractional) > 30 and exps == [128] * len(fractional)


def _prec_writes(tree: ast.AST):
    """(enclosing function, line) of every write to a `prec` or `dps`
    attribute, by assignment or by setattr, whatever object holds it."""
    found = []

    def is_target(node) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in ("prec", "dps")

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "setattr"):
            found.append((func, node.lineno))
        found.extend((func, node.lineno) for t in targets
                     for sub in ast.walk(t) if is_target(sub))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def _global_context_uses(tree: ast.AST) -> list[int]:
    """Lines that import mpmath's global interval context `iv`, name `iv` or
    `iv_prec`, or read `iv` as an attribute (`mpmath.iv`)."""
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mpmath")
             and any(alias.name == "iv" for alias in node.names)]
    lines += [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Name) and node.id in ("iv", "iv_prec")]
    lines += [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "iv"]
    return lines


def test_iv_at_is_the_only_precision_writer():
    """The one precision write in src fixes a new level's context in
    `certify.iv_at`; no module imports, names or reads mpmath's global
    interval context, so nothing reads or writes its precision."""
    src = Path(certify.__file__).parent
    writers = [(path.name, func)
               for path in sorted(src.glob("*.py"))
               for func, line in _prec_writes(ast.parse(path.read_text()))]
    assert writers == [("certify.py", "iv_at")]
    uses = {path.name: _global_context_uses(ast.parse(path.read_text()))
            for path in sorted(src.glob("*.py"))}
    assert not any(uses.values()), uses
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert not any(word in text for word in ("iv.prec", "iv_prec", "from mpmath import iv"))
    # the guards themselves see a stray write or use
    assert _prec_writes(ast.parse("def f():\n    iv.prec = 53\n")) == [("f", 2)]
    assert _prec_writes(ast.parse("def f(ctx):\n    ctx.dps += 1\n")) == [("f", 2)]
    assert _prec_writes(ast.parse("setattr(iv, 'prec', 53)\n")) == [(None, 1)]
    assert _global_context_uses(ast.parse("from mpmath import iv, mp\n")) == [1]
    assert _global_context_uses(ast.parse("import mpmath\nx = mpmath.iv.prec\n")) == [2]
    assert _global_context_uses(ast.parse("def f():\n    return iv.mpf(1)\n")) == [2]
