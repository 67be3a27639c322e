"""The numpy-free eta kernel: its root brackets and the import boundary."""

import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv

import divlat
from divlat import kernel
from divlat.certify import iv_prec

#: primes the library draws its roots from (the scan pool and beyond)
PRIMES = (2, 3, 5, 7, 97, 7919, 104_729, 15_485_863)


def iroot(x: int, t: int) -> int:
    """floor(x^(1/t)) for an integer x >= 0, by integer Newton from above."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // t)
    while True:
        y = ((t - 1) * r + x // r ** (t - 1)) // t
        if y >= r:
            return r
        r = y


@st.composite
def root_cases(draw):
    """(p, t, f): a library prime at a usual f, or a near-tie p = 2^(tf) / x^t
    rounded to an integer, so that x^t p lies within 2 x^t of 2^(tf) and
    the root 2^f p^(-1/t) falls within a unit of x."""
    t = draw(st.integers(3, 9))
    if draw(st.booleans()):
        return draw(st.sampled_from(PRIMES)), t, draw(st.sampled_from([8, 40, 64, 160]))
    f = draw(st.integers(160 // (t - 2) + 1, 160 // (t - 2) + 64))
    x = draw(st.integers(1 << f // 2, 1 << f // 2 + 1))
    p = -(-(1 << t * f) // x ** t) + draw(st.integers(-1, 1))
    return p, t, f


@given(root_cases())
@settings(max_examples=300, deadline=None)
def test_root_bracket_at_a_near_tie(case):
    """The uncached `_root_bracket` returns s^t p <= 2^(tf) <= u^t p, checked
    with exact integer powers, around the exact floor root, with u - s <= 2."""
    p, t, f = case
    s, u = kernel._root_bracket.__wrapped__(p, t, f)
    assert s ** t * p <= 1 << t * f <= u ** t * p
    assert s <= iroot((1 << t * f) // p, t) < u
    assert u - s <= 2


def test_root_bracket_keeps_no_precision_state():
    """The bracket is the same at 8 bits of `iv.prec` as at mpmath's default,
    and building it leaves `iv.prec` as it found it."""
    cases = [(3, 3, 40), (7919, 5, 160), (15_485_863, 99, 544), (2, 1, 160), (97, 2, 64)]
    want = [kernel._root_bracket.__wrapped__(*c) for c in cases]
    with iv_prec(8):
        assert [kernel._root_bracket.__wrapped__(*c) for c in cases] == want
        assert iv.prec == 8


def test_import_divlat_loads_no_numpy():
    """`import divlat` and a threshold-count chain leave numpy unloaded; only
    the float engine in `campaigns` and the sieve load it."""
    src = Path(divlat.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import divlat; "
            "divlat.H_chain_check(divlat.divisor_profile(2310), 0.3, 2); "
            "assert 'numpy' not in sys.modules, sorted(sys.modules)")
    run = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert divlat.verify_c_hard is divlat.campaigns.verify_c_hard
