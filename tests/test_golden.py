"""Golden results: every CLI command's JSON report, pinned.

Each file under tests/golden/ holds the report of one command with
every `timing_seconds` and `wall_time` key removed at any depth (the
same fields the benchmark digest drops).  Integers, rationals, strings,
statuses, verdicts and argmins must match exactly; floats match to a
relative 1e-12, so an ulp of libm or numpy drift between platforms is
not a failure.

A change that alters a golden file must say which keys changed and why.
To rewrite the files after such a change:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from divlat import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

COMMANDS = {
    "verify-eta": ["verify-eta", "--t", "2:99", "--variant", "both"],
    "constant-c": ["constant-c"],
    "moments": ["moments", "--n", "30030", "--t", "4", "--all-checks", "--theta", "0.5"],
    # H_theta(30030) is 0 at theta 0.5 and 254 here, so the count is pinned
    "moments-theta-0.3": ["moments", "--n", "30030", "--t", "4", "--all-checks",
                          "--theta", "0.3"],
    # primorial(14): both moments, both bounds, the chain and the envelope at 16384 divisors
    "moments-primorial14": ["moments", "--n", "13082761331670030", "--t", "5", "--all-checks"],
    "scan": ["scan", "--seed", "1", "--count", "300"],
    "energy": ["energy", "--s", "3", "--sweep", "2000"],
    "tables": ["tables"],
}

FLOAT_REL_TOL = 1e-12


def _strip(v):
    if isinstance(v, dict):
        return {k: _strip(x) for k, x in v.items()
                if k not in ("timing_seconds", "wall_time")}
    if isinstance(v, list):
        return [_strip(x) for x in v]
    return v


def _report(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        cli.main(argv)
    return _strip(json.loads(out.getvalue()))


def _mismatch(got, want, path: str = "$") -> str | None:
    """Where `got` first differs from `want`, or None if they agree."""
    if isinstance(want, float) and type(got) is float:
        if math.isclose(got, want, rel_tol=FLOAT_REL_TOL, abs_tol=0.0):
            return None
        return f"{path}: {got!r} != {want!r} (rel tol {FLOAT_REL_TOL})"
    if type(got) is not type(want):
        return f"{path}: {type(got).__name__} {got!r} != {type(want).__name__} {want!r}"
    if isinstance(want, dict):
        if set(got) != set(want):
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        for k in want:
            bad = _mismatch(got[k], want[k], f"{path}.{k}")
            if bad:
                return bad
        return None
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            bad = _mismatch(g, w, f"{path}[{i}]")
            if bad:
                return bad
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_report(name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    bad = _mismatch(_report(COMMANDS[name]), want)
    assert bad is None, f"{name} differs from tests/golden/{name}.json at {bad}"


def test_mismatch_tolerates_only_float_ulps():
    assert _mismatch({"x": [1.0, 2]}, {"x": [1.0 + 1e-15, 2]}) is None
    assert _mismatch(1.0 + 1e-9, 1.0) is not None
    assert _mismatch(2, 2.0) is not None
    assert _mismatch("1/3", "1/4") is not None
    assert _mismatch({"a": 1}, {"a": 1, "b": 2}) is not None


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        text = json.dumps(_report(argv), indent=1, sort_keys=True)
        (GOLDEN_DIR / f"{name}.json").write_text(text + "\n")
