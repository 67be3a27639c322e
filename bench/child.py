"""One fresh-interpreter process of the benchmark.

Run as ``python3 -I bench/child.py '<job json>'``; prints one JSON line.
The job kinds are:

* ``probe``: import divlat and report the import time only;
* ``cli``: run one command through ``divlat.cli.main(argv)`` exactly as
  the ``divlat`` script would, with its stdout captured;
* ``sweep``: the library threshold sweep, all passes in this process.

Every kind reports ``import_s`` (the time of ``import divlat``, which
pulls in numpy and mpmath) and ``maxrss_kb`` (this process's own
``ru_maxrss``).  A `speed.Probe` samples the host speed in the process
throughout; every time is reported net of the probe's own time, both
as measured (``*_raw_s``) and scaled to the reference speed (``*_s``).
With ``trace`` set, spans are recorded by wrappers from ``spans.py``
and kept in memory; when the job names a
``spans_file`` they are appended to it after the op (``cli``) or after
the first traced pass (``sweep``: one pass holds ~10^5 spans, and later
passes repeat the same calls).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: theta values of the threshold sweep (ROADMAP item 3)
THETAS = tuple(x / 10 for x in range(1, 11))
#: moment exponent of the sweep's threshold-count chain
SWEEP_T = 2


def digest(obj) -> str:
    """Stable hash of a JSON value, with timing fields removed."""
    def strip(v):
        if isinstance(v, dict):
            return {k: strip(x) for k, x in v.items()
                    if k not in ("timing_seconds", "wall_time")}
        if isinstance(v, list):
            return [strip(x) for x in v]
        return v
    text = json.dumps(strip(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def timed(probe, fn, *args):
    """(fn(*args), seconds net of probe time, perf_counter at start, at end)."""
    t0, spent0 = time.perf_counter(), probe.spent
    result = fn(*args)
    t1 = time.perf_counter()
    return result, t1 - t0 - (probe.spent - spent0), t0, t1


def run_cli(job: dict, probe) -> dict:
    from divlat import cli
    out = io.StringIO()
    rec = None
    if job.get("trace"):
        import spans
        rec = spans.Recorder()
        spans.install(rec)

    def command():
        try:
            if rec is None:
                return cli.main(job["argv"]), None
            return rec.run_op(job["op"], "cli.main", cli.main, job["argv"]), None
        except SystemExit as exc:  # argparse rejects the argv
            return (exc.code if isinstance(exc.code, int) else 1), None
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            return None, f"{type(exc).__name__}: {exc}"

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        (code, error), raw_s, t0, t1 = timed(probe, command)
    result = {"cmd_s": raw_s * probe.scale(t0, t1), "cmd_raw_s": raw_s, "exit": code,
              "error": error, "stdout": out.getvalue()}
    if rec is not None:
        recorded, counters = rec.drain()
        result["layers"] = spans.layer_metrics(recorded, counters)
        if job.get("spans_file"):
            spans.write_spans(job["spans_file"], recorded)
    return result


def brute_H(profile, theta: float, mertens_truncated) -> int:
    """H_theta by direct enumeration of j = 1..n.

    The threshold is 2^q with q = theta * omega taken at the exact binary
    value of theta.  |M| = 2^e compares exactly (e >= q); any other |M|
    has an irrational log2, compared in float with a guard that refuses
    near ties instead of guessing them.
    """
    from fractions import Fraction
    q = Fraction(theta) * profile.omega
    count = 0
    for j in range(1, profile.n + 1):
        m = abs(mertens_truncated(profile, j))
        if m == 0:
            ok = False
        elif m & (m - 1) == 0:
            ok = m.bit_length() - 1 >= q
        else:
            gap = math.log2(m) - float(q)
            if abs(gap) < 1e-9:
                raise ArithmeticError(f"near tie at n={profile.n}, j={j}, theta={theta}")
            ok = gap > 0
        count += ok
    return count


def sweep_pass(ns: list[int], divlat, check_brute: set[int], probe, rec=None) -> dict:
    """One pass of the threshold sweep; op = one n at every theta.

    The whole pass is scaled by the host speed probed during it.
    """
    def op(n):
        profile = divlat.divisor_profile(n)
        return profile, [divlat.H_chain_check(profile, theta, SWEEP_T) for theta in THETAS]

    op_s, digests, failures = [], [], []
    start = time.perf_counter()
    for n in ns:
        if rec is None:
            (profile, reports), raw_s, _, _ = timed(probe, op, n)
        else:
            (profile, reports), raw_s, _, _ = timed(probe, rec.run_op, n, "bench.op", op, n)
        op_s.append(raw_s)
        digests.append(digest([r.to_jsonable() for r in reports]))
        bad = [r.context["theta"] for r in reports if not r.holds]
        if n in check_brute:
            bad += [f"brute:{r.context['theta']}" for r in reports
                    if r.exact_value != brute_H(profile, r.context["theta"],
                                                divlat.mertens_truncated)]
        failures.append(bad)
    scale = probe.scale(start, time.perf_counter())
    return {"pass_s": sum(op_s) * scale, "pass_raw_s": sum(op_s),
            "op_s": [t * scale for t in op_s], "digests": digests, "failures": failures}


def phases(seconds: float, trace: bool) -> list[tuple[bool, float, int]]:
    """(traced, budget, minimum passes) of each phase of a run.

    An untraced run needs two passes for the determinism digest; a
    traced run spends half its time untraced, half traced, so the
    difference of the two median passes is the tracing overhead.
    """
    if trace:
        return [(False, seconds / 2, 1), (True, seconds / 2, 1)]
    return [(False, seconds, 2)]


def run_sweep(job: dict, divlat, probe) -> dict:
    """Passes until job["seconds"] is used; see phases()."""
    ns = job["ns"]
    brute = set(job["brute"])
    passes = []
    for traced, budget, min_passes in phases(job["seconds"], job.get("trace")):
        rec = None
        if traced:
            import spans
            rec = spans.Recorder()
            spans.install(rec)
        start = time.perf_counter()
        last = done = 0
        while done < min_passes or time.perf_counter() - start + last <= budget:
            t0 = time.perf_counter()
            res = sweep_pass(ns, divlat, set() if passes else brute, probe, rec)
            last = time.perf_counter() - t0
            res["traced"] = traced
            if rec is not None:
                recorded, counters = rec.drain()
                res["layers"] = spans.layer_metrics(recorded, counters)
                if job.get("spans_file") and done == 0:
                    spans.write_spans(job["spans_file"], recorded)
            passes.append(res)
            done += 1
    return {"passes": passes}


def main(argv: list[str]) -> int:
    job = json.loads(argv[0])
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import speed
    probe = speed.Probe()
    probe.start()
    try:
        divlat, raw_s, t0, t1 = timed(probe, importlib.import_module, "divlat")
        if Path(divlat.__file__).resolve().parent != SRC_DIR / "divlat":
            print(json.dumps({"error": f"imported divlat from {divlat.__file__}, "
                                       f"not from {SRC_DIR}"}))
            return 3
        result = {"import_s": raw_s * probe.scale(t0, t1), "import_raw_s": raw_s}
        if job["kind"] == "cli":
            result.update(run_cli(job, probe))
        elif job["kind"] == "sweep":
            result.update(run_sweep(job, divlat, probe))
        elif job["kind"] != "probe":
            raise ValueError(f"unknown job kind {job['kind']!r}")
    finally:
        probe.stop()
    result["probe_samples"] = len(probe.samples)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
