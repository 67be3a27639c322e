"""divlat benchmark: end-to-end metrics per workload, per-layer traces.

    python3 bench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a divlat checkout; divlat is imported from its
``src/``.  Workloads (see workloads.py) are closed loops with one
client: one op at a time.  CLI ops each run ``divlat.cli.main`` in a
fresh interpreter (child.py), as the ``divlat`` shell command would, so
state cached inside one process cannot pass for a gain users never
see.  ``threshold-sweep`` calls the library in one process.

Every run first starts a few import-only interpreters (set-up probes),
then runs passes over the workload's input list until ``--seconds`` is
used, at least two so that each op's results can be compared across
passes.  ``--trace 1`` spends the first half untraced and the second
half with span wrappers installed, and reports the per-layer metrics.

Every time is scaled to a reference host speed (speed.py): each child
times a fixed probe loop every 30 ms from a signal handler, and a time
measured over an interval (net of the probe's own time) is multiplied
by the reference duration of the probe over its median duration in
that interval.  On a shared 2-vCPU Xeon
virtual machine fixed pure-Python code drifts between speeds ~1.45x
apart over tens of seconds; the scaling divides that drift out and
leaves the program's own cost.  ``pass_s`` is the median over untraced
passes of the scaled pass time; an op's latency is its median over
those passes, and p50/p99 are taken across ops.  ``setup_s`` is the
median scaled import time over the run's processes; unscaled, it
followed the host's drift as closely as the passes did.  The detail
line keeps the unscaled samples too.

Output: one JSON line with the details (seed, machine, inputs, every
metric with unit and sample count, failures), then, as the last line,
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is
0 when the run completed, whether or not ops failed; a harness error
(no ``src/divlat`` to benchmark, a child that cannot import it) exits
nonzero without the result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import child
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: scratch space inside the checkout: per-pass checkpoint directories
#: and the span files of traced runs
WORK_DIR = ROOT / ".bench_work"

#: import-only interpreters started before the timed passes of a run
SETUP_PROBES = 9
#: no run may take longer than this, whatever --seconds says
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "pass_s": "s",
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p99_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    return {**spans.metric_units(), "trace_overhead_s": "s"}


class HarnessError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failed op)."""


def child_env() -> dict[str, str]:
    """The caller's environment without divlat or Python settings.

    DIVLAT_SIEVE_LIMIT would change how far commands sieve; PYTHON*
    variables would change what the interpreter imports.
    """
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("DIVLAT_", "PYTHON"))}


def spawn(job: dict, deadline: float) -> dict:
    """Run child.py on one job and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("run deadline passed")
    proc = subprocess.run(
        [sys.executable, "-I", str(BENCH_DIR / "child.py"), json.dumps(job)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        out = None
    if proc.returncode != 0 or not isinstance(out, dict) or "import_s" not in out:
        detail = (out or {}).get("error") or proc.stderr.strip()[-600:]
        raise HarnessError(f"child exited {proc.returncode}: {detail}")
    return out


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median_layers(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


class Run:
    """Samples and failures collected over one benchmark run."""

    def __init__(self):
        #: scaled import times, and the unscaled ones
        self.import_s: list[float] = []
        self.import_raw_s: list[float] = []
        self.maxrss_kb: list[int] = []
        self.probe_samples = 0
        #: scaled pass times, untraced and traced, and the unscaled ones
        self.pass_s: dict[bool, list[float]] = {False: [], True: []}
        self.pass_raw_s: dict[bool, list[float]] = {False: [], True: []}
        #: scaled untraced latencies of each op, one per pass
        self.op_s: dict[str, list[float]] = {}
        self.layers: list[dict[str, float]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.threads = None

    def spawn(self, job: dict, deadline: float) -> dict:
        """Run one child; record its import time and peak RSS."""
        out = spawn(job, deadline)
        self.import_s.append(out["import_s"])
        self.import_raw_s.append(out["import_raw_s"])
        self.probe_samples += out["probe_samples"]
        self.maxrss_kb.append(out["maxrss_kb"])
        return out

    def op_done(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")

    def judge_op(self, op: workloads.Op, out: dict, first: dict[str, str],
                 seen: dict[str, str]) -> None:
        """Check one CLI op's output and count it as attempted or failed.

        `first` maps op names to the digest of their first pass, `seen`
        to their digest in the current pass.
        """
        problems = []
        if out.get("error"):
            problems.append(f"raised {out['error']}")
        if out.get("exit") != 0:
            problems.append(f"exit code {out.get('exit')}")
        try:
            report = json.loads(out.get("stdout", "").splitlines()[0])
        except (IndexError, json.JSONDecodeError):
            report = {}
            problems.append("no JSON report")
        if report and report.get("status") != "pass":
            problems.append(f"status {report.get('status')!r}")
        problems += op.check(report)
        if report.get("command") == "verify-eta":
            self.threads = report.get("inputs", {}).get("threads")
        d = child.digest(report.get("results"))
        seen[op.name] = d
        if first.setdefault(op.name, d) != d:
            problems.append("results differ from the first pass")
        if op.same_results_as and seen.get(op.same_results_as) != d:
            problems.append(f"results differ from {op.same_results_as}")
        self.op_done(op.name, problems)

    def op_latencies(self) -> list[float]:
        """Each op's median latency over the untraced passes."""
        return [statistics.median(v) for v in self.op_s.values()]


def cli_pass(ops: list[workloads.Op], run: Run, traced: bool, first: dict,
             spans_file: str | None, deadline: float) -> list[dict[str, float]]:
    """Run every op once; each op's results must match its first pass.

    Returns the layer sums of the traced ops (empty when untraced).
    """
    layers = []
    WORK_DIR.mkdir(exist_ok=True)
    # a fresh directory per pass: a stale checkpoint from an earlier
    # pass or an aborted run can never turn the write into a resume
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        ckpt = str(Path(tmp) / "campaign.ckpt")
        seen: dict[str, str] = {}
        total = raw = 0.0
        for op in ops:
            argv = [ckpt if a == workloads.CKPT else a for a in op.argv]
            out = run.spawn({"kind": "cli", "argv": argv, "trace": traced,
                             "op": op.name, "spans_file": spans_file}, deadline)
            total += out["cmd_s"]
            raw += out["cmd_raw_s"]
            if traced:
                layers.append(out["layers"])
            else:
                run.op_s.setdefault(op.name, []).append(out["cmd_s"])
            run.judge_op(op, out, first, seen)
    run.pass_s[traced].append(total)
    run.pass_raw_s[traced].append(raw)
    return layers


def run_cli_workload(ops: list[workloads.Op], run: Run, seconds: float, trace: bool,
                     spans_file: str | None, deadline: float) -> None:
    first: dict[str, str] = {}
    for traced, budget, min_passes in child.phases(seconds, trace):
        start = time.monotonic()
        last = done = 0
        while done < min_passes or time.monotonic() - start + last <= budget:
            t0 = time.monotonic()
            # spans of the first traced pass are written out; later
            # passes repeat the same calls
            layers = cli_pass(ops, run, traced, first,
                              spans_file if done == 0 else None, deadline)
            if traced:
                sums: dict[str, float] = {}
                for layer in layers:
                    for k, v in layer.items():
                        sums[k] = sums.get(k, 0) + v
                run.layers.append(spans.finish(sums))
            last = time.monotonic() - t0
            done += 1


def run_sweep_workload(seed: int, tiny: bool, run: Run, seconds: float, trace: bool,
                       spans_file: str | None, deadline: float) -> dict:
    ns, brute = workloads.sweep_inputs(seed, tiny)
    out = run.spawn({"kind": "sweep", "ns": ns, "brute": brute, "seconds": seconds,
                     "trace": trace, "spans_file": spans_file}, deadline)
    first = out["passes"][0]["digests"]
    for p in out["passes"]:
        run.pass_s[p["traced"]].append(p["pass_s"])
        run.pass_raw_s[p["traced"]].append(p["pass_raw_s"])
        if not p["traced"]:
            for n, t in zip(ns, p["op_s"]):
                run.op_s.setdefault(f"n={n}", []).append(t)
        else:
            run.layers.append(spans.finish(p["layers"]))
        for n, d0, d, bad in zip(ns, first, p["digests"], p["failures"]):
            problems = [f"chain or brute count fails at theta {b}" for b in bad]
            if d != d0:
                problems.append("results differ from the first pass")
            run.op_done(f"n={n}", problems)
    return {"ns": len(ns), "brute_checked": brute, "thetas": list(child.THETAS),
            "t": child.SWEEP_T}


def machine(run: Run, load_start: tuple) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": version("numpy"),
            "mpmath": version("mpmath"), "loadavg_start": list(load_start),
            "loadavg_end": list(os.getloadavg()),
            "verify_eta_threads": run.threads}


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """One run of one workload; returns the detail record."""
    deadline = time.monotonic() + HARD_LIMIT_S
    load_start = os.getloadavg()
    run = Run()
    spans_file = None
    if trace:
        WORK_DIR.mkdir(exist_ok=True)
        spans_file = str(WORK_DIR / f"spans-{name}-seed{seed}.jsonl")
        Path(spans_file).unlink(missing_ok=True)
    for _ in range(SETUP_PROBES):
        run.spawn({"kind": "probe"}, deadline)
    if name == "threshold-sweep":
        inputs = run_sweep_workload(seed, tiny, run, seconds, trace, spans_file, deadline)
    else:
        ops = workloads.CLI_BUILDERS[name](seed, tiny)
        inputs = {"ops": [{"name": op.name, "argv": op.argv} for op in ops]}
        run_cli_workload(ops, run, seconds, trace, spans_file, deadline)

    untraced = run.pass_s[False]
    latencies = run.op_latencies()
    e2e = {
        "pass_s": (statistics.median(untraced), len(untraced)),
        "setup_s": (statistics.median(run.import_s), len(run.import_s)),
        "op_p50_s": (quantile(latencies, 0.5), len(latencies)),
        "op_p99_s": (quantile(latencies, 0.99), len(latencies)),
        "peak_rss_mb": (max(run.maxrss_kb) / 1024, len(run.maxrss_kb)),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k], "samples": n}
               for k, (v, n) in e2e.items()}
    if trace:
        layers = median_layers(run.layers)
        layers["trace_overhead_s"] = (statistics.median(run.pass_s[True])
                                      - statistics.median(untraced))
        units = per_layer_units()
        metrics.update({k: {"value": layers[k], "unit": units[k],
                            "samples": len(run.layers)} for k in units})
    return {
        "workload": name,
        "why": workloads.WHY[name],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": "tiny" if tiny else "full",
        "machine": machine(run, load_start),
        "inputs": inputs,
        "passes": {"untraced": len(untraced), "traced": len(run.pass_s[True])},
        "pass_s_samples": {"untraced": untraced, "traced": run.pass_s[True]},
        "unscaled": {"pass_s": {"untraced": run.pass_raw_s[False],
                                "traced": run.pass_raw_s[True]},
                     "import_s": run.import_raw_s},
        "probe_samples": run.probe_samples,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failed_ops": len(run.failures) / run.attempted,
        "failures": run.failures[:20],
        "metrics": metrics,
        "spans_file": spans_file,
    }


def result_line(detail: dict, trace: bool, prefix: str = "") -> dict:
    names = per_layer_units() if trace else END_TO_END_UNITS
    return {f"{prefix}{k}": {"value": detail["metrics"][k]["value"],
                             "unit": detail["metrics"][k]["unit"]} for k in names}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny inputs for the harness self-test")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "divlat" / "__init__.py").is_file():
        print(f"error: no divlat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    try:
        details = [run_workload(name, args.seed, args.seconds, trace, args.size == "tiny")
                   for name in names]
    except (HarnessError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            shutil.rmtree(WORK_DIR)
    for d in details:
        print(json.dumps(d))
        for k, m in d["metrics"].items():
            print(f"{d['workload']:16s} {k:38s} {m['value']:14.6g} {m['unit']:6s} "
                  f"n={m['samples']}", file=sys.stderr)
    metrics = {}
    for d in details:
        metrics.update(result_line(d, trace, f"{d['workload']}." if len(details) > 1 else ""))
    failed = sum(d["failed"] for d in details)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(d["attempted"] for d in details),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
