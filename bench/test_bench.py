"""Self-test of the benchmark harness.

    python3 -m pytest bench -q

Runs every workload at a tiny size, untraced and traced, and checks the
pieces that decide `correct`: the reference checks, the determinism
digest and the checkpoint pair.  Corrupted reports must count as
failed ops.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import child
import run
import spans
import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path("bench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_tiny(workload, trace):
    seed = "3" if trace == "0" else "4"
    proc = bench("--workload", workload, "--seed", seed, "--seconds", "1",
                 "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    detail = json.loads(detail_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 2
    names = run.per_layer_units() if trace == "1" else run.END_TO_END_UNITS
    assert set(result["metrics"]) == set(names)
    assert detail["seed"] == int(seed)
    assert detail["machine"]["nproc"] >= 1
    assert all(m["samples"] >= 1 for m in detail["metrics"].values())
    assert result["metrics"].get("setup_s", {"value": 1})["value"] > 0
    if trace == "1":
        assert Path(detail["spans_file"]).stat().st_size > 0


def test_seed_changes_inputs_and_only_the_seed():
    def omega14(seed):
        return workloads.lattice_moments(seed, False)[2].argv
    assert omega14(1) == omega14(1) != omega14(2)
    assert workloads.sweep_inputs(1, False) == workloads.sweep_inputs(1, False)
    assert workloads.sweep_inputs(1, False) != workloads.sweep_inputs(2, False)
    # the paper fixes the campaign inputs: the seed orders them only
    a, b = workloads.eta_campaigns(1, False), workloads.eta_campaigns(5, False)
    assert sorted(op.argv for op in a) == sorted(op.argv for op in b)
    names = [op.name for op in a]
    assert names.index("checkpoint-write") + 1 == names.index("checkpoint-resume")


def _child_out(report: dict, exit_code: int = 0) -> dict:
    return {"exit": exit_code, "error": None, "stdout": json.dumps(report) + "\n"}


CONSTANT_C = {
    "command": "constant-c", "inputs": {}, "status": "pass", "timing_seconds": 1.0,
    "results": {"value": 1.0707347245501929, "value_8dp": "1.07073472",
                "attained_at": [2, 2149], "unique_maximum": True},
}

HARD_T2 = {
    "command": "verify-eta", "inputs": {"threads": 2}, "status": "pass", "timing_seconds": 1.0,
    "results": {"campaigns": [{"label": "eta-hard", "t_range": [2, 2], "pass": True,
                               "worst_margin": 2.6e-18, "wall_time": 0.4}]},
}


def _judge(op_name: str, outs: list[dict]) -> run.Run:
    """Feed child outputs for one op (one per pass) through the checks."""
    ops = {op.name: op for op in workloads.eta_campaigns(1, False)}
    r = run.Run()
    first: dict[str, str] = {}
    for out in outs:
        seen: dict[str, str] = {}
        r.judge_op(ops[op_name], out, first, seen)
    return r


def _corrupt(report: dict, **changes) -> dict:
    bad = json.loads(json.dumps(report))
    bad["results"].update(changes)
    return bad


def test_reference_report_passes():
    assert _judge("constant-c", [_child_out(CONSTANT_C)] * 2).failures == []
    assert _judge("checkpoint-write", [_child_out(HARD_T2)] * 2).failures == []


def test_wrong_constant_counts_as_failed_op():
    r = _judge("constant-c", [_child_out(_corrupt(CONSTANT_C, value_8dp="1.07073473"))])
    assert r.attempted == 1 and len(r.failures) == 1
    assert "value_8dp" in r.failures[0]


def test_flipped_verdict_counts_as_failed_op():
    flipped = json.loads(json.dumps(HARD_T2))
    flipped["results"]["campaigns"][0]["pass"] = False
    r = _judge("checkpoint-write", [_child_out(flipped)])
    assert len(r.failures) == 1 and "not passing" in r.failures[0]


def test_inconclusive_exit_counts_as_failed_op():
    inconclusive = dict(HARD_T2, status="inconclusive")
    r = _judge("checkpoint-write", [_child_out(inconclusive, exit_code=2)])
    assert len(r.failures) == 1 and "exit code 2" in r.failures[0]


def test_results_changing_between_passes_count_as_failed_op():
    drifted = _corrupt(CONSTANT_C, value=1.0707347245501930)
    r = _judge("constant-c", [_child_out(CONSTANT_C), _child_out(drifted)])
    assert r.attempted == 2 and len(r.failures) == 1
    assert "first pass" in r.failures[0]
    # timing fields are not part of the digest
    retimed = dict(CONSTANT_C, timing_seconds=9.0)
    assert _judge("constant-c", [_child_out(CONSTANT_C), _child_out(retimed)]).failures == []


def test_resume_must_reproduce_the_write():
    ops = {op.name: op for op in workloads.eta_campaigns(1, False)}
    r = run.Run()
    first: dict[str, str] = {}
    seen: dict[str, str] = {}
    moved = json.loads(json.dumps(HARD_T2))
    moved["results"]["campaigns"][0]["worst_margin"] = 2.5e-18
    r.judge_op(ops["checkpoint-write"], _child_out(HARD_T2), first, seen)
    r.judge_op(ops["checkpoint-resume"], _child_out(moved), first, seen)
    assert len(r.failures) == 1 and "checkpoint-write" in r.failures[0]


def test_child_env_drops_sieve_limit(monkeypatch):
    monkeypatch.setenv("DIVLAT_SIEVE_LIMIT", "1000")
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    env = run.child_env()
    assert "DIVLAT_SIEVE_LIMIT" not in env and "PYTHONPATH" not in env


def test_brute_oracle_matches_library():
    sys.path.insert(0, str(ROOT / "src"))
    import divlat
    for n in (30, 210, 2310):
        profile = divlat.divisor_profile(n)
        for theta in child.THETAS:
            assert child.brute_H(profile, theta, divlat.mertens_truncated) == \
                divlat.H_theta_exact(profile, theta)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "scan", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_probe_scales_to_reference_speed():
    probe = speed.Probe()
    # a host at half the reference speed: the probe takes twice REF_S
    probe.samples = [(float(t), 2 * speed.REF_S) for t in range(10)]
    assert probe.scale(2.0, 8.0) == pytest.approx(0.5)
    # an interval with too few samples borrows its nearest neighbours
    probe.samples += [(20.0, speed.REF_S)]
    assert probe.scale(19.9, 20.1) == pytest.approx(0.5)


def test_probe_time_is_not_counted_as_program_time():
    probe = speed.Probe()
    probe.start()
    try:
        def busy():
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass
        _, net_s, t0, t1 = child.timed(probe, busy)
    finally:
        probe.stop()
    assert len(probe.samples) >= 3
    assert net_s == pytest.approx(t1 - t0 - probe.spent)
    assert 0 < probe.spent < t1 - t0


def test_recorder_is_thread_safe():
    rec = spans.Recorder()
    per_thread, threads = 2000, 4
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(per_thread):
                rec.call("core.factorize", lambda: None, (), {})

        def op():
            pool = [threading.Thread(target=work) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in pool)

        rec.run_op("op-1", "cli.main", op)
    finally:
        sys.setswitchinterval(old)
    recorded, _ = rec.drain()
    assert len(recorded) == per_thread * threads + 1
    assert len({s[3] for s in recorded}) == len(recorded)
    root = next(s for s in recorded if s[0] == "cli.main")
    assert all(s[4] == root[3] and s[5] == "op-1" for s in recorded if s is not root)


def test_self_time_subtracts_union_of_children():
    # root [0, 10]; children on two threads overlap on [2, 4]
    recorded = [("cli.main", 0.0, 10.0, 1, None, "op", None),
                ("campaigns.verify_c_easy", 1.0, 4.0, 2, 1, "op", None),
                ("campaigns.verify_c_hard", 2.0, 6.0, 3, 1, "op", None),
                ("core.sieve_primes", 2.0, 3.0, 4, 3, "op", 100)]
    m = spans.finish(spans.layer_metrics(recorded, {}))
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert m["campaigns.self_s"] == pytest.approx(3.0 + 3.0)
    assert m["campaigns.campaign_s"] == pytest.approx(7.0)
    assert m["core.primes_sieved"] == 100 and m["core.sieve_calls"] == 1
