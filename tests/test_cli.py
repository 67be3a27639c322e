"""CLI contract: JSON report schema, exit codes, determinism."""

import importlib
import json
from fractions import Fraction

import pytest

from divlat import campaigns, certify, cli, core, kernel, moments
from divlat.errors import DomainError, InconclusiveError

REPORT_KEYS = {"command", "inputs", "results", "status", "timing_seconds"}


def _reject_constant(token: str):
    raise ValueError(f"{token} is not JSON under RFC 8259")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out, parse_constant=_reject_constant)
    assert set(report) == REPORT_KEYS
    assert (code == 0) == (report["status"] == "pass")
    return code, report, captured.err


def test_tables(capsys):
    code, report, err = run_cli(capsys, "tables")
    assert code == 0
    rows = report["results"]["alpha_table"]["rows"]
    assert [r[0] for r in rows] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    assert rows[2][1] == "3.94"  # theta = 0.3
    assert rows[7][1] == "2.50"  # theta = 0.8
    thr = {r[0]: r[1] for r in report["results"]["threshold_table"]["rows"]}
    assert thr[5] == 44
    assert "alpha(theta)" in err


def test_tables_csv(capsys):
    code, _, err = run_cli(capsys, "tables", "--csv")
    assert code == 0
    assert "theta,alpha,reference,verdict" in err


def test_tables_alpha_verdict_is_certified(capsys, monkeypatch):
    """The shown alpha is read off the certified enclosure, never off the
    reference: alpha(0.3) = 3.94..., so a reference of 3.95 is refused."""
    monkeypatch.setitem(moments.ALPHA_REFERENCE, 0.3, 3.95)
    code, report, _ = run_cli(capsys, "tables")
    assert code == 1 and report["status"] == "fail"
    rows = {r[0]: r for r in report["results"]["alpha_table"]["rows"]}
    assert rows[0.3][1:] == ["3.94", "3.95", "MISMATCH"]
    assert all(r[3] == "ok" for th, r in rows.items() if th != 0.3)


def test_tables_alpha_escalates_while_the_ends_disagree(capsys, monkeypatch):
    """A bracket straddling a hundredth is read again one precision level
    up; one that straddles up to the ceiling is inconclusive (exit 2)."""
    enclosure, seen = moments.alpha_enclosure, []

    def straddle_below(ceiling: int):
        def patched(theta, level):
            if theta == Fraction(3, 10):
                seen.append(level)
                if level < ceiling:
                    return Fraction(3939, 1000), Fraction(3941, 1000)
            return enclosure(theta, level)
        return patched

    monkeypatch.setattr(moments, "alpha_enclosure", straddle_below(512))
    code, report, _ = run_cli(capsys, "tables")
    assert code == 0 and seen == [128, 256, 512]
    assert report["results"]["alpha_table"]["rows"][2] == [0.3, "3.94", "3.94", "ok"]
    monkeypatch.setattr(moments, "alpha_enclosure", straddle_below(2 * certify.PREC_CEILING))
    code, report, _ = run_cli(capsys, "tables")
    assert code == 2 and report["status"] == "inconclusive"
    assert report["results"]["error_kind"] == "inconclusive"
    assert "alpha(0.3) to 2 decimals" in report["results"]["error"]


def test_moments_basic(capsys):
    code, report, _ = run_cli(capsys, "moments", "--n", "30", "--t", "2", "--all-checks")
    assert code == 0
    res = report["results"]
    assert res["moment_stepwise"] == 26 and res["moment_by_parts"] == 26
    assert res["identities_agree"]
    assert res["first_bound"]["holds"] and res["second_bound"]["holds"]
    assert res["envelope_violations"] == []


def test_moments_computes_the_moment_by_parts_once(capsys, monkeypatch):
    """--all-checks hands the chain the moment the report already holds."""
    calls = []
    original = moments.moment_by_parts
    monkeypatch.setattr(moments, "moment_by_parts",
                        lambda profile, t: calls.append(t) or original(profile, t))
    code, report, _ = run_cli(capsys, "moments", "--n", "30030", "--t", "4", "--all-checks")
    assert code == 0 and report["results"]["chain"]["holds"] and calls == [4]


def test_moments_t1(capsys):
    code, report, _ = run_cli(capsys, "moments", "--n", "6", "--t", "1")
    assert code == 0
    assert report["results"]["moment_stepwise"] == -2


def test_moments_radical_note(capsys):
    code, report, _ = run_cli(capsys, "moments", "--n", "12", "--t", "2")
    assert code == 0
    assert report["results"]["radical"] == 6
    assert "radical" in report["results"]["note"]
    code6, report6, _ = run_cli(capsys, "moments", "--n", "6", "--t", "2")
    assert report["results"]["moment_stepwise"] == report6["results"]["moment_stepwise"]


def test_moments_rejects_theorem_flags_on_nonsquarefree(capsys):
    code, report, _ = run_cli(capsys, "moments", "--n", "12", "--t", "2", "--all-checks")
    assert code == 1
    assert report["status"] == "fail"
    assert "squarefree" in report["results"]["error"]
    assert report["inputs"]["n"] == 12 and report["inputs"]["all_checks"] is True
    assert "command" not in report["inputs"]
    assert report["results"]["error_kind"] == "argument"


def test_moments_divisor_cap_is_capacity_error(capsys, monkeypatch):
    monkeypatch.setattr(core, "DIVISOR_CAP", 8)
    code, report, _ = run_cli(capsys, "moments", "--n", "210", "--t", "2")
    assert code == 1 and report["status"] == "fail"
    assert report["results"]["error_kind"] == "capacity"
    assert "divisor cap" in report["results"]["error"]


def test_moments_counts_H_theta_at_nine_primes(capsys):
    # primorial(9) = 223,092,870 > 10^7: H_theta walks its 512 divisor gaps
    code, report, _ = run_cli(capsys, "moments", "--n", "223092870", "--t", "6",
                              "--all-checks", "--theta", "0.3")
    assert code == 0 and report["status"] == "pass"
    chain = report["results"]["threshold_count_chain"]
    assert chain["holds"] and chain["exact_value"] == 1405489


def test_moments_theta_is_the_decimal_typed(capsys):
    """--theta 0.2 is 1/5, not its double (0.2 * 5 = 1 + 5.6e-17 in binary),
    so |M(2310, j)| = 2 = 2^(theta omega) meets the threshold."""
    code, report, _ = run_cli(capsys, "moments", "--n", "2310", "--t", "2",
                              "--all-checks", "--theta", "0.2")
    assert code == 0
    profile = moments.divisor_profile(core.factorize(2310))
    brute = sum(abs(moments.mertens_truncated(profile, j)) >= 2 for j in range(1, 2311))
    assert brute == 301
    chain = report["results"]["threshold_count_chain"]
    assert chain["exact_value"] == brute and chain["context"]["theta"] == "1/5"


def test_moments_theta_keeps_every_digit_typed(capsys):
    """--theta 0.20000000000000001 is just above 1/5, so 2^(theta omega) is
    just above 2 and only |M(2310, j)| >= 3 counts; its double is 0.2."""
    code, report, _ = run_cli(capsys, "moments", "--n", "2310", "--t", "2",
                              "--all-checks", "--theta", "0.20000000000000001")
    assert code == 0
    profile = moments.divisor_profile(core.factorize(2310))
    brute = sum(abs(moments.mertens_truncated(profile, j)) >= 3 for j in range(1, 2311))
    assert brute == 18
    chain = report["results"]["threshold_count_chain"]
    assert chain["exact_value"] == brute
    assert report["inputs"]["theta"] == "20000000000000001/100000000000000000"
    assert chain["context"]["theta"] == report["inputs"]["theta"]


def test_unserializable_results_are_one_argument_report(capsys, monkeypatch):
    """A NaN in a command's results cannot be strict JSON: the run prints
    one error report instead, never a partial one."""
    monkeypatch.setattr(moments, "moment_stepwise", lambda profile, t: float("nan"))
    code = cli.main(["moments", "--n", "30", "--t", "2"])
    out = capsys.readouterr().out
    assert code == 1 and out.count("\n") == 1
    report = json.loads(out)
    assert report["status"] == "fail" and report["results"]["error_kind"] == "argument"


def test_inconclusive_report_keeps_inputs(capsys, monkeypatch):
    def undecided(*args, **kwargs):
        raise InconclusiveError("undecidable at the ceiling")

    monkeypatch.setattr(moments, "chain_check", undecided)
    code, report, _ = run_cli(capsys, "moments", "--n", "30", "--t", "2", "--all-checks")
    assert code == 2 and report["status"] == "inconclusive"
    assert report["inputs"]["n"] == 30 and report["inputs"]["t"] == 2
    assert report["results"]["error_kind"] == "inconclusive"


def test_domain_error_report(capsys, monkeypatch):
    """A violated hypothesis is its own error kind, with exit code 1."""
    def violated(profile, t):
        raise DomainError("hypothesis violated")

    monkeypatch.setattr(moments, "moment_stepwise", violated)
    code, report, _ = run_cli(capsys, "moments", "--n", "30", "--t", "2")
    assert code == 1 and report["status"] == "fail"
    assert report["results"] == {"error": "hypothesis violated", "error_kind": "domain"}


def test_energy_single(capsys):
    code, report, _ = run_cli(capsys, "energy", "--s", "2", "--n", "12")
    assert code == 0
    rep = report["results"]["report"]
    assert rep["energy"] == 114
    assert rep["lower_bound"] == "96/1" and rep["upper_bound"] == "243/2"
    assert report["results"]["oracle"] == 114


def test_energy_equality_case(capsys):
    code, report, _ = run_cli(capsys, "energy", "--s", "2", "--n", "6")
    assert code == 0
    rep = report["results"]["report"]
    assert rep["energy"] == 36 and rep["upper_is_equality"]


def test_energy_single_needs_equality_iff_squarefree(capsys, monkeypatch):
    """Both energy paths read EnergyReport.holds: a squarefree n whose
    upper bound is no longer an equality fails under --n as under --sweep."""
    energy_module = importlib.import_module("divlat.energy")
    lo, up = energy_module._sandwich_constants(2)
    monkeypatch.setattr(energy_module, "_sandwich_constants", lambda s: (lo, 2 * up))
    code, report, _ = run_cli(capsys, "energy", "--s", "2", "--n", "30")
    assert code == 1 and report["status"] == "fail"
    rep = report["results"]["report"]
    assert rep["strict_lower_holds"] and rep["upper_holds"] and not rep["upper_is_equality"]
    assert report["results"]["oracle"] == rep["energy"]
    code, report, _ = run_cli(capsys, "energy", "--s", "2", "--sweep", "6")
    assert code == 1 and [v["n"] for v in report["results"]["violations"]] == [2, 3, 5, 6]


def test_energy_sweep(capsys):
    code, report, _ = run_cli(capsys, "energy", "--s", "3", "--sweep", "60")
    assert code == 0
    assert report["results"] == {"checked": 59, "signatures": 12, "violations": []}


@pytest.mark.parametrize("argv, named", [
    # the interval ladder is fixed at 128 doubling to 4096 bits
    (["verify-eta", "--t", "2", "--precision", "256"], "--precision"),
    # NaN is not JSON, so no report could echo it in its inputs
    (["moments", "--n", "30", "--t", "2", "--theta", "nan"], "--theta"),
    # the constant search always sweeps the paper's t = 2..99
    (["constant-c", "--t-max", "99"], "--t-max"),
    # the scan's sample ranges are fixed
    (["scan", "--omega-max", "8"], "--omega-max"),
])
def test_usage_error_exits_2(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("ok_argv, bad_argv", [
    (["verify-eta", "--t", "3", "--k-max", "56", "--variant", "easy"],
     ["verify-eta", "--t", "5:3"]),
    (["moments", "--n", "30", "--t", "2"], ["moments", "--n", "12", "--t", "2", "--all-checks"]),
    (["energy", "--s", "2", "--n", "12"], ["energy", "--s", "2"]),
])
def test_error_report_keeps_the_pass_report_inputs(capsys, ok_argv, bad_argv):
    code, ok, _ = run_cli(capsys, *ok_argv)
    assert code == 0
    code, bad, _ = run_cli(capsys, *bad_argv)
    assert bad["results"]["error_kind"] == "argument"
    assert set(bad["inputs"]) == set(ok["inputs"])
    assert "csv" not in ok["inputs"] and "command" not in ok["inputs"]


@pytest.mark.parametrize("argv, named", [
    (["verify-eta", "--t", "5:3"], "'5:3' is empty"),
    (["verify-eta", "--t", "2:9:1"], "'2:9:1'"),
    (["verify-eta", "--t", "x"], "'x'"),
    # theta outside (0, 1] is refused whether or not a check would read it
    (["moments", "--n", "30", "--t", "2", "--theta", "7"], "--theta must lie in (0, 1]"),
    (["moments", "--n", "30", "--t", "3", "--all-checks", "--theta", "7"], "got 7"),
    # the sweep would run and --n would sit unread in the report's inputs
    (["energy", "--s", "2", "--n", "12", "--sweep", "10"], "exactly one of --n and --sweep"),
    # no threshold-count chain runs, so --theta would sit unread in the inputs
    (["moments", "--n", "30", "--t", "2", "--theta", "0.5"], "--theta is read only by"),
    (["moments", "--n", "30", "--t", "3", "--all-checks", "--theta", "0.5"], "an even --t"),
])
def test_malformed_ranges_name_the_input(capsys, argv, named):
    code, report, _ = run_cli(capsys, *argv)
    assert code == 1 and report["status"] == "fail"
    assert report["results"]["error_kind"] == "argument"
    assert named in report["results"]["error"]


@pytest.mark.parametrize("argv, named", [
    (["scan", "--count", "0"], "--count must be >= 1, got 0"),
    (["scan", "--count", "-3"], "--count must be >= 1, got -3"),
    (["energy", "--s", "3", "--sweep", "1"], "--sweep must be >= 2"),
    (["energy", "--s", "3", "--sweep", "0"], "got 0"),
])
def test_empty_sweep_is_argument_error(capsys, argv, named):
    # a pass over zero checks would certify nothing
    code, report, _ = run_cli(capsys, *argv)
    assert code == 1 and report["status"] == "fail"
    assert report["results"]["error_kind"] == "argument"
    assert named in report["results"]["error"]
    assert "checks_run" not in report["results"] and "checked" not in report["results"]


def test_energy_invalid_s(capsys):
    code, report, _ = run_cli(capsys, "energy", "--s", "1", "--n", "12")
    assert code == 1 and report["status"] == "fail"


def test_energy_sweep_invalid_s(capsys):
    code, report, _ = run_cli(capsys, "energy", "--s", "1", "--sweep", "20000")
    assert code == 1 and report["status"] == "fail"
    assert report["results"] == {"error": "energy sandwich stated for s >= 2, got 1",
                                 "error_kind": "argument"}


def test_verify_eta_single(capsys):
    code, report, _ = run_cli(capsys, "verify-eta", "--t", "3",
                              "--k-max", "1936", "--variant", "hard")
    assert code == 0
    camp = report["results"]["campaigns"][0]
    assert camp["pass"] and camp["inconclusive"] == 0
    assert camp["k_range"] == [1, 1936]


def test_verify_eta_easy_range(capsys):
    code, report, _ = run_cli(capsys, "verify-eta", "--t", "2:6",
                              "--k-max", "56", "--variant", "easy")
    assert code == 0
    assert len(report["results"]["campaigns"]) == 5


def test_verify_eta_report_is_host_independent(capsys, monkeypatch):
    """Nothing of the host's CPU count reaches the report."""
    reports = []
    for cpus in (1, 64):
        monkeypatch.setattr("os.cpu_count", lambda cpus=cpus: cpus)
        code, report, _ = run_cli(capsys, "verify-eta", "--t", "3", "--k-max", "56",
                                  "--variant", "easy")
        assert code == 0
        del report["timing_seconds"], report["results"]["campaigns"][0]["wall_time"]
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv", [
    ["moments", "--n", "30", "--t", "1000", "--all-checks"],
    ["moments", "--n", "30", "--t", "3000", "--all-checks"],
    ["scan", "--count", "30"],
])
def test_large_t_bounds_past_float_range(capsys, monkeypatch, argv):
    """Moment bounds that overflow to inf are valid upper bounds, not a crash."""
    monkeypatch.setattr(cli, "SCAN_T_MAX", 200)
    code, report, _ = run_cli(capsys, *argv)
    assert code == 0 and report["status"] == "pass"


def test_unbounded_moment_bounds_are_strict_json(capsys):
    # run_cli parses with every non-RFC 8259 constant rejected
    _, report, _ = run_cli(capsys, "moments", "--n", "30", "--t", "1000", "--all-checks")
    res = report["results"]
    assert res["first_bound"]["value"] == res["second_bound"]["value"] == "inf"
    assert res["chain"]["bound_value"] == res["chain"]["slack"] == "inf"


def test_scan_deterministic(capsys):
    code1, rep1, _ = run_cli(capsys, "scan", "--seed", "11", "--count", "12")
    code2, rep2, _ = run_cli(capsys, "scan", "--seed", "11", "--count", "12")
    assert code1 == code2 == 0
    assert json.dumps(rep1["results"]) == json.dumps(rep2["results"])
    code3, rep3, _ = run_cli(capsys, "scan", "--seed", "12", "--count", "12")
    assert json.dumps(rep1["results"]) != json.dumps(rep3["results"])


def test_scan_detects_corrupted_constant(capsys, monkeypatch):
    """A deliberately broken bound constant must surface a reproducer."""
    monkeypatch.setattr(kernel, "ETA_CONSTANT_LO", "0.10")
    monkeypatch.setattr(kernel, "ETA_CONSTANT_HI", "0.11")
    code, report, err = run_cli(capsys, "scan", "--seed", "3", "--count", "10")
    assert code == 1
    assert report["status"] == "fail"
    failures = report["results"]["failures"]
    assert failures and {"check", "n"} <= set(failures[0])
    assert "MINIMAL REPRODUCER" in err


def test_scan_reproducer_names_the_theta_checked(capsys, monkeypatch):
    """A failed threshold-count chain is recorded at the exact theta = x/10
    it ran at, as "p/q", and that theta reproduces the failure."""
    true_count = moments.H_theta_exact
    monkeypatch.setattr(moments, "H_theta_exact", lambda profile, theta: profile.n ** 8)
    code, report, err = run_cli(capsys, "scan", "--seed", "3", "--count", "10")
    assert code == 1 and "MINIMAL REPRODUCER" in err
    failures = [f for f in report["results"]["failures"]
                if f["check"] == "threshold-count-chain"]
    assert failures
    for fail in failures:
        theta = Fraction(fail["theta"])
        assert fail["theta"] == f"{theta.numerator}/{theta.denominator}"
        assert (10 * theta).denominator == 1 and 0 < theta <= 1
        profile = moments.divisor_profile(fail["n"])
        assert not moments.H_chain_check(profile, theta, fail["t"]).holds
    monkeypatch.setattr(moments, "H_theta_exact", true_count)
    assert all(moments.H_chain_check(moments.divisor_profile(f["n"]), Fraction(f["theta"]),
                                     f["t"]).holds for f in failures)


def test_sieve_ceiling_env(capsys, monkeypatch):
    monkeypatch.setenv("DIVLAT_SIEVE_LIMIT", "1000")
    code, report, _ = run_cli(capsys, "rosser", "--k-max", "100000")
    assert code == 1 and report["status"] == "fail"
    assert "DIVLAT_SIEVE_LIMIT" in report["results"]["error"]
    assert report["results"]["error_kind"] == "capacity"
    assert report["inputs"]["k_max"] == 100000


@pytest.mark.parametrize("text", ["8e7", "", "lots"])
def test_malformed_sieve_limit_is_an_argument_error(capsys, monkeypatch, text):
    """A DIVLAT_SIEVE_LIMIT that is not an integer is reported with the
    variable's name and the text it held."""
    monkeypatch.setenv("DIVLAT_SIEVE_LIMIT", text)
    code, report, _ = run_cli(capsys, "rosser", "--k-max", "100")
    assert code == 1 and report["status"] == "fail"
    assert report["results"]["error_kind"] == "argument"
    assert report["results"]["error"] == f"DIVLAT_SIEVE_LIMIT must be an integer, got {text!r}"


def test_sieve_limit_past_the_32_bit_table(capsys, monkeypatch):
    # p_300000000 needs a limit near 6.5e9: inside the ceiling, past the uint32 table
    monkeypatch.setenv("DIVLAT_SIEVE_LIMIT", "10000000000")
    code, report, _ = run_cli(capsys, "rosser", "--k-max", "300000000")
    assert code == 1 and report["status"] == "fail"
    assert report["results"]["error_kind"] == "capacity"
    assert "32-bit prime table" in report["results"]["error"]
    assert "DIVLAT_SIEVE_LIMIT" not in report["results"]["error"]


def test_rosser_cli(capsys):
    code, report, _ = run_cli(capsys, "rosser", "--k-max", "5000")
    assert code == 0
    assert report["results"]["campaign"]["pass"]
