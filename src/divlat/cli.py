"""Command-line front end.

Every command prints one JSON report on stdout (keys: command, inputs,
results, status, timing_seconds) and a human summary on stderr; --csv
switches the tabular stderr sections to CSV.  A command returns its
results, verdict and summary; `main` emits every report, once, with
timing_seconds counted from after parsing.  Exit code 0 means
status == "pass"; capacity and inconclusive outcomes exit nonzero.
Every report's inputs are the parsed arguments except the command name
and --csv.  An error report names its results.error_kind: capacity,
domain, argument or inconclusive.  A bound past float range is the
string "inf"; any other non-finite float in a report is an error.

Environment: DIVLAT_SIEVE_LIMIT (default 80,000,000) caps how far
commands sieve; a campaign over k primes compares it with the proven
bound on p_k it sieves to, and above the cap is a capacity error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from . import campaigns, kernel, moments
from .certify import escalate
from .core import factorize, prime_upper_bound, rosser_check, sieve_primes
from .energy import brute_energy_oracle, energy
from .errors import CapacityError, InconclusiveError
from .moments import ALPHA_REFERENCE, divisor_profile
from .reports import _jsonable

DEFAULT_SIEVE_CEILING = 80_000_000
#: largest tau(n)^(2s) for which `energy --n` and scan check brute_energy_oracle too
_ORACLE_BUDGET = 10 ** 6


def _table_for_count(k: int):
    """The first k primes, sieved to the proven bound on p_k within the ceiling."""
    need = prime_upper_bound(k)
    ceiling = int(os.environ.get("DIVLAT_SIEVE_LIMIT", str(DEFAULT_SIEVE_CEILING)))
    if need > ceiling:
        raise CapacityError(
            f"campaign needs a sieve limit of {need} (proven bound on p_{k}), "
            f"above the ceiling {ceiling} (raise DIVLAT_SIEVE_LIMIT)")
    return sieve_primes(need)


class _Table:
    """A tabular stderr section; rendered aligned or as CSV."""

    def __init__(self, title: str, headers: list[str], rows: list[list]):
        self.title = title
        self.headers = headers
        self.rows = rows

    def render(self, as_csv: bool) -> str:
        if as_csv:
            lines = [",".join(self.headers)]
            lines += [",".join(str(c) for c in row) for row in self.rows]
            return f"# {self.title}\n" + "\n".join(lines)
        widths = [max(len(str(h)), *(len(str(r[i])) for r in self.rows)) if self.rows
                  else len(str(h)) for i, h in enumerate(self.headers)]
        head = "  ".join(str(h).ljust(w) for h, w in zip(self.headers, widths))
        body = ["  ".join(str(c).ljust(w) for c, w in zip(row, widths))
                for row in self.rows]
        return "\n".join([self.title, head, "-" * len(head)] + body)

    def to_jsonable(self) -> dict:
        return {"title": self.title, "headers": self.headers,
                "rows": [[_jsonable(c) for c in row] for row in self.rows]}


def _emit(args, results: dict, status: str, t0: float, shown: list | tuple = ()) -> int:
    report = {
        "command": args.command,
        "inputs": _jsonable({k: v for k, v in vars(args).items()
                             if k not in ("command", "csv")}),
        "results": _jsonable(results),
        "status": status,
        "timing_seconds": round(time.perf_counter() - t0, 6),
    }
    sys.stdout.write(json.dumps(report, allow_nan=False) + "\n")
    for item in shown:
        print(item.render(args.csv) if isinstance(item, _Table) else item, file=sys.stderr)
    print(f"[{args.command}] status: {status}", file=sys.stderr)
    if status == "pass":
        return 0
    return 2 if status == "inconclusive" else 1


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _alpha_cents(theta: float) -> int:
    """floor(100 alpha) at the decimal theta names (not its nearest double),
    read once both ends of the enclosure agree on it."""
    def decide(level: int) -> int | None:
        ends = moments.alpha_enclosure(Fraction(str(theta)), level)
        lo, hi = (math.floor(100 * end) for end in ends)
        return lo if lo == hi else None

    return escalate(decide, what=f"alpha({theta}) to 2 decimals")


def cmd_tables(args) -> tuple[dict, bool, list]:
    alpha_rows = []
    for theta, expected in ALPHA_REFERENCE.items():
        shown, ref = f"{_alpha_cents(theta) / 100:.2f}", f"{expected:.2f}"
        alpha_rows.append([theta, shown, ref, "ok" if shown == ref else "MISMATCH"])

    thr_rows = []
    for t in list(range(2, 9)) + [99]:
        thr = campaigns.hard_threshold(t)
        cert = campaigns.induction_margin(t, thr + 1, variant="hard")
        thr_rows.append([t, thr, f"{cert.slack:.3e}", "ok" if cert.holds else "FAIL"])

    tables = [
        _Table("alpha(theta), recomputed and truncated to 2 decimals",
               ["theta", "alpha", "reference", "verdict"], alpha_rows),
        _Table("hard-campaign thresholds with induction certificates at k+1",
               ["t", "k_threshold", "margin", "verdict"], thr_rows),
    ]
    results = {
        "alpha_table": tables[0].to_jsonable(),
        "threshold_table": tables[1].to_jsonable(),
    }
    return results, all(row[3] == "ok" for row in alpha_rows + thr_rows), tables


def _parse_t_range(text: str) -> list[int]:
    """--t as one integer t or an inclusive range lo:hi."""
    try:
        bounds = [int(x) for x in text.split(":")]
    except ValueError:
        bounds = []
    if len(bounds) not in (1, 2):
        raise ValueError(f"--t must be an integer t or a range lo:hi, got {text!r}")
    lo, hi = bounds[0], bounds[-1]
    if lo > hi:
        raise ValueError(f"--t range {text!r} is empty: {lo} > {hi}")
    return list(range(lo, hi + 1))


def cmd_verify_eta(args) -> tuple[dict, bool, list]:
    ts = _parse_t_range(args.t)
    variants = ["easy", "hard"] if args.variant == "both" else [args.variant]

    def k_for(t: int, variant: str) -> int:
        if args.k_max is not None:
            return args.k_max
        return 56 if variant == "easy" else campaigns.hard_threshold(t)

    table = _table_for_count(max(k_for(t, v) for t in ts for v in variants))
    # one thread: the interval escalation sets mpmath's global iv.prec
    results = []
    for t in ts:
        for variant in variants:
            verify = campaigns.verify_c_easy if variant == "easy" else campaigns.verify_c_hard
            results.append(verify(t, k_for(t, variant), table, checkpoint=args.checkpoint))
    rows = [[r.label, r.t_range[0], r.k_range[1], f"{r.worst_margin:.3e}",
             r.argmin, r.inconclusive, "ok" if r.passed else "FAIL"] for r in results]
    tab = _Table("eta campaigns", ["variant", "t", "k_max", "worst_margin",
                                   "argmin", "beyond_prec", "verdict"], rows)
    return ({"campaigns": [r.to_jsonable() for r in results]},
            all(r.passed for r in results), [tab])


def cmd_constant_c(args) -> tuple[dict, bool, list]:
    table = _table_for_count(campaigns.hard_threshold(2))
    found = campaigns.constant_C_search(table)
    unique = found.runner_up < found.lower
    results = {
        "value": found.value,
        "value_8dp": f"{found.value:.8f}",
        "enclosure": [found.lower, found.upper],
        "attained_at": list(found.attained_at),
        "runner_up": found.runner_up,
        "runner_up_at": list(found.runner_up_at),
        "unique_maximum": unique,
    }
    return results, found.attained_at == kernel.ETA_CONSTANT_AT and unique, [
        f"best constant = {found.value:.8f} attained at (t,k) = {found.attained_at}",
        f"runner-up {found.runner_up:.10f} at {found.runner_up_at}"]


def cmd_moments(args) -> tuple[dict, bool, list]:
    if args.theta is not None and not 0 < args.theta <= 1:
        raise ValueError(f"--theta must lie in (0, 1], got {args.theta}")
    if args.theta is not None and not (args.all_checks and args.t % 2 == 0):
        raise ValueError("--theta is read only by the threshold-count chain, "
                         "which runs with --all-checks and an even --t")
    f = factorize(args.n)
    profile = divisor_profile(f)
    stepwise = moments.moment_stepwise(profile, args.t)
    by_parts = moments.moment_by_parts(profile, args.t)
    results: dict = {
        "n": args.n,
        "t": args.t,
        "moment_stepwise": stepwise,
        "moment_by_parts": by_parts,
        "identities_agree": stepwise == by_parts,
        "radical": f.gamma,
    }
    ok = stepwise == by_parts
    if f.gamma != f.n:
        results["note"] = f"moment of {args.n} equals moment of its radical {f.gamma}"
    if args.all_checks:
        if not f.is_squarefree:
            raise ValueError(
                f"closed-form bound checks need squarefree n, got {args.n}; "
                f"rerun with its radical {f.gamma}")
        if args.t >= 2:
            first, second = moments.thm_bounds(f, args.t, stepwise)
            chain = moments.chain_check(profile, args.t)
            results["first_bound"] = {"value": first.bound_value, "holds": first.holds}
            results["second_bound"] = {"value": second.bound_value, "holds": second.holds}
            results["chain"] = chain.to_jsonable()
            ok = ok and first.holds and second.holds and chain.holds
        bad = moments.envelope_violations(profile)
        results["envelope_checked"] = profile.tau
        results["envelope_violations"] = [r.to_jsonable() for r in bad]
        ok = ok and not bad
        if args.theta is not None:
            h = moments.H_chain_check(profile, args.theta, args.t)
            results["threshold_count_chain"] = h.to_jsonable()
            ok = ok and h.holds
    return results, ok, []


def cmd_energy(args) -> tuple[dict, bool, list]:
    if (args.sweep is None) == (args.n is None):
        raise ValueError("energy needs exactly one of --n and --sweep")
    if args.sweep is not None and args.sweep < 2:
        raise ValueError(f"--sweep must be >= 2 (it checks n = 2..sweep), got {args.sweep}")
    if args.sweep is None:
        f = factorize(args.n)
        rep = energy(f, args.s)
        results: dict = {"report": rep.to_jsonable()}
        ok = rep.holds
        if f.tau ** (2 * args.s) <= _ORACLE_BUDGET:
            results["oracle"] = brute_energy_oracle(args.n, args.s)
            ok = ok and results["oracle"] == rep.energy
        return results, ok, []
    reps = (energy(factorize(n), args.s) for n in range(2, args.sweep + 1))
    violations = [rep.to_jsonable() for rep in reps if not rep.holds]
    return {"checked": args.sweep - 1, "violations": violations}, not violations, []


#: the primes a scan sample draws its squarefree n from
_SCAN_POOL = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
              53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
#: a scan sample's largest omega(n), moment exponent t and energy exponent s
SCAN_OMEGA_MAX, SCAN_T_MAX, SCAN_S_MAX = 8, 6, 4
#: a scan sample runs the threshold-count chain only when n is at most this
SCAN_H_N_MAX = 10 ** 7


def _scan_one(rng: random.Random) -> dict:
    """One seeded cross-check bundle on a random squarefree n."""
    omega = rng.randint(1, SCAN_OMEGA_MAX)
    primes = sorted(rng.sample(_SCAN_POOL, omega))
    n = math.prod(primes)
    f = factorize(n)
    profile = divisor_profile(f)
    t = rng.randint(2, SCAN_T_MAX)
    record: dict = {"n": n, "t": t, "checks": {}, "failures": []}

    def check(name: str, ok: bool, reproducer: dict | None = None):
        record["checks"][name] = bool(ok)
        if not ok:
            record["failures"].append({"check": name, "n": n,
                                       **(reproducer or {})})

    sw = moments.moment_stepwise(profile, t)
    bp = moments.moment_by_parts(profile, t)
    check("moment-identity", sw == bp, {"t": t})
    l1 = moments.moment_stepwise(profile, 1)
    closed = -math.prod(1 - p for p in primes)
    check("first-moment-closed-form", l1 == closed)
    check("moment-bounds", all(r.holds for r in moments.thm_bounds(f, t, sw)), {"t": t})
    check("moment-chain", moments.chain_check(profile, t).holds, {"t": t})
    z = rng.choice(profile.divisors)
    check("envelope", moments.pe_envelope_check(profile, z).holds, {"z": z})
    a = rng.choice(profile.divisors)
    b = rng.choice(profile.divisors)
    a, b = min(a, b), max(a, b)
    check("interval-sum", moments.interval_sum_check(profile, a, b).holds,
          {"a": a, "b": b})
    if n <= SCAN_H_N_MAX:
        theta = rng.choice([Fraction(x, 10) for x in range(1, 11)])
        te = rng.choice([2, 4])
        check("threshold-count-chain",
              moments.H_chain_check(profile, theta, te).holds,
              {"theta": _jsonable(theta), "t": te})
    s = rng.randint(2, SCAN_S_MAX)
    rep = energy(f, s)
    oracle_ok = f.tau ** (2 * s) > _ORACLE_BUDGET or brute_energy_oracle(n, s) == rep.energy
    check("energy-sandwich", rep.holds and oracle_ok, {"s": s})
    rho = rng.randint(0, 3)
    check("primorial-domination", moments.domination_check(profile, rho).holds,
          {"rho": rho})
    return record


def cmd_scan(args) -> tuple[dict, bool, list]:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    rng = random.Random(args.seed)
    records = [_scan_one(rng) for _ in range(args.count)]
    failures = [fail for rec in records for fail in rec["failures"]]
    results = {
        "seed": args.seed,
        "count": args.count,
        "checks_run": sum(len(r["checks"]) for r in records),
        "failures": failures,
        "records": records,
    }
    shown = [f"scan: {results['checks_run']} checks over {args.count} samples"]
    if failures:
        shown += [f"MINIMAL REPRODUCER: {json.dumps(failures[0])}"]
    return results, not failures, shown


def cmd_rosser(args) -> tuple[dict, bool, list]:
    table = _table_for_count(args.k_max)
    res = rosser_check(table, args.k_max)
    return {"campaign": res.to_jsonable()}, res.passed, []


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--csv", action="store_true",
                        help="render tabular stderr sections as CSV")

    ap = argparse.ArgumentParser(
        prog="divlat",
        description="Exact divisor-lattice arithmetic and certified bound checks")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("tables", parents=[common],
                   help="recompute the alpha(theta) table and echo "
                        "campaign thresholds with certificates")

    v = sub.add_parser("verify-eta", parents=[common],
                       help="run eta-product inequality campaigns")
    v.add_argument("--t", required=True, help="single t or range lo:hi")
    v.add_argument("--k-max", type=int, default=None)
    v.add_argument("--variant", choices=["easy", "hard", "both"], default="both")
    v.add_argument("--checkpoint", default=None)

    sub.add_parser("constant-c", parents=[common],
                   help="search the best-possible eta constant")

    m = sub.add_parser("moments", parents=[common],
                       help="exact moments with optional bound checks")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--t", type=int, required=True)
    m.add_argument("--all-checks", action="store_true")
    # the decimal as typed, not its nearest double
    m.add_argument("--theta", type=Fraction, default=None)

    e = sub.add_parser("energy", parents=[common],
                       help="multiplicative energy and its sandwich")
    e.add_argument("--s", type=int, required=True)
    e.add_argument("--n", type=int, default=None)
    e.add_argument("--sweep", type=int, default=None)

    s = sub.add_parser("scan", parents=[common],
                       help="seeded randomized cross-check sweep")
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--count", type=int, default=100)

    r = sub.add_parser("rosser", parents=[common],
                       help="verify p_k > k log k up to k_max")
    r.add_argument("--k-max", type=int, required=True)
    return ap


_COMMANDS = {
    "tables": cmd_tables,
    "verify-eta": cmd_verify_eta,
    "constant-c": cmd_constant_c,
    "moments": cmd_moments,
    "energy": cmd_energy,
    "scan": cmd_scan,
    "rosser": cmd_rosser,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        results, ok, shown = _COMMANDS[args.command](args)
        return _emit(args, results, "pass" if ok else "fail", t0, shown)
    except (InconclusiveError, CapacityError, ValueError) as exc:
        kind = getattr(exc, "kind", "argument")
        status = "inconclusive" if kind == "inconclusive" else "fail"
        return _emit(args, {"error": str(exc), "error_kind": kind}, status, t0)


if __name__ == "__main__":
    sys.exit(main())
