"""Workload inputs, generated from the seed, and their reference checks.

Each CLI workload is a list of `Op`s; one pass runs every op once, each
in a fresh interpreter.  A check takes the op's parsed JSON report and
returns the problems it found (empty when the verdict is the pinned
one).  `threshold-sweep` is a library workload; `sweep_inputs` gives
its n values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

#: the first 25 primes, the pool `scan` also draws from
PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
              53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

#: the checkpoint path placeholder, replaced by a fresh file each pass
CKPT = "{checkpoint}"

CLI_WORKLOADS = ("eta-campaigns", "lattice-moments", "scan")
WORKLOADS = (*CLI_WORKLOADS, "threshold-sweep")

WHY = {
    "eta-campaigns": "core sieving of 3.75M primes and the eta campaigns with "
                     "their 128-bit escalation and checkpoint write/resume; "
                     "moments and energy idle",
    "lattice-moments": "moments at tau 4096-16384: profile, both L_t identities, "
                       "envelope at every divisor, chain check; no sieving",
    "scan": "many tiny inputs (tau <= 256) through moments, the mpmath chain "
            "and enclosure path, the energy sandwich and the largest reports",
    "threshold-sweep": "library sweep of squarefree n <= 5000 at ten theta: "
                       "mpmath threshold comparisons in certify and H_chain_check",
}


@dataclass
class Op:
    """One CLI command of a pass and the checks on its report."""

    name: str
    argv: list[str]
    check: Callable[[dict], list[str]]
    #: name of an earlier op in the same pass whose results must match
    same_results_as: str | None = None


def _problems(*pairs) -> list[str]:
    return [msg for ok, msg in pairs if not ok]


def check_constant_c(report: dict) -> list[str]:
    r = report.get("results", {})
    return _problems(
        (r.get("value_8dp") == "1.07073472", f"value_8dp {r.get('value_8dp')!r}"),
        (r.get("attained_at") == [2, 2149], f"attained_at {r.get('attained_at')!r}"),
        (r.get("unique_maximum") is True, "maximum not unique"))


def check_campaigns(expected: int) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        camps = report.get("results", {}).get("campaigns", [])
        failing = [(c.get("label"), c.get("t_range")) for c in camps if c.get("pass") is not True]
        return _problems((len(camps) == expected, f"{len(camps)} campaigns, expected {expected}"),
                         (not failing, f"campaigns not passing: {failing[:3]}"))
    return check


def check_rosser(report: dict) -> list[str]:
    camp = report.get("results", {}).get("campaign", {})
    return _problems((camp.get("pass") is True, "rosser campaign not passing"))


def check_moments(tau: int) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        r = report.get("results", {})
        return _problems(
            (r.get("identities_agree") is True, "L_t identities disagree"),
            (r.get("first_bound", {}).get("holds") is True, "first bound fails"),
            (r.get("second_bound", {}).get("holds") is True, "second bound fails"),
            (r.get("chain", {}).get("holds") is True, "moment chain fails"),
            (r.get("envelope_checked") == tau, f"envelope checked {r.get('envelope_checked')}"),
            (r.get("envelope_violations") == [], "envelope violations"))
    return check


def check_scan(count: int) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        r = report.get("results", {})
        return _problems((r.get("failures") == [], f"scan failures {r.get('failures')!r:.200}"),
                         (len(r.get("records", [])) == count, "record count"))
    return check


def check_energy_sweep(upto: int) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        r = report.get("results", {})
        return _problems((r.get("violations") == [], "energy violations"),
                         (r.get("checked") == upto - 1, f"checked {r.get('checked')}"))
    return check


def eta_campaigns(seed: int, tiny: bool) -> list[Op]:
    """The paper fixes these inputs; the seed only orders the commands."""
    t_range, both = ("3:5", 6) if tiny else ("2:99", 196)
    k_rosser = 20_000 if tiny else 3_750_230
    hard = ["verify-eta", "--t", "2", "--variant", "hard"]
    if tiny:
        hard += ["--k-max", "200000"]
    units = [
        [Op("verify-eta-both", ["verify-eta", "--t", t_range, "--variant", "both"],
            check_campaigns(both))],
        [Op("constant-c", ["constant-c"], check_constant_c)],
        [Op("rosser", ["rosser", "--k-max", str(k_rosser)], check_rosser)],
        # write, then resume from the same file and verify every stored state
        [Op("checkpoint-write", [*hard, "--checkpoint", CKPT], check_campaigns(1)),
         Op("checkpoint-resume", [*hard, "--checkpoint", CKPT], check_campaigns(1),
            same_results_as="checkpoint-write")],
    ]
    random.Random(seed).shuffle(units)
    return [op for unit in units for op in unit]


def lattice_moments(seed: int, tiny: bool) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for omega in ((4, 5, 6) if tiny else (12, 13, 14)):
        n = math.prod(sorted(rng.sample(PRIME_POOL, omega)))
        t = rng.randint(2, 6)
        ops.append(Op(f"moments-omega{omega}",
                      ["moments", "--n", str(n), "--t", str(t), "--all-checks"],
                      check_moments(2 ** omega)))
    return ops


def scan(seed: int, tiny: bool) -> list[Op]:
    scan_seed = random.Random(seed).randrange(2 ** 31)
    count, sweep = (20, 200) if tiny else (1000, 20_000)
    return [Op("scan", ["scan", "--seed", str(scan_seed), "--count", str(count)],
               check_scan(count)),
            Op("energy-sweep", ["energy", "--s", "3", "--sweep", str(sweep)],
               check_energy_sweep(sweep))]


CLI_BUILDERS = {"eta-campaigns": eta_campaigns, "lattice-moments": lattice_moments,
                "scan": scan}


def _omega_squarefree(n: int) -> int | None:
    """omega(n) for squarefree n, None otherwise (n small)."""
    omega, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return None
            omega += 1
        p += 1
    return omega + (n > 1)


def sweep_inputs(seed: int, tiny: bool) -> tuple[list[int], list[int]]:
    """(ns, brute): a seeded sample of squarefree 2 <= n <= 5000.

    The sample is stratified by omega(n), the same share from every
    class, so the mix of divisor counts (and hence the cost of a pass)
    does not drift from seed to seed.  `brute` is the seeded subset
    whose H_theta is also counted by enumeration of j = 1..n.
    """
    limit, share, n_brute = (300, 0.2, 3) if tiny else (5000, 0.3, 10)
    classes: dict[int, list[int]] = {}
    for n in range(2, limit + 1):
        omega = _omega_squarefree(n)
        if omega is not None:
            classes.setdefault(omega, []).append(n)
    rng = random.Random(seed)
    ns = []
    for omega in sorted(classes):
        members = classes[omega]
        ns += rng.sample(members, max(1, round(share * len(members))))
    rng.shuffle(ns)
    return ns, sorted(rng.sample(ns, n_brute))
