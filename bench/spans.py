"""Span recorder for the traced benchmark run.

`install(recorder)` wraps divlat's public entry points from outside:
every module attribute that is one of the target functions is replaced
by a wrapper, so a caller that imported the function by name (``cli``
imports ``divisor_profile``, ``moments`` imports ``scaled_le``) resolves
the wrapper as well.  Wrappers pass arguments and results through
untouched; they only record a span ``(name, start, end, id, parent,
op, attrs)``.  Spans stay in memory until the process writes them out.

`layer_metrics(spans, counters)` sums a batch of spans into additive
per-layer totals, and `finish` turns the totals of one pass into the
per-layer metrics named in BENCHMARK.json.  Times are inclusive per
function; ``<layer>.self_s`` is the time inside a layer's spans that no
child span covers.  Spans recorded on worker threads (``verify-eta``
runs per-t campaigns on a thread pool) are parented to the op's root
span, and self time subtracts the union of child intervals, so
overlapping children are not subtracted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter

#: precision levels of certify.escalate (128 doubling to 4096 bits)
PREC_LEVELS = (128, 256, 512, 1024, 2048, 4096)

#: layers whose self time is reported; spans of other names (the
#: harness's own op span) are not attributed to a divlat layer
LAYERS = ("cli", "core", "campaigns", "moments", "certify", "energy")


class Recorder:
    """Thread-safe in-memory span store."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 1
        self._op = None          # (op id, root span id) of the running op
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def call(self, name: str, fn, args, kwargs, attrs=None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            op = self._op
        if stack:
            parent = stack[-1]
        else:
            parent = op[1] if op else None
        stack.append(sid)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = attrs(result) if attrs is not None and result is not None else None
            with self._lock:
                self.spans.append((name, start, end, sid, parent,
                                   op[0] if op else None, extra))

    def run_op(self, op_id, name: str, fn, *args):
        """Run one benchmark op under a root span; its spans share op_id."""
        with self._lock:
            root = self._next_id
            self._next_id += 1
            self._op = (op_id, root)
        stack = self._stack()
        start = time.perf_counter()
        stack.append(root)
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((name, start, end, root, None, op_id, None))
                self._op = None

    def drain(self) -> tuple[list[tuple], Counter]:
        """Hand back the spans and counters recorded so far and reset them."""
        with self._lock:
            spans, counters = self.spans, self.counters
            self.spans, self.counters = [], Counter()
        return spans, counters


def _len0(result) -> int:
    return len(result[0])


def _escalated(result) -> dict:
    from mpmath import iv
    return {"prec": int(iv.prec), "n": len(result)}


#: (module, qualified name, span name, attrs from the result)
TARGETS = (
    ("core", "sieve_primes", "core.sieve_primes", lambda r: r.count),
    ("core", "factorize", "core.factorize", None),
    ("core", "divisors_sorted", "core.divisors_sorted", None),
    ("core", "rosser_check", "core.rosser_check", None),
    ("campaigns", "verify_c_easy", "campaigns.verify_c_easy", None),
    ("campaigns", "verify_c_hard", "campaigns.verify_c_hard", None),
    ("campaigns", "EtaAccumulator.extend", "campaigns.extend", _len0),
    ("campaigns", "eta_log_enclosures", "campaigns.eta_log_enclosures", _escalated),
    ("campaigns", "constant_C_search", "campaigns.constant_C_search", None),
    ("campaigns", "CheckpointFile.append", "campaigns.checkpoint_append", None),
    ("campaigns", "CheckpointFile.load", "campaigns.checkpoint_load", None),
    ("moments", "divisor_profile", "moments.divisor_profile", lambda r: r.tau),
    ("moments", "moment_stepwise", "moments.moment_stepwise", None),
    ("moments", "moment_by_parts", "moments.moment_by_parts", None),
    ("moments", "pe_envelope_check", "moments.pe_envelope_check", None),
    ("moments", "chain_check", "moments.chain_check", None),
    ("moments", "eta_log_interval", "moments.eta_log_interval", None),
    ("moments", "H_theta_exact", "moments.H_theta_exact", None),
    ("moments", "H_chain_check", "moments.H_chain_check", None),
    ("moments", "thm_bounds", "moments.thm_bounds", None),
    ("certify", "int_vs_pow2", "certify.int_vs_pow2", None),
    ("certify", "scaled_le", "certify.scaled_le", None),
    ("certify", "fraction_le_enclosure", "certify.fraction_le_enclosure", None),
    ("certify", "escalate", "certify.escalate", None),
    ("energy", "energy", "energy.energy", None),
    ("energy", "brute_energy_oracle", "energy.brute_energy_oracle", None),
    ("cli", "_emit", "cli.emit", None),
)


def _make_wrapper(rec: Recorder, span: str, fn, attrs):
    if span == "certify.escalate":
        # count decide() invocations per precision level; the verdict
        # returned by decide passes through unchanged
        @functools.wraps(fn)
        def escalate(decide, *args, **kwargs):
            def counted(prec):
                rec.count(f"certify.decide_calls.p{prec}")
                return decide(prec)
            return rec.call(span, fn, (counted, *args), kwargs)
        return escalate

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(span, fn, args, kwargs, attrs)
    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every target on every divlat module attribute that holds it."""
    import divlat.cli  # noqa: F401  (loads every submodule)
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "divlat" or name.startswith("divlat."))]
    for mod_name, qual, span, attrs in TARGETS:
        owner = sys.modules[f"divlat.{mod_name}"]
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, _make_wrapper(rec, span, getattr(cls, meth), attrs))
            continue
        original = getattr(owner, qual)
        wrapper = _make_wrapper(rec, span, original, attrs)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

#: inclusive time metrics: metric name -> span names summed into it
TIME_METRICS = {
    "core.sieve_s": ("core.sieve_primes",),
    "core.factorize_s": ("core.factorize",),
    "core.divisors_sorted_s": ("core.divisors_sorted",),
    "core.rosser_check_s": ("core.rosser_check",),
    "campaigns.campaign_s": ("campaigns.verify_c_easy", "campaigns.verify_c_hard"),
    "campaigns.extend_s": ("campaigns.extend",),
    "campaigns.escalation_s": ("campaigns.eta_log_enclosures",),
    "campaigns.constant_search_s": ("campaigns.constant_C_search",),
    "campaigns.checkpoint_write_s": ("campaigns.checkpoint_append",),
    "campaigns.checkpoint_load_s": ("campaigns.checkpoint_load",),
    "moments.divisor_profile_s": ("moments.divisor_profile",),
    "moments.moment_stepwise_s": ("moments.moment_stepwise",),
    "moments.moment_by_parts_s": ("moments.moment_by_parts",),
    "moments.envelope_s": ("moments.pe_envelope_check",),
    "moments.chain_check_s": ("moments.chain_check",),
    "moments.eta_log_interval_s": ("moments.eta_log_interval",),
    "moments.H_theta_s": ("moments.H_theta_exact",),
    "moments.H_chain_check_s": ("moments.H_chain_check",),
    "moments.thm_bounds_s": ("moments.thm_bounds",),
    "certify.int_vs_pow2_s": ("certify.int_vs_pow2",),
    "certify.scaled_le_s": ("certify.scaled_le",),
    "certify.fraction_le_enclosure_s": ("certify.fraction_le_enclosure",),
    "energy.energy_s": ("energy.energy",),
    "energy.brute_oracle_s": ("energy.brute_energy_oracle",),
    "cli.cmd_s": ("cli.main",),
    "cli.emit_s": ("cli.emit",),
}

#: call-count metrics: metric name -> span name
CALL_METRICS = {
    "core.sieve_calls": "core.sieve_primes",
    "campaigns.checkpoint_lines_written": "campaigns.checkpoint_append",
    "moments.envelope_calls": "moments.pe_envelope_check",
    "certify.int_vs_pow2_calls": "certify.int_vs_pow2",
    "certify.scaled_le_calls": "certify.scaled_le",
    "certify.escalate_calls": "certify.escalate",
    "energy.energy_calls": "energy.energy",
}

#: metrics summed from a span attribute: metric name -> span name
SUM_METRICS = {
    "core.primes_sieved": "core.sieve_primes",
    "campaigns.extend_terms": "campaigns.extend",
    "moments.divisors_built": "moments.divisor_profile",
}

COMPARISONS = ("certify.int_vs_pow2", "certify.scaled_le", "certify.fraction_le_enclosure")


def metric_units() -> dict[str, str]:
    """Every per-layer metric this module produces, with its unit."""
    units = {name: "s" for name in TIME_METRICS}
    units.update({name: "count" for name in (*CALL_METRICS, *SUM_METRICS)})
    for p in PREC_LEVELS:
        units[f"campaigns.escalated_k.p{p}"] = "count"
        units[f"certify.decide_calls.p{p}"] = "count"
    units["certify.comparisons"] = "count"
    units["certify.fast_path_ratio"] = "ratio"
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    return units


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


#: additive helper count behind certify.fast_path_ratio
FAST = "certify.fast_decided"


def layer_metrics(spans: list[tuple], counters: Counter) -> dict[str, float]:
    """Additive per-layer sums of one batch of spans.

    Sums from several batches may be added key by key; `finish` then
    turns the total into the reported metrics.
    """
    out = dict.fromkeys(metric_units(), 0.0)
    out[FAST] = 0
    by_name: dict[str, list[tuple]] = {}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[1], s[2]))
    for metric, names in TIME_METRICS.items():
        out[metric] = sum(s[2] - s[1] for n in names for s in by_name.get(n, ()))
    for metric, name in CALL_METRICS.items():
        out[metric] = len(by_name.get(name, ()))
    for metric, name in SUM_METRICS.items():
        out[metric] = sum(s[6] or 0 for s in by_name.get(name, ()))
    for s in by_name.get("campaigns.eta_log_enclosures", ()):
        if s[6] is not None:
            out[f"campaigns.escalated_k.p{s[6]['prec']}"] = (
                out.get(f"campaigns.escalated_k.p{s[6]['prec']}", 0) + s[6]["n"])
    for key, n in counters.items():
        out[key] = out.get(key, 0) + n
    escalated_parents = {s[4] for s in by_name.get("certify.escalate", ())}
    comparisons = [s for n in COMPARISONS for s in by_name.get(n, ())]
    out["certify.comparisons"] = len(comparisons)
    out[FAST] = sum(1 for s in comparisons if s[3] not in escalated_parents)
    for s in spans:
        layer = s[0].split(".", 1)[0]
        if layer in LAYERS:
            self_time = (s[2] - s[1]) - _covered(children.get(s[3], []), s[1], s[2])
            out[f"{layer}.self_s"] += self_time
    return out


def finish(sums: dict[str, float]) -> dict[str, float]:
    """Reported metrics from summed layer_metrics() output."""
    out = dict(sums)
    fast = out.pop(FAST)
    comparisons = out["certify.comparisons"]
    # comparisons decided without escalation over all comparisons made;
    # 0 when the workload made no certify comparison (base reported)
    out["certify.fast_path_ratio"] = fast / comparisons if comparisons else 0.0
    return out


def write_spans(path: str, spans: list[tuple]) -> None:
    """Append spans as JSON lines (one span per line)."""
    keys = ("name", "start", "end", "id", "parent", "op", "attrs")
    with open(path, "a", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(dict(zip(keys, s))) + "\n")
