"""Certified verification campaigns for the eta-product inequalities.

The object under test is the running logarithm

    log_sum(t, k) = sum_{j<=k} log(1 + p_j^(-1/t)),

which must stay below two families of right-hand sides: an "easy" bound
exp(k^(1-1/t) - ...) and a "hard" bound driven by the best-possible
constant C = 1.07073472...  The hard campaign at t = 2 runs to
k = 3,750,230; beyond the per-t thresholds an induction certificate
(`induction_margin`) takes over, so the finite sweep plus the
certificate covers all k.

Verification strategy (never a false pass):

1. bulk pass in float64 with explicit error envelopes: per-term
   evaluation gets a 2^-47 relative budget, block-local cumulative sums
   an i*u*sum budget, and the carried sum is Neumaier-compensated with
   an analytic 4u*|sum| allowance; ends move outward by one integer step
   of their bit patterns (positive normal floats only, else a raise).
   The campaigns and the constant search share this one pass, `_float_pass`;
2. every k whose margin enclosure straddles zero is re-evaluated by
   `certify.escalate`: at 128 bits, then doubling up to the 4096-bit
   ceiling.  At each level the eta product is enclosed by the integer
   fixed-point kernel `kernel.eta_fixed_point` (no interval call per
   prime), and its log and the right-hand sides by mpmath interval
   arithmetic;
3. k still undecided at the ceiling make `certify.escalate` raise
   InconclusiveError, naming t, their count and the first of them.

The accumulator enclosure is checkpointed every 10^5 values of k as a
line `t k log_sum_lo log_sum_hi` in plain decimal.  Runs are
deterministic: summation blocks are aligned to absolute k, so feeding
the primes in slices cut at block multiples reproduces bit-identical
enclosures, and a restarted run replays from k = 1 and verifies its
stream against every stored state.  The primes come from `table.blocks`
and, to escalate, `table.prefix`, of a `core.PrimeTable` or of the CLI's
table-free `core.PrimeStream`; one that runs dry raises CapacityError.

This module is divlat's float engine and imports numpy, as only the
sieve in `core` does besides; the exact kernel, C and the interval
hard factor live in `kernel`, and C is read from there at call time,
so it has one home.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from mpmath import iv
from mpmath.libmp import to_str as _mpf_to_str

from . import kernel
from .certify import dyadic_upper, escalate, exact_upper, interval_ends
from .core import PrimeStream, PrimeTable, sieve_for_count
from .kernel import _hard_factor_iv, log_eta_sums
from .reports import BoundReport, CampaignResult

#: per-t campaign thresholds for the hard inequality; t in 8..99 uses 8
HARD_THRESHOLDS = {2: 3_750_230, 3: 1936, 4: 155, 5: 44, 6: 20, 7: 12}
#: the exponents the best-constant search sweeps: the paper's t = 2..99
SEARCH_T_RANGE = range(2, 100)

CHECKPOINT_STRIDE = 100_000
#: terms per float-pass step: a BLOCK multiple dividing CHECKPOINT_STRIDE, so bit-identical
_CHUNK = 20_000
_PER_TERM_REL = 2.0 ** -47   # covers power + log1p evaluation error
_REL_RHS = 2.0 ** -40        # envelope for the composed right-hand sides
_U = 2.0 ** -53
_EXP_BITS = 0x7FF0_0000_0000_0000
_NORMAL = np.finfo(np.float64)


def _bits(x: np.ndarray) -> np.ndarray:
    """x's int64 bit patterns; raises unless x is positive, normal and finite."""
    if x.size and not (x.min() >= _NORMAL.tiny and x.max() <= _NORMAL.max):  # NaN fails both
        raise ValueError("bit-level rounding needs positive normal finite floats")
    return x.view(np.int64)


def _next_up(x: np.ndarray) -> np.ndarray:
    """np.nextafter(x, inf), by one step of the bit pattern."""
    return (_bits(x) + 1).view(np.float64)


def _next_down(x: np.ndarray) -> np.ndarray:
    """np.nextafter(x, -inf), by one step of the bit pattern."""
    return (_bits(x) - 1).view(np.float64)


def _ulp(x: np.ndarray) -> np.ndarray:
    """np.spacing(x): the exponent bits of x times 2^-52."""
    return (_bits(x) & _EXP_BITS).view(np.float64) * 2.0 ** -52


def hard_threshold(t: int) -> int:
    """Campaign length for the hard inequality at exponent t (>= 2)."""
    if t < 2:
        raise ValueError(f"eta exponent must be >= 2, got {t}")
    return HARD_THRESHOLDS.get(t, 8)


def eta_constant_interval():
    """Enclosure of C inside the active iv precision context."""
    return iv.mpf([kernel.ETA_CONSTANT_LO, kernel.ETA_CONSTANT_HI])


def eta_constant_upper() -> float:
    """Certified float upper bound of C."""
    return exact_upper(Fraction(kernel.ETA_CONSTANT_HI))


@dataclass
class EtaAccumulator:
    """Streaming enclosure of log_sum(t, k).

    Internally a Neumaier-compensated running sum of block sums plus an
    analytic error budget: per-term evaluation gets _PER_TERM_REL
    relative, the block-local cumulative sum i*u*cs, the compensated
    carry 4u*|sum|.  `extend` consumes the next primes in ascending
    order and returns per-k certified lower/upper arrays, rounded outward
    by integer steps of their bit patterns (positive normal floats only).

    Summation blocks are aligned to absolute k, so any two runs whose
    feed boundaries fall on BLOCK multiples (the float pass's chunks do)
    produce bit-identical enclosures; other slicings regroup the
    block-local sums and stay conservative but not bitwise equal.
    """

    t: int
    k: int = 0
    sum_mid: float = 0.0
    sum_comp: float = 0.0
    eval_err: float = 0.0

    #: slicing the stream at multiples of this reproduces bit-identical
    #: enclosures (arbitrary slicing stays *correct*, merely regrouped)
    BLOCK = 2_000

    @property
    def value(self) -> float:
        return self.sum_mid + self.sum_comp

    @property
    def width_bound(self) -> float:
        """Certified |value - true log_sum| bound."""
        return self.eval_err + 4.0 * _U * abs(self.value) + 2.0 * math.ulp(self.value)

    @property
    def lo(self) -> float:
        return math.nextafter(self.value - self.width_bound, -math.inf)

    @property
    def hi(self) -> float:
        return math.nextafter(self.value + self.width_bound, math.inf)

    def extend(self, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        primes = np.asarray(primes, dtype=np.float64)
        n = primes.size
        lo_out = np.empty(n)
        hi_out = np.empty(n)
        pos = 0
        while pos < n:
            step = min(self.BLOCK - (self.k % self.BLOCK), n - pos)
            term = np.log1p(primes[pos:pos + step] ** (-1.0 / self.t))
            cs = np.cumsum(term)
            base = self.value
            w = self.width_bound + _TERM_REL[:step] * cs + 4.0 * _ulp(base + cs)
            np.add(base, cs - w, out=lo_out[pos:pos + step])
            np.add(base, cs + w, out=hi_out[pos:pos + step])
            block_sum = float(cs[-1])
            self.eval_err += (_PER_TERM_REL + _U * step) * block_sum
            # Neumaier-compensated accumulation of the block sums
            total = self.sum_mid + block_sum
            if abs(self.sum_mid) >= abs(block_sum):
                self.sum_comp += (self.sum_mid - total) + block_sum
            else:
                self.sum_comp += (block_sum - total) + self.sum_mid
            self.sum_mid = total
            self.k += step
            pos += step
        return _next_down(lo_out), _next_up(hi_out)


#: per-term relative budget at block-local index i = 1..BLOCK
_TERM_REL = _PER_TERM_REL + _U * np.arange(1, EtaAccumulator.BLOCK + 1, dtype=np.float64)


class CheckpointFile:
    """Line-oriented campaign checkpoints: `t k log_sum_lo log_sum_hi`.

    Floats are serialized with repr (shortest round-tripping decimal).
    A restarted campaign replays its deterministic stream and verifies
    it against every stored state; a mismatch means the table or the
    file is corrupt and raises instead of silently diverging.
    """

    def __init__(self, path):
        self.path = Path(path)

    def load(self) -> dict[int, dict[int, tuple[float, float]]]:
        """Stored states by t, then k.

        A final line without its newline or without four fields is what a
        crash mid-append leaves behind: it is cut from the file, so the
        resumed run recomputes that stride and appends it whole.  A
        malformed line anywhere else raises with its line number.
        """
        states: dict[int, dict[int, tuple[float, float]]] = {}
        if not self.path.exists():
            return states
        data = self.path.read_bytes()
        lines = data.splitlines(keepends=True)
        if lines and (not lines[-1].endswith(b"\n") or len(lines[-1].split()) != 4):
            os.truncate(self.path, len(data) - len(lines.pop()))
        for number, raw in enumerate(lines, start=1):
            fields = raw.split()
            if not fields:
                continue
            try:
                t_s, k_s, lo_s, hi_s = fields
                state = (float(lo_s), float(hi_s))
                states.setdefault(int(t_s), {})[int(k_s)] = state
            except ValueError:
                text = raw.decode(errors="replace").strip()
                raise ValueError(f"malformed checkpoint line {number} in "
                                 f"{self.path}: {text!r}") from None
        return states

    def append(self, t: int, k: int, lo: float, hi: float) -> None:
        with self.path.open("a") as fh:
            fh.write(f"{t} {k} {lo!r} {hi!r}\n")


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _has_tail(mode: str, t: int, k) -> bool | np.ndarray:
    """Whether the right-hand side at k subtracts log(t)/t.

    Always, except the easy bound at t = 2, k <= 55 and the hard bound at
    t = 2.  k is an int or a float array, read in easy mode only.
    """
    if t != 2:
        return True
    return k > 55 if mode == "easy" else False


def _hard_factor_mid(t: int, karr: np.ndarray) -> np.ndarray:
    """k^(1-1/t) / ((1-1/t) logplus(k)^(1/t)); multiply by C for the rhs."""
    ex = 1.0 - 1.0 / t
    logplus = np.log(np.maximum(karr, 2.0))
    return karr ** ex / (ex * logplus ** (1.0 / t))


def _rhs_iv(mode: str, t: int, k: int, c):
    """Enclosure of the easy (k^(1-1/t)) or hard (c * factor) rhs, less its tail."""
    if mode == "easy":
        rhs = iv.exp(iv.log(iv.mpf(k)) * (1 - iv.mpf(1) / t))
    else:
        rhs = c * _hard_factor_iv(t, k)
    if _has_tail(mode, t, k):
        rhs -= iv.log(iv.mpf(t)) / t
    return rhs


def _c_required_mid(t: int, fac, lo, hi) -> tuple[np.ndarray | None, np.ndarray]:
    """Float bounds (clo, chi) on C_required = (log_sum + tail) / factor.

    fac is _hard_factor_mid and lo/hi the accumulator's enclosure over a
    chunk.  chi is the hard campaign's sup_ratio; clo is None when lo is.
    """
    tail = math.log(t) / t if _has_tail("hard", t, None) else 0.0
    return (None if lo is None else (lo + tail) * (1.0 - _REL_RHS) / fac,
            (hi + tail) / (fac * (1.0 - _REL_RHS)))


def eta_log_enclosures(t: int, ks: list[int],
                       table: PrimeTable | PrimeStream) -> dict[int, "iv.mpf"]:
    """Interval enclosures of log_sum(t, k) at the requested ks, at the active precision."""
    return log_eta_sums(table.prefix(max(ks)), t, ks)


# ---------------------------------------------------------------------------
# campaign engine
# ---------------------------------------------------------------------------

def _margin_rule(strict: bool, ks: np.ndarray, m_lo: np.ndarray, m_hi: np.ndarray,
                 violations: list[int], worst: list) -> list[int]:
    """A campaign's one margin rule, on per-k margin enclosures [m_lo, m_hi].

    k fails when m_hi <= 0 (m_hi < 0 if not strict) and is appended to
    `violations`; otherwise it is decided when m_lo > 0 and pending if
    not.  The lowest m_lo of the k not pending replaces worst = [margin,
    k] when below it (first k on ties).  Returns the pending k.
    """
    fail = m_hi <= 0.0 if strict else m_hi < 0.0
    pending = ~fail & (m_lo <= 0.0)
    decided = np.where(pending, np.inf, m_lo)
    i = int(np.argmin(decided))
    if decided[i] < worst[0]:
        worst[:] = float(decided[i]), int(ks[i])
    violations.extend(int(k) for k in ks[fail])
    return [int(k) for k in ks[pending]]


def _chunks(blocks, size: int):
    """The blocks' primes re-cut into runs of `size`, the last one shorter."""
    rest = ()
    for block in blocks:
        block = np.concatenate((rest, block)) if len(rest) else block
        cut = block.size - block.size % size
        yield from (block[i:i + size] for i in range(0, cut, size))
        rest = block[cut:]
    if len(rest):
        yield rest


def _float_pass(t: int, k_max: int, table: PrimeTable | PrimeStream):
    """The float64 pass over k = 1..k_max, _CHUNK terms of `table.blocks` at a time.

    Yields (acc, karr, lo, hi): the accumulator after the chunk, the
    chunk's k as floats and the certified per-k ends of log_sum(t, k).
    """
    acc = EtaAccumulator(t=t)
    for chunk in _chunks(table.blocks(k_max), _CHUNK):
        lo, hi = acc.extend(chunk)
        yield acc, np.arange(acc.k - chunk.size + 1, acc.k + 1, dtype=np.float64), lo, hi


def _run_campaign(mode: str, t: int, k_max: int, table: PrimeTable | PrimeStream,
                  checkpoint: str | Path | None = None) -> CampaignResult:
    """Shared k = 1..k_max sweep for the easy (strict <) and hard (<=) inequalities.

    Returns margins measured at the conservative outer interval ends.
    """
    if t < 2:
        raise ValueError(f"eta exponent must be >= 2, got {t}")
    if k_max < 1:
        raise ValueError(f"empty campaign range (0, {k_max}]")
    c_str = kernel.ETA_CONSTANT_HI  # the hard right-hand side's C, read once per call
    c_float = float(c_str)
    t0 = time.perf_counter()
    cp = CheckpointFile(checkpoint) if checkpoint else None
    stored = cp.load().get(t, {}) if cp else {}

    strict = mode == "easy"
    tail = math.log(t) / t
    worst = [math.inf, None]  # (margin, k)
    sup_ratio, sup_k = -math.inf, None
    pending: list[int] = []  # ascending k, each once
    violations: list[int] = []

    for acc, karr, lo_arr, hi_arr in _float_pass(t, k_max, table):
        if mode == "easy":
            rhs = karr ** (1.0 - 1.0 / t)
        else:
            fac = _hard_factor_mid(t, karr)
            rhs = c_float * fac
        if (has_tail := _has_tail(mode, t, karr)) is not False:
            rhs = rhs - np.where(has_tail, tail, 0.0)
        abs_rhs = np.abs(rhs)
        w = _REL_RHS * abs_rhs + 4.0 * _ulp(abs_rhs)
        pending += _margin_rule(strict, karr, (rhs - w) - hi_arr, (rhs + w) - lo_arr,
                                violations, worst)

        if mode == "easy":
            ratio = hi_arr / np.maximum(rhs - w, 1e-300)
        else:
            ratio = _c_required_mid(t, fac, None, hi_arr)[1]
        j = int(np.argmax(ratio))
        if ratio[j] > sup_ratio:
            sup_ratio, sup_k = float(ratio[j]), int(karr[j])

        if cp is not None and acc.k % CHECKPOINT_STRIDE == 0:
            known = stored.get(acc.k)
            state = (acc.lo, acc.hi)
            if known is None:
                cp.append(t, acc.k, acc.lo, acc.hi)
            elif known != state:
                raise ValueError(f"checkpoint mismatch at t={t}, k={acc.k}: stored {known}, "
                                 f"recomputed {state}")

    # escalation pass: each precision level re-decides the k still pending
    left: list[int] = []  # how many k each level leaves pending

    def decide(level: int) -> bool | None:
        nonlocal pending
        enclosures = eta_log_enclosures(t, pending, table)
        c_iv = iv.mpf(c_str) if mode == "hard" else None
        ms = [_rhs_iv(mode, t, k, c_iv) - enclosures[k] for k in pending]
        pending = _margin_rule(strict, np.array(pending), np.array([float(m.a) for m in ms]),
                               np.array([float(m.b) for m in ms]), violations, worst)
        left.append(len(pending))
        return None if pending else True

    if pending:
        escalate(decide,
                 what=lambda: f"{len(pending)} comparisons at t={t} (first k={pending[0]})")

    return CampaignResult(
        label=f"eta-{mode}",
        t_range=(t, t),
        k_range=(1, k_max),
        passed=not violations and worst[0] > 0.0,
        worst_margin=math.nextafter(worst[0], -math.inf),  # a float at or below the margin
        argmin=(t, worst[1]),
        sup_ratio=sup_ratio,
        arg_sup=(t, sup_k),
        wall_time=time.perf_counter() - t0,
        inconclusive=left[0] if left else 0,
    )


def verify_c_easy(t: int, k_max: int, table: PrimeTable | PrimeStream,
                  checkpoint: str | Path | None = None) -> CampaignResult:
    """Strict inequality log_sum(t,k) < k^(1-1/t) [- log(t)/t] for k = 1..k_max.

    The subtracted log(t)/t term is dropped only for t = 2, k <= 55.
    `checkpoint` names a file of accumulator states (see CheckpointFile):
    a rerun replays from k = 1 and verifies against every stored state.
    """
    return _run_campaign("easy", t, k_max, table, checkpoint=checkpoint)


def verify_c_hard(t: int, k_max: int, table: PrimeTable | PrimeStream,
                  checkpoint: str | Path | None = None) -> CampaignResult:
    """log_sum(t,k) <= C k^(1-1/t)/((1-1/t) logplus(k)^(1/t)) - [t>2] log(t)/t.

    C is kernel.ETA_CONSTANT_HI, the certified upper end of the best-possible
    constant, read exactly as a decimal string at call time.  At the
    attained point (2, 2149) the margin is the gap between C and the
    true supremum, so a C below the certified upper end cannot verify.
    Checks k = 1..k_max; `checkpoint` works as for verify_c_easy.
    """
    return _run_campaign("hard", t, k_max, table, checkpoint=checkpoint)


# ---------------------------------------------------------------------------
# the best-possible constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantC:
    """Certified supremum of C_required(t,k) over the campaign box.

    lower/upper are outward-rounded floats; lower_decimal/upper_decimal
    render the underlying interval endpoints to 30 digits (the interval
    itself is far narrower than that at 128 bits).
    """

    value: float
    attained_at: tuple[int, int]
    lower: float
    upper: float
    lower_decimal: str
    upper_decimal: str
    runner_up: float
    runner_up_at: tuple[int, int]


#: float-pass window: candidates within this much of the running best
#: survive to the interval phase (also bounds the runner-up search)
_CAND_WINDOW = 1e-6


def constant_C_search(table: PrimeTable | PrimeStream) -> ConstantC:
    """Supremum and argmax of

        C_required(t,k) = (log_sum + [t>2] log(t)/t) (1-1/t) logplus(k)^(1/t) / k^(1-1/t)

    over the paper's box: t = 2..99 with k up to the per-t campaign
    threshold.  The float64 pass prunes to a candidate window, then
    interval arithmetic separates the winner from the runner-up.
    """
    best_lo = -math.inf
    candidates: list[tuple[float, int, int]] = []  # (chi, t, k)
    for t in SEARCH_T_RANGE:
        for _, karr, lo_arr, hi_arr in _float_pass(t, hard_threshold(t), table):
            clo, chi = _c_required_mid(t, _hard_factor_mid(t, karr), lo_arr, hi_arr)
            best_lo = max(best_lo, float(np.max(clo)))
            candidates += [(float(chi[i]), t, int(karr[i]))
                           for i in np.flatnonzero(chi >= best_lo - _CAND_WINDOW)]
            candidates = [c for c in candidates if c[0] >= best_lo - _CAND_WINDOW]
    finalists = [(t, k) for _, t, k in candidates]

    def decide(level: int) -> ConstantC | None:
        intervals: dict[tuple[int, int], "iv.mpf"] = {}
        for t in sorted({t for t, _ in finalists}):
            ks = sorted(k for tt, k in finalists if tt == t)
            encl = eta_log_enclosures(t, ks, table)
            tail = iv.log(iv.mpf(t)) / t if _has_tail("hard", t, None) else 0
            for k in ks:
                intervals[(t, k)] = (encl[k] + tail) / _hard_factor_iv(t, k)
        winner = max(intervals, key=lambda tk: float(intervals[tk].a))
        win = intervals[winner]
        others = {tk: v for tk, v in intervals.items() if tk != winner}
        runner = max(others, key=lambda tk: float(others[tk].b)) if others else None
        if runner is not None and float(others[runner].b) >= float(win.a):
            return None
        return ConstantC(
            value=float(win.mid),
            attained_at=winner,
            lower=math.nextafter(float(win.a), -math.inf),
            upper=math.nextafter(float(win.b), math.inf),
            lower_decimal=_mpf_to_str(win._mpi_[0], 30),
            upper_decimal=_mpf_to_str(win._mpi_[1], 30),
            runner_up=math.nextafter(float(others[runner].b), math.inf)
            if runner else -math.inf,
            runner_up_at=runner if runner else (-1, -1),
        )

    return escalate(decide, what="separation of the supremum candidates")


# ---------------------------------------------------------------------------
# side conditions
# ---------------------------------------------------------------------------

def _side_report(lhs, rhs, holds: bool, context: dict) -> BoundReport:
    """A decided lhs-vs-rhs enclosure pair: both sides read as the least
    float at or above their exact upper ends, the slack at the lower end
    of rhs - lhs."""
    lhs_up = dyadic_upper(*interval_ends(lhs)[1:])
    return BoundReport.dyadic(lhs_up, *interval_ends(rhs)[1:], holds, context,
                              slack=float((rhs - lhs).a))


def ln2_bound_check(t: int, k: int) -> BoundReport:
    """Side chain used for t >= 100, k <= 56:

    log(t)/t + log_sum(t,k) <= log(100)/100 + k log 2 < 0.74 k <= k^(1-1/t).
    """
    if t < 100:
        raise ValueError(f"side chain applies to t >= 100, got {t}")
    if not 1 <= k <= 56:
        raise ValueError(f"side chain applies to 1 <= k <= 56, got {k}")
    primes = sieve_for_count(k).primes[:k]

    def decide(level: int) -> BoundReport | None:
        lhs = iv.log(iv.mpf(t)) / t + log_eta_sums(primes, t, [k])[k]
        mid = iv.log(iv.mpf(100)) / 100 + k * iv.log(iv.mpf(2))
        cap = iv.mpf("0.74") * k
        kpow = iv.exp(iv.log(iv.mpf(k)) * (1 - iv.mpf(1) / t))
        chain = [lhs <= mid, mid < cap, cap <= kpow]
        if None in chain:
            return None
        return _side_report(lhs, cap, all(chain), {
            "t": t, "k": k, "chain": chain, "middle": float(mid.b), "k_pow": float(kpow.a),
            "check": "log2-side-chain"})

    return escalate(decide, what=f"log2 side chain at t={t}, k={k}")


def induction_margin(t: int, k: int, variant: str = "hard") -> BoundReport:
    """Certify the induction step's sufficient condition at (t, k).

    easy: 1/log(k) < (1 - 1/t)^t, valid from k = 57 on;
    hard: log(k) > C/((t-1)(C-1)), valid just past the per-t threshold.
    A negative margin signals the threshold table is wrong.
    """
    if variant not in ("easy", "hard"):
        raise ValueError(f"variant must be 'easy' or 'hard', got {variant!r}")
    if t < 2:
        raise ValueError(f"eta exponent must be >= 2, got {t}")
    if variant == "easy" and k < 57:
        raise ValueError(f"easy induction certificate starts at k = 57, got {k}")
    if variant == "hard" and k <= hard_threshold(t):
        raise ValueError(
            f"hard induction certificate applies beyond the threshold "
            f"{hard_threshold(t)}, got k = {k}")

    def decide(level: int) -> BoundReport | None:
        if variant == "easy":
            lhs = 1 / iv.log(iv.mpf(k))
            rhs = iv.exp(iv.log(1 - iv.mpf(1) / t) * t)
        else:
            c = eta_constant_interval()
            lhs = c / ((t - 1) * (c - 1))
            rhs = iv.log(iv.mpf(k))
        holds = lhs < rhs
        if holds is None:
            return None
        return _side_report(lhs, rhs, holds, {"t": t, "k": k, "variant": variant,
                                              "check": "induction-step-condition"})

    return escalate(decide, what=f"{variant} induction step at t={t}, k={k}")


def concavity_threshold(t: int) -> float:
    """exp((2/t - 1 + sqrt(5 - 4/t)) / (2 (1 - 1/t))).

    Above this point the map x^(1-1/t)/log(x)^(1/t) is concave; the
    value stays below 6 for every t >= 2 (limit exp((sqrt(5)-1)/2)).
    """
    if t < 2:
        raise ValueError(f"threshold defined for t >= 2, got {t}")
    num = 2.0 / t - 1.0 + math.sqrt(5.0 - 4.0 / t)
    return math.exp(num / (2.0 * (1.0 - 1.0 / t)))
