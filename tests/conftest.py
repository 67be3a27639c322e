"""Shared fixtures (prime tables are expensive, so build them once) and the
independent oracles the tests check the library against: the interval
sum for the eta kernel, the float accumulator with numpy's own outward
rounding, the campaigns' and the constant search's per-k float phases,
the threshold-count chain's bound as one interval product, two
routes to the energy kernel R_s, the energy sweep at every n, and a
quadrature of the sinc-power integral."""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from mpmath.libmp import to_str

from divlat import (CapacityError, campaigns, energy, factorize, kernel, sieve_for_count,
                    sieve_primes)
from divlat.certify import (DEFAULT_PREC, PREC_CEILING, dyadic_upper, escalate, interval_ends,
                            iv_at, iv_exact)
from divlat.energy import composition_counts
from divlat.reports import CampaignResult

#: largest (alpha+1)^(2s) that R_brute enumerates
R_BRUTE_CAP = 10 ** 8
#: absolute error allowed in the sinc-power quadrature
SINC_BUDGET = 1e-8


@pytest.fixture(scope="session")
def small_table():
    """Primes to 10^6 (78498 of them)."""
    return sieve_primes(10 ** 6)


@pytest.fixture(scope="session")
def medium_table():
    """Enough primes to cross a few checkpoint strides."""
    return sieve_for_count(250_000)


@pytest.fixture(scope="session")
def campaign_table():
    """Table large enough for the full hard campaign at t = 2."""
    return sieve_for_count(campaigns.hard_threshold(2))


def spy_on_contexts(monkeypatch, method, record):
    """Make `method` of the interval context `iv_at(level)` of every level of
    the escalation ladder call record(level, *args) before it computes."""
    level = DEFAULT_PREC
    while level <= PREC_CEILING:
        ctx = iv_at(level)
        monkeypatch.setattr(ctx, method, lambda *args, fn=getattr(ctx, method), level=level:
                            record(level, *args) or fn(*args))
        level *= 2


def iv_log_eta_sums(primes, t, ks, level):
    """Independent oracle for `kernel.log_eta_sums`: the per-prime interval
    sum of log(1 + exp(-log(p) / t)) at `level` bits, at each k in ks."""
    iv = iv_at(level)
    want = set(ks)
    e = iv.mpf(-1) / t
    total = iv.mpf(0)
    out = {0: total} if 0 in want else {}
    for j in range(max(ks)):
        total += iv.log(1 + iv.exp(iv.log(iv.mpf(int(primes[j]))) * e))
        if j + 1 in want:
            out[j + 1] = total
    return out


_PER_TERM_REL = 2.0 ** -47
_U = 2.0 ** -53


@dataclass
class NextafterEtaAccumulator:
    """Oracle for `campaigns.EtaAccumulator`: the same enclosure of
    log_sum(t, k), rounded outward by np.nextafter and np.spacing and with
    the per-term budget built per block, as the accumulator did before it
    stepped bit patterns.  Same blocks, same budget, same bits."""

    t: int
    k: int = 0
    sum_mid: float = 0.0
    sum_comp: float = 0.0
    eval_err: float = 0.0

    BLOCK = 2_000

    @property
    def value(self) -> float:
        return self.sum_mid + self.sum_comp

    @property
    def width_bound(self) -> float:
        return self.eval_err + 4.0 * _U * abs(self.value) + 2.0 * np.spacing(abs(self.value))

    def extend(self, primes):
        primes = np.asarray(primes, dtype=np.float64)
        n = primes.size
        lo_out = np.empty(n)
        hi_out = np.empty(n)
        pos = 0
        while pos < n:
            step = min(self.BLOCK - (self.k % self.BLOCK), n - pos)
            term = np.log1p(primes[pos:pos + step] ** (-1.0 / self.t))
            cs = np.cumsum(term)
            idx = np.arange(1, step + 1, dtype=np.float64)
            base = self.value
            w = (self.width_bound + (_PER_TERM_REL + _U * idx) * cs
                 + 4.0 * np.spacing(base + cs))
            lo_out[pos:pos + step] = np.nextafter(base + (cs - w), -np.inf)
            hi_out[pos:pos + step] = np.nextafter(base + (cs + w), np.inf)
            block_sum = float(cs[-1])
            self.eval_err += (_PER_TERM_REL + _U * step) * block_sum
            total = self.sum_mid + block_sum
            if abs(self.sum_mid) >= abs(block_sum):
                self.sum_comp += (self.sum_mid - total) + block_sum
            else:
                self.sum_comp += (block_sum - total) + self.sum_mid
            self.sum_mid = total
            self.k += step
            pos += step
        return lo_out, hi_out


def per_k_campaign(mode, t, k_max, table, checkpoint=None):
    """Reference for `campaigns._run_campaign`: the per-k float phase it ran
    before it decided by blocks, which materializes every k's ends (through
    `EtaAccumulator.extend`), margins and ratios, then the same escalation.
    The margin rule and the enclosures are read from `campaigns` at call
    time, so a test can record them."""
    c_str = kernel.ETA_CONSTANT_HI
    c_float = float(c_str)
    t0 = time.perf_counter()
    cp = campaigns.CheckpointFile(checkpoint) if checkpoint else None
    stored = cp.load().get(t, {}) if cp else {}
    strict = mode == "easy"
    tail = math.log(t) / t
    worst = [math.inf, None]
    sup_ratio, sup_k = -math.inf, None
    pending, violations = [], []
    acc = campaigns.EtaAccumulator(t=t)
    for chunk in campaigns._chunks(table.blocks(k_max), campaigns._CHUNK):
        lo_arr, hi_arr = acc.extend(chunk)
        karr = np.arange(acc.k - chunk.size + 1, acc.k + 1, dtype=np.float64)
        if mode == "easy":
            rhs = karr ** (1.0 - 1.0 / t)
        else:
            fac = campaigns._hard_factor_mid(t, karr)
            rhs = c_float * fac
        if (has_tail := campaigns._has_tail(mode, t, karr)) is not False:
            rhs = rhs - np.where(has_tail, tail, 0.0)
        abs_rhs = np.abs(rhs)
        w = campaigns._REL_RHS * abs_rhs + 4.0 * np.spacing(abs_rhs)
        pending += campaigns._margin_rule(strict, karr, (rhs - w) - hi_arr,
                                          (rhs + w) - lo_arr, violations, worst)
        if mode == "easy":
            ratio = hi_arr / np.maximum(rhs - w, 1e-300)
        else:
            ratio = campaigns._c_required_mid(t, fac, None, hi_arr)[1]
        j = int(np.argmax(ratio))
        if ratio[j] > sup_ratio:
            sup_ratio, sup_k = float(ratio[j]), int(karr[j])
        if cp is not None and acc.k % campaigns.CHECKPOINT_STRIDE == 0:
            known, state = stored.get(acc.k), (acc.lo, acc.hi)
            if known is None:
                cp.append(t, acc.k, acc.lo, acc.hi)
            elif known != state:
                raise ValueError(f"checkpoint mismatch at t={t}, k={acc.k}")

    left = []

    def decide(level):
        nonlocal pending
        iv = iv_at(level)
        enclosures = campaigns.eta_log_enclosures(t, pending, table, level)
        c_iv = iv.mpf(c_str) if mode == "hard" else None
        ms = [campaigns._rhs_iv(iv, mode, t, k, c_iv) - enclosures[k] for k in pending]
        pending = campaigns._margin_rule(
            strict, np.array(pending), np.array([float(m.a) for m in ms]),
            np.array([float(m.b) for m in ms]), violations, worst)
        left.append(len(pending))
        return None if pending else True

    if pending:
        escalate(decide, what=lambda: f"{len(pending)} comparisons at t={t}")
    return CampaignResult(
        label=f"eta-{mode}", t_range=(t, t), k_range=(1, k_max),
        passed=not violations and worst[0] > 0.0,
        worst_margin=math.nextafter(worst[0], -math.inf), argmin=(t, worst[1]),
        sup_ratio=sup_ratio, arg_sup=(t, sup_k), wall_time=time.perf_counter() - t0,
        inconclusive=left[0] if left else 0)


def per_k_constant_search(table):
    """Reference for `campaigns.constant_C_search`: the per-k float phase it
    ran before it decided by blocks, then the same interval separation."""
    best_lo, candidates = -math.inf, []
    window = campaigns._CAND_WINDOW
    for t in campaigns.SEARCH_T_RANGE:
        acc = campaigns.EtaAccumulator(t=t)
        for chunk in campaigns._chunks(table.blocks(campaigns.hard_threshold(t)),
                                       campaigns._CHUNK):
            lo_arr, hi_arr = acc.extend(chunk)
            karr = np.arange(acc.k - chunk.size + 1, acc.k + 1, dtype=np.float64)
            clo, chi = campaigns._c_required_mid(t, campaigns._hard_factor_mid(t, karr),
                                                 lo_arr, hi_arr)
            best_lo = max(best_lo, float(np.max(clo)))
            candidates += [(float(chi[i]), t, int(karr[i]))
                           for i in np.flatnonzero(chi >= best_lo - window)]
            candidates = [c for c in candidates if c[0] >= best_lo - window]
    finalists = [(t, k) for _, t, k in candidates]

    def decide(level):
        iv, intervals = iv_at(level), {}
        for t in sorted({t for t, _ in finalists}):
            ks = sorted(k for tt, k in finalists if tt == t)
            encl = campaigns.eta_log_enclosures(t, ks, table, level)
            tail = iv.log(iv.mpf(t)) / t if campaigns._has_tail("hard", t, None) else 0
            for k in ks:
                intervals[(t, k)] = (encl[k] + tail) / kernel._hard_factor_iv(iv, t, k)
        winner = max(intervals, key=lambda tk: float(intervals[tk].a))
        win = intervals[winner]
        others = {tk: v for tk, v in intervals.items() if tk != winner}
        runner = max(others, key=lambda tk: float(others[tk].b)) if others else None
        if runner is not None and float(others[runner].b) >= float(win.a):
            return None
        return campaigns.ConstantC(
            value=float(win.mid), attained_at=winner,
            lower=math.nextafter(float(win.a), -math.inf),
            upper=math.nextafter(float(win.b), math.inf),
            lower_decimal=to_str(win._mpi_[0], 30), upper_decimal=to_str(win._mpi_[1], 30),
            runner_up=math.nextafter(float(others[runner].b), math.inf)
            if runner else -math.inf,
            runner_up_at=runner if runner else (-1, -1))

    return escalate(decide, what="separation of the supremum candidates")


def chain_bound_oracle(lt, q):
    """Independent oracle for the bound `moments.H_chain_check` reports at a
    non-integral q: the least float at or above the upper end of the
    DEFAULT_PREC interval product L_t exp(-q log 2)."""
    iv = iv_at(DEFAULT_PREC)
    return dyadic_upper(*interval_ends(iv.mpf(lt) * iv.exp(-iv_exact(iv, q) * iv.ln2))[1:])


def R_brute(s, alpha):
    """Ground-truth energy kernel by enumeration of tuple halves.

    Every s-tuple over {0..alpha} appears once in the enumerated sum
    array; matching pairs are counted across the two halves.  Capped at
    (alpha+1)^(2s) examined pairs.
    """
    if s < 1 or alpha < 0:
        raise ValueError(f"need s >= 1 and alpha >= 0, got s={s}, alpha={alpha}")
    if (alpha + 1) ** (2 * s) > R_BRUTE_CAP:
        raise CapacityError(
            f"(alpha+1)^(2s) = {(alpha + 1) ** (2 * s)} exceeds cap {R_BRUTE_CAP}")
    sums = np.zeros(1, dtype=np.int64)
    step = np.arange(alpha + 1, dtype=np.int64)
    for _ in range(s):
        sums = (sums[:, None] + step[None, :]).ravel()
    ordered = np.sort(sums)
    lo = np.searchsorted(ordered, sums, side="left")
    hi = np.searchsorted(ordered, sums, side="right")
    return int((hi - lo).sum())


def R_convolution(s, alpha):
    """Energy kernel as the sum of squared composition counts."""
    if s < 1 or alpha < 0:
        raise ValueError(f"need s >= 1 and alpha >= 0, got s={s}, alpha={alpha}")
    return sum(c * c for c in composition_counts(s, alpha))


def energy_sweep_oracle(upto, s):
    """Oracle for `energy.energy_sweep`'s violations: the full sandwich at
    every n = 2..upto, each n factored by trial division."""
    reps = (energy(factorize(n), s) for n in range(2, upto + 1))
    return [rep for rep in reps if not rep.holds]


def _gauss_legendre_panels(f, n_panels, nodes):
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for i in range(n_panels):
        a, b = i * math.pi, (i + 1) * math.pi
        xm = 0.5 * (b - a) * xs + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(np.dot(ws, f(xm)))
    return total


def sinc_quadrature(s):
    """Float estimate of the integral of (sin x / x)^(2s) over the line.

    For s = 1 it is the classical Dirichlet value pi.  For s >= 2 the even
    integrand is integrated over [0, X] with Gauss-Legendre panels of
    width pi (node count doubled until the estimate stabilizes), where X
    is chosen so the analytic tail bound 2 X^(1-2s)/(2s-1) fits inside
    half of SINC_BUDGET; half the tail is added back.  No rigorous error
    bound: an oracle, not a certificate.
    """
    if s == 1:
        return math.pi
    n_panels = 1
    while 2 * (n_panels * math.pi) ** (1 - 2 * s) / (2 * s - 1) > SINC_BUDGET / 2:
        n_panels += 1
    tail = 2 * (n_panels * math.pi) ** (1 - 2 * s) / (2 * s - 1)

    def f(x):
        out = np.ones_like(x)
        nz = x != 0
        out[nz] = (np.sin(x[nz]) / x[nz]) ** (2 * s)
        return out

    nodes = 16
    prev = _gauss_legendre_panels(f, n_panels, nodes)
    while nodes <= 512:
        nodes *= 2
        est = _gauss_legendre_panels(f, n_panels, nodes)
        if abs(est - prev) <= SINC_BUDGET / 8:
            return 2 * est + tail / 2
        prev = est
    raise AssertionError(f"quadrature did not stabilize for s = {s}")
