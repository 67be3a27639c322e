"""Eta-product campaigns: accumulator, checkpoints, verifiers, constant."""

import math
import random
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, partial
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import mpmath as mp
from mpmath.libmp import to_rational

from divlat import (
    CapacityError,
    EtaAccumulator,
    InconclusiveError,
    PrimeTable,
    campaigns,
    certify,
    cli,
    concavity_threshold,
    constant_C_search,
    eta_constant_upper,
    factorize,
    hard_threshold,
    induction_margin,
    kernel,
    ln2_bound_check,
    rosser_check,
    sieve_for_count,
    sieve_primes,
    verify_c_easy,
    verify_c_hard,
)
from divlat.certify import iv_at
from divlat.core import PrimeStream, prime_upper_bound
from divlat.campaigns import CheckpointFile, _rhs_iv, eta_log_enclosures
from divlat.kernel import ETA_CONSTANT_HI, ETA_CONSTANT_LO, log_eta_sums
from divlat.moments import eta_log_interval, thm_bounds
from divlat.reports import CampaignResult

from conftest import (NextafterEtaAccumulator, iv_log_eta_sums, per_k_campaign,
                      per_k_constant_search, spy_on_contexts)


@pytest.mark.parametrize("mode", ["easy", "hard"])
@pytest.mark.parametrize("t", [2, 3, 7])
@pytest.mark.parametrize("k", [1, 2, 55, 56, 57, 2149])
def test_interval_rhs_encloses_stated_bound(mode, t, k):
    """The escalation's right-hand side encloses the inequalities as stated.

    easy: k^(1-1/t) - log(t)/t, without the log term at t = 2, k <= 55;
    hard: C k^(1-1/t) / ((1-1/t) logplus(k)^(1/t)) - [t > 2] log(t)/t.
    """
    with mp.workprec(200):
        ex = 1 - mp.mpf(1) / t
        if mode == "easy":
            want = mp.mpf(k) ** ex - (0 if t == 2 and k <= 55 else mp.log(t) / t)
        else:
            want = (mp.mpf(ETA_CONSTANT_HI) * mp.mpf(k) ** ex
                    / (ex * mp.log(max(k, 2)) ** (1 / mp.mpf(t)))
                    - (mp.log(t) / t if t > 2 else 0))
    iv = iv_at(128)
    got = _rhs_iv(iv, mode, t, k, iv.mpf(ETA_CONSTANT_HI))
    assert got.a <= want <= got.b


def test_hard_thresholds():
    assert hard_threshold(2) == 3_750_230
    assert hard_threshold(3) == 1936
    assert hard_threshold(4) == 155
    assert hard_threshold(5) == 44
    assert hard_threshold(6) == 20
    assert hard_threshold(7) == 12
    assert hard_threshold(8) == 8
    assert hard_threshold(99) == 8


# ---------------------------------------------------------------------------
# accumulator
# ---------------------------------------------------------------------------

def test_accumulator_encloses_truth(small_table):
    acc = EtaAccumulator(t=2)
    lo, hi = acc.extend(small_table.primes[:500])
    truth = iv_log_eta_sums(small_table.primes, 2, [1, 137, 500], 128)
    for k, enc in truth.items():
        assert lo[k - 1] <= float(enc.a) and float(enc.b) <= hi[k - 1]
    assert np.all(np.diff(lo) > 0)  # nondecreasing sums


def test_accumulator_slice_independence(small_table):
    """Identical enclosures when feed boundaries sit on block multiples."""
    blk = EtaAccumulator.BLOCK
    a1 = EtaAccumulator(t=3)
    lo1, hi1 = a1.extend(small_table.primes[:8 * blk])
    a2 = EtaAccumulator(t=3)
    parts = []
    for cut in ((0, blk), (blk, 3 * blk), (3 * blk, 8 * blk)):
        parts.append(a2.extend(small_table.primes[cut[0]:cut[1]]))
    lo2 = np.concatenate([p[0] for p in parts])
    hi2 = np.concatenate([p[1] for p in parts])
    assert np.array_equal(lo1, lo2) and np.array_equal(hi1, hi2)
    assert (a1.k, a1.lo, a1.hi) == (a2.k, a2.lo, a2.hi)


def test_accumulator_arbitrary_slice_still_encloses(small_table):
    """Misaligned cuts regroup sums: still a valid (wider) enclosure."""
    a1 = EtaAccumulator(t=3)
    a1.extend(small_table.primes[:10_000])
    a2 = EtaAccumulator(t=3)
    for cut in ((0, 17), (17, 4_113), (4_113, 10_000)):
        a2.extend(small_table.primes[cut[0]:cut[1]])
    truth = iv_log_eta_sums(small_table.primes, 3, [10_000], 128)[10_000]
    for acc in (a1, a2):
        assert acc.lo <= float(truth.a) and float(truth.b) <= acc.hi


_PROPERTY_K = 3000
_PROPERTY_PRIMES = sieve_for_count(_PROPERTY_K).primes[:_PROPERTY_K]


@lru_cache(maxsize=None)
def outward_truth(t):
    """Floats just outside the 256-bit oracle enclosures of log_sum(t, k), k = 1..3000."""
    sums = iv_log_eta_sums(_PROPERTY_PRIMES, t, range(1, _PROPERTY_K + 1), 256)
    lo = [math.nextafter(float(sums[k].a), -math.inf) for k in range(1, _PROPERTY_K + 1)]
    hi = [math.nextafter(float(sums[k].b), math.inf) for k in range(1, _PROPERTY_K + 1)]
    return np.array(lo), np.array(hi)


@given(st.integers(2, 10), st.data())
@settings(max_examples=40, deadline=None)
def test_accumulator_encloses_256_bit_sums(t, data):
    """Any feed slicing, at every k: accumulator lo/hi contain the 256-bit sum."""
    k = data.draw(st.integers(1, _PROPERTY_K), label="k")
    cuts = data.draw(st.lists(st.integers(1, k), max_size=6, unique=True), label="cuts")
    bounds = [0, *sorted(cuts), k]
    acc = EtaAccumulator(t=t)
    parts = [acc.extend(_PROPERTY_PRIMES[a:b]) for a, b in zip(bounds, bounds[1:])]
    lo = np.concatenate([p[0] for p in parts])
    hi = np.concatenate([p[1] for p in parts])
    truth_lo, truth_hi = outward_truth(t)
    assert np.all(lo <= truth_lo[:k]) and np.all(truth_hi[:k] <= hi)
    assert acc.k == k and acc.lo <= truth_lo[k - 1] and truth_hi[k - 1] <= acc.hi


@pytest.mark.parametrize("level", [128, 512])
@pytest.mark.parametrize("t", [2, 3, 7, 99, 100, 1000])
def test_kernel_meets_the_interval_oracle(t, level):
    """The integer kernel's log-eta enclosure overlaps the per-prime interval
    sum's at every k, and is no wider."""
    ks = [1, 2, 56, 300]
    got = log_eta_sums(_PROPERTY_PRIMES, t, ks, level)
    want = iv_log_eta_sums(_PROPERTY_PRIMES, t, ks, level)
    for k in ks:
        assert got[k].a <= want[k].b and want[k].a <= got[k].b, k
        assert got[k].delta <= want[k].delta, k


def test_kernel_ends_contain_the_256_bit_sum():
    """At level 8 (F = 40) the kernel's [lo, hi] / 2^F contains eta_k, whose
    log the 256-bit per-prime interval sum encloses: a lo rounded up or a hi
    rounded down by one unit of 2^-F breaks containment in about a sixth
    of these cases."""
    rng = random.Random(8)
    pool = [int(p) for p in sieve_primes(30_000).primes]
    for _ in range(300):
        k, t = rng.randint(2, 4), rng.choice([2, 3, 5])
        primes = rng.sample(pool, k)
        f, ends = kernel.eta_fixed_point(primes, t, [k], 8)
        lo, hi = ends[k]
        iv = iv_at(256)
        want = iv_log_eta_sums(primes, t, [k], 256)[k]
        scale = iv.mpf(2) ** f
        assert (iv.log(iv.mpf(lo) / scale).b <= want.a) is True, (primes, t, "lo")
        assert (want.b <= iv.log(iv.mpf(hi) / scale).a) is True, (primes, t, "hi")


@given(st.sampled_from([int(p) for p in _PROPERTY_PRIMES]), st.integers(1, 1000),
       st.sampled_from([40, 64, 160, 544]))
@example(2, 1, 160)  # an exact root: 2^f / 2 = 2^(f-1)
@settings(max_examples=300, deadline=None)
def test_root_bracket_is_certified(p, t, f):
    """s <= 2^f p^(-1/t) <= u, checked with exact integer powers, and u - s <= 2."""
    s, u = kernel._root_bracket(p, t, f)
    assert s ** t * p <= 1 << (t * f) <= u ** t * p
    assert 0 < u - s <= 2


@pytest.mark.parametrize("cuts", [range(0, 250_000, campaigns.CHECKPOINT_STRIDE),
                                  [0, 1, 777, 12_345, 150_001]], ids=["aligned", "unaligned"])
@pytest.mark.parametrize("t", [2, 3, 7, 99])
def test_accumulator_matches_the_nextafter_oracle(medium_table, t, cuts):
    """Bit for bit, at every k and in the final state: stepping bit patterns
    rounds every end outward exactly as np.nextafter and np.spacing do."""
    primes = medium_table.primes[:250_000]
    bounds = [*cuts, primes.size]
    got, want = EtaAccumulator(t=t), NextafterEtaAccumulator(t=t)
    for a, b in zip(bounds, bounds[1:]):
        for x, y in zip(got.extend(primes[a:b]), want.extend(primes[a:b])):
            assert np.array_equal(x.view(np.int64), y.view(np.int64)), (t, a, b)
    assert ((got.sum_mid, got.sum_comp, got.eval_err, got.k)
            == (want.sum_mid, want.sum_comp, want.eval_err, want.k))


def _every_block(blocks):
    """(karr, lo, hi) of a float-pass chunk with every block materialized."""
    return blocks.ends(repeat(True))


@pytest.mark.parametrize("t", [2, 5])
def test_float_pass_matches_the_stride_fed_accumulator(medium_table, t):
    """The float pass steps in chunks that end on BLOCK multiples and on every
    CHECKPOINT_STRIDE multiple, so the per-k ends of its blocks, materialized,
    and its final state are bit for bit those of an accumulator fed one
    CHECKPOINT_STRIDE at a time, also at a k_max that no chunk divides."""
    k_max, stride = 250_001, campaigns.CHECKPOINT_STRIDE
    chunks = []
    for acc, blocks in campaigns._float_pass(t, k_max, medium_table):
        chunks.append((acc.k, *_every_block(blocks)))
    ks, karrs, los, his = zip(*chunks)
    want = EtaAccumulator(t=t)
    want_lo, want_hi = zip(*[want.extend(medium_table.primes[k:min(k + stride, k_max)])
                             for k in range(0, k_max, stride)])
    assert {100_000, 200_000, k_max} <= set(ks)
    assert np.array_equal(np.concatenate(karrs), np.arange(1, k_max + 1))
    for got_ends, want_ends in ((los, want_lo), (his, want_hi)):
        assert np.array_equal(np.concatenate(got_ends).view(np.int64),
                              np.concatenate(want_ends).view(np.int64))
    assert ((acc.sum_mid, acc.sum_comp, acc.eval_err, acc.k)
            == (want.sum_mid, want.sum_comp, want.eval_err, want.k))


@pytest.mark.parametrize("t", [2, 5])
def test_state_update_is_extends_state(medium_table, t):
    """The float pass updates the accumulator's state without materializing a
    block; at every chunk end, also the last one at a k_max that no chunk
    divides, the state is bit for bit that of `extend` fed the same chunks,
    and each block's `hi_end` is the materialized upper end at its last k."""
    k_max = 250_001
    want, ends = EtaAccumulator(t=t), []
    for acc, blocks in campaigns._float_pass(t, k_max, medium_table):
        want.extend(medium_table.primes[want.k:acc.k])
        ends.append(acc.k)
        assert ((acc.sum_mid, acc.sum_comp, acc.eval_err, acc.k)
                == (want.sum_mid, want.sum_comp, want.eval_err, want.k))
        _, _, hi = _every_block(blocks)
        last = np.cumsum([row[3].size for row in blocks.rows]) - 1
        assert np.array_equal(blocks.hi_end.view(np.int64), hi[last].view(np.int64))
    assert ends[-1] == k_max and ends[-2] % campaigns._CHUNK == 0


@pytest.fixture(scope="module")
def stream_250k():
    return PrimeStream(prime_upper_bound(250_000))


@pytest.mark.parametrize("k_max", [250_000, 130_001])
@pytest.mark.parametrize("t", [2, 5])
def test_streamed_float_pass_is_the_table_pass(medium_table, stream_250k, t, k_max):
    """The stream's read-out blocks are re-cut into the same 20,000-term chunks as
    the table, so every materialized end and the final state are bit for bit the
    table's, also at a k_max that no chunk divides, two read-out blocks in."""
    edges = np.cumsum([block.size for block in stream_250k.blocks(k_max)])[:-1]
    assert edges.size >= 2  # read-out block edges inside the pass
    got = list(campaigns._float_pass(t, k_max, stream_250k))
    want = list(campaigns._float_pass(t, k_max, medium_table))
    assert len(got) == len(want) == -(-k_max // 20_000)
    for (_, blocks), (_, want_blocks) in zip(got, want):
        (karr, lo, hi), (want_k, want_lo, want_hi) = map(_every_block, (blocks, want_blocks))
        assert np.array_equal(karr, want_k)
        assert np.array_equal(lo.view(np.int64), want_lo.view(np.int64))
        assert np.array_equal(hi.view(np.int64), want_hi.view(np.int64))
    assert got[-1][0] == want[-1][0]


def test_streamed_checkpoint_is_the_golden_file(tmp_path, stream_250k):
    """A run from the stream writes the pinned file byte for byte, and a run
    from a fresh stream resumes from it, verifying both states."""
    path = tmp_path / "ck.txt"
    first = verify_c_hard(2, 250_000, stream_250k, checkpoint=path)
    golden = Path(__file__).parent / "golden" / "checkpoint-t2-hard-250000.txt"
    assert first.passed and path.read_bytes() == golden.read_bytes()
    again = verify_c_hard(2, 250_000, PrimeStream(prime_upper_bound(250_000)), checkpoint=path)
    assert (again.passed, again.worst_margin, again.argmin, again.sup_ratio) == \
           (first.passed, first.worst_margin, first.argmin, first.sup_ratio)
    assert path.read_bytes() == golden.read_bytes()


def _recorded(run, mp):
    """run()'s result with every margin rule's violations list and the ks of
    each enclosure request (the pending ks of each escalation level, or the
    search's finalists), read through `campaigns` as both engines call them."""
    found, asked = [[]], []
    rule, enclose = campaigns._margin_rule, campaigns.eta_log_enclosures

    def recorded_rule(strict, ks, m_lo, m_hi, violations, worst):
        found[0] = violations  # the campaign's own list, filled in place
        return rule(strict, ks, m_lo, m_hi, violations, worst)

    def recorded_enclose(t, ks, table, level):
        asked.append(list(ks))
        return enclose(t, ks, table, level)

    mp.setattr(campaigns, "_margin_rule", recorded_rule)
    mp.setattr(campaigns, "eta_log_enclosures", recorded_enclose)
    result = run()
    if isinstance(result, CampaignResult):
        result = result._replace(wall_time=None)
    return result, found[0], asked


@pytest.mark.parametrize("c_hi", [None, "1.0", "1.05", "1.065", "0.96621"])
@pytest.mark.parametrize("k_max", [60_001, 130_001, 250_000])
@pytest.mark.parametrize("t", [2, 3, 5])
def test_block_campaigns_are_the_per_k_campaigns(medium_table, tmp_path, monkeypatch,
                                                 t, k_max, c_hi):
    """Deciding by blocks moves nothing: every CampaignResult field but
    wall_time, the violations, the pending ks of every escalation level and
    the checkpoint bytes are those of the per-k float phase.  A constant
    below the supremum makes late blocks fail, pend or set the sup; 0.96621
    lies just above C_required at t = 5, k = 250,000, its largest value
    there, so that campaign passes with its worst margin at the last k."""
    if c_hi is not None:
        monkeypatch.setattr(kernel, "ETA_CONSTANT_HI", c_hi)
    for mode in ("easy", "hard") if c_hi is None else ("hard",):
        runs = []
        for name, engine in (("blocks", campaigns._run_campaign), ("per-k", per_k_campaign)):
            path = tmp_path / f"{name}-{mode}.txt"
            with pytest.MonkeyPatch.context() as mp:
                runs.append(_recorded(lambda: engine(mode, t, k_max, medium_table, path), mp))
            runs[-1] += (path.read_bytes() if path.exists() else None,)
        assert runs[0] == runs[1], (mode, runs[0][0], runs[1][0])


class _Finalists(Exception):
    """Raised with the ks of the search's first enclosure request."""


@pytest.mark.parametrize("k_max", [60_001, 130_001, 250_000])
@pytest.mark.parametrize("t", [2, 3, 5])
def test_block_search_is_the_per_k_search(medium_table, monkeypatch, t, k_max):
    """The constant search over one t, run to k_max, keeps the per-k float
    phase's finalists and reports its ConstantC.  At t = 5 C_required rises
    to the last k, so the separation sums all k_max primes at 128 bits (11 s
    at 250,000): past 60,001 only the finalists, which fix the ConstantC,
    are compared there."""
    monkeypatch.setattr(campaigns, "SEARCH_T_RANGE", range(t, t + 1))
    monkeypatch.setitem(campaigns.HARD_THRESHOLDS, t, k_max)
    runs = []
    for engine in (constant_C_search, per_k_constant_search):
        with pytest.MonkeyPatch.context() as mp:
            if t != 5 or k_max == 60_001:
                runs.append(_recorded(lambda: engine(medium_table), mp))
                continue
            def finalists(t, ks, table, level):
                raise _Finalists(t, list(ks))

            mp.setattr(campaigns, "eta_log_enclosures", finalists)
            with pytest.raises(_Finalists) as stop:
                engine(medium_table)
            runs.append(stop.value.args)
    assert runs[0] == runs[1]
    if t == 5:  # the sup sits at the last k
        assert (runs[0][0].attained_at[1] if k_max == 60_001 else runs[0][1][-1]) == k_max


@pytest.mark.parametrize("t", [2, 3, 7, 99, 1000])
def test_right_hand_sides_increase_past_the_first_chunk(t):
    """The monotonicity the block lemma rests on, at 128 bits: the hard factor
    k^(1-1/t) / ((1-1/t) log(k)^(1/t)) rises from k = 3 on (from k = 2 at
    t >= 3), but falls from k = 2 to 3 at t = 2; the easy rhs rises past
    k = 56, where t = 2 starts subtracting its tail.  The float pass's first
    chunk, k <= 20,000, is always decided per k."""
    grid = sorted({*range(3, 201), *map(int, np.geomspace(200, 4 * 10 ** 6, 80))})
    fac = partial(kernel._hard_factor_iv, iv_at(128), t)
    easy = partial(_rhs_iv, iv_at(128), "easy", t)
    assert all((fac(k + 1) > fac(k)) is True for k in grid)
    assert (fac(3) > fac(2)) is (t >= 3)
    assert all((easy(k + 1, None) > easy(k, None)) is True for k in grid if k >= 56)
    assert (easy(56, None) > easy(55, None)) is (t != 2)


@pytest.mark.parametrize("run", [lambda s, k: verify_c_easy(2, k, s),
                                 lambda s, k: verify_c_hard(2, k, s),
                                 lambda s, k: constant_C_search(s),
                                 lambda s, k: rosser_check(s, k)],
                         ids=["easy", "hard", "constant-search", "rosser"])
@pytest.mark.parametrize("limit", [1000, 10 ** 6, 1_572_865],
                         ids=["in-first-block", "past-it", "no-prime-read-out"])
def test_a_stream_below_p_k_max_is_a_capacity_error(run, limit):
    """A stream whose limit is below p_{k_max} runs dry: never a shorter campaign that passes."""
    stream = PrimeStream(limit)
    with pytest.raises(CapacityError):
        run(stream, sieve_primes(limit).count + 1)


def test_uint32_table_reads_as_its_int64_copy(small_table):
    """A uint32 table whose entries reach 4294967291, the largest prime below
    2^32, and an int64 copy of it: every consumer widens an entry before its
    arithmetic, so none wraps around and each reads the two tables alike."""
    base = small_table.primes[small_table.primes < 2 ** 16].astype(np.int64)
    top = np.arange(2 ** 32 - 400, 2 ** 32, dtype=np.int64)
    top = top[(top[:, None] % base).all(axis=1)]
    values = np.concatenate([small_table.primes[:1000], top])
    narrow = PrimeTable(limit=2 ** 32 - 1, primes=values.astype(np.uint32))
    wide = PrimeTable(limit=2 ** 32 - 1, primes=values.astype(np.int64))
    k = narrow.count
    assert narrow.primes.dtype == np.uint32 and narrow.nth(k) == 4_294_967_291
    assert [narrow.nth(j) for j in range(1, k + 1)] == [wide.nth(j) for j in range(1, k + 1)]
    got, want = rosser_check(narrow, k), rosser_check(wide, k)
    assert (got.passed, got.worst_margin, got.argmin) == (want.passed, want.worst_margin, want.argmin)
    for t in (2, 7):
        ks = [1000, 1001, k]
        got, want = log_eta_sums(narrow.primes, t, ks, 53), log_eta_sums(wide.primes, t, ks, 53)
        assert [got[j]._mpi_ for j in ks] == [want[j]._mpi_ for j in ks]
        acc_narrow, acc_wide = EtaAccumulator(t=t), EtaAccumulator(t=t)
        for x, y in zip(acc_narrow.extend(narrow.primes), acc_wide.extend(wide.primes)):
            assert np.array_equal(x.view(np.int64), y.view(np.int64)), t
        assert acc_narrow == acc_wide


def _positive_normal_draws():
    """Random positive normal floats, every power of two, and both ends of the range."""
    bits = np.random.default_rng(25).integers(
        0x0010_0000_0000_0000, 0x7FF0_0000_0000_0000, size=100_000, dtype=np.int64)
    fin = np.finfo(np.float64)
    return np.concatenate([bits.view(np.float64), np.ldexp(1.0, np.arange(-1022, 1024)),
                           [fin.tiny, fin.max]])


def test_bit_rounding_helpers_match_numpy():
    """Bit for bit, but for one float: np.spacing of the largest finite float
    is inf (nextafter overflows), where _ulp and math.ulp give the gap below
    it, 2^971."""
    x = _positive_normal_draws()
    top = x == np.finfo(np.float64).max
    with np.errstate(over="ignore"):  # numpy's nextafter and spacing overflow at the top
        up, spacing = np.nextafter(x, np.inf), np.spacing(x)
    for got, want in ((campaigns._next_up(x), up),
                      (campaigns._next_down(x), np.nextafter(x, -np.inf)),
                      (campaigns._ulp(x)[~top], spacing[~top])):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.all(campaigns._ulp(x[top]) == 2.0 ** 971) and np.all(spacing[top] == np.inf)
    ulps = np.array([math.ulp(v) for v in np.concatenate([x, -x]).tolist()])
    assert np.array_equal(ulps, np.tile(np.where(top, 2.0 ** 971, spacing), 2))


@pytest.mark.parametrize("bad", [0.0, -1.0, 5e-324, math.inf, math.nan])
@pytest.mark.parametrize("helper", ["_next_up", "_next_down", "_ulp"])
def test_bit_rounding_helpers_reject_other_floats(helper, bad):
    with pytest.raises(ValueError, match="positive normal"):
        getattr(campaigns, helper)(np.array([1.0, bad, 2.0]))


def test_accumulator_width_budget(campaign_table):
    acc = EtaAccumulator(t=2)
    acc.extend(campaign_table.primes[:4_000_000])
    assert acc.hi - acc.lo <= 1e-9


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

def test_easy_single_points(small_table):
    r = verify_c_easy(2, 1, small_table)
    # log(1 + 2^(-1/2)) = 0.53480 vs 1^(1/2) = 1
    assert r.passed and r.worst_margin == pytest.approx(1 - math.log(1 + 2 ** -0.5), abs=1e-6)
    r3 = verify_c_easy(3, 1, small_table)
    expected = 1 - math.log(3) / 3 - math.log(1 + 2 ** (-1 / 3))
    assert r3.passed and r3.worst_margin == pytest.approx(expected, abs=1e-6)


def test_easy_full_box(small_table):
    worst = math.inf
    where = None
    for t in range(2, 100):
        r = verify_c_easy(t, 56, small_table)
        assert r.passed, (t, r)
        assert r.inconclusive == 0
        if r.worst_margin < worst:
            worst, where = r.worst_margin, r.argmin
    assert where == (2, 56)
    assert worst == pytest.approx(0.003870, abs=1e-5)


def test_hard_small_t(small_table):
    for t in (3, 4, 5, 6, 7, 8, 20, 99):
        r = verify_c_hard(t, hard_threshold(t), small_table)
        assert r.passed and r.inconclusive == 0, (t, r)


def test_hard_k1_with_printed_constant(small_table, monkeypatch):
    monkeypatch.setattr(kernel, "ETA_CONSTANT_HI", "1.07073472")
    r = verify_c_hard(4, 1, small_table)
    lhs = math.log(1 + 2 ** -0.25)
    rhs = 1.07073472 / (0.75 * math.log(2) ** 0.25) - math.log(4) / 4
    assert r.passed
    assert r.worst_margin == pytest.approx(rhs - lhs, abs=1e-6)


def test_hard_rejects_too_small_constant(small_table, monkeypatch):
    # with C clearly below the supremum the inequality fails somewhere
    monkeypatch.setattr(kernel, "ETA_CONSTANT_HI", "1.0")
    r = verify_c_hard(2, 3000, small_table)
    assert not r.passed
    assert r.worst_margin < 0


def test_constant_has_one_home(small_table, monkeypatch):
    """C patched once, in `kernel`, moves every reader of it: the hard
    campaign and induction step, the float upper bound and the first
    moment bound.  1.07 lies below the supremum, attained at (2, 2149)."""
    f, past = factorize(2 * 3 * 5 * 7), hard_threshold(2) + 1
    first_bound = thm_bounds(f, 3, 0)[0].bound_value
    assert verify_c_hard(2, 2200, small_table).passed
    assert induction_margin(2, past, "hard").holds
    monkeypatch.setattr(kernel, "ETA_CONSTANT_LO", "1.07")
    monkeypatch.setattr(kernel, "ETA_CONSTANT_HI", "1.07")
    hard = verify_c_hard(2, 2200, small_table)
    assert not hard.passed and hard.worst_margin < 0
    assert not induction_margin(2, past, "hard").holds
    assert eta_constant_upper() == certify.exact_upper(Fraction("1.07"))
    assert thm_bounds(f, 3, 0)[0].bound_value < first_bound
    assert not hasattr(campaigns, "ETA_CONSTANT_HI")


def _verdict(verify, t, k_max, table, mp):
    """(passed, argmin, sorted violations) of one campaign, and the ks of
    each escalation level, read through the margin rule's arguments."""
    found_lists, escalated = [], []
    rule, enclose = campaigns._margin_rule, campaigns.eta_log_enclosures

    def recorded_rule(strict, ks, m_lo, m_hi, found, worst):
        found_lists.append(found)  # the campaign's own list, filled in place
        return rule(strict, ks, m_lo, m_hi, found, worst)

    def recorded_enclose(t, ks, table, level):
        escalated.append(list(ks))
        return enclose(t, ks, table, level)

    mp.setattr(campaigns, "_margin_rule", recorded_rule)
    mp.setattr(campaigns, "eta_log_enclosures", recorded_enclose)
    r = verify(t, k_max, table)
    return (r.passed, r.argmin, sorted(found_lists[-1])), escalated


@pytest.mark.parametrize("verify, t, k_max, c_hi", [
    *[(verify_c_easy, t, 56, None) for t in (2, 3, 4)],
    *[(verify_c_hard, t, hard_threshold(t), None) for t in (3, 4, 5)],
    (verify_c_hard, 2, 3000, "1.0"),  # as in test_hard_rejects_too_small_constant
])
def test_margin_rule_agrees_on_the_interval_path(verify, t, k_max, c_hi, small_table,
                                                 monkeypatch):
    """With a right-hand-side envelope so wide that the float pass decides
    no k, the interval levels alone give the same verdict."""
    if c_hi is not None:
        monkeypatch.setattr(kernel, "ETA_CONSTANT_HI", c_hi)
    with pytest.MonkeyPatch.context() as mp:
        base, _ = _verdict(verify, t, k_max, small_table, mp)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(campaigns, "_REL_RHS", 2.0)
        wide, escalated = _verdict(verify, t, k_max, small_table, mp)
    assert escalated[0] == list(range(1, k_max + 1))
    assert wide == base
    assert base[0] is (c_hi is None) and bool(base[2]) is (c_hi is not None)


@pytest.mark.parametrize("strict", [True, False])
def test_margin_rule_keeps_a_zero_lower_end_pending(strict):
    """m_lo = 0.0 does not certify m > 0: that k stays pending, fails
    nothing and leaves worst where it was, in either mode."""
    violations, worst = [], [0.5, 3]
    pending = campaigns._margin_rule(strict, np.array([7.0, 8.0]), np.array([0.0, 0.75]),
                                     np.array([1.0, 1.0]), violations, worst)
    assert pending == [7] and violations == [] and worst == [0.5, 3]


def test_inconclusive_counts_what_the_first_level_leaves(small_table, monkeypatch):
    # a 64-bit start leaves k = 2149 (the attained point) to the 128-bit level
    monkeypatch.setattr(certify, "DEFAULT_PREC", 64)
    r = verify_c_hard(2, 3000, small_table)
    assert r.passed and r.inconclusive == 1
    monkeypatch.setattr(certify, "DEFAULT_PREC", 128)
    assert verify_c_hard(2, 3000, small_table).inconclusive == 0


def test_escalation_past_ceiling_names_pending(small_table, monkeypatch):
    # a ceiling below the first level leaves k = 2149 (the attained point) pending
    monkeypatch.setattr(certify, "PREC_CEILING", 64)
    with pytest.raises(InconclusiveError, match=r"1 comparisons at t=2 \(first k=2149\)"):
        verify_c_hard(2, 3000, small_table)


def test_campaign_capacity(small_table):
    with pytest.raises(CapacityError):
        verify_c_hard(2, small_table.count + 1, small_table)


def test_checkpoint_roundtrip_and_resume(tmp_path, medium_table):
    path = tmp_path / "camp.ckpt"
    first = verify_c_hard(2, 250_000, medium_table, checkpoint=path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2  # states at k = 100k and 200k
    t_s, k_s, lo_s, hi_s = lines[0].split()
    assert (int(t_s), int(k_s)) == (2, 100_000)
    assert float(lo_s) <= float(hi_s)
    again = verify_c_hard(2, 250_000, medium_table, checkpoint=path)
    assert (again.worst_margin, again.argmin, again.sup_ratio, again.passed) == \
           (first.worst_margin, first.argmin, first.sup_ratio, first.passed)
    assert len(path.read_text().splitlines()) == 2  # no duplicate lines


def test_checkpoint_torn_final_line_is_recomputed(tmp_path, medium_table):
    path = tmp_path / "camp.ckpt"
    whole = verify_c_hard(2, 250_000, medium_table, checkpoint=path)
    written = path.read_text()
    path.write_text(written[:len(written) - 12])  # crash in the middle of line 2
    resumed = verify_c_hard(2, 250_000, medium_table, checkpoint=path)

    def untimed(result):
        return {k: v for k, v in result.to_jsonable().items() if k != "wall_time"}

    assert untimed(resumed) == untimed(whole)
    assert path.read_text() == written


def test_checkpoint_is_shared_by_easy_and_hard(tmp_path, medium_table):
    """Stored states depend only on t and the primes: a hard run verifies
    the states an easy run wrote and appends nothing."""
    path = tmp_path / "camp.ckpt"
    assert verify_c_easy(2, 250_000, medium_table, checkpoint=path).passed
    written = path.read_bytes()
    assert len(written.splitlines()) == 2
    assert verify_c_hard(2, 250_000, medium_table, checkpoint=path).passed
    assert path.read_bytes() == written


def test_checkpoint_malformed_line_raises(tmp_path):
    path = tmp_path / "camp.ckpt"
    path.write_text("2 100000 1.5\n2 200000 1.0 2.0\n")
    with pytest.raises(ValueError, match="malformed checkpoint line 1 in "):
        CheckpointFile(path).load()


def test_checkpoint_mismatch_detected(tmp_path, medium_table):
    path = tmp_path / "camp.ckpt"
    CheckpointFile(path).append(2, 100_000, 1.0, 2.0)  # bogus state
    with pytest.raises(ValueError, match="checkpoint mismatch"):
        verify_c_hard(2, 150_000, medium_table, checkpoint=path)


def _lower_end(enclosure) -> Fraction:
    return Fraction(*to_rational(enclosure._mpi_[0]))


@pytest.mark.parametrize("verify, k_max, c_hi, argmin", [
    (verify_c_hard, 3000, ETA_CONSTANT_HI, (2, 2149)),  # decided by the escalation
    (verify_c_hard, 3000, ETA_CONSTANT_LO, (2, 2149)),  # a negative margin there
    (verify_c_easy, 56, ETA_CONSTANT_HI, None),         # decided by the float pass
])
def test_campaign_worst_margin_is_rounded_down(verify, k_max, c_hi, argmin, small_table,
                                               monkeypatch):
    """The reported margin is at or below the lower end of the argmin margin's
    enclosure at the first level, which decides it, and at 512 bits."""
    monkeypatch.setattr(kernel, "ETA_CONSTANT_HI", c_hi)
    res = verify(2, k_max, small_table)
    assert argmin is None or res.argmin == argmin
    mode, (t, k) = res.label.removeprefix("eta-"), res.argmin
    for level in (certify.DEFAULT_PREC, 512):
        iv = iv_at(level)
        margin = _rhs_iv(iv, mode, t, k, iv.mpf(c_hi)) - log_eta_sums(
            small_table.primes, t, [k], level)[k]
        assert Fraction(res.worst_margin) <= _lower_end(margin), level


@pytest.mark.parametrize("primes", [None, np.arange(2, 12)])  # p_k = k + 1 fails from k = 4
def test_rosser_worst_margin_is_rounded_down(primes, small_table):
    table = small_table if primes is None else PrimeTable(11, primes)
    res = rosser_check(table, min(table.count, 50_000))
    (k,) = res.argmin
    iv = iv_at(512)
    margin = iv.mpf(int(table.primes[k - 1])) - iv.mpf(k) * iv.log(k)
    assert Fraction(res.worst_margin) <= _lower_end(margin)


# ---------------------------------------------------------------------------
# the constant
# ---------------------------------------------------------------------------

def test_constant_search(campaign_table):
    cc = constant_C_search(campaign_table)
    assert cc.attained_at == (2, 2149)
    assert 1.070734 <= cc.value <= 1.070735
    # containment in the frozen enclosure, compared in decimal
    slop = Fraction(1, 10 ** 25)
    lo = Fraction(Decimal(cc.lower_decimal))
    hi = Fraction(Decimal(cc.upper_decimal))
    assert Fraction(Decimal(ETA_CONSTANT_LO)) - slop <= lo
    assert hi <= Fraction(Decimal(ETA_CONSTANT_HI)) + slop
    # uniqueness: runner-up strictly below the winner, by more than 1e-9
    assert cc.runner_up_at == (2, 2148)
    assert cc.runner_up < cc.lower - 1e-9


@pytest.mark.parametrize("run", [lambda table: verify_c_hard(2, 3_750_230, table),
                                 constant_C_search], ids=["hard-campaign-t2", "constant-search"])
def test_eta_ops_hold_little_beside_the_table(campaign_table, run):
    """numpy reports its buffers to tracemalloc.  The float pass feeds the
    accumulator 20,000 terms at a time, so the full t = 2 hard campaign and the
    constant search each peak at most 3 MiB above what was allocated before
    the call (about 2.0 MiB each).  Chunks of one CHECKPOINT_STRIDE took
    9.97 and 7.68 MiB."""
    import tracemalloc
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run(campaign_table)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert getattr(result, "passed", True)
    assert peak <= 3 << 20, peak


@pytest.mark.parametrize("run", [lambda s: verify_c_hard(2, 3_750_230, s),
                                 lambda s: rosser_check(s, 3_750_230)],
                         ids=["hard-campaign-t2", "rosser"])
def test_streamed_eta_ops_hold_no_table(run):
    """numpy reports its buffers to tracemalloc.  From the CLI's stream, the full
    t = 2 hard campaign and rosser's search peak at most 5 MiB in all, its sieve
    included (about 3.3 and 2.2 MiB): the table alone took 14.3 MiB."""
    import tracemalloc
    tracemalloc.start()
    try:
        result = run(cli._table_for_count(3_750_230))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed and peak <= 5 << 20, peak


def test_constant_upper_is_float_bound():
    up = eta_constant_upper()
    assert up >= float(ETA_CONSTANT_HI)


def test_c_required_at_2_1(small_table):
    # (log(1+2^(-1/2))) * (1/2) * log(2)^(1/2) / 1
    iv = iv_at(128)
    enc = eta_log_enclosures(2, [1], small_table, 128)[1]
    val = float((enc * iv.mpf(0.5) * iv.sqrt(iv.log(iv.mpf(2)))).mid)
    assert val == pytest.approx(0.22262, abs=1e-5)
    assert val < float(ETA_CONSTANT_LO)


def test_log_eta_sums_shared_by_campaigns_and_moments(small_table):
    primes = [int(p) for p in small_table.primes[:300]]
    for t in (2, 7):
        enc = eta_log_enclosures(t, [1, 300], small_table, 128)
        for k in (1, 300):
            direct = eta_log_interval(primes[:k], t)
            assert (enc[k].a, enc[k].b) == (direct.a, direct.b)
    empty = eta_log_interval([], 3)
    assert empty.a == empty.b == 0


# ---------------------------------------------------------------------------
# side conditions
# ---------------------------------------------------------------------------

def test_ln2_bound():
    r1 = ln2_bound_check(100, 1)
    assert r1.holds
    assert math.log(100) / 100 + math.log(2) == pytest.approx(0.7392, abs=1e-4)
    r56 = ln2_bound_check(100, 56)
    assert r56.holds
    assert r56.context["middle"] == pytest.approx(38.862, abs=1e-3)
    assert r56.bound_value == pytest.approx(41.44, abs=1e-2)
    assert r56.context["k_pow"] == pytest.approx(56 ** 0.99, rel=1e-6)
    for t in (100, 316, 1000):
        assert all(ln2_bound_check(t, k).holds for k in range(1, 57))
    with pytest.raises(ValueError):
        ln2_bound_check(99, 1)
    with pytest.raises(ValueError):
        ln2_bound_check(100, 57)


def test_side_condition_bounds_round_up(monkeypatch):
    """Every bound_value is at or above its bound evaluated at 300 bits,
    also when a 4-bit start leaves it to the wide ends of a low level."""
    for start in (128, 4):
        monkeypatch.setattr(certify, "DEFAULT_PREC", start)
        reports = [(induction_margin(t, hard_threshold(t) + 1, variant="hard"),
                    lambda k=hard_threshold(t) + 1: mp.log(k)) for t in range(2, 100)]
        reports.append((ln2_bound_check(100, 56), lambda: mp.mpf("0.74") * 56))
        with mp.workprec(300):
            low = [r.context for r, bound in reports if not mp.mpf(r.bound_value) >= bound()]
        assert low == [], start


@pytest.mark.parametrize("check, args", [
    (ln2_bound_check, (100, 56)),
    (ln2_bound_check, (316, 1)),
    (induction_margin, (2, 57, "easy")),
    (induction_margin, (2, hard_threshold(2) + 1, "hard")),
])
def test_side_conditions_escalate(check, args, monkeypatch):
    """At a 4-bit start every side condition overlaps its bound: the verdict
    comes from a higher level, never a holds=False read at the first."""
    levels = []

    def counted(decide, what):
        return certify.escalate(lambda level: levels.append(level) or decide(level), what)

    monkeypatch.setattr(certify, "DEFAULT_PREC", 4)
    monkeypatch.setattr(campaigns, "escalate", counted)
    assert check(*args).holds is True
    assert levels[0] == 4 and len(levels) > 1
    monkeypatch.setattr(certify, "PREC_CEILING", levels[-2])
    with pytest.raises(InconclusiveError):
        check(*args)


def test_hard_inequality_spot_check_large_t(small_table):
    for t in (100, 250, 1000):
        r = verify_c_hard(t, 8, small_table)
        assert r.passed


def test_induction_easy():
    r = induction_margin(2, 57, variant="easy")
    assert r.holds
    assert r.exact_value == pytest.approx(1 / math.log(57), rel=1e-9)
    assert r.bound_value == pytest.approx(0.25, rel=1e-9)
    r100 = induction_margin(100, 57, variant="easy")
    assert r100.holds
    assert r100.bound_value == pytest.approx((1 - 0.01) ** 100, rel=1e-9)
    with pytest.raises(ValueError):
        induction_margin(2, 56, variant="easy")


def test_induction_hard():
    for t in range(2, 100):
        r = induction_margin(t, hard_threshold(t) + 1, variant="hard")
        assert r.holds, (t, r.slack)
        assert r.slack > 0
    # t = 2 is the tight one: threshold = floor(exp(C/(C-1)))
    tight = induction_margin(2, hard_threshold(2) + 1, variant="hard")
    assert tight.slack == pytest.approx(2.3698e-8, rel=1e-3)
    with pytest.raises(ValueError):
        induction_margin(2, hard_threshold(2), variant="hard")
    with pytest.raises(ValueError):
        induction_margin(2, 3_750_231, variant="nope")


def test_threshold_is_last_failing_k():
    """The t=2 threshold is exactly floor(exp(C/(C-1))): the induction
    condition fails at the threshold and holds one past it."""
    from divlat.campaigns import eta_constant_interval
    iv = iv_at(128)
    c = eta_constant_interval(iv)
    ratio = c / (c - 1)
    at_thr = iv.log(iv.mpf(hard_threshold(2))) - ratio
    past = iv.log(iv.mpf(hard_threshold(2) + 1)) - ratio
    assert float(at_thr.b) < 0 < float(past.a)


def test_rosser_at_campaign_scale(campaign_table):
    from divlat import rosser_check
    res = rosser_check(campaign_table, 3_750_230)
    assert res.passed
    assert res.worst_margin > 0
    assert res.argmin == (4,)


def test_rosser_campaign_scale_is_small(campaign_table, monkeypatch):
    """Monotone blocks: no array of length k_max, few interval evaluations."""
    import tracemalloc
    from divlat import rosser_check
    calls = []
    spy_on_contexts(monkeypatch, "log", lambda level, x: calls.append(x))
    tracemalloc.start()
    try:
        res = rosser_check(campaign_table, 3_750_230)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed and res.argmin == (4,)
    assert peak < 1 << 20
    assert len(calls) < 1000


def test_concavity_threshold():
    assert concavity_threshold(2) == pytest.approx(math.exp(math.sqrt(3)), rel=1e-12)
    assert concavity_threshold(3) == pytest.approx(3.2744, abs=1e-3)
    values = [concavity_threshold(t) for t in range(2, 10_001)]
    assert max(values) < 6.0
    # limit value exp((sqrt(5)-1)/2) ~ 1.855
    assert values[-1] == pytest.approx(math.exp((math.sqrt(5) - 1) / 2), rel=1e-3)
    with pytest.raises(ValueError):
        concavity_threshold(1)
