import math
import sys

import numpy as np
import pytest
from helpers import (
    event_ratio,
    leading_penalty_limit,
    reference_decode,
    reference_failures,
    union_fault,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlink import montecarlo
from qlink.analytic import (
    LinkParams,
    ModelMode,
    Multiplexing,
    combined_failure_analytic,
    p_block_error,
    serial_penalty_ratio,
)
from qlink.codes import CodeStack, QecCode, builtin_codes, parse_code, parse_stack
from qlink.montecarlo import (
    TRIAL_BLOCK,
    McConfig,
    _block_rng,
    _decode,
    serial_penalty_report,
    simulate_block_transfer,
    simulate_block_transfers,
    wilson_interval,
)
from qlink.timing import recommend

SERIAL = Multiplexing.SERIAL
PARALLEL = Multiplexing.PARALLEL
STEANE = parse_stack("7-1-3")


def _config(stack, p_t, p_m=0.0, mux=PARALLEL, trials=100_000, seed=42, workers=1, lanes=None):
    if lanes is None:
        lanes = stack.scale_up if mux is PARALLEL else 1
    link = LinkParams(p_t=p_t, p_m=p_m, multiplexing=mux, lanes=lanes)
    return McConfig(stack=stack, link=link, trials=trials, seed=seed, workers=workers)


# -------------------------------------------------------------------- params
def test_link_params_validation():
    with pytest.raises(ValueError):
        LinkParams(p_t=1.5)
    with pytest.raises(ValueError):
        LinkParams(p_t=0.1, p_m=-0.2)
    with pytest.raises(ValueError):
        LinkParams(p_t=0.1, multiplexing=SERIAL, lanes=3)
    with pytest.raises(ValueError):
        LinkParams(p_t=0.1, lanes=0)


def test_wait_slots():
    serial = LinkParams(p_t=0.1, multiplexing=SERIAL)
    wide = LinkParams(p_t=0.1, multiplexing=PARALLEL, lanes=7)
    narrow = LinkParams(p_t=0.1, multiplexing=PARALLEL, lanes=3)
    assert serial.wait_slots(7) == 6
    assert wide.wait_slots(7) == 0
    assert narrow.wait_slots(7) == 2  # ceil(7 / 3) - 1 rounds of waiting


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(STEANE, LinkParams(p_t=0.1), trials=0)
    with pytest.raises(ValueError):
        McConfig(STEANE, LinkParams(p_t=0.1), trials=10, workers=0)


# -------------------------------------------------------------------- wilson
def test_wilson_interval_basic_properties():
    for failures, trials in [(0, 100), (1, 100), (50, 100), (100, 100), (3, 10**6)]:
        low, high = wilson_interval(failures, trials)
        p_hat = failures / trials
        assert 0.0 <= low <= p_hat <= high <= 1.0


def test_wilson_interval_edge_bounds():
    low, high = wilson_interval(0, 1000)
    assert low == 0.0 and high > 0.0
    low, high = wilson_interval(1000, 1000)
    assert high == 1.0 and low < 1.0


# ---------------------------------------------------------------- simulation
def test_no_error_sources_never_fail():
    for spec in ("none", "7-1-3", "23-1-7+7-1-3"):
        est = simulate_block_transfer(_config(parse_stack(spec), 0.0, 0.0, SERIAL, trials=20_000))
        assert est.failures == 0
        assert est.p_hat == 0.0


def test_estimate_consistency_fields():
    est = simulate_block_transfer(_config(STEANE, 0.01, trials=50_000))
    assert est.p_hat == est.failures / est.trials
    assert est.ci_low <= est.p_hat <= est.ci_high
    assert est.seed == 42


def test_stream_layout_frozen():
    # Guards the seed -> draws mapping; a change here breaks reproducibility
    # of every recorded result.
    est = simulate_block_transfer(_config(STEANE, 0.01, trials=200_000, seed=42))
    assert est.failures == 380


def test_seed_determinism_across_workers():
    counts = set()
    for workers in (1, 2, 8):
        est = simulate_block_transfer(_config(STEANE, 0.01, trials=150_000, seed=9, workers=workers))
        counts.add(est.failures)
    assert len(counts) == 1


def test_different_seeds_differ():
    a = simulate_block_transfer(_config(STEANE, 0.01, trials=100_000, seed=1))
    b = simulate_block_transfer(_config(STEANE, 0.01, trials=100_000, seed=2))
    assert a.failures != b.failures


def test_trial_prefix_consistency():
    # Trial i consumes the same draws whatever the total trial count, so a
    # longer run at the same seed can only add failures. Sizes straddle the
    # internal block boundary on purpose.
    sizes = (5_000, 16_384, 16_385, 40_000, 120_000)
    counts = [
        simulate_block_transfer(_config(STEANE, 0.03, trials=n, seed=14)).failures
        for n in sizes
    ]
    assert counts == sorted(counts)
    assert counts[0] > 0


@pytest.mark.parametrize("spec", ["5-1-3", "7-1-3", "23-1-7"])
@pytest.mark.parametrize("p_t", [0.01, 0.03])
def test_matches_exact_tail_with_perfect_memory(spec, p_t):
    stack = parse_stack(spec)
    code = stack.levels[0]
    est = simulate_block_transfer(_config(stack, p_t, trials=200_000))
    exact = p_block_error(code.n, code.min_fail, p_t, ModelMode.EXACT_TAIL)
    low, high = wilson_interval(est.failures, est.trials, z=3.0)
    assert low <= exact <= high


def test_two_level_stack_matches_recursion():
    stack = parse_stack("7-1-3+7-1-3")
    est = simulate_block_transfer(_config(stack, 0.03, trials=400_000, seed=5))
    from qlink.analytic import p_stack_block_error

    exact = p_stack_block_error(stack, 0.03, ModelMode.EXACT_TAIL)
    low, high = wilson_interval(est.failures, est.trials, z=3.0)
    assert low <= exact <= high


def test_serial_dominates_parallel():
    # Same seed means shared draws, so the serial failure set contains the
    # parallel one trial by trial; the estimates must also separate cleanly
    # at p_m = p_t.
    serial = simulate_block_transfer(_config(STEANE, 0.01, 0.01, SERIAL, trials=100_000, seed=3))
    parallel = simulate_block_transfer(_config(STEANE, 0.01, 0.01, PARALLEL, trials=100_000, seed=3))
    assert serial.failures >= parallel.failures
    assert serial.ci_low > parallel.ci_high


def test_ci_width_shrinks_like_root_trials():
    small = simulate_block_transfer(_config(STEANE, 0.03, trials=10_000, seed=6))
    large = simulate_block_transfer(_config(STEANE, 0.03, trials=100_000, seed=6))
    shrink = (large.ci_high - large.ci_low) / (small.ci_high - small.ci_low)
    assert 0.25 <= shrink <= 0.45


def test_serial_ratio_matches_union_model():
    # The per-qubit fault probability under serial transfer is the union of
    # teleport and waiting-memory errors; the simulated serial/parallel ratio
    # must follow the exact tail at that united rate.
    p_t, p_m = 0.01, 0.01 / 60
    cfg_s = _config(STEANE, p_t, p_m, SERIAL, trials=2_000_000, seed=17)
    cfg_p = _config(STEANE, p_t, p_m, PARALLEL, trials=2_000_000, seed=17)
    serial = simulate_block_transfer(cfg_s)
    parallel = simulate_block_transfer(cfg_p)
    q_serial = cfg_s.link.fault_probability(7)
    expected_ratio = p_block_error(7, 2, q_serial, ModelMode.EXACT_TAIL) / p_block_error(
        7, 2, p_t, ModelMode.EXACT_TAIL
    )
    observed = serial.p_hat / parallel.p_hat
    assert observed == pytest.approx(expected_ratio, rel=0.05)


# ------------------------------------------------------------------- batches
# Unsorted, with p_t = 0 and 1, a duplicate, and serial and parallel at the
# same fault probability (p_m = 0 leaves serial links no extra fault).
BATCH_LINKS = (
    (0.05, 0.0, PARALLEL),
    (0.0, 0.0, SERIAL),
    (0.1, 1e-4, SERIAL),
    (1.0, 0.0, PARALLEL),
    (0.01, 0.0, PARALLEL),
    (0.05, 0.0, SERIAL),
    (0.1, 1e-4, SERIAL),
)


def _batch(stack, links, trials, seed=11, workers=1):
    return [_config(stack, p_t, p_m, mux, trials, seed, workers) for p_t, p_m, mux in links]


@pytest.mark.parametrize("spec", ["none", "7-1-3", "23-1-7", "7-1-3+7-1-3", "23-1-7+23-1-7"])
def test_batch_matches_one_run_per_config(spec):
    # A single config is only thresholded and decoded; a batch also ranks
    # the trials that fail at its largest rate. Both must count the same
    # failures, here over one full and one partial trial block.
    configs = _batch(parse_stack(spec), BATCH_LINKS, trials=TRIAL_BLOCK + 1000)
    estimates = simulate_block_transfers(configs)
    for config, est in zip(configs, estimates):
        assert est == simulate_block_transfer(config)
    batch = [est.failures for est in estimates]
    assert batch[1] == 0 and batch[3] == TRIAL_BLOCK + 1000
    assert batch[0] == batch[5] and batch[2] == batch[6]
    assert len(set(batch)) >= 4


def test_batch_with_no_failure_at_its_largest_rate():
    configs = _batch(STEANE, [(1e-4, 0.0, PARALLEL), (3e-4, 0.0, SERIAL)], trials=1000)
    assert [est.failures for est in simulate_block_transfers(configs)] == [0, 0]


def test_batch_determinism_across_workers():
    stack = parse_stack("7-1-3+7-1-3")
    runs = {
        tuple(est.failures for est in simulate_block_transfers(
            _batch(stack, BATCH_LINKS, trials=3 * TRIAL_BLOCK + 7, workers=workers)))
        for workers in (1, 2, 8)
    }
    assert len(runs) == 1


@pytest.mark.parametrize("change", [
    {"stack": parse_stack("23-1-7")},
    {"trials": 999},
    {"seed": 12},
    {"workers": 2},
])
def test_batch_rejects_configs_that_cannot_share_draws(change):
    configs = _batch(STEANE, BATCH_LINKS[:2], trials=1000)
    configs.append(McConfig(**{**vars(configs[0]), **change}))
    with pytest.raises(ValueError, match="must share"):
        simulate_block_transfers(configs)


def test_batch_rejects_empty():
    with pytest.raises(ValueError):
        simulate_block_transfers([])


# ------------------------------------------------------------ fault histogram
def _fault_histogram(config):
    """Trials per faulty-qubit count, tallied over the engine's own draws."""
    width = config.stack.scale_up
    q = config.link.fault_probability(width)
    hist = np.zeros(width + 1, dtype=np.int64)
    for j in range(-(-config.trials // TRIAL_BLOCK)):
        rows = min(TRIAL_BLOCK, config.trials - j * TRIAL_BLOCK)
        faulty = _block_rng(config.seed, j).random((rows, width)) < q
        hist += np.bincount(faulty.sum(axis=1), minlength=width + 1)
    return hist


def test_fault_histogram_totals_and_determinism():
    cfg = _config(STEANE, 0.01, trials=50_000, seed=12)
    hist = _fault_histogram(cfg)
    assert hist.sum() == cfg.trials
    assert hist.shape == (8,)
    assert (hist == _fault_histogram(cfg)).all()
    # The trials with at least min_fail faulty qubits are the engine's failures.
    assert hist[2:].sum() == simulate_block_transfer(cfg).failures


def test_event_convolution_tracks_faulty_qubit_frequency():
    # The analytic convolution counts error events while the simulation
    # counts faulty qubits; a qubit hit twice is one faulty qubit but two
    # events, so agreement is leading-order only. At these rates the gap
    # stays inside 10%.
    p_t, p_m = 0.01, 0.01 / 60
    cfg = _config(STEANE, p_t, p_m, SERIAL, trials=1_000_000, seed=8)
    exactly_two = _fault_histogram(cfg)[2] / cfg.trials
    convolution = combined_failure_analytic(7, 2, p_t, p_m)
    assert abs(convolution - exactly_two) / convolution < 0.10


# --------------------------------------------------------------------- engine
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("block", [0, 1, 610, 2**40])
def test_block_rng_is_the_jumped_substream(seed, block):
    jumped = np.random.Generator(np.random.Philox(key=seed).jumped(block))
    assert (_block_rng(seed, block).random(1000) == jumped.random(1000)).all()


def _levels(stack):
    return [(code.n, code.d) for code in stack]


@pytest.mark.parametrize("spec", [code.spec() for code in builtin_codes()]
                         + ["7-1-3+7-1-3", "23-1-7+23-1-7"])
@pytest.mark.parametrize("rows", [0, 1, 3000])
def test_decode_matches_reference(spec, rows):
    stack = parse_stack(spec)
    rng = np.random.default_rng(rows)
    for q in (0.02, 0.2, 0.6):
        faulty = rng.random((rows, stack.scale_up)) < q
        decoded = _decode(faulty, stack)
        assert decoded.shape == (rows,)
        assert (decoded == reference_decode(faulty, _levels(stack))).all()


def test_decode_counts_past_255_members():
    stack = CodeStack((QecCode("257-1-255", 257, 1, 255),))   # min_fail 128
    faulty = np.random.default_rng(3).random((500, 257)) < 0.5
    faulty[0] = True   # 257 faulty members: a uint8 count wraps to 1
    faulty[1] = np.arange(257) < 128
    faulty[2] = np.arange(257) < 127
    decoded = _decode(faulty, stack)
    assert decoded[:3].tolist() == [True, True, False]
    assert (decoded == reference_decode(faulty, _levels(stack))).all()


@pytest.mark.parametrize("spec, p_ts", [
    ("7-1-3+7-1-3", (0.1, 0.02, 0.05)),       # N = 49: two tiles per block
    ("23-1-7+23-1-7", (0.15, 0.05, 0.1)),     # N = 529: 17 tiles per block
])
@pytest.mark.parametrize("tile_bytes, trials", [
    (montecarlo.TILE_BYTES, TRIAL_BLOCK + 1000),   # a partial last block and tile
    (1, 40),                                       # one row per tile
])
def test_tiled_draws_match_whole_block_draws(spec, p_ts, tile_bytes, trials, monkeypatch):
    monkeypatch.setattr(montecarlo, "TILE_BYTES", tile_bytes)
    stack = parse_stack(spec)
    configs = [_config(stack, p_t, trials=trials, seed=31) for p_t in p_ts]
    rates = [config.link.fault_probability(stack.scale_up) for config in configs]
    expected = reference_failures(_levels(stack), rates, trials, 31)
    assert [est.failures for est in simulate_block_transfers(configs)] == expected
    assert [simulate_block_transfer(configs[0]).failures] == expected[:1]
    assert len(set(expected)) == 3


_BUILTIN = st.sampled_from([code.spec() for code in builtin_codes()])


@settings(max_examples=60, deadline=None)
@given(
    spec=st.one_of(st.just("none"), _BUILTIN, st.tuples(_BUILTIN, _BUILTIN).map("+".join)),
    p_ts=st.lists(st.one_of(st.just(0.0), st.sampled_from([0.01, 0.05, 0.2]), st.floats(0.0, 1.0)),
                  min_size=1, max_size=4),
    trials=st.integers(1, 40_000),
    seed=st.integers(0, 2**64 - 1),
)
@example(spec="23-1-7+7-1-3", p_ts=[0.05, 0.0, 0.05, 0.2], trials=40_000, seed=2**64 - 1)
def test_engine_matches_brute_force_reference(spec, p_ts, trials, seed):
    stack = parse_stack(spec)
    configs = [McConfig(stack, LinkParams(p_t), trials, seed) for p_t in p_ts]
    rates = [config.link.fault_probability(stack.scale_up) for config in configs]
    expected = reference_failures(_levels(stack), rates, trials, seed)
    assert [est.failures for est in simulate_block_transfers(configs)] == expected


# ------------------------------------------------------- combined failure rate
def test_combined_collapses_without_memory_errors():
    for n, m, p in ((7, 2, 0.01), (23, 4, 0.003)):
        direct = math.comb(n, m) * p**m * (1 - p) ** (n - m)
        assert combined_failure_analytic(n, m, p, 0.0) == pytest.approx(direct, rel=1e-14)


def test_combined_ratio_frozen_values():
    # p_m = p_t / (10 (n-1)) puts the aggregated waiting error at p_t / 10.
    # The constants are the decimal oracle's values.
    assert event_ratio(7, 2, 1e-3, 1e-3 / 60) == 1.2422249034245774
    assert event_ratio(23, 4, 1e-3, 1e-3 / 220) == 1.5328696686019845
    r7 = combined_failure_analytic(7, 2, 1e-3, 1e-3 / 60) / combined_failure_analytic(7, 2, 1e-3, 0)
    r23 = combined_failure_analytic(23, 4, 1e-3, 1e-3 / 220) / combined_failure_analytic(
        23, 4, 1e-3, 0
    )
    assert r7 == pytest.approx(1.2422249034245774, rel=1e-12)
    assert r23 == pytest.approx(1.5328696686019845, rel=1e-12)


def test_faulty_qubit_union_ratio_frozen_values():
    # The simulator's model: a qubit is faulty iff at least one event hits
    # it, so the serial/parallel ratio is the exact tail at the union rate.
    # It sits below the event convolution's 1.2422 and 1.5329, because the
    # convolution counts n same-qubit pairs among its n^2 as two faults.
    for spec, expected in (("7-1-3", 1.2094), ("23-1-7", 1.4613)):
        code = parse_code(spec)
        p_m = 1e-3 * 0.1 / (code.n - 1)
        q_serial = LinkParams(1e-3, p_m, SERIAL).fault_probability(code.n)
        ratio = p_block_error(code.n, code.min_fail, q_serial, ModelMode.EXACT_TAIL) / p_block_error(
            code.n, code.min_fail, 1e-3, ModelMode.EXACT_TAIL
        )
        assert ratio == pytest.approx(expected, abs=5e-5)


def test_combined_ratio_leading_order_limits():
    # As p_t -> 0 the ratios approach the expansion coefficients:
    # (21 + 49/10 + 21/100) / 21 for seven qubits and the matching sum for
    # twenty-three.
    r7 = combined_failure_analytic(7, 2, 1e-8, 1e-8 / 60) / combined_failure_analytic(7, 2, 1e-8, 0)
    assert r7 == pytest.approx(26.11 / 21, rel=1e-6)
    r23 = combined_failure_analytic(23, 4, 1e-8, 1e-8 / 220) / combined_failure_analytic(
        23, 4, 1e-8, 0
    )
    expected = (8855 + 4073.3 + 640.09 + 40.733 + 0.8855) / 8855
    assert r23 == pytest.approx(expected, rel=1e-6)


@given(code=st.sampled_from(builtin_codes()), share=st.floats(0.0, 1.0))
@example(code=parse_code("23-1-7"), share=0.0).via("the smallest p_t")
@example(code=parse_code("7-1-3"), share=1.0).via("p_t = 1e-12")
def test_penalty_ratio_tends_to_its_leading_order_limit(code, share):
    # From p_t = 1e-12 down to where p_t^m is still a normal float, the
    # ratio at the CLI's default p_m sits on its p_t -> 0 limit: a memory
    # rate cancelled against 1 would put it percents off.
    smallest = math.log10(sys.float_info.min) / code.min_fail + 1e-9
    p_t = 10 ** (smallest + share * (-12 - smallest))
    assert p_t**code.min_fail >= sys.float_info.min
    limit = leading_penalty_limit(code.n, code.min_fail)
    quoted = {"5-1-3": 1.26, "7-1-3": 1.24333, "9-1-3": 1.235, "23-1-7": 1.53699}
    assert limit == pytest.approx(quoted[code.spec()], abs=5e-6)
    assert serial_penalty_ratio(code, p_t, p_t / (10 * (code.n - 1))) == pytest.approx(limit, rel=1e-9)


@given(p_t=st.floats(0.0, 1.0), p_m=st.floats(0.0, 1.0), slots=st.integers(0, 600))
@example(p_t=1e-300, p_m=1e-300, slots=528).via("rates far below one ulp of 1")
@example(p_t=1.0, p_m=0.5, slots=6).via("certain teleportation error")
@example(p_t=0.1, p_m=1.0, slots=6).via("certain memory error")
@example(p_t=0.1, p_m=1.0, slots=0).via("certain memory error, no wait")
def test_fault_probability_matches_decimal_union(p_t, p_m, slots):
    # A serial link waits block_size - 1 slots.
    q = LinkParams(p_t, p_m, SERIAL).fault_probability(slots + 1)
    assert q == pytest.approx(union_fault(p_t, p_m, slots), rel=1e-13, abs=0.0)


def test_combined_validates_inputs():
    with pytest.raises(ValueError):
        combined_failure_analytic(7, 8, 0.01, 0.001)
    with pytest.raises(ValueError):
        combined_failure_analytic(7, 2, 1.5, 0.001)


# ------------------------------------------------------------- penalty report
def test_serial_penalty_report_steane():
    report = serial_penalty_report(parse_code("7-1-3"), 1e-3, 1e-3 / 60, trials=400_000, seed=21)
    # One batch, and the same counts as two separate runs.
    for est, mux in ((report.serial, SERIAL), (report.parallel, PARALLEL)):
        single = simulate_block_transfer(_config(STEANE, 1e-3, report.p_m, mux, trials=400_000, seed=21))
        assert est.failures == single.failures
    assert report.p_m == 1e-3 / 60
    assert 1.24 <= report.analytic_ratio <= 1.26
    assert report.serial.failures >= report.parallel.failures
    assert report.mc_ratio_ci[0] <= report.mc_ratio <= report.mc_ratio_ci[1]


def test_serial_penalty_ci_inverts_the_paired_wilson_interval():
    # Parallel failures are a subset of serial ones on shared draws, so P out
    # of S is binomial and the ratio S / P inherits its Wilson bounds.
    report = serial_penalty_report(parse_code("7-1-3"), 1e-2, 1e-2 / 6, trials=20_000, seed=5)
    serial, parallel = report.serial.failures, report.parallel.failures
    assert serial > parallel > 0
    low, high = wilson_interval(parallel, serial)
    assert report.mc_ratio == serial / parallel
    assert report.mc_ratio_ci == (1.0 / high, 1.0 / low)


def test_serial_penalty_without_parallel_failures_has_no_ratio():
    report = serial_penalty_report(parse_code("7-1-3"), 1e-4, 1e-4 / 60, trials=1000, seed=5)
    assert report.parallel.failures == 0
    assert math.isnan(report.mc_ratio)
    assert report.mc_ratio_ci == (0.0, math.inf)


def test_serial_penalty_vanishes_with_perfect_memory():
    report = serial_penalty_report(parse_code("7-1-3"), 1e-3, 1e-12 / 6, trials=1000)
    assert report.analytic_ratio == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("spec", ["7-1-3", "23-1-7"])
def test_recommend_and_report_share_the_analytic_ratio(spec):
    code = parse_code(spec)
    p_m = 1e-3 / (10 * (code.n - 1))
    report = serial_penalty_report(code, 1e-3, p_m, trials=1000)
    rec = recommend(code, 1.0, 100.0, 1e-3, p_m)
    assert rec.reliability_ratio == report.analytic_ratio == serial_penalty_ratio(code, 1e-3, p_m)


def test_vanishing_failures_are_no_penalty_in_both_callers():
    report = serial_penalty_report(parse_code("7-1-3"), 0.0, 0.0, trials=1000)
    rec = recommend(parse_code("7-1-3"), 1.0, 100.0, 0.0, 0.0)
    assert report.analytic_ratio == rec.reliability_ratio == 1.0


def test_unbounded_ratio_raises_in_both_callers_before_any_trial(monkeypatch):
    # At p_t = 1e-160 the teleportation-only failure is a subnormal 2.1e-319,
    # and p_m = 0.05 makes the combined one large enough to overflow the ratio.
    code = parse_code("7-1-3")
    monkeypatch.setattr(montecarlo, "simulate_block_transfers", pytest.fail)
    with pytest.raises(ValueError, match="ratio is unbounded"):
        serial_penalty_report(code, 1e-160, 0.05)
    with pytest.raises(ValueError, match="ratio is unbounded"):
        recommend(code, 1.0, 100.0, 1e-160, 0.05)


def test_serial_penalty_rejects_negative_memory_rate_before_any_trial(monkeypatch):
    monkeypatch.setattr(montecarlo, "simulate_block_transfers", pytest.fail)
    with pytest.raises(ValueError, match=r"p_m must be in \[0, 1\]"):
        serial_penalty_report(parse_code("7-1-3"), 1e-3, -1e-4, trials=1000)


def test_serial_penalty_one_qubit_code_never_waits():
    # A one-qubit block has no wait slots, so even a poor memory costs nothing.
    report = serial_penalty_report(parse_code("1-1-1"), 0.1, 0.5, trials=2000)
    assert report.analytic_ratio == 1.0
    assert report.serial.failures == report.parallel.failures > 0
