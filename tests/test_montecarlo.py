import json
import math
import os
import sys
import threading

import numpy as np
import pytest
from helpers import (
    exactly_m_events,
    paired_ratio_ci,
    reference_block_failures,
    reference_critical_words,
    reference_decode,
    reference_failures,
    reference_uniforms,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlink import montecarlo
from qlink.analytic import (
    LinkParams,
    ModelMode,
    Multiplexing,
    p_stack_block_error,
    serial_penalty_ratio,
)
from qlink.codes import CodeStack, QecCode, builtin_codes, parse_code, parse_stack
from qlink.montecarlo import (
    TRIAL_BLOCK,
    McConfig,
    _critical_words,
    _decode,
    _seat,
    _word_cut,
    simulate_block_transfer,
    simulate_block_transfers,
    wilson_interval,
)

SERIAL = Multiplexing.SERIAL
PARALLEL = Multiplexing.PARALLEL
STEANE = parse_stack("7-1-3")


def _config(stack, p_t, p_m=0.0, mux=PARALLEL, trials=100_000, seed=42, workers=1, lanes=None):
    if lanes is None:
        lanes = stack.scale_up if mux is PARALLEL else 1
    link = LinkParams(p_t=p_t, p_m=p_m, multiplexing=mux, lanes=lanes)
    return McConfig(stack=stack, link=link, trials=trials, seed=seed, workers=workers)


# -------------------------------------------------------------------- config
def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(STEANE, LinkParams(p_t=0.1), trials=0)
    with pytest.raises(ValueError):
        McConfig(STEANE, LinkParams(p_t=0.1), trials=10, workers=0)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.9), ("seed", 1.0), ("seed", True), ("workers", 1.5), ("workers", True), ("trials", True),
    ("trials", 1e5), ("trials", np.float64(5e4)),
])
def test_config_refuses_a_float_or_a_bool_for_a_count_or_the_seed(field, value):
    # seed=1.9 used to run as seed 1 and echo 1.9.
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        McConfig(STEANE, LinkParams(p_t=0.1), **{"trials": 100_000, field: value})


def test_config_takes_numpy_integers():
    link = LinkParams(0.1, 0.0, SERIAL, np.int64(1))
    config = McConfig(STEANE, link, np.int64(20_000), seed=np.uint64(1), workers=np.int32(2))
    assert simulate_block_transfer(config).failures == simulate_block_transfer(
        _config(STEANE, 0.1, mux=SERIAL, trials=20_000, seed=1)).failures


def test_an_estimate_from_numpy_integers_holds_plain_numbers():
    # np.int64 trials and a np.uint64 seed used to come back as numpy fields, which json refuses.
    config = McConfig(STEANE, LinkParams(0.1), np.int64(2000), seed=np.uint64(1), workers=np.int32(1))
    estimate = simulate_block_transfer(config)
    fields = {name: getattr(estimate, name) for name in estimate._fields}
    assert {name: type(value) for name, value in fields.items()} == {
        "trials": int, "failures": int, "p_hat": float, "ci_low": float, "ci_high": float, "seed": int}
    assert json.loads(json.dumps(fields)) == fields


def test_trials_must_fit_the_engines_int64_counts():
    assert McConfig(STEANE, LinkParams(p_t=0.1), trials=2**63 - 1).trials == 2**63 - 1
    with pytest.raises(ValueError, match=r"trials must be below 2\*\*63"):
        McConfig(STEANE, LinkParams(p_t=0.1), trials=2**63)


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


@pytest.mark.parametrize("failures, trials, message", [
    (0, 0, "trials must be >= 1"),
    (5, 3, "failures must be in"),
    (-1, 10, "failures must be in"),
])
def test_wilson_interval_rejects_impossible_counts(failures, trials, message):
    with pytest.raises(ValueError, match=message):
        wilson_interval(failures, trials)


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


@pytest.mark.parametrize("cores, trials", [
    (2, 12 * TRIAL_BLOCK + 1),   # 13 tiles
    (5, 12 * TRIAL_BLOCK + 1),
    (5, 1000),                   # 1 tile: one thread
])
def test_engine_runs_at_most_one_thread_per_core(cores, trials, monkeypatch):
    # 8 requested workers: the engine starts at most one thread per core and
    # per tile, seats a generator once per tile, and the queued tile sums
    # give the one-thread counts.
    config = _config(STEANE, 0.01, trials=trials, seed=9)
    expected = simulate_block_transfer(config).failures
    tiles = -(-trials // TRIAL_BLOCK)   # a 7-1-3 tile is a whole block
    threads, seats = set(), []
    seat = montecarlo._seat

    def spy(bits, seed, block, word):
        threads.add(threading.get_ident())
        seats.append((block, word))
        seat(bits, seed, block, word)

    monkeypatch.setattr(montecarlo, "_seat", spy)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    estimate = simulate_block_transfer(McConfig(config.stack, config.link, config.trials, config.seed, workers=8))
    assert 1 <= len(threads) <= min(cores, tiles)
    assert sorted(seats) == [(block, 0) for block in range(tiles)]
    assert estimate.failures == expected


def test_tile_queue_hands_each_tile_to_one_thread_under_stress(monkeypatch):
    # 8 threads on one-row tiles with a tiny switch interval: a tile taken
    # twice or lost from the shared queue would show in the seats and counts.
    monkeypatch.setattr(montecarlo, "TILE_BYTES", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    seats, estimates = [], []
    seat = montecarlo._seat

    def spy(bits, seed, block, word):
        seats.append((block, word))
        seat(bits, seed, block, word)

    monkeypatch.setattr(montecarlo, "_seat", spy)
    config = _config(STEANE, 0.05, trials=3000, seed=4, workers=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: estimates.append(simulate_block_transfer(config)))
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert sorted(seats) == [(0, row * 7) for row in range(3000)]
    rate = config.link.fault_probability(7)
    assert [estimates[0].failures] == reference_failures(_levels(STEANE), [rate], 3000, 4)


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
    est = simulate_block_transfer(_config(stack, p_t, trials=200_000))
    exact = p_stack_block_error(stack, p_t, ModelMode.EXACT_TAIL)
    low, high = wilson_interval(est.failures, est.trials, z=3.0)
    assert low <= exact <= high


def test_two_level_stack_matches_recursion():
    stack = parse_stack("7-1-3+7-1-3")
    est = simulate_block_transfer(_config(stack, 0.03, trials=400_000, seed=5))
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
    expected_ratio = (p_stack_block_error(STEANE, q_serial, ModelMode.EXACT_TAIL)
                      / p_stack_block_error(STEANE, p_t, ModelMode.EXACT_TAIL))
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


@pytest.mark.parametrize("spec, links", [
    ("7-1-3", [(0.05, 0.0, SERIAL)]),                               # one mc config
    ("23-1-7", [(0.05, 0.0, SERIAL), (0.05, 0.0, PARALLEL)]),        # a pair at p_m = 0
    ("7-1-3+7-1-3", [(0.0, 0.0, PARALLEL), (0.02, 1e-4, SERIAL), (1.0, 0.0, SERIAL)]),
])
def test_one_live_cut_is_counted_without_a_rank(spec, links, monkeypatch):
    # With no cut strictly between 0 and the top one, the failing rows at
    # top are every count, so nothing is ranked.
    monkeypatch.setattr(montecarlo, "_critical_words", lambda *args: pytest.fail("ranked"))
    stack = parse_stack(spec)
    configs = _batch(stack, links, trials=TRIAL_BLOCK + 1000)
    rates = [config.link.fault_probability(stack.scale_up) for config in configs]
    expected = reference_failures(_levels(stack), rates, TRIAL_BLOCK + 1000, 11)
    assert [est.failures for est in simulate_block_transfers(configs)] == expected
    assert max(expected) > 0


def test_a_cut_below_top_is_ranked(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(1)
        return _critical_words(*args)

    monkeypatch.setattr(montecarlo, "_critical_words", spy)
    configs = _batch(STEANE, [(0.05, 0.0, PARALLEL), (0.02, 0.0, PARALLEL)], trials=1000)
    rates = [config.link.fault_probability(7) for config in configs]
    expected = reference_failures(_levels(STEANE), rates, 1000, 11)
    assert [est.failures for est in simulate_block_transfers(configs)] == expected
    assert calls


def test_batch_with_no_failure_at_its_largest_rate():
    configs = _batch(STEANE, [(1e-4, 0.0, PARALLEL), (3e-4, 0.0, SERIAL)], trials=1000)
    assert [est.failures for est in simulate_block_transfers(configs)] == [0, 0]


@pytest.mark.parametrize("workers", [1, 3])
def test_no_tile_is_drawn_when_no_rate_can_fail(workers, monkeypatch):
    # Every rate 0 or certain: the largest cut is 0, so no tile is drawn, and
    # no thread's count is lost either.
    monkeypatch.setattr(montecarlo, "_seat", lambda *args: pytest.fail("drew a tile"))
    stack = parse_stack("7-1-3+7-1-3")
    trials = 3 * TRIAL_BLOCK + 7
    assert simulate_block_transfer(_config(stack, 0.0, trials=trials, workers=workers)).failures == 0
    configs = _batch(stack, [(0.0, 0.0, PARALLEL), (1.0, 0.0, SERIAL), (0.0, 1.0, SERIAL)],
                     trials, workers=workers)
    assert [est.failures for est in simulate_block_transfers(configs)] == [0, trials, trials]


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
    configs.append(McConfig(**{**{name: getattr(configs[0], name) for name in McConfig._fields}, **change}))
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
        faulty = reference_uniforms(config.seed, j, rows, width) < q
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
    # The analytic penalty counts error events while the simulation counts
    # faulty qubits; a qubit hit twice is one faulty qubit but two events,
    # so agreement is leading-order only. At these rates the gap stays
    # inside 10%.
    p_t, p_m = 0.01, 0.01 / 60
    cfg = _config(STEANE, p_t, p_m, SERIAL, trials=1_000_000, seed=8)
    exactly_two = _fault_histogram(cfg)[2] / cfg.trials
    convolution = exactly_m_events(7, 2, p_t, p_m)
    assert abs(convolution - exactly_two) / convolution < 0.10


# --------------------------------------------------------------------- engine
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("block", [0, 1, 610, 2**40])
def test_seat_gives_the_jumped_substream_from_any_word(seed, block):
    # Offsets inside and across Philox's four-word groups, an odd one deep in
    # a 23-1-7+23-1-7 block (row 511 of N = 529, plus one) and a block's last
    # word; one generator is re-seated at each, as a worker is for each tile.
    bits = np.random.Philox()
    for word in (0, 1, 3, 4, 5, 511 * 529 + 1, 2**14 * 529 - 1):
        jumped = np.random.Philox(key=seed).jumped(block)
        for chunk in range(0, word, 1 << 20):   # skip to the word in bounded draws
            jumped.random_raw(min(1 << 20, word - chunk))
        _seat(bits, seed, block, word)
        assert (bits.random_raw(1000) == jumped.random_raw(1000)).all()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("block", [0, 1, 610, 2**40])
def test_uniforms_are_the_top_53_bits_of_the_words(seed, block):
    # The engine compares words, while the reference here and perfbench's
    # pin.py and calibrate.py threshold Generator.random's doubles (and
    # oracle.py checks counts pinned from them): a numpy release that changes
    # how random() turns words into doubles must fail here, not shift counts.
    def bits():
        return np.random.Philox(key=seed, counter=[0, 0, block, 0])

    uniforms = np.random.Generator(bits()).random(1000)
    from_words = (bits().random_raw(1000) >> np.uint64(11)) * 2.0**-53
    assert uniforms.tobytes() == from_words.tobytes()


def _assert_cut_matches_uniforms(q, words):
    # The engine's threshold and count, in its own uint64 forms, against the
    # layout's double comparison (each word's uniform is (w >> 11) * 2**-53),
    # with the cut alone and among other cuts. The engine compares no cut of
    # q = 1: it fails every trial, and every word's uniform is below 1.
    cut = _word_cut(q)
    expected = [(word >> 11) * 2.0**-53 < q for word in words]
    if q == 1.0:
        assert all(expected)
        return
    array = np.array(words, dtype=np.uint64)
    assert (array < np.uint64(cut)).tolist() == expected
    ranked = np.sort(array)
    for cuts in ([cut], [0, cut, 2**64 - 1], [2**64 - 1, cut, 2**63]):
        bounds = np.array(cuts, dtype=np.uint64)
        assert np.searchsorted(ranked, bounds, side="left")[cuts.index(cut)] == sum(expected)


@pytest.mark.parametrize("q", [0.0, 5e-324, 2**-53, math.nextafter(2**-53, 1), 3 * 2**-53,
                               1.1e-3, math.nextafter(1, 0), 1.0])
def test_word_cut_edges_match_the_uniform_comparison(q):
    cut = _word_cut(q)
    words = [w for w in (0, cut - 1, cut, 2**64 - 1) if 0 <= w < 2**64]
    _assert_cut_matches_uniforms(q, words)


def test_word_cut_extremes():
    assert _word_cut(0.0) == 0                  # no word is below it
    assert _word_cut(5e-324) == 2**11           # only words whose uniform is 0
    assert _word_cut(1.0) == 2**64              # every word is below it
    assert _word_cut(math.nextafter(1, 0)) == 2**64 - 2**11


@settings(max_examples=300, deadline=None)
@given(q=st.floats(0.0, 1.0), offsets=st.lists(st.integers(-2**12, 2**12), min_size=1, max_size=8))
def test_word_cut_matches_the_uniform_comparison(q, offsets):
    cut = _word_cut(q)
    words = [min(max(cut + offset, 0), 2**64 - 1) for offset in offsets]
    _assert_cut_matches_uniforms(q, words)


@pytest.mark.parametrize("spec, seed", [("7-1-3", 5), ("23-1-7", 2**64 - 1)])
def test_engine_splits_rates_at_a_trials_critical_uniform(spec, seed):
    # The trial with the least critical uniform u* (its min_fail-th smallest)
    # fails at the next double above u* but not at u* itself.
    stack = parse_stack(spec)
    code = stack.levels[0]
    trials = 3000
    uniforms = reference_uniforms(seed, 0, trials, stack.scale_up)
    u_star = np.sort(uniforms, axis=1)[:, code.min_fail - 1].min()
    rates = [float(u_star), math.nextafter(float(u_star), 1)]
    configs = [McConfig(stack, LinkParams(q), trials, seed) for q in rates]
    assert [config.link.fault_probability(stack.scale_up) for config in configs] == rates
    counts = [est.failures for est in simulate_block_transfers(configs)]
    assert counts == [0, 1]
    assert counts == reference_failures(_levels(stack), rates, trials, seed)


def _levels(stack):
    return [(code.n, code.d) for code in stack.levels]


def _assert_decode_matches_reference(faulty, stack):
    # Every level's mask, not only the top column: the rank reads them all.
    masks = _decode(faulty, stack)
    expected = reference_block_failures(faulty, _levels(stack))
    assert [mask.shape for mask in masks] == [mask.shape for mask in expected]
    assert all((mask == reference).all() for mask, reference in zip(masks, expected))
    assert (masks[-1][:, 0] == reference_decode(faulty, _levels(stack))).all()
    return masks[-1][:, 0]


@pytest.mark.parametrize("spec", ["none"] + [code.spec() for code in builtin_codes()]
                         + ["7-1-3+7-1-3", "23-1-7+23-1-7", "5-1-3+9-1-3", "5-1-3+5-1-3+7-1-3"])
@pytest.mark.parametrize("rows", [0, 1, 3000])
def test_decode_matches_reference(spec, rows):
    stack = parse_stack(spec)
    rng = np.random.default_rng(rows)
    for q in (0.02, 0.2, 0.6):
        faulty = rng.random((rows, stack.scale_up)) < q
        assert _assert_decode_matches_reference(faulty, stack).shape == (rows,)


def test_decode_counts_past_255_members():
    stack = CodeStack((QecCode(257, 1, 255),))   # min_fail 128
    faulty = np.random.default_rng(3).random((500, 257)) < 0.5
    faulty[0] = True   # 257 faulty members: a uint8 count wraps to 1
    faulty[1] = np.arange(257) < 128
    faulty[2] = np.arange(257) < 127
    decoded = _assert_decode_matches_reference(faulty, stack)
    assert decoded[:3].tolist() == [True, True, False]


class _CountedCalls(np.ndarray):
    """An array that counts the numpy functions and ufuncs called on it and on what they return."""

    calls = 0

    def __array_function__(self, func, types, args, kwargs):
        _CountedCalls.calls += 1
        result = super().__array_function__(func, types, args, kwargs)
        return result.view(_CountedCalls) if isinstance(result, np.ndarray) else result

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        _CountedCalls.calls += 1
        plain = [x.view(np.ndarray) if isinstance(x, np.ndarray) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(x.view(np.ndarray) for x in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        return result.view(_CountedCalls) if isinstance(result, np.ndarray) else result


@pytest.mark.parametrize("spec", ["5-1-3", "7-1-3", "23-1-7+23-1-7", "5-1-3+9-1-3+7-1-3"])
def test_decode_counts_each_level_in_one_call(spec, monkeypatch):
    # One count and one threshold per level, whatever n is: a loop over a
    # block's members would make n - 1 calls at that level.
    monkeypatch.setattr(_CountedCalls, "calls", 0)
    stack = parse_stack(spec)
    faulty = np.random.default_rng(5).random((300, stack.scale_up)) < 0.3
    masks = _decode(faulty.view(_CountedCalls), stack)
    assert 0 < _CountedCalls.calls <= 2 * len(stack.levels)
    assert all((mask == plain).all() for mask, plain in zip(masks, _decode(faulty, stack)))


def _critical_words_at(words, stack, top):
    # The engine's per-tile rank: decode at the top cut, then rank what fails.
    return _critical_words(words, _decode(words < np.uint64(top), stack), stack).tolist()


def _failing_reference(words, stack, top):
    # The failing rows' unpruned critical words, compared as Python ints.
    return sorted(c for c in reference_critical_words(words, _levels(stack)).tolist() if c < top)


_RANK_STACKS = ["none", *(code.spec() for code in builtin_codes()),
                "5-1-3+9-1-3", "9-1-3+5-1-3", "7-1-3+7-1-3", "5-1-3+5-1-3+7-1-3"]


@settings(max_examples=200, deadline=None)
@given(spec=st.sampled_from(_RANK_STACKS), rows=st.integers(100, 400),
       seed=st.integers(0, 2**64 - 1), share=st.floats(0.01, 0.9))
def test_critical_words_match_the_unpruned_reference(spec, rows, seed, share):
    # Cuts at which only some rows fail: where every row fails, ranking the
    # wrong rows' blocks or every row's failing blocks can go unseen.
    stack = parse_stack(spec)
    words = np.random.Philox(key=seed).random_raw(rows * stack.scale_up).reshape(rows, stack.scale_up)
    top = int(np.sort(reference_critical_words(words, _levels(stack)))[math.ceil(share * rows) - 1]) + 1
    expected = _failing_reference(words, stack, top)
    assert 0.01 * rows <= len(expected) <= math.ceil(0.9 * rows)
    assert _critical_words_at(words, stack, top) == expected


@pytest.mark.parametrize("spec", ["none", "7-1-3", "5-1-3+9-1-3", "5-1-3+5-1-3+7-1-3"])
@pytest.mark.parametrize("rows", [0, 1, 200])
def test_critical_words_at_the_edge_cuts_and_words(spec, rows):
    # Tied words and the largest word 2**64 - 1, which equals the stand-in,
    # at cuts that fail no row, every row, or some.
    stack = parse_stack(spec)
    rng = np.random.default_rng(rows)
    edge_words = np.array([0, 1, 2**63, 2**64 - 2, 2**64 - 1], dtype=np.uint64)
    for words in (rng.choice(edge_words, size=(rows, stack.scale_up)),
                  np.random.Philox(key=rows).random_raw(rows * stack.scale_up).reshape(rows, stack.scale_up)):
        for top in (0, 1, 2**63, 2**64 - 1):
            assert _critical_words_at(words, stack, top) == _failing_reference(words, stack, top)
        assert _critical_words_at(words, stack, 0) == []
    below_top = rng.choice(edge_words[:-1], size=(rows, stack.scale_up))   # every row fails
    critical = _critical_words_at(below_top, stack, 2**64 - 1)
    assert len(critical) == rows and critical == _failing_reference(below_top, stack, 2**64 - 1)


@pytest.mark.parametrize("spec, p_ts", [
    ("7-1-3+7-1-3", (0.1, 0.02, 0.05)),       # N = 49: two tiles per block
    ("23-1-7+23-1-7", (0.15, 0.05, 0.1)),     # N = 529: 32 tiles per block
])
@pytest.mark.parametrize("tile_bytes, trials", [
    (montecarlo.TILE_BYTES, TRIAL_BLOCK + 1000),   # a partial last block and tile
    (1, 40),                                       # one row per tile
])
@pytest.mark.parametrize("workers", [1, 3])
def test_tiled_draws_match_whole_block_draws(spec, p_ts, tile_bytes, trials, workers, monkeypatch):
    # With 3 workers (and 3 cores, whatever the host has) the tiles of one
    # block land on different threads.
    monkeypatch.setattr(montecarlo, "TILE_BYTES", tile_bytes)
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    stack = parse_stack(spec)
    configs = [_config(stack, p_t, trials=trials, seed=31, workers=workers) for p_t in p_ts]
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
@example(spec="7-1-3", p_ts=[1.0, 0.05], trials=20_000, seed=5)
@example(spec="7-1-3+7-1-3", p_ts=[1.0], trials=20_000, seed=5)
def test_engine_matches_brute_force_reference(spec, p_ts, trials, seed):
    stack = parse_stack(spec)
    configs = [McConfig(stack, LinkParams(p_t), trials, seed) for p_t in p_ts]
    rates = [config.link.fault_probability(stack.scale_up) for config in configs]
    expected = reference_failures(_levels(stack), rates, trials, seed)
    assert [est.failures for est in simulate_block_transfers(configs)] == expected


# ----------------------------------------------------------- serial penalty
def _pair(spec, p_t, p_m, trials, seed=0, workers=1):
    """Serial and parallel estimates for one code from one batch, as c4 runs them."""
    stack = parse_stack(spec)
    return simulate_block_transfers([
        _config(stack, p_t, p_m, mux, trials=trials, seed=seed, workers=workers) for mux in (SERIAL, PARALLEL)
    ])


def test_serial_parallel_pair_steane():
    serial, parallel = _pair("7-1-3", 1e-3, 1e-3 / 60, trials=400_000, seed=21)
    # One batch, and the same counts as two separate runs.
    for est, mux in ((serial, SERIAL), (parallel, PARALLEL)):
        single = simulate_block_transfer(_config(STEANE, 1e-3, 1e-3 / 60, mux, trials=400_000, seed=21))
        assert est.failures == single.failures
    assert 1.24 <= serial_penalty_ratio(parse_code("7-1-3"), 1e-3, 1e-3 / 60) <= 1.26
    assert serial.failures >= parallel.failures > 0
    low, high = paired_ratio_ci(serial.failures, parallel.failures)
    assert low <= serial.failures / parallel.failures <= high


def test_serial_penalty_ci_inverts_the_paired_wilson_interval():
    # Parallel failures are a subset of serial ones on shared draws, so P out
    # of S is binomial and the ratio S / P inherits its Wilson bounds.
    serial, parallel = (est.failures for est in _pair("7-1-3", 1e-2, 1e-2 / 6, trials=20_000, seed=5))
    assert serial > parallel > 0
    low, high = wilson_interval(parallel, serial)
    ci = paired_ratio_ci(serial, parallel)
    assert ci == (1.0 / high, 1.0 / low)
    assert ci[0] <= serial / parallel <= ci[1]


def test_serial_penalty_one_qubit_code_never_waits():
    # A one-qubit block has no wait slots, so even a poor memory costs nothing.
    assert serial_penalty_ratio(parse_code("1-1-1"), 0.1, 0.5) == 1.0
    serial, parallel = _pair("1-1-1", 0.1, 0.5, trials=2000)
    assert serial.failures == parallel.failures > 0
