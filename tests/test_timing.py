import random

import pytest

from qlink.analytic import Multiplexing
from qlink.codes import parse_code
from qlink.timing import TimingParams, cycle_times, recommend

STEANE = parse_code("7-1-3")
GOLAY = parse_code("23-1-7")


def test_pure_serialization_slowdown_is_block_size():
    times = cycle_times(TimingParams(t_t=1.0, t_lqec=0.0, n=7))
    assert times.slowdown == pytest.approx(7.0)
    assert times.start_delay_factor == 7


def test_slow_local_correction_hides_serial_transfer():
    times = cycle_times(TimingParams(t_t=1.0, t_lqec=100.0, n=7))
    assert times.serial == pytest.approx(107.0)
    assert times.parallel == pytest.approx(101.0)
    assert times.slowdown == pytest.approx(107.0 / 101.0)


def test_larger_block_slows_more():
    times = cycle_times(TimingParams(t_t=1.0, t_lqec=100.0, n=23))
    assert times.slowdown == pytest.approx(123.0 / 101.0)


def test_intermediate_lanes_round_up():
    times = cycle_times(TimingParams(t_t=1.0, t_lqec=10.0, n=7, lanes=3))
    assert times.serial == pytest.approx(3 * 1.0 + 10.0)
    assert times.start_delay_factor == 3


def test_slowdown_limits():
    assert cycle_times(TimingParams(1.0, 1e9, 23)).slowdown == pytest.approx(1.0, abs=1e-6)
    assert cycle_times(TimingParams(1.0, 0.0, 23)).slowdown == pytest.approx(23.0)


def test_start_delay_factor_is_block_size_for_single_lane():
    for n in (2, 7, 23):
        assert cycle_times(TimingParams(1.0, 5.0, n)).start_delay_factor == n


def test_params_validation():
    with pytest.raises(ValueError):
        TimingParams(t_t=0.0, t_lqec=1.0, n=7)
    with pytest.raises(ValueError):
        TimingParams(t_t=1.0, t_lqec=-1.0, n=7)
    with pytest.raises(ValueError):
        TimingParams(t_t=1.0, t_lqec=1.0, n=0)


@pytest.mark.parametrize("t_t, t_lqec", [
    (float("nan"), 1.0),
    (float("inf"), 1.0),
    (1.0, float("nan")),
    (1.0, float("inf")),
])
def test_params_reject_non_finite_times(t_t, t_lqec):
    with pytest.raises(ValueError, match="must be finite"):
        TimingParams(t_t, t_lqec, 7)


@pytest.mark.parametrize("t_t, t_lqec, n", [(1e308, 1e308, 7), (1e308, 0.0, 2), (1e300, 0.0, 10**9)])
def test_cycle_times_reject_overflowing_times(t_t, t_lqec, n):
    # Each time is finite, but the serial cycle overflows to inf.
    with pytest.raises(ValueError, match="overflows"):
        cycle_times(TimingParams(t_t, t_lqec, n))


def test_cycle_times_reject_round_count_past_float_range():
    # An integer n past float range must not reach float division.
    with pytest.raises(ValueError, match="overflows"):
        cycle_times(TimingParams(1.0, 1.0, 10**400))
    assert cycle_times(TimingParams(1.0, 0.0, 10**300 + 1, lanes=10**300)).start_delay_factor == 2


def test_recommend_rejects_unbounded_reliability_ratio():
    # p_t = 0 makes the teleportation-only failure 0 while memory errors remain.
    with pytest.raises(ValueError, match="ratio is unbounded"):
        recommend(TimingParams(1.0, 100.0, 7), STEANE, p_t=0.0, p_m=0.01)
    assert recommend(TimingParams(1.0, 100.0, 7), STEANE, p_t=0.0, p_m=0.0).reliability_ratio == 1.0


# ----------------------------------------------------------------- recommend
def test_recommend_serial_in_the_friendly_regime():
    rec = recommend(TimingParams(1.0, 100.0, 7), STEANE, p_t=1e-3, p_m=1e-3 / 60)
    assert rec.choice is Multiplexing.SERIAL
    assert rec.slowdown == pytest.approx(107.0 / 101.0)
    assert 1.24 <= rec.reliability_ratio <= 1.26


def test_recommend_serial_with_perfect_memory_and_slow_qec():
    rec = recommend(TimingParams(1.0, 1e6, 23), GOLAY, p_t=1e-3, p_m=0.0)
    assert rec.choice is Multiplexing.SERIAL
    assert rec.reliability_ratio == pytest.approx(1.0)


def test_recommend_parallel_when_serialization_dominates():
    rec = recommend(TimingParams(1.0, 0.0, 23), GOLAY, p_t=1e-3, p_m=1e-3)
    assert rec.choice is Multiplexing.PARALLEL
    assert rec.slowdown == pytest.approx(23.0)
    assert any("slowdown" in reason for reason in rec.reasons)


def test_recommend_parallel_when_memory_is_poor():
    rec = recommend(TimingParams(1.0, 100.0, 7), STEANE, p_t=1e-3, p_m=1e-3)
    assert rec.reliability_ratio > 1.5
    assert rec.choice is Multiplexing.PARALLEL


def test_more_memory_error_never_flips_toward_serial():
    rng = random.Random(2)
    params = TimingParams(1.0, 50.0, 7)
    for _ in range(25):
        p_t = rng.uniform(1e-4, 5e-2)
        lo = rng.uniform(0.0, 0.01)
        hi = lo + rng.uniform(0.0, 0.02)
        first = recommend(params, STEANE, p_t, lo).choice
        second = recommend(params, STEANE, p_t, hi).choice
        if first is Multiplexing.PARALLEL:
            assert second is Multiplexing.PARALLEL


def test_slower_local_qec_never_flips_toward_parallel():
    rng = random.Random(4)
    for _ in range(25):
        p_t = rng.uniform(1e-4, 1e-2)
        t_fast = rng.uniform(0.0, 50.0)
        t_slow = t_fast + rng.uniform(0.0, 500.0)
        first = recommend(TimingParams(1.0, t_fast, 7), STEANE, p_t, p_t / 60).choice
        second = recommend(TimingParams(1.0, t_slow, 7), STEANE, p_t, p_t / 60).choice
        if first is Multiplexing.SERIAL:
            assert second is Multiplexing.SERIAL
