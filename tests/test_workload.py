import pytest

from qlink.workload import ANCHORS, AdderKind, WorkloadSpec, teleport_count

RIPPLE = AdderKind.CARRY_RIPPLE
LOOKAHEAD = AdderKind.CARRY_LOOKAHEAD


@pytest.mark.parametrize(
    "bits, adder, expected",
    [
        (16, RIPPLE, 14_000.0),
        (16, LOOKAHEAD, 125_000.0),
        (128, RIPPLE, 8e6),
        (128, LOOKAHEAD, 1e8),
        (1024, RIPPLE, 4e9),
        (1024, LOOKAHEAD, 6e10),
    ],
)
def test_anchor_sizes_return_anchor_counts(bits, adder, expected):
    estimate = teleport_count(WorkloadSpec(bits, adder))
    assert estimate.t_low == estimate.t_high == expected
    assert not estimate.extrapolated
    assert estimate.anchor_bits == bits


def test_range_query_spans_both_adders():
    estimate = teleport_count(WorkloadSpec(1024))
    assert (estimate.t_low, estimate.t_high) == (4e9, 6e10)


def test_cubic_extrapolation_from_nearest_anchor():
    estimate = teleport_count(WorkloadSpec(32, RIPPLE))
    assert estimate.t_low == pytest.approx(14_000 * (32 / 16) ** 3, rel=1e-12)
    assert estimate.t_low == pytest.approx(112_000.0, rel=1e-12)
    assert estimate.extrapolated
    assert estimate.anchor_bits == 16


def test_nearest_anchor_measured_in_log_size():
    # 64 sits a factor 4 above 16 but only a factor 2 below 128.
    assert teleport_count(WorkloadSpec(64, RIPPLE)).anchor_bits == 128


def test_adder_gap_at_largest_anchor():
    low = teleport_count(WorkloadSpec(1024, RIPPLE)).t_low
    high = teleport_count(WorkloadSpec(1024, LOOKAHEAD)).t_high
    assert high / low == pytest.approx(15.0, rel=1e-12)
    assert 10 <= high / low <= 15


def test_adder_gap_recorded_below_ten_at_smallest_anchor():
    # 125000 / 14000 is about 8.9; the small size sits just under the
    # ten-to-fifteen band of the larger ones.
    low, high = ANCHORS[16]
    assert high / low == pytest.approx(8.93, rel=0.01)


def test_monotone_in_bits_over_doubling_sizes():
    # Nearest-anchor cubic scaling dips about 1.5% right at the 128/1024
    # log midpoint (size 362 -> 363); away from that seam it is monotone,
    # which doubling sizes demonstrate.
    for adder in (RIPPLE, LOOKAHEAD):
        values = [teleport_count(WorkloadSpec(b, adder)).t_low for b in (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        WorkloadSpec(1)
    with pytest.raises(ValueError):
        WorkloadSpec(0, RIPPLE)


@pytest.mark.parametrize("bits", [float("nan"), float("inf"), float("-inf")])
def test_rejects_non_finite_sizes(bits):
    with pytest.raises(ValueError, match="finite"):
        WorkloadSpec(bits)


@pytest.mark.parametrize("bits", [10**103, 10**300, 10**400], ids=["1e103", "1e300", "1e400"])
def test_count_beyond_float_range_is_rejected(bits):
    with pytest.raises(ValueError, match="overflows"):
        teleport_count(WorkloadSpec(bits))
