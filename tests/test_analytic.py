import math
import random
import sys
from decimal import Decimal

import pytest
from helpers import (
    bisected_allowable_pt,
    decimal_stack_tail,
    event_ratio,
    exact_failure,
    leading_block_error,
    leading_inversion,
    leading_penalty_limit,
    pattern_tail,
    round_sig,
    term_by_term_tail,
    union_fault,
    weight_tail,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlink import analytic
from qlink.analytic import (
    TABLE3_STACKS,
    LinkParams,
    ModelMode,
    Multiplexing,
    allowable_pt,
    p_algorithm_failure,
    p_stack_block_error,
    serial_penalty_ratio,
    table3,
)
from qlink.codes import CodeStack, QecCode, builtin_codes, parse_code, parse_stack

LEADING = ModelMode.LEADING_ORDER
EXACT = ModelMode.EXACT_TAIL
SERIAL = Multiplexing.SERIAL
PARALLEL = Multiplexing.PARALLEL
STEANE = parse_stack("7-1-3")
GOLAY = parse_stack("23-1-7")


# ----------------------------------------------------------------- p_success
# The success probability of t teleportations of a bare qubit, (1 - p_t)^t,
# is 1 - p_f on the empty stack.
def test_p_success_no_errors_is_certain():
    assert p_algorithm_failure(CodeStack(), 12345, 0.0).p_f == 0.0


def test_p_success_single_teleport():
    assert p_algorithm_failure(CodeStack(), 1, 0.3).p_f == pytest.approx(0.3, rel=1e-15, abs=0.0)


def test_p_success_uses_exact_power_not_linearization():
    # Oracle: multiply the survival factor out t times.
    survival = 1.0
    for _ in range(100_000):
        survival *= 1.0 - 1e-6
    value = 1.0 - p_algorithm_failure(CodeStack(), 1e5, 1e-6).p_f
    assert value == pytest.approx(survival, rel=1e-10, abs=0.0)
    # (1 - 1e-6)^1e5 from the decimal oracle.
    assert value == pytest.approx(0.9048373727940596, rel=1e-12, abs=0.0)
    # The linearized 1 - t*p would give 0.9 instead.
    assert abs(value - 0.9) > 4e-3


def test_p_success_rejects_bad_probability():
    for t, p_t in ((10, 1.5), (10, -0.1), (-1, 0.1)):
        with pytest.raises(ValueError):
            p_algorithm_failure(CodeStack(), t, p_t)


# ------------------------------------------------- one-level block failure
def test_leading_order_is_single_lowest_mode():
    for p in (1e-6, 1e-4, 1e-2):
        assert p_stack_block_error(STEANE, p, LEADING) == pytest.approx(21 * p**2, rel=1e-15, abs=0.0)
        assert p_stack_block_error(GOLAY, p, LEADING) == pytest.approx(8855 * p**4, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("p", [0.003, 0.01, 0.03, 0.2])
def test_exact_tail_matches_pattern_enumeration(n, p):
    m = 2  # distance-3 codes fail at two errors
    stack = CodeStack((QecCode(n, 1, 3),))
    assert p_stack_block_error(stack, p, EXACT) == pytest.approx(pattern_tail(n, m, p), rel=1e-12, abs=0.0)


def test_exact_tail_frozen_value():
    # Frozen from the 2^7 pattern enumeration oracle.
    assert p_stack_block_error(STEANE, 0.01, EXACT) == pytest.approx(2.03104163494e-3, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("code", builtin_codes(), ids=QecCode.spec)
def test_exact_tail_matches_weight_enumeration_for_large_block(code):
    stack = CodeStack((code,))
    for p in (0.003, 0.01, 0.03):
        expected = weight_tail(code.n, code.min_fail, p)
        assert p_stack_block_error(stack, p, EXACT) == pytest.approx(expected, rel=1e-12, abs=0.0)


# Rates from the smallest subnormal to just below one half, log-spaced in between, and the ends.
TAIL_RATES = [0.0, 5e-324, 1e-300, *(10.0 ** (-300 + k * (300 + math.log10(0.5)) / 399) for k in range(400)),
              math.nextafter(0.5, 0.0), 0.5, 1.0]


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 23, 100])
def test_exact_tail_is_the_term_by_term_sum_bit_for_bit(n):
    # The coefficients and 1 - q are formed once per call, and no term changes by a bit.
    for d in sorted({1, min(3, n), n if n % 2 else n - 1}):
        stack, m = CodeStack((QecCode(n, 1, d),)), (d + 1) // 2
        for q in TAIL_RATES:
            assert p_stack_block_error(stack, q, EXACT).hex() == term_by_term_tail(n, m, q).hex(), (d, q)


@pytest.mark.parametrize("spec", ["2001-1-1001", "2001-1-2001"])
@pytest.mark.parametrize("q", [0.0, 5e-324, 1e-3, 0.2, 0.25, 0.3, 0.5, 0.9, 1.0])
def test_leading_order_past_the_float_range_matches_exact_fractions(spec, q):
    # C(n, m) has no double, so C(n, m) q^m is formed from logs, each of which
    # carries a rounding of about eps times its size.
    code = parse_code(spec)
    n, m = code.n, code.min_fail
    expected = leading_block_error(n, m, q)
    rel = 4 * sys.float_info.epsilon * (math.log(math.comb(n, m)) - m * math.log(q or 1.0))
    assert p_stack_block_error(parse_stack(spec), q, LEADING) == pytest.approx(expected, rel=rel, abs=0.0)


@pytest.mark.parametrize("spec", ["1100-1-3", "2001-1-3", "2001-1-1001"])
def test_exact_tail_names_a_block_too_wide_for_doubles(spec):
    n = parse_code(spec).n
    with pytest.raises(ValueError, match=f"^the exact tail of a {n}-qubit block needs binomial coefficients"):
        p_stack_block_error(parse_stack(spec), 0.01, EXACT)
    assert 0.0 < p_stack_block_error(parse_stack("1001-1-3"), 0.01, EXACT) < 1.0   # C(1001, 500) fits


def test_block_error_domain_checks():
    with pytest.raises(ValueError):
        p_stack_block_error(STEANE, 1.2)


def test_leading_over_exact_approaches_one():
    ratio = p_stack_block_error(STEANE, 1e-4, LEADING) / p_stack_block_error(STEANE, 1e-4, EXACT)
    assert abs(ratio - 1.0) < 0.01


# ------------------------------------------------------- p_stack_block_error
def test_empty_stack_passes_through():
    assert p_stack_block_error(CodeStack(), 0.0123, LEADING) == 0.0123
    assert p_stack_block_error(CodeStack(), 0.0123, EXACT) == 0.0123


def test_two_level_leading_order_expands_symbolically():
    # 21 * (21 p^2)^2 = 9261 p^4
    stack = parse_stack("7-1-3+7-1-3")
    for p in (1e-5, 1e-3, 1e-2):
        assert p_stack_block_error(stack, p, LEADING) == pytest.approx(9261 * p**4, rel=1e-14, abs=0.0)


def test_single_level_leading_order_value():
    assert p_stack_block_error(parse_stack("23-1-7"), 1e-2, LEADING) == pytest.approx(
        8855e-8, rel=1e-14, abs=0.0
    )


@pytest.mark.parametrize("mode", [LEADING, EXACT])
@pytest.mark.parametrize("spec", ["none", "7-1-3", "23-1-7", "7-1-3+7-1-3", "23-1-7+7-1-3"])
def test_stack_error_monotone_in_pt(mode, spec):
    stack = parse_stack(spec)
    rng = random.Random(11)
    for _ in range(40):
        p1 = rng.uniform(0.0, 0.5)
        p2 = rng.uniform(0.0, 0.5)
        if p1 > p2:
            p1, p2 = p2, p1
        assert p_stack_block_error(stack, p1, mode) <= p_stack_block_error(stack, p2, mode)


# ---------------------------------------------------------- algorithm failure
def test_algorithm_failure_uncoded_example():
    result = p_algorithm_failure(CodeStack(), 1e5, 1e-6)
    assert result.p_f == pytest.approx(exact_failure(1e-6, 1e5), rel=1e-14, abs=0.0)
    assert result.p_f == pytest.approx(0.09516262720594036, rel=1e-12, abs=0.0)   # the oracle's value
    assert result.linearized == pytest.approx(0.1, rel=1e-12, abs=0.0)
    assert result.linearization_valid


@pytest.mark.parametrize("p_e", [5e-324, 1e-300, 1e-20, 1e-17, 1e-12, 1e-6, 0.01, 0.3, 0.5, 0.999999])
@pytest.mark.parametrize("t", [0, 1, 7, 1e5, 1e11, 1e300])
def test_algorithm_failure_matches_decimal_oracle(p_e, t):
    # The empty stack feeds p_t through as p_e. 1 - (1 - p_e)^t would cancel
    # p_e against 1 below about 1e-16, where p_f must stay near t * p_e.
    p_f = p_algorithm_failure(CodeStack(), t, p_e).p_f
    assert p_f == pytest.approx(exact_failure(p_e, t), rel=1e-13, abs=0.0)


def test_algorithm_failure_stays_exact_below_float_resolution():
    result = p_algorithm_failure(parse_stack("7-1-3"), 1e5, 1e-7, EXACT)
    assert result.p_f == pytest.approx(exact_failure(result.block_error, 1e5), rel=1e-13, abs=0.0)
    assert result.p_f == pytest.approx(result.linearized, rel=2e-8, abs=0.0)
    tiny = p_algorithm_failure(CodeStack(), 1e5, 1e-20)
    assert tiny.p_f == pytest.approx(1e-15, rel=1e-13, abs=0.0)


def test_certain_block_error_fails_any_nonempty_computation():
    # Leading-order p_e may exceed 1; p_f is then 1, unless nothing is teleported.
    stack = parse_stack("23-1-7+23-1-7")
    assert p_stack_block_error(stack, 0.4, LEADING) > 1
    assert p_algorithm_failure(stack, 10, 0.4, LEADING).p_f == 1.0
    assert p_algorithm_failure(stack, 0, 0.4, LEADING).p_f == 0.0
    assert p_algorithm_failure(CodeStack(), 1e-3, 1.0).p_f == 1.0


def test_exact_inversion_finds_the_root_below_float_resolution():
    stack = parse_stack("7-1-3")
    rate = allowable_pt(stack, 1e11, 1e-6, EXACT)
    assert rate == pytest.approx(6.90e-10, rel=1e-3, abs=0.0)
    assert exact_failure(weight_tail(7, 2, rate), 1e11) == pytest.approx(1e-6, rel=1e-6, abs=0.0)


def test_exact_inversion_terminates_among_subnormal_rates():
    # The root, about target / t, sits below the smallest normal float, where
    # a relative width of 1e-9 is narrower than one ulp.
    assert allowable_pt(CodeStack(), 1e308, 1e-10, EXACT) == pytest.approx(1e-318, rel=1e-4, abs=0.0)
    assert allowable_pt(CodeStack(), 1e308, 5e-324, EXACT) == 0.0


def test_exact_inversion_returns_the_bracket_end_when_it_meets_the_budget():
    # One uncoded step fails with probability p_t, so p_t = 0.5 is within 0.6.
    assert allowable_pt(CodeStack(), 1, 0.6, EXACT) == 0.5


# The exact inversion is the plain bisection of tests/helpers.py; its bracket only skips
# the midpoints whose outcome it has verified, and must never change a bit.
_BISECTION_GRID_STACKS = (*TABLE3_STACKS, "1-1-1", "1029-1-515", "1029-1-3+1029-1-3",
                          "23-1-7+23-1-7+23-1-7", "3-1-3+3-1-3+3-1-3+3-1-3")


@pytest.mark.parametrize("spec", _BISECTION_GRID_STACKS)
@pytest.mark.parametrize("t", [1, 1e5, 1e8, 1e11, 1e308])
@pytest.mark.parametrize("target_pf", [0.999999, 0.1, 1e-3, 1e-6, 5e-324])
def test_exact_inversion_is_the_plain_bisection_bit_for_bit(spec, t, target_pf):
    stack = parse_stack(spec)
    assert allowable_pt(stack, t, target_pf, EXACT) == bisected_allowable_pt(stack, t, target_pf, EXACT)


@pytest.mark.parametrize(("spec", "lowest"), [
    ("7-1-3", 1e-170), ("23-1-7", 1e-50), ("23-1-7+23-1-7", 1e-15), ("3-1-3+3-1-3+3-1-3", 1e-45),
    ("101-1-51", 1e-14), ("1029-1-515", 0.04),
])
def test_exact_tail_stays_within_the_error_bound_the_bracket_assumes(spec, lowest):
    # 41 rates from lowest to 0.5, against a 60-digit decimal tail: through the normal range
    # and where the float terms underflow, as 21 q^2 does below 1e-154 and q^258 below 0.064.
    stack = parse_stack(spec)
    rel, floor = analytic._tail_error_bound(stack)
    for k in range(41):
        p_t = lowest * (0.5 / lowest) ** (k / 40)
        exact = decimal_stack_tail(stack.levels, p_t)
        error = abs(Decimal(p_stack_block_error(stack, p_t, EXACT)) - exact)
        assert error <= Decimal(rel) * exact + Decimal(floor), p_t


@pytest.mark.parametrize(("spec", "lowest", "highest"), [
    ("101-1-51", 4e-14, 2e-13), ("1029-1-515", 0.006, 0.0072), ("7-1-3+1029-1-3", 0.3, 0.5),
])
def test_exact_tail_stays_within_the_error_bound_where_it_underflows(spec, lowest, highest):
    # 21 rates across the range where the tail itself passes 2^-1022, a 60-digit decimal tail
    # against the float one. Every term's q^j underflows there (below 1.4e-12 and 0.064), and
    # the bound's floor is a few thousand units of 2^-1074, not 2^(n + 3). The outer 1029-1-3
    # gets q from 0.67 up, where (1 - q)^(n - j) underflows beside a normal q^j.
    stack = parse_stack(spec)
    rel, floor = analytic._tail_error_bound(stack)
    assert floor < 1e-318
    seen = set()
    for k in range(21):
        p_t = lowest * (highest / lowest) ** (k / 20)
        exact = decimal_stack_tail(stack.levels, p_t)
        found = p_stack_block_error(stack, p_t, EXACT)
        seen.add(found < sys.float_info.min)
        assert abs(Decimal(found) - exact) <= Decimal(rel) * exact + Decimal(floor), p_t
    assert seen == ({False} if spec.startswith("7-1-3+") else {True, False})


@pytest.mark.parametrize(("spec", "p_t"), [
    ("1029-1-515", 0.05), ("1029-1-515", 0.063), ("101-1-51", 1e-12), ("101-1-51", 5e-13),
])
def test_exact_tail_keeps_its_digits_where_the_powers_underflow(spec, p_t):
    # q^258 underflows below q = 0.064 and q^26 below 1.4e-12, while the tail is a normal double:
    # it must be right to the bound's relative error alone, with no underflow floor.
    stack = parse_stack(spec)
    rel, _ = analytic._tail_error_bound(stack)
    exact = decimal_stack_tail(stack.levels, p_t)
    assert exact > Decimal(sys.float_info.min)
    assert abs(Decimal(p_stack_block_error(stack, p_t, EXACT)) - exact) <= Decimal(rel) * exact


_SMALL_CODES = st.sampled_from(["1-1-1", "3-1-3", "5-1-3", "7-1-3", "9-1-3", "15-1-7", "23-1-7", "49-1-9"])
_WIDE_T = st.one_of(st.floats(1.0, 1e308), st.floats(0.0, 308.0).map(lambda e: 10.0**e))
_ANY_TARGET = st.one_of(st.floats(5e-324, 1.0, exclude_max=True),
                        st.floats(-323.0, -1e-12).map(lambda e: 10.0**e))


@settings(max_examples=200, deadline=None)
@given(levels=st.lists(_SMALL_CODES, max_size=3), t=_WIDE_T, target_pf=_ANY_TARGET)
def test_exact_inversion_matches_the_plain_bisection_on_random_stacks(levels, t, target_pf):
    stack = parse_stack("+".join(levels) or "none")
    assert allowable_pt(stack, t, target_pf, EXACT) == bisected_allowable_pt(stack, t, target_pf, EXACT)


@pytest.fixture
def tail_calls(monkeypatch):
    """The rates at which allowable_pt evaluates the stack's block error, in order."""
    calls = []

    def counted(stack, p_t, mode=LEADING):
        calls.append(p_t)
        return p_stack_block_error(stack, p_t, mode)

    monkeypatch.setattr(analytic, "p_stack_block_error", counted)
    return calls


def test_exact_inversion_takes_about_a_dozen_tail_evaluations(tail_calls):
    # The plain bisection takes 36 to 70 per default table3 cell, 908 for the exact table3.
    # With a bracket a quarter of the bisection's last cell, a cell takes 3 to 7 (114 in all);
    # the former 1e-8 bracket left 5 to 7 midpoints inside it, for 9 to 12 (218).
    per_cell = {}
    for spec in TABLE3_STACKS:
        for t in TABLE3_T:
            tail_calls.clear()
            allowable_pt(parse_stack(spec), t, 0.1, EXACT)
            per_cell[spec, t] = len(tail_calls)
    assert max(per_cell.values()) <= 8, per_cell
    tail_calls.clear()
    table3(mode=EXACT)
    assert len(tail_calls) <= 130


@pytest.mark.parametrize(("spec", "t"), [("101-1-51", 10), ("201-1-101", 10), ("1029-1-515", 1),
                                         ("1029-1-515", 3), ("1029-1-515", 30), ("1029-1-515", 1e5)],
                         ids=["101-1-51", "201-1-101", "1029-1-515-t1", "1029-1-515-t3", "1029-1-515-t30",
                              "1029-1-515-t1e5"])
def test_exact_inversion_of_a_wide_block_takes_a_dozen_or_so_tail_evaluations(tail_calls, spec, t):
    # At t = 10 the leading-order guess is far off, and the secant takes six or seven steps
    # to a rate the bracket accepts; stopped after five, it missed and bisected plainly (40).
    # 1029-1-515 at t = 1 bends harder and needs nine; stopped after eight, it took 42. At
    # t >= 3 its budget is below 1.8e-3, where an underflow floor of 2^(n + 3) units of
    # 2^-1074 refused every bracket (33 evaluations); the once-rounded terms need 3 (n + 1 - m).
    stack = parse_stack(spec)
    found = allowable_pt(stack, t, 0.1, EXACT)
    assert len(tail_calls) <= 16, len(tail_calls)
    assert found == bisected_allowable_pt(stack, t, 0.1, EXACT)


@pytest.mark.parametrize("spec", ["none", "7-1-3", "23-1-7+23-1-7"])
@pytest.mark.parametrize("factor", [0.5, 1 - 3e-8, 1 + 3e-8, 2.0])
def test_exact_inversion_refuses_a_bracket_that_misses_the_root(monkeypatch, tail_calls, spec, factor):
    # A seed 3e-8 or more off the root puts both ends of its 2.5e-10 bracket on one side:
    # the ends' check refuses it, and every midpoint is evaluated, as in the plain bisection.
    stack = parse_stack(spec)
    plain = bisected_allowable_pt(stack, 1e5, 0.1, EXACT)
    monkeypatch.setattr(analytic, "_secant_root", lambda stack, budget: plain * factor)
    assert allowable_pt(stack, 1e5, 0.1, EXACT) == plain
    assert len(tail_calls) > 30


def _last_rate_within(stack, level: float) -> float:
    """The largest rate in [0, 0.5) whose float block error is at most level, to adjacent doubles."""
    lo, hi = 0.0, 0.5
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if p_stack_block_error(stack, mid, EXACT) <= level:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("end", ["low", "high"])
@pytest.mark.parametrize("t", [1e5, 1e308], ids=["relative", "floor"])
def test_exact_inversion_refuses_a_bracket_end_within_the_margin(monkeypatch, tail_calls, end, t):
    # A seed puts one end of its bracket where 7-1-3's tail is k / 2 inside the budget, k the
    # margin its error bound sets: relative at a budget of 1e-6, the underflow floor at 1e-309
    # (8.5e-14 of the budget against 2.4e-15). The end clears k / 8, and the margin without
    # its floor, but not k: the bracket is refused, and every midpoint is evaluated.
    budget = -math.expm1(math.log1p(-0.1) / t)
    rel, floor = analytic._tail_error_bound(STEANE)
    margin = 8 * (rel + floor / budget)
    width = analytic._BRACKET_WIDTH
    if end == "low":
        seed = _last_rate_within(STEANE, budget * (1 - margin / 2)) / (1 - width)
        clearance = 1 - p_stack_block_error(STEANE, seed * (1 - width), EXACT) / budget
    else:
        seed = math.nextafter(_last_rate_within(STEANE, budget * (1 + margin / 2)), 1.0) / (1 + width)
        clearance = p_stack_block_error(STEANE, seed * (1 + width), EXACT) / budget - 1
    assert margin / 4 <= clearance < margin
    monkeypatch.setattr(analytic, "_secant_root", lambda stack, budget: seed)
    assert allowable_pt(STEANE, t, 0.1, EXACT) == bisected_allowable_pt(STEANE, t, 0.1, EXACT)
    assert len(tail_calls) > 30


def test_exact_inversion_tries_no_bracket_past_the_tails_reach(monkeypatch):
    # At a budget of 1e-318 the floor of 7-1-3's tail error, 18 units of 2^-1074, is a margin
    # of 7e-4, while its tail moves by at most about w S = 5e-10 across a bracket end: no
    # bracket could pass, so no secant step is taken and every midpoint is evaluated.
    monkeypatch.setattr(analytic, "_secant_root", lambda stack, budget: pytest.fail("secant step taken"))
    assert allowable_pt(STEANE, 1e308, 1e-10, EXACT) == bisected_allowable_pt(STEANE, 1e308, 1e-10, EXACT)


def test_exact_inversion_brackets_a_subnormal_root_by_its_neighbours(tail_calls):
    # Near 1e-318, x (1 -+ 2.5e-10) rounds to x itself; the bracket's ends are the doubles
    # next to x instead, and the inversion does not fall back to the plain bisection's 1074.
    found = allowable_pt(CodeStack(), 1e308, 1e-10, EXACT)
    assert len(tail_calls) <= 8, len(tail_calls)
    assert found == bisected_allowable_pt(CodeStack(), 1e308, 1e-10, EXACT)


def test_algorithm_failure_rejects_a_linearization_past_the_float_range():
    # Leading order gives p_e = 21 * 0.49^2 > 1, and t * p_e is then inf.
    with pytest.raises(ValueError, match="t \\* p_e overflows the float range"):
        p_algorithm_failure(STEANE, 1.7e308, 0.49, LEADING)


def test_allowable_pt_needs_a_finite_t():
    # The exact inversion compares block errors with a budget computed from
    # t once; an infinite or nan t must not reach it.
    for t in (math.inf, math.nan):
        for mode in (LEADING, EXACT):
            with pytest.raises(ValueError, match="need a finite t"):
                allowable_pt(STEANE, t, 0.1, mode)


def test_algorithm_failure_zero_error_rate():
    for spec in ("none", "7-1-3", "23-1-7+23-1-7"):
        assert p_algorithm_failure(parse_stack(spec), 1e8, 0.0).p_f == 0.0


def test_algorithm_failure_at_tabulated_single_level_point():
    # At the tabulated allowable rate the linearized failure sits at the target.
    result = p_algorithm_failure(parse_stack("7-1-3"), 1e5, 2.2e-4, LEADING)
    assert result.linearized == pytest.approx(0.1, rel=0.05, abs=0.0)


def test_linearization_flag_trips_above_limit():
    assert not p_algorithm_failure(CodeStack(), 1e5, 1e-5).linearization_valid


# ----------------------------------------------------------------- inversion
TABLE3_T = (1e5, 1e8, 1e11)


def test_allowable_pt_uncoded_is_budget_over_t():
    # No level is peeled, so the rounded quotient stands, subnormal or not.
    stack = CodeStack()
    for t in TABLE3_T:
        for target_pf in (0.1, 1e-310, 5e-324):
            assert allowable_pt(stack, t, target_pf, LEADING) == target_pf / t


@pytest.mark.parametrize(
    "spec, expected",
    [
        ("7-1-3", (2.2e-4, 6.9e-6, 2.2e-7)),
        ("23-1-7", (3.3e-3, 5.8e-4, 1.0e-4)),
        ("7-1-3+7-1-3", (3.2e-3, 5.7e-4, 1.0e-4)),
        ("23-1-7+7-1-3", (1.3e-2, 5.3e-3, 2.2e-3)),
        ("7-1-3+23-1-7", (1.2e-2, 5.3e-3, 2.2e-3)),
        ("23-1-7+23-1-7", (2.5e-2, 1.6e-2, 1.0e-2)),
    ],
)
def test_allowable_pt_reference_values_at_two_figures(spec, expected):
    stack = parse_stack(spec)
    for t, want in zip(TABLE3_T, expected):
        assert round_sig(allowable_pt(stack, t, 0.1, LEADING), 2) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_known_double_rounding_cell():
    # The reference table prints 0.013 for 7-1-3+23-1-7 at t = 1e5, but that
    # figure comes from evaluating the prefactor after rounding it to 0.053.
    # The closed form itself gives the value below, which rounds to 0.012.
    value = allowable_pt(parse_stack("7-1-3+23-1-7"), 1e5, 0.1, LEADING)
    assert value == pytest.approx(1.2459246606929155e-2, rel=1e-12, abs=0.0)
    assert round_sig(value, 2) == 0.012


def test_ordering_swap_changes_allowable_pt_by_fixed_factor():
    # t C(7,2) (C(23,4) p^4)^2 vs t C(23,4) (C(7,2) p^2)^4: the leading
    # coefficients differ (21 * 8855^2 vs 8855 * 21^4), so the inverted rates
    # differ by the constant factor below at every t. "Almost identical", not
    # identical.
    factor = (8855 * 21**4 / (21 * 8855**2)) ** (1.0 / 8.0)
    for t in TABLE3_T:
        a = allowable_pt(parse_stack("23-1-7+7-1-3"), t, 0.1, LEADING)
        b = allowable_pt(parse_stack("7-1-3+23-1-7"), t, 0.1, LEADING)
        assert a / b == pytest.approx(factor, rel=1e-12, abs=0.0)
        assert a / b < 1.006


def test_single_golay_level_close_to_double_hamming_level():
    for t in TABLE3_T:
        golay = allowable_pt(parse_stack("23-1-7"), t, 0.1, LEADING)
        hamming2 = allowable_pt(parse_stack("7-1-3+7-1-3"), t, 0.1, LEADING)
        assert max(golay, hamming2) / min(golay, hamming2) < 1.05


@pytest.mark.parametrize("spec", ["none", "7-1-3", "23-1-7", "23-1-7+7-1-3"])
@pytest.mark.parametrize("t", [1e5, 1e8])
def test_round_trip_leading(spec, t):
    stack = parse_stack(spec)
    rate = allowable_pt(stack, t, 0.1, LEADING)
    assert p_algorithm_failure(stack, t, rate, LEADING).linearized == pytest.approx(0.1, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("spec", ["none", "7-1-3", "23-1-7", "7-1-3+7-1-3"])
@pytest.mark.parametrize("t", [1e5, 1e8])
def test_round_trip_exact(spec, t):
    stack = parse_stack(spec)
    rate = allowable_pt(stack, t, 0.1, EXACT)
    assert p_algorithm_failure(stack, t, rate, EXACT).p_f == pytest.approx(0.1, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("spec", ["7-1-3", "23-1-7", "7-1-3+7-1-3", "23-1-7+23-1-7", "2001-1-1001",
                                  "2001-1-2001", "7-1-3+2001-1-1001", "2001-1-1001+23-1-7"])
@pytest.mark.parametrize("t", [1e5, 1e11])
@pytest.mark.parametrize("target_pf", [5e-324, 1e-310, 0.1])
def test_leading_inversion_in_logs_matches_decimal(spec, t, target_pf):
    # The chain is peeled in logs where target_pf / t underflows, to 0 or to a
    # subnormal with few digits, and where C(n, m) has no double, as C(2001, 501)
    # and C(2001, 1001) have not; a 50-digit Decimal inversion is the reference.
    stack = parse_stack(spec)
    expected = leading_inversion(stack.levels, t, target_pf)
    assert allowable_pt(stack, t, target_pf, LEADING) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_allowable_pt_validates_inputs():
    with pytest.raises(ValueError):
        allowable_pt(CodeStack(), 0.5, 0.1)
    with pytest.raises(ValueError):
        allowable_pt(CodeStack(), 1e5, 1.5)
    with pytest.raises(ValueError):
        allowable_pt(parse_stack("7-1-3"), 10, 1.0)


# -------------------------------------------------------------------- table3
def test_table3_default_shape():
    rows = table3()
    assert len(rows) == 21
    assert [r.scale_up for r in rows[::3]] == [1, 7, 23, 49, 161, 161, 529]


def test_table3_single_cell():
    rows = table3(t_values=(1e5,), stacks=[parse_stack("7-1-3")])
    assert len(rows) == 1
    assert rows[0].stack == "7-1-3"
    assert rows[0].allowable_pt == pytest.approx(2.182178902e-4, rel=1e-9, abs=0.0)


def test_table3_reordered_stacks_nearly_agree():
    rows = {(r.stack, r.t): r.allowable_pt for r in table3()}
    for t in TABLE3_T:
        a = rows[("23-1-7+7-1-3", t)]
        b = rows[("7-1-3+23-1-7", t)]
        assert abs(a - b) / a < 0.006


# -------------------------------------------------------------- monotonicity
_STACKS = st.sampled_from(TABLE3_STACKS).map(parse_stack)
_T = st.floats(min_value=1.0, max_value=1e15)
_PT = st.floats(min_value=0.0, max_value=0.5)


def _rates(p, other):
    """p and a rate at least as large: the next float up, or another drawn rate."""
    return (p, math.nextafter(p, 1.0)) if other is None else tuple(sorted((p, other)))


@settings(max_examples=150, deadline=None)
@given(stack=_STACKS, t1=_T, t2=_T, target_pf=st.floats(min_value=1e-12, max_value=0.5),
       mode=st.sampled_from([LEADING, EXACT]))
def test_allowable_pt_non_increasing_in_t(stack, t1, t2, target_pf, mode):
    t1, t2 = sorted((t1, t2))
    assert allowable_pt(stack, t2, target_pf, mode) <= allowable_pt(stack, t1, target_pf, mode)


@settings(max_examples=300, deadline=None)
@given(stack=_STACKS, t=_T, p=_PT, other=st.one_of(st.none(), _PT))
def test_failure_non_decreasing_in_pt_leading(stack, t, p, other):
    low, high = _rates(p, other)
    assert p_algorithm_failure(stack, t, low).p_f <= p_algorithm_failure(stack, t, high).p_f


@settings(max_examples=300, deadline=None)
@given(stack=_STACKS, t=_T, p=_PT, other=st.one_of(st.none(), _PT))
def test_failure_non_decreasing_in_pt_exact_to_float_rounding(stack, t, p, other):
    # Summing the exact tail in floats is not monotone at the ulp level: on
    # adjacent rates p_e can drop by a few 1e-15 relative, so the check
    # allows a relative 1e-14 and nothing more.
    low, high = _rates(p, other)
    before = p_algorithm_failure(stack, t, low, EXACT).p_f
    assert before <= p_algorithm_failure(stack, t, high, EXACT).p_f * (1.0 + 1e-14)


# ---------------------------------------------------------------- link model
def test_link_params_validation():
    with pytest.raises(ValueError):
        LinkParams(p_t=1.5)
    with pytest.raises(ValueError):
        LinkParams(p_t=0.1, p_m=-0.2)
    with pytest.raises(ValueError):
        LinkParams(p_t=0.1, multiplexing=SERIAL, lanes=3)
    with pytest.raises(ValueError):
        LinkParams(p_t=0.1, lanes=0)


def test_link_params_coerce_the_link_style():
    # A style given by its value is the enum member, so a 3-lane "serial"
    # link is refused like a 3-lane SERIAL one.
    with pytest.raises(ValueError, match="serial links have exactly one lane"):
        LinkParams(0.1, 0.0, "serial", 3)
    with pytest.raises(ValueError, match="not a valid Multiplexing"):
        LinkParams(0.1, 0.0, "bogus")
    assert LinkParams(0.1, 0.0, "parallel", 7).multiplexing is PARALLEL


@pytest.mark.parametrize("multiplexing, lanes", [(PARALLEL, 2.5), (PARALLEL, 7.0), (SERIAL, True)])
def test_link_params_refuse_a_float_or_a_bool_lane_count(multiplexing, lanes):
    with pytest.raises(ValueError, match="^lanes must be an integer, got "):
        LinkParams(0.1, 0.0, multiplexing, lanes)


def test_wait_slots():
    serial = LinkParams(p_t=0.1, multiplexing=SERIAL)
    wide = LinkParams(p_t=0.1, multiplexing=PARALLEL, lanes=7)
    narrow = LinkParams(p_t=0.1, multiplexing=PARALLEL, lanes=3)
    assert serial.wait_slots(7) == 6
    assert wide.wait_slots(7) == 0
    assert narrow.wait_slots(7) == 2  # ceil(7 / 3) - 1 rounds of waiting


def test_default_link_is_one_lane_serial():
    # With one lane a link waits N - 1 slots, which is a serial link, so the
    # default must say so.
    link = LinkParams(1e-3, 1e-4)
    assert (link.multiplexing, link.multiplexing.value, link.lanes) == (SERIAL, "serial", 1)
    assert link.wait_slots(7) == 6
    assert link == LinkParams(1e-3, 1e-4, SERIAL, lanes=1)
    assert link.fault_probability(7) == 0.0015992501699785015


def test_certain_events_make_certain_faults_only_where_they_strike():
    # A certain teleportation error fails every qubit, waits or not.
    assert LinkParams(1.0).fault_probability(7) == 1.0
    assert LinkParams(1.0, 0.0, PARALLEL, 7).fault_probability(7) == 1.0
    # A certain memory error fails a qubit that waits, and no other.
    assert LinkParams(1e-3, 1.0).fault_probability(7) == 1.0
    assert LinkParams(1e-3, 1.0, PARALLEL, 7).fault_probability(7) == pytest.approx(1e-3, rel=1e-15, abs=0.0)
    assert LinkParams(1e-3, 1.0).fault_probability(1) == pytest.approx(1e-3, rel=1e-15, abs=0.0)


# --------------------------------------------------------- serial penalty ratio
@pytest.mark.parametrize("p_m", [0.0, -0.0, 5e-324, 1e-300, 1e-5, 0.5, 1 - 2**-53, 1.0])
@pytest.mark.parametrize("n", [1, 2, 5, 7, 23, 2001])
def test_wait_rate_is_the_serial_links_fault_probability_bit_for_bit(n, p_m):
    # The ratio forms w without building a link; the link's own union rate is the definition.
    w, log_clear = analytic._wait_rate(n, p_m)
    assert w.hex() == LinkParams(0.0, p_m).fault_probability(n).hex()
    if n > 1:
        assert log_clear == ((n - 1) * math.log1p(-p_m) if p_m < 1.0 else -math.inf)


def test_penalty_ratio_collapses_without_memory_errors():
    for spec, p in (("7-1-3", 0.01), ("23-1-7", 0.003)):
        assert serial_penalty_ratio(parse_code(spec), p, 0.0) == 1.0


def test_penalty_ratio_frozen_values():
    # p_m = p_t / (10 (n-1)) puts the aggregated waiting error at p_t / 10.
    # The constants are the decimal oracle's values.
    assert event_ratio(7, 2, 1e-3, 1e-3 / 60) == 1.2422249034245774
    assert event_ratio(23, 4, 1e-3, 1e-3 / 220) == 1.5328696686019845
    r7 = serial_penalty_ratio(parse_code("7-1-3"), 1e-3, 1e-3 / 60)
    r23 = serial_penalty_ratio(parse_code("23-1-7"), 1e-3, 1e-3 / 220)
    assert r7 == pytest.approx(1.2422249034245774, rel=1e-12)
    assert r23 == pytest.approx(1.5328696686019845, rel=1e-12)


def test_faulty_qubit_union_ratio_frozen_values():
    # The simulator's model: a qubit is faulty iff at least one event hits
    # it, so the serial/parallel ratio is the exact tail at the union rate.
    # It sits below the event convolution's 1.2422 and 1.5329, because the
    # convolution counts n same-qubit pairs among its n^2 as two faults.
    for spec, expected in (("7-1-3", 1.2094), ("23-1-7", 1.4613)):
        code = parse_code(spec)
        stack = CodeStack((code,))
        p_m = 1e-3 * 0.1 / (code.n - 1)
        q_serial = LinkParams(1e-3, p_m, SERIAL).fault_probability(code.n)
        ratio = p_stack_block_error(stack, q_serial, EXACT) / p_stack_block_error(stack, 1e-3, EXACT)
        assert ratio == pytest.approx(expected, abs=5e-5)


def test_penalty_ratio_leading_order_limits():
    # As p_t -> 0 the ratios approach the expansion coefficients:
    # (21 + 49/10 + 21/100) / 21 for seven qubits and the matching sum for
    # twenty-three.
    r7 = serial_penalty_ratio(parse_code("7-1-3"), 1e-8, 1e-8 / 60)
    assert r7 == pytest.approx(26.11 / 21, rel=1e-6)
    r23 = serial_penalty_ratio(parse_code("23-1-7"), 1e-8, 1e-8 / 220)
    expected = (8855 + 4073.3 + 640.09 + 40.733 + 0.8855) / 8855
    assert r23 == pytest.approx(expected, rel=1e-6)


@given(code=st.sampled_from(builtin_codes()), share=st.floats(0.0, 1.0))
@example(code=parse_code("23-1-7"), share=0.0).via("the smallest p_t")
@example(code=parse_code("7-1-3"), share=1.0).via("p_t = 1e-12")
def test_penalty_ratio_tends_to_its_leading_order_limit(code, share):
    # From p_t = 1e-12 down to the smallest normal float, the ratio at the
    # CLI's default p_m sits on its p_t -> 0 limit: a memory rate cancelled
    # against 1 would put it percents off, and p_t^m formed on the way
    # would underflow.
    smallest = math.log10(sys.float_info.min) + 1e-9
    p_t = 10 ** (smallest + share * (-12 - smallest))
    assert p_t >= sys.float_info.min
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


_LOG_RATES = st.floats(math.log10(2.3e-308), math.log10(0.5))


@settings(deadline=None)
@given(code=st.sampled_from(builtin_codes()), log_p_t=_LOG_RATES,
       p_m=st.one_of(st.none(), st.floats(0.0, 0.05)))
@example(code=parse_code("7-1-3"), log_p_t=-200.0, p_m=None).via("p_t^m underflows")
@example(code=parse_code("23-1-7"), log_p_t=-100.0, p_m=None).via("p_t^m underflows")
@example(code=parse_code("23-1-7"), log_p_t=math.log10(2.3e-308), p_m=0.0).via("no memory error")
@example(code=parse_code("7-1-3"), log_p_t=-160.0, p_m=0.05).via("past the float range")
def test_penalty_ratio_matches_decimal_event_ratio(code, log_p_t, p_m):
    # p_m = None stands for the CLI's default, p_t / (10 (n - 1)). The
    # ratio may round to inf, and raise, only once it is past 1e300.
    p_t = 10**log_p_t
    if p_m is None:
        p_m = p_t / (10 * (code.n - 1))
    expected = event_ratio(code.n, code.min_fail, p_t, p_m)
    if expected > sys.float_info.max:
        with pytest.raises(ValueError, match="^failure-probability ratio is unbounded"):
            serial_penalty_ratio(code, p_t, p_m)
    elif expected <= 1e300:
        assert serial_penalty_ratio(code, p_t, p_m) == pytest.approx(expected, rel=1e-12, abs=0.0)


@st.composite
def _custom_codes(draw):
    n = draw(st.integers(2, 200))
    return QecCode(n, 1, draw(st.integers(0, (n - 1) // 2)) * 2 + 1)


@settings(deadline=None)
@given(code=_custom_codes(), log_p_t=_LOG_RATES, p_m=st.one_of(st.none(), st.floats(0.0, 1.0)))
@example(code=QecCode(100, 1, 3), log_p_t=-200.0, p_m=0.1).via("(w / p_t)^2 is inf, (1 - w)^98 is 0")
@example(code=QecCode(127, 1, 35), log_p_t=math.log10(6.01e-130), p_m=0.321).via("w rounds to 1")
@example(code=QecCode(186, 1, 121), log_p_t=math.log10(4.6e-8), p_m=0.0145).via("share * power overflows")
@example(code=QecCode(9, 1, 3), log_p_t=-3.0, p_m=0.9).via("1 - w lost its digits")
def test_penalty_ratio_on_custom_codes_matches_decimal_event_ratio(code, log_p_t, p_m):
    # Large codes at high memory rates: w near 1, (w / p_t)^i past the float
    # range and (1 - w)^(n - i) below it. One ulp of p_m moves the ratio by
    # up to about eps * n (n - 1) |log1p(-p_m)| (the exponent of 1 - p_m),
    # which no float evaluation can resolve; it is below 5e-13 for p_m <= 0.05.
    p_t = 10**log_p_t
    if p_m is None:
        p_m = p_t / (10 * (code.n - 1))
    expected = event_ratio(code.n, code.min_fail, p_t, p_m)
    if expected > sys.float_info.max:
        with pytest.raises(ValueError, match="^failure-probability ratio is unbounded"):
            serial_penalty_ratio(code, p_t, p_m)
    elif sys.float_info.min <= expected <= 1e300:
        exponent = code.n * (code.n - 1) * -math.log1p(-p_m) if p_m < 1.0 else 0.0
        rel = 1e-12 + 2 * sys.float_info.epsilon * exponent
        assert serial_penalty_ratio(code, p_t, p_m) == pytest.approx(expected, rel=rel, abs=0.0)


@pytest.mark.parametrize(("p_t", "p_m", "expected"), [
    (0.0, 1.0, 1.0),     # no teleportation error, and every qubit's waits fail: never 2 events
    (1.0, 0.01, 1.0),    # every qubit fails teleportation, so no block has exactly 2 events
    (0.01, 1.0, 0.0),    # every memory wait fails: 7 events, never exactly 2
    (1e-200, 1.0, 0.0),  # the same, where (w / p_t)^2 is past the float range
])
def test_penalty_ratio_where_exactly_m_events_cannot_happen(p_t, p_m, expected):
    # p_t = 0 without memory errors, p_t = 0 with them, and p_t = 1e-160
    # at p_m = 0.05 are pinned against recommend in tests/test_timing.py.
    assert serial_penalty_ratio(parse_code("7-1-3"), p_t, p_m) == expected


@pytest.mark.parametrize(("p_t", "p_m"), [(1e-3, 1e-3 / 20000), (0.3, 1e-4), (1e-6, 1e-3), (1e-3, 0.0)])
def test_penalty_ratio_of_a_block_too_wide_for_doubles_matches_decimal(p_t, p_m):
    # C(2001, i) C(2001, 1001 - i) / C(2001, 1001) passes the float range for middle i.
    code = parse_code("2001-1-2001")
    expected = event_ratio(code.n, code.min_fail, p_t, p_m)
    if expected > sys.float_info.max:
        with pytest.raises(ValueError, match="^failure-probability ratio is unbounded"):
            serial_penalty_ratio(code, p_t, p_m)
    else:
        assert serial_penalty_ratio(code, p_t, p_m) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_serial_penalty_vanishes_with_perfect_memory():
    assert serial_penalty_ratio(parse_code("7-1-3"), 1e-3, 1e-12 / 6) == pytest.approx(1.0, abs=1e-6)


def test_serial_penalty_ratio_rejects_a_negative_memory_rate():
    with pytest.raises(ValueError, match=r"p_m must be in \[0, 1\]"):
        serial_penalty_ratio(parse_code("7-1-3"), 1e-3, -1e-4)


def test_serial_penalty_ratio_rejects_a_teleportation_rate_above_one():
    with pytest.raises(ValueError, match=r"p_t must be in \[0, 1\]"):
        serial_penalty_ratio(parse_code("7-1-3"), 1.5, 1e-4)
