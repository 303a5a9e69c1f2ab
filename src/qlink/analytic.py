"""Closed-form failure probabilities for teleporting encoded blocks.

Every quantity is evaluated in one of two modes. LEADING_ORDER keeps only
the lowest failure mode, C(n, m) * p^m with m = (d + 1) / 2, which is the
approximation behind the allowable-error-rate reference table (the table3
command). EXACT_TAIL evaluates the full binomial tail P(errors >= m) and
compounds failures over teleportations without linearizing; it exists as
the independent cross-check on the approximation and as the reference the
Monte Carlo engine is tested against.

Binomial coefficients are computed in exact integer arithmetic (math.comb)
before conversion to float. The serial-link model lives here too: LinkParams
and serial_penalty_ratio.
"""
from __future__ import annotations

import functools
import math
import sys
from enum import Enum

from .codes import CodeStack, QecCode, _check_int, _Record, _set, parse_stack

# Linearizing 1 - (1 - p_e)^t to t * p_e is only honest while t * p_e is
# small; estimates past this threshold are flagged.
LINEARIZATION_LIMIT = 0.1
_LOG_MAX = math.log(sys.float_info.max)   # exp() of anything larger overflows
_NORMAL_MIN = sys.float_info.min

# The exact inversion brackets its root at x (1 -+ _BRACKET_WIDTH) and accepts the bracket only
# where the tail at its ends clears the budget by the relative _BRACKET_MARGIN: far above the
# float tail's error, far below the width, and the width well above the bisection's 1e-9 stop.
_BRACKET_WIDTH = 1e-8
_BRACKET_MARGIN = 1e-9

# Default axes of the allowable-error-rate reference table: the three
# workload sizes crossed with no coding, the two stock codes, and all four
# two-level combinations of them.
TABLE3_T_VALUES = (1e5, 1e8, 1e11)
TABLE3_STACKS = (
    "none",
    "7-1-3",
    "23-1-7",
    "7-1-3+7-1-3",
    "23-1-7+7-1-3",
    "7-1-3+23-1-7",
    "23-1-7+23-1-7",
)


class ModelMode(str, Enum):
    LEADING_ORDER = "leading"
    EXACT_TAIL = "exact"


class Multiplexing(str, Enum):
    """Link style: one qubit per teleportation slot, or many lanes at once."""

    SERIAL = "serial"
    PARALLEL = "parallel"


def _check_prob(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


class LinkParams(_Record):
    """Physical link parameters for one block transfer.

    p_t is the per-qubit teleportation failure probability; p_m the
    per-qubit memory error probability per teleportation-slot of waiting.
    SERIAL, the default, moves one qubit per slot (lanes must be 1);
    PARALLEL with lanes >= block size has no wait slots at all, and
    intermediate lane counts wait ceil(N / lanes) - 1 slots.
    """

    __slots__ = _fields = ("p_t", "p_m", "multiplexing", "lanes")

    def __init__(self, p_t: float, p_m: float = 0.0, multiplexing: Multiplexing = Multiplexing.SERIAL,
                 lanes: int = 1):
        multiplexing = Multiplexing(multiplexing)
        _check_prob(p_t, "p_t")
        _check_prob(p_m, "p_m")
        lanes = _check_int(lanes, "lanes", 1)
        if multiplexing is Multiplexing.SERIAL and lanes != 1:
            raise ValueError("serial links have exactly one lane")
        _set(self, "p_t", p_t)
        _set(self, "p_m", p_m)
        _set(self, "multiplexing", multiplexing)
        _set(self, "lanes", lanes)

    def wait_slots(self, block_size: int) -> int:
        """Memory wait slots each qubit spends while the rest of the block moves.

        ceil(N / lanes) - 1 rounds: N - 1 on a serial link, 0 once lanes >= N.
        """
        return (block_size - 1) // self.lanes

    def fault_probability(self, block_size: int) -> float:
        """Per-qubit probability of at least one error event during transfer.

        1 - (1 - p_t) (1 - p_m)^slots, summed in log1p form so that small
        rates do not cancel against 1. A certain event makes the fault
        certain; a qubit with no wait slots sees no memory error.
        """
        slots = self.wait_slots(block_size)
        if self.p_t == 1.0 or (slots and self.p_m == 1.0):
            return 1.0
        log_clear = math.log1p(-self.p_t)   # log of the chance that no event hits
        if slots:
            log_clear += slots * math.log1p(-self.p_m)
        return -math.expm1(log_clear)


def _block_error(n: int, m: int, q: float, mode: ModelMode) -> float:
    """Probability of m or more errors among n qubits at rate q: a block failure.

    LEADING_ORDER is C(n, m) q^m, the single lowest failure mode, and may
    exceed 1, up to inf past the float range; a C(n, m) itself past that
    range is multiplied in logs. EXACT_TAIL is P(X >= m) for X ~ Binomial(n, q).
    A term whose q^j falls below the normal float range is formed from
    q = f 2^e, f in [0.5, 1), as C(n, j) f^j (1 - q)^(n - j) scaled by
    2^(e j) last. Before the scaling it is at least about 2^-n C(n, j), a
    normal double in every block whose coefficients are doubles, so the
    term rounds as often as the plain product and underflows only at the end.
    """
    if mode is ModelMode.LEADING_ORDER:
        try:
            power = q**m
        except OverflowError:   # float ** raises where it should give inf
            return math.inf
        try:
            return math.comb(n, m) * power
        except OverflowError:   # C(n, m) has no double: inf above the float range, 0 below it
            if not q:
                return 0.0
            log_term = math.log(math.comb(n, m)) + m * math.log(q)
            return math.exp(log_term) if log_term <= _LOG_MAX else math.inf
    row, p = _binomial_row(n), 1.0 - q
    total = 0.0
    top = n + 1   # the terms from top on have a q^j below the normal range
    while top > m and q ** (top - 1) < _NORMAL_MIN:
        top -= 1
    for j in range(m, top):
        total += row[j] * q**j * p ** (n - j)
    if top <= n:   # raise q's mantissa instead, and apply its exponent last
        mantissa, scale = math.frexp(q)
        for j in range(top, n + 1):
            total += math.ldexp(row[j] * mantissa**j * p ** (n - j), scale * j)
    return min(total, 1.0)


@functools.lru_cache(maxsize=32)   # an exact inversion asks for the same few rows a dozen times
def _binomial_row(n: int) -> tuple[float, ...]:
    """C(n, 0), ..., C(n, n) as floats, each the correctly rounded double of its exact integer.

    An int times a float is that int's correctly rounded double times the
    float, so the tail's terms are the ones math.comb's ints give, bit for
    bit. The row is built from C(n, 0) up, so a block too wide for the
    float range raises ValueError at the first coefficient past it, before
    any wider one is formed.
    """
    try:
        return tuple(float(math.comb(n, j)) for j in range(n + 1))
    except OverflowError:
        raise ValueError(f"the exact tail of a {n}-qubit block needs binomial coefficients "
                         "past the float range") from None


def p_stack_block_error(stack: CodeStack, p_t: float, mode: ModelMode = ModelMode.LEADING_ORDER) -> float:
    """Logical-block failure probability under a concatenated stack.

    Recurses inner to outer: the failure probability of one level is the
    per-element error rate fed to the level above. The empty stack passes
    p_t through unchanged. Leading-order intermediates are not clamped to
    [0, 1]; they are approximations, not probabilities, and may exceed 1
    outside the small-p_t regime.
    """
    _check_prob(p_t, "p_t")
    q = p_t
    for code in stack.levels:
        q = _block_error(code.n, code.min_fail, q, mode)
    return q


class AlgorithmFailure(_Record):
    """Whole-computation failure estimate for t logical teleportations."""

    __slots__ = _fields = ("block_error", "p_f", "linearized", "linearization_valid")

    def __init__(self, block_error: float, p_f: float, linearized: float, linearization_valid: bool):
        _set(self, "block_error", block_error)   # p_e fed into both below
        _set(self, "p_f", p_f)                   # 1 - (1 - p_e)^t
        _set(self, "linearized", linearized)     # t * p_e
        _set(self, "linearization_valid", linearization_valid)


def p_algorithm_failure(
    stack: CodeStack, t: float, p_t: float, mode: ModelMode = ModelMode.LEADING_ORDER
) -> AlgorithmFailure:
    """Failure probability of a computation using t logical teleportations.

    Raises if t * p_e leaves the float range, as a deep leading-order stack
    near p_t = 0.5 can make it.
    """
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    p_e = p_stack_block_error(stack, p_t, mode)
    linearized = t * p_e
    if not math.isfinite(linearized):
        raise ValueError(f"t * p_e overflows the float range: t = {t:g}, p_e = {p_e:g}")
    if p_e >= 1.0:
        p_f = 1.0 if t > 0 else 0.0
    else:   # 1 - (1 - p_e)^t without cancelling p_e against 1
        p_f = -math.expm1(t * math.log1p(-p_e))
    return AlgorithmFailure(
        block_error=p_e,
        p_f=p_f,
        linearized=linearized,
        linearization_valid=linearized <= LINEARIZATION_LIMIT,
    )


def allowable_pt(
    stack: CodeStack, t: float, target_pf: float = 0.1, mode: ModelMode = ModelMode.LEADING_ORDER
) -> float:
    """Largest teleportation error rate keeping the computation failure at target.

    LEADING_ORDER inverts the linearized chain in closed form, peeling levels
    outer to inner: q -> (q / C(n, m))^(1/m), starting from target_pf / t.
    Once a quotient q / C(n, m) falls below the normal float range, or
    C(n, m) lies past it, the rest of the chain is peeled in logs, so a
    tiny target keeps its digits.
    EXACT_TAIL inverts the budget once, p_f <= target_pf exactly when the
    block error is at most 1 - (1 - target_pf)^(1/t), and bisects the block
    error over (0, 0.5) to 1e-9 relative width. The float tail is monotone
    only to within its rounding, so the bisection is the definition of the
    answer; a verified bracket (_bracket) only spares it the evaluations
    whose outcome is already known, and the result is the plain bisection's
    double.
    """
    if not 1 <= t < math.inf:   # the exact budget turns an infinite or nan t into a silent answer
        raise ValueError(f"need t >= 1, got {t}" if t < 1 else f"need a finite t, got {t}")
    if not 0.0 < target_pf < 1.0:
        raise ValueError(f"target_pf must be in (0, 1), got {target_pf}")

    if mode is ModelMode.LEADING_ORDER:
        return _leading_root(stack, t, target_pf)

    budget = -math.expm1(math.log1p(-target_pf) / t)
    a, b = _bracket(stack, budget)   # rates at or below a meet the budget, at or above b miss it
    lo, hi = 0.0, 0.5
    if hi < b and p_stack_block_error(stack, hi, mode) <= budget:
        return hi
    # p_e(0) = 0 <= budget, p_e(hi) > budget: the root is bracketed.
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:   # adjacent subnormals: the bracket cannot shrink further
            break
        if mid <= a or mid < b and p_stack_block_error(stack, mid, mode) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def _leading_root(stack: CodeStack, t: float, target_pf: float) -> float:
    """The LEADING_ORDER allowable rate, also the exact inversion's first guess; see allowable_pt."""
    q = target_pf / t
    levels = stack.levels[::-1]
    for i, code in enumerate(levels):
        try:
            quotient = q / math.comb(code.n, code.min_fail)
        except OverflowError:   # a coefficient past the float range
            quotient = 0.0
        if quotient < _NORMAL_MIN:   # a subnormal quotient has lost digits
            log_q = math.log(q) if q >= _NORMAL_MIN else math.log(target_pf) - math.log(t)
            for inner in levels[i:]:
                log_q = (log_q - math.log(math.comb(inner.n, inner.min_fail))) / inner.min_fail
            return math.exp(log_q)
        q = quotient ** (1.0 / code.min_fail)
    return q


def _bracket(stack: CodeStack, budget: float) -> tuple[float, float]:
    """Rates (a, b) around the exact-tail root: p_e <= budget at every rate up to a, above it from b on.

    The float tail is not monotone: adjacent rates can give block errors a
    few 1e-15 relative out of order. So a bracket a = x (1 - w), b = x (1 + w)
    around the secant root x is accepted only where p_e(a) <= budget (1 - k)
    and p_e(b) > budget (1 + k), with w = _BRACKET_WIDTH and k =
    _BRACKET_MARGIN, and where k / 8 bounds the tail's error at every rate:
    then each rate below a evaluates within budget and each above b past it,
    as the bisection would find. (0, inf) stands for no bracket.
    """
    for code in stack.levels:
        _binomial_row(code.n)   # names a block too wide for doubles before any C(n, m) is formed
    rel, floor = _tail_error_bound(stack)
    if not (budget > 0.0 and rel <= _BRACKET_MARGIN / 8 and floor <= _BRACKET_MARGIN / 8 * budget):
        return 0.0, math.inf
    x = _secant_root(stack, budget)
    a, b = x * (1.0 - _BRACKET_WIDTH), x * (1.0 + _BRACKET_WIDTH)
    if (x and p_stack_block_error(stack, a, ModelMode.EXACT_TAIL) <= budget * (1.0 - _BRACKET_MARGIN)
            and p_stack_block_error(stack, b, ModelMode.EXACT_TAIL) > budget * (1.0 + _BRACKET_MARGIN)):
        return a, b
    return 0.0, math.inf


def _tail_error_bound(stack: CodeStack) -> tuple[float, float]:
    """(r, f): the float exact tail is within p_e r + f of the true p_e at every rate.

    Carried level by level, inner to outer. Each term rounds within n - j + 7
    units of 2^-53 and the positive sum adds n more, and an input error r
    grows at most m-fold, since p d/dp P(X >= m) = m P(X = m). Underflow
    adds at most 2^(n + 3) units of 2^-1074, and an absolute input error f
    grows at most n-fold, since d/dp P(X >= m) = n P(Bin(n - 1, p) = m - 1).
    """
    rel = floor = 0.0
    for code in stack.levels:
        rel = code.min_fail * rel + 2 * (code.n + 4) * 2.0**-53
        floor = code.n * floor + math.ldexp(1.0, code.n + 3 - 1074)
    return rel, floor


def _secant_root(stack: CodeStack, budget: float) -> float:
    """A rate near where the exact tail meets budget in (0, 0.5], or 0.0 where none is found.

    Starts from the leading-order root of the budget and takes secant steps
    on log p_e against log p_t, the first with the small-rate slope, the
    product of the levels' m (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4), evaluating the tail at most eight times. The
    rate a step s reaches is off the root by about c s s', s' the step
    before (1 for the first), where c is half the curve's bend over its
    slope: about 0.6 on 101-1-51, though 4 on 1029-1-515. So the steps stop
    once |s s'| is below w / 2, and _bracket checks the rate either way.
    """
    x = _leading_root(stack, 1.0, budget)
    slope, last, prior = math.prod(code.min_fail for code in stack.levels), None, 1.0
    log_budget = math.log(budget)
    for _ in range(8):
        if not 0.0 < x <= 0.5:
            return 0.0
        p_e = p_stack_block_error(stack, x, ModelMode.EXACT_TAIL)
        if p_e == 0.0:   # the tail underflows: no slope in logs
            return 0.0
        point = (math.log(x), math.log(p_e))
        if last is not None:
            slope = (point[1] - last[1]) / (point[0] - last[0])
        if not slope > 0.0:
            return 0.0
        step = (log_budget - point[1]) / slope
        x, last = math.exp(min(point[0] + step, 0.0)), point   # past 1 is out of range: no overflow
        if abs(step * prior) < _BRACKET_WIDTH / 2:
            break
        prior = step
    return x if 0.0 < x <= 0.5 else 0.0


def _wait_rate(n: int, p_m: float) -> tuple[float, float]:
    """(w, log(1 - w)): the chance that a qubit of an n-qubit block meets a memory error on a serial link.

    w = 1 - (1 - p_m)^(n - 1) is formed as -expm1((n - 1) log1p(-p_m)),
    bit for bit what LinkParams(0.0, p_m).fault_probability(n) gives
    without building the link: 1 at p_m = 1, and 0 for n = 1, whose qubit
    never waits.
    """
    if n == 1:
        return 0.0, 0.0
    log_clear = (n - 1) * math.log1p(-p_m) if p_m < 1.0 else -math.inf
    return -math.expm1(log_clear), log_clear


def serial_penalty_ratio(code: QecCode, p_t: float, p_m: float) -> float:
    """Block failure on a serial link over that on a parallel one: exactly m events.

    Exactly m = code.min_fail events hit the block: i memory errors at the
    serial waiting rate w = 1 - (1 - p_m)^(n-1) and m - i teleportation
    errors. Each term is divided by the teleportation-only C(n, m) p_t^m
    (1 - p_t)^(n-m) before the sum, so no p_t^m is formed. Events are not
    faulty qubits: a qubit hit twice is two events here, one in the
    simulation. 1.0 where both failures vanish; raises where unbounded.

    Past w = 1/2, 1 - w is taken from log(1 - w), as _wait_rate gives it:
    w rounded near 1 has lost the digits of 1 - w, and may even be 1. A
    term that overflows on the way, or whose (1 - w)^(n - i) is below the
    normal float range, is formed in logs.
    """
    _check_prob(p_t, "p_t")
    _check_prob(p_m, "p_m")
    n, m = code.n, code.min_fail
    w, log_clear = _wait_rate(n, p_m)
    if p_t == 1.0 or w == 0.0 or p_t == 0.0 and p_m == 1.0:
        return 1.0   # no memory error, or both failures vanish
    clear = 1.0 - w if w <= 0.5 else math.exp(log_clear)
    rate = w / p_t if p_t else math.inf
    ways = [math.comb(n, i) for i in range(m + 1)]
    whole = ways[m]
    total, power = 0.0, 1.0   # power is (w / p_t)^i, by products that overflow to inf
    for i in range(m + 1):
        try:
            share = ways[i] * ways[m - i] / whole
        except OverflowError:   # past the float range: the term is formed in logs
            share = math.inf
        factor = clear ** (n - i)
        term = share * power * factor * (1.0 - p_t) ** i
        if not (term < math.inf and factor >= _NORMAL_MIN):   # inf, nan, or inexact
            log_share = math.log(share) if share < math.inf else (
                math.log(ways[i] * ways[m - i]) - math.log(whole))
            log_term = (log_share + i * (math.log(w) - math.log(p_t) + math.log1p(-p_t))
                        + (n - i) * log_clear) if p_t else math.inf
            term = math.exp(log_term) if log_term <= _LOG_MAX else math.inf
        total += term
        if clear > 0.0:   # where it is 0 the terms come from logs, and inf * 0 would be nan
            power *= rate
    if not total < math.inf:
        raise ValueError(f"failure-probability ratio is unbounded at p_t = {p_t:g}, p_m = {p_m:g}")
    return total


class Table3Row(_Record):
    __slots__ = _fields = ("stack", "scale_up", "t", "mode", "allowable_pt")

    def __init__(self, stack: str, scale_up: int, t: float, mode: ModelMode, allowable_pt: float):
        _set(self, "stack", stack)
        _set(self, "scale_up", scale_up)
        _set(self, "t", t)
        _set(self, "mode", mode)
        _set(self, "allowable_pt", allowable_pt)


def table3(
    t_values=None,
    stacks=None,
    target_pf: float = 0.1,
    mode: ModelMode = ModelMode.LEADING_ORDER,
) -> list[Table3Row]:
    """Allowable teleportation error rate per stack and workload size.

    Defaults reproduce the reference table: seven stacks crossed with
    t in {1e5, 1e8, 1e11} at a 10% whole-computation failure budget.
    """
    if t_values is None:
        t_values = TABLE3_T_VALUES
    if stacks is None:
        stacks = [parse_stack(s) for s in TABLE3_STACKS]
    rows = []
    for stack in stacks:
        for t in t_values:
            rows.append(
                Table3Row(
                    stack=stack.spec(),
                    scale_up=stack.scale_up,
                    t=float(t),
                    mode=mode,
                    allowable_pt=allowable_pt(stack, t, target_pf, mode),
                )
            )
    return rows
