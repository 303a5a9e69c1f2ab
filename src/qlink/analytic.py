"""Closed-form failure probabilities for teleporting encoded blocks.

Every quantity is evaluated in one of two modes. LEADING_ORDER keeps only
the lowest failure mode, C(n, m) * p^m with m = (d + 1) / 2, which is the
approximation behind the allowable-error-rate reference table (the table3
command). EXACT_TAIL evaluates the full binomial tail P(errors >= m) and
compounds failures over teleportations without linearizing; it exists as
the independent cross-check on the approximation and as the reference the
Monte Carlo engine is tested against.

Binomial coefficients are computed in exact integer arithmetic (math.comb)
before conversion to float. The serial-link model lives here too: LinkParams,
combined_failure_analytic and serial_penalty_ratio.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .codes import CodeStack, QecCode, parse_stack

# Linearizing 1 - (1 - p_e)^t to t * p_e is only honest while t * p_e is
# small; estimates past this threshold are flagged.
LINEARIZATION_LIMIT = 0.1

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


@dataclass(frozen=True)
class LinkParams:
    """Physical link parameters for one block transfer.

    p_t is the per-qubit teleportation failure probability; p_m the
    per-qubit memory error probability per teleportation-slot of waiting.
    SERIAL moves one qubit per slot (lanes must be 1); PARALLEL with
    lanes >= block size has no wait slots at all, and intermediate lane
    counts wait ceil(N / lanes) - 1 slots.
    """

    p_t: float
    p_m: float = 0.0
    multiplexing: Multiplexing = Multiplexing.PARALLEL
    lanes: int = 1

    def __post_init__(self):
        _check_prob(self.p_t, "p_t")
        _check_prob(self.p_m, "p_m")
        if self.lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {self.lanes}")
        if self.multiplexing is Multiplexing.SERIAL and self.lanes != 1:
            raise ValueError("serial links have exactly one lane")

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


def _exact_errors_term(n: int, j: int, p: float) -> float:
    """Probability of exactly j errors among n qubits at rate p."""
    return math.comb(n, j) * p**j * (1.0 - p) ** (n - j)


def p_block_error(n: int, m: int, p_t: float, mode: ModelMode = ModelMode.LEADING_ORDER) -> float:
    """Probability that a block of n qubits suffers an uncorrectable error count.

    LEADING_ORDER returns C(n, m) * p_t^m, the single lowest failure mode.
    EXACT_TAIL returns P(X >= m) for X ~ Binomial(n, p_t), i.e. m or more
    errors, which is the true uncorrectable-event probability.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    _check_prob(p_t, "p_t")
    return _block_error(n, m, p_t, mode)


def _block_error(n: int, m: int, q: float, mode: ModelMode) -> float:
    """p_block_error without validation: leading-order values may exceed 1."""
    if mode is ModelMode.LEADING_ORDER:
        return math.comb(n, m) * q**m
    if m == 0:
        return 1.0
    total = 0.0
    for j in range(m, n + 1):
        total += _exact_errors_term(n, j, q)
    return min(total, 1.0)


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


@dataclass(frozen=True)
class AlgorithmFailure:
    """Whole-computation failure estimate for t logical teleportations."""

    block_error: float      # p_e fed into both below
    p_f: float              # 1 - (1 - p_e)^t
    linearized: float       # t * p_e
    linearization_valid: bool


def p_algorithm_failure(
    stack: CodeStack, t: float, p_t: float, mode: ModelMode = ModelMode.LEADING_ORDER
) -> AlgorithmFailure:
    """Failure probability of a computation using t logical teleportations."""
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    p_e = p_stack_block_error(stack, p_t, mode)
    linearized = t * p_e
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
    EXACT_TAIL bisects the monotone map p_t -> p_f over (0, 0.5) to 1e-9
    relative width.
    """
    if t < 1:
        raise ValueError(f"need t >= 1, got {t}")
    if not 0.0 < target_pf < 1.0:
        raise ValueError(f"target_pf must be in (0, 1), got {target_pf}")

    if mode is ModelMode.LEADING_ORDER:
        q = target_pf / t
        for code in reversed(stack.levels):
            q = (q / math.comb(code.n, code.min_fail)) ** (1.0 / code.min_fail)
        return q

    lo, hi = 0.0, 0.5
    if p_algorithm_failure(stack, t, hi, mode).p_f <= target_pf:
        return hi
    # p_f(0) = 0 < target, p_f(hi) > target: the root is bracketed.
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:   # adjacent subnormals: the bracket cannot shrink further
            break
        if p_algorithm_failure(stack, t, mid, mode).p_f <= target_pf:
            lo = mid
        else:
            hi = mid
    return lo


def combined_failure_analytic(n: int, m: int, p_t: float, p_m: float) -> float:
    """Probability of m total error events, memory and teleportation combined.

    Convolves the exact binomial term for i memory errors (at the aggregated
    waiting rate p'_m = 1 - (1 - p_m)^(n-1), a serial link's memory-only
    fault probability) with the exact term for m - i teleportation errors.
    This counts events, not faulty qubits: a qubit hit by both error kinds
    contributes two events here but one faulty qubit in the simulation, a
    difference of second order in the error rates.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    _check_prob(p_t, "p_t")
    pm_wait = LinkParams(0.0, p_m, Multiplexing.SERIAL).fault_probability(n)
    total = 0.0
    for i in range(m + 1):
        total += _exact_errors_term(n, i, pm_wait) * _exact_errors_term(n, m - i, p_t)
    return total


def serial_penalty_ratio(code: QecCode, p_t: float, p_m: float) -> float:
    """Combined over teleportation-only block failure: 1.0 if both vanish, raises if unbounded."""
    combined = combined_failure_analytic(code.n, code.min_fail, p_t, p_m)
    teleport_only = combined_failure_analytic(code.n, code.min_fail, p_t, 0.0)
    if teleport_only > 0:
        ratio = combined / teleport_only
    else:
        ratio = 1.0 if combined == 0 else math.inf
    if math.isinf(ratio):
        raise ValueError(
            f"failure-probability ratio is unbounded: at p_t = {p_t:g} the teleportation-only "
            f"block failure is {teleport_only:g} but the combined one is {combined:g}"
        )
    return ratio


@dataclass(frozen=True)
class Table3Row:
    stack: str
    scale_up: int
    t: float
    mode: ModelMode
    allowable_pt: float


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
