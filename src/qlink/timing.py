"""Link timing model: serial vs parallel transfer of an encoded block.

A serial link moves the block one qubit per teleportation time t_t, so the
local correction that follows the transfer starts n times later than on a
fully parallel link, but the cycle time only stretches by n * t_t against
t_t + t_lqec. When local correction dominates, the slowdown is small, and a
serial link is recommended whenever both that slowdown and the memory-error
penalty stay under configurable thresholds.
"""
from __future__ import annotations

import math
import sys

from .analytic import Multiplexing, serial_penalty_ratio
from .codes import QecCode, _check_int, _Record, _set

DEFAULT_SLOWDOWN_THRESHOLD = 1.5
DEFAULT_RELIABILITY_THRESHOLD = 1.5


class CycleTimes(_Record):
    __slots__ = _fields = ("serial", "parallel", "slowdown", "start_delay_factor")

    def __init__(self, serial: float, parallel: float, slowdown: float, start_delay_factor: int):
        _set(self, "serial", serial)
        _set(self, "parallel", parallel)
        _set(self, "slowdown", slowdown)
        _set(self, "start_delay_factor", start_delay_factor)   # rounds before correction begins, vs parallel


def cycle_times(t_t: float, t_lqec: float, n: int, lanes: int = 1) -> CycleTimes:
    """Transfer-plus-correction cycle time for both link styles.

    t_t is one teleportation time, t_lqec one local-correction time, and n
    the block size. With `lanes` channels the block crosses in
    ceil(n / lanes) rounds; one lane is the serial case, n lanes the
    parallel one.
    """
    for name, value in (("t_t", t_t), ("t_lqec", t_lqec)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if t_t <= 0:
        raise ValueError(f"t_t must be > 0, got {t_t}")
    if t_lqec < 0:
        raise ValueError(f"t_lqec must be >= 0, got {t_lqec}")
    n = _check_int(n, "n", 1)
    lanes = _check_int(lanes, "lanes", 1)
    rounds = -(-n // lanes)   # integer ceil: n may lie past float range
    if rounds > sys.float_info.max:
        raise ValueError("the number of transfer rounds overflows a float")
    serial = rounds * t_t + t_lqec
    parallel = t_t + t_lqec
    if math.isinf(serial):   # serial >= parallel, so parallel is finite too
        raise ValueError(f"the serial cycle time overflows a float: {rounds} rounds of t_t = "
                         f"{t_t:g} plus t_lqec = {t_lqec:g}")
    return CycleTimes(
        serial=serial,
        parallel=parallel,
        slowdown=serial / parallel,
        start_delay_factor=rounds,
    )


class Recommendation(_Record):
    __slots__ = _fields = ("choice", "slowdown", "reliability_ratio", "slowdown_threshold",
                           "reliability_threshold", "reasons")

    def __init__(self, choice: Multiplexing, slowdown: float, reliability_ratio: float,
                 slowdown_threshold: float, reliability_threshold: float, reasons: tuple[str, ...]):
        _set(self, "choice", choice)
        _set(self, "slowdown", slowdown)
        _set(self, "reliability_ratio", reliability_ratio)
        _set(self, "slowdown_threshold", slowdown_threshold)
        _set(self, "reliability_threshold", reliability_threshold)
        _set(self, "reasons", reasons)


def recommend(
    code: QecCode,
    t_t: float,
    t_lqec: float,
    p_t: float,
    p_m: float,
    slowdown_threshold: float = DEFAULT_SLOWDOWN_THRESHOLD,
    reliability_threshold: float = DEFAULT_RELIABILITY_THRESHOLD,
) -> Recommendation:
    """Pick a link style for transferring one block of the given code.

    Serial wins when both penalties are acceptable: the cycle-time slowdown
    of a one-lane link carrying code.n qubits, and the failure-probability
    ratio, analytic.serial_penalty_ratio.
    """
    for name, value in (("slowdown_threshold", slowdown_threshold),
                        ("reliability_threshold", reliability_threshold)):
        if not math.isfinite(value):   # a NaN fails both comparisons below and would pick serial
            raise ValueError(f"{name} must be finite, got {value}")
    times = cycle_times(t_t, t_lqec, code.n)
    ratio = serial_penalty_ratio(code, p_t, p_m)

    reasons = []
    if times.slowdown > slowdown_threshold:
        reasons.append(
            f"cycle slowdown {times.slowdown:.4g} exceeds threshold {slowdown_threshold:g}"
        )
    if ratio > reliability_threshold:
        reasons.append(
            f"failure-probability ratio {ratio:.4g} exceeds threshold {reliability_threshold:g}"
        )
    choice = Multiplexing.PARALLEL if reasons else Multiplexing.SERIAL
    if not reasons:
        reasons.append("slowdown and reliability penalties both within thresholds")
    return Recommendation(
        choice=choice,
        slowdown=times.slowdown,
        reliability_ratio=ratio,
        slowdown_threshold=slowdown_threshold,
        reliability_threshold=reliability_threshold,
        reasons=tuple(reasons),
    )
