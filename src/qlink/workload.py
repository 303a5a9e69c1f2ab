"""Teleportation-count model for the modular exponentiation workload.

Anchored at measured counts for 16-, 128-, and 1024-bit problem sizes;
other sizes scale cubically from the nearest anchor (nearest in log size)
and are flagged as extrapolated. The low end of each anchor range belongs
to carry-ripple addition, the high end to carry-lookahead.
"""
from __future__ import annotations

import math
from enum import Enum

from .codes import _Record, _set

# bits -> (carry-ripple teleportations, carry-lookahead teleportations)
ANCHORS: dict[int, tuple[float, float]] = {
    16: (14_000.0, 125_000.0),
    128: (8e6, 1e8),
    1024: (4e9, 6e10),
}


class AdderKind(str, Enum):
    CARRY_RIPPLE = "ripple"
    CARRY_LOOKAHEAD = "lookahead"


class TeleportEstimate(_Record):
    """Teleportation count range; a point query fills both ends equally."""

    __slots__ = _fields = ("t_low", "t_high", "extrapolated", "anchor_bits")

    def __init__(self, t_low: float, t_high: float, extrapolated: bool, anchor_bits: int):
        _set(self, "t_low", t_low)
        _set(self, "t_high", t_high)
        _set(self, "extrapolated", extrapolated)
        _set(self, "anchor_bits", anchor_bits)


def _nearest_anchor(bits: int) -> int:
    return min(ANCHORS, key=lambda a: abs(math.log(bits / a)))


def _scaled(bits: int, anchor: int, column: int) -> float:
    return ANCHORS[anchor][column] * (bits / anchor) ** 3


def teleport_count(bits: int, adder: AdderKind | None = None) -> TeleportEstimate:
    """Teleportations needed for a full modular exponentiation at this size.

    adder None asks for the full range between the two adders.
    """
    if isinstance(bits, float) and not math.isfinite(bits):
        raise ValueError(f"bits must be finite, got {bits}")
    if bits < 2:
        raise ValueError(f"bits must be >= 2, got {bits}")
    try:
        anchor = _nearest_anchor(bits)
        low = _scaled(bits, anchor, 0)
        high = _scaled(bits, anchor, 1)
    except OverflowError:
        high = math.inf
    if math.isinf(high):   # the lookahead count is the larger one
        raise ValueError("the teleportation count overflows a float at this problem size")
    extrapolated = bits not in ANCHORS
    if adder is AdderKind.CARRY_RIPPLE:
        high = low
    elif adder is AdderKind.CARRY_LOOKAHEAD:
        low = high
    return TeleportEstimate(t_low=low, t_high=high, extrapolated=extrapolated, anchor_bits=anchor)
