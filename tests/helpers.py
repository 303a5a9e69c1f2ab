"""Independent oracles shared across the test suite.

Everything here deliberately avoids the library's own code paths: binomial
coefficients come from Pascal's triangle, tails from explicit enumeration,
rounding from decimal arithmetic, and Monte Carlo counts from whole-block
draws decoded once per rate.
"""
import math
from decimal import ROUND_HALF_UP, Decimal

import numpy as np


def round_sig(value: float, figs: int) -> float:
    """Round to a number of significant figures, halves away from zero."""
    if value == 0:
        return 0.0
    exponent = math.floor(math.log10(abs(value)))
    quantum = Decimal(1).scaleb(exponent - figs + 1)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def pascal_row(n: int) -> list[int]:
    """Row n of Pascal's triangle, built by addition only."""
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row


def weight_tail(n: int, m: int, p: float) -> float:
    """P(at least m errors) summed over error weights."""
    coefficients = pascal_row(n)
    return sum(coefficients[w] * p**w * (1.0 - p) ** (n - w) for w in range(m, n + 1))


def pattern_tail(n: int, m: int, p: float) -> float:
    """P(at least m errors) summed over all 2^n error patterns."""
    total = 0.0
    for bits in range(1 << n):
        weight = bin(bits).count("1")
        if weight >= m:
            total += p**weight * (1.0 - p) ** (n - weight)
    return total


def reference_decode(faulty, levels):
    """Trials whose top-level block fails under majority decoding.

    `levels` lists (n, d) per code level, innermost first; a block fails
    with at least (d + 1) // 2 failed members, counted in int64.
    """
    rows, width = faulty.shape
    for n, d in levels:
        width //= n
        faulty = faulty.reshape(rows, width, n).sum(axis=2, dtype=np.int64) >= (d + 1) // 2
    return faulty.any(axis=1)


def reference_failures(levels, rates, trials: int, seed: int) -> list[int]:
    """Failure counts of a trial run, one count per fault rate, by brute force.

    Trials come in blocks of 2**14; block j is drawn whole from
    Philox(key=seed).jumped(j), one uniform per qubit, and every rate
    thresholds and decodes the block on its own.
    """
    block = 1 << 14
    width = math.prod(n for n, _ in levels)
    counts = [0] * len(rates)
    for j in range(-(-trials // block)):
        rows = min(block, trials - j * block)
        uniforms = np.random.Generator(np.random.Philox(key=seed).jumped(j)).random((rows, width))
        for k, q in enumerate(rates):
            counts[k] += int(reference_decode(uniforms < q, levels).sum())
    return counts
