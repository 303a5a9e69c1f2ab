"""Trial-level simulation of logical-block transfer over serial or parallel links.

Each trial teleports one logical block of N = scale_up(stack) physical
qubits. A qubit is faulty iff it suffered at least one error event: a
teleportation error (probability p_t), or, when qubits wait their turn on a
narrower link, a memory error during the wait (probability
p'_m = 1 - (1 - p_m)^slots over the wait slots). Because only the union of
the two events is observable, each qubit consumes exactly one draw,
compared against the combined fault probability q; serial and parallel runs
with the same seed therefore share draws, and the serial failure set
dominates the parallel one trial by trial.

Reproducibility contract (layout `philox-jumped-block16384`): trials are
grouped in fixed blocks of 2**14, and block j draws from the Philox substream
jumped(j) of the master seed. Philox is counter-based, so word w of that
substream is made from counter [w // 4 + 1, 0, j, 0], and a generator can be
seated at any word of any block (_seat). Each qubit consumes one 64-bit
Philox word w, whose uniform is (w >> 11) * 2**-53. The mapping from trial
index to words never depends on worker count, so any partitioning of the
trials across workers gives bit-identical failure counts.

The engine never forms that uniform. Because q * 2**53 is exact for q in
[0, 1], the uniform is below q exactly when w < ceil(q * 2**53) * 2**11
(_word_cut), so each rate becomes an integer cut and the words are compared
with it directly. A link with q = 1 faults every qubit, so it fails every
trial without a draw; every other rate's cut is below 2**64 and is compared
as a uint64.

One draw answers every rate of a batch. The words depend only on the seed,
so configs that share stack, trials, seed and workers (a sweep's grid, or a
serial/parallel pair) see the same words, and simulate_block_transfers
draws each block once for all of them. The majority decoder is monotone in
q: a trial fails at q iff q's cut exceeds its critical word c, where an
innermost code block's c is its min_fail-th smallest word, and each higher
level takes the min_fail-th smallest c of its sub-blocks, up to the one
top-level block (an uncoded qubit's c is its word). So `c < cut` holds
exactly when decoding `words < cut` fails. Each block is thresholded and
decoded once, at the largest requested cut (top), with one einsum count per
code level; only the trials that fail there can fail at a smaller one. When
top is 0 (every rate 0 or certain) no trial can fail, and no tile is drawn.
When no cut lies strictly between 0 and top (every single config, and any
batch whose live rates coincide), the failing rows are counted once and
nothing is ranked. Otherwise their critical words come from a pruned rank:
decoding keeps every level's block-failure mask, and only the blocks that
fail at top inside failing trials are gathered (np.take) and ranked, while
every other block stands in as 2**64 - 1. A block that passes at top has a
critical word >= top anyway, and a block that fails has at least min_fail
members below top, so no failing trial's word changes (_critical_words). The
words are then counted below every cut with one sort and a binary search per
tile (see below).

The work unit is a tile: the largest power-of-two number of rows whose
words fit in TILE_BYTES (one row if a row is larger), so tiles divide every
full block evenly. At most one thread per core takes tile indices from one
shared counter, so a slower thread simply takes fewer tiles. Each thread owns
one generator for the whole call and seats it at its tile's first word, so
the words are those of drawing the whole block at once. Each tile is
thresholded, decoded and counted, and dropped before the next one is drawn
(random_raw cannot fill a reused buffer), so a worker's draw memory is
bounded by TILE_BYTES, not by a block of 2**14 * N words (69 MB for N = 529).
Integer counts sum alike in any grouping, so the totals do not depend on
which thread took which tile.
"""
from __future__ import annotations

import itertools
import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# Re-exported: perfbench/pin.py imports both from here (test_benchmark_call_forms_resolve).
from .analytic import LinkParams, Multiplexing
from .codes import CodeStack

TRIAL_BLOCK = 1 << 14
TILE_BYTES = 1 << 22   # most bytes of 64-bit words per drawn tile (one row at least)
Z_95 = 1.959963984540054   # two-sided 95% normal quantile


@dataclass(frozen=True)
class McConfig:
    stack: CodeStack
    link: LinkParams
    trials: int
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.trials >= 2**63:   # the engine counts in int64
            raise ValueError("trials must be below 2**63")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo outcome with a 95% Wilson score interval."""

    trials: int
    failures: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed: int


def wilson_interval(failures: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval; behaves sensibly even at 0 or few failures."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= failures <= trials:
        raise ValueError("failures must be in [0, trials]")
    p_hat = failures / trials
    z2n = z * z / trials
    denom = 1.0 + z2n
    center = (p_hat + z2n / 2.0) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2n / (4.0 * trials)) / denom
    # Clamp away float dust: the interval always contains p_hat and [0, 1].
    return min(max(0.0, center - half), p_hat), max(min(1.0, center + half), p_hat)


def _seat(bits: np.random.Philox, seed: int, block: int, word: int) -> None:
    """Seat bits so that its next words are Philox(key=seed).jumped(block)'s from `word` on.

    Philox raises counter[0] before it makes each group of four words, so a
    generator with that counter at word // 4 and an empty buffer makes the
    group that holds `word` next; the first word % 4 of it are discarded.
    """
    bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": [word // 4, 0, block, 0], "key": [seed, 0]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bits.random_raw(word % 4)


def _word_cut(q: float) -> int:
    """The cut of rate q in [0, 1]: (w >> 11) * 2**-53 < q exactly when w < cut.

    q * 2**53 and its ceiling are exact, so the cut is an integer in
    [0, 2**64]: 0 passes no word, and 2**64 (q = 1 only) passes every one.
    """
    return math.ceil(q * 2**53) << 11


def _decode(faulty: np.ndarray, stack: CodeStack) -> list[np.ndarray]:
    """Hierarchical majority-of-blocks decode: every level's block-failure mask.

    Returns one (rows, blocks) mask per level, innermost first, so the last
    one has a single column, True where the top level fails; the uncoded
    stack has no levels and returns [faulty]. Each level counts every code
    block's faulty members with one einsum over the member axis, not one add
    per member. The counts are just wide enough for n, so codes with
    n >= 256 do not wrap. Reshapes name every size, because -1 is ambiguous
    on zero rows.
    """
    rows, width = faulty.shape
    masks = []
    for code in stack.levels:
        width //= code.n
        members = faulty.view(np.uint8).reshape(rows, width, code.n)
        faulty = np.einsum("ijk->ij", members, dtype=np.min_scalar_type(code.n)) >= code.min_fail
        masks.append(faulty)
    return masks or [faulty]


_STAND_IN = np.uint64((1 << 64) - 1)   # the rank's word for a block that passes at top


def _critical_words(words: np.ndarray, masks: list[np.ndarray], stack: CodeStack) -> np.ndarray:
    """Sorted critical words of the trials that fail at the top cut.

    `masks` is _decode of `words < top`. A trial fails at cut c iff its
    critical word is < c. Level by level, only the blocks that fail at top
    inside failing trials are gathered, with np.take by flat block index,
    and ranked; every other block of those trials stands in as 2**64 - 1.
    That changes no failing trial's word: a block that passes at top has a
    critical word >= top, as the stand-in has, and a failing block's word is
    its min_fail-th smallest member, at least min_fail of which are < top
    and exact. Reshapes name every size, because -1 is ambiguous on zero
    rows.
    """
    failing = np.flatnonzero(masks[-1][:, 0])
    rows, critical = failing, words   # critical's row of each failing trial
    for code, mask in zip(stack.levels, masks):
        blocks = mask.shape[1]
        fails = np.flatnonzero(mask[failing])   # over (failing trial, block)
        trial, block = np.divmod(fails, blocks)
        index = rows[trial] * blocks + block
        members = np.take(critical.reshape(len(critical) * blocks, code.n), index, axis=0)
        members.partition(code.min_fail - 1, axis=1)
        critical = np.full(len(failing) * blocks, _STAND_IN, dtype=np.uint64)
        critical[fails] = members[:, code.min_fail - 1]
        critical = critical.reshape(len(failing), blocks)
        rows = np.arange(len(failing))
    return np.sort(critical[rows, 0])   # widths multiply to N, so one block is left


def simulate_block_transfers(configs: Sequence[McConfig]) -> list[McEstimate]:
    """Estimate the transfer failure probability of every config from one draw.

    The configs must share stack, trials, seed and workers; their links may
    differ. Each estimate's failures are those that simulate_block_transfer
    gives for its config alone.
    """
    if not configs:
        raise ValueError("need at least one config")
    first = configs[0]
    shared = (first.stack, first.trials, first.seed, first.workers)
    for config in configs[1:]:
        if (config.stack, config.trials, config.seed, config.workers) != shared:
            raise ValueError("batched configs must share stack, trials, seed and workers")
    stack = first.stack
    width = stack.scale_up
    # A certain fault (q = 1) fails every trial without a draw: its bound is 0,
    # so it counts nothing here, and it takes `trials` below. Every other cut
    # fits a uint64 and is compared as one, never as a Python int, which
    # numpy 1.x and 2.x promote differently against uint64 arrays.
    rates = [config.link.fault_probability(width) for config in configs]
    certain = [q == 1.0 for q in rates]
    bounds = np.array([0 if sure else _word_cut(q) for q, sure in zip(rates, certain)], dtype=np.uint64)
    top = bounds.max()
    # With no cut strictly between 0 and top, a tile's failing rows at top
    # are every count: cuts equal to top take them, and cut 0 fails nothing.
    ranked = bool(((bounds > 0) & (bounds < top)).any())
    at_top = (bounds == top).astype(np.int64)
    # Power-of-two tiles divide a block evenly, so tile i starts at trial
    # i * tile_rows, in block i * tile_rows // TRIAL_BLOCK. No trial fails
    # at top 0 (every rate 0 or certain), so then no tile is drawn.
    tile_rows = 1 << max(0, min(TRIAL_BLOCK, TILE_BYTES // (8 * width)).bit_length() - 1)
    tiles = (first.trials + tile_rows - 1) // tile_rows if top else 0
    queue = itertools.count()   # next() is atomic under the GIL: each tile goes to one thread

    def tile_counts(words: np.ndarray) -> np.ndarray:
        masks = _decode(words < top, stack)
        if not ranked:
            return np.count_nonzero(masks[-1]) * at_top
        return np.searchsorted(_critical_words(words, masks, stack), bounds, side="left")

    def work() -> np.ndarray:
        bits = np.random.Philox()
        counts = np.zeros(len(bounds), dtype=np.int64)
        for i in queue:
            if i >= tiles:
                return counts
            block, lo = divmod(i * tile_rows, TRIAL_BLOCK)
            rows = min(tile_rows, first.trials - i * tile_rows)
            _seat(bits, first.seed, block, lo * width)
            # The words are freed when tile_counts returns, before the next draw.
            counts += tile_counts(bits.random_raw(rows * width).reshape(rows, width))

    k = max(1, min(first.workers, tiles, os.cpu_count() or 1))   # with no tile, one thread returns zeros
    with ThreadPoolExecutor(max_workers=k) as pool:
        counts = sum(pool.map(lambda _: work(), range(k)))
    estimates = []
    for config, sure, counted in zip(configs, certain, counts.tolist()):
        failures = config.trials if sure else counted
        ci_low, ci_high = wilson_interval(failures, config.trials)
        estimates.append(McEstimate(
            trials=config.trials,
            failures=failures,
            p_hat=failures / config.trials,
            ci_low=ci_low,
            ci_high=ci_high,
            seed=config.seed,
        ))
    return estimates


def simulate_block_transfer(config: McConfig) -> McEstimate:
    """Estimate the logical-block transfer failure probability by simulation."""
    return simulate_block_transfers([config])[0]

