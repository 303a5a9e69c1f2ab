"""Trial-level simulation of logical-block transfer over serial or parallel links.

Each trial teleports one logical block of N = scale_up(stack) physical
qubits. A qubit is faulty iff it suffered at least one error event: a
teleportation error (probability p_t), or, when qubits wait their turn on a
narrower link, a memory error during the wait (probability
p'_m = 1 - (1 - p_m)^slots over the wait slots). Because only the union of
the two events is observable, each qubit consumes exactly one uniform draw,
compared against the combined fault probability q; serial and parallel runs
with the same seed therefore share draws, and the serial failure set
dominates the parallel one trial by trial.

Reproducibility contract: trials are grouped in fixed blocks of 2**14, and
block j draws from the Philox substream jumped(j) of the master seed. Philox
is counter-based, so that substream starts at counter [0, 0, j, 0] and is
built there directly. The mapping from trial index to draws never depends on worker count, so any
partitioning of blocks across workers gives bit-identical failure counts.

One draw answers every rate of a batch. The draws depend only on the seed,
so configs that share stack, trials, seed and workers (a sweep's grid, or a
serial/parallel pair) see the same uniforms, and simulate_block_transfers
draws each block once for all of them. The majority decoder is monotone in
q: a trial fails at q iff q exceeds its critical rate c, where an innermost
code block's c is its min_fail-th smallest uniform, and each higher level
takes the min_fail-th smallest c of its sub-blocks, up to the one top-level
block (an uncoded qubit's c is its uniform). So `c < q` holds exactly when
decoding `uniforms < q` fails. Each block is thresholded and decoded once,
at the largest requested q; only the trials that fail there can fail at a
smaller q, and only they are ranked by critical rate, then counted below
every rate with one sort and a binary search per tile (see below).

A block is drawn in row tiles of at most TILE_BYTES of uniforms (one row if
a row is larger), one after the other from the block's generator into one
reused buffer, so the draws are byte-identical to drawing the whole block at
once. Each tile is thresholded, decoded and ranked before the next one is
drawn, so a worker's draw memory is bounded by TILE_BYTES, not by a block of
2**14 * N doubles (69 MB for N = 529).
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import LinkParams, Multiplexing, serial_penalty_ratio
from .codes import CodeStack, QecCode

TRIAL_BLOCK = 1 << 14
TILE_BYTES = 1 << 22   # most bytes of uniforms per drawn tile (one row at least)
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


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Trial block j's generator, in the state Philox(key=seed).jumped(j) gives."""
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, block_index, 0]))


def _decode(faulty: np.ndarray, stack: CodeStack) -> np.ndarray:
    """Hierarchical majority-of-blocks decode: True where the top level fails.

    Counts each code block's faulty members by adding its n member columns,
    which is much faster than a sum over a short last axis. The counts are
    just wide enough for n, so codes with n >= 256 do not wrap. Reshapes name
    every size, because -1 is ambiguous on zero rows.
    """
    rows, width = faulty.shape
    for code in stack.levels:
        width //= code.n
        members = faulty.view(np.uint8).reshape(rows, width, code.n)
        counts = members[:, :, 0].astype(np.min_scalar_type(code.n))
        for i in range(1, code.n):
            counts += members[:, :, i]
        faulty = counts >= code.min_fail
    return faulty[:, 0]   # widths multiply to N, so one block is left


def _critical_rates(uniforms: np.ndarray, stack: CodeStack) -> np.ndarray:
    """Per-trial critical rate: the trial's block fails at q iff its rate is < q.

    Partitions `uniforms` in place. Reshapes name every size, because -1 is
    ambiguous on zero rows.
    """
    rows, width = uniforms.shape
    rates = uniforms
    for code in stack.levels:
        width //= code.n
        rates = rates.reshape(rows, width, code.n)
        rates.partition(code.min_fail - 1, axis=2)
        rates = rates[:, :, code.min_fail - 1]
    return rates[:, 0]   # widths multiply to N, so one block is left


def _run_blocks(config: McConfig, per_block) -> list:
    n_blocks = (config.trials + TRIAL_BLOCK - 1) // TRIAL_BLOCK
    if config.workers == 1 or n_blocks == 1:
        return [per_block(j) for j in range(n_blocks)]
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(per_block, range(n_blocks)))


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
    rates = np.array([config.link.fault_probability(width) for config in configs])
    top = rates.max()
    tile_rows = max(1, min(TRIAL_BLOCK, TILE_BYTES // (8 * width)))

    def per_block(j: int) -> np.ndarray:
        rng = _block_rng(first.seed, j)
        rows = min(TRIAL_BLOCK, first.trials - j * TRIAL_BLOCK)
        buf = np.empty((min(rows, tile_rows), width))
        counts = np.zeros(len(rates), dtype=np.int64)
        for lo in range(0, rows, tile_rows):
            tile = buf[:min(tile_rows, rows - lo)]
            rng.random(out=tile)
            failing = _decode(tile < top, stack)
            # np.sort copies, so no view pins the tile's failing rows.
            critical = np.sort(_critical_rates(tile[failing], stack))
            counts += np.searchsorted(critical, rates, side="left")
        return counts

    counts = np.sum(_run_blocks(first, per_block), axis=0)
    estimates = []
    for config, failures in zip(configs, counts.tolist()):
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


@dataclass(frozen=True)
class SerialPenaltyReport:
    """Serial-vs-parallel failure penalty for one code, analytic and simulated."""

    code: str
    p_t: float
    p_m: float
    analytic_ratio: float
    serial: McEstimate
    parallel: McEstimate
    mc_ratio: float
    mc_ratio_ci: tuple[float, float]


def serial_penalty_report(
    code: QecCode,
    p_t: float,
    p_m: float,
    trials: int = 1_000_000,
    seed: int = 0,
    workers: int = 1,
) -> SerialPenaltyReport:
    """Quantify the extra failure probability a serial link costs for one code.

    The analytic ratio is serial_penalty_ratio, which raises before any
    trial if it is unbounded. The simulated ratio compares serial and
    parallel estimates from one batch. On the same draws every parallel
    failure is a serial one, so given S serial failures the parallel count P
    is Binomial(S, p_par / p_ser) and S / P is bounded by the inverted
    Wilson interval of P out of S.
    """
    stack = CodeStack((code,))
    analytic_ratio = serial_penalty_ratio(code, p_t, p_m)
    serial, parallel = simulate_block_transfers([
        McConfig(stack, LinkParams(p_t, p_m, Multiplexing.SERIAL), trials, seed, workers),
        McConfig(stack, LinkParams(p_t, p_m, Multiplexing.PARALLEL, lanes=code.n), trials, seed, workers),
    ])
    if parallel.failures > 0:
        mc_ratio = serial.failures / parallel.failures
        low, high = wilson_interval(parallel.failures, serial.failures)
        ratio_ci = (1.0 / high, 1.0 / low)
    else:
        mc_ratio = math.nan
        ratio_ci = (0.0, math.inf)

    return SerialPenaltyReport(
        code=code.spec(),
        p_t=p_t,
        p_m=p_m,
        analytic_ratio=analytic_ratio,
        serial=serial,
        parallel=parallel,
        mc_ratio=mc_ratio,
        mc_ratio_ci=ratio_ci,
    )
