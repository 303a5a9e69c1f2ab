"""Reference kernels that measure how fast this machine runs right now.

Shared machines drift: a neighbour's load can slow every core by half for
minutes at a time, and the drift shows in CPU time as much as in wall time.
A run therefore times a fixed reference kernel right before every pass and
reports its timings at a nominal machine speed:

    normalized = measured * NOMINAL[kernel] / reference time next to it

The kernels use no qlink code, so a change to the program moves the
normalized figures exactly as it moves the raw ones; a change in machine
speed moves both the pass and its reference and cancels. Raw figures are
kept in the run record.
"""
from __future__ import annotations

import itertools
import json
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import click
import numpy as np

import oracle

# Quiet-machine times of each kernel (2 vCPU x86_64, Python 3.11, numpy 2.4),
# so that normalized seconds read as seconds on that machine.
NOMINAL = {"draws": 0.047, "draws-wide": 0.110, "python": 0.027, "startup": 0.110}
# Blocks of (width, inner code size) per Philox kernel: mc-point's 23-wide
# blocks, and the 49-wide blocks of sweep-grid's 7-1-3+7-1-3 sweep, which is
# most of that workload's time.
BLOCKS = {"draws": ((23, 23),) * 24, "draws-wide": ((49, 7),) * 12}
PYTHON_ROUNDS = 5
REFERENCE_STACKS = ("7-1-3", "23-1-7", "7-1-3+7-1-3", "23-1-7+23-1-7")


def _draw_block(job: tuple[int, int, int]) -> int:
    j, width, inner = job
    uniforms = np.random.Generator(np.random.Philox(key=7).jumped(j)).random((1 << 14, width))
    counts = (uniforms < 0.01).reshape(1 << 14, -1, inner).sum(axis=2)
    return int((counts >= 2).sum())


def numpy_kernel(kernel: str, workers: int) -> float:
    """Philox draws, a threshold and one decode level over fixed blocks, on `workers` threads."""
    jobs = [(j, width, inner) for j, (width, inner) in enumerate(BLOCKS[kernel])]
    start = time.perf_counter()
    if workers == 1:
        total = sum(map(_draw_block, jobs))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            total = sum(pool.map(_draw_block, jobs))
    elapsed = time.perf_counter() - start
    if total <= 0:
        raise RuntimeError("reference kernel decoded no failures")
    return elapsed


@click.command()
@click.option("--stack", default="none")
@click.option("--t", type=float, required=True)
@click.option("--target-pf", type=float, default=0.1)
@click.option("--mode", type=click.Choice(["leading", "exact"]), default="leading")
def _reference_command(stack, t, target_pf, mode):
    root = oracle.allowable(stack, t, target_pf, mode)
    return json.dumps({"stack": stack, "t": t, "target_pf": target_pf, "mode": mode,
                       "allowable_pt": root}, indent=2)


def python_kernel() -> float:
    """Interpreter-bound work shaped like a closed-form CLI op, without qlink.

    Each call parses options with click, bisects an exact binomial tail and
    renders the answer as JSON.
    """
    start = time.perf_counter()
    reports = [
        _reference_command.main(["--stack", stack, "--t", "1e8", "--target-pf", "1e-3",
                                 "--mode", mode], standalone_mode=False)
        for _ in range(PYTHON_ROUNDS)
        for stack, mode in itertools.product(REFERENCE_STACKS, ("leading", "exact"))
    ]
    elapsed = time.perf_counter() - start
    if sum("allowable_pt" in r for r in reports) != 2 * PYTHON_ROUNDS * len(REFERENCE_STACKS):
        raise RuntimeError("reference command returned the wrong thing")
    return elapsed


def startup_kernel(cwd) -> float:
    """A fresh interpreter importing the program's dependencies, numpy and click."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, click"], cwd=cwd, check=True, timeout=120)
    return time.perf_counter() - start


def scale(kernel: str, workers: int) -> float:
    """Factor that brings timings taken now to the nominal machine speed."""
    measured = python_kernel() if kernel == "python" else numpy_kernel(kernel, workers)
    return NOMINAL[kernel] / measured
