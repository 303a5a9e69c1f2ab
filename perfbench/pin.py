"""Regenerate pinned.json: Monte Carlo failure counts for every pooled seed.

The counts come from an implementation of the frozen stream layout that
shares no code with qlink: block j of a run draws
Generator(Philox(key=seed).jumped(j)).random((rows, N)) in blocks of 2**14
trials, and a trial fails when its critical rate is below the fault
probability q. The critical rate of a code block is the min_fail-th
smallest value below it (a uniform at the physical level), which is
equivalent to majority decoding of `u < q` and lets one draw pass answer
every q of a sweep. Each count is then checked against qlink's own engine
before anything is written.

    python3 perfbench/pin.py            # rewrite perfbench/pinned.json
    python3 perfbench/pin.py --check    # recompute and compare, write nothing
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from ops import MC_POINTS, SEED_POOL, SWEEPS, mc_key, sweep_key  # noqa: E402
from oracle import scale_up, stack_levels  # noqa: E402

TRIAL_BLOCK = 1 << 14
LAYOUT = "philox-jumped-block16384"
# The stream-layout anchor of the unit suite: 7-1-3, p_t = 0.01, 2e5 trials, seed 42.
ANCHOR = {"stack": "7-1-3", "q": 0.01, "trials": 200_000, "seed": 42, "failures": 380}


def link_q(n_block: int, pt: float, pm: float, serial: bool) -> float:
    # Written as the engine writes it, so the threshold is the same double
    # and boundary draws compare identically.
    slots = n_block - 1 if serial else 0
    pm_wait = 1.0 - (1.0 - pm) ** slots
    return 1.0 - (1.0 - pt) * (1.0 - pm_wait)


def critical_counts(stack: str, trials: int, seed: int, qs) -> list[int]:
    """Failures at each fault probability in qs, from one draw of the stream."""
    levels, n_block = stack_levels(stack), scale_up(stack)
    qs = np.asarray(qs, dtype=float)
    counts = np.zeros(len(qs), dtype=np.int64)
    for j in range(-(-trials // TRIAL_BLOCK)):
        rows = min(TRIAL_BLOCK, trials - j * TRIAL_BLOCK)
        rates = np.random.Generator(np.random.Philox(key=seed).jumped(j)).random((rows, n_block))
        for n, m in levels:
            rates = np.partition(rates.reshape(rows, -1, n), m - 1, axis=2)[:, :, m - 1]
        critical = np.sort(rates.min(axis=1))
        counts += np.searchsorted(critical, qs, side="left")
    return [int(c) for c in counts]


def sweep_grid(stack, pts, pms):
    return [(pt, pm, serial) for pt in pts for pm in pms for serial in (True, False)]


def compute() -> dict:
    got = critical_counts(ANCHOR["stack"], ANCHOR["trials"], ANCHOR["seed"], [ANCHOR["q"]])[0]
    if got != ANCHOR["failures"]:
        raise SystemExit(f"stream-layout anchor: {got} failures, expected {ANCHOR['failures']}")
    mc, sweep = {}, {}
    for point in MC_POINTS:
        stack, pt, pm, serial, trials = point
        q = link_q(scale_up(stack), pt, pm, serial)
        mc[mc_key(*point)] = {str(s): critical_counts(stack, trials, s, [q])[0] for s in SEED_POOL}
    for stack, pts, pms, trials in SWEEPS:
        qs = [link_q(scale_up(stack), pt, pm, serial) for pt, pm, serial in sweep_grid(stack, pts, pms)]
        sweep[sweep_key(stack, trials)] = {str(s): critical_counts(stack, trials, s, qs)
                                           for s in SEED_POOL}
    return {"layout": LAYOUT, "anchor": ANCHOR, "mc": mc, "sweep": sweep}


def cross_check(pinned: dict, workers: int) -> list[str]:
    """Every pinned count against qlink's simulate_block_transfer."""
    from qlink.codes import parse_stack
    from qlink.montecarlo import LinkParams, McConfig, Multiplexing, simulate_block_transfer

    def run(stack, pt, pm, serial, trials, seed):
        stack_obj = parse_stack(stack)
        mux = Multiplexing.SERIAL if serial else Multiplexing.PARALLEL
        link = LinkParams(pt, pm, mux, 1 if serial else stack_obj.scale_up)
        return simulate_block_transfer(McConfig(stack_obj, link, trials, seed, workers)).failures

    errors = []
    for point in MC_POINTS:
        for seed, count in pinned["mc"][mc_key(*point)].items():
            if run(*point, int(seed)) != count:
                errors.append(f"mc {mc_key(*point)} seed {seed}")
    for stack, pts, pms, trials in SWEEPS:
        for seed, counts in pinned["sweep"][sweep_key(stack, trials)].items():
            engine = [run(stack, pt, pm, serial, trials, int(seed))
                      for pt, pm, serial in sweep_grid(stack, pts, pms)]
            if engine != counts:
                errors.append(f"sweep {stack} seed {seed}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with pinned.json, write nothing")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    pinned = compute()
    errors = cross_check(pinned, workers=min(2, len(os.sched_getaffinity(0))))
    if errors:
        print("qlink disagrees with the independent layout:", *errors, sep="\n  ", file=sys.stderr)
        return 1
    path = HERE / "pinned.json"
    if args.check:
        same = json.loads(path.read_text()) == pinned
        print("pinned.json matches" if same else "pinned.json differs")
        return 0 if same else 1
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
