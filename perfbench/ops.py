"""Seeded op generators for the three benchmark workloads.

The benchmark seed picks every input; the program only ever sees argv.
The same seed and pass index always give the same op list.

Why each workload (also recorded in BENCHMARK.json):

* mc-point: two single `mc` estimates per pass, the README's 7-1-3 serial
  point and a 23-1-7 parallel point sized to the same number of qubit
  draws. Nearly all time is the Philox draw plus decode, and every pass
  takes fresh program seeds, so no draw set is ever reused: an engine
  change that only removes redundant redraws should not move it.
* sweep-grid: two `sweep` runs covering both link modes, 16 points of
  7-1-3+7-1-3 and 4 points of 23-1-7+23-1-7. Every point of one stack
  redraws the same uniforms (15 of 16 and 3 of 4 draw sets are repeats),
  the deep stacks load decode, and N=529 blocks are 69 MB each.
* analytic-mix: a few hundred closed-form ops and no Monte Carlo: the
  analyze grid in both modes, table3, cut, dqec-cost, recommend, workload,
  link-timing, and a small share of invalid input that must exit 1. Time
  splits between CLI overhead and the exact-tail bisection. Ops whose
  output a documented defect would change (oracle.defect_exposed) are not
  timed: each run checks them once, untimed, as the defect audit.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from oracle import D2, D3, TABLE3_STACKS, TABLE3_T, allowable_leading, defect_exposed

WORKLOADS = ("mc-point", "sweep-grid", "analytic-mix")

# (stack, p_t, p_m, serial, trials). The second point matches the first's
# qubit draws: 3e6 * 23 = 6.9e7 against 1e7 * 7 = 7e7.
MC_POINTS = (
    ("7-1-3", 1e-3, 1.7e-5, True, 10_000_000),
    ("23-1-7", 1e-2, 0.0, False, 3_000_000),
)
# (stack, p_t values, p_m values, trials); each sweep runs both link modes.
SWEEPS = (
    ("7-1-3+7-1-3", (0.01, 0.02, 0.03, 0.05), (0.0, 1e-4), 200_000),
    ("23-1-7+23-1-7", (0.05, 0.1), (0.0,), 30_000),
)
# Program seeds with pinned failure counts; pass k of a run uses one of them.
SEED_POOL = tuple(range(1001, 1065))

ANALYZE_TARGETS = (0.1, 1e-3, 1e-6)
MODES = ("leading", "exact")
# analyze evaluates near the operating point: p_t within 10**+-PT_SPREAD (2x)
# of the leading-order allowable rate.
PT_SPREAD = 0.3
EACH_REPORT_OP = 20


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False, hash=False)
    expect_exit: int = 0

    def text(self) -> str:
        return "qlink " + " ".join(self.argv)

    def shape(self) -> tuple[str, ...]:
        """argv without the program seed: the same work whatever the seed."""
        if "--seed" not in self.argv:
            return self.argv
        i = self.argv.index("--seed")
        return self.argv[:i] + self.argv[i + 2:]


def mc_key(stack, pt, pm, serial, trials) -> str:
    return f"{stack}|{'serial' if serial else 'parallel'}|{pt!r}|{pm!r}|{trials}"


def sweep_key(stack, trials) -> str:
    return f"{stack}|{trials}"


def _num(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _argv(command, **options) -> tuple[str, ...]:
    """argv for a subcommand; options set to None are left out."""
    argv = [command]
    for name, value in options.items():
        if value is not None:
            argv += [f"--{name.replace('_', '-')}", _num(value)]
    return tuple(argv)


def mc_op(stack, pt, pm, serial, trials, seed, workers, pinned=None) -> Op:
    argv = _argv("mc", stack=stack, pt=pt, pm=pm, trials=trials, seed=seed, workers=workers)
    argv += ("--serial" if serial else "--parallel",)
    params = dict(stack=stack, pt=pt, pm=pm, serial=serial, trials=trials, seed=seed,
                  workers=workers, pinned=pinned)
    return Op("mc", argv, params)


def sweep_op(stack, pts, pms, trials, seed, workers, pinned=None) -> Op:
    argv = ("sweep", "--stack", stack, "--pt", ",".join(map(_num, pts)),
            "--pm", ",".join(map(_num, pms)), "--trials", str(trials),
            "--seed", str(seed), "--workers", str(workers))
    params = dict(stack=stack, pts=pts, pms=pms, trials=trials, seed=seed, pinned=pinned)
    return Op("sweep", argv, params)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def analytic_mix(seed: int) -> list[Op]:
    """Every closed-form op the seed generates, defect audit included."""
    rng = random.Random(f"analytic-mix:{seed}")
    ops = []
    for stack in TABLE3_STACKS:
        for t in TABLE3_T:
            for target in ANALYZE_TARGETS:
                for mode in MODES:
                    pt = allowable_leading(stack, t, target) * 10 ** rng.uniform(-PT_SPREAD, PT_SPREAD)
                    params = dict(stack=stack, t=t, target_pf=target, mode=mode, pt=pt)
                    argv = _argv("analyze", stack=stack, t=t, target_pf=target, mode=mode, pt=pt)
                    ops.append(Op("analyze", argv, params))
    for mode in MODES:
        ops.append(Op("table3", ("table3", "--mode", mode), dict(mode=mode)))
    for _ in range(EACH_REPORT_OP):
        ops.append(Op("cut", ("cut", "--circuit", "default")))
        syndromes, repeats = rng.randint(1, 12), rng.randint(1, 4)
        ops.append(Op("dqec-cost", _argv("dqec-cost", syndromes=syndromes, repeats=repeats),
                      dict(syndromes=syndromes, repeats=repeats)))
        rec = dict(stack=rng.choice(("5-1-3", "7-1-3", "9-1-3", "23-1-7")),
                   tt=_log_uniform(rng, 0.1, 10.0), tlqec=_log_uniform(rng, 1.0, 1000.0),
                   pt=_log_uniform(rng, 1e-5, 1e-2))
        ops.append(Op("recommend", _argv("recommend", **rec), rec))
        work = dict(bits=rng.choice((16, 128, 1024, rng.randint(8, 4096))),
                    adder=rng.choice((None, "ripple", "lookahead")))
        ops.append(Op("workload", _argv("workload", **work), work))
        n = rng.choice((5, 7, 9, 23, 49, 161, 529))
        timing = dict(tt=_log_uniform(rng, 0.1, 10.0), tlqec=_log_uniform(rng, 1.0, 1000.0),
                      n=n, lanes=rng.randint(1, n))
        ops.append(Op("link-timing", _argv("link-timing", **timing), timing))
    ops += _invalid_ops(rng)
    rng.shuffle(ops)
    return ops


def _exposed(op: Op) -> bool:
    """Whether a documented defect would change the op's output.

    An analyze op is judged at the low end of its cell's p_t range, where D1
    errs most, so that which grid cells are timed does not depend on the seed.
    """
    params = op.params
    if op.kind == "analyze":
        low = allowable_leading(params["stack"], params["t"], params["target_pf"]) * 10 ** -PT_SPREAD
        params = {**params, "pt": low}
    return defect_exposed(op.kind, params) is not None


def split_audit(ops: list[Op]) -> tuple[list[Op], list[Op]]:
    """(timed ops, audit ops): the audit holds every op a documented defect would change."""
    exposed = [_exposed(op) for op in ops]
    return ([op for op, bad in zip(ops, exposed) if not bad],
            [op for op, bad in zip(ops, exposed) if bad])


def _invalid_ops(rng: random.Random) -> list[Op]:
    """Bad input, each of which must exit 1 with nothing on stdout."""
    t = _num(10 ** rng.uniform(3, 9))
    cases = [
        ("analyze", "--t", "nan"),
        ("analyze", "--t", "inf"),
        ("analyze", "--t", _num(rng.uniform(0.0, 0.99))),
        ("analyze", "--t", t, "--target-pf", rng.choice(("0", "1", "1.5", "-0.1"))),
        ("analyze", "--t", t, "--pt", _num(rng.uniform(0.5, 0.99))),
        ("analyze", "--stack", "7-1", "--t", t),
        ("analyze", "--stack", "7-1-4", "--t", t),
        ("analyze", "--stack", "7-1-3"),
        ("analyze", "--t", t, "--mode", "approx"),
        ("table3", "--t", _num(rng.uniform(0.0, 0.99))),
        ("workload", "--bits", str(rng.randint(-4, 1))),
        ("link-timing", "--tt", "0", "--tlqec", "100", "--n", "7"),
        ("link-timing", "--tt", "nan", "--tlqec", "100", "--n", "7"),
        ("recommend", "--stack", "7-1-3+7-1-3", "--tt", "1", "--tlqec", "100", "--pt", "1e-3"),
        ("dqec-cost", rng.choice(("--syndromes", "--repeats")), "0"),
        ("cut", "--circuit", "no-such-circuit.json"),
    ]
    ops = []
    for argv in cases:
        # The documented defect, if any, that makes this op exit 0 instead.
        defect = D2 if {"nan", "inf"} & set(argv) else D3 if argv[0] == "dqec-cost" else None
        ops.append(Op("invalid", argv, dict(defect=defect), 1))
    return ops


class Workload:
    """Op lists for one workload and benchmark seed, pass by pass."""

    def __init__(self, name: str, seed: int, workers: int, pinned: dict):
        self.name, self.seed, self.workers, self.pinned = name, seed, workers, pinned
        self._start = random.Random(f"{name}:{seed}").randrange(len(SEED_POOL))
        self._fixed, self.audit = None, []
        if name == "analytic-mix":
            self._fixed, self.audit = split_audit(analytic_mix(seed))

    def pass_ops(self, k: int, workers: int | None = None) -> list[Op]:
        """Ops of pass k; MC passes draw the next program seed from the pool."""
        if self._fixed is not None:
            return self._fixed
        workers = workers or self.workers
        program_seed = SEED_POOL[(self._start + k) % len(SEED_POOL)]
        if self.name == "mc-point":
            ops = [mc_op(*point, program_seed, workers,
                         self.pinned["mc"][mc_key(*point)][str(program_seed)])
                   for point in MC_POINTS]
        else:
            ops = [sweep_op(stack, pts, pms, trials, program_seed, workers,
                            self.pinned["sweep"][sweep_key(stack, trials)][str(program_seed)])
                   for stack, pts, pms, trials in SWEEPS]
        random.Random(f"{self.name}:{self.seed}:{k}").shuffle(ops)
        return ops

    def warmup_ops(self) -> list[Op]:
        """Small ops that load every code path once before timing starts."""
        if self._fixed is not None:
            return self._fixed
        return [Op("warmup", op.argv[:op.argv.index("--trials")] + ("--trials", "16384")
                   + op.argv[op.argv.index("--trials") + 2:])
                for op in self.pass_ops(0)]
