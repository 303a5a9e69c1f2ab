"""End-to-end and per-layer benchmark of the qlink CLI.

Drives qlink.cli.main(argv) in this process, from the checkout's own src/,
one workload per run (see ops.py for the workloads and why each exists).
Every output is checked by an independent oracle (oracle.py). The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

    python3 perfbench/run.py --workload mc-point --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics. --trace 1 spends half the time
untraced and half with spans recorded around every public function of the
program, and reports the per-layer metrics. Full records, and the spans of
a traced run, are written to .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import oracle  # noqa: E402
from ops import WORKLOADS, Op, Workload  # noqa: E402
from spans import Tracer, aggregate, layer_of  # noqa: E402

SETUP_RUNS = 9
MIN_PASSES = 3
TAIL_BEYOND = 10           # samples required beyond the reported tail percentile
MAX_SPANS = 300_000        # a traced phase stops early once it holds this many spans
SETUP_SNIPPET = ("import sys; sys.path.insert(0, 'src'); from qlink.cli import main; "
                 "sys.exit(main(['codes']))")
CODES_TEXT = ("name    n   k  d  correctable\n5-1-3   5   1  3  1\n7-1-3   7   1  3  1\n"
              "9-1-3   9   1  3  1\n23-1-7  23  1  7  3\n")
MC_STACKS = ("7-1-3", "23-1-7", "7-1-3+7-1-3", "23-1-7+23-1-7")
KERNELS = {"mc-point": "draws", "sweep-grid": "draws-wide", "analytic-mix": "python"}


# ---------------------------------------------------------------- running ops

class Runner:
    """Runs ops through qlink.cli.main and checks what they print."""

    def __init__(self, cli):
        self.cli = cli
        self.verdicts: dict[tuple, tuple] = {}   # argv -> (exit, stdout, problems)
        self.attempted = 0
        self.failed: Counter = Counter()          # (op text, problem, known defect?) -> passes
        self.tracer: Tracer | None = None
        # One buffer each, reused: click caches a wrapper per stream object and
        # the cache keeps every stream it has seen alive.
        self._out, self._err = io.StringIO(), io.StringIO()

    def _invoke(self, argv: list[str]) -> tuple[int, str]:
        for buffer in (self._out, self._err):
            buffer.seek(0)
            buffer.truncate()
        with contextlib.redirect_stdout(self._out), contextlib.redirect_stderr(self._err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, self._out.getvalue()

    def run_pass(self, ops: list[Op]) -> tuple[float, list]:
        invoke = self._invoke
        if self.tracer is not None:
            invoke = self.tracer.wrap("harness.op", self._invoke)
        results = []
        start = time.perf_counter()
        for op in ops:
            if self.tracer is not None:
                self.tracer.op += 1
            t0 = time.perf_counter()
            code, out = invoke(list(op.argv))
            results.append((op, code, out, time.perf_counter() - t0))
        return time.perf_counter() - start, results

    def check(self, results, count=True) -> None:
        for op, code, out, _ in results:
            if op.kind == "warmup":
                continue
            seen = self.verdicts.get(op.argv)
            if seen is None:
                problems = oracle.check(op.kind, op.params, op.expect_exit, code, out)
                self.verdicts[op.argv] = (code, out, problems)
            elif seen[:2] != (code, out):
                problems = [oracle.Problem("output differs from an earlier run of the same argv")]
            else:
                problems = seen[2]
            if count:
                self.attempted += 1
                for problem in problems[:1]:
                    self.failed[(op.text(), str(problem), problem.defect is not None)] += 1

    def audit(self, ops: list[Op]) -> list[tuple[Op, list]]:
        """Each op once, untimed and outside attempted/failed: (op, problems)."""
        return [(op, oracle.check(op.kind, op.params, op.expect_exit, *self._invoke(list(op.argv))))
                for op in ops]

    @property
    def failed_ops(self) -> int:
        return sum(self.failed.values())

    @property
    def unexpected(self) -> int:
        return sum(n for (_, _, known), n in self.failed.items() if not known)


def measure(runner: Runner, workload: Workload, seconds: float, first_pass: int,
            workers: int | None = None, max_passes: int | None = None,
            full=lambda: False) -> list[dict]:
    """Passes until seconds have elapsed, reference kernels included (at least MIN_PASSES).

    Each pass is preceded by the workload's reference kernel, whose timing
    gives the pass its scale to nominal machine speed (see calibrate.py).
    max_passes and full() end the loop early, after MIN_PASSES.
    """
    passes, k, start = [], first_pass, time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        if len(passes) >= MIN_PASSES and (full() or len(passes) >= (max_passes or math.inf)):
            break
        ops = workload.pass_ops(k, workers)
        speed = calibrate.scale(KERNELS[workload.name], workload.workers)
        wall, results = runner.run_pass(ops)
        runner.check(results)
        passes.append({"raw_wall": wall, "scale": speed, "wall": wall * speed, "ops": ops,
                       "times": array("d", (dt * speed for _, _, _, dt in results))})
        k += 1
    return passes


# ---------------------------------------------------------------- statistics

def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its value.

    With too few samples for that percentile to sit above the median, the
    median is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def metric(value, unit, stat, samples, **extra) -> dict:
    return {"value": value, "unit": unit, "stat": stat, "samples": samples, **extra}


def times_by_op(passes: list[dict]) -> dict[tuple, list]:
    """Each distinct op's times across passes, keyed by argv without its program seed.

    Monte Carlo passes differ only in the seed, so their ops group by shape.
    """
    times = defaultdict(list)
    for p in passes:
        for op, dt in zip(p["ops"], p["times"]):
            times[op.shape()].append(dt)
    return times


def end_to_end(passes: list[dict], setup: list[tuple[float, float]], runner: Runner,
               name: str) -> tuple[dict, dict]:
    """End-to-end metrics, timings at nominal machine speed; raw ones go to extra.

    Op percentiles are taken over distinct ops, each at its median time
    across passes, so a burst on a busy machine does not become the tail.
    """
    walls = [p["wall"] for p in passes]
    wall = statistics.median(walls)
    ops_per_pass = len(passes[0]["ops"])
    by_op = times_by_op(passes)
    op_times = [statistics.median(v) for v in by_op.values()]
    per_op = f"distinct ops, each the median of {min(map(len, by_op.values()))}+ passes"
    tail_pct, tail_value = tail(op_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(statistics.median(s * f for s, f in setup), "s",
                          "median of fresh interpreters", len(setup)),
        "wall_s": metric(wall, "s", "median pass", len(walls)),
        "ops_per_s": metric(ops_per_pass / wall, "1/s", "ops per median pass", len(walls)),
        "op_p50_ms": metric(1e3 * statistics.median(op_times), "ms", f"p50 over {per_op}",
                            len(op_times)),
        "op_tail_ms": metric(1e3 * tail_value, "ms", f"p{tail_pct:.4g} over {per_op}",
                             len(op_times), percentile=tail_pct),
        "peak_rss_mb": metric(rss_mb, "MB", "peak RSS of this process", 1),
    }
    extra = {
        "fail_ratio": metric(runner.failed_ops / max(runner.attempted, 1), "frac",
                             "failed / attempted ops", runner.attempted),
        "raw_setup_s": metric(statistics.median(s for s, _ in setup), "s",
                              "median, not normalized", len(setup)),
        "raw_wall_s": metric(statistics.median(p["raw_wall"] for p in passes), "s",
                             "median pass, not normalized", len(walls)),
        "machine_speed": metric(statistics.median(p["scale"] for p in passes), "x nominal",
                                f"median reference-kernel scale ({KERNELS[name]})", len(walls)),
    }
    if name != "analytic-mix":
        trials = sum(op.params["trials"] * (len(op.params["pts"]) * len(op.params["pms"]) * 2
                                            if op.kind == "sweep" else 1)
                     for op in passes[0]["ops"])
        extra["mtrials_per_s"] = metric(trials / wall / 1e6, "Mtrial/s", "per median pass", len(walls))
    if name == "mc-point":
        extra["s_to_10pct_ci"] = metric(_time_to_accuracy(passes, by_op), "s",
                                        "median op time x (95% CI rel. half-width / 0.1)^2",
                                        len(walls))
    return metrics, extra


def _time_to_accuracy(passes, by_op) -> float:
    """Seconds for each mc-point estimate to reach a 10% relative 95% CI, summed."""
    total = 0.0
    for op in passes[0]["ops"]:
        runs = [o for p in passes for o in p["ops"] if o.shape() == op.shape()]
        p_hat = sum(o.params["pinned"] for o in runs) / sum(o.params["trials"] for o in runs)
        rel_half = oracle.Z_95 * math.sqrt((1 - p_hat) / (op.params["trials"] * p_hat))
        total += statistics.median(by_op[op.shape()]) * (rel_half / 0.1) ** 2
    return total


def _key(stack: str) -> str:
    return stack.replace("+", "_")


def per_layer(tracer: Tracer, traced: list[dict], untraced: list[dict],
              scaling: float, audit: list) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the traced passes.

    Counts are per pass. Shares (frac) are of the traced passes' raw wall
    time; seconds and rates are brought to nominal machine speed like the
    end-to-end timings.
    """
    stats = aggregate(tracer)
    n_pass = len(traced)
    raw_ns = 1e9 * sum(p["raw_wall"] for p in traced)
    speed = statistics.median(p["scale"] for p in traced)

    def calls(name):
        return stats[name]["calls"] / n_pass if name in stats else 0.0

    def self_ns(name):
        return stats[name]["self_ns"] if name in stats else 0

    def seconds(ns):
        return ns * speed / 1e9 / n_pass

    def per_second(count, ns):
        return count / (ns * speed / 1e9) if ns else 0.0

    layers = defaultdict(int)
    for name, entry in stats.items():
        layers[layer_of(name)] += entry["self_ns"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def put_frac(name, ns):
        put(name, ns / raw_ns, "frac")

    put("cli.calls", calls("cli.main"), "count/pass")
    put("cli.self_s", seconds(self_ns("cli.main")), "s")
    put("cli.self_ms_per_op", 1e3 * seconds(self_ns("cli.main")) / calls("cli.main"), "ms")
    put_frac("cli.self_frac", self_ns("cli.main"))
    put("codes.parse_stack.calls", calls("codes.parse_stack"), "count/pass")
    put("codes.parse_stack.self_s", seconds(self_ns("codes.parse_stack")), "s")

    sim = "montecarlo.simulate_block_transfer"
    sims = [(s[2] - s[1], tracer.tags[id(s)]) for s in tracer.spans if s[0] == sim]
    trials = sum(d["trials"] for _, d in sims)
    put(f"{sim}.calls", calls(sim), "count/pass")
    put_frac(f"{sim}.self_frac", self_ns(sim))
    put("montecarlo.trials", trials / n_pass, "count/pass")
    put("montecarlo.blocks", sum(-(-d["trials"] // 16384) for _, d in sims) / n_pass, "count/pass")
    put("montecarlo.qubit_draws", sum(d["trials"] * d["scale_up"] for _, d in sims) / n_pass,
        "count/pass")
    put("montecarlo.mtrials_per_s", per_second(trials, sum(ns for ns, _ in sims)) / 1e6, "Mtrial/s")
    for stack in MC_STACKS:
        mine = [(ns, d) for ns, d in sims if d["stack"] == stack]
        qubits = sum(d["trials"] * d["scale_up"] for _, d in mine)
        put(f"montecarlo.mqubits_per_s.{_key(stack)}",
            per_second(qubits, sum(ns for ns, _ in mine)) / 1e6, "Mqubit/s")
    distinct = {(d["seed"], d["stack"], d["trials"]) for _, d in sims}
    put("montecarlo.distinct_draw_frac", len(distinct) / len(sims) if sims else 0.0, "frac")
    put("montecarlo.scaling_eff", scaling, "frac")

    put("analytic.allowable_pt.calls", calls("analytic.allowable_pt"), "count/pass")
    put_frac("analytic.allowable_pt.self_frac", self_ns("analytic.allowable_pt"))
    put("analytic.p_algorithm_failure.calls", calls("analytic.p_algorithm_failure"), "count/pass")
    exact = {id(s) for s in tracer.spans
             if s[0] == "analytic.allowable_pt" and tracer.tags[id(s)] == "exact"}
    evals = sum(1 for s in tracer.spans
                if s[0] == "analytic.p_algorithm_failure" and id(s[3]) in exact)
    put("analytic.evals_per_exact_inversion", evals / len(exact) if exact else 0.0, "count")
    put_frac("analytic.p_stack_block_error.self_frac", self_ns("analytic.p_stack_block_error"))
    put("analytic.p_block_error.calls", calls("analytic.p_block_error"), "count/pass")
    put_frac("analytic.p_block_error.self_frac", self_ns("analytic.p_block_error"))
    put_frac("analytic.self_frac", layers["analytic"])
    for name in ("circuits.cut_table", "circuits.inmotion_dqec_cost", "timing.recommend",
                 "timing.cycle_times", "workload.teleport_count"):
        put(f"{name}.calls", calls(name), "count/pass")
        put_frac(f"{name}.self_frac", self_ns(name))
    put("circuits.telegate_cost.calls", calls("circuits.telegate_cost"), "count/pass")
    # A cross-layer call: montecarlo's closed form, looked up by timing.
    cross = stats.get("montecarlo.combined_failure_analytic")
    put("timing.combined_failure_analytic.calls",
        cross["from"]["timing"] / n_pass if cross else 0.0, "count/pass")
    put_frac("timing.combined_failure_analytic.self_frac",
             cross["from_self_ns"]["timing"] if cross else 0)

    # Means, not medians: the spans cover every traced pass.
    traced_wall = statistics.fmean(p["wall"] for p in traced)
    untraced_wall = statistics.fmean(p["wall"] for p in untraced)
    overhead = traced_wall / untraced_wall - 1.0
    program_ns = sum(ns for layer, ns in layers.items() if layer != "harness")
    put("trace.overhead_frac", overhead, "frac")
    put("trace.unattributed_frac", 1.0 - program_ns / raw_ns, "frac")
    put("trace.spans", len(tracer.spans) / n_pass, "count/pass")
    put("audit.defect_ops", sum(1 for _, problems in audit if problems), "count")
    detail = {
        "passes": n_pass,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "layer_self_s": {k: seconds(v) for k, v in sorted(layers.items())},
        "layers_over_untraced_wall": program_ns / raw_ns * (1.0 + overhead),
        "spans": {name: {"calls_per_pass": e["calls"] / n_pass,
                         "self_s_per_pass": seconds(e["self_ns"]),
                         "incl_s_per_pass": seconds(e["incl_ns"])}
                  for name, e in sorted(stats.items())},
    }
    return m, detail


TRACE_TAGS = {
    "montecarlo.simulate_block_transfer": lambda a: {
        "seed": a["config"].seed, "stack": a["config"].stack.spec(),
        "trials": a["config"].trials, "scale_up": a["config"].stack.scale_up},
    "analytic.allowable_pt": lambda a: getattr(a.get("mode"), "value", "leading"),
}


# ---------------------------------------------------------------- context

def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "unknown"


def run_context(root: Path, args, workers: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qlink").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "workers": workers,
        "python": platform.python_version(), "numpy": _version("numpy"), "click": _version("click"),
        "machine": platform.machine(), "qlink_commit": _git_commit(root),
        "qlink_src_sha256": digest.hexdigest()[:16],
    }


def measure_setup(root: Path) -> list[tuple[float, float]]:
    """Fresh-interpreter time to import qlink.cli and finish `qlink codes`.

    Returns (seconds, scale to nominal speed) per run; each run follows a
    startup reference run.
    """
    runs = []
    for i in range(SETUP_RUNS + 1):
        speed = calibrate.NOMINAL["startup"] / calibrate.startup_kernel(root)
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=root, capture_output=True,
                              text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if done.returncode != 0 or done.stdout != CODES_TEXT:
            raise RuntimeError(f"`qlink codes` in a fresh interpreter failed: {done.stderr[-500:]}")
        if i:   # the first run also compiles bytecode; users pay that once
            runs.append((elapsed, speed))
    return runs


# ---------------------------------------------------------------- report

def report(context, metrics, extra, runner, audit, detail=None) -> None:
    print("# qlink benchmark " + " ".join(f"{k}={v}" for k, v in context.items()))
    for name, m in {**metrics, **extra}.items():
        print(f"{name:42s} {m['value']:<14.6g} {m['unit']:<11s} "
              f"{m.get('stat', '')} (n={m.get('samples', '-')})")
    if detail:
        print(f"# traced {detail['passes']} passes; layer self time per pass:",
              ", ".join(f"{k}={v:.4g}s" for k, v in detail["layer_self_s"].items()))
        cover = detail["layers_over_untraced_wall"]
        overhead = detail["traced_wall_s"] / detail["untraced_wall_s"] - 1
        print(f"# program layers sum to {cover:.4f} x mean untraced pass "
              f"({detail['untraced_wall_s']:.4g}s), traced pass {detail['traced_wall_s']:.4g}s: "
              f"{'within' if abs(cover - 1) <= overhead else 'NOT within'} "
              f"trace.overhead_frac {overhead:.4f}")
        for name, s in detail["spans"].items():
            print(f"#   {name:45s} calls/pass={s['calls_per_pass']:<10.6g} "
                  f"self={s['self_s_per_pass']:.4g}s incl={s['incl_s_per_pass']:.4g}s")
    print(f"# ops attempted {runner.attempted}, failed {runner.failed_ops} "
          f"({runner.unexpected} not a known defect)")
    for (op, problem, _), n in sorted(runner.failed.items()):
        print(f"#   FAIL x{n} {op} :: {problem}")
    if audit:
        shown = [(op, problems) for op, problems in audit if problems]
        print(f"# defect audit: {len(audit)} ops a documented defect would change, run once, "
              f"untimed, outside attempted/failed; {len(shown)} show a defect "
              f"({_unexpected(audit)} not a known defect)")
        for op, problems in shown:
            print(f"#   DEFECT {op.text()} :: {problems[0]}")


def _unexpected(audit) -> int:
    """Audit ops with a problem that no documented defect explains."""
    return sum(1 for _, problems in audit if any(p.defect is None for p in problems))


def run_all(args) -> int:
    """Every workload in its own process, then one summary."""
    summary, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"# {name}: exit {done.returncode}")
            ok = False
            continue
        summary[name] = json.loads(lines[-1])
    print(f"\n{'workload':14s} {'metric':42s} value")
    for name, result in summary.items():
        for key, m in result["metrics"].items():
            print(f"{name:14s} {key:42s} {m['value']:.6g} {m['unit']}")
        print(f"{name:14s} {'fail_ratio':42s} {result['failed'] / result['attempted']:.6g} frac")
    print(json.dumps({
        "correct": ok and all(r["correct"] for r in summary.values()),
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": {f"{w}.{k}": v for w, r in summary.items() for k, v in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qlink" / "cli.py").is_file():
        print(f"error: no qlink source at {ROOT / 'src' / 'qlink'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import qlink
    import qlink.cli
    if Path(qlink.__file__).resolve().parent != (ROOT / "src" / "qlink").resolve():
        print(f"error: imported qlink from {qlink.__file__}, not this checkout", file=sys.stderr)
        return 2

    workers = len(os.sched_getaffinity(0))
    context = run_context(ROOT, args, workers)
    pinned = json.loads((HERE / "pinned.json").read_text())
    workload = Workload(args.workload, args.seed, workers, pinned)
    runner = Runner(qlink.cli)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    audit = runner.audit(workload.audit)
    if args.trace == 0:
        setup = measure_setup(ROOT)
        runner.check(runner.run_pass(workload.warmup_ops())[1], count=False)
        passes = measure(runner, workload, args.seconds, 0)
        metrics, extra = end_to_end(passes, setup, runner, args.workload)
        detail = None
    else:
        runner.check(runner.run_pass(workload.warmup_ops())[1], count=False)
        untraced = measure(runner, workload, args.seconds / 2, 0)
        tracer = runner.tracer = Tracer()
        tracer.install(qlink, TRACE_TAGS)
        try:
            traced = measure(runner, workload, args.seconds / 2, len(untraced),
                             full=lambda: len(tracer.spans) >= MAX_SPANS)
        finally:
            tracer.uninstall()
            runner.tracer = None
        scaling = 0.0
        if args.workload != "analytic-mix":
            single = measure(runner, workload, 0, 0, workers=1, max_passes=MIN_PASSES)
            scaling = (statistics.median(p["wall"] for p in single)
                       / (workers * statistics.median(p["wall"] for p in untraced)))
        metrics, detail = per_layer(tracer, traced, untraced, scaling, audit)
        extra = {}
        tracer.write(out_dir / f"{stem}-spans.json")

    report(context, metrics, extra, runner, audit, detail)
    result = {"correct": runner.unexpected == 0 and _unexpected(audit) == 0 and runner.attempted > 0,
              "attempted": runner.attempted, "failed": runner.failed_ops,
              "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}
    record = {"context": context, "result": result, "metrics": {**metrics, **extra},
              "trace": detail,
              "failing_ops": [{"op": op, "problem": p, "known_defect": known, "passes": n}
                              for (op, p, known), n in sorted(runner.failed.items())],
              "defect_audit": [{"op": op.text(), "problems": [str(p) for p in problems]}
                               for op, problems in audit]}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
