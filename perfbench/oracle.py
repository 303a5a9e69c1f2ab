"""Independent output oracle for the benchmark.

Nothing here imports qlink. Expected values come from the models' defining
formulas, evaluated separately: binomial tails from exact-integer
coefficients with log-space powers, whole-computation failure as
-expm1(t * log1p(-p_e)), Wilson intervals written out from their
definition, and the paper's published constants for the circuit and
workload tables. Monte Carlo failure counts are pinned per seed in
pinned.json (see pin.py), under the frozen Philox block layout.

Each check returns a list of Problem records; an op fails when the list is
not empty. A problem carries a known-defect tag when the output matches,
value for value, what a documented defect of the program produces, so that
a run can tell a documented defect from a new one. defect_exposed() says
from an op's inputs alone whether a documented defect would change its
output; such ops form the benchmark's defect audit, not its timed workload.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

# One stated tolerance for every float the oracle compares: relative 1e-6.
# The program's own bisection stops at 1e-9 relative width and CSV cells
# carry ten significant figures, so correct output is far inside it.
REL_TOL = 1e-6
Z_95 = 1.959963984540054
Z_CHECK = 5.0

# Stable CSV headers, as the README documents them.
HEADERS = {
    "table3": "stack,scale_up,t,mode,allowable_pt",
    "cut": "breakpoint,telegate,teledata,direction",
    "sweep": "stack,mode,p_t,p_m,trials,failures,p_hat,ci_low,ci_high,seed",
}

# Documented defects (ROADMAP item 3). A problem matching one of these is
# still a failed check, but not a new one.
D1 = "D1 p_f computed as 1-(1-p_e)**t"
D2 = "D2 non-finite input accepted with exit 0"
D3 = "D3 dqec-cost accepts zero syndromes or repeats with exit 0"

CODES = {"5-1-3": (5, 3), "7-1-3": (7, 3), "9-1-3": (9, 3), "23-1-7": (23, 7)}
TABLE3_STACKS = ("none", "7-1-3", "23-1-7", "7-1-3+7-1-3", "23-1-7+7-1-3",
                 "7-1-3+23-1-7", "23-1-7+23-1-7")
TABLE3_T = (1e5, 1e8, 1e11)

# Seven-qubit encoder cut table (paper): telegate EPRs per breakpoint a..f.
CUT_TELEGATE = (2, 3, 4, 3, 3, 2)
ENCODER_N = 7

# Modular-exponentiation teleportation counts (paper): bits -> (ripple, lookahead).
WORKLOAD_ANCHORS = {16: (14_000.0, 125_000.0), 128: (8e6, 1e8), 1024: (4e9, 6e10)}


@dataclass(frozen=True)
class Problem:
    what: str
    defect: str | None = None

    def __str__(self):
        return f"{self.what} [{self.defect}]" if self.defect else self.what


# ---------------------------------------------------------------- models

def stack_levels(spec: str) -> list[tuple[int, int]]:
    """(n, min_fail) per level, inner first; 'none' is the empty stack."""
    if spec == "none":
        return []
    levels = []
    for token in spec.split("+"):
        n, _, d = (int(x) for x in token.split("-"))
        levels.append((n, (d + 1) // 2))
    return levels


def scale_up(spec: str) -> int:
    return math.prod(n for n, _ in stack_levels(spec))


def binomial_tail(n: int, m: int, p: float) -> float:
    """P(X >= m), X ~ Binomial(n, p), summed smallest terms first."""
    if p <= 0.0:
        return 0.0 if m > 0 else 1.0
    if p >= 1.0:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for j in range(n, m - 1, -1):
        total += math.comb(n, j) * math.exp(j * log_p + (n - j) * log_q)
    return min(total, 1.0)


def block_error(spec: str, p: float, mode: str) -> float:
    """Logical block error of the stack at per-qubit rate p."""
    q = p
    for n, m in stack_levels(spec):
        q = math.comb(n, m) * q**m if mode == "leading" else binomial_tail(n, m, q)
    return q


def algorithm_failure(p_e: float, t: float) -> float:
    if p_e >= 1.0:
        return 1.0
    return -math.expm1(t * math.log1p(-p_e))


def defective_failure(p_e: float, t: float) -> float:
    """What defect D1 computes in place of algorithm_failure."""
    return 1.0 - (1.0 - min(p_e, 1.0)) ** t


def allowable_leading(spec: str, t: float, target: float) -> float:
    """Root of the linearized chain t * p_e(p) = target, in log space."""
    log_q = math.log(target) - math.log(t)
    for n, m in reversed(stack_levels(spec)):
        log_q = (log_q - math.log(math.comb(n, m))) / m
    return math.exp(log_q)


def _bisect(pf, target: float, width: float) -> float:
    """Largest p in (0, 0.5] with pf(p) <= target, as the model defines it."""
    lo, hi = 0.0, 0.5
    if pf(hi) <= target:
        return hi
    while hi - lo > width * hi:
        mid = 0.5 * (lo + hi)
        if pf(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def allowable_exact(spec: str, t: float, target: float, failure=algorithm_failure) -> float:
    return _bisect(lambda p: failure(block_error(spec, p, "exact"), t), target, 1e-13)


def allowable(spec: str, t: float, target: float, mode: str) -> float:
    if mode == "leading":
        return allowable_leading(spec, t, target)
    return allowable_exact(spec, t, target)


def fault_probability(n_block: int, p_t: float, p_m: float, serial: bool) -> float:
    """Per-qubit chance of at least one error event during one block transfer."""
    slots = n_block - 1 if serial else 0
    return -math.expm1(math.log1p(-p_t) + slots * math.log1p(-p_m)) if p_t < 1 else 1.0


def wilson(failures: int, trials: int, z: float) -> tuple[float, float]:
    p = failures / trials
    z2 = z * z
    centre = (p + z2 / (2 * trials)) / (1 + z2 / trials)
    half = z / (1 + z2 / trials) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return centre - half, centre + half


def event_convolution(n: int, m: int, p_t: float, p_m: float) -> float:
    """Chance of exactly m error events: memory (aggregated wait) plus teleport."""
    pm_wait = -math.expm1((n - 1) * math.log1p(-p_m)) if p_m < 1 else 1.0

    def term(j, p):
        return math.comb(n, j) * p**j * (1 - p) ** (n - j)

    return sum(term(i, pm_wait) * term(m - i, p_t) for i in range(m + 1))


# ---------------------------------------------------------------- parsing

def close(actual, expected, tol: float = REL_TOL) -> bool:
    if isinstance(actual, bool) or not isinstance(actual, (int, float)):
        return False
    if actual == expected:
        return True
    return abs(actual - expected) <= tol * max(abs(actual), abs(expected))


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def csv_rows(text: str, kind: str) -> tuple[list[Problem], list[list[str]]]:
    lines = text.splitlines()
    if not lines or lines[0] != HEADERS[kind]:
        return [Problem(f"{kind} header {lines[:1]!r} is not {HEADERS[kind]!r}")], []
    return [], list(csv.reader(io.StringIO("\n".join(lines[1:]))))


def _fields(problems, payload: dict, expected: dict, floats=()) -> None:
    """Compare payload keys and values; names in floats compare by tolerance."""
    if list(payload) != list(expected):
        problems.append(Problem(f"keys {list(payload)} != {list(expected)}"))
        return
    for key, want in expected.items():
        got = payload[key]
        ok = close(got, want) if key in floats else (got == want and type(got) is type(want))
        if not ok:
            problems.append(Problem(f"{key}={got!r}, oracle {want!r}"))


# ---------------------------------------------------------------- checks

def check_analyze(p: dict, out: str) -> list[Problem]:
    spec, t, target, mode, pt = p["stack"], p["t"], p["target_pf"], p["mode"], p.get("pt")
    payload = strict_json(out)
    problems: list[Problem] = []
    want_pt = allowable(spec, t, target, mode)
    expected = {"stack": spec, "scale_up": scale_up(spec), "t": float(t),
                "target_pf": float(target), "mode": mode}
    _fields(problems, {k: payload.get(k) for k in expected}, expected)
    got_pt = payload.get("allowable_pt")
    if not close(got_pt, want_pt):
        defect = None
        if mode == "exact" and close(got_pt, allowable_exact(spec, t, target, defective_failure)):
            defect = D1
        problems.append(Problem(f"allowable_pt={got_pt!r}, oracle {want_pt!r}", defect))
    extra = {k: v for k, v in payload.items() if k not in expected and k != "allowable_pt"}
    if pt is None:
        if extra:
            problems.append(Problem(f"unexpected keys {sorted(extra)}"))
        return problems
    p_e = block_error(spec, pt, mode)
    linearized = t * p_e
    want = {"p_t": pt, "block_error": p_e, "p_f": algorithm_failure(p_e, t),
            "linearized": linearized, "linearization_valid": linearized <= 0.1}
    if list(extra) != list(want):
        return problems + [Problem(f"report keys {list(extra)} != {list(want)}")]
    _fields(problems, {k: extra[k] for k in ("p_t", "block_error", "linearized")},
            {k: want[k] for k in ("p_t", "block_error", "linearized")},
            floats=("block_error", "linearized"))
    got_pf = extra["p_f"]
    if not close(got_pf, want["p_f"]):
        defect = D1 if close(got_pf, defective_failure(extra["block_error"], t), 1e-12) else None
        problems.append(Problem(f"p_f={got_pf!r}, oracle {want['p_f']!r}", defect))
    valid = extra["linearization_valid"]
    if valid is not want["linearization_valid"] and not close(linearized, 0.1):
        problems.append(Problem(f"linearization_valid={valid!r} at t*p_e={linearized!r}"))
    return problems


def check_table3(p: dict, out: str) -> list[Problem]:
    mode = p["mode"]
    problems, rows = csv_rows(out, "table3")
    cells = [(s, t) for s in TABLE3_STACKS for t in TABLE3_T]
    if len(rows) != len(cells):
        return problems + [Problem(f"{len(rows)} table3 rows, expected {len(cells)}")]
    for row, (spec, t) in zip(rows, cells):
        if row[:2] != [spec, str(scale_up(spec))] or float(row[2]) != t or row[3] != mode:
            problems.append(Problem(f"table3 row {row[:4]} is not {spec},{t:g},{mode}"))
            continue
        got, want = float(row[4]), allowable(spec, t, 0.1, mode)
        if not close(got, want):
            defect = None
            if mode == "exact" and close(got, allowable_exact(spec, t, 0.1, defective_failure)):
                defect = D1
            problems.append(Problem(f"table3 {spec} t={t:g}: {got!r}, oracle {want!r}", defect))
    return problems


def check_cut(p: dict, out: str) -> list[Problem]:
    problems, rows = csv_rows(out, "cut")
    expected = []
    for i, telegate in enumerate(CUT_TELEGATE, start=1):
        left, right = i, ENCODER_N - i
        expected.append([chr(ord("a") + i - 1), str(telegate), str(min(left, right)),
                         "B->A" if left < right else "A->B"])
    if rows != expected:
        problems.append(Problem(f"cut rows {rows} != {expected}"))
    return problems


def check_dqec(p: dict, out: str) -> list[Problem]:
    s, r = p["syndromes"], p["repeats"]
    per_telegate = sum(CUT_TELEGATE)
    per_teledata = sum(min(i, ENCODER_N - i) for i in range(1, ENCODER_N))
    centre = (ENCODER_N + 1) // 2
    widest = max(min(i, ENCODER_N - i) for i in range(1, ENCODER_N))
    expected = {
        "per_syndrome_telegate": per_telegate,
        "per_syndrome_teledata": per_teledata,
        "per_cycle_telegate": s * r * per_telegate,
        "per_cycle_teledata": s * r * per_teledata,
        "static_cycle_at_center_cut": s * r * min(centre, ENCODER_N - centre),
        "worst_case_block_teleports": s * r * widest,
        "syndromes": s,
        "repeats": r,
    }
    problems: list[Problem] = []
    _fields(problems, strict_json(out), expected)
    return problems


def check_workload(p: dict, out: str) -> list[Problem]:
    bits, adder = p["bits"], p["adder"]
    anchor = min(WORKLOAD_ANCHORS, key=lambda a: abs(math.log(bits) - math.log(a)))
    low, high = (v * (bits / anchor) ** 3 for v in WORKLOAD_ANCHORS[anchor])
    if adder == "ripple":
        high = low
    elif adder == "lookahead":
        low = high
    expected = {"bits": bits, "adder": adder or "range", "t_low": low, "t_high": high,
                "extrapolated": bits not in WORKLOAD_ANCHORS, "anchor_bits": anchor}
    problems: list[Problem] = []
    _fields(problems, strict_json(out), expected, floats=("t_low", "t_high"))
    return problems


def _cycle(tt, tlqec, n, lanes):
    rounds = -(-n // lanes)
    serial, parallel = rounds * tt + tlqec, tt + tlqec
    return serial, parallel, serial / parallel, rounds


def check_link_timing(p: dict, out: str) -> list[Problem]:
    tt, tlqec, n, lanes = p["tt"], p["tlqec"], p["n"], p["lanes"]
    serial, parallel, slowdown, rounds = _cycle(tt, tlqec, n, lanes)
    expected = {"t_t": tt, "t_lqec": tlqec, "n": n, "lanes": lanes, "serial": serial,
                "parallel": parallel, "slowdown": slowdown, "start_delay_factor": rounds}
    problems: list[Problem] = []
    _fields(problems, strict_json(out), expected, floats=("serial", "parallel", "slowdown"))
    return problems


def check_recommend(p: dict, out: str) -> list[Problem]:
    n, d = CODES[p["stack"]]
    m = (d + 1) // 2
    tt, tlqec, pt = p["tt"], p["tlqec"], p["pt"]
    pm = pt / (10 * (n - 1))
    slowdown = _cycle(tt, tlqec, n, 1)[2]
    ratio = event_convolution(n, m, pt, pm) / event_convolution(n, m, pt, 0.0)
    serial = slowdown <= 1.5 and ratio <= 1.5
    payload = strict_json(out)
    expected = {"code": p["stack"], "t_t": tt, "t_lqec": tlqec, "p_t": pt, "p_m": pm,
                "choice": "serial" if serial else "parallel", "slowdown": slowdown,
                "reliability_ratio": ratio, "slowdown_threshold": 1.5,
                "reliability_threshold": 1.5}
    problems: list[Problem] = []
    _fields(problems, {k: v for k, v in payload.items() if k != "reasons"}, expected,
            floats=("p_m", "slowdown", "reliability_ratio"))
    reasons = payload.get("reasons")
    want_count = 1 if serial else (slowdown > 1.5) + (ratio > 1.5)
    if not isinstance(reasons, list) or len(reasons) != want_count:
        problems.append(Problem(f"reasons {reasons!r}, expected {want_count} entries"))
    return problems


def _check_estimate(problems, where, point, trials, failures, p_hat, ci, pinned):
    """Pinned count, p_hat, 95% Wilson interval and 5-sigma agreement with the exact tail."""
    if failures != pinned:
        problems.append(Problem(f"{where}: failures={failures}, pinned {pinned}"))
    if not close(p_hat, failures / trials):
        problems.append(Problem(f"{where}: p_hat={p_hat!r} != failures/trials"))
    for got, want in zip(ci, wilson(failures, trials, Z_95)):
        if not close(got, want) and abs(got - want) > 1e-15:
            problems.append(Problem(f"{where}: ci {ci} != Wilson {want!r}"))
            break
    spec, pt, pm, serial = point
    exact = block_error(spec, fault_probability(scale_up(spec), pt, pm, serial), "exact")
    lo, hi = wilson(failures, trials, Z_CHECK)
    if not lo <= exact <= hi:
        problems.append(Problem(f"{where}: exact tail {exact:.4g} outside 5-sigma [{lo:.4g}, {hi:.4g}]"))


def check_mc(p: dict, out: str) -> list[Problem]:
    spec, pt, pm, serial, trials = p["stack"], p["pt"], p["pm"], p["serial"], p["trials"]
    payload = strict_json(out)
    n_block = scale_up(spec)
    expected = {"stack": spec, "mode": "serial" if serial else "parallel", "p_t": pt,
                "p_m": pm, "lanes": 1 if serial else n_block, "trials": trials}
    problems: list[Problem] = []
    keys = list(expected) + ["failures", "p_hat", "ci_low", "ci_high", "seed", "workers"]
    if list(payload) != keys:
        return [Problem(f"mc keys {list(payload)} != {keys}")]
    _fields(problems, {k: payload[k] for k in expected}, expected)
    if payload["seed"] != p["seed"] or payload["workers"] != p["workers"]:
        problems.append(Problem(f"seed/workers echo {payload['seed']}/{payload['workers']}"))
    _check_estimate(problems, "mc", (spec, pt, pm, serial), trials, payload["failures"],
                    payload["p_hat"], (payload["ci_low"], payload["ci_high"]), p["pinned"])
    return problems


def check_sweep(p: dict, out: str) -> list[Problem]:
    spec, trials, seed = p["stack"], p["trials"], p["seed"]
    problems, rows = csv_rows(out, "sweep")
    grid = [(pt, pm, serial) for pt in p["pts"] for pm in p["pms"] for serial in (True, False)]
    if len(rows) != len(grid):
        return problems + [Problem(f"{len(rows)} sweep rows, expected {len(grid)}")]
    for row, (pt, pm, serial), pinned in zip(rows, grid, p["pinned"]):
        mode = "serial" if serial else "parallel"
        where = f"sweep {spec} {mode} p_t={pt:g} p_m={pm:g}"
        head = [spec, mode]
        if (row[:2] != head or float(row[2]) != pt or float(row[3]) != pm
                or int(row[4]) != trials or int(row[9]) != seed):
            problems.append(Problem(f"{where}: row {row}"))
            continue
        _check_estimate(problems, where, (spec, pt, pm, serial), trials, int(row[5]),
                        float(row[6]), (float(row[7]), float(row[8])), pinned)
    return problems


def check_invalid(p: dict, out: str) -> list[Problem]:
    # Exit code is checked by the caller; rejected input prints nothing on stdout.
    return [Problem(f"stdout not empty: {out[:60]!r}")] if out else []


CHECKS = {
    "analyze": check_analyze, "table3": check_table3, "cut": check_cut,
    "dqec-cost": check_dqec, "workload": check_workload, "link-timing": check_link_timing,
    "recommend": check_recommend, "mc": check_mc, "sweep": check_sweep,
    "invalid": check_invalid,
}


def _d1_moves_pf(p_e: float, t: float) -> bool:
    """Whether D1 can move p_f by a tenth of REL_TOL.

    Rounding 1-p_e errs by up to 2**-53 relative, which (1-p_e)**t raises to
    t*2**-53, and pow adds one rounding more. The bound falls as p_e grows.
    """
    p_f = algorithm_failure(p_e, t)
    return p_f > 0.0 and (t + 1) * 2.0**-53 * (1.0 - p_f) > REL_TOL / 10 * p_f


def _d1_moves_root(spec: str, t: float, target: float) -> bool:
    return not close(allowable_exact(spec, t, target, defective_failure),
                     allowable_exact(spec, t, target), REL_TOL / 10)


def defect_exposed(kind: str, params: dict) -> str | None:
    """The documented defect that would change this op's output, if any.

    Decided from the inputs alone, with the oracle's own models and a
    tenfold margin, so the answer does not depend on the program under test.
    """
    if kind == "invalid":
        return params.get("defect")
    if kind == "table3":
        roots = [(s, t, 0.1) for s in TABLE3_STACKS for t in TABLE3_T]
    elif kind == "analyze":
        spec, t, pt = params["stack"], params["t"], params.get("pt")
        if pt is not None and _d1_moves_pf(block_error(spec, pt, params["mode"]), t):
            return D1
        roots = [(spec, t, params["target_pf"])]
    else:
        return None
    if params["mode"] == "exact" and any(_d1_moves_root(*root) for root in roots):
        return D1
    return None


def check(kind: str, params: dict, expect_exit: int, exit_code: int, out: str) -> list[Problem]:
    """All problems with one op's exit code and stdout."""
    if exit_code != expect_exit:
        defect = params.get("defect") if expect_exit == 1 and exit_code == 0 else None
        return [Problem(f"exit {exit_code}, expected {expect_exit}", defect)]
    try:
        return CHECKS[kind](params, out)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return [Problem(f"unparsable output: {type(exc).__name__}: {exc}")]
