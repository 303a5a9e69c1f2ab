"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdicts. Two criteria are implemented exactly as stated and fail for
documented arithmetic reasons rather than implementation bugs:

* Criterion 1 fails on a single cell: the reference table prints 0.013 for
  the 7-1-3+23-1-7 stack at t = 1e5, a figure obtained by rounding the
  prefactor to 0.053 before evaluating it. The closed form itself gives
  0.012459, which rounds to 0.012. The other twenty cells match.

* Criterion 6 demands that the two orderings of the 7-1-3 and 23-1-7 codes
  give identical allowable rates to 1e-12 relative. Their leading
  coefficients differ (21 * 8855^2 = 1,646,631,525 inner-23 vs
  8855 * 21^4 = 1,722,129,255 inner-7), so the rates differ by the constant
  factor (1722129255 / 1646631525)^(1/8), about 0.56% relative. They are
  nearly, not exactly, identical.
"""
import csv
import io
import json
import time

import pytest
from helpers import paired_ratio_ci, round_sig, run_cli, weight_tail, without_gate

from qlink.analytic import (
    ModelMode,
    Multiplexing,
    allowable_pt,
    p_stack_block_error,
    serial_penalty_ratio,
)
from qlink.circuits import default_steane_encoder, steane_stabilizers, validate_encoder
from qlink.codes import parse_code, parse_stack
from qlink.montecarlo import (
    LinkParams,
    McConfig,
    simulate_block_transfer,
    simulate_block_transfers,
    wilson_interval,
)
from qlink.workload import AdderKind, teleport_count


def _run_cli(*args):
    result = run_cli(*args)
    assert result.exit_code == 0, result.stderr
    return result.stdout


def _verdict(cid, ok, detail=""):
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)


# (stack, t, printed value, printed significant figures)
REFERENCE_TABLE = [
    ("none", 1e5, 1e-6, 1),
    ("none", 1e8, 1e-9, 1),
    ("none", 1e11, 1e-12, 1),
    ("7-1-3", 1e5, 2.2e-4, 2),
    ("7-1-3", 1e8, 7e-6, 1),
    ("7-1-3", 1e11, 2.2e-7, 2),
    ("23-1-7", 1e5, 3.3e-3, 2),
    ("23-1-7", 1e8, 5.8e-4, 2),
    ("23-1-7", 1e11, 1e-4, 1),
    ("7-1-3+7-1-3", 1e5, 3.2e-3, 2),
    ("7-1-3+7-1-3", 1e8, 5.7e-4, 2),
    ("7-1-3+7-1-3", 1e11, 1e-4, 1),
    ("23-1-7+7-1-3", 1e5, 0.013, 2),
    ("23-1-7+7-1-3", 1e8, 5.3e-3, 2),
    ("23-1-7+7-1-3", 1e11, 2.2e-3, 2),
    ("7-1-3+23-1-7", 1e5, 0.013, 2),
    ("7-1-3+23-1-7", 1e8, 5.3e-3, 2),
    ("7-1-3+23-1-7", 1e11, 2.2e-3, 2),
    ("23-1-7+23-1-7", 1e5, 0.025, 2),
    ("23-1-7+23-1-7", 1e8, 0.016, 2),
    ("23-1-7+23-1-7", 1e11, 0.010, 2),
]


def test_c1_reference_table_reproduction():
    """All 21 printed allowable rates, at their printed precision, in < 1 s."""
    start = time.perf_counter()
    output = _run_cli("table3")
    elapsed = time.perf_counter() - start
    computed = {
        (row["stack"], float(row["t"])): float(row["allowable_pt"])
        for row in csv.DictReader(io.StringIO(output))
    }
    mismatches = []
    for stack, t, printed, figs in REFERENCE_TABLE:
        rounded = round_sig(computed[(stack, t)], figs)
        if not rounded == pytest.approx(printed, rel=1e-9):
            mismatches.append(
                f"{stack} @ t={t:g}: computed {computed[(stack, t)]:.6g} "
                f"-> {rounded:g}, table prints {printed:g}"
            )
    ok = not mismatches and elapsed < 1.0
    _verdict("1 table3-reproduction", ok, "; ".join(mismatches) or f"{elapsed:.2f}s")
    assert elapsed < 1.0
    assert not mismatches, (
        "known double-rounding cell, see module docstring: " + "; ".join(mismatches)
    )


def test_c2_breakpoint_table_reproduction():
    """Telegate/teledata costs and directions at all six cuts, in < 1 s."""
    start = time.perf_counter()
    output = _run_cli("cut", "--circuit", "default")
    elapsed = time.perf_counter() - start
    rows = list(csv.DictReader(io.StringIO(output)))
    ok = (
        [int(r["telegate"]) for r in rows] == [2, 3, 4, 3, 3, 2]
        and [int(r["teledata"]) for r in rows] == [1, 2, 3, 3, 2, 1]
        and [r["direction"] for r in rows] == ["B->A"] * 3 + ["A->B"] * 3
        and elapsed < 1.0
    )
    _verdict("2 breakpoint-table", ok, f"{elapsed:.2f}s")
    assert ok


def test_c3_distributed_correction_cost_constants():
    """Per-syndrome 17/12, per-cycle 204/144, static center cycle 36, worst block 36."""
    payload = json.loads(_run_cli("dqec-cost"))
    expected = {
        "per_syndrome_telegate": 17,
        "per_syndrome_teledata": 12,
        "per_cycle_telegate": 204,
        "per_cycle_teledata": 144,
        "static_cycle_at_center_cut": 36,
        "worst_case_block_teleports": 36,
    }
    ok = all(payload[key] == value for key, value in expected.items())
    _verdict("3 dqec-cost-constants", ok)
    assert ok, payload


def test_c4_serial_memory_penalty():
    """Analytic penalty bands at p_t = 1e-3, confirmed by simulation at 1e7 trials."""
    ratio7 = serial_penalty_ratio(parse_code("7-1-3"), 1e-3, 1e-3 / 60)
    ratio23 = serial_penalty_ratio(parse_code("23-1-7"), 1e-3, 1e-3 / 220)
    stack = parse_stack("7-1-3")
    serial, parallel = simulate_block_transfers([
        McConfig(stack, LinkParams(1e-3, 1e-3 / 60, mux, lanes), trials=10_000_000, seed=424242, workers=4)
        for mux, lanes in ((Multiplexing.SERIAL, 1), (Multiplexing.PARALLEL, 7))
    ])
    mc_ratio = serial.failures / parallel.failures
    ci = paired_ratio_ci(serial.failures, parallel.failures)
    in_ci = ci[0] <= ratio7 <= ci[1]
    ok = 1.24 <= ratio7 <= 1.26 and 1.50 <= ratio23 <= 1.56 and in_ci
    _verdict(
        "4 serial-memory-penalty",
        ok,
        f"analytic {ratio7:.4f}/{ratio23:.4f}, mc {mc_ratio:.4f} ci [{ci[0]:.4f}, {ci[1]:.4f}]",
    )
    assert 1.24 <= ratio7 <= 1.26
    assert 1.50 <= ratio23 <= 1.56
    assert in_ci


def test_c5_oracle_equivalence():
    """Simulation vs exact tail (3-sigma Wilson) and exact tail vs weight enumeration."""
    failures = []
    for spec in ("5-1-3", "7-1-3", "23-1-7"):
        code = parse_code(spec)
        stack = parse_stack(spec)
        for p_t in (0.003, 0.01, 0.03):
            exact = p_stack_block_error(stack, p_t, ModelMode.EXACT_TAIL)
            brute = weight_tail(code.n, code.min_fail, p_t)
            if abs(exact - brute) > 1e-12 * brute:
                failures.append(f"{spec} p={p_t}: tail {exact!r} vs enumeration {brute!r}")
            config = McConfig(
                stack,
                LinkParams(p_t=p_t, multiplexing=Multiplexing.PARALLEL, lanes=code.n),
                trials=1_000_000,
                seed=31337,
                workers=4,
            )
            estimate = simulate_block_transfer(config)
            low, high = wilson_interval(estimate.failures, estimate.trials, z=3.0)
            if not low <= exact <= high:
                failures.append(
                    f"{spec} p={p_t}: exact {exact:.3e} outside [{low:.3e}, {high:.3e}]"
                )
    ok = not failures
    _verdict("5 oracle-equivalence", ok, "; ".join(failures))
    assert ok, failures


def test_c6_ordering_coincidence():
    """Stated as exact equality of the two stack orderings; they differ by 0.56%."""
    worst = 0.0
    for t in (1e5, 1e8, 1e11):
        a = allowable_pt(parse_stack("23-1-7+7-1-3"), t, 0.1, ModelMode.LEADING_ORDER)
        b = allowable_pt(parse_stack("7-1-3+23-1-7"), t, 0.1, ModelMode.LEADING_ORDER)
        worst = max(worst, abs(a - b) / a)
    ok = worst <= 1e-12
    _verdict("6 ordering-coincidence", ok, f"relative difference {worst:.3e}")
    assert ok, (
        f"the orderings differ by {worst:.3e} relative (constant in t); their leading "
        "coefficients 21*8855^2 and 8855*21^4 are unequal, so exact equality is "
        "unattainable - see module docstring"
    )


def test_c7_encoder_validity_and_mutation_kill():
    """The shipped encoder passes the stabilizer check; every single-gate mutant fails."""
    start = time.perf_counter()
    circuit = default_steane_encoder()
    checks = steane_stabilizers()
    valid = validate_encoder(circuit, checks).ok
    survivors = [
        index
        for index in range(len(circuit.gates))
        if validate_encoder(without_gate(circuit, index), checks).ok
    ]
    elapsed = time.perf_counter() - start
    ok = valid and not survivors and elapsed < 1.0
    _verdict("7 encoder-validity", ok, f"{len(circuit.gates)} mutants, {elapsed:.2f}s")
    assert valid
    assert not survivors, f"mutants passed: {survivors}"
    assert elapsed < 1.0


def test_c8_worker_determinism():
    """Fixed seed gives identical failure counts for 1, 2, and 8 workers."""
    counts = []
    for workers in ("1", "2", "8"):
        payload = json.loads(
            _run_cli(
                "mc", "--stack", "7-1-3", "--pt", "0.01", "--trials", "2e5",
                "--seed", "99", "--workers", workers,
            )
        )
        counts.append(payload["failures"])
    ok = len(set(counts)) == 1
    _verdict("8 worker-determinism", ok, f"counts {counts}")
    assert ok


def test_c9_headline_tolerance():
    """Two stacked 23-1-7 levels tolerate >= 1% teleportation error at the
    largest workload's high anchor."""
    anchor = teleport_count(1024, AdderKind.CARRY_LOOKAHEAD)
    assert anchor.t_high == 6e10
    payload = json.loads(
        _run_cli("analyze", "--stack", "23-1-7+23-1-7", "--t", "6e10", "--target-pf", "0.1")
    )
    ok = payload["allowable_pt"] >= 0.01
    _verdict("9 headline-tolerance", ok, f"allowable_pt {payload['allowable_pt']:.6f}")
    assert ok
