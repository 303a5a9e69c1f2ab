"""Seeded op generation and the pinned stream layout."""
import json
from pathlib import Path

import oracle
import pin
from ops import SEED_POOL, Workload, analytic_mix, split_audit

PINNED = json.loads((Path(pin.__file__).parent / "pinned.json").read_text())


def _argvs(ops):
    return [op.argv for op in ops]


def test_same_seed_same_ops():
    assert _argvs(analytic_mix(5)) == _argvs(analytic_mix(5))
    for name in ("mc-point", "sweep-grid"):
        a, b = Workload(name, 5, 2, PINNED), Workload(name, 5, 2, PINNED)
        assert [_argvs(a.pass_ops(k)) for k in range(4)] == [_argvs(b.pass_ops(k)) for k in range(4)]


def test_different_seeds_differ():
    assert _argvs(analytic_mix(5)) != _argvs(analytic_mix(6))


def test_analytic_mix_shape():
    ops = analytic_mix(3)
    kinds = {op.kind for op in ops}
    assert {"analyze", "table3", "cut", "dqec-cost", "recommend", "workload", "link-timing",
            "invalid"} == kinds
    invalid = [op for op in ops if op.kind == "invalid"]
    assert 200 <= len(ops) <= 400 and len(invalid) < 0.1 * len(ops)
    assert any(op.argv == ("analyze", "--t", "nan") for op in invalid)


def test_defect_audit_takes_every_exposed_op():
    ops = analytic_mix(3)
    timed, audit = split_audit(ops)
    assert len(timed) + len(audit) == len(ops) and timed and audit
    assert all(oracle.defect_exposed(op.kind, op.params) is None for op in timed)
    # Whole grid cells go to the audit, so every seed times the same cells.
    assert len(timed) == len(split_audit(analytic_mix(4))[0])
    assert ("analyze", "--t", "nan") in _argvs(audit)
    assert ("table3", "--mode", "exact") in _argvs(audit)
    assert ("table3", "--mode", "leading") in _argvs(timed)
    workload = Workload("analytic-mix", 3, 2, PINNED)
    assert _argvs(workload.pass_ops(0)) == _argvs(timed) and _argvs(workload.audit) == _argvs(audit)


def test_mc_passes_take_fresh_program_seeds():
    workload = Workload("sweep-grid", 9, 2, PINNED)
    seeds = [workload.pass_ops(k)[0].params["seed"] for k in range(len(SEED_POOL))]
    assert sorted(seeds) == sorted(SEED_POOL)


def test_pinned_layout_anchor():
    anchor = PINNED["anchor"]
    assert anchor["failures"] == 380
    assert pin.critical_counts(anchor["stack"], anchor["trials"], anchor["seed"],
                               [anchor["q"]]) == [380]
