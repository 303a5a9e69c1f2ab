import json
import random

import numpy as np
import pytest
from helpers import (
    MALFORMED_CIRCUIT_JSON,
    circuit_to_dict,
    reference_cut_table,
    reference_validate,
    save_circuit,
    without_gate,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlink.circuits import (
    Direction,
    EncoderCircuit,
    Gate,
    GateKind,
    circuit_from_dict,
    cut_table,
    default_steane_encoder,
    dqec_budget,
    load_circuit,
    steane_stabilizers,
    validate_encoder,
)
from qlink.circuits import _css_encoder as css_encoder

CHECKS = steane_stabilizers()

# The shipped encoder's gates as they were once written out by hand; the
# builder must reproduce them, in this order.
_STEANE_GATES = (
    (GateKind.H, (0,)),
    (GateKind.H, (1,)),
    (GateKind.H, (3,)),
    (GateKind.CNOT, (0, 2)),
    (GateKind.CNOT, (0, 4)),
    (GateKind.CNOT, (0, 6)),
    (GateKind.CNOT, (1, 2)),
    (GateKind.CNOT, (1, 5)),
    (GateKind.CNOT, (1, 6)),
    (GateKind.CNOT, (3, 4)),
    (GateKind.CNOT, (3, 5)),
    (GateKind.CNOT, (3, 6)),
)


# ------------------------------------------------------------------ fixtures
def test_default_encoder_reproduces_breakpoint_table():
    table = cut_table(default_steane_encoder())
    assert [row.label for row in table] == list("abcdef")
    assert [row.telegate_eprs for row in table] == [2, 3, 4, 3, 3, 2]
    assert [row.teledata_eprs for row in table] == [1, 2, 3, 3, 2, 1]
    assert [row.teledata_direction for row in table] == [
        Direction.B_TO_A,
        Direction.B_TO_A,
        Direction.B_TO_A,
        Direction.A_TO_B,
        Direction.A_TO_B,
        Direction.A_TO_B,
    ]


def test_default_encoder_is_the_frozen_gate_table():
    circuit = default_steane_encoder()
    assert circuit.gates == tuple(Gate(kind, qubits) for kind, qubits in _STEANE_GATES)
    assert (circuit.n_qubits, circuit.qubit_order) == (7, (2, 0, 1, 6, 4, 3, 5))
    assert validate_encoder(circuit, CHECKS).ok
    assert default_steane_encoder() is circuit   # built once, shared by every caller


def test_encoder_depends_only_on_the_span_of_the_checks():
    # The fully reduced basis of a span is unique, so any presentation of the
    # same X checks (rows shuffled, added to one another) builds the same gates.
    rng = random.Random(31)
    h_x = [list(row) for row in CHECKS[0]]
    shipped = default_steane_encoder()
    for _ in range(20):
        rng.shuffle(h_x)
        i, j = rng.sample(range(3), 2)
        h_x[i] = [a ^ b for a, b in zip(h_x[i], h_x[j])]
        assert css_encoder(h_x, shipped.qubit_order) == shipped


def test_builder_encodes_another_css_code():
    # [[4,2,2]]: X and Z checks XXXX and ZZZZ, logical Zs Z0Z1 and Z0Z2.
    circuit = css_encoder([(1, 1, 1, 1)], (3, 2, 1, 0))
    assert circuit.gates == (Gate(GateKind.H, (0,)), *(Gate(GateKind.CNOT, (0, q)) for q in (1, 2, 3)))
    assert validate_encoder(circuit, ([(1, 1, 1, 1)], [(1, 1, 1, 1)], [(1, 1, 0, 0), (1, 0, 1, 0)])).ok


def test_breakpoint_labels_continue_past_z():
    chain = EncoderCircuit(30, tuple(range(30)), tuple(Gate(GateKind.CNOT, (q, q + 1)) for q in range(29)))
    labels = [row.label for row in cut_table(chain)]
    assert labels[:3] == ["a", "b", "c"]
    assert labels[25:] == ["z", "aa", "ab", "ac"]   # indices 26-29
    assert len(set(labels)) == 29


def test_breakpoint_c_and_d_gate_counts():
    rows = {row.label: row for row in cut_table(default_steane_encoder())}
    assert (rows["c"].index, rows["c"].telegate_eprs) == (3, 4)
    assert (rows["d"].index, rows["d"].telegate_eprs) == (4, 3)


def test_teledata_never_exceeds_half_block():
    for row in cut_table(default_steane_encoder()):
        assert row.teledata_eprs <= 7 // 2


def test_teledata_beats_or_ties_telegate_on_default_circuit():
    for row in cut_table(default_steane_encoder()):
        assert row.teledata_eprs <= row.telegate_eprs


# ------------------------------------------------------------------ validity
def test_default_encoder_prepares_logical_zero():
    result = validate_encoder(default_steane_encoder(), CHECKS)
    assert result.ok
    assert result.missing == ()
    assert result.extra == ()


def test_empty_circuit_is_not_logical_zero():
    empty = EncoderCircuit(7, tuple(range(7)), ())
    result = validate_encoder(empty, CHECKS)
    assert not result.ok
    assert result.missing  # the X-type generators cannot be in an all-Z group


def test_every_single_gate_deletion_is_caught():
    circuit = default_steane_encoder()
    for index in range(len(circuit.gates)):
        mutant = without_gate(circuit, index)
        result = validate_encoder(mutant, CHECKS)
        assert not result.ok, f"deleting gate {index} went unnoticed"
        assert result.missing or result.extra
        reference = reference_validate(mutant, steane_stabilizers())
        assert (result.ok, result.missing, result.extra) == reference, index


def test_validation_survives_gate_plus_inverse():
    # H and CNOT are involutions, so appending a gate twice is a no-op.
    circuit = default_steane_encoder()
    for extra in (Gate(GateKind.H, (4,)), Gate(GateKind.CNOT, (2, 5))):
        padded = EncoderCircuit(7, circuit.qubit_order, circuit.gates + (extra, extra))
        assert validate_encoder(padded, CHECKS).ok


# ----------------------------------------------------------------- cut costs
def test_teledata_cost_symmetric_around_center():
    rng = random.Random(3)
    order = list(range(9))
    rng.shuffle(order)
    circuit = EncoderCircuit(9, tuple(order), (Gate(GateKind.CNOT, (0, 8)),))
    costs = [row.teledata_eprs for row in cut_table(circuit)]
    assert costs == costs[::-1]


def test_even_split_ties_create_on_side_a():
    row = cut_table(EncoderCircuit(8, tuple(range(8)), ()))[3]
    assert (row.index, row.label) == (4, "d")
    assert row.teledata_eprs == 4
    assert row.teledata_direction is Direction.A_TO_B


def test_telegate_cost_ignores_gate_order():
    circuit = default_steane_encoder()
    expected = [row.telegate_eprs for row in cut_table(circuit)]
    rng = random.Random(19)
    for _ in range(10):
        gates = list(circuit.gates)
        rng.shuffle(gates)
        shuffled = EncoderCircuit(7, circuit.qubit_order, tuple(gates))
        assert [row.telegate_eprs for row in cut_table(shuffled)] == expected


def test_no_crossing_gates_costs_nothing():
    circuit = EncoderCircuit(4, (0, 1, 2, 3), (Gate(GateKind.CNOT, (2, 3)),))
    assert [row.telegate_eprs for row in cut_table(circuit)] == [0, 0, 1]


@st.composite
def _layout_circuits(draw):
    """1 to 12 qubits in a random layout, with a random H/CNOT list (maybe empty)."""
    n = draw(st.integers(1, 12))
    h = st.integers(0, n - 1).map(lambda q: Gate(GateKind.H, (q,)))
    cnot = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True).map(
        lambda qs: Gate(GateKind.CNOT, tuple(qs))
    )
    gates = draw(st.lists(st.one_of(h, cnot) if n > 1 else h, max_size=20))
    return EncoderCircuit(n, tuple(draw(st.permutations(range(n)))), tuple(gates))


@settings(max_examples=200, deadline=None)
@given(circuit=_layout_circuits())
@example(circuit=EncoderCircuit(1, (0,), ()))
@example(circuit=default_steane_encoder())
@example(circuit=EncoderCircuit(30, tuple(range(30)), tuple(Gate(GateKind.CNOT, (q, q + 1)) for q in range(29))))
def test_cut_table_matches_per_cut_reference(circuit):
    table = cut_table(circuit)
    assert [row.index for row in table] == list(range(1, circuit.n_qubits))
    rows = [(row.label, row.telegate_eprs, row.teledata_eprs, row.teledata_direction.value) for row in table]
    assert rows == reference_cut_table(circuit)


# ---------------------------------------------------------------- cycle costs
def test_static_cycle_cost_at_center_cut():
    assert dqec_budget(default_steane_encoder()).static_cycle_at_center_cut == 36


def test_static_cycle_cost_single_measurement():
    budget = dqec_budget(default_steane_encoder(), syndromes=1, repeats=1)
    assert budget.static_cycle_at_center_cut == 3


def test_even_width_budget_uses_cut_at_half_width():
    budget = dqec_budget(EncoderCircuit(8, tuple(range(8)), ()), syndromes=1, repeats=1)
    # Cut 4 of 8 ships 4 qubits; the cut after it would ship 3.
    assert budget.static_cycle_at_center_cut == 4


def test_inmotion_costs():
    budget = dqec_budget(default_steane_encoder())
    assert (budget.per_syndrome_telegate, budget.per_cycle_telegate) == (17, 204)
    assert (budget.per_syndrome_teledata, budget.per_cycle_teledata) == (12, 144)
    assert budget.worst_case_block_teleports == 36
    assert (budget.syndromes, budget.repeats) == (6, 2)


def test_cycle_costs_reject_zero_counts():
    circuit = default_steane_encoder()
    for syndromes, repeats, name in ((0, 2, "syndromes"), (6, 0, "repeats")):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
            dqec_budget(circuit, syndromes, repeats)


@pytest.mark.parametrize(("syndromes", "repeats", "name"), [
    (6.0, 2, "syndromes"), (True, 2.5, "syndromes"), (6, 2.0, "repeats"), (6, True, "repeats"),
])
def test_cycle_counts_must_be_integers(syndromes, repeats, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        dqec_budget(default_steane_encoder(), syndromes, repeats)


def test_budget_needs_two_qubits():
    with pytest.raises(ValueError, match="in-motion correction needs at least two qubits"):
        dqec_budget(EncoderCircuit(1, (0,), ()))


# --------------------------------------------------------------- persistence
def test_circuit_json_round_trip(tmp_path):
    circuit = default_steane_encoder()
    path = tmp_path / "encoder.json"
    save_circuit(circuit, path)
    assert load_circuit(path) == circuit
    raw = json.loads(path.read_text())
    assert set(raw) == {"n", "order", "gates"}


def test_circuit_dict_round_trip():
    circuit = default_steane_encoder()
    assert circuit_from_dict(circuit_to_dict(circuit)) == circuit


@pytest.mark.parametrize("data", MALFORMED_CIRCUIT_JSON.values(), ids=list(MALFORMED_CIRCUIT_JSON))
def test_malformed_circuit_dict_rejected(data):
    with pytest.raises(ValueError, match="malformed circuit JSON"):
        circuit_from_dict(data)


@pytest.mark.parametrize(
    "order, gates",
    [
        ((0, 1, 1), ()),                                # not a permutation
        ((0, 1, 2), (Gate(GateKind.CNOT, (0, 5)),)),    # operand out of range
    ],
)
def test_invalid_circuits_rejected(order, gates):
    with pytest.raises(ValueError):
        EncoderCircuit(3, order, gates)


def test_a_layout_shorter_than_the_width_is_rejected_before_the_width_is_enumerated():
    # No machine holds range(2**62) as a list; the lengths disagree first.
    with pytest.raises(ValueError, match="^qubit_order must be a permutation of 0..4611686018427387903$"):
        EncoderCircuit(2**62, (0,), ())


def test_invalid_gates_rejected():
    with pytest.raises(ValueError):
        Gate(GateKind.CNOT, (2, 2))
    with pytest.raises(ValueError):
        Gate(GateKind.H, (0, 1))


@pytest.mark.parametrize("record, args, name", [
    (Gate, (GateKind.CNOT, (0, 1.0)), "gate operand"),
    (Gate, (GateKind.H, (True,)), "gate operand"),
    (EncoderCircuit, (2, (0, True), ()), "qubit_order entry"),
    (EncoderCircuit, (2, (0.0, 1), ()), "qubit_order entry"),
    (EncoderCircuit, (2.0, (0, 1), ()), "n_qubits"),
    (EncoderCircuit, (False, (), ()), "n_qubits"),
], ids=["float-operand", "bool-operand", "bool-order", "float-order", "float-width", "bool-width"])
def test_qubits_must_be_integers(record, args, name):
    # The JSON loader refuses these before they reach the records; the library records refuse them too.
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        record(*args)


def test_numpy_integer_qubits_are_accepted():
    circuit = EncoderCircuit(np.int64(2), (np.int32(1), 0), (Gate(GateKind.CNOT, (np.int64(0), 1)),))
    assert [row.telegate_eprs for row in cut_table(circuit)] == [1]


# ------------------------------------------------------- randomized encoders
def _reduced_basis(pivots):
    """Row-reduce the check matrix so the given columns form an identity.

    Returns one generator row per pivot, or None when the pivot columns are
    dependent (a line of the size-7 point set).
    """
    h_x, _, _ = steane_stabilizers()
    rows = [list(map(int, row)) for row in h_x]
    chosen = []
    for pivot in pivots:
        hit = next((i for i, r in enumerate(rows) if i not in chosen and r[pivot]), None)
        if hit is None:
            return None
        chosen.append(hit)
        for i, row in enumerate(rows):
            if i != hit and row[pivot]:
                rows[i] = [(a + b) % 2 for a, b in zip(row, rows[hit])]
    return [rows[i] for i in chosen]


def _build_encoder(pivots, basis, order):
    gates = [Gate(GateKind.H, (p,)) for p in sorted(pivots)]
    for pivot, row in zip(pivots, basis):
        for target, bit in enumerate(row):
            if bit and target != pivot:
                gates.append(Gate(GateKind.CNOT, (pivot, target)))
    return EncoderCircuit(7, tuple(order), tuple(gates))


def test_random_valid_encoders_pass_and_mutants_fail():
    rng = random.Random(23)
    built = 0
    while built < 12:
        pivots = tuple(sorted(rng.sample(range(7), 3)))
        basis = _reduced_basis(pivots)
        if basis is None:
            continue
        order = list(range(7))
        rng.shuffle(order)
        circuit = _build_encoder(pivots, basis, order)
        assert validate_encoder(circuit, CHECKS).ok, (pivots, order)
        mutant = without_gate(circuit, rng.randrange(len(circuit.gates)))
        assert not validate_encoder(mutant, CHECKS).ok, (pivots, order)
        built += 1


def test_random_encoders_share_cut_cost_totals():
    # Layout changes redistribute crossings over the cuts but teledata costs
    # depend on the split sizes alone.
    rng = random.Random(29)
    basis = _reduced_basis((0, 1, 3))
    for _ in range(8):
        order = list(range(7))
        rng.shuffle(order)
        circuit = _build_encoder((0, 1, 3), basis, order)
        table = cut_table(circuit)
        assert [row.teledata_eprs for row in table] == [1, 2, 3, 3, 2, 1]
        total_crossings = sum(row.telegate_eprs for row in table)
        spans = sum(
            abs(circuit.qubit_order.index(g.qubits[0]) - circuit.qubit_order.index(g.qubits[1]))
            for g in circuit.gates
            if g.kind is GateKind.CNOT
        )
        assert total_crossings == spans


# ------------------------------------------------------------- fixture guard
def test_stabilizer_fixture_shape():
    h_x, h_z, logical_z = steane_stabilizers()
    assert [len(row) for row in h_x] == [7] * 3 and [len(row) for row in h_z] == [7] * 3
    assert list(logical_z) == [1] * 7
    assert {bit for row in h_x + h_z for bit in row} <= {0, 1}
    # Columns of the check matrix are the binary numbers 1..7.
    columns = [int("".join(str(row[q]) for row in h_x), 2) for q in range(7)]
    assert sorted(columns) == [1, 2, 3, 4, 5, 6, 7]


def test_validation_is_pure():
    circuit = default_steane_encoder()
    fixture = tuple(np.array(m, dtype=np.uint8) for m in steane_stabilizers())
    before = [m.copy() for m in fixture]
    validate_encoder(circuit, fixture)
    for original, kept in zip(before, fixture):
        assert np.array_equal(original, kept)


# --------------------------------------------------- numpy tableau reference
def test_stabilizer_rows_must_match_the_circuit_width():
    h_x, h_z, logical_z = steane_stabilizers()
    with pytest.raises(ValueError, match="row length"):
        validate_encoder(default_steane_encoder(), (h_x, h_z, logical_z[:6]))


_GATES = st.one_of(
    st.integers(0, 6).map(lambda q: Gate(GateKind.H, (q,))),
    st.permutations(range(7)).map(lambda qs: Gate(GateKind.CNOT, qs[:2])),
)
_DEFAULT_GATES = default_steane_encoder().gates


@settings(max_examples=100, deadline=None)
@given(
    kept=st.integers(0, len(_DEFAULT_GATES)),
    dropped=st.sets(st.integers(0, len(_DEFAULT_GATES) - 1), max_size=2),
    tail=st.lists(_GATES, max_size=12),
    as_arrays=st.booleans(),
)
@example(kept=12, dropped=set(), tail=[], as_arrays=True)
@example(kept=12, dropped=set(), tail=[Gate(GateKind.CNOT, (2, 5))] * 2, as_arrays=False)
def test_validation_matches_numpy_tableau_reference(kept, dropped, tail, as_arrays):
    # A prefix of the default encoder with up to two gates deleted, then
    # random H and CNOT gates: valid and broken encoders both occur.
    gates = [g for i, g in enumerate(_DEFAULT_GATES[:kept]) if i not in dropped] + tail
    circuit = EncoderCircuit(7, default_steane_encoder().qubit_order, tuple(gates))
    stabilizers = steane_stabilizers()
    if as_arrays:
        stabilizers = tuple(np.array(m, dtype=np.uint8) for m in stabilizers)
    result = validate_encoder(circuit, stabilizers)
    assert (result.ok, result.missing, result.extra) == reference_validate(circuit, stabilizers)
