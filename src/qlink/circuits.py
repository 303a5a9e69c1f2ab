"""EPR-pair cost accounting for distributed logical-zero creation.

An encoder circuit here is an H/CNOT network preparing the logical zero of
a CSS code from |0...0>, together with a spatial layout (qubit_order) that
places qubits left to right. Splitting the layout at a cut assigns the left
positions to node A and the rest to node B; the two strategies for building
the state across the cut are then costed in EPR pairs:

  telegate  - build in place, teleporting every CNOT that crosses the cut
              (one EPR pair per crossing gate);
  teledata  - build on the majority side, then teleport the minority side's
              qubits over (min(index, n - index) EPR pairs).

Correctness of a circuit is checked without amplitudes: the stabilizer
group of the prepared state is tracked through the circuit as GF(2)
symplectic rows and compared, as a row space, against the code's
stabilizers plus logical Z.
"""
from __future__ import annotations

from enum import Enum

from .codes import _check_int, _Record, _set

TYPE_CHECKING = False   # type checkers read it as true; nothing need be imported to say so
if TYPE_CHECKING:   # only load_circuit's annotation names it, so `qlink cut` does not load pathlib
    from pathlib import Path


class GateKind(str, Enum):
    H = "H"
    CNOT = "CNOT"


class Direction(str, Enum):
    A_TO_B = "A->B"
    B_TO_A = "B->A"


class Gate(_Record):
    __slots__ = _fields = ("kind", "qubits")

    def __init__(self, kind: GateKind, qubits: tuple[int, ...]):
        qubits = tuple(qubits)
        kind = GateKind(kind)
        arity = 1 if kind is GateKind.H else 2
        if len(qubits) != arity:
            raise ValueError(f"{kind.value} takes {arity} qubit(s), got {qubits}")
        qubits = tuple(_check_int(q, "gate operand") for q in qubits)
        if kind is GateKind.CNOT and qubits[0] == qubits[1]:
            raise ValueError("CNOT control and target must differ")
        _set(self, "kind", kind)
        _set(self, "qubits", qubits)


class EncoderCircuit(_Record):
    """Ordered qubit layout plus the gate list of a logical-zero encoder."""

    __slots__ = _fields = ("n_qubits", "qubit_order", "gates")

    def __init__(self, n_qubits: int, qubit_order: tuple[int, ...], gates: tuple[Gate, ...]):
        n_qubits = _check_int(n_qubits, "n_qubits", 1)
        qubit_order = tuple(_check_int(q, "qubit_order entry") for q in qubit_order)
        gates = tuple(gates)
        if len(qubit_order) != n_qubits or sorted(qubit_order) != list(range(n_qubits)):
            raise ValueError(f"qubit_order must be a permutation of 0..{n_qubits - 1}")
        for gate in gates:
            for q in gate.qubits:
                if not 0 <= q < n_qubits:
                    raise ValueError(f"gate operand {q} out of range for {n_qubits} qubits")
        _set(self, "n_qubits", n_qubits)
        _set(self, "qubit_order", qubit_order)
        _set(self, "gates", gates)


class CutCost(_Record):
    """Both strategies' EPR pairs at the cut that puts layout positions < index on node A."""

    __slots__ = _fields = ("index", "telegate_eprs", "teledata_eprs", "teledata_direction")

    def __init__(self, index: int, telegate_eprs: int, teledata_eprs: int, teledata_direction: Direction):
        _set(self, "index", index)
        _set(self, "telegate_eprs", telegate_eprs)
        _set(self, "teledata_eprs", teledata_eprs)
        _set(self, "teledata_direction", teledata_direction)

    @property
    def label(self) -> str:
        """Breakpoint letters left to right in bijective base 26: a=1, ..., z=26, aa=27, ab=28, ..."""
        label, number = "", self.index
        while number:
            number, letter = divmod(number - 1, 26)
            label = chr(ord("a") + letter) + label
        return label


def cut_table(circuit: EncoderCircuit) -> list[CutCost]:
    """Costs of both strategies at every cut, left to right.

    A CNOT spans layout positions lo..hi and crosses cut `index` when
    lo < index <= hi; telegate pays one EPR pair per crossing CNOT. Teledata
    builds on the majority side and ships the minority side's
    min(index, n - index) qubits; an even split builds on side A.
    """
    position = {qubit: i for i, qubit in enumerate(circuit.qubit_order)}
    n, cnot = circuit.n_qubits, GateKind.CNOT
    step = [0] * (n + 1)   # the CNOTs crossing cut index number step[0] + ... + step[index]
    for gate in circuit.gates:
        if gate.kind is cnot:
            control, target = gate.qubits
            lo, hi = position[control], position[target]
            if lo > hi:
                lo, hi = hi, lo
            step[lo + 1] += 1
            step[hi + 1] -= 1
    rows, crossing, to_a, to_b = [], 0, Direction.B_TO_A, Direction.A_TO_B
    for index in range(1, n):
        crossing += step[index]
        rows.append(CutCost(index, crossing, min(index, n - index), to_a if index < n - index else to_b))
    return rows


def steane_stabilizers() -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """X checks, Z checks, and logical Z (one row) of the seven-qubit CSS code, as 0/1 ints.

    Check rows are the binary representations of 1..7 read down the columns
    (the classical Hamming parity-check matrix); both Pauli types share it.
    """
    h = (
        (0, 0, 0, 1, 1, 1, 1),
        (0, 1, 1, 0, 0, 1, 1),
        (1, 0, 1, 0, 1, 0, 1),
    )
    return h, h, (1,) * 7


def _bit_rows(matrix, n: int) -> list[int]:
    """A 0/1 matrix, or a single 0/1 row, as ints with column q in bit q."""
    rows = matrix if all(hasattr(row, "__len__") for row in matrix) else [matrix]
    if any(len(row) != n for row in rows):
        raise ValueError("stabilizer row length does not match the circuit width")
    return [sum(1 << q for q, bit in enumerate(row) if bit) for row in rows]


def _reduce(row: int, basis: list[int]) -> int:
    """The row with every pivot (lowest set bit) of a reduced basis cleared: 0 iff it lies in the span."""
    for vector in basis:
        if row & vector & -vector:
            row ^= vector
    return row


def _basis(rows: list[int]) -> list[int]:
    """The fully reduced GF(2) basis of the rows' span in pivot order: each pivot is set in one row only."""
    basis: list[int] = []
    for row in rows:
        row = _reduce(row, basis)
        if row:
            basis = [vector ^ row if vector & row & -row else vector for vector in basis] + [row]
    return sorted(basis, key=lambda row: row & -row)


def _css_encoder(x_checks, qubit_order: tuple[int, ...]) -> EncoderCircuit:
    """The logical-zero encoder of a CSS code from its X checks (Gottesman, quant-ph/9705052, ch. 4).

    An H on each pivot of the reduced checks, in pivot order, then a CNOT
    from each pivot to every other qubit of its row: the state is the equal
    superposition over the span of the X checks.
    """
    n = len(qubit_order)
    rows = _basis(_bit_rows(x_checks, n))
    pivots = [(row & -row).bit_length() - 1 for row in rows]
    cnots = [Gate(GateKind.CNOT, (p, q)) for p, row in zip(pivots, rows) for q in range(n) if row >> q & 1 and q != p]
    return EncoderCircuit(n, qubit_order, tuple(Gate(GateKind.H, (p,)) for p in pivots) + tuple(cnots))


# The shipped layout was found by exhaustive search: with stabilizer
# validity, its telegate cost over the six cuts, (2, 3, 4, 3, 3, 2), is the
# encoder's contract. EncoderCircuit is frozen, so every caller shares it.
_STEANE_ORDER = (2, 0, 1, 6, 4, 3, 5)
_STEANE_ENCODER = _css_encoder(steane_stabilizers()[0], _STEANE_ORDER)


def default_steane_encoder() -> EncoderCircuit:
    """The shipped seven-qubit logical-zero encoder with its layout, built once per process."""
    return _STEANE_ENCODER


def _pauli_string(row: int, n: int) -> str:
    return "".join("IXZY"[(row >> q & 1) + 2 * (row >> (n + q) & 1)] for q in range(n))


class EncoderValidation(_Record):
    __slots__ = _fields = ("ok", "missing", "extra")

    def __init__(self, ok: bool, missing: tuple[str, ...], extra: tuple[str, ...]):
        _set(self, "ok", ok)
        _set(self, "missing", missing)   # expected generators absent from the prepared group
        _set(self, "extra", extra)       # prepared generators outside the expected group


def validate_encoder(circuit: EncoderCircuit, stabilizers: tuple) -> EncoderValidation:
    """Check that the circuit prepares the logical zero of a CSS code given by its checks.

    Simulates the all-zeros stabilizer tableau through the gates using the
    GF(2) symplectic update rules (phases are irrelevant to group
    membership here) and compares row spaces: the prepared group must equal
    the group generated by the code's stabilizers plus logical Z. Generators
    are compared as groups, not lists, since presentations are not unique.
    Each Pauli row is one int, its X part in bits 0..n-1 and its Z part in
    bits n..2n-1. `stabilizers` holds (X checks, Z checks, logical Z) as 0/1
    matrices, such as steane_stabilizers(); any of them may be a single row.
    """
    n = circuit.n_qubits
    h_x, h_z, logical_z = (_bit_rows(matrix, n) for matrix in stabilizers)

    # Start from |0...0>: generators Z_0 .. Z_{n-1}.
    tableau = [1 << (n + q) for q in range(n)]
    for gate in circuit.gates:
        if gate.kind is GateKind.H:   # swap x_q and z_q
            (q,) = gate.qubits
            flip = 1 << q | 1 << (n + q)
            tableau = [row ^ flip if (row >> q ^ row >> (n + q)) & 1 else row for row in tableau]
        else:   # CNOT: x_t ^= x_c, z_c ^= z_t
            c, t = gate.qubits
            tableau = [row ^ (row >> c & 1) << t ^ (row >> (n + t) & 1) << (n + c) for row in tableau]

    expected = h_x + [row << n for row in h_z + logical_z]
    prepared, wanted = _basis(tableau), _basis(expected)
    missing = tuple(_pauli_string(row, n) for row in expected if _reduce(row, prepared))
    extra = tuple(_pauli_string(row, n) for row in tableau if _reduce(row, wanted))
    return EncoderValidation(ok=not (missing or extra), missing=missing, extra=extra)


class DqecBudget(_Record):
    """EPR budgets for distributed error correction on one encoder, static and in motion."""

    __slots__ = _fields = ("per_syndrome_telegate", "per_syndrome_teledata", "per_cycle_telegate",
                           "per_cycle_teledata", "static_cycle_at_center_cut", "worst_case_block_teleports",
                           "syndromes", "repeats")

    def __init__(self, per_syndrome_telegate: int, per_syndrome_teledata: int, per_cycle_telegate: int,
                 per_cycle_teledata: int, static_cycle_at_center_cut: int, worst_case_block_teleports: int,
                 syndromes: int, repeats: int):
        _set(self, "per_syndrome_telegate", per_syndrome_telegate)
        _set(self, "per_syndrome_teledata", per_syndrome_teledata)
        _set(self, "per_cycle_telegate", per_cycle_telegate)
        _set(self, "per_cycle_teledata", per_cycle_teledata)
        _set(self, "static_cycle_at_center_cut", static_cycle_at_center_cut)
        _set(self, "worst_case_block_teleports", worst_case_block_teleports)
        _set(self, "syndromes", syndromes)
        _set(self, "repeats", repeats)


def dqec_budget(circuit: EncoderCircuit, syndromes: int = 6, repeats: int = 2) -> DqecBudget:
    """EPR pairs to correct a block split between two nodes.

    Each syndrome measurement consumes one distributed logical zero, and
    each syndrome is measured `repeats` times, so a cycle costs
    syndromes * repeats logical zeros. A block that stays split at the
    centre cut pays that cut's teledata cost per zero. While a block moves
    one qubit at a time, the split walks through every cut, so a syndrome
    measured in motion pays a strategy's cost summed over all n - 1 cuts.
    The worst single correction block sits at the widest cut and pays its
    teledata cost for every measurement.

    These are cut_table's sums in closed form. A CNOT over layout positions
    lo..hi crosses the hi - lo cuts between them. The teledata costs
    min(i, n - i) of cuts i = 1..n-1 add up to n^2 // 4. The centre cut,
    index (n + 1) // 2, is also the widest, and ships n // 2 qubits.
    """
    n = circuit.n_qubits
    if n < 2:
        raise ValueError("in-motion correction needs at least two qubits")
    syndromes = _check_int(syndromes, "syndromes", 1)
    repeats = _check_int(repeats, "repeats", 1)
    position = {qubit: i for i, qubit in enumerate(circuit.qubit_order)}
    telegate, cnot = 0, GateKind.CNOT
    for gate in circuit.gates:
        if gate.kind is cnot:
            control, target = gate.qubits
            telegate += abs(position[control] - position[target])
    teledata = n * n // 4
    measurements = syndromes * repeats
    return DqecBudget(
        per_syndrome_telegate=telegate,
        per_syndrome_teledata=teledata,
        per_cycle_telegate=measurements * telegate,
        per_cycle_teledata=measurements * teledata,
        static_cycle_at_center_cut=measurements * (n // 2),
        worst_case_block_teleports=measurements * (n // 2),
        syndromes=syndromes,
        repeats=repeats,
    )


# --------------------------------------------------------------------------
# Circuit files: {"n": int, "order": [...], "gates": [{"kind": .., "q": [..]}]}
# --------------------------------------------------------------------------

def _json(value, kind: type):
    """A JSON value of exactly this type: int() and tuple() would also take 7.9, true, "02" or {}."""
    if type(value) is not kind:
        raise TypeError(f"expected a JSON {kind.__name__}, got {value!r}")
    return value


def circuit_from_dict(data: dict) -> EncoderCircuit:
    try:
        return EncoderCircuit(
            n_qubits=_json(data["n"], int),
            qubit_order=tuple(_json(q, int) for q in _json(data["order"], list)),
            gates=tuple(Gate(GateKind(g["kind"]), tuple(_json(q, int) for q in _json(g["q"], list)))
                        for g in _json(data["gates"], list)),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed circuit JSON: {exc}") from exc


def load_circuit(path: str | Path) -> EncoderCircuit:
    import json   # only circuit files need it, so `qlink cut` and its CSV do not load it

    with open(path, encoding="utf-8") as handle:
        return circuit_from_dict(json.load(handle))

