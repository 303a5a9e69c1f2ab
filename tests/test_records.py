"""The contract of qlink's 15 result and parameter records.

Each record is a plain frozen class: its field names in declaration order
as `_fields`, positional and keyword construction with the same defaults,
no assignment or deletion, equality and hashing by value, a repr that
names every field, and its constructor's checks. The field tuples, the
defaults and the repr texts below are frozen literals of what the records
gave when they were frozen dataclasses.
"""
import copy
import pickle

import pytest

from qlink.analytic import AlgorithmFailure, LinkParams, ModelMode, Multiplexing, Table3Row
from qlink.circuits import CutCost, Direction, DqecBudget, EncoderCircuit, EncoderValidation, Gate, GateKind
from qlink.codes import CodeStack, QecCode
from qlink.montecarlo import McConfig, McEstimate
from qlink.timing import CycleTimes, Recommendation
from qlink.workload import TeleportEstimate

STEANE = QecCode(7, 1, 3)
CNOT = Gate(GateKind.CNOT, (0, 1))
WITHIN = "slowdown and reliability penalties both within thresholds"

# record, fields, one set of arguments, the defaults of its trailing fields, repr of record(*arguments)
RECORDS = [
    (QecCode, ("n", "k", "d"), (7, 1, 3), {}, "QecCode(n=7, k=1, d=3)"),
    (CodeStack, ("levels",), ((STEANE, QecCode(23, 1, 7)),), {"levels": ()},
     "CodeStack(levels=(QecCode(n=7, k=1, d=3), QecCode(n=23, k=1, d=7)))"),
    (LinkParams, ("p_t", "p_m", "multiplexing", "lanes"), (0.01, 0.001, Multiplexing.PARALLEL, 7),
     {"p_m": 0.0, "multiplexing": Multiplexing.SERIAL, "lanes": 1},
     "LinkParams(p_t=0.01, p_m=0.001, multiplexing=<Multiplexing.PARALLEL: 'parallel'>, lanes=7)"),
    (AlgorithmFailure, ("block_error", "p_f", "linearized", "linearization_valid"), (1e-09, 0.0001, 0.0001, True),
     {}, "AlgorithmFailure(block_error=1e-09, p_f=0.0001, linearized=0.0001, linearization_valid=True)"),
    (Table3Row, ("stack", "scale_up", "t", "mode", "allowable_pt"),
     ("7-1-3", 7, 100000.0, ModelMode.LEADING_ORDER, 1.2e-05), {},
     "Table3Row(stack='7-1-3', scale_up=7, t=100000.0, mode=<ModelMode.LEADING_ORDER: 'leading'>, "
     "allowable_pt=1.2e-05)"),
    (Gate, ("kind", "qubits"), (GateKind.CNOT, (0, 1)), {}, "Gate(kind=<GateKind.CNOT: 'CNOT'>, qubits=(0, 1))"),
    (EncoderCircuit, ("n_qubits", "qubit_order", "gates"), (2, (1, 0), (Gate(GateKind.H, (0,)), CNOT)), {},
     "EncoderCircuit(n_qubits=2, qubit_order=(1, 0), gates=(Gate(kind=<GateKind.H: 'H'>, qubits=(0,)), "
     "Gate(kind=<GateKind.CNOT: 'CNOT'>, qubits=(0, 1))))"),
    (CutCost, ("index", "telegate_eprs", "teledata_eprs", "teledata_direction"), (1, 2, 1, Direction.B_TO_A), {},
     "CutCost(index=1, telegate_eprs=2, teledata_eprs=1, teledata_direction=<Direction.B_TO_A: 'B->A'>)"),
    (EncoderValidation, ("ok", "missing", "extra"), (False, ("ZZI",), ()), {},
     "EncoderValidation(ok=False, missing=('ZZI',), extra=())"),
    (DqecBudget, ("per_syndrome_telegate", "per_syndrome_teledata", "per_cycle_telegate", "per_cycle_teledata",
                  "static_cycle_at_center_cut", "worst_case_block_teleports", "syndromes", "repeats"),
     (18, 12, 216, 144, 36, 36, 6, 2), {},
     "DqecBudget(per_syndrome_telegate=18, per_syndrome_teledata=12, per_cycle_telegate=216, "
     "per_cycle_teledata=144, static_cycle_at_center_cut=36, worst_case_block_teleports=36, syndromes=6, "
     "repeats=2)"),
    (CycleTimes, ("serial", "parallel", "slowdown", "start_delay_factor"), (107.0, 101.0, 1.0594059405940595, 7),
     {}, "CycleTimes(serial=107.0, parallel=101.0, slowdown=1.0594059405940595, start_delay_factor=7)"),
    (Recommendation, ("choice", "slowdown", "reliability_ratio", "slowdown_threshold", "reliability_threshold",
                      "reasons"), (Multiplexing.SERIAL, 1.06, 1.2, 1.5, 1.5, (WITHIN,)), {},
     "Recommendation(choice=<Multiplexing.SERIAL: 'serial'>, slowdown=1.06, reliability_ratio=1.2, "
     f"slowdown_threshold=1.5, reliability_threshold=1.5, reasons=('{WITHIN}',))"),
    (TeleportEstimate, ("t_low", "t_high", "extrapolated", "anchor_bits"), (14000.0, 125000.0, False, 16), {},
     "TeleportEstimate(t_low=14000.0, t_high=125000.0, extrapolated=False, anchor_bits=16)"),
    (McConfig, ("stack", "link", "trials", "seed", "workers"),
     (CodeStack((STEANE,)), LinkParams(0.01), 1000, 42, 2),
     {"seed": 0, "workers": 1},
     "McConfig(stack=CodeStack(levels=(QecCode(n=7, k=1, d=3),)), link=LinkParams(p_t=0.01, p_m=0.0, "
     "multiplexing=<Multiplexing.SERIAL: 'serial'>, lanes=1), trials=1000, seed=42, workers=2)"),
    (McEstimate, ("trials", "failures", "p_hat", "ci_low", "ci_high", "seed"),
     (1000, 10, 0.01, 0.005, 0.02, 42), {},
     "McEstimate(trials=1000, failures=10, p_hat=0.01, ci_low=0.005, ci_high=0.02, seed=42)"),
]
CASES = [pytest.param(*case, id=case[0].__name__) for case in RECORDS]


def values(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


def test_every_record_is_listed_once():
    assert len({case[0] for case in RECORDS}) == len(RECORDS) == 15


@pytest.mark.parametrize("record, fields, args, defaults, text", CASES)
def test_fields_in_declaration_order(record, fields, args, defaults, text):
    assert record._fields == fields
    assert values(record(*args)) == args


@pytest.mark.parametrize("record, fields, args, defaults, text", CASES)
def test_positional_and_keyword_construction_agree(record, fields, args, defaults, text):
    assert record(**dict(zip(fields, args))) == record(*args)
    required = len(fields) - len(defaults)
    assert list(defaults) == list(fields[required:])
    shortest = record(*args[:required])
    assert values(shortest) == args[:required] + tuple(defaults.values())
    assert shortest == record(**dict(zip(fields[:required], args)))


@pytest.mark.parametrize("record, fields, args, defaults, text", CASES)
def test_records_are_frozen(record, fields, args, defaults, text):
    instance = record(*args)
    for name in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(instance, name, None)
        with pytest.raises(AttributeError):
            delattr(instance, name)
    assert values(instance) == args


@pytest.mark.parametrize("record, fields, args, defaults, text", CASES)
def test_equality_hash_and_repr_go_by_value(record, fields, args, defaults, text):
    first, second = record(*args), record(*args)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second) == hash(args)
    assert first != args   # a record is not a tuple
    assert repr(first) == text


@pytest.mark.parametrize("record, fields, args, defaults, text", CASES)
def test_copies_and_pickles_are_equal_records(record, fields, args, defaults, text):
    instance = record(*args)
    for clone in (copy.copy(instance), copy.deepcopy(instance), pickle.loads(pickle.dumps(instance))):
        assert type(clone) is record and clone == instance


def test_records_differing_in_one_field_differ():
    assert QecCode(7, 1, 3) != QecCode(9, 1, 3)
    assert LinkParams(0.01) != LinkParams(0.01, 0.001)
    assert CutCost(1, 2, 1, Direction.B_TO_A) != CutCost(1, 2, 1, Direction.A_TO_B)
    assert len({QecCode(7, 1, 3), QecCode(7, 1, 3), QecCode(5, 1, 3)}) == 2


def test_constructors_still_check_and_coerce():
    with pytest.raises(ValueError, match="distance must be odd"):
        QecCode(7, 1, 2)
    with pytest.raises(ValueError, match="serial links have exactly one lane"):
        LinkParams(0.01, 0.0, Multiplexing.SERIAL, 2)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        McConfig(CodeStack((STEANE,)), LinkParams(0.01), 0)
    assert LinkParams(0.01, 0.0, "parallel", 7).multiplexing is Multiplexing.PARALLEL
    assert CodeStack([STEANE]).levels == (STEANE,)
    gate = Gate("CNOT", [0, 1])
    assert gate.kind is GateKind.CNOT and gate.qubits == (0, 1)
    circuit = EncoderCircuit(2, [1, 0], [gate])
    assert circuit.qubit_order == (1, 0) and circuit.gates == (gate,)
