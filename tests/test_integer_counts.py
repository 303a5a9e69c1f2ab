"""Counts given as numpy integers are stored as plain ints, so every record's report is valid JSON.

Each count a record or a model function takes (block sizes, lanes,
trials, seeds, workers, qubit indices, syndromes and repeats) goes
through codes._check_int, which refuses a float or a bool and returns
the value as an int. A record that kept an np.int64 made json.dumps raise.
"""
import json

import numpy as np
import pytest

from qlink.analytic import LinkParams, Multiplexing
from qlink.circuits import DqecBudget, EncoderCircuit, Gate, GateKind, default_steane_encoder, dqec_budget
from qlink.cli import _fields
from qlink.codes import CodeStack, QecCode
from qlink.montecarlo import McConfig
from qlink.timing import cycle_times


def _cnot(i):
    return Gate(GateKind.CNOT, (i(0), i(1)))


# Each record, built with counts of the numpy integer type i, and the names of its count fields.
BUILDS = {
    "QecCode": (lambda i: QecCode(i(7), i(1), i(3)), ("n", "k", "d")),
    "LinkParams": (lambda i: LinkParams(0.01, 0.001, Multiplexing.PARALLEL, i(7)), ("lanes",)),
    "McConfig": (lambda i: McConfig(CodeStack((QecCode(7, 1, 3),)), LinkParams(0.1), i(100), i(1), i(2)),
                 ("trials", "seed", "workers")),
    "Gate": (_cnot, ("qubits",)),
    "EncoderCircuit": (lambda i: EncoderCircuit(i(3), (i(2), i(0), i(1)), (_cnot(i), Gate(GateKind.H, (i(2),)))),
                       ("n_qubits", "qubit_order")),
    "cycle_times": (lambda i: cycle_times(1.0, 100.0, i(7), i(2)), ("start_delay_factor",)),
    "dqec_budget": (lambda i: dqec_budget(default_steane_encoder(), i(6), i(2)), DqecBudget._fields),
}


@pytest.mark.parametrize("integer", [np.int64, np.uint64, np.int32], ids=lambda integer: integer.__name__)
@pytest.mark.parametrize("name", BUILDS)
def test_numpy_integer_counts_are_stored_as_plain_ints(name, integer):
    build, counts = BUILDS[name]
    record = build(integer)
    for field in counts:
        value = getattr(record, field)
        for item in value if isinstance(value, tuple) else (value,):
            assert type(item) is int, f"{field} holds a {type(item).__name__}"
    json.dumps(_fields(record), default=_fields)   # nested records, such as McConfig's stack, as their fields
