"""Failure-probability and EPR-pair-cost models for teleported logical qubits.

Each public name is imported from its owning module on first use (PEP 562),
so `import qlink` loads no submodule: only names from the Monte Carlo engine
pay for its array-library import.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analytic": (
        "AlgorithmFailure",
        "LinkParams",
        "ModelMode",
        "Multiplexing",
        "Table3Row",
        "allowable_pt",
        "p_algorithm_failure",
        "p_stack_block_error",
        "serial_penalty_ratio",
        "table3",
    ),
    "circuits": (
        "CutCost",
        "Direction",
        "DqecBudget",
        "EncoderCircuit",
        "EncoderValidation",
        "Gate",
        "GateKind",
        "cut_table",
        "default_steane_encoder",
        "dqec_budget",
        "load_circuit",
        "steane_stabilizers",
        "validate_encoder",
    ),
    "codes": ("CodeStack", "QecCode", "builtin_codes", "parse_code", "parse_stack"),
    "montecarlo": (
        "McConfig",
        "McEstimate",
        "SerialPenaltyReport",
        "serial_penalty_report",
        "simulate_block_transfer",
        "simulate_block_transfers",
        "wilson_interval",
    ),
    "timing": ("CycleTimes", "Recommendation", "cycle_times", "recommend"),
    "workload": ("AdderKind", "TeleportEstimate", "teleport_count"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Import a submodule, or a public name's owning module, and cache the result."""
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
