"""Mutants the suite must kill: one exact text edit each, and the tests that catch it.

`python tests/mutate.py` applies each edit to a copy of src/ and tests/ and
runs only the named tests there; every one of them must fail. A mutant's
old text must occur exactly once in its file, so an edit that no longer
applies is reported rather than skipped. The named tests draw no
hypothesis examples, so whether a mutant is killed never depends on luck.
"""
from typing import NamedTuple


class Mutant(NamedTuple):
    path: str              # relative to the repository root
    old: str               # exact text, found exactly once
    new: str
    kills: tuple[str, ...]  # pytest node ids, each of which must fail


ENGINE = "src/qlink/montecarlo.py"
ANALYTIC = "src/qlink/analytic.py"
CIRCUITS = "src/qlink/circuits.py"
CLI = "src/qlink/cli.py"
MC_TESTS = "tests/test_montecarlo.py::"
ANALYTIC_TESTS = "tests/test_analytic.py::"
READER_TESTS = "tests/test_cli_reader.py::"

MUTANTS = [
    # uint8 member counts wrap at 256 without the widened einsum dtype.
    Mutant(ENGINE, "members, dtype=np.min_scalar_type(code.n)) >= code.min_fail", "members) >= code.min_fail",
           (MC_TESTS + "test_decode_counts_past_255_members",)),
    Mutant(ENGINE, "ranked = bool(((bounds > 0) & (bounds < top)).any())", "ranked = True",
           (MC_TESTS + "test_one_live_cut_is_counted_without_a_rank",)),
    Mutant(ENGINE, "ranked = bool(((bounds > 0) & (bounds < top)).any())", "ranked = False",
           (MC_TESTS + "test_a_cut_below_top_is_ranked",)),
    Mutant(ENGINE, "math.ceil(q * 2**53) << 11", "math.floor(q * 2**53) << 11",
           (MC_TESTS + "test_word_cut_extremes",)),
    # The rank's stand-in must sit at or above every cut, and only failing trials are ranked.
    Mutant(ENGINE, "_STAND_IN = np.uint64((1 << 64) - 1)", "_STAND_IN = np.uint64(0)",
           (MC_TESTS + "test_critical_words_at_the_edge_cuts_and_words",
            MC_TESTS + "test_batch_matches_one_run_per_config")),
    Mutant(ENGINE, "fails = np.flatnonzero(mask[failing])", "fails = np.flatnonzero(mask)",
           (MC_TESTS + "test_critical_words_at_the_edge_cuts_and_words",)),
    Mutant(ENGINE, "np.take(critical.reshape(len(critical) * blocks, code.n), index, axis=0)",
           "np.take(critical.reshape(len(critical) * blocks, code.n), index, axis=1)",
           (MC_TESTS + "test_critical_words_at_the_edge_cuts_and_words",)),
    Mutant(ENGINE, "    bits.random_raw(word % 4)\n", "",
           (MC_TESTS + "test_seat_gives_the_jumped_substream_from_any_word",)),
    Mutant(ENGINE, '"counter": [word // 4, 0, block, 0]', '"counter": [word // 4 + 1, 0, block, 0]',
           (MC_TESTS + "test_stream_layout_frozen",)),
    # A private tile queue per thread: every thread draws every tile.
    Mutant(ENGINE, "    def work() -> np.ndarray:\n",
           "    def work() -> np.ndarray:\n        queue = itertools.count()\n",
           (MC_TESTS + "test_engine_runs_at_most_one_thread_per_core",)),
    Mutant(ENGINE, "failures = config.trials if sure else counted", "failures = counted",
           (MC_TESTS + "test_batch_matches_one_run_per_config",)),
    Mutant(ANALYTIC, "term = share * power * factor * (1.0 - p_t) ** i",
           "term = share * power * factor",
           (MC_TESTS + "test_combined_ratio_frozen_values",)),
    # A float ** raises OverflowError where the products overflow to inf and the term is redone in logs.
    Mutant(ANALYTIC, "term = share * power * factor * (1.0 - p_t) ** i",
           "term = share * rate**i * factor * (1.0 - p_t) ** i",
           (MC_TESTS + "test_unbounded_ratio_raises_in_both_callers",
            MC_TESTS + "test_penalty_ratio_where_exactly_m_events_cannot_happen")),
    # The union-rate guards: log1p(-1) raises, and a qubit that never waits sees no memory error.
    Mutant(ANALYTIC, "if self.p_t == 1.0 or (slots and self.p_m == 1.0):", "if slots and self.p_m == 1.0:",
           (MC_TESTS + "test_certain_events_make_certain_faults_only_where_they_strike",)),
    Mutant(ANALYTIC, "if self.p_t == 1.0 or (slots and self.p_m == 1.0):", "if self.p_t == 1.0:",
           (MC_TESTS + "test_certain_events_make_certain_faults_only_where_they_strike",)),
    Mutant(ANALYTIC, "if self.p_t == 1.0 or (slots and self.p_m == 1.0):", "if self.p_t == 1.0 or self.p_m == 1.0:",
           (MC_TESTS + "test_certain_events_make_certain_faults_only_where_they_strike",)),
    Mutant(ANALYTIC, "if not math.isfinite(linearized):", "if math.isnan(linearized):",
           (ANALYTIC_TESTS + "test_algorithm_failure_rejects_a_linearization_past_the_float_range",)),
    Mutant(ANALYTIC, "budget = -math.expm1(math.log1p(-target_pf) / t)",
           "budget = -math.expm1(math.log1p(-target_pf) * t)",
           (ANALYTIC_TESTS + "test_exact_inversion_finds_the_root_below_float_resolution",
            ANALYTIC_TESTS + "test_exact_inversion_terminates_among_subnormal_rates")),
    # Pivoting on each reduced row's highest set bit builds another encoder than the shipped one.
    Mutant(CIRCUITS, "pivots = [(row & -row).bit_length() - 1 for row in rows]",
           "pivots = [row.bit_length() - 1 for row in rows]",
           ("tests/test_circuits.py::test_default_encoder_is_the_frozen_gate_table",)),
    # Without clearing each new pivot from the other rows, the basis (and so the encoder) depends
    # on how the checks are written down.
    Mutant(CIRCUITS, "basis = [vector ^ row if vector & row & -row else vector for vector in basis] + [row]",
           "basis = basis + [row]",
           ("tests/test_circuits.py::test_encoder_depends_only_on_the_span_of_the_checks",)),
    # perfbench/pin.py imports Multiplexing from the engine module.
    Mutant(ENGINE, "from .analytic import LinkParams, Multiplexing\n", "from .analytic import LinkParams\n",
           ("tests/test_layering.py::test_benchmark_call_forms_resolve",)),
    Mutant(CLI, "import argparse\n", "import argparse\nimport json\n",
           ("tests/test_cli.py::test_each_command_loads_only_its_layers",)),
    # pathlib only for a type hint: the circuit commands must not load it.
    Mutant(CIRCUITS, "if TYPE_CHECKING:   # only load_circuit's annotation names it", "if True:   #",
           ("tests/test_cli.py::test_each_command_loads_only_its_layers",)),
    # The option reader: each occurrence in turn, the last one wins; required options, choices,
    # and a default that is a function called only when its option is absent.
    Mutant(CLI, "            values[dest] = _value(flag, settings, text)",
           "            values.setdefault(dest, _value(flag, settings, text))",
           (READER_TESTS + "test_each_occurrence_of_a_flag_is_checked_and_the_last_wins",)),
    Mutant(CLI, "    if missing:\n", "    if False:\n",
           (READER_TESTS + "test_unknown_tokens_are_named_before_a_missing_required_option",)),
    Mutant(CLI, "if choices is not None and value not in choices:", "if False:",
           (READER_TESTS + "test_each_occurrence_of_a_flag_is_checked_and_the_last_wins",)),
    Mutant(CLI, "values[dest] = default() if callable(default) else default",
           "values[dest] = default() if callable(default) else default\n"
           "        elif callable(default := settings.get('default')):\n            default()",
           (READER_TESTS + "test_qlink_seed_is_read_only_when_seed_is_absent",)),
    Mutant(CLI, 'choices=("leading", "exact")', 'choices=("lead", "exact")',
           ("tests/test_cli.py::test_option_literals_match_their_model_sources",)),
    Mutant(CLI, "return 0.0 if number == 0.0 else number", "return number",
           ("tests/test_cli.py::test_negative_zero_is_read_as_zero",)),
    Mutant("tests/helpers.py", "return 1.0 / high, 1.0 / low", "return 1.0 / low, 1.0 / high",
           (MC_TESTS + "test_serial_penalty_ci_inverts_the_paired_wilson_interval",)),
]
