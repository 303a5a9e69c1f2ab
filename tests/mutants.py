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
CODES = "src/qlink/codes.py"
CIRCUITS = "src/qlink/circuits.py"
CLI = "src/qlink/cli.py"
MC_TESTS = "tests/test_montecarlo.py::"
ANALYTIC_TESTS = "tests/test_analytic.py::"
TIMING_TESTS = "tests/test_timing.py::"
READER_TESTS = "tests/test_cli_reader.py::"
LOADS = "tests/test_cli.py::test_each_command_loads_only_its_layers"
WIDE_CLI = "tests/test_cli.py::test_blocks_too_wide_for_a_double_answer_or_name_their_width"

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
           (ANALYTIC_TESTS + "test_penalty_ratio_frozen_values",)),
    # A float ** raises OverflowError where the products overflow to inf and the term is redone in logs.
    Mutant(ANALYTIC, "term = share * power * factor * (1.0 - p_t) ** i",
           "term = share * rate**i * factor * (1.0 - p_t) ** i",
           (TIMING_TESTS + "test_unbounded_ratio_raises_in_both_callers",
            ANALYTIC_TESTS + "test_penalty_ratio_where_exactly_m_events_cannot_happen")),
    # The union-rate guards: log1p(-1) raises, and a qubit that never waits sees no memory error.
    Mutant(ANALYTIC, "if self.p_t == 1.0 or (slots and self.p_m == 1.0):", "if slots and self.p_m == 1.0:",
           (ANALYTIC_TESTS + "test_certain_events_make_certain_faults_only_where_they_strike",)),
    Mutant(ANALYTIC, "if self.p_t == 1.0 or (slots and self.p_m == 1.0):", "if self.p_t == 1.0:",
           (ANALYTIC_TESTS + "test_certain_events_make_certain_faults_only_where_they_strike",)),
    Mutant(ANALYTIC, "if self.p_t == 1.0 or (slots and self.p_m == 1.0):", "if self.p_t == 1.0 or self.p_m == 1.0:",
           (ANALYTIC_TESTS + "test_certain_events_make_certain_faults_only_where_they_strike",)),
    Mutant(ANALYTIC, "if not math.isfinite(linearized):", "if math.isnan(linearized):",
           (ANALYTIC_TESTS + "test_algorithm_failure_rejects_a_linearization_past_the_float_range",)),
    # The exact inversion's bracket: skipped midpoints go to the side the bracket proves, the
    # bracket's ends are evaluated, each must clear the budget by the margin, and the bracket is
    # wider than the bisection's 1e-9 stop.
    Mutant(ANALYTIC, "if mid <= a or mid < b and", "if mid >= b or mid > a and",
           (ANALYTIC_TESTS + "test_exact_inversion_is_the_plain_bisection_bit_for_bit",)),
    Mutant(ANALYTIC, "if (x and p_stack_block_error(stack, a, ModelMode.EXACT_TAIL) <= budget * (1.0 - _BRACKET_MARGIN)\n"
                     "            and p_stack_block_error(stack, b, ModelMode.EXACT_TAIL) > budget * (1.0 + _BRACKET_MARGIN)):",
           "if x:", (ANALYTIC_TESTS + "test_exact_inversion_refuses_a_bracket_that_misses_the_root",)),
    Mutant(ANALYTIC, "<= budget * (1.0 - _BRACKET_MARGIN)", "<= budget",
           (ANALYTIC_TESTS + "test_exact_inversion_refuses_a_bracket_end_within_the_margin",)),
    Mutant(ANALYTIC, "> budget * (1.0 + _BRACKET_MARGIN)", "> budget",
           (ANALYTIC_TESTS + "test_exact_inversion_refuses_a_bracket_end_within_the_margin",)),
    Mutant(ANALYTIC, "_BRACKET_WIDTH = 1e-8", "_BRACKET_WIDTH = 1e-9",
           (ANALYTIC_TESTS + "test_exact_inversion_takes_about_a_dozen_tail_evaluations",)),
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
    # Circuit records take integer qubits only, as the JSON loader does.
    Mutant(CIRCUITS, '        qubits = tuple(_check_int(q, "gate operand") for q in qubits)\n', "",
           ("tests/test_circuits.py::test_qubits_must_be_integers",)),
    # A code's n, k and d are integers, and the engine echoes plain ints that json can write.
    Mutant(CODES, 'n, k, d = _check_int(n, "n"), _check_int(k, "k"), _check_int(d, "d")', "pass",
           ("tests/test_codes.py::test_code_parameters_must_be_integers",)),
    Mutant(CODES, "if not (type(n) is type(k) is type(d) is int):", "if not (type(n) is int):",
           ("tests/test_codes.py::test_code_parameters_must_be_integers",)),
    Mutant(ENGINE, 'seed = _check_int(seed, "seed")', '_check_int(seed, "seed")',
           (MC_TESTS + "test_an_estimate_from_numpy_integers_holds_plain_numbers",)),
    # perfbench/pin.py imports Multiplexing from the engine module.
    Mutant(ENGINE, "from .analytic import LinkParams, Multiplexing\n", "from .analytic import LinkParams\n",
           ("tests/test_layering.py::test_benchmark_call_forms_resolve",)),
    Mutant(CLI, "import io\n", "import io\nimport json\n", (LOADS,)),
    # No command, --help included, loads argparse.
    Mutant(CLI, "import io\n", "import argparse\nimport io\n", (LOADS,)),
    # The records import nothing: no command loads dataclasses (and with it inspect), and no
    # closed-form command loads typing. One mutant per import the records and the CLI dropped.
    *(Mutant(path, "from __future__ import annotations\n",
             "from __future__ import annotations\nfrom dataclasses import dataclass\n", (LOADS,))
      for path in (CODES, ANALYTIC, CIRCUITS, ENGINE, "src/qlink/timing.py",
                   "src/qlink/workload.py")),
    Mutant(CLI, "import io\n", "import dataclasses\nimport io\n", (LOADS,)),
    *(Mutant(path, "TYPE_CHECKING = False   #", "from typing import TYPE_CHECKING  #", (LOADS,))
      for path in (CLI, CIRCUITS)),
    # pathlib only for a type hint: the circuit commands must not load it.
    Mutant(CIRCUITS, "if TYPE_CHECKING:   # only load_circuit's annotation names it", "if True:   #", (LOADS,)),
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
           "        elif callable(default):\n            default()",
           (READER_TESTS + "test_qlink_seed_is_read_only_when_seed_is_absent",)),
    # Of two flags that share a dest, the first declared sets its default.
    Mutant(CLI, 'defaults.setdefault(dest, settings.get("default"))', 'defaults[dest] = settings.get("default")',
           (READER_TESTS + "test_of_two_flags_that_share_a_dest_the_first_declared_default_wins",)),
    # The required flags are listed once, when the command registers.
    Mutant(CLI, 'required = [flag for flag, (_, settings) in flags.items() if settings.get("required")]',
           "required = []",
           (READER_TESTS + "test_unknown_tokens_are_named_before_a_missing_required_option",)),
    # Unknown tokens are named first, all of them: here only when no known flag came with them.
    Mutant(CLI, "    if unknown:\n", "    if unknown and not pairs:\n",
           (READER_TESTS + "test_unknown_tokens_are_named_before_a_missing_required_option",
            READER_TESTS + "test_help_needs_no_required_option")),
    Mutant(CLI, "        elif text is not None:\n", "        elif False:\n",
           (READER_TESTS + "test_a_flag_without_a_value_refuses_an_explicit_one",)),
    # A value token that looks like an option is taken, not skipped.
    Mutant(CLI, "else next(tokens, None)", 'else next((t for t in tokens if not t.startswith("-")), None)',
           (READER_TESTS + "test_a_value_that_looks_like_an_option_is_taken",)),
    # --help prints when the reader reaches it, not before the values ahead of it are read.
    Mutant(CLI, "    values = {}\n",
           '    if any(flag == "--help" for flag, _ in pairs):\n'
           "        sys.stdout.write(_help_page(name))\n        return None\n"
           "    values = {}\n",
           (READER_TESTS + "test_help_after_a_bad_value_reports_the_value",)),
    # The help page wraps at argparse's 54 columns from column 24.
    Mutant(CLI, '["help"] % settings, 54)', '["help"] % settings, 55)',
           (READER_TESTS + "test_each_command_reads_its_required_options_and_its_help",)),
    Mutant(CLI, "        elif equals:\n", "        elif text:\n",
           (READER_TESTS + "test_flag_equals_nothing_is_an_empty_value",)),
    # --parallel stores into serial's dest, which it names when it registers.
    Mutant(CLI, 'settings.get("dest", flag[2:].replace("-", "_"))', 'flag[2:].replace("-", "_")',
           ("tests/test_cli.py::test_of_serial_and_parallel_the_last_one_wins",)),
    Mutant(CLI, 'choices=("leading", "exact")', 'choices=("lead", "exact")',
           ("tests/test_cli.py::test_option_literals_match_their_model_sources",)),
    Mutant(CLI, "return 0.0 if number == 0.0 else number", "return number",
           ("tests/test_cli.py::test_negative_zero_is_read_as_zero",)),
    # A term whose q^j underflows is formed from q's mantissa, and the rest from q^j itself.
    Mutant(ANALYTIC, "while top > m and q ** (top - 1) < _NORMAL_MIN:", "while False:",
           (ANALYTIC_TESTS + "test_exact_tail_keeps_its_digits_where_the_powers_underflow",)),
    Mutant(ANALYTIC, "while top > m and q ** (top - 1) < _NORMAL_MIN:", "while top > m:",
           (ANALYTIC_TESTS + "test_exact_tail_is_the_term_by_term_sum_bit_for_bit",)),
    # The exact tail forms 1 - q once per call; one ulp off moves the sum.
    Mutant(ANALYTIC, "row, p = _binomial_row(n), 1.0 - q", "row, p = _binomial_row(n), math.nextafter(1.0 - q, 0.0)",
           (ANALYTIC_TESTS + "test_exact_tail_is_the_term_by_term_sum_bit_for_bit",)),
    # A CNOT over positions lo..hi stops crossing after cut hi, not before it.
    Mutant(CIRCUITS, "step[hi + 1] -= 1", "step[hi] -= 1",
           ("tests/test_circuits.py::test_breakpoint_c_and_d_gate_counts",)),
    # A CNOT's control may sit right of its target in the layout.
    Mutant(CIRCUITS, "            if lo > hi:\n                lo, hi = hi, lo\n", "",
           ("tests/test_circuits.py::test_breakpoint_c_and_d_gate_counts",)),
    # The JSON writer escapes to ASCII as json does, and indents a list one level past its key.
    Mutant(CLI, "from json.encoder import encode_basestring_ascii\n",
           "from json.encoder import encode_basestring as encode_basestring_ascii\n",
           ("tests/test_cli.py::test_writer_matches_json_dumps_on_chosen_values",)),
    # Flat reports go to json's C encoder only with str keys, which it would write 1 as "1" without,
    # and a non-finite float, which it refuses with a shorter message, falls back to the writer.
    Mutant(CLI, "        if type(key) is not str:\n            return None\n", "",
           ("tests/test_cli.py::test_writer_matches_json_dumps_on_chosen_values",)),
    # A list goes to the C encoder only when it is not empty, which it would write as "[\n    \n  ]",
    # and holds only exact scalars; its items sit one level deeper than the report's, and a run of
    # scalars after a list starts afresh.
    Mutant(CLI, "if type(item) is not list or not item:", "if type(item) is not list:",
           ("tests/test_cli.py::test_flat_reports_take_the_c_encoder",
            "tests/test_cli.py::test_writer_matches_json_dumps_on_chosen_values")),
    Mutant(CLI, "if type(entry) not in _FLAT_TYPES:", "if False:",
           ("tests/test_cli.py::test_flat_reports_take_the_c_encoder",
            "tests/test_cli.py::test_writer_matches_json_dumps_on_chosen_values")),
    Mutant(CLI, '",\\n    ", False, False, False)', '",\\n  ", False, False, False)',
           ("tests/test_cli.py::test_writer_matches_json_dumps_on_chosen_values",
            "tests/test_cli_golden.py::test_cli_transcript[recommend --stack 23-1-7 --tt 1 --tlqec 0 --pt 1e-3 "
            "--pm 1e-3 --format json]")),
    Mutant(CLI, "                    run = {}\n", "",
           ("tests/test_cli.py::test_writer_matches_json_dumps_on_chosen_values",)),
    Mutant(CLI, "    except ValueError:   # a non-finite float", "    except TypeError:   # a non-finite float",
           ("tests/test_cli.py::test_writer_matches_json_dumps_on_chosen_values",)),
    Mutant(CLI, "if text is not None:\n            return text", "if False:\n            return text",
           ("tests/test_cli.py::test_flat_reports_take_the_c_encoder",)),
    Mutant(CLI, 'inner, opener = newline + "  ", "["', 'inner, opener = newline, "["',
           ("tests/test_cli.py::test_writer_matches_json_dumps_on_chosen_values",
            "tests/test_cli_golden.py::test_cli_transcript[table3 --stack none,7-1-3+23-1-7 --t 1e5,1e8 --format json]")),
    Mutant("tests/helpers.py", "return 1.0 / high, 1.0 / low", "return 1.0 / low, 1.0 / high",
           (MC_TESTS + "test_serial_penalty_ci_inverts_the_paired_wilson_interval",)),
    # A C(n, m) with no double: the leading order multiplies it in logs, clamps to inf past the
    # float range and gives 0 at q = 0; the inversion peels it in logs; the exact tail names the
    # width; the penalty ratio forms the overflowing share in logs, and is 1 with no memory error.
    Mutant(ANALYTIC, "log_term = math.log(math.comb(n, m)) + m * math.log(q)",
           "log_term = math.log(math.comb(n, m)) + math.log(q)",
           (ANALYTIC_TESTS + "test_leading_order_past_the_float_range_matches_exact_fractions",)),
    Mutant(ANALYTIC, "return math.exp(log_term) if log_term <= _LOG_MAX else math.inf", "return math.exp(log_term)",
           (ANALYTIC_TESTS + "test_leading_order_past_the_float_range_matches_exact_fractions",)),
    Mutant(ANALYTIC, "            if not q:\n                return 0.0\n", "",
           (ANALYTIC_TESTS + "test_leading_order_past_the_float_range_matches_exact_fractions",)),
    Mutant(ANALYTIC, "except OverflowError:   # a coefficient past the float range",
           "except ZeroDivisionError:   # a coefficient past the float range",
           (ANALYTIC_TESTS + "test_leading_inversion_in_logs_matches_decimal", WIDE_CLI)),
    Mutant(ANALYTIC, 'raise ValueError(f"the exact tail of a {n}-qubit block',
           'raise OverflowError(f"the exact tail of a {n}-qubit block',
           (ANALYTIC_TESTS + "test_exact_tail_names_a_block_too_wide_for_doubles", WIDE_CLI)),
    Mutant(ANALYTIC, "            share = math.inf\n", "            share = 0.0\n",
           (ANALYTIC_TESTS + "test_penalty_ratio_of_a_block_too_wide_for_doubles_matches_decimal",)),
    Mutant(ANALYTIC, " - math.log(whole))", ")",
           (ANALYTIC_TESTS + "test_penalty_ratio_of_a_block_too_wide_for_doubles_matches_decimal",)),
    Mutant(ANALYTIC, "if p_t == 1.0 or w == 0.0 or p_t == 0.0 and p_m == 1.0:",
           "if p_t == 1.0 or p_t == 0.0 and (w == 0.0 or p_m == 1.0):",
           (ANALYTIC_TESTS + "test_penalty_ratio_of_a_block_too_wide_for_doubles_matches_decimal",)),
    # A layout's length is checked before range(n_qubits) is built, which no machine holds at n = 2**62.
    Mutant(CIRCUITS, "if len(qubit_order) != n_qubits or sorted(qubit_order)", "if sorted(qubit_order)",
           ("tests/test_circuits.py::test_a_layout_shorter_than_the_width_is_rejected_before_the_width_is_enumerated",
            "tests/test_cli.py::test_cut_rejects_a_circuit_wider_than_its_layout")),
    # dqec_budget's counts are integers, as cycle_times' are.
    Mutant(CIRCUITS, '    syndromes = _check_int(syndromes, "syndromes", 1)\n', "",
           ("tests/test_circuits.py::test_cycle_counts_must_be_integers",)),
    Mutant(CIRCUITS, '    repeats = _check_int(repeats, "repeats", 1)\n', "",
           ("tests/test_circuits.py::test_cycle_counts_must_be_integers",)),
    # _check_int is the one integer rule: it enforces a floor when given one, and returns a plain int.
    Mutant(CODES, "if least is not None and value < least:", "if False:",
           ("tests/test_circuits.py::test_cycle_costs_reject_zero_counts",
            "tests/test_cli.py::test_cut_rejects_a_circuit_without_qubits")),
    Mutant(CODES, "        value = type(value).__index__(value)\n", "",
           ("tests/test_integer_counts.py::test_numpy_integer_counts_are_stored_as_plain_ints",)),
    # Only an exact int skips the type checks: a bool is an int too, and is refused.
    Mutant(CODES, "if type(value) is not int:", "if not isinstance(value, int):",
           ("tests/test_codes.py::test_code_parameters_must_be_integers",)),
    # The ratio's i-th share pairs C(n, i) with C(n, m - i), and it checks p_m itself, as the link it
    # no longer builds did.
    Mutant(ANALYTIC, "share = ways[i] * ways[m - i] / whole", "share = ways[i] * ways[i] / whole",
           (ANALYTIC_TESTS + "test_penalty_ratio_frozen_values",)),
    Mutant(ANALYTIC, '    _check_prob(p_m, "p_m")\n    n, m = code.n, code.min_fail\n',
           "    n, m = code.n, code.min_fail\n",
           (ANALYTIC_TESTS + "test_serial_penalty_ratio_rejects_a_negative_memory_rate",)),
    # The penalty ratio's wait rate is the serial link's union rate: 0 for a qubit that never waits.
    Mutant(ANALYTIC, "    if n == 1:\n        return 0.0, 0.0\n", "",
           (ANALYTIC_TESTS + "test_wait_rate_is_the_serial_links_fault_probability_bit_for_bit",)),
    # Five secant steps leave a wide block's rate outside the bracket it needs.
    Mutant(ANALYTIC, "for _ in range(8):", "for _ in range(5):",
           (ANALYTIC_TESTS + "test_exact_inversion_of_a_wide_block_takes_a_dozen_or_so_tail_evaluations",)),
]
