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
CLI = "src/qlink/cli.py"
MC_TESTS = "tests/test_montecarlo.py::"

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
    Mutant("src/qlink/analytic.py", "term = share * power * factor * (1.0 - p_t) ** i",
           "term = share * power * factor",
           (MC_TESTS + "test_combined_ratio_frozen_values",)),
    # perfbench/pin.py imports Multiplexing from the engine module.
    Mutant(ENGINE, "from .analytic import LinkParams, Multiplexing\n", "from .analytic import LinkParams\n",
           ("tests/test_layering.py::test_benchmark_call_forms_resolve",)),
    Mutant(CLI, "import argparse\n", "import argparse\nimport json\n",
           ("tests/test_cli.py::test_each_command_loads_only_its_layers",)),
    Mutant(CLI, 'choices=("leading", "exact")', 'choices=("lead", "exact")',
           ("tests/test_cli.py::test_option_literals_match_their_model_sources",)),
    Mutant(CLI, "return 0.0 if number == 0.0 else number", "return number",
           ("tests/test_cli.py::test_negative_zero_is_read_as_zero",)),
    Mutant("tests/helpers.py", "return 1.0 / high, 1.0 / low", "return 1.0 / low, 1.0 / high",
           (MC_TESTS + "test_serial_penalty_ci_inverts_the_paired_wilson_interval",)),
]
