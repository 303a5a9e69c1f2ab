"""The option reader against argparse: the same values, the same usage error, the same help page.

`qlink.cli` reads each command's options in one pass over its option
table. The oracle here is argparse itself, given a parser built from the
same table (as the --help path builds it) and the front end's documented
pre-pass: every unknown token is named first, and an option that takes a
value takes the token after it, handed to argparse as `flag=value` so that
a value such as -1e-3 is not read as an option. Named cases pin each
documented rule without hypothesis, so the mutants in tests/mutants.py are
killed whatever hypothesis draws.
"""
import contextlib
import functools
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlink import cli
from qlink.cli import COMMANDS, UsageError


def _refuse(message):
    """argparse's usage error, raised instead of printed."""
    raise UsageError(message)


@functools.cache
def oracle_parser(name):
    parser = cli._help_parser(name)
    parser.error = _refuse
    return parser


def argparse_reading(name, args):
    """("values", sorted items) or ("error", message) or ("help", page), as argparse reads args."""
    takes_value = {flag: "action" not in settings for flag, settings in cli._options(name)}
    tokens, joined, unknown = iter(args), [], []
    for token in tokens:
        if token.partition("=")[0] not in takes_value:
            unknown.append(token)
            continue
        value = next(tokens, None) if takes_value.get(token) else None
        joined.append(token if value is None else f"{token}={value}")
    if unknown:
        return "error", f"unrecognized arguments: {' '.join(unknown)}"
    page = io.StringIO()
    try:
        with contextlib.redirect_stdout(page):
            namespace = oracle_parser(name).parse_args(joined)
        values = {key: value() if callable(value) else value for key, value in vars(namespace).items()}
    except SystemExit:
        return "help", page.getvalue()
    except UsageError as exc:
        return "error", str(exc)
    return "values", repr(sorted(values.items()))


def reading(name, args):
    """The same triple from qlink.cli's reader."""
    page = io.StringIO()
    try:
        with contextlib.redirect_stdout(page):
            values = cli._read_options(name, list(args))
    except UsageError as exc:
        return "error", str(exc)
    if values is None:
        return "help", page.getvalue()
    return "values", repr(sorted(values.items()))


def agreed(name, *args):
    """The reader's reading of args, once it is seen to be argparse's."""
    result = reading(name, args)
    assert result == argparse_reading(name, args)
    return result


# ------------------------------------------------------------ differential
# Values each kind of option reads, and values none of them reads. "--" is never drawn:
# argparse drops a "--" from an option's values (so `--t --` gave t = []), where the
# reader takes it as the value.
GOOD = {cli.finite_float: ["0.01", "1e5", "-1e-3", "-0e0", "0"], cli.scientific_int: ["7", "1e3", "64"],
        cli.float_list: ["0.1,0.2", "1e5", "-0e0"], None: ["7-1-3", "none", "default", "x", "--t"]}
BAD = ["abc", "nan", "", "1e400", "2.5", "0,nan", "approx", "=", "a=b", "-x"]
UNKNOWN = ["--bogus", "stray", "-t", "--targ", "--format2", "--tt2"]


def good(settings):
    return settings.get("choices") or GOOD[settings.get("type")]


@st.composite
def argvs(draw):
    """A command and argv drawn from its flags with real and bad values, and unknown tokens.

    Half the time it starts with every required option, so that whole
    readings are drawn too, not only usage errors.
    """
    name = draw(st.sampled_from(sorted(COMMANDS)))
    table = [(flag, settings) for flag, settings in cli._options(name) if flag != "--help"]
    args = []
    if draw(st.booleans()):
        for flag, settings in draw(st.permutations([o for o in table if o[1].get("required")])):
            args += [flag, draw(st.sampled_from(good(settings)))]
    for _ in range(draw(st.integers(0, 4))):
        flag, settings = draw(st.sampled_from(table))
        value = draw(st.sampled_from(good(settings)) | st.sampled_from(BAD))
        form = draw(st.integers(0, 9))
        if form < 5:
            args += [flag] if "action" in settings else [flag, value]
        elif form < 8:
            args.append(f"{flag}={value}")
        elif form < 9:   # an unknown token or a stray value
            args.append(draw(st.sampled_from(UNKNOWN + [value])))
        else:   # a value flag takes the next token, or has none left
            args.append(flag)
    if draw(st.integers(0, 3)) == 0:   # --help now and then, anywhere, sometimes with a value
        args.insert(draw(st.integers(0, len(args))), draw(st.sampled_from(["--help", "--help=x"])))
    return name, args


@settings(max_examples=400, deadline=None)
@given(case=argvs())
def test_reader_agrees_with_argparse(case):
    name, args = case
    agreed(name, *args)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_each_command_reads_its_required_options_and_its_help(name):
    required = {"--t": "1e5", "--pt": "0.01", "--bits": "64", "--tt": "1", "--tlqec": "100", "--n": "7"}
    args = [token for flag, settings in cli._options(name) if settings.get("required")
            for token in (flag, required[flag])]
    assert agreed(name, *args)[0] == "values"
    assert agreed(name, *args, "--help")[0] == "help"


# ------------------------------------------------------------- named cases
def test_each_occurrence_of_a_flag_is_checked_and_the_last_wins():
    assert agreed("analyze", "--t", "1", "--t", "2") == agreed("analyze", "--t", "2")
    assert "('t', 2.0)" in agreed("analyze", "--t", "1", "--t", "2")[1]
    assert agreed("analyze", "--t", "1e5", "--mode", "approx", "--mode", "exact") == (
        "error", "argument --mode: invalid choice: 'approx' (choose from 'leading', 'exact')")
    assert agreed("analyze", "--t", "abc", "--t", "1") == ("error", "argument --t: 'abc' is not a valid float")


def test_flag_equals_nothing_is_an_empty_value():
    assert agreed("analyze", "--t=") == ("error", "argument --t: '' is not a valid float")
    assert "('stack', '')" in agreed("analyze", "--t=1e5", "--stack=")[1]
    assert agreed("analyze", "--t") == ("error", "argument --t: expected one argument")


def test_a_flag_without_a_value_refuses_an_explicit_one():
    assert agreed("mc", "--pt", "0.1", "--serial=x") == (
        "error", "argument --serial: ignored explicit argument 'x'")
    assert agreed("mc", "--pt", "0.1", "--parallel=") == (
        "error", "argument --parallel: ignored explicit argument ''")
    assert agreed("analyze", "--help=x") == ("error", "argument --help: ignored explicit argument 'x'")


def test_a_value_that_looks_like_an_option_is_taken():
    assert "('pm', -0.001)" in agreed("mc", "--pt", "0.1", "--pm", "-1e-3")[1]
    assert "('stack', '--t')" in agreed("analyze", "--stack", "--t", "--t", "1e5")[1]
    # argparse would drop a "--" value and hand the model an empty list.
    assert reading("analyze", ["--t", "--"]) == ("error", "argument --t: '--' is not a valid float")
    assert reading("workload", ["--bits", "8", "--adder", "--"]) == (
        "error", "argument --adder: invalid choice: '--' (choose from 'ripple', 'lookahead')")


def test_unknown_tokens_are_named_before_a_missing_required_option():
    assert agreed("link-timing", "--bogus", "--tt", "1", "stray", "--n=7") == (
        "error", "unrecognized arguments: --bogus stray")
    assert agreed("link-timing", "--n", "7", "--tt", "1") == (
        "error", "the following arguments are required: --tlqec")
    assert agreed("link-timing", "--lanes", "2") == (
        "error", "the following arguments are required: --tt, --tlqec, --n")


def test_help_after_a_bad_value_reports_the_value():
    assert agreed("analyze", "--t", "abc", "--help") == ("error", "argument --t: 'abc' is not a valid float")
    kind, page = agreed("analyze", "--help", "--t", "abc")
    assert kind == "help" and page.startswith("usage: qlink analyze [OPTIONS]\n")


def test_help_needs_no_required_option():
    kind, page = agreed("link-timing", "--help")
    assert kind == "help" and "--tlqec FLOAT" in page
    assert agreed("link-timing", "--help", "--bogus") == ("error", "unrecognized arguments: --bogus")


def test_qlink_seed_is_read_only_when_seed_is_absent(monkeypatch):
    monkeypatch.setenv("QLINK_SEED", "x")
    assert "('seed', 5)" in agreed("mc", "--pt", "0.1", "--seed", "5")[1]
    assert agreed("mc", "--pt", "0.1") == (
        "error", "argument --seed (from QLINK_SEED): 'x' is not an integer")
    monkeypatch.setenv("QLINK_SEED", "12")
    assert "('seed', 12)" in agreed("mc", "--pt", "0.1")[1]
