"""The option reader against argparse: the same values, the same usage error, the same help page.

`qlink.cli` reads each command's options in one pass over its option
table and lays out its --help page from the same table. The oracle here
is argparse itself, given a parser built from that table, at the width
of qlink's pages whatever the terminal, and the front end's documented
pre-pass: every unknown token is named first, and an option that takes a
value takes the token after it, handed to argparse as `flag=value` so that
a value such as -1e-3 is not read as an option. Named cases pin each
documented rule without hypothesis, so the mutants in tests/mutants.py are
killed whatever hypothesis draws.
"""
import argparse
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


def _argparse_type(kind):
    """kind, its ValueError raised again as ArgumentTypeError, so that argparse prints its message."""
    def convert(text):
        try:
            return kind(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


@functools.cache
def oracle_parser(name):
    """argparse's parser for a command, built from its option table; its pages are 80 columns wide."""
    parser = argparse.ArgumentParser(prog=f"qlink {name}", usage="%(prog)s [OPTIONS]",
                                     description=COMMANDS[name].__doc__, allow_abbrev=False,
                                     add_help=False,
                                     formatter_class=functools.partial(argparse.HelpFormatter, width=78))
    for flag, (_, settings) in COMMANDS[name].flags.items():
        if "type" in settings:
            settings = {**settings, "type": _argparse_type(settings["type"])}
        parser.add_argument(flag, **settings)
    parser.error = _refuse
    return parser


def argparse_reading(name, args):
    """("values", sorted items) or ("error", message) or ("help", page), as argparse reads args."""
    takes_value = {flag: "action" not in settings for flag, (_, settings) in COMMANDS[name].flags.items()}
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
    table = [(flag, settings) for flag, (_, settings) in COMMANDS[name].flags.items() if flag != "--help"]
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
    args = [token for flag, (_, settings) in COMMANDS[name].flags.items() if settings.get("required")
            for token in (flag, required[flag])]
    assert agreed(name, *args)[0] == "values"
    assert agreed(name, *args, "--help")[0] == "help"


# ------------------------------------------------------------- named cases
def test_every_type_refuses_a_value_with_a_value_error():
    # The reader turns ValueError into a usage error and catches nothing else,
    # so no type in any table may raise a TypeError or any other exception.
    kinds = {settings["type"] for command in COMMANDS.values() for _, settings in command.flags.values()
             if "type" in settings}
    assert kinds == {cli.finite_float, cli.scientific_int, cli.float_list}
    texts = BAD + [text for values in GOOD.values() for text in values]
    for kind in kinds:
        for text in texts:
            try:
                kind(text)
            except ValueError:
                pass
    for kind in kinds:
        with pytest.raises(ValueError):
            kind("abc")


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


def test_of_two_flags_that_share_a_dest_the_first_declared_default_wins(monkeypatch):
    # As in argparse, which sets each dest's default from the first action that names it.
    monkeypatch.setattr(cli, "COMMANDS", {})

    @cli._command("pair", "json", ("--on", dict(dest="mode", action="store_true", default="first")),
                  ("--off", dict(dest="mode", action="store_false", default="second")))
    def pair_cmd(mode):
        """A command whose two flags share a dest."""

    assert cli._read_options("pair", []) == {"mode": "first", "format": "json", "out": None}
    assert cli._read_options("pair", ["--on", "--off"])["mode"] is False


def test_qlink_seed_is_read_only_when_seed_is_absent(monkeypatch):
    monkeypatch.setenv("QLINK_SEED", "x")
    assert "('seed', 5)" in agreed("mc", "--pt", "0.1", "--seed", "5")[1]
    assert agreed("mc", "--pt", "0.1") == (
        "error", "argument --seed (from QLINK_SEED): 'x' is not an integer")
    monkeypatch.setenv("QLINK_SEED", "12")
    assert "('seed', 12)" in agreed("mc", "--pt", "0.1")[1]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_each_commands_resolved_table_matches_its_flags(name):
    # The reader works from what _command resolved once; it must say what the option table says.
    body = COMMANDS[name]
    assert list(body.table) == list(body.flags)
    for flag, (dest, settings) in body.flags.items():
        assert body.table[flag] == (dest, settings.get("action"), settings.get("type"), settings.get("choices"))
    dests = {dest for dest, settings in body.flags.values() if settings.get("action") != "help"}
    assert set(body.plain) | {dest for dest, _ in body.deferred} == dests
    assert not set(body.plain) & {dest for dest, _ in body.deferred}
    assert not any(callable(default) for default in body.plain.values())


def test_a_command_read_twice_in_one_process_keeps_its_defaults(capsys):
    # main pops format and out from what the reader hands it; the next call must still see them.
    assert cli.main(["dqec-cost"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["dqec-cost"]) == 0
    assert capsys.readouterr().out == first and first.startswith("{\n")
    assert "('pt', 0.1)" in reading("analyze", ["--t", "1", "--pt", "0.1"])[1]
    assert "('pt', None)" in reading("analyze", ["--t", "1"])[1]
