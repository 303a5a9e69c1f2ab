"""Command-line front end: every model is reachable as a subcommand.

Machine-readable output is the point: CSV for tables and sweeps, JSON for
single reports (with the full input configuration echoed for provenance),
plain text where a human just wants to look. Identical flags and seed give
byte-identical output.

Each command has its own argparse parser, built on its first use in the
process, so a run builds only the parser of the command it runs.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import math
import os
import re
import sys
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple, NoReturn

from .codes import CodeStack, builtin_codes, parse_stack

if TYPE_CHECKING:  # every model layer is imported inside the commands that use it
    from . import analytic, circuits, montecarlo, timing, workload


class UsageError(Exception):
    """Bad command-line usage: main prints the command's usage line and this message."""


class _HelpShown(Exception):
    """--help has printed its page."""


def _fail(message: str) -> NoReturn:
    raise argparse.ArgumentTypeError(message)


def _finite(number: float, text: str) -> float:
    """The one rule for every real input: nan and infinities are rejected, -0 is 0."""
    if not math.isfinite(number):
        _fail(f"{text!r} is not a finite number")
    return 0.0 if number == 0.0 else number


def finite_float(text: str) -> float:
    """A finite real number."""
    try:
        number = float(text)
    except ValueError:
        _fail(f"{text!r} is not a valid float")
    return _finite(number, text)


_INT_LITERAL = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def scientific_int(text: str) -> int:
    """Integer that also accepts scientific notation, e.g. 1e7, parsed exactly.

    float's grammar decides what is a number, and Decimal gives its exact
    value, so 1e23 is 10**23. A value past the interpreter's integer digit
    limit is rejected as such, before any int is formed.
    """
    try:
        return int(text)
    except ValueError:
        if _INT_LITERAL.fullmatch(text):   # well formed, so int() refused its length
            _too_long(text)
    try:
        as_float = float(text)
    except ValueError:
        _fail(f"{text!r} is not an integer")
    from decimal import Decimal, InvalidOperation

    try:
        number = Decimal(text)
    except InvalidOperation:   # an exponent past 10**18 in size, which float reads as inf or 0
        if math.isinf(as_float):
            _too_long(text)
        if float(text.lower().partition("e")[0]) != 0:
            _fail(f"{text!r} is not a whole number")
        return 0
    if not number.is_finite():
        _fail(f"{text!r} is not a finite number")
    if number != number.to_integral_value():
        _fail(f"{text!r} is not a whole number")
    if number and 0 < sys.get_int_max_str_digits() <= number.adjusted():
        _too_long(text)
    return int(number)


def _too_long(text: str) -> NoReturn:
    _fail(f"integer literal {text[:20]!r}... has more than {sys.get_int_max_str_digits()} digits")


def float_list(text: str) -> tuple[float, ...]:
    """Comma-separated list of finite reals (scientific notation welcome)."""
    try:
        numbers = tuple(float(item) for item in text.split(","))
    except ValueError:
        _fail(f"{text!r} is not a comma-separated list of reals")
    return tuple(_finite(number, text) for number in numbers)


# argparse keywords for each kind of value an option takes.
FLOAT = {"type": finite_float, "metavar": "FLOAT"}
INTEGER = {"type": scientific_int, "metavar": "INTEGER"}
FLOAT_LIST = {"type": float_list, "metavar": "FLOAT-LIST"}


def _env_seed() -> int:
    """--seed when it is not given: QLINK_SEED if set and not empty, else 0."""
    text = os.environ.get("QLINK_SEED")
    try:
        return scientific_int(text) if text else 0
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"argument --seed (from QLINK_SEED): {exc}") from None


def _fmt_number(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _fields(record) -> dict:
    """A dataclass's fields in declaration order, with enums as values and tuples as lists."""
    payload = {}
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        if isinstance(value, Enum):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        payload[field.name] = value
    return payload


def _render_table(header: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "json":
        import json

        return json.dumps([dict(zip(header, row)) for row in rows], indent=2, allow_nan=False) + "\n"
    buffer = io.StringIO()
    if fmt == "csv":
        import csv

        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_number(v) for v in row])
    else:
        cells = [header] + [[_fmt_number(v) for v in row] for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
        for r in cells:
            buffer.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")
    return buffer.getvalue()


def _render_report(payload: dict, fmt: str) -> str:
    if fmt == "csv":
        return _render_table(list(payload), [list(payload.values())], "csv")
    if fmt == "text":
        width = max(len(k) for k in payload)
        return "".join(f"{k.ljust(width)}  {_fmt_number(v)}\n" for k, v in payload.items())
    import json

    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _load_stack(spec: str) -> CodeStack:
    stack = parse_stack(spec)
    if len(stack) > 2:
        print(f"warning: {len(stack)}-level stack; the models are exercised only up to two levels",
              file=sys.stderr)
    return stack


def _load_circuit(ref: str) -> circuits.EncoderCircuit:
    from . import circuits

    if ref == "default":
        return circuits.default_steane_encoder()
    return circuits.load_circuit(ref)


class Command(NamedTuple):
    """A subcommand: its body, its natural output format and its options.

    Each option is (flag, argparse.add_argument keywords). The body takes
    the parsed options as keywords and returns a report dict or a
    (header, rows) table.
    """

    body: Callable
    fmt: str
    options: tuple


COMMANDS: dict[str, Command] = {}
USAGE = "usage: qlink COMMAND [OPTIONS]\n"


def _command(name: str, fmt: str, *options):
    """Register a subcommand; it gains --format, --out and --help after its own options."""

    def register(body):
        COMMANDS[name] = Command(body, fmt, options)
        return body

    return register


class _Parser(argparse.ArgumentParser):
    """One command's parser: a usage error raises UsageError and --help returns.

    An option that takes a value takes the token after it, even one that
    looks like an option, such as -1e-5.
    """

    takes_value: dict[str, bool]   # each flag: whether it takes a value

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)

    def exit(self, status=0, message=None) -> NoReturn:   # only --help exits, once it has printed
        raise _HelpShown

    def parse(self, args: list[str]) -> dict:
        """The options in args; a default that is a function is called now."""
        tokens, joined, unknown = iter(args), [], []
        for token in tokens:
            if token.partition("=")[0] not in self.takes_value:
                unknown.append(token)
                continue
            value = next(tokens, None) if self.takes_value.get(token) else None
            joined.append(token if value is None else f"{token}={value}")
        if unknown:   # named before argparse would report a missing required option instead
            self.error(f"unrecognized arguments: {' '.join(unknown)}")
        return {key: value() if callable(value) else value
                for key, value in vars(self.parse_args(joined)).items()}


@functools.cache
def _parser(name: str) -> _Parser:
    """The parser of one command, built on its first use in the process."""
    command = COMMANDS[name]
    parser = _Parser(prog=f"qlink {name}", usage="%(prog)s [OPTIONS]", description=command.body.__doc__,
                     allow_abbrev=False, add_help=False)
    options = command.options + (
        ("--format", dict(choices=("csv", "json", "text"), default=command.fmt,
                          help="Output format [default: %(default)s].")),
        ("--out", dict(metavar="FILE", help="Write output to a file instead of stdout.")),
        ("--help", dict(action="help", help="Show this message and exit.")),
    )
    for flag, settings in options:
        parser.add_argument(flag, **settings)
    parser.takes_value = {flag: "action" not in settings for flag, settings in options}
    return parser


def _overview() -> str:
    """`qlink --help`: every command with the first line of its description."""
    width = max(map(len, COMMANDS))
    summaries = {name: (command.body.__doc__ or "").partition("\n")[0] for name, command in COMMANDS.items()}
    lines = "".join(f"  {name.ljust(width)}  {summary}\n" for name, summary in summaries.items())
    return (f"{USAGE}\nFailure probabilities and EPR-pair costs for teleported logical qubits.\n\n"
            f"commands:\n{lines}\nRun 'qlink COMMAND --help' for the options of a command.\n")


# analytic.ModelMode's values, written out so that loading the CLI loads no model;
# tests/test_cli.py pins these literals, and the two thresholds below, to their sources.
_MODE = ("--mode", dict(choices=("leading", "exact"), default="leading",
                        help="leading: lowest failure mode; exact: full binomial tail "
                             "[default: %(default)s]."))
_TARGET_PF = ("--target-pf", dict(FLOAT, default=0.1, help="Acceptable whole-computation failure "
                                                           "probability [default: %(default)s]."))
_CIRCUIT = ("--circuit", dict(default="default", help="Encoder circuit: 'default' or a JSON file path "
                                                      "[default: %(default)s]."))


def _simulation(*options) -> tuple:
    """Options of mc and sweep: --stack leads, --trials, --seed and --workers close."""
    return (
        ("--stack", dict(default="7-1-3", help="Code stack spec, inner first [default: %(default)s].")),
        *options,
        ("--trials", dict(INTEGER, default=100_000, help="Trials per configuration "
                                                         "[default: %(default)s].")),
        ("--seed", dict(INTEGER, default=_env_seed, help="Master RNG seed [default: env QLINK_SEED, "
                                                         "else 0].")),
        ("--workers", dict(INTEGER, default=lambda: os.cpu_count() or 1,
                           help="Worker threads for trial blocks [default: all cores].")),
    )


def _mc_config(stack: CodeStack, pt, pm, serial, lanes, trials, seed, workers) -> montecarlo.McConfig:
    """One simulated link configuration; lanes None means the link style's natural width."""
    from . import analytic, montecarlo

    mux = analytic.Multiplexing.SERIAL if serial else analytic.Multiplexing.PARALLEL
    if lanes is None:
        lanes = 1 if serial else stack.scale_up
    link = analytic.LinkParams(p_t=pt, p_m=pm, multiplexing=mux, lanes=lanes)
    return montecarlo.McConfig(stack=stack, link=link, trials=trials, seed=seed, workers=workers)


def _mc_row(config: montecarlo.McConfig, estimate: montecarlo.McEstimate) -> dict:
    """A simulated configuration's inputs, then its estimate."""
    link = config.link
    return {"stack": config.stack.spec(), "mode": link.multiplexing.value, "p_t": link.p_t,
            "p_m": link.p_m, "lanes": link.lanes, **_fields(estimate)}


@_command("codes", "text")
def codes_cmd():
    """List the built-in error-correcting codes."""
    header = ["name", "n", "k", "d", "correctable"]
    return header, [[c.spec(), c.n, c.k, c.d, c.correctable] for c in builtin_codes()]


@_command(
    "analyze", "json",
    ("--stack", dict(default="none", help="Code stack spec, inner first [default: %(default)s].")),
    ("--t", dict(FLOAT, required=True, help="Total logical teleportations [required].")),
    _TARGET_PF,
    ("--pt", dict(FLOAT, help="Also evaluate the failure at this error rate.")),
    _MODE,
)
def analyze_cmd(stack, t, target_pf, pt, mode):
    """Allowable teleportation error rate for a stack and workload."""
    from . import analytic

    stack_obj = _load_stack(stack)
    model = analytic.ModelMode(mode)
    payload = {
        "stack": stack_obj.spec(),
        "scale_up": stack_obj.scale_up,
        "t": t,
        "target_pf": target_pf,
        "mode": model.value,
        "allowable_pt": analytic.allowable_pt(stack_obj, t, target_pf, model),
    }
    if pt is not None:
        if not 0.0 <= pt < 0.5:
            raise ValueError(f"p_t must be in [0, 0.5) for inversion queries, got {pt}")
        payload["p_t"] = pt
        payload.update(_fields(analytic.p_algorithm_failure(stack_obj, t, pt, model)))
    return payload


@_command(
    "table3", "csv",
    ("--t", dict(FLOAT_LIST, help="Comma-separated workload sizes [default: 1e5,1e8,1e11].")),
    ("--stack", dict(help="Comma-separated stack specs [default: the seven reference stacks].")),
    _TARGET_PF,
    _MODE,
)
def table3_cmd(t, stack, target_pf, mode):
    """Allowable error rate per stack and workload size (reference table)."""
    from . import analytic

    stacks = None if stack is None else [_load_stack(spec) for spec in stack.split(",")]
    rows = analytic.table3(t, stacks, target_pf, analytic.ModelMode(mode))
    header = [field.name for field in dataclasses.fields(analytic.Table3Row)]
    return header, [list(_fields(row).values()) for row in rows]


@_command("mc", "json", *_simulation(
    ("--pt", dict(FLOAT, required=True, help="Per-qubit teleportation failure probability [required].")),
    ("--pm", dict(FLOAT, default=0.0, help="Per-qubit memory error probability per waiting slot "
                                           "[default: %(default)s].")),
    ("--serial", dict(action="store_true", default=False, help="Serial link.")),
    ("--parallel", dict(dest="serial", action="store_false", default=False,
                        help="Parallel link; the default, and of the two the last one given wins.")),
    ("--lanes", dict(INTEGER, help="Parallel lane count [default: full block width].")),
))
def mc_cmd(stack, pt, pm, serial, lanes, trials, seed, workers):
    """Simulate logical-block transfers and estimate the failure probability."""
    from . import montecarlo

    config = _mc_config(_load_stack(stack), pt, pm, serial, lanes, trials, seed, workers)
    return {**_mc_row(config, montecarlo.simulate_block_transfer(config)), "workers": workers}


SWEEP_HEADER = ["stack", "mode", "p_t", "p_m", "trials", "failures", "p_hat", "ci_low", "ci_high", "seed"]


@_command("sweep", "csv", *_simulation(
    ("--pt", dict(FLOAT_LIST, default=(0.003, 0.01, 0.03),
                  help="Comma-separated teleportation error rates [default: 0.003,0.01,0.03].")),
    ("--pm", dict(FLOAT_LIST, default=(0.0,), help="Comma-separated memory error rates [default: 0].")),
    ("--serial", dict(action="store_true", default=None, help="Serial links only.")),
    ("--parallel", dict(dest="serial", action="store_false", default=None,
                        help="Parallel links only [default: both]; of the two the last one given wins.")),
))
def sweep_cmd(stack, pt, pm, serial, trials, seed, workers):
    """Grid of simulations over error rates, as plot-ready rows."""
    from . import montecarlo

    stack_obj = _load_stack(stack)
    modes = [True, False] if serial is None else [serial]
    configs = [
        _mc_config(stack_obj, p_t, p_m, is_serial, None, trials, seed, workers)
        for p_t in pt for p_m in pm for is_serial in modes
    ]
    rows = map(_mc_row, configs, montecarlo.simulate_block_transfers(configs))
    return SWEEP_HEADER, [[row[key] for key in SWEEP_HEADER] for row in rows]


@_command("cut", "csv", _CIRCUIT)
def cut_cmd(circuit):
    """EPR cost of telegate vs teledata at every breakpoint of an encoder."""
    from . import circuits

    header = ["breakpoint", "telegate", "teledata", "direction"]
    return header, [
        [row.label, row.telegate_eprs, row.teledata_eprs, row.teledata_direction.value]
        for row in circuits.cut_table(_load_circuit(circuit))
    ]


@_command(
    "dqec-cost", "json",
    _CIRCUIT,
    ("--syndromes", dict(INTEGER, default=6, help="Syndromes measured per correction cycle "
                                                  "[default: %(default)s].")),
    ("--repeats", dict(INTEGER, default=2, help="Measurements of each syndrome [default: %(default)s].")),
)
def dqec_cost_cmd(circuit, syndromes, repeats):
    """EPR budgets for distributed error correction, static and in motion."""
    from . import circuits

    return _fields(circuits.dqec_budget(_load_circuit(circuit), syndromes, repeats))


@_command(
    "workload", "json",
    ("--bits", dict(INTEGER, required=True, help="Problem size in bits [required].")),
    ("--adder", dict(choices=("ripple", "lookahead"),   # workload.AdderKind
                     help="Adder choice [default: report the full range].")),
)
def workload_cmd(bits, adder):
    """Teleportation count for the modular-exponentiation workload."""
    from . import workload

    estimate = workload.teleport_count(bits, workload.AdderKind(adder) if adder else None)
    return {"bits": bits, "adder": adder or "range", **_fields(estimate)}


@_command(
    "link-timing", "json",
    ("--tt", dict(FLOAT, required=True, help="Single teleportation time [required].")),
    ("--tlqec", dict(FLOAT, required=True, help="Local correction cycle time [required].")),
    ("--n", dict(INTEGER, required=True, help="Physical qubits per transferred block [required].")),
    ("--lanes", dict(INTEGER, default=1, help="Parallel lane count [default: %(default)s].")),
)
def link_timing_cmd(tt, tlqec, n, lanes):
    """Cycle times of serial vs parallel links for one block transfer."""
    from . import timing

    times = timing.cycle_times(tt, tlqec, n, lanes)
    return {"t_t": tt, "t_lqec": tlqec, "n": n, "lanes": lanes, **_fields(times)}


@_command(
    "recommend", "json",
    ("--stack", dict(default="7-1-3", help="Single-level code spec [default: %(default)s].")),
    ("--tt", dict(FLOAT, required=True, help="Single teleportation time [required].")),
    ("--tlqec", dict(FLOAT, required=True, help="Local correction cycle time [required].")),
    ("--pt", dict(FLOAT, required=True, help="Per-qubit teleportation failure probability [required].")),
    ("--pm", dict(FLOAT, help="Memory error rate per slot [default: pt / (10 (n - 1)), or 0 for a "
                              "one-qubit code].")),
    # the values of timing.DEFAULT_SLOWDOWN_THRESHOLD and timing.DEFAULT_RELIABILITY_THRESHOLD
    ("--slowdown-threshold", dict(FLOAT, default=1.5, help="Largest serial cycle slowdown to accept "
                                                           "[default: %(default)s].")),
    ("--reliability-threshold", dict(FLOAT, default=1.5, help="Largest serial/parallel failure ratio to "
                                                              "accept [default: %(default)s].")),
)
def recommend_cmd(stack, tt, tlqec, pt, pm, slowdown_threshold, reliability_threshold):
    """Recommend serial or parallel links for one code's block transfers."""
    from . import timing

    stack_obj = _load_stack(stack)
    if len(stack_obj) != 1:
        raise UsageError("recommend needs a single-level stack, e.g. --stack 7-1-3")
    code = stack_obj.levels[0]
    if pm is None:   # a one-qubit block never waits, so its memory rate is moot
        pm = pt / (10 * (code.n - 1)) if code.n > 1 else 0.0
    rec = timing.recommend(code, tt, tlqec, pt, pm, slowdown_threshold, reliability_threshold)
    return {"code": code.spec(), "t_t": tt, "t_lqec": tlqec, "p_t": pt, "p_m": pm, **_fields(rec)}


def main(argv=None) -> int:
    """Entry point with the documented exit codes: 0 ok, 1 bad input, 2 internal."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--help"]:
        sys.stdout.write(_overview())
        return 0
    if not argv or argv[0] not in COMMANDS:
        problem = f"no such command {argv[0]!r}" if argv else "missing command"
        sys.stderr.write(f"{USAGE}qlink: error: {problem}; 'qlink --help' lists the commands\n")
        return 1
    parser = _parser(argv[0])
    try:
        options = parser.parse(argv[1:])
        fmt, out = options.pop("format"), options.pop("out")
        result = COMMANDS[argv[0]].body(**options)
        text = _render_report(result, fmt) if isinstance(result, dict) else _render_table(*result, fmt)
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {out}", file=sys.stderr)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except _HelpShown:
        return 0
    except UsageError as exc:
        sys.stderr.write(f"{parser.format_usage()}{parser.prog}: error: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - anything else is an internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
