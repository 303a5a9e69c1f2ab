"""Command-line front end: every model is reachable as a subcommand.

Machine-readable output is the point: CSV for tables and sweeps, JSON for
single reports (with the full input configuration echoed for provenance),
plain text where a human just wants to look. Identical flags and seed give
byte-identical output.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import re
import sys
from enum import Enum
from typing import TYPE_CHECKING

import click

from . import analytic, timing, workload
from .codes import CodeStack, builtin_codes, parse_stack

if TYPE_CHECKING:  # the simulation and circuit layers, imported by the commands that use them
    from . import circuits, montecarlo


def _finite(number: float, kind: click.ParamType, value, param, ctx) -> float:
    """The one rule for every numeric input: nan and infinities are rejected."""
    if not math.isfinite(number):
        kind.fail(f"{value!r} is not a finite number", param, ctx)
    return number


class FiniteFloat(click.types.FloatParamType):
    """A finite real number."""

    def convert(self, value, param, ctx):
        return _finite(super().convert(value, param, ctx), self, value, param, ctx)


class ScientificInt(click.ParamType):
    """Integer that also accepts scientific notation, e.g. 1e7.

    Integer literals are parsed exactly; only other forms go through float.
    A literal past the interpreter's integer digit limit is rejected as such.
    """

    name = "integer"
    literal = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")

    def convert(self, value, param, ctx):
        if isinstance(value, int):
            return value
        try:
            return int(value)
        except ValueError:
            if self.literal.fullmatch(value):   # well formed, so int() refused its length
                self.fail(f"integer literal {value[:20]!r}... has more than "
                          f"{sys.get_int_max_str_digits()} digits", param, ctx)
        try:
            as_float = float(value)
        except ValueError:
            self.fail(f"{value!r} is not an integer", param, ctx)
        _finite(as_float, self, value, param, ctx)
        if as_float != int(as_float):
            self.fail(f"{value!r} is not a whole number", param, ctx)
        return int(as_float)


class FloatList(click.ParamType):
    """Comma-separated list of finite reals (scientific notation welcome)."""

    name = "float-list"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        try:
            numbers = tuple(float(item) for item in str(value).split(","))
        except ValueError:
            self.fail(f"{value!r} is not a comma-separated list of reals", param, ctx)
        return tuple(_finite(number, self, value, param, ctx) for number in numbers)


FLOAT = FiniteFloat()
SCI_INT = ScientificInt()
FLOAT_LIST = FloatList()

_mode_option = click.option("--mode", type=click.Choice(["leading", "exact"]), default="leading",
                            show_default=True, help="leading: lowest failure mode; exact: full binomial tail.")


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
        return json.dumps([dict(zip(header, row)) for row in rows], indent=2, allow_nan=False) + "\n"
    buffer = io.StringIO()
    if fmt == "csv":
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
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _load_stack(spec: str) -> CodeStack:
    stack = parse_stack(spec)
    if len(stack) > 2:
        click.echo(
            f"warning: {len(stack)}-level stack; the models are exercised only up to two levels",
            err=True,
        )
    return stack


def _load_circuit(ref: str) -> circuits.EncoderCircuit:
    from . import circuits

    if ref == "default":
        return circuits.default_steane_encoder()
    return circuits.load_circuit(ref)


@click.group()
def cli():
    """Failure probabilities and EPR-pair costs for teleported logical qubits."""


def _command(name: str, default_fmt: str):
    """Register a subcommand whose body returns a report dict or a (header, rows) table.

    The command gains --format and --out after its own options and writes
    what the body returns in the chosen format.
    """

    def register(body):
        @click.option("--format", "fmt", type=click.Choice(["csv", "json", "text"]), default=default_fmt,
                      help="Output format (each command has a natural default).")
        @click.option("--out", type=click.Path(dir_okay=False), default=None,
                      help="Write output to a file instead of stdout.")
        def run(fmt, out, **options):
            result = body(**options)
            text = _render_report(result, fmt) if isinstance(result, dict) else _render_table(*result, fmt)
            if out:
                with open(out, "w", encoding="utf-8") as handle:
                    handle.write(text)
                click.echo(f"wrote {out}", err=True)
            else:
                click.echo(text, nl=False)

        # click keeps a function's options last-declared first.
        run.__click_params__ += getattr(body, "__click_params__", [])
        run.__doc__ = body.__doc__
        return cli.command(name)(run)

    return register


def _simulation_options(body):
    """Options shared by mc and sweep: --stack leads, --trials, --seed and --workers close."""
    body.__click_params__[:0] = [
        click.Option(["--workers"], type=SCI_INT, default=lambda: os.cpu_count() or 1,
                     help="Worker threads for trial blocks [default: all cores]."),
        click.Option(["--seed"], type=SCI_INT, default=0, envvar="QLINK_SEED", show_default=True,
                     help="Master RNG seed (or env QLINK_SEED)."),
        click.Option(["--trials"], type=SCI_INT, default=100_000, show_default=True),
    ]
    return click.option("--stack", default="7-1-3", show_default=True)(body)


def _mc_config(stack: CodeStack, pt, pm, serial, lanes, trials, seed, workers) -> montecarlo.McConfig:
    """One simulated link configuration; lanes None means the link style's natural width."""
    from . import montecarlo

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
    return header, [[c.name, c.n, c.k, c.d, c.correctable] for c in builtin_codes()]


@_command("analyze", "json")
@click.option("--stack", default="none", show_default=True, help="Code stack spec, inner first.")
@click.option("--t", type=FLOAT, required=True, help="Total logical teleportations.")
@click.option("--target-pf", type=FLOAT, default=0.1, show_default=True,
              help="Acceptable whole-computation failure probability.")
@click.option("--pt", type=FLOAT, default=None, help="Also evaluate the failure at this error rate.")
@_mode_option
def analyze_cmd(stack, t, target_pf, pt, mode):
    """Allowable teleportation error rate for a stack and workload."""
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


@_command("table3", "csv")
@click.option("--t", "t_values", type=FLOAT_LIST, default=None,
              help="Comma-separated workload sizes [default: 1e5,1e8,1e11].")
@click.option("--stack", "stack_specs", default=None,
              help="Comma-separated stack specs [default: the seven reference stacks].")
@click.option("--target-pf", type=FLOAT, default=0.1, show_default=True)
@_mode_option
def table3_cmd(t_values, stack_specs, target_pf, mode):
    """Allowable error rate per stack and workload size (reference table)."""
    stacks = None
    if stack_specs is not None:
        stacks = [_load_stack(s) for s in stack_specs.split(",")]
    rows = analytic.table3(t_values, stacks, target_pf, analytic.ModelMode(mode))
    header = [field.name for field in dataclasses.fields(analytic.Table3Row)]
    return header, [list(_fields(row).values()) for row in rows]


@_command("mc", "json")
@_simulation_options
@click.option("--pt", type=FLOAT, required=True, help="Per-qubit teleportation failure probability.")
@click.option("--pm", type=FLOAT, default=0.0, show_default=True,
              help="Per-qubit memory error probability per waiting slot.")
@click.option("--serial/--parallel", "serial", default=False,
              help="Link multiplexing [default: parallel].")
@click.option("--lanes", type=SCI_INT, default=None,
              help="Parallel lane count [default: full block width].")
def mc_cmd(stack, pt, pm, serial, lanes, trials, seed, workers):
    """Simulate logical-block transfers and estimate the failure probability."""
    from . import montecarlo

    config = _mc_config(_load_stack(stack), pt, pm, serial, lanes, trials, seed, workers)
    return {**_mc_row(config, montecarlo.simulate_block_transfer(config)), "workers": workers}


SWEEP_HEADER = ["stack", "mode", "p_t", "p_m", "trials", "failures", "p_hat", "ci_low", "ci_high", "seed"]


@_command("sweep", "csv")
@_simulation_options
@click.option("--pt", "pt_values", type=FLOAT_LIST, default=(0.003, 0.01, 0.03),
              help="Comma-separated teleportation error rates [default: 0.003,0.01,0.03].")
@click.option("--pm", "pm_values", type=FLOAT_LIST, default=(0.0,),
              help="Comma-separated memory error rates [default: 0].")
@click.option("--serial/--parallel", "serial", default=None,
              help="Restrict to one link style [default: both].")
def sweep_cmd(stack, pt_values, pm_values, serial, trials, seed, workers):
    """Grid of simulations over error rates, as plot-ready rows."""
    from . import montecarlo

    stack_obj = _load_stack(stack)
    modes = [True, False] if serial is None else [serial]
    configs = [
        _mc_config(stack_obj, pt, pm, is_serial, None, trials, seed, workers)
        for pt in pt_values for pm in pm_values for is_serial in modes
    ]
    rows = map(_mc_row, configs, montecarlo.simulate_block_transfers(configs))
    return SWEEP_HEADER, [[row[key] for key in SWEEP_HEADER] for row in rows]


@_command("cut", "csv")
@click.option("--circuit", "circuit_ref", default="default", show_default=True,
              help="Encoder circuit: 'default' or a JSON file path.")
def cut_cmd(circuit_ref):
    """EPR cost of telegate vs teledata at every breakpoint of an encoder."""
    from . import circuits

    circuit = _load_circuit(circuit_ref)
    header = ["breakpoint", "telegate", "teledata", "direction"]
    return header, [
        [row.label, row.telegate_eprs, row.teledata_eprs, row.teledata_direction.value]
        for row in circuits.cut_table(circuit)
    ]


@_command("dqec-cost", "json")
@click.option("--circuit", "circuit_ref", default="default", show_default=True)
@click.option("--syndromes", type=SCI_INT, default=6, show_default=True)
@click.option("--repeats", type=SCI_INT, default=2, show_default=True)
def dqec_cost_cmd(circuit_ref, syndromes, repeats):
    """EPR budgets for distributed error correction, static and in motion."""
    from . import circuits

    return _fields(circuits.dqec_budget(_load_circuit(circuit_ref), syndromes, repeats))


@_command("workload", "json")
@click.option("--bits", type=SCI_INT, required=True, help="Problem size in bits.")
@click.option("--adder", type=click.Choice(["ripple", "lookahead"]), default=None,
              help="Adder choice [default: report the full range].")
def workload_cmd(bits, adder):
    """Teleportation count for the modular-exponentiation workload."""
    estimate = workload.teleport_count(bits, workload.AdderKind(adder) if adder else None)
    return {"bits": bits, "adder": adder or "range", **_fields(estimate)}


@_command("link-timing", "json")
@click.option("--tt", type=FLOAT, required=True, help="Single teleportation time.")
@click.option("--tlqec", type=FLOAT, required=True, help="Local correction cycle time.")
@click.option("--n", type=SCI_INT, required=True, help="Physical qubits per transferred block.")
@click.option("--lanes", type=SCI_INT, default=1, show_default=True)
def link_timing_cmd(tt, tlqec, n, lanes):
    """Cycle times of serial vs parallel links for one block transfer."""
    times = timing.cycle_times(tt, tlqec, n, lanes)
    return {"t_t": tt, "t_lqec": tlqec, "n": n, "lanes": lanes, **_fields(times)}


@_command("recommend", "json")
@click.option("--stack", default="7-1-3", show_default=True, help="Single-level code spec.")
@click.option("--tt", type=FLOAT, required=True)
@click.option("--tlqec", type=FLOAT, required=True)
@click.option("--pt", type=FLOAT, required=True)
@click.option("--pm", type=FLOAT, default=None,
              help="Memory error rate per slot [default: pt / (10 (n - 1)), or 0 for a one-qubit code].")
@click.option("--slowdown-threshold", type=FLOAT, default=timing.DEFAULT_SLOWDOWN_THRESHOLD,
              show_default=True)
@click.option("--reliability-threshold", type=FLOAT, default=timing.DEFAULT_RELIABILITY_THRESHOLD,
              show_default=True)
def recommend_cmd(stack, tt, tlqec, pt, pm, slowdown_threshold, reliability_threshold):
    """Recommend serial or parallel links for one code's block transfers."""
    stack_obj = _load_stack(stack)
    if len(stack_obj) != 1:
        raise click.UsageError("recommend needs a single-level stack, e.g. --stack 7-1-3")
    code = stack_obj.levels[0]
    if pm is None:   # a one-qubit block never waits, so its memory rate is moot
        pm = pt / (10 * (code.n - 1)) if code.n > 1 else 0.0
    rec = timing.recommend(code, tt, tlqec, pt, pm, slowdown_threshold, reliability_threshold)
    return {"code": code.spec(), "t_t": tt, "t_lqec": tlqec, "p_t": pt, "p_m": pm, **_fields(rec)}


def main(argv=None) -> int:
    """Entry point with the documented exit codes: 0 ok, 1 bad input, 2 internal."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except Exception as exc:  # noqa: BLE001 - anything else is an internal failure
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
