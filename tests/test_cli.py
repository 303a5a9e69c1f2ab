import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from argparse import ArgumentTypeError
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import CIRCUIT_JSON, MALFORMED_CIRCUIT_JSON, run_cli

import qlink
from qlink import analytic, timing, workload
from qlink.cli import COMMANDS, main, scientific_int
from qlink.codes import builtin_codes


def invoke(*args):
    result = run_cli(*args)
    assert result.exit_code == 0, result.stderr
    return result


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# ------------------------------------------------------------------ commands
def test_codes_lists_builtins():
    result = invoke("codes")
    for name in ("5-1-3", "7-1-3", "9-1-3", "23-1-7"):
        assert name in result.stdout


def test_analyze_uncoded_reference_point():
    result = invoke("analyze", "--stack", "none", "--t", "1e5", "--target-pf", "0.1")
    payload = json.loads(result.stdout)
    assert math.isclose(payload["allowable_pt"], 1e-6, rel_tol=1e-12)
    assert payload["scale_up"] == 1
    assert payload["mode"] == "leading"


def test_analyze_with_rate_reports_failure():
    result = invoke("analyze", "--stack", "7-1-3", "--t", "1e5", "--pt", "2.2e-4")
    payload = json.loads(result.stdout)
    assert payload["p_f"] > 0
    assert math.isclose(payload["linearized"], 0.1, rel_tol=0.05)
    assert "linearization_valid" in payload


def test_negative_zero_is_read_as_zero():
    # A float option and a FLOAT-LIST item pass through the same rule, so
    # neither echoes -0 nor carries it into the models.
    payload = json.loads(invoke("analyze", "--t", "1e5", "--pt", "-0e0").stdout)
    for key in ("p_t", "block_error", "p_f", "linearized"):
        assert math.copysign(1.0, payload[key]) == 1.0, key
    rows = parse_csv(invoke("sweep", "--pt", "-0,0.01", "--trials", "100", "--seed", "1", "--workers", "1").stdout)
    assert [row["p_t"] for row in rows] == ["0", "0", "0.01", "0.01"]


def test_table3_shape_and_header():
    result = invoke("table3")
    rows = parse_csv(result.stdout)
    assert len(rows) == 21
    assert list(rows[0]) == ["stack", "scale_up", "t", "mode", "allowable_pt"]
    assert [r["scale_up"] for r in rows[::3]] == ["1", "7", "23", "49", "161", "161", "529"]


def test_table3_exact_mode_and_custom_axes():
    result = invoke("table3", "--mode", "exact", "--t", "1e5", "--stack", "7-1-3")
    rows = parse_csv(result.stdout)
    assert len(rows) == 1
    assert rows[0]["mode"] == "exact"


def test_table3_custom_stack_list():
    result = invoke("table3", "--stack", "none,9-1-3", "--t", "1e6,1e9")
    rows = parse_csv(result.stdout)
    assert len(rows) == 4
    assert {r["stack"] for r in rows} == {"none", "9-1-3"}


def test_mc_uncoded_stack():
    payload = json.loads(
        invoke("mc", "--stack", "none", "--pt", "0.05", "--trials", "2e4", "--seed", "2").stdout
    )
    # A bare qubit fails exactly when its one teleportation does.
    assert payload["ci_low"] <= 0.05 <= payload["ci_high"]


def test_cut_reproduces_breakpoint_table():
    result = invoke("cut", "--circuit", "default")
    rows = parse_csv(result.stdout)
    assert [r["breakpoint"] for r in rows] == list("abcdef")
    assert [int(r["telegate"]) for r in rows] == [2, 3, 4, 3, 3, 2]
    assert [int(r["teledata"]) for r in rows] == [1, 2, 3, 3, 2, 1]
    assert [r["direction"] for r in rows] == ["B->A"] * 3 + ["A->B"] * 3


def test_cut_accepts_circuit_file(tmp_path):
    from helpers import save_circuit

    from qlink.circuits import default_steane_encoder

    path = tmp_path / "c.json"
    save_circuit(default_steane_encoder(), path)
    result = invoke("cut", "--circuit", str(path))
    assert [int(r["telegate"]) for r in parse_csv(result.stdout)] == [2, 3, 4, 3, 3, 2]


def test_dqec_cost_constants():
    payload = json.loads(invoke("dqec-cost").stdout)
    assert payload["per_syndrome_telegate"] == 17
    assert payload["per_syndrome_teledata"] == 12
    assert payload["per_cycle_telegate"] == 204
    assert payload["per_cycle_teledata"] == 144
    assert payload["static_cycle_at_center_cut"] == 36
    assert payload["worst_case_block_teleports"] == 36


def test_cut_accepts_the_well_formed_base_circuit(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(CIRCUIT_JSON))
    assert main(["cut", "--circuit", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["a,1,1,B->A", "b,0,1,A->B"]


@pytest.mark.parametrize("data", MALFORMED_CIRCUIT_JSON.values(), ids=list(MALFORMED_CIRCUIT_JSON))
def test_cut_rejects_malformed_circuit_json(data, tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    assert main(["cut", "--circuit", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed circuit JSON: ")


def test_cut_rejects_a_circuit_without_qubits(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 0, "order": [], "gates": []}))
    assert main(["cut", "--circuit", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: n_qubits must be >= 1\n")


def test_dqec_cost_rejects_single_qubit_circuit(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "order": [0], "gates": []}))
    assert main(["dqec-cost", "--circuit", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "in-motion correction needs at least two qubits" in captured.err


def test_mc_reports_estimate_and_config():
    result = invoke(
        "mc", "--stack", "7-1-3", "--pt", "0.01",
        "--trials", "1e4", "--seed", "5", "--workers", "2",
    )
    payload = json.loads(result.stdout)
    assert payload["trials"] == 10_000
    assert payload["seed"] == 5
    assert payload["stack"] == "7-1-3"
    assert 0 <= payload["ci_low"] <= payload["p_hat"] <= payload["ci_high"] <= 1


def test_sweep_emits_plot_ready_rows():
    result = invoke(
        "sweep", "--stack", "5-1-3", "--pt", "0.01,0.03",
        "--trials", "2000", "--seed", "1", "--workers", "1",
    )
    rows = parse_csv(result.stdout)
    assert list(rows[0]) == [
        "stack", "mode", "p_t", "p_m", "trials", "failures",
        "p_hat", "ci_low", "ci_high", "seed",
    ]
    assert len(rows) == 4  # two rates x serial and parallel
    assert {r["mode"] for r in rows} == {"serial", "parallel"}


def test_sweep_serial_penalty_visible():
    result = invoke(
        "sweep", "--stack", "7-1-3", "--pt", "0.03", "--pm", "0.03",
        "--trials", "20000", "--seed", "3",
    )
    by_mode = {r["mode"]: int(r["failures"]) for r in parse_csv(result.stdout)}
    assert by_mode["serial"] > by_mode["parallel"]


def test_workload_json():
    payload = json.loads(invoke("workload", "--bits", "1024", "--adder", "ripple").stdout)
    assert payload["t_low"] == 4e9
    assert not payload["extrapolated"]
    ranged = json.loads(invoke("workload", "--bits", "1024").stdout)
    assert (ranged["t_low"], ranged["t_high"]) == (4e9, 6e10)


def test_link_timing_json():
    payload = json.loads(
        invoke("link-timing", "--tt", "1", "--tlqec", "100", "--n", "7").stdout
    )
    assert math.isclose(payload["slowdown"], 107 / 101, rel_tol=1e-12)
    assert payload["start_delay_factor"] == 7


def test_recommend_serial_default_memory():
    payload = json.loads(
        invoke("recommend", "--stack", "7-1-3", "--tt", "1",
               "--tlqec", "100", "--pt", "1e-3").stdout
    )
    assert payload["choice"] == "serial"
    assert math.isclose(payload["p_m"], 1e-3 / 60, rel_tol=1e-12)


@pytest.mark.parametrize("pt", [1e-4, 2.2e-4, 1e-3])
@pytest.mark.parametrize("code", builtin_codes(), ids=lambda code: code.spec())
def test_recommend_default_memory_rate_is_pt_over_ten_n_minus_one(code, pt, capsys):
    # Bit for bit: the algebraically equal pt * 0.1 / (n - 1) is an ulp off
    # at some of these points (1e-4 with n = 7, 2.2e-4 with n = 5, 9, 23).
    argv = ["recommend", "--stack", code.spec(), "--tt", "1", "--tlqec", "100", "--pt", repr(pt)]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["p_m"] == pt / (10 * (code.n - 1))


def test_recommend_parallel_when_serialization_hurts():
    payload = json.loads(
        invoke("recommend", "--stack", "23-1-7", "--tt", "1",
               "--tlqec", "0", "--pt", "1e-3", "--pm", "1e-3").stdout
    )
    assert payload["choice"] == "parallel"


def test_recommend_one_qubit_code_defaults_memory_rate_to_zero(capsys):
    # A one-qubit block has no wait slots; pt / (10 (n - 1)) would divide by zero.
    assert main(["recommend", "--stack", "1-1-1", "--tt", "1", "--tlqec", "100", "--pt", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert '"p_m": 0.0' in out
    assert json.loads(out)["choice"] == "serial"


# -------------------------------------------------------------- global flags
@pytest.mark.parametrize("seed", [2**53 + 1, 2**64 - 1])
def test_mc_runs_with_and_echoes_the_integer_seed_exactly(seed, capsys):
    argv = ["mc", "--stack", "5-1-3", "--pt", "0.03", "--trials", "2000", "--workers", "1"]
    assert main(argv + ["--seed", str(seed)]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == seed


def test_integer_options_keep_every_digit(capsys):
    assert main(["link-timing", "--tt", "1", "--tlqec", "1", "--n", "9007199254740993"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == payload["start_delay_factor"] == 2**53 + 1


@pytest.mark.parametrize("value, expected", [("1e7", 10_000_000), ("2.5e1", 25), ("1_000", 1000)])
def test_integer_options_accept_scientific_notation(value, expected, capsys):
    assert main(["dqec-cost", "--syndromes", value, "--repeats", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["syndromes"] == expected


@pytest.mark.parametrize("value, expected", [
    ("1e23", 10**23),
    ("1.0000000000000001e16", 10**16 + 1),
    ("9007199254740993e0", 2**53 + 1),
])
def test_scientific_notation_is_parsed_exactly(value, expected, capsys):
    # float would give 99999999999999991611392, 10**16 and 2**53.
    assert main(["workload", "--bits", value]) == 0
    assert json.loads(capsys.readouterr().out)["bits"] == expected


def test_scientific_notation_past_the_digit_limit_is_named(capsys):
    assert main(["workload", "--bits", "1e5000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"integer literal '1e5000'... has more than {sys.get_int_max_str_digits()} digits" in captured.err


def test_exponents_past_the_decimal_range_are_still_judged():
    # Decimal refuses exponents past 10**18 in size; float reads these as inf or 0.
    with pytest.raises(ArgumentTypeError, match="has more than"):
        scientific_int("1e99999999999999999999")
    with pytest.raises(ArgumentTypeError, match="is not a whole number"):
        scientific_int("1e-99999999999999999999")
    assert scientific_int("-0.0e-99999999999999999999") == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(-(10**40), 10**40), st.integers(0, 45), st.integers(-45, 45), st.sampled_from("eE"))
def test_every_accepted_value_is_the_int_written_as_a_literal(mantissa, point, exponent, e):
    # mantissa * 10**(exponent - point), written with a decimal point `point` digits from the right.
    digits = str(abs(mantissa)).rjust(point + 1, "0")
    whole, fraction = digits[:len(digits) - point], digits[len(digits) - point:]
    text = f"{'-' * (mantissa < 0)}{whole}.{fraction}{e}{exponent}"
    value = Fraction(mantissa) * Fraction(10) ** (exponent - point)
    if value.denominator != 1:
        with pytest.raises(ArgumentTypeError, match="is not a whole number"):
            scientific_int(text)
    else:
        assert scientific_int(text) == scientific_int(str(int(value)))


def test_seed_past_64_bits_exits_one(capsys):
    assert main(["mc", "--pt", "0.01", "--trials", "100", "--seed", str(2**64), "--workers", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must fit in an unsigned 64-bit integer" in captured.err


def test_runs_are_byte_identical():
    first = invoke("table3").stdout
    second = invoke("table3").stdout
    assert first == second
    mc_args = ("mc", "--stack", "7-1-3", "--pt", "0.01", "--trials", "5000", "--seed", "11")
    assert invoke(*mc_args).stdout == invoke(*mc_args).stdout


def test_seed_env_variable(monkeypatch):
    monkeypatch.setenv("QLINK_SEED", "77")
    argv = ["mc", "--stack", "5-1-3", "--pt", "0.03", "--trials", "2000", "--workers", "1"]
    assert json.loads(invoke(*argv).stdout)["seed"] == 77
    assert json.loads(invoke(*argv, "--seed", "5").stdout)["seed"] == 5


@pytest.mark.parametrize("value", ["x", "1.5", "nan"])
def test_bad_seed_env_variable_exits_one(value, monkeypatch):
    monkeypatch.setenv("QLINK_SEED", value)
    result = run_cli("mc", "--pt", "0.03", "--trials", "100", "--workers", "1")
    assert (result.exit_code, result.stdout) == (1, "")
    assert "argument --seed (from QLINK_SEED): " in result.stderr


def test_workers_default_is_the_core_count_at_parse_time(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = ["mc", "--stack", "5-1-3", "--pt", "0.03", "--trials", "100", "--seed", "1"]
    assert json.loads(invoke(*argv).stdout)["workers"] == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert json.loads(invoke(*argv).stdout)["workers"] == 1


def test_out_writes_file(tmp_path):
    target = tmp_path / "t3.csv"
    result = invoke("table3", "--out", str(target))
    assert result.stdout == ""
    assert len(parse_csv(target.read_text())) == 21


def test_out_writes_json_report(tmp_path):
    target = tmp_path / "report.json"
    invoke("link-timing", "--tt", "1", "--tlqec", "10", "--n", "7", "--out", str(target))
    assert json.loads(target.read_text())["start_delay_factor"] == 7


@pytest.mark.parametrize("command, extra", [
    ("mc", ["--stack", "5-1-3", "--pt", "0.03", "--trials", "2000", "--seed", "1", "--workers", "1"]),
    ("sweep", ["--stack", "5-1-3", "--pt", "0.03", "--trials", "2000", "--seed", "1", "--workers", "1"]),
])
def test_of_serial_and_parallel_the_last_one_wins(command, extra):
    serial, parallel = invoke(command, "--serial", *extra).stdout, invoke(command, "--parallel", *extra).stdout
    assert serial != parallel
    assert invoke(command, "--parallel", *extra, "--serial").stdout == serial
    assert invoke(command, "--serial", *extra, "--parallel").stdout == parallel


def test_format_override():
    text = invoke("table3", "--format", "text").stdout
    assert "," not in text.splitlines()[0]
    as_json = invoke("cut", "--format", "json").stdout
    assert json.loads(as_json)[0]["breakpoint"] == "a"


def test_deep_stack_warns():
    result = invoke("analyze", "--stack", "7-1-3+7-1-3+7-1-3", "--t", "1e5")
    assert "warning" in result.stderr


# ---------------------------------------------------------------- exit codes
def test_unknown_flag_exits_one(capsys):
    assert main(["analyze", "--no-such-flag"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: qlink analyze [OPTIONS]\n")
    assert "unrecognized arguments: --no-such-flag" in captured.err


def test_bad_stack_spec_exits_one(capsys):
    assert main(["analyze", "--stack", "7-1", "--t", "1e5"]) == 1


def test_bad_probability_exits_one(capsys):
    assert main(["mc", "--stack", "7-1-3", "--pt", "1.5", "--trials", "100"]) == 1


def test_analyze_rejects_pt_outside_inversion_range(capsys):
    assert main(["analyze", "--stack", "7-1-3", "--t", "10", "--pt", "0.01"]) == 0
    capsys.readouterr()
    for pt in ("0.5", "-0.1"):
        assert main(["analyze", "--stack", "7-1-3", "--t", "10", "--pt", pt]) == 1
        message = f"p_t must be in [0, 0.5) for inversion queries, got {float(pt)}"
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["analyze", "--t", "nan"],
    ["analyze", "--t", "inf"],
    ["analyze", "--t", "1e5", "--pt", "-inf"],
    ["analyze", "--t", "1e400"],
    ["link-timing", "--tt", "nan", "--tlqec", "100", "--n", "7"],
    ["link-timing", "--tt", "1", "--tlqec", "inf", "--n", "7"],
    ["table3", "--t", "nan"],
    ["table3", "--t", "1e5,inf"],
    ["sweep", "--pt", "0.01,nan", "--trials", "100", "--workers", "1"],
    ["recommend", "--tt", "1", "--tlqec", "100", "--pt", "1e-3", "--slowdown-threshold", "nan"],
    ["mc", "--pt", "0.01", "--trials", "inf", "--workers", "1"],
    ["workload", "--bits", "nan"],
    ["workload", "--bits", "1e400"],
    ["dqec-cost", "--syndromes", "0"],
    ["dqec-cost", "--repeats", "0"],
    ["mc", "--lanes", "0", "--pt", "0.1", "--trials", "100", "--workers", "1"],
    ["mc", "--serial", "--lanes", "0", "--pt", "0.1", "--trials", "100", "--workers", "1"],
    ["workload", "--bits", "1e300"],
    ["recommend", "--tt", "1", "--tlqec", "100", "--pt", "0", "--pm", "0.01"],
    ["recommend", "--tt", "1", "--tlqec", "100", "--pt", "0", "--pm", "0.01", "--format", "text"],
    ["link-timing", "--tt", "1e308", "--tlqec", "1e308", "--n", "7"],
    ["link-timing", "--tt", "1e308", "--tlqec", "1e308", "--n", "7", "--format", "text"],
    ["link-timing", "--tt", "1e308", "--tlqec", "1e308", "--n", "7", "--format", "csv"],
    pytest.param(["workload", "--bits", "1" * 5000], id="workload --bits <5000 ones>"),
    pytest.param(["mc", "--stack", "7-1-3", "--pt", "0", "--workers", "1", "--trials", "1" + "0" * 400],
                 id="mc --pt 0 --trials <1 and 400 zeros>"),
    ["mc", "--stack", "7-1-3", "--pt", "0", "--workers", "1", "--trials", "1e400"],
    ["mc", "--stack", "7-1-3", "--pt", "0", "--workers", "1", "--trials", "1e23"],
    ["sweep", "--pt", "0", "--workers", "1", "--trials", "1e400"],
], ids=" ".join)
def test_invalid_input_exits_one_with_nothing_on_stdout(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert 0 < len(captured.err) < 300


def test_non_numeric_integer_option_is_named(capsys):
    assert main(["mc", "--pt", "0.1", "--trials", "abc"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "'abc' is not an integer" in captured.err


def test_an_unexpected_exception_exits_two(monkeypatch, capsys):
    def fail(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(workload, "teleport_count", fail)
    assert main(["workload", "--bits", "16"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "internal error: RuntimeError: boom\n")


def test_overlong_integer_literal_is_named_not_echoed(capsys):
    # int() refuses literals past the interpreter's digit limit; float() would read inf.
    assert main(["workload", "--bits", "1" * 5000]) == 1
    err = capsys.readouterr().err
    assert f"integer literal '{'1' * 20}'... has more than" in err and "digits" in err
    assert "1" * 21 not in err and "finite" not in err


def test_success_exit_zero(capsys):
    assert main(["codes"]) == 0


# ------------------------------------------------------------------ start-up
def option(command, flag):
    """The argparse keywords of one option in a command's spec."""
    return dict(COMMANDS[command].options)[flag]


def test_option_literals_match_their_model_sources():
    # cli.py writes these out so that loading it loads no model.
    for command in ("analyze", "table3"):
        mode = option(command, "--mode")
        assert tuple(mode["choices"]) == tuple(m.value for m in analytic.ModelMode)
        assert mode["default"] == analytic.ModelMode.LEADING_ORDER.value
    assert tuple(option("workload", "--adder")["choices"]) == tuple(k.value for k in workload.AdderKind)
    assert option("recommend", "--slowdown-threshold")["default"] == timing.DEFAULT_SLOWDOWN_THRESHOLD
    assert option("recommend", "--reliability-threshold")["default"] == timing.DEFAULT_RELIABILITY_THRESHOLD


# The qlink modules and formats whose loading a command should pay for only when it uses them,
# and the modules no command may load. pathlib is named so that the circuit commands,
# which need it for no more than a type hint, are seen not to load it.
LAYERS = {"analytic", "circuits", "montecarlo", "timing", "workload", "json", "csv", "numpy", "click",
          "pathlib"}
NEVER = {"click"}
FRESH_MAIN = ("import sys\nbefore = set(sys.modules)\nfrom qlink.cli import main\n"
              "code = main(sys.argv[1:])\nadded = set(sys.modules) - before\n"
              "print(*sorted(name.removeprefix('qlink.') for name in added), file=sys.stderr)\n"
              "sys.exit(code)")


def run_fresh(argv):
    """main(argv) in a new interpreter on the tree under test: (stdout, the LAYERS it loaded).

    The interpreter skips its site hook (-S), so no .pth file loads a module
    before qlink.cli does; its path is the tree under test and numpy's
    directory, named explicitly.
    """
    path = [Path(qlink.__file__).parents[1], Path(importlib.util.find_spec("numpy").origin).parents[1]]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, path))}
    done = subprocess.run([sys.executable, "-S", "-c", FRESH_MAIN, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout, LAYERS & set(done.stderr.splitlines()[-1].split())


# argv, the LAYERS it must load, the LAYERS it must not load
COMMAND_LAYERS = [
    (["codes"], set(), LAYERS),
    (["--help"], set(), LAYERS),
    (["recommend", "--help"], set(), LAYERS),
    (["mc", "--help"], set(), LAYERS),
    (["cut"], {"circuits", "csv"}, LAYERS - {"circuits", "csv"}),
    (["cut", "--circuit", "{circuit}"], {"circuits", "csv", "json"}, LAYERS - {"circuits", "csv", "json"}),
    (["dqec-cost"], {"circuits", "json"}, LAYERS - {"circuits", "json"}),
    (["analyze", "--t", "1e8"], {"analytic"}, {"timing", "workload", "numpy"}),
    (["table3"], {"analytic"}, {"timing", "workload", "numpy"}),
    (["workload", "--bits", "1024"], {"workload"}, {"analytic", "timing", "numpy"}),
    (["link-timing", "--tt", "1", "--tlqec", "100", "--n", "7"], {"timing", "analytic"}, {"numpy"}),
    (["recommend", "--tt", "1", "--tlqec", "100", "--pt", "1e-3"], {"timing", "analytic"}, {"numpy"}),
    (["mc", "--pt", "0", "--trials", "100", "--workers", "1"], {"analytic", "montecarlo", "numpy"}, set()),
]


@pytest.mark.parametrize("argv, loads, skips", [pytest.param(*case, id=" ".join(case[0]))
                                                 for case in COMMAND_LAYERS])
def test_each_command_loads_only_its_layers(argv, loads, skips, tmp_path):
    circuit = tmp_path / "encoder.json"
    circuit.write_text(json.dumps({"n": 3, "order": [2, 0, 1], "gates": [
        {"kind": "H", "q": [0]}, {"kind": "CNOT", "q": [0, 1]}, {"kind": "CNOT", "q": [0, 2]}]}))
    stdout, loaded = run_fresh([arg.format(circuit=circuit) for arg in argv])
    assert stdout
    assert loads <= loaded
    assert not loaded & (skips | NEVER)


def test_runs_without_click_installed():
    script = ("import sys\nsys.modules['click'] = None\nfrom qlink.cli import main\n"
              "sys.exit(main(['codes']) or main(['analyze', '--t', '1e8']))")
    env = {**os.environ, "PYTHONPATH": str(Path(qlink.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("name    n   k  d  correctable\n")
    assert '"allowable_pt": 1e-09' in done.stdout


@pytest.mark.parametrize("argv", [
    ["mc", "--pt", "0.01", "--trials", "100", "--workers", "1"],
    ["cut"],
], ids=" ".join)
def test_fresh_interpreter_prints_what_the_in_process_call_prints(argv, capsys):
    stdout, _ = run_fresh(argv)
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout
