import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from helpers import CIRCUIT_JSON, MALFORMED_CIRCUIT_JSON

import qlink
from qlink.cli import cli, main
from qlink.codes import builtin_codes


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    result = runner.invoke(cli, list(args), **kwargs)
    assert result.exit_code == 0, result.output
    return result


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# ------------------------------------------------------------------ commands
def test_codes_lists_builtins(runner):
    result = invoke(runner, "codes")
    for name in ("5-1-3", "7-1-3", "9-1-3", "23-1-7"):
        assert name in result.stdout


def test_analyze_uncoded_reference_point(runner):
    result = invoke(runner, "analyze", "--stack", "none", "--t", "1e5", "--target-pf", "0.1")
    payload = json.loads(result.stdout)
    assert math.isclose(payload["allowable_pt"], 1e-6, rel_tol=1e-12)
    assert payload["scale_up"] == 1
    assert payload["mode"] == "leading"


def test_analyze_with_rate_reports_failure(runner):
    result = invoke(runner, "analyze", "--stack", "7-1-3", "--t", "1e5", "--pt", "2.2e-4")
    payload = json.loads(result.stdout)
    assert payload["p_f"] > 0
    assert math.isclose(payload["linearized"], 0.1, rel_tol=0.05)
    assert "linearization_valid" in payload


def test_table3_shape_and_header(runner):
    result = invoke(runner, "table3")
    rows = parse_csv(result.stdout)
    assert len(rows) == 21
    assert list(rows[0]) == ["stack", "scale_up", "t", "mode", "allowable_pt"]
    assert [r["scale_up"] for r in rows[::3]] == ["1", "7", "23", "49", "161", "161", "529"]


def test_table3_exact_mode_and_custom_axes(runner):
    result = invoke(runner, "table3", "--mode", "exact", "--t", "1e5", "--stack", "7-1-3")
    rows = parse_csv(result.stdout)
    assert len(rows) == 1
    assert rows[0]["mode"] == "exact"


def test_table3_custom_stack_list(runner):
    result = invoke(runner, "table3", "--stack", "none,9-1-3", "--t", "1e6,1e9")
    rows = parse_csv(result.stdout)
    assert len(rows) == 4
    assert {r["stack"] for r in rows} == {"none", "9-1-3"}


def test_mc_uncoded_stack(runner):
    payload = json.loads(
        invoke(runner, "mc", "--stack", "none", "--pt", "0.05", "--trials", "2e4", "--seed", "2").stdout
    )
    # A bare qubit fails exactly when its one teleportation does.
    assert payload["ci_low"] <= 0.05 <= payload["ci_high"]


def test_cut_reproduces_breakpoint_table(runner):
    result = invoke(runner, "cut", "--circuit", "default")
    rows = parse_csv(result.stdout)
    assert [r["breakpoint"] for r in rows] == list("abcdef")
    assert [int(r["telegate"]) for r in rows] == [2, 3, 4, 3, 3, 2]
    assert [int(r["teledata"]) for r in rows] == [1, 2, 3, 3, 2, 1]
    assert [r["direction"] for r in rows] == ["B->A"] * 3 + ["A->B"] * 3


def test_cut_accepts_circuit_file(runner, tmp_path):
    from qlink.circuits import default_steane_encoder, save_circuit

    path = tmp_path / "c.json"
    save_circuit(default_steane_encoder(), path)
    result = invoke(runner, "cut", "--circuit", str(path))
    assert [int(r["telegate"]) for r in parse_csv(result.stdout)] == [2, 3, 4, 3, 3, 2]


def test_dqec_cost_constants(runner):
    payload = json.loads(invoke(runner, "dqec-cost").stdout)
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


def test_dqec_cost_rejects_single_qubit_circuit(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "order": [0], "gates": []}))
    assert main(["dqec-cost", "--circuit", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "in-motion correction needs at least two qubits" in captured.err


def test_mc_reports_estimate_and_config(runner):
    result = invoke(
        runner, "mc", "--stack", "7-1-3", "--pt", "0.01",
        "--trials", "1e4", "--seed", "5", "--workers", "2",
    )
    payload = json.loads(result.stdout)
    assert payload["trials"] == 10_000
    assert payload["seed"] == 5
    assert payload["stack"] == "7-1-3"
    assert 0 <= payload["ci_low"] <= payload["p_hat"] <= payload["ci_high"] <= 1


def test_sweep_emits_plot_ready_rows(runner):
    result = invoke(
        runner, "sweep", "--stack", "5-1-3", "--pt", "0.01,0.03",
        "--trials", "2000", "--seed", "1", "--workers", "1",
    )
    rows = parse_csv(result.stdout)
    assert list(rows[0]) == [
        "stack", "mode", "p_t", "p_m", "trials", "failures",
        "p_hat", "ci_low", "ci_high", "seed",
    ]
    assert len(rows) == 4  # two rates x serial and parallel
    assert {r["mode"] for r in rows} == {"serial", "parallel"}


def test_sweep_serial_penalty_visible(runner):
    result = invoke(
        runner, "sweep", "--stack", "7-1-3", "--pt", "0.03", "--pm", "0.03",
        "--trials", "20000", "--seed", "3",
    )
    by_mode = {r["mode"]: int(r["failures"]) for r in parse_csv(result.stdout)}
    assert by_mode["serial"] > by_mode["parallel"]


def test_workload_json(runner):
    payload = json.loads(invoke(runner, "workload", "--bits", "1024", "--adder", "ripple").stdout)
    assert payload["t_low"] == 4e9
    assert not payload["extrapolated"]
    ranged = json.loads(invoke(runner, "workload", "--bits", "1024").stdout)
    assert (ranged["t_low"], ranged["t_high"]) == (4e9, 6e10)


def test_link_timing_json(runner):
    payload = json.loads(
        invoke(runner, "link-timing", "--tt", "1", "--tlqec", "100", "--n", "7").stdout
    )
    assert math.isclose(payload["slowdown"], 107 / 101, rel_tol=1e-12)
    assert payload["start_delay_factor"] == 7


def test_recommend_serial_default_memory(runner):
    payload = json.loads(
        invoke(runner, "recommend", "--stack", "7-1-3", "--tt", "1",
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


def test_recommend_parallel_when_serialization_hurts(runner):
    payload = json.loads(
        invoke(runner, "recommend", "--stack", "23-1-7", "--tt", "1",
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


def test_seed_past_64_bits_exits_one(capsys):
    assert main(["mc", "--pt", "0.01", "--trials", "100", "--seed", str(2**64), "--workers", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must fit in an unsigned 64-bit integer" in captured.err


def test_runs_are_byte_identical(runner):
    first = invoke(runner, "table3").stdout
    second = invoke(runner, "table3").stdout
    assert first == second
    mc_args = ("mc", "--stack", "7-1-3", "--pt", "0.01", "--trials", "5000", "--seed", "11")
    assert invoke(runner, *mc_args).stdout == invoke(runner, *mc_args).stdout


def test_seed_env_variable(runner):
    with_env = runner.invoke(
        cli, ["mc", "--stack", "5-1-3", "--pt", "0.03", "--trials", "2000"],
        env={"QLINK_SEED": "77"},
    )
    assert with_env.exit_code == 0
    assert json.loads(with_env.stdout)["seed"] == 77


def test_out_writes_file(runner, tmp_path):
    target = tmp_path / "t3.csv"
    result = invoke(runner, "table3", "--out", str(target))
    assert result.stdout == ""
    assert len(parse_csv(target.read_text())) == 21


def test_out_writes_json_report(runner, tmp_path):
    target = tmp_path / "report.json"
    invoke(runner, "link-timing", "--tt", "1", "--tlqec", "10", "--n", "7", "--out", str(target))
    assert json.loads(target.read_text())["start_delay_factor"] == 7


def test_format_override(runner):
    text = invoke(runner, "table3", "--format", "text").stdout
    assert "," not in text.splitlines()[0]
    as_json = invoke(runner, "cut", "--format", "json").stdout
    assert json.loads(as_json)[0]["breakpoint"] == "a"


def test_deep_stack_warns(runner):
    result = invoke(runner, "analyze", "--stack", "7-1-3+7-1-3+7-1-3", "--t", "1e5")
    assert "warning" in result.stderr


# ---------------------------------------------------------------- exit codes
def test_unknown_flag_exits_one(capsys):
    assert main(["analyze", "--no-such-flag"]) == 1
    captured = capsys.readouterr()
    assert "Usage" in captured.err or "Usage" in captured.out


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
], ids=" ".join)
def test_invalid_input_exits_one_with_nothing_on_stdout(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert 0 < len(captured.err) < 300


def test_overlong_integer_literal_is_named_not_echoed(capsys):
    # int() refuses literals past the interpreter's digit limit; float() would read inf.
    assert main(["workload", "--bits", "1" * 5000]) == 1
    err = capsys.readouterr().err
    assert f"integer literal '{'1' * 20}'... has more than" in err and "digits" in err
    assert "1" * 21 not in err and "finite" not in err


def test_success_exit_zero(capsys):
    assert main(["codes"]) == 0


# ------------------------------------------------------------------ start-up
FRESH_MAIN = ("import sys\nfrom qlink.cli import main\ncode = main(sys.argv[1:])\n"
              "print('numpy' in sys.modules, file=sys.stderr)\nsys.exit(code)")


def run_fresh(argv):
    """main(argv) in a new interpreter on the tree under test: (stdout, whether numpy was imported)."""
    env = {**os.environ, "PYTHONPATH": str(Path(qlink.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", FRESH_MAIN, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout, done.stderr.splitlines()[-1] == "True"


@pytest.mark.parametrize("argv", [
    ["codes"],
    ["analyze", "--t", "1e8"],
    ["table3"],
    ["recommend", "--tt", "1", "--tlqec", "100", "--pt", "1e-3"],
    ["workload", "--bits", "1024"],
    ["link-timing", "--tt", "1", "--tlqec", "100", "--n", "7"],
    ["--help"],
    ["mc", "--help"],
    ["cut"],
    ["dqec-cost"],
    ["cut", "--circuit", "{circuit}"],
], ids=" ".join)
def test_closed_form_commands_start_without_numpy(argv, tmp_path):
    circuit = tmp_path / "encoder.json"
    circuit.write_text(json.dumps({"n": 3, "order": [2, 0, 1], "gates": [
        {"kind": "H", "q": [0]}, {"kind": "CNOT", "q": [0, 1]}, {"kind": "CNOT", "q": [0, 2]}]}))
    stdout, numpy_imported = run_fresh([arg.format(circuit=circuit) for arg in argv])
    assert stdout
    assert not numpy_imported


@pytest.mark.parametrize("argv", [
    ["mc", "--pt", "0.01", "--trials", "100", "--workers", "1"],
    ["cut"],
], ids=" ".join)
def test_fresh_interpreter_prints_what_the_in_process_call_prints(argv, capsys):
    stdout, _ = run_fresh(argv)
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout
