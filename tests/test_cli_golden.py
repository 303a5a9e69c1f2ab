"""Golden transcript of the CLI: exit code, stdout and stderr, byte for byte.

Each case runs `qlink.cli.main(argv)` in-process and must reproduce the
entry recorded in golden/cli_transcript.json exactly. The cases cover the
README examples, every report command in each output format, the full
reference tables, the documented invalid-input exits and every --help page.
Monte Carlo cases pass --workers explicitly, since `mc` echoes it.

Regenerate the file only for an intended, announced output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""
import contextlib
import json
import os
from pathlib import Path
from unittest import mock

import pytest
from helpers import run_cli

GOLDEN = Path(__file__).parent / "golden" / "cli_transcript.json"

README_EXAMPLES = [
    ["codes"],
    ["analyze", "--stack", "23-1-7+23-1-7", "--t", "6e10"],
    ["table3"],
    ["mc", "--stack", "7-1-3", "--pt", "1e-3", "--pm", "1.7e-5", "--serial", "--trials", "1e7",
     "--seed", "42", "--workers", "1"],
    ["sweep", "--stack", "7-1-3", "--pt", "0.003,0.01,0.03", "--trials", "1e6", "--workers", "1"],
    ["cut", "--circuit", "default"],
    ["dqec-cost"],
    ["workload", "--bits", "1024", "--adder", "lookahead"],
    ["link-timing", "--tt", "1", "--tlqec", "100", "--n", "7"],
    ["recommend", "--stack", "7-1-3", "--tt", "1", "--tlqec", "100", "--pt", "1e-3"],
]

# Every command with a representative input, rendered in each format.
FORMATTED = [
    ["codes"],
    ["analyze", "--stack", "7-1-3", "--t", "1e5", "--pt", "2.2e-4"],
    ["analyze", "--stack", "7-1-3", "--t", "1e5", "--mode", "exact", "--pt", "1e-3"],
    ["table3", "--stack", "none,7-1-3+23-1-7", "--t", "1e5,1e8"],
    ["mc", "--stack", "7-1-3", "--pt", "0.01", "--trials", "1e5", "--seed", "3", "--workers", "1"],
    ["sweep", "--stack", "5-1-3", "--pt", "0.01,0.03", "--pm", "0,0.01", "--trials", "2e4",
     "--seed", "1", "--workers", "1"],
    ["cut"],
    ["dqec-cost", "--syndromes", "3", "--repeats", "1"],
    ["workload", "--bits", "300"],
    ["link-timing", "--tt", "0.5", "--tlqec", "20", "--n", "23", "--lanes", "4"],
    ["recommend", "--stack", "23-1-7", "--tt", "1", "--tlqec", "0", "--pt", "1e-3", "--pm", "1e-3"],
]

OTHER = [
    ["table3", "--mode", "exact"],
    ["table3", "--stack", "none,9-1-3", "--t", "1e6,1e9", "--target-pf", "0.01"],
    ["table3", "--stack", "7-1-3+7-1-3+7-1-3", "--t", "1e5"],
    ["analyze", "--stack", "7-1-3+7-1-3+7-1-3", "--t", "1e5"],
    ["analyze", "--stack", "23-1-7+23-1-7", "--t", "10", "--pt", "0.4"],
    ["analyze", "--t", "1e5", "--pt", "0"],
    # target_pf / t underflows to 0: the inversion is finished in logs.
    ["analyze", "--stack", "23-1-7+23-1-7", "--t", "1e5", "--target-pf", "5e-324"],
    ["mc", "--stack", "none", "--pt", "0.05", "--trials", "2e4", "--seed", "2", "--workers", "1"],
    ["mc", "--stack", "7-1-3", "--pt", "0.01", "--pm", "1e-3", "--lanes", "3", "--trials", "5e4",
     "--seed", "9", "--workers", "2"],
    ["mc", "--stack", "7-1-3+7-1-3", "--pt", "0.03", "--serial", "--trials", "3e4", "--seed", "4",
     "--workers", "1"],
    ["sweep", "--stack", "7-1-3", "--pt", "0.03", "--pm", "0.03", "--serial", "--trials", "2e4",
     "--seed", "3", "--workers", "1"],
    # Certain faults: p_t = 1, and a serial link that is certain only through p_m = 1.
    ["mc", "--stack", "7-1-3+7-1-3", "--pt", "1", "--trials", "2e4", "--seed", "5", "--workers", "1"],
    ["sweep", "--stack", "7-1-3", "--pt", "1,0.05", "--pm", "0,1", "--trials", "2e4", "--seed", "5",
     "--workers", "1"],
    ["workload", "--bits", "1024", "--adder", "ripple"],
    ["workload", "--bits", "16"],
    ["link-timing", "--tt", "1", "--tlqec", "10", "--n", "7"],
    ["recommend", "--stack", "5-1-3", "--tt", "2", "--tlqec", "3", "--pt", "1e-4",
     "--slowdown-threshold", "10", "--reliability-threshold", "2"],
    ["recommend", "--stack", "7-1-3", "--tt", "1", "--tlqec", "100", "--pt", "1e-200"],
    ["recommend", "--stack", "23-1-7", "--tt", "1", "--tlqec", "100", "--pt", "1e-100"],
    # (w / p_t)^2 overflows while (1 - w)^98 underflows: that term is formed in logs.
    ["recommend", "--stack", "100-1-3", "--tt", "1", "--tlqec", "100", "--pt", "1e-200",
     "--pm", "0.1"],
    # An option that takes a value takes the next token, even one that looks like an option.
    ["recommend", "--stack", "7-1-3", "--tt", "1", "--tlqec", "100", "--pt", "1e-3",
     "--slowdown-threshold", "-1e-5"],
    ["sweep", "--pt", "-0e0", "--trials", "1e3", "--seed", "1", "--workers", "1"],
    ["analyze", "--t", "1e5", "--pt", "-0e0"],
    # Of --serial and --parallel, the last one given wins.
    ["mc", "--pt", "0.01", "--serial", "--parallel", "--trials", "1e4", "--seed", "1", "--workers", "1"],
]

# Invalid input: each exits 1 with a message on stderr.
INVALID = [
    ["analyze", "--stack", "7-1", "--t", "1e5"],
    ["analyze", "--stack", "7-1-4", "--t", "1e5"],
    ["analyze", "--stack", "7-1-3"],
    ["analyze", "--t", "0.5"],
    ["analyze", "--t", "1e5", "--target-pf", "1"],
    ["analyze", "--t", "1e5", "--pt", "0.6"],
    ["analyze", "--t", "1e5", "--pt", "-0.1"],
    ["analyze", "--t", "1e5", "--mode", "approx"],
    ["analyze", "--stack", "7-1-3", "--t", "1.7e308", "--pt", "0.49"],
    ["analyze", "--stack", "+".join(["23-1-7"] * 5), "--t", "1", "--pt", "0.49"],
    ["analyze", "--no-such-flag"],
    ["analyze", "--t", "abc"],
    ["table3", "--t", "0.5"],
    ["table3", "--t", "1e5,x"],
    ["mc", "--stack", "7-1-3", "--pt", "1.5", "--trials", "100", "--workers", "1"],
    ["mc", "--pt", "0.01", "--pm", "-1", "--workers", "1"],
    ["mc", "--pt", "0.01", "--serial", "--lanes", "3", "--workers", "1"],
    ["mc", "--pt", "0.01", "--trials", "0", "--workers", "1"],
    ["mc", "--pt", "0.01", "--trials", "1.5", "--workers", "1"],
    ["sweep", "--pt", "0.01,2", "--trials", "100", "--workers", "1"],
    ["cut", "--circuit", "no-such-circuit.json"],
    ["workload", "--bits", "1"],
    ["link-timing", "--tt", "0", "--tlqec", "100", "--n", "7"],
    ["recommend", "--stack", "7-1-3+7-1-3", "--tt", "1", "--tlqec", "100", "--pt", "1e-3"],
    ["recommend", "--tt", "1", "--tlqec", "100", "--pt", "2"],
    ["mc", "--pt", "0.01", "--pm", "-1e-3", "--workers", "1"],
    ["analyze", "--targ", "0.1", "--t", "1e5"],
]

SUBCOMMANDS = ["codes", "analyze", "table3", "mc", "sweep", "cut", "dqec-cost", "workload",
               "link-timing", "recommend"]

CASES = (
    README_EXAMPLES
    + [argv + ["--format", fmt] for argv in FORMATTED for fmt in ("csv", "json", "text")]
    + OTHER
    + INVALID
    + [[], ["--help"]]
    + [[name, "--help"] for name in SUBCOMMANDS]
)


@contextlib.contextmanager
def fixed_process():
    """Pin what the CLI reads from the process: the seed env, its only input besides argv."""
    env = {k: v for k, v in os.environ.items() if k != "QLINK_SEED"}
    with mock.patch.dict(os.environ, env, clear=True):
        yield


def transcript(argv: list[str]) -> dict:
    with fixed_process():
        code, stdout, stderr = run_cli(*argv)
    return {"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr}


def _golden() -> dict:
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {tuple(entry["argv"]): entry for entry in entries}


def test_golden_file_holds_exactly_the_cases():
    assert sorted(_golden()) == sorted(tuple(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_transcript(argv):
    assert transcript(argv) == _golden()[tuple(argv)]


@pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS], ids=" ".join)
def test_help_pages_do_not_depend_on_the_terminal_width(argv, monkeypatch):
    monkeypatch.delenv("COLUMNS", raising=False)
    pages = {run_cli(*argv)}
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        pages.add(run_cli(*argv))
    assert len(pages) == 1


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([transcript(argv) for argv in CASES], indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
