"""The CLI's exit-code and output contract on generated argv.

Each case runs one closed-form command in-process with options drawn from
boundary values (0, 0.5, 1, the smallest subnormal, 1e308), non-finite
strings, integers past float precision and range, and code stacks from the
one-qubit code to two levels and beyond, blocks too wide for their binomial
coefficients to be doubles among them. Whatever the input:

- the exit code is 0 or 1 (2 would be an internal error);
- on exit 1, stdout is empty and stderr holds the message;
- on exit 0, JSON output parses strictly and is what json.dumps(...,
  indent=2) writes of what it parsed to, and CSV output starts with the
  command's header;
- the exit code is the same in every output format.
"""
import json

from helpers import run_cli
from hypothesis import example, given, settings
from hypothesis import strategies as st

NUMBERS = st.one_of(
    st.sampled_from(["0", "0.5", "1", "5e-324", "1e308", "-1", "7", "1e5", "1e-3", "nan", "inf",
                     "-inf", "1e400", str(2**53 + 1), str(2**64), "1" + "0" * 400, "abc"]),
    st.floats(0.0, 1.0).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(2**70), 2**70).map(str),
)
FIVE_LEVELS = "+".join(["23-1-7"] * 5)
STACKS = st.sampled_from(["none", "1-1-1", "5-1-3", "7-1-3", "23-1-7", "1-1-1+1-1-1", "1-1-1+7-1-3",
                          "7-1-3+7-1-3", "7-1-3+23-1-7", "23-1-7+23-1-7", "7-1-3+7-1-3+7-1-3",
                          FIVE_LEVELS, "2001-1-3", "2001-1-1001", "2001-1-2001", "1100-1-3", "7-1-4",
                          "7-1"])
FORMATS = ["csv", "json", "text"]
MODES = st.sampled_from(["leading", "exact"])


def _listed(values):
    return st.lists(values, min_size=1, max_size=3).map(",".join)


# Per command: (required options, optional options), each with its values.
COMMANDS = {
    "analyze": ({"--t": NUMBERS},
                {"--stack": STACKS, "--target-pf": NUMBERS, "--pt": NUMBERS, "--mode": MODES}),
    "table3": ({}, {"--t": _listed(NUMBERS), "--stack": _listed(STACKS), "--target-pf": NUMBERS,
                    "--mode": MODES}),
    "workload": ({"--bits": NUMBERS}, {"--adder": st.sampled_from(["ripple", "lookahead"])}),
    "link-timing": ({"--tt": NUMBERS, "--tlqec": NUMBERS, "--n": NUMBERS}, {"--lanes": NUMBERS}),
    "recommend": ({"--tt": NUMBERS, "--tlqec": NUMBERS, "--pt": NUMBERS},
                  {"--stack": STACKS, "--pm": NUMBERS, "--slowdown-threshold": NUMBERS,
                   "--reliability-threshold": NUMBERS}),
    "dqec-cost": ({}, {"--syndromes": NUMBERS, "--repeats": NUMBERS}),
}
CSV_HEADERS = {
    "analyze": "stack,scale_up,t,target_pf,mode,allowable_pt",
    "table3": "stack,scale_up,t,mode,allowable_pt\n",
    "workload": "bits,adder,t_low,t_high,extrapolated,anchor_bits\n",
    "link-timing": "t_t,t_lqec,n,lanes,serial,parallel,slowdown,start_delay_factor\n",
    "recommend": "code,t_t,t_lqec,p_t,p_m,choice,slowdown,reliability_ratio,slowdown_threshold,"
                 "reliability_threshold,reasons\n",
    "dqec-cost": "per_syndrome_telegate,per_syndrome_teledata,per_cycle_telegate,per_cycle_teledata,"
                 "static_cycle_at_center_cut,worst_case_block_teleports,syndromes,repeats\n",
}


@st.composite
def commands(draw):
    """A command and its options, without --format."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    argv = [command]
    for flag, values in required.items():
        argv += [flag, draw(values)]
    for flag, values in optional.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


def argvs():
    return st.tuples(commands(), st.sampled_from(FORMATS)).map(lambda pair: pair[0] + ["--format", pair[1]])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=200, deadline=None)
@given(argv=argvs())
@example(argv=["recommend", "--tt", "1", "--tlqec", "100", "--pt", "1e-3", "--stack", "1-1-1",
               "--format", "json"])
@example(argv=["analyze", "--t", "1e308", "--target-pf", "5e-324", "--mode", "exact", "--format",
               "json"])
@example(argv=["link-timing", "--tt", "5e-324", "--tlqec", "1e308", "--n", str(2**64),
               "--format", "csv"])
@example(argv=["analyze", "--stack", "7-1-3", "--t", "1.7e308", "--pt", "0.49", "--format", "csv"])
@example(argv=["analyze", "--stack", FIVE_LEVELS, "--t", "1", "--pt", "0.49", "--format", "json"])
@example(argv=["analyze", "--stack", "2001-1-3", "--t", "1e5", "--mode", "exact", "--format", "json"])
@example(argv=["analyze", "--stack", "2001-1-1001", "--t", "1e5", "--format", "json"])
@example(argv=["analyze", "--stack", "2001-1-1001", "--t", "1e5", "--pt", "0.001", "--format", "json"])
@example(argv=["analyze", "--stack", "1100-1-3", "--t", "1e5", "--pt", "0.01", "--mode", "exact",
               "--format", "json"])
@example(argv=["table3", "--stack", "2001-1-3", "--mode", "exact", "--t", "1e5", "--format", "csv"])
@example(argv=["recommend", "--stack", "2001-1-2001", "--tt", "1", "--tlqec", "1", "--pt", "1e-3",
               "--format", "json"])
def test_exit_code_and_output_contract(argv):
    code, stdout, stderr = run_cli(*argv)
    assert code in (0, 1), stderr
    if code == 1:
        assert stdout == ""
        assert stderr
    elif argv[-1] == "json":   # and the CLI's writer prints what json itself would
        assert stdout == json.dumps(json.loads(stdout, parse_constant=_reject_constant), indent=2) + "\n"
    elif argv[-1] == "csv":
        assert stdout.startswith(CSV_HEADERS[argv[0]])


@settings(max_examples=100, deadline=None)
@given(argv=commands())
@example(argv=["analyze", "--stack", "7-1-3", "--t", "1.7e308", "--pt", "0.49"])
@example(argv=["analyze", "--stack", FIVE_LEVELS, "--t", "1", "--pt", "0.49"])
def test_exit_code_does_not_depend_on_the_format(argv):
    codes = {fmt: run_cli(*argv, "--format", fmt).exit_code for fmt in FORMATS}
    assert len(set(codes.values())) == 1, codes
