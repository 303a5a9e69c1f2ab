"""The oracle accepts known-good qlink output and rejects perturbed output."""
from pathlib import Path

import pytest

import oracle

CUT = """breakpoint,telegate,teledata,direction
a,2,1,B->A
b,3,2,B->A
c,4,3,B->A
d,3,3,A->B
e,3,2,A->B
f,2,1,A->B
"""
DQEC = """{
  "per_syndrome_telegate": 17,
  "per_syndrome_teledata": 12,
  "per_cycle_telegate": 51,
  "per_cycle_teledata": 36,
  "static_cycle_at_center_cut": 9,
  "worst_case_block_teleports": 9,
  "syndromes": 3,
  "repeats": 1
}
"""
LINK_TIMING = """{
  "t_t": 1.0,
  "t_lqec": 100.0,
  "n": 7,
  "lanes": 2,
  "serial": 104.0,
  "parallel": 101.0,
  "slowdown": 1.0297029702970297,
  "start_delay_factor": 4
}
"""
WORKLOAD = """{
  "bits": 300,
  "adder": "ripple",
  "t_low": 102996826.171875,
  "t_high": 102996826.171875,
  "extrapolated": true,
  "anchor_bits": 128
}
"""
RECOMMEND = """{
  "code": "23-1-7",
  "t_t": 2.0,
  "t_lqec": 10.0,
  "p_t": 0.001,
  "p_m": 4.5454545454545455e-06,
  "choice": "parallel",
  "slowdown": 4.666666666666667,
  "reliability_ratio": 1.5328696685977423,
  "slowdown_threshold": 1.5,
  "reliability_threshold": 1.5,
  "reasons": [
    "cycle slowdown 4.667 exceeds threshold 1.5",
    "failure-probability ratio 1.533 exceeds threshold 1.5"
  ]
}
"""
ANALYZE = """{
  "stack": "7-1-3",
  "scale_up": 7,
  "t": 100000.0,
  "target_pf": 0.1,
  "mode": "leading",
  "allowable_pt": 0.0002182178902359924,
  "p_t": 0.0001,
  "block_error": 2.1e-07,
  "p_f": 0.020781037584330475,
  "linearized": 0.021,
  "linearization_valid": true
}
"""
MC = """{
  "stack": "7-1-3",
  "mode": "parallel",
  "p_t": 0.01,
  "p_m": 0.0,
  "lanes": 7,
  "trials": 200000,
  "failures": 380,
  "p_hat": 0.0019,
  "ci_low": 0.0017184770749738836,
  "ci_high": 0.0021006568639008022,
  "seed": 42,
  "workers": 1
}
"""
SWEEP = """stack,mode,p_t,p_m,trials,failures,p_hat,ci_low,ci_high,seed
7-1-3,serial,0.01,0,200000,380,0.0019,0.001718477075,0.002100656864,42
7-1-3,parallel,0.01,0,200000,380,0.0019,0.001718477075,0.002100656864,42
7-1-3,serial,0.03,0,200000,3386,0.01693,0.01637381021,0.01750474637,42
7-1-3,parallel,0.03,0,200000,3386,0.01693,0.01637381021,0.01750474637,42
"""
TABLE3_LEADING_HEAD = """stack,scale_up,t,mode,allowable_pt
none,1,100000,leading,1e-06
none,1,100000000,leading,1e-09
none,1,1e+11,leading,1e-12
"""

GOOD = [
    ("cut", {}, CUT),
    ("dqec-cost", {"syndromes": 3, "repeats": 1}, DQEC),
    ("link-timing", {"tt": 1.0, "tlqec": 100.0, "n": 7, "lanes": 2}, LINK_TIMING),
    ("workload", {"bits": 300, "adder": "ripple"}, WORKLOAD),
    ("recommend", {"stack": "23-1-7", "tt": 2.0, "tlqec": 10.0, "pt": 1e-3}, RECOMMEND),
    ("analyze", {"stack": "7-1-3", "t": 1e5, "target_pf": 0.1, "mode": "leading", "pt": 1e-4}, ANALYZE),
    ("mc", {"stack": "7-1-3", "pt": 0.01, "pm": 0.0, "serial": False, "trials": 200_000,
            "seed": 42, "workers": 1, "pinned": 380}, MC),
    ("sweep", {"stack": "7-1-3", "pts": (0.01, 0.03), "pms": (0.0,), "trials": 200_000,
               "seed": 42, "pinned": [380, 380, 3386, 3386]}, SWEEP),
]

# (case index, original text, perturbed text)
PERTURBED = [
    (0, "c,4,3,B->A", "c,3,3,B->A"),
    (1, '"per_cycle_teledata": 36', '"per_cycle_teledata": 37'),
    (2, '"serial": 104.0', '"serial": 103.0'),
    (3, '"anchor_bits": 128', '"anchor_bits": 16'),
    (4, '"choice": "parallel"', '"choice": "serial"'),
    (5, "0.0002182178902359924", "0.0002182198902359924"),
    (5, '"p_f": 0.020781037584330475', '"p_f": 0.021'),
    (6, '"failures": 380', '"failures": 381'),
    (6, '"workers": 1', '"workers": 2'),
    (7, "3386,0.01693", "3387,0.01693"),
    (7, "stack,mode,p_t", "stack,link,p_t"),
]


@pytest.mark.parametrize("kind,params,out", GOOD, ids=[g[0] for g in GOOD])
def test_accepts_known_good_output(kind, params, out):
    assert oracle.check(kind, params, 0, 0, out) == []


@pytest.mark.parametrize("case,before,after", PERTURBED)
def test_rejects_perturbed_output(case, before, after):
    kind, params, out = GOOD[case]
    assert before in out
    problems = oracle.check(kind, params, 0, 0, out.replace(before, after))
    assert problems and all(p.defect is None for p in problems)


def test_table3_rows_checked_in_order():
    problems = oracle.check("table3", {"mode": "leading"}, 0, 0, TABLE3_LEADING_HEAD)
    assert problems  # 3 of 21 rows


def test_wrong_exit_code_fails():
    assert oracle.check("cut", {}, 0, 1, "")


def test_known_defect_d1_is_tagged_not_hidden():
    # The exact-mode inversion inherits 1-(1-p_e)**t: 5.75e-3 where the root is 5.16e-3.
    out = ('{"stack": "23-1-7+23-1-7", "scale_up": 529, "t": 100000000000.0, '
           '"target_pf": 1e-06, "mode": "exact", "allowable_pt": 0.005754844951297855}')
    params = {"stack": "23-1-7+23-1-7", "t": 1e11, "target_pf": 1e-6, "mode": "exact"}
    problems = oracle.check("analyze", params, 0, 0, out)
    assert [p.defect for p in problems] == [oracle.D1]
    assert oracle.close(oracle.allowable_exact("23-1-7+23-1-7", 1e11, 1e-6), 5.16e-3, 2e-3)


def test_defect_exposure_is_predicted_from_inputs():
    exact = {"stack": "23-1-7+23-1-7", "t": 1e11, "target_pf": 1e-6, "mode": "exact"}
    assert oracle.defect_exposed("analyze", exact) == oracle.D1
    assert oracle.defect_exposed("analyze", {**exact, "target_pf": 0.1, "t": 1e5}) is None
    assert oracle.defect_exposed("analyze", {**exact, "mode": "leading"}) is None
    # p_f at a tiny p_e: 1-(1-p_e)**t loses every digit.
    tiny = {"stack": "7-1-3", "t": 1e5, "target_pf": 0.1, "mode": "leading", "pt": 1e-8}
    assert oracle.defect_exposed("analyze", tiny) == oracle.D1
    assert oracle.defect_exposed("analyze", {**tiny, "pt": 1e-3}) is None
    assert oracle.defect_exposed("table3", {"mode": "exact"}) == oracle.D1
    assert oracle.defect_exposed("table3", {"mode": "leading"}) is None
    assert oracle.defect_exposed("invalid", {"defect": oracle.D3}) == oracle.D3
    assert oracle.defect_exposed("cut", {}) is None


def test_known_defect_d2_is_tagged():
    out = '{"t": NaN}'
    problems = oracle.check("invalid", {"defect": oracle.D2}, 1, 0, out)
    assert [p.defect for p in problems] == [oracle.D2]
    assert oracle.check("invalid", {"defect": None}, 1, 0, out)[0].defect is None
    assert oracle.check("invalid", {"defect": oracle.D2}, 1, 1, "") == []


def test_non_strict_json_is_rejected():
    assert oracle.check("dqec-cost", {"syndromes": 3, "repeats": 1}, 0, 0,
                        DQEC.replace("51", "NaN"))


def test_headers_match_readme():
    readme = (Path(__file__).resolve().parents[2] / "README.md").read_text()
    for header in oracle.HEADERS.values():
        assert f"`{header}`" in readme


def test_exact_tail_oracle_against_enumeration():
    # P(X >= 2) for Binomial(7, p) by enumerating all 2^7 patterns.
    p = 0.03
    total = sum(p ** bin(b).count("1") * (1 - p) ** (7 - bin(b).count("1"))
                for b in range(128) if bin(b).count("1") >= 2)
    assert oracle.close(oracle.binomial_tail(7, 2, p), total, 1e-12)
