import random

import pytest

from qlink.codes import CodeStack, QecCode, builtin_codes, parse_stack


def test_builtin_codes_present():
    by_params = {(c.n, c.k, c.d) for c in builtin_codes()}
    assert {(5, 1, 3), (7, 1, 3), (9, 1, 3), (23, 1, 7)} <= by_params


def test_builtin_names_unique():
    names = [c.spec() for c in builtin_codes()]
    assert len(names) == len(set(names))


def test_builtin_codes_satisfy_invariants():
    for code in builtin_codes():
        assert code.d <= code.n
        assert code.correctable == (code.d - 1) // 2
        assert code.min_fail == code.correctable + 1
        assert code.correctable + code.min_fail == code.d


@pytest.mark.parametrize(
    "n, k, d",
    [(4, 1, 5), (7, 0, 3), (3, 7, 1), (7, 1, 4), (7, 1, 0), (7, 1, -3)],
)
def test_bad_code_parameters_rejected(n, k, d):
    with pytest.raises(ValueError):
        QecCode(n, k, d)


@pytest.mark.parametrize("n, k, d, name", [(7.5, 1, 3, "n"), (7.0, 1, 3, "n"), (7, True, 3, "k"),
                                             (7, 1, 3.0, "d")])
def test_code_parameters_must_be_integers(n, k, d, name):
    # QecCode(7.5, 1, 3) used to be the code 7.5-1-3, and QecCode(7, True, 3) the code 7-True-3.
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        QecCode(n, k, d)


def test_scale_up_examples():
    assert CodeStack().scale_up == 1
    assert parse_stack("23-1-7+7-1-3").scale_up == 161
    assert parse_stack("23-1-7+23-1-7").scale_up == 529


def test_scale_up_multiplies_when_appending():
    rng = random.Random(7)
    pool = builtin_codes()
    for _ in range(50):
        levels = tuple(rng.choice(pool) for _ in range(rng.randrange(3)))
        extra = rng.choice(pool)
        stack = CodeStack(levels)
        extended = CodeStack(levels + (extra,))
        assert extended.scale_up == stack.scale_up * extra.n


def test_stack_rejects_multi_logical_codes():
    with pytest.raises(ValueError):
        CodeStack((QecCode(8, 3, 3),))


@pytest.mark.parametrize(
    "spec", ["none", "7-1-3", "23-1-7+7-1-3", "5-1-3+9-1-3", "11-1-5"]
)
def test_parse_serialize_round_trip(spec):
    stack = parse_stack(spec)
    assert stack.spec() == spec
    assert parse_stack(stack.spec()) == stack


def test_parse_is_case_insensitive_for_none():
    assert parse_stack("NONE") == CodeStack()
    assert parse_stack(" none ") == CodeStack()


@pytest.mark.parametrize("spec", ["", "7-1", "7-1-3-9", "a-b-c", "7-1-3++7-1-3"])
def test_bad_stack_specs_rejected(spec):
    with pytest.raises(ValueError):
        parse_stack(spec)


def test_inner_code_is_leftmost():
    stack = parse_stack("23-1-7+7-1-3")
    assert stack.levels[0].n == 23
    assert stack.levels[-1].n == 7
