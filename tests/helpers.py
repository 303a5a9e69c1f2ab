"""Independent oracles shared across the test suite.

Everything here deliberately avoids the library's own code paths: binomial
coefficients come from Pascal's triangle or factorials, tails from explicit enumeration,
rounding, compounded failure, a stack's exact tail, link fault rates, the exactly-m event
probability, the serial-penalty ratio and the leading-order inversion from
decimal arithmetic, that ratio's small-rate limit and the leading-order
block error from exact fractions,
Monte Carlo counts from whole-block draws decoded once per rate, critical
words from a full sort of every block, encoder validity from a numpy
stabilizer tableau reduced to row echelon form, and cut costs from a
per-cut, per-gate side test, with breakpoint names from an enumeration of
letter strings, and the in-motion budget from sums over those costs. The
term-by-term float tail is a rounding pin, not an oracle: the exact-tail
block error must match it bit for bit; so is the plain bisection, whose
double the exact-mode allowable rate must be. The malformed circuit
files at the end are shared by the library and CLI
tests that must both reject them. The paired-Wilson ratio interval, the
circuit writers and the gate-deletion mutant builder are test tools, not
oracles: the library neither pairs estimates nor writes circuit files. So
are the CLI's former cell formatter, kept as a pin for the exact-type
dispatch, and the in-process CLI runner at the very end.
"""
import contextlib
import io
import itertools
import json
import math
import string
import sys
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from qlink.analytic import p_stack_block_error
from qlink.cli import main
from qlink.montecarlo import wilson_interval


def round_sig(value: float, figs: int) -> float:
    """Round to a number of significant figures, halves away from zero."""
    if value == 0:
        return 0.0
    exponent = math.floor(math.log10(abs(value)))
    quantum = Decimal(1).scaleb(exponent - figs + 1)
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def exact_failure(p_e: float, t: float) -> float:
    """1 - (1 - p_e)^t for p_e in [0, 1), in decimal arithmetic.

    The float inputs convert to Decimal exactly, and the working precision
    grows as p_e and t shrink, so p_e does not vanish against 1 and
    1 - exp(t * ln(1 - p_e)) keeps 40 significant digits; the only rounding
    left that matters is the final conversion to float.
    """
    p, count = Decimal(p_e), Decimal(t)
    with localcontext() as ctx:
        ctx.prec = 40 + max(0, -p.adjusted()) + max(0, -count.adjusted())
        return float(1 - ((1 - p).ln() * count).exp())


def pascal_row(n: int) -> list[int]:
    """Row n of Pascal's triangle, built by addition only."""
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row


def _working_precision(*rates: Decimal) -> int:
    """Digits that keep 40 significant ones in 1 - rate for every rate given."""
    return 40 + max(0, *(-rate.adjusted() for rate in rates))


def union_fault(p_t: float, p_m: float, slots: int) -> float:
    """1 - (1 - p_t)(1 - p_m)^slots, the chance of at least one event, in decimal arithmetic."""
    p, q = Decimal(p_t), Decimal(p_m)
    with localcontext() as ctx:
        ctx.prec = _working_precision(p, q)
        return float(1 - (1 - p) * ((1 - q) ** slots if slots else 1))   # decimal 0 ** 0 is undefined


def _exactly_m_events(n: int, m: int, p: Decimal, q: Decimal) -> Decimal:
    """P(m events) in the current decimal context, at teleportation rate p and memory rate q.

    Memory errors strike at the aggregated waiting rate 1 - (1 - q)^(n-1),
    and m events split into i memory and m - i teleportation errors.
    """
    coefficients = pascal_row(n)

    def power(base, exponent):   # decimal 0 ** 0 is undefined
        return base**exponent if exponent else 1

    def term(j, rate):
        return coefficients[j] * power(rate, j) * power(1 - rate, n - j)

    wait = 1 - power(1 - q, n - 1)
    return sum(term(i, wait) * term(m - i, p) for i in range(m + 1))


def exactly_m_events(n: int, m: int, p_t: float, p_m: float) -> float:
    """P(m events) with memory errors, in decimal arithmetic."""
    p, q = Decimal(p_t), Decimal(p_m)
    with localcontext() as ctx:
        ctx.prec = _working_precision(p, q)
        return float(_exactly_m_events(n, m, p, q))


def event_ratio(n: int, m: int, p_t: float, p_m: float) -> float:
    """P(m events) with memory errors over P(m events) without, in decimal arithmetic."""
    p, q = Decimal(p_t), Decimal(p_m)
    with localcontext() as ctx:
        ctx.prec = _working_precision(p, q)
        return float(_exactly_m_events(n, m, p, q) / _exactly_m_events(n, m, p, Decimal(0)))


def leading_penalty_limit(n: int, m: int) -> float:
    """The event ratio's p_t -> 0 limit when the aggregated memory rate is p_t / 10.

    Only the lowest order survives: sum_i C(n, i) C(n, m - i) / 10^i over C(n, m).
    """
    coefficients = pascal_row(n)
    total = sum(Fraction(coefficients[i] * coefficients[m - i], 10**i) for i in range(m + 1))
    return float(total / coefficients[m])


def _choose(n: int, m: int) -> int:
    """C(n, m) from factorials."""
    return math.factorial(n) // (math.factorial(m) * math.factorial(n - m))


def leading_block_error(n: int, m: int, q: float) -> float:
    """C(n, m) q^m in exact fractions, correctly rounded to a double, or inf past the float range."""
    try:
        return float(_choose(n, m) * Fraction(q) ** m)
    except OverflowError:
        return math.inf


def leading_inversion(levels, t: float, target_pf: float) -> float:
    """The leading-order allowable rate in 50-digit decimal: q -> (q / C(n, m))^(1/m) from target_pf / t.

    `levels` lists the stack's codes innermost first; they are peeled outer first.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        q = Decimal(target_pf) / Decimal(t)
        for code in reversed(levels):
            q = (q / _choose(code.n, code.min_fail)) ** (Decimal(1) / code.min_fail)
        return float(q)


def weight_tail(n: int, m: int, p: float) -> float:
    """P(at least m errors) summed over error weights."""
    coefficients = pascal_row(n)
    return sum(coefficients[w] * p**w * (1.0 - p) ** (n - w) for w in range(m, n + 1))


def term_by_term_tail(n: int, m: int, q: float) -> float:
    """P(at least m errors) in floats: each term C(n, j) q^j (1 - q)^(n - j) formed anew, summed
    in rising j by plain additions, and capped at 1.

    Not an oracle of the true tail: it pins how the exact-tail block error
    rounds, so that reusing a coefficient or 1 - q across terms, which must
    not move a bit, is seen to move none. math.comb gives the coefficients.
    A term whose q^j lies below the normal float range raises q's mantissa
    instead and applies q's binary exponent last, as the library does.
    """
    total = 0.0
    for j in range(m, n + 1):
        power = q**j
        if power < sys.float_info.min:
            mantissa, scale = math.frexp(q)
            total += math.ldexp(math.comb(n, j) * mantissa**j * (1.0 - q) ** (n - j), scale * j)
        else:
            total += math.comb(n, j) * power * (1.0 - q) ** (n - j)
    return min(total, 1.0)


def decimal_stack_tail(levels, p_t: float) -> Decimal:
    """A stack's exact-tail block error in 60-digit decimal arithmetic, levels inner to outer.

    Pascal's triangle gives the coefficients, and decimal exponents do not
    underflow, so the only rounding is at the 60th digit.
    """
    q = Decimal(p_t)
    with localcontext() as ctx:
        ctx.prec = 60
        for code in levels:
            row = pascal_row(code.n)
            q = sum(row[j] * q**j * (1 - q) ** (code.n - j) for j in range(code.min_fail, code.n + 1))
    return q


def bisected_allowable_pt(stack, t: float, target_pf: float, mode) -> float:
    """The exact-mode allowable rate by plain bisection: every midpoint evaluated.

    Not an oracle of the true root: the float tail is monotone only to its
    rounding, and the bisection's double is the answer by definition, which
    allowable_pt must give bit for bit while it skips the midpoints its
    bracket decides. The budget, the (0, 0.5) start, the 1e-9 relative stop
    and the subnormal break are the library's.
    """
    budget = -math.expm1(math.log1p(-target_pf) / t)
    lo, hi = 0.0, 0.5
    if p_stack_block_error(stack, hi, mode) <= budget:
        return hi
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if p_stack_block_error(stack, mid, mode) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def pattern_tail(n: int, m: int, p: float) -> float:
    """P(at least m errors) summed over all 2^n error patterns."""
    total = 0.0
    for bits in range(1 << n):
        weight = bin(bits).count("1")
        if weight >= m:
            total += p**weight * (1.0 - p) ** (n - weight)
    return total


def reference_block_failures(faulty, levels):
    """Every level's block-failure mask under majority decoding, innermost first.

    `levels` lists (n, d) per code level, innermost first; a block fails
    with at least (d + 1) // 2 failed members, counted in int64. With no
    levels each qubit is its own top-level block, so the list is [faulty].
    """
    rows, width = faulty.shape
    masks = [faulty]
    for n, d in levels:
        width //= n
        masks.append(masks[-1].reshape(rows, width, n).sum(axis=2, dtype=np.int64) >= (d + 1) // 2)
    return masks[1:] or masks


def reference_decode(faulty, levels):
    """Trials whose top-level block fails under majority decoding."""
    return reference_block_failures(faulty, levels)[-1].any(axis=1)


def reference_critical_words(words, levels):
    """Every trial's critical word: it fails at a cut iff this word is below it.

    Level by level, each block's word is the (d + 1) // 2-th smallest of its
    members' words, taken from a full sort of every block; nothing is
    pruned. An uncoded qubit's critical word is its own word.
    """
    rows, width = words.shape
    for n, d in levels:
        width //= n
        words = np.sort(words.reshape(rows, width, n), axis=2)[:, :, (d + 1) // 2 - 1]
    return words[:, 0]


def reference_uniforms(seed: int, block: int, rows: int, width: int) -> np.ndarray:
    """Trial block `block`'s uniforms, drawn whole from Philox(key=seed).jumped(block)."""
    return np.random.Generator(np.random.Philox(key=seed).jumped(block)).random((rows, width))


def reference_failures(levels, rates, trials: int, seed: int) -> list[int]:
    """Failure counts of a trial run, one count per fault rate, by brute force.

    Trials come in blocks of 2**14; block j is drawn whole as
    reference_uniforms, one uniform per qubit, and every rate thresholds and
    decodes the block on its own.
    """
    block = 1 << 14
    width = math.prod(n for n, _ in levels)
    counts = [0] * len(rates)
    for j in range(-(-trials // block)):
        rows = min(block, trials - j * block)
        uniforms = reference_uniforms(seed, j, rows, width)
        for k, q in enumerate(rates):
            counts[k] += int(reference_decode(uniforms < q, levels).sum())
    return counts


def paired_ratio_ci(serial: int, parallel: int) -> tuple[float, float]:
    """95% interval of the serial/parallel failure ratio S / P from one shared draw.

    On the same draws every parallel failure is a serial one, so given S
    serial failures P is Binomial(S, p_par / p_ser), and S / P is bounded
    by the inverted Wilson interval of P out of S. Needs P > 0.
    """
    low, high = wilson_interval(parallel, serial)
    return 1.0 / high, 1.0 / low


def _rref_gf2(matrix: np.ndarray) -> np.ndarray:
    """Reduced row echelon form over GF(2), zero rows dropped."""
    mat = matrix.astype(np.uint8).copy() % 2
    n_rows, n_cols = mat.shape
    pivot_row = 0
    for col in range(n_cols):
        hit = np.nonzero(mat[pivot_row:, col])[0]
        if hit.size == 0:
            continue
        swap = pivot_row + hit[0]
        mat[[pivot_row, swap]] = mat[[swap, pivot_row]]
        others = np.nonzero(mat[:, col])[0]
        for r in others:
            if r != pivot_row:
                mat[r] ^= mat[pivot_row]
        pivot_row += 1
        if pivot_row == n_rows:
            break
    return mat[mat.any(axis=1)]


def _in_row_space(vector: np.ndarray, rref: np.ndarray) -> bool:
    stacked = np.vstack([rref, vector % 2])
    return _rref_gf2(stacked).shape[0] == rref.shape[0]


def _pauli_string(row: np.ndarray, n: int) -> str:
    chars = []
    for q in range(n):
        x, z = row[q], row[n + q]
        chars.append("IXZY"[x + 2 * z])
    return "".join(chars)


def reference_validate(circuit, stabilizers) -> tuple[bool, tuple[str, ...], tuple[str, ...]]:
    """(ok, missing, extra) of an encoder, from a numpy (x | z) tableau and GF(2) RREF.

    Simulates the all-zeros tableau through the circuit's H and CNOT gates
    column by column, then compares the prepared rows' span with the span of
    the X checks, Z checks and logical Z in `stabilizers`.
    """
    h_x, h_z, logical_z = (np.atleast_2d(np.asarray(m, dtype=np.uint8)) for m in stabilizers)
    n = circuit.n_qubits
    if h_x.shape[1] != n or h_z.shape[1] != n or logical_z.shape[1] != n:
        raise ValueError("stabilizer row length does not match the circuit width")

    # Start from |0...0>: generators Z_0 .. Z_{n-1}, rows laid out as (x | z).
    tableau = np.zeros((n, 2 * n), dtype=np.uint8)
    tableau[:, n:] = np.eye(n, dtype=np.uint8)
    for gate in circuit.gates:
        if gate.kind == "H":
            (q,) = gate.qubits
            tableau[:, [q, n + q]] = tableau[:, [n + q, q]]
        elif gate.kind == "CNOT":
            c, t = gate.qubits
            tableau[:, t] ^= tableau[:, c]
            tableau[:, n + c] ^= tableau[:, n + t]
        else:
            raise ValueError(f"unsupported gate kind {gate.kind}")

    expected = np.zeros((h_x.shape[0] + h_z.shape[0] + logical_z.shape[0], 2 * n), dtype=np.uint8)
    expected[: h_x.shape[0], :n] = h_x
    expected[h_x.shape[0] : h_x.shape[0] + h_z.shape[0], n:] = h_z
    expected[h_x.shape[0] + h_z.shape[0] :, n:] = logical_z

    prepared_rref = _rref_gf2(tableau)
    expected_rref = _rref_gf2(expected)
    missing = tuple(
        _pauli_string(row, n) for row in expected if not _in_row_space(row, prepared_rref)
    )
    extra = tuple(
        _pauli_string(row, n) for row in tableau if not _in_row_space(row, expected_rref)
    )
    return not (missing or extra), missing, extra


def breakpoint_name(index: int) -> str:
    """The index-th (from 1) of a..z, then aa..zz, then aaa..: every letter string, shortest first."""
    names = ("".join(letters) for size in itertools.count(1)
             for letters in itertools.product(string.ascii_lowercase, repeat=size))
    return next(itertools.islice(names, index - 1, None))


def reference_cut_table(circuit) -> list[tuple[str, int, int, str]]:
    """(breakpoint, telegate, teledata, direction) at every cut, left to right.

    Cut i puts layout positions < i on node A and is named breakpoint_name(i).
    Each CNOT is tested at each cut for operands on both sides. Teledata
    ships the smaller side toward the larger one, and an even split builds
    on side A.
    """
    n = circuit.n_qubits
    rows = []
    for index in range(1, n):
        crossing = 0
        for gate in circuit.gates:
            if gate.kind == "CNOT":
                sides = {circuit.qubit_order.index(q) < index for q in gate.qubits}
                crossing += len(sides) == 2
        left, right = index, n - index
        teledata, direction = (left, "B->A") if left < right else (right, "A->B")
        rows.append((breakpoint_name(index), crossing, teledata, direction))
    return rows


def budget_from_cut_table(rows, syndromes: int, repeats: int) -> dict:
    """dqec_budget's fields as sums and maxima over (breakpoint, telegate, teledata, direction) rows.

    The centre cut is index (n + 1) // 2, row (n - 1) // 2 of the n - 1 rows.
    """
    measurements = syndromes * repeats
    telegate = sum(row[1] for row in rows)
    teledata = sum(row[2] for row in rows)
    return {"per_syndrome_telegate": telegate, "per_syndrome_teledata": teledata,
            "per_cycle_telegate": measurements * telegate, "per_cycle_teledata": measurements * teledata,
            "static_cycle_at_center_cut": measurements * rows[len(rows) // 2][2],
            "worst_case_block_teleports": measurements * max(row[2] for row in rows),
            "syndromes": syndromes, "repeats": repeats}


def reference_fmt_number(value) -> str:
    """A table or text cell as the CLI wrote it before its exact-type dispatch: the cells' pin."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


# A three-qubit circuit file, and files that int() and tuple() coercion once
# read as a different circuit (or, the last one, that lack a key).
CIRCUIT_JSON = {"n": 3, "order": [2, 0, 1], "gates": [{"kind": "H", "q": [0]}, {"kind": "CNOT", "q": [0, 2]}]}
MALFORMED_CIRCUIT_JSON = {
    "float n": {**CIRCUIT_JSON, "n": 3.9},
    "float order entry": {**CIRCUIT_JSON, "order": [2, 0, 1.5]},
    "string q": {**CIRCUIT_JSON, "gates": [{"kind": "CNOT", "q": "02"}]},
    "float q": {**CIRCUIT_JSON, "gates": [{"kind": "CNOT", "q": [0, 2.9]}]},
    "bool q": {**CIRCUIT_JSON, "gates": [{"kind": "CNOT", "q": [True, 2]}]},
    "object gates": {**CIRCUIT_JSON, "gates": {}},
    "no gates": {"n": 3, "order": [0, 1, 2]},
}


# --------------------------------------------------------------------------
# Circuit files: {"n": int, "order": [...], "gates": [{"kind": .., "q": [..]}]}
# --------------------------------------------------------------------------

def circuit_to_dict(circuit) -> dict:
    return {
        "n": circuit.n_qubits,
        "order": list(circuit.qubit_order),
        "gates": [{"kind": g.kind.value, "q": list(g.qubits)} for g in circuit.gates],
    }


def save_circuit(circuit, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(circuit_to_dict(circuit), handle, indent=2)
        handle.write("\n")


def without_gate(circuit, index: int):
    """Copy of the circuit with one gate removed (mutation testing helper)."""
    if not 0 <= index < len(circuit.gates):
        raise ValueError(f"gate index {index} out of range")
    gates = circuit.gates[:index] + circuit.gates[index + 1 :]
    return type(circuit)(circuit.n_qubits, circuit.qubit_order, gates)


class CliRun(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run_cli(*argv: str) -> CliRun:
    """qlink.cli.main(argv) in this process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return CliRun(code, out.getvalue(), err.getvalue())
