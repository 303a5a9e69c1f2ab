"""Quantum error-correcting code descriptors and concatenation stacks."""
from __future__ import annotations

from dataclasses import dataclass


def _check_int(value: int, name: str) -> None:
    """A count, a seed or a code parameter: an int or a numpy integer, never a float or a bool."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class QecCode:
    """An [[n, k, d]] block code descriptor.

    Only the block parameters live here; d must be odd so that the
    correctable budget (d - 1) / 2 is a whole number of errors.
    """

    n: int
    k: int
    d: int

    def __post_init__(self):
        for name in ("n", "k", "d"):
            _check_int(getattr(self, name), name)
        if self.k < 1 or self.n < self.k:
            raise ValueError(f"need n >= k >= 1, got n={self.n}, k={self.k}")
        if self.d < 1 or self.d % 2 == 0:
            raise ValueError(f"distance must be odd and >= 1, got d={self.d}")
        if self.d > self.n:
            raise ValueError(f"distance d={self.d} cannot exceed block size n={self.n}")

    @property
    def correctable(self) -> int:
        """Largest number of in-block errors the code still corrects."""
        return (self.d - 1) // 2

    @property
    def min_fail(self) -> int:
        """Smallest number of in-block errors that defeats the code."""
        return (self.d + 1) // 2

    def spec(self) -> str:
        """The n-k-d token used in stack spec strings."""
        return f"{self.n}-{self.k}-{self.d}"


@dataclass(frozen=True)
class CodeStack:
    """An ordered concatenation of codes, index 0 innermost (physical-facing).

    The empty stack means no coding. Every level must have k = 1; block
    sizes multiply, so a logical qubit costs scale_up physical qubits.
    """

    levels: tuple[QecCode, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        for code in self.levels:
            if code.k != 1:
                raise ValueError(f"only k=1 codes can be stacked, got {code.spec()}")

    @property
    def scale_up(self) -> int:
        """Physical qubits per logical qubit: the product of block sizes."""
        total = 1
        for code in self.levels:
            total *= code.n
        return total

    def spec(self) -> str:
        if not self.levels:
            return "none"
        return "+".join(code.spec() for code in self.levels)

    def __len__(self):
        return len(self.levels)


def builtin_codes() -> list[QecCode]:
    """The stock single-logical-qubit codes, named by their n-k-d tokens."""
    return [
        QecCode(5, 1, 3),
        QecCode(7, 1, 3),
        QecCode(9, 1, 3),
        QecCode(23, 1, 7),
    ]


def parse_code(token: str) -> QecCode:
    """Parse one n-k-d token, e.g. '7-1-3'."""
    parts = token.strip().split("-")
    if len(parts) != 3:
        raise ValueError(f"bad code token {token!r}, expected n-k-d")
    try:
        n, k, d = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad code token {token!r}, expected three integers") from None
    return QecCode(n, k, d)


def parse_stack(spec: str) -> CodeStack:
    """Parse a stack spec string: 'none', 'CODE', or 'CODE+CODE' (inner first)."""
    text = spec.strip()
    if text.lower() == "none":
        return CodeStack()
    if not text:
        raise ValueError("empty stack spec; use 'none' for no coding")
    return CodeStack(tuple(parse_code(tok) for tok in text.split("+")))
