"""Quantum error-correcting code descriptors and concatenation stacks."""
from __future__ import annotations

_set = object.__setattr__   # how a record's __init__ stores a field past its own __setattr__


class _Record:
    """A frozen record whose fields are its __slots__, listed once as its _fields.

    Each subclass declares `__slots__ = _fields = (...)` in declaration
    order, and an __init__ that checks its arguments and stores each field
    with _set. Equality, hashing and repr go by the field values in that
    order; pickling rebuilds a record through its constructor, so its
    checks run again. The class imports nothing, so the closed-form
    commands start without the modules a generated record class would need.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _check_int(value: int, name: str, least: int | None = None) -> int:
    """A count, seed or code parameter as a plain int: an int or numpy integer, no float or bool, >= least."""
    if type(value) is not int:   # a bool is not exactly an int either
        if isinstance(value, bool) or not hasattr(type(value), "__index__"):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = type(value).__index__(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


class QecCode(_Record):
    """An [[n, k, d]] block code descriptor.

    Only the block parameters live here; d must be odd so that the
    correctable budget (d - 1) / 2 is a whole number of errors.
    """

    __slots__ = _fields = ("n", "k", "d")

    def __init__(self, n: int, k: int, d: int):
        if not (type(n) is type(k) is type(d) is int):   # three plain ints need no conversion
            n, k, d = _check_int(n, "n"), _check_int(k, "k"), _check_int(d, "d")
        if k < 1 or n < k:
            raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
        if d < 1 or d % 2 == 0:
            raise ValueError(f"distance must be odd and >= 1, got d={d}")
        if d > n:
            raise ValueError(f"distance d={d} cannot exceed block size n={n}")
        _set(self, "n", n)
        _set(self, "k", k)
        _set(self, "d", d)

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


class CodeStack(_Record):
    """An ordered concatenation of codes, index 0 innermost (physical-facing).

    The empty stack means no coding. Every level must have k = 1; block
    sizes multiply, so a logical qubit costs scale_up physical qubits.
    """

    __slots__ = _fields = ("levels",)

    def __init__(self, levels: tuple[QecCode, ...] = ()):
        levels = tuple(levels)
        for code in levels:
            if code.k != 1:
                raise ValueError(f"only k=1 codes can be stacked, got {code.spec()}")
        _set(self, "levels", levels)

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
        return "+".join([code.spec() for code in self.levels])

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
        n, k, d = map(int, parts)
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
    return CodeStack(tuple(map(parse_code, text.split("+"))))
