"""Symbolic algebra over Pauli strings.

Strings are stored symplectically as a pair of bitmasks (x, z):
I=(0,0), X=(1,0), Y=(1,1), Z=(0,1) on each qubit.  The equivalent
base-4 digit encoding used for lexicographic ordering is
I=0, X=1, Y=2, Z=3, with qubit 0 the most significant digit; ``lex_key``
reads those digits as one integer (digit = 2z + (x xor z)), built a byte
of qubits at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

AXIS_CHARS = "IXYZ"

# (x bit, z bit) per base-4 digit
_DIGIT_TO_XZ = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)}
_XZ_TO_DIGIT = {v: k for k, v in _DIGIT_TO_XZ.items()}

DEFAULT_TOL = 1e-12


class DimensionError(ValueError):
    """Raised when operands act on registers of different sizes."""


@dataclass(frozen=True, slots=True)
class PauliString:
    """An n-qubit tensor product of I/X/Y/Z, without coefficient."""

    n: int
    x: int = 0
    z: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("register size must be non-negative")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("axis bits outside the register")

    @classmethod
    def from_axes(cls, digits: Iterable[int]) -> "PauliString":
        """Build from base-4 digits, qubit 0 first."""
        x = z = 0
        n = 0
        for q, d in enumerate(digits):
            xb, zb = _DIGIT_TO_XZ[d]
            x |= xb << q
            z |= zb << q
            n = q + 1
        return cls(n, x, z)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a character string like 'XIZY' (qubit 0 first)."""
        return cls.from_axes(AXIS_CHARS.index(c) for c in label)

    @classmethod
    def from_ops(cls, n: int, ops: Mapping[int, str] | Iterable[tuple[int, str]]) -> "PauliString":
        """Build from (qubit, axis-letter) pairs on an n-qubit register."""
        items = ops.items() if isinstance(ops, Mapping) else ops
        x = z = 0
        for q, c in items:
            if not 0 <= q < n:
                raise DimensionError(f"qubit {q} outside register of size {n}")
            xb, zb = _DIGIT_TO_XZ[AXIS_CHARS.index(c)]
            x |= xb << q
            z |= zb << q
        return cls(n, x, z)

    def axis(self, q: int) -> int:
        """Base-4 digit on qubit q."""
        return _XZ_TO_DIGIT[((self.x >> q) & 1, (self.z >> q) & 1)]

    @property
    def axes(self) -> tuple[int, ...]:
        return tuple(self.axis(q) for q in range(self.n))

    @property
    def label(self) -> str:
        return "".join(AXIS_CHARS[d] for d in self.axes)

    @property
    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    @property
    def support(self) -> tuple[int, ...]:
        """Indices of non-identity qubits, ascending."""
        m = self.x | self.z
        return tuple(q for q in range(self.n) if (m >> q) & 1)

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def __repr__(self):
        return f"PauliString({self.label!r})"


# Byte of 8 qubit bits -> those bits two apart, qubit 0 highest (bit i -> bit 14 - 2i).
_SPREAD = tuple(sum(1 << (14 - 2 * i) for i in range(8) if b >> i & 1) for b in range(256))


def lex_key(s: PauliString) -> int:
    """Base-4 digits (I=0, X=1, Y=2, Z=3) read as one integer, qubit 0 most
    significant; on one register it orders strings like their labels."""
    d = s.x ^ s.z  # digit = 2z + (x ^ z)
    key = 0
    for shift in range(0, s.n, 8):
        key = key << 16 | _SPREAD[s.z >> shift & 255] << 1 | _SPREAD[d >> shift & 255]
    return key >> 2 * (-s.n % 8)  # drop the padding digits of the last byte


class QubitOperator:
    """Weighted sum of Pauli strings on a fixed register.

    The identity component is held apart as ``constant`` and never enters
    the term dictionary; duplicate strings are merged on insertion.
    """

    def __init__(self, n: int, terms: Mapping[PauliString, complex] | None = None,
                 constant: complex = 0.0):
        self.n = n
        self.constant = complex(constant)
        self._terms: dict[PauliString, complex] = {}
        if terms:
            for s, c in terms.items():
                self.add_term(c, s)

    def add_term(self, coeff: complex, string: PauliString) -> None:
        if string.n != self.n:
            raise DimensionError(f"string on {string.n} qubits, register is {self.n}")
        if string.is_identity():
            self.constant += coeff
            return
        new = self._terms.get(string, 0.0) + coeff
        if new == 0:
            self._terms.pop(string, None)
        else:
            self._terms[string] = new

    @property
    def terms(self) -> Mapping[PauliString, complex]:
        """Read-only view of the non-identity terms (not a copy)."""
        return MappingProxyType(self._terms)

    def items(self) -> Iterator[tuple[PauliString, complex]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QubitOperator):
            return NotImplemented
        return (self.n == other.n and self.constant == other.constant
                and self._terms == other._terms)

    def coefficient_norm(self) -> float:
        """Sum of |c_j| over non-identity terms (spectral-width bound)."""
        return sum(abs(c) for c in self._terms.values())

    def __repr__(self):
        return f"QubitOperator(n={self.n}, terms={len(self._terms)}, constant={self.constant})"


def format_terms(op: QubitOperator) -> str:
    """Serialize one term per line: ``(re,im) X0 Z1 ...``; identity has no ops."""
    names = [("", f"X{q}", f"Z{q}", f"Y{q}") for q in range(op.n)]  # by x bit + 2 * z bit
    lines = []
    if op.constant != 0:
        lines.append(_format_term(op.constant, PauliString(op.n), names))
    for s in sorted(op._terms, key=lex_key):
        lines.append(_format_term(op._terms[s], s, names))
    return "\n".join(lines) + ("\n" if lines else "")


def _format_term(coeff: complex, s: PauliString, names: list[tuple[str, ...]]) -> str:
    fields = [f"({coeff.real!r},{coeff.imag!r})"]
    x, z = s.x, s.z
    m = x | z
    while m:  # the set bits, lowest qubit first
        q = (m & -m).bit_length() - 1
        fields.append(names[q][(x >> q & 1) | (z >> q & 1) << 1])
        m &= m - 1
    return " ".join(fields)


def parse_terms(text: str, n_qubits: int | None = None) -> QubitOperator:
    """Inverse of :func:`format_terms`.

    Register size is inferred from the largest qubit index unless given.
    """
    entries: list[tuple[complex, list[tuple[int, str]]]] = []
    known: dict[str, tuple[int, str]] = {}  # each distinct field is checked once
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        head = fields[0]
        parts = head[1:-1].split(",")
        if not (head.startswith("(") and head.endswith(")")) or len(parts) != 2:
            raise ValueError(f"line {lineno}: malformed coefficient {head!r}, "
                             f"expected (re,im)")
        try:
            coeff = complex(float(parts[0]), float(parts[1]))
        except ValueError:
            raise ValueError(f"line {lineno}: malformed coefficient {head!r}") from None
        ops = []
        for f in fields[1:]:
            if f not in known:
                known[f] = _parse_op(f, n_qubits, lineno)
            ops.append(known[f])
        if len({q for q, _ in ops}) != len(ops):
            raise ValueError(f"line {lineno}: a qubit appears twice")
        entries.append((coeff, ops))
    max_q = max((q for q, _ in known.values()), default=-1)
    n = n_qubits if n_qubits is not None else max_q + 1
    op = QubitOperator(max(n, 0))
    for coeff, ops in entries:
        op.add_term(coeff, PauliString.from_ops(op.n, ops))
    return op


def _parse_op(field: str, n_qubits: int | None, lineno: int) -> tuple[int, str]:
    """``X3`` -> (3, "X")."""
    axis, q = field[0], field[1:]
    if axis not in "XYZ":
        raise ValueError(f"line {lineno}: bad axis {field!r}")
    if not (q.isascii() and q.isdigit()):
        raise ValueError(f"line {lineno}: bad qubit index {field!r}")
    if n_qubits is not None and int(q) >= n_qubits:
        raise ValueError(f"line {lineno}: qubit {q} outside register of size {n_qubits}")
    return int(q), axis
