"""Symbolic algebra over Pauli strings.

Strings are stored symplectically as a pair of bitmasks (x, z):
I=(0,0), X=(1,0), Y=(1,1), Z=(0,1) on each qubit.  The equivalent
base-4 digit encoding used for lexicographic ordering is
I=0, X=1, Y=2, Z=3, with qubit 0 the most significant digit; ``lex_order``
sorts arrays of strings by those digits (digit = 2z + (x xor z)), built a
byte of qubits at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from typing import Iterator

import numpy as np

DEFAULT_TOL = 1e-12
I_POWERS = np.array([1, 1j, -1, -1j])  # i^k: a string with k Ys is i^k X^x Z^z (Y = iXZ)


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

    @property
    def label(self) -> str:
        """One letter per qubit, qubit 0 first, like 'XIZY'."""
        return "".join("IXZY"[(self.x >> q & 1) | (self.z >> q & 1) << 1] for q in range(self.n))

    def __repr__(self):
        return f"PauliString({self.label!r})"


# Byte of 8 qubit bits -> those bits two apart, qubit 0 highest (bit i -> bit 14 - 2i).
_SPREAD = np.uint16([sum(1 << (14 - 2 * i) for i in range(8) if b >> i & 1) for b in range(256)])


def lex_order(n: int, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Indices that sort the strings (x[i], z[i]) on n qubits like their labels, by
    one 16-bit key of base-4 digits per byte of qubits (masks above 64 qubits are ints)."""
    d = x ^ z  # digit = 2z + (x ^ z)
    keys = [_SPREAD[(z >> q & 255).astype(np.intp)] << 1 | _SPREAD[(d >> q & 255).astype(np.intp)]
            for q in range(0, max(n, 1), 8)]
    return np.lexsort(keys[::-1])


def _term_arrays(n: int, xs: list[int], zs: list[int], coeffs: list[complex]) -> tuple:
    """The layout of ``QubitOperator.arrays``; masks above 64 qubits are ints."""
    mask = np.uint64 if n <= 64 else object
    return np.array(xs, dtype=mask), np.array(zs, dtype=mask), np.array(coeffs, dtype=complex)


class QubitOperator:
    """Weighted sum of Pauli strings on a fixed register.

    The identity component is held apart as ``constant`` and never enters
    the terms, which are ``arrays()``: distinct, non-identity strings with
    their coefficients.  ``terms`` and ``items()`` build ``PauliString``
    keys on each read.  Nothing edits an operator after construction.
    """

    def __init__(self, n: int, constant: complex = 0.0, arrays: tuple | None = None):
        self.n = n
        self.constant = complex(constant)
        self._arrays = _term_arrays(n, [], [], []) if arrays is None else arrays

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(X masks, Z masks, coefficients) in term order."""
        return self._arrays

    @property
    def terms(self) -> dict[PauliString, complex]:
        """The non-identity terms, built on each read."""
        return dict(self.items())

    def items(self) -> Iterator[tuple[PauliString, complex]]:
        x, z, c = self._arrays
        return zip(map(PauliString, repeat(self.n), x.tolist(), z.tolist()), c.tolist())

    def __len__(self) -> int:
        return len(self._arrays[2])

    def __eq__(self, other) -> bool:
        if not isinstance(other, QubitOperator):
            return NotImplemented
        return (self.n == other.n and self.constant == other.constant
                and self.terms == other.terms)

    def coefficient_norm(self) -> float:
        """Sum of |c_j| over non-identity terms (spectral-width bound)."""
        return sum(np.abs(self.arrays()[2]).tolist())

    def __repr__(self):
        return f"QubitOperator(n={self.n}, terms={len(self)}, constant={self.constant})"


@lru_cache(maxsize=None)
def _op_fields(q: int) -> tuple[str, ...]:
    """The fields (" X<q> Z<q+2>", ...) of qubits q..q+3, by nibbles x + 16 z."""
    return tuple("".join(f" {'IXZY'[(i >> k & 1) | (i >> k + 4 & 1) << 1]}{q + k}"
                         for k in range(4) if (i | i >> 4) >> k & 1) for i in range(256))


def format_terms(op: QubitOperator) -> str:
    """Serialize one term per line: ``(re,im) X0 Z1 ...``; identity has no ops."""
    x, z, coeffs = op.arrays()
    order = lex_order(op.n, x, z)
    x, z, c = x[order], z[order], coeffs[order]
    # repr is most of the cost, so each distinct float (by its bits) is written once.
    bits, at = np.unique(np.concatenate((c.real, c.imag)).view(np.int64), return_inverse=True)
    parts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)[at].tolist()
    # One table field per 4 qubits, lowest first.
    fields = [map(_op_fields(q).__getitem__, (x >> q & 15 | (z >> q & 15) << 4).tolist())
              for q in range(0, op.n, 4)]
    lines = map("".join, zip(repeat("("), parts[:len(c)], repeat(","), parts[len(c):],
                             repeat(")"), *fields, repeat("\n")))
    head = [f"({op.constant.real!r},{op.constant.imag!r})\n"] if op.constant != 0 else []
    return "".join(chain(head, lines))


def parse_terms(text: str, n_qubits: int | None = None) -> QubitOperator:
    """Inverse of :func:`format_terms`.

    Register size is inferred from the largest qubit index unless given.
    """
    terms: dict[tuple[int, int], complex] = {}  # (x, z) -> coefficient; (0, 0) the constant
    known: dict[str, tuple[int, int]] = {}  # each distinct field is checked once
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
        x = z = 0
        for f in fields[1:]:
            if f not in known:
                known[f] = _parse_op(f, n_qubits, lineno)
            fx, fz = known[f]
            x, z = x | fx, z | fz
        if (x | z).bit_count() != len(fields) - 1:
            raise ValueError(f"line {lineno}: a qubit appears twice")
        new = terms.get((x, z), 0.0) + coeff
        if not (abs(new.real) < np.inf and abs(new.imag) < np.inf):  # also false for nan
            raise ValueError(f"line {lineno}: coefficient {head!r} makes a non-finite sum")
        if new == 0:
            terms.pop((x, z), None)
        else:
            terms[x, z] = new
    # The constant sums like a term: restarting a dropped zero sum at 0.0 is exact.
    constant = terms.pop((0, 0), 0j)
    if n_qubits is None:
        n_qubits = max(((fx | fz).bit_length() for fx, fz in known.values()), default=0)
    n = max(n_qubits, 0)
    arrays = _term_arrays(n, [x for x, _ in terms], [z for _, z in terms], list(terms.values()))
    return QubitOperator(n, constant=constant, arrays=arrays)


def _parse_op(field: str, n_qubits: int | None, lineno: int) -> tuple[int, int]:
    """``X3`` -> its (X mask, Z mask) (8, 0)."""
    axis, q = field[0], field[1:]
    if axis not in "XYZ":
        raise ValueError(f"line {lineno}: bad axis {field!r}")
    if not (q.isascii() and q.isdigit()):
        raise ValueError(f"line {lineno}: bad qubit index {field!r}")
    if n_qubits is not None and int(q) >= n_qubits:
        raise ValueError(f"line {lineno}: qubit {q} outside register of size {n_qubits}")
    return (axis != "Z") << int(q), (axis != "X") << int(q)
