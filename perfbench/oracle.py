"""Output checks that do not trust the code they check.

Term files, circuit files and reports are read with parsers written here,
gate counts are recomputed in closed form from Pauli weights, and circuit
unitaries are built from this module's own gate matrices.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass

import numpy as np

# Hartree.  Repeated identical `--error` runs differ by at most ~1e-13 here
# (ARPACK's random start vector; see README), real changes by >= 1e-7.
ERROR_TOL = 1e-10
# Reports on registers this small use dense `eigh` and must repeat exactly.
EXACT_QUBIT_LIMIT = 6
# Report fields (trotter-error JSON, bench CSV) that carry that jitter.
ERROR_FIELDS = ("exact_energy", "estimated_energy", "error", "overlap_magnitude",
                "trotter_error")


@dataclass(frozen=True)
class Counts:
    total: int
    entangling: int
    single: int
    nonclifford: int

    def __add__(self, other: "Counts") -> "Counts":
        return Counts(self.total + other.total, self.entangling + other.entangling,
                      self.single + other.single, self.nonclifford + other.nonclifford)


ZERO = Counts(0, 0, 0, 0)


@dataclass
class TermFile:
    """A parsed Pauli term file: identity constant plus (coeff, {qubit: axis})."""

    constant: complex
    terms: list[tuple[complex, dict[int, str]]]

    def norm2(self) -> float:
        """|const|^2 + sum |c_j|^2, i.e. Tr(H^2)/2^n; unchanged by a Clifford re-encoding."""
        return abs(self.constant) ** 2 + sum(abs(c) ** 2 for c, _ in self.terms)


def parse_terms(text: str) -> TermFile:
    """Read ``(re,im) X0 Z3 ...`` lines; a line with no operators is the constant."""
    constant = 0j
    terms = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        re_s, im_s = fields[0].strip("()").split(",")
        coeff = complex(float(re_s), float(im_s))
        ops = {int(f[1:]): f[0] for f in fields[1:]}
        if ops:
            terms.append((coeff, ops))
        else:
            constant += coeff
    return TermFile(constant, terms)


def term_counts(ops: dict[int, str], mode: str) -> Counts:
    """Closed-form gates of one exponentiated term: a basis-change pair per X/Y
    qubit, a parity ladder (2(w-1) CNOT/CZ, or 2w onto an ancilla), one RZ."""
    w = len(ops)
    single = 2 * sum(1 for a in ops.values() if a in "XY")
    entangling = 2 * w if mode == "ancilla" else 2 * (w - 1)
    return Counts(single + entangling + 1, entangling, single, 1)


def plan_counts(terms: TermFile, mode: str, steps: int = 1) -> Counts:
    total = ZERO
    for _, ops in terms.terms:
        total = total + term_counts(ops, mode)
    return Counts(*(steps * v for v in (total.total, total.entangling,
                                        total.single, total.nonclifford)))


def encoding_errors(jw: TermFile, bk: TermFile, rel: float = 1e-9,
                    imag_tol: float = 1e-10) -> list[str]:
    """JW and BK encodings of one Hermitian operator share the constant and
    the norm, and both have real Pauli coefficients."""
    errors = []
    if abs(jw.constant - bk.constant) > rel * max(1.0, abs(jw.constant)):
        errors.append(f"constant differs: jw {jw.constant} bk {bk.constant}")
    if abs(jw.norm2() - bk.norm2()) > rel * max(1.0, jw.norm2()):
        errors.append(f"norm differs: jw {jw.norm2()!r} bk {bk.norm2()!r}")
    for name, t in (("jw", jw), ("bk", bk)):
        worst = max([abs(t.constant.imag)] + [abs(c.imag) for c, _ in t.terms])
        if worst > imag_tol:
            errors.append(f"{name} has an imaginary coefficient {worst:.2e}")
    return errors


@dataclass
class CircuitFile:
    n_qubits: int
    ancilla: bool
    gates: list[tuple[str, tuple[int, ...], float | None]]

    @property
    def width(self) -> int:
        return self.n_qubits + self.ancilla

    def counts(self) -> Counts:
        ent = sum(1 for k, _, _ in self.gates if k in ("CNOT", "CZ"))
        rz = sum(1 for k, _, _ in self.gates if k == "RZ")
        return Counts(len(self.gates), ent, len(self.gates) - ent - rz, rz)


def parse_circuit(text: str) -> CircuitFile:
    """Read a ``QUBITS n ANCILLA a`` header then one ``KIND q.. [angle]`` per line."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    _, n, _, anc = lines[0]
    gates = []
    for fields in lines[1:]:
        kind = fields[0]
        if kind == "RZ":
            gates.append((kind, (int(fields[1]),), float(fields[2])))
        else:
            gates.append((kind, tuple(int(f) for f in fields[1:]), None))
    return CircuitFile(int(n), anc == "1", gates)


_S = 1 / math.sqrt(2)
GATES_1Q = {
    "H": np.array([[_S, _S], [_S, -_S]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    # YB: quarter X rotation exp(-i pi/4 X), so YB^dag Z YB = Y.
    "YB": np.array([[_S, -1j * _S], [-1j * _S, _S]], dtype=complex),
    "YBD": np.array([[_S, 1j * _S], [1j * _S, _S]], dtype=complex),
}
GATES_2Q = {  # first index is the first listed qubit (control for CNOT)
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
}


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def circuit_unitary(c: CircuitFile) -> np.ndarray:
    """Dense unitary; qubit q is bit q of the basis index."""
    w = c.width
    u = np.eye(1 << w, dtype=complex).reshape((2,) * w + (1 << w,))
    for kind, qubits, angle in c.gates:
        m = rz(angle) if kind == "RZ" else GATES_1Q.get(kind, GATES_2Q.get(kind))
        axes = [w - 1 - q for q in qubits]
        k = len(qubits)
        u = np.tensordot(m.reshape((2,) * 2 * k), u, axes=(list(range(k, 2 * k)), axes))
        u = np.moveaxis(u, list(range(k)), axes)
    return u.reshape(1 << w, 1 << w)


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    k = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    phase = a[k] / b[k]
    return abs(abs(phase) - 1) <= tol and np.max(np.abs(a - phase * b)) <= tol


def read_bench_csv(text: str) -> dict[tuple, dict[str, str]]:
    """Rows keyed by (system, mapping, ordering, seed, mode)."""
    rows = csv.DictReader(io.StringIO(text))
    return {(r["system"], r["mapping"], r["ordering"], r["seed"], r["mode"]): r for r in rows}


def row_counts(row: dict[str, str], prefix: str) -> Counts | None:
    vals = [row[f"{prefix}_{k}"] for k in ("total", "entangling", "single", "nonclifford")]
    return None if "" in vals else Counts(*(int(v) for v in vals))


def same_within(a: dict, b: dict, n_qubits: int) -> bool:
    """Exact equality, except ERROR_FIELDS within ERROR_TOL above EXACT_QUBIT_LIMIT."""
    if n_qubits <= EXACT_QUBIT_LIMIT:
        return a == b
    if a.keys() != b.keys():
        return False
    for k in a:
        if k in ERROR_FIELDS and a[k] not in ("", None) and b[k] not in ("", None):
            if abs(float(a[k]) - float(b[k])) > ERROR_TOL:
                return False
        elif a[k] != b[k]:
            return False
    return True


def fixture_energy(fcidump_text: str) -> float:
    """The ``# fci_energy = E`` comment a bundled fixture records."""
    for line in fcidump_text.splitlines():
        if line.startswith("#") and "fci_energy" in line:
            return float(line.split("=")[1])
    raise ValueError("fixture records no fci_energy")


def synthetic_fcidump(n: int, seed: int) -> str:
    """Dense random integrals over n spatial orbitals (n electrons), unique
    8-fold-symmetric elements only, uniform in [-1, 1]; same seed, same file."""
    rng = random.Random(seed)
    lines = [f"&FCI NORB={n},NELEC={n},MS2=0,", " ORBSYM=" + "1," * n, " ISYM=1,", "&END"]
    for p in range(1, n + 1):
        for q in range(1, p + 1):
            for r in range(1, p + 1):
                for s in range(1, (q if r == p else r) + 1):
                    lines.append(f"{rng.uniform(-1, 1): .16e} {p} {q} {r} {s}")
    for p in range(1, n + 1):
        for q in range(1, p + 1):
            lines.append(f"{rng.uniform(-1, 1): .16e} {p} {q} 0 0")
    lines.append(f"{rng.uniform(-1, 1): .16e} 0 0 0 0")
    return "\n".join(lines) + "\n"
