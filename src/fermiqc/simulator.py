"""Desk-scale numerics: sparse operator matrices, ground states, symbolic
Trotter evolution on state vectors, circuit unitaries and error reports.

Qubit 0 is the least significant bit of every basis-state index, matching
the occupation-number convention of the Fock-space oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .circuits import Circuit, Gate
from .fermion import ResourceLimitError
from .pauli import PauliString, QubitOperator
from .trotter import TrotterPlan

OPERATOR_QUBIT_LIMIT = 16
UNITARY_QUBIT_LIMIT = 10
_I_POWERS = (1.0, 1.0j, -1.0, -1.0j)


class EigensolverError(RuntimeError):
    def __init__(self, message: str, iterations: int | None = None):
        super().__init__(message)
        self.iterations = iterations


def _parity(indices: np.ndarray, z: int) -> np.ndarray:
    """Parity (0 or 1) of the bits of each index under the Z mask."""
    return np.bitwise_count(indices & z) & 1


def _y_phase(s: PauliString) -> complex:
    """i^ny, the phase of P = i^ny X^x Z^z (Y = iXZ)."""
    return _I_POWERS[(s.x & s.z).bit_count() % 4]


def _pauli_action(s: PauliString, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns c map to rows c ^ x with the returned phases."""
    idx = np.arange(dim, dtype=np.int64)
    phases = np.where(_parity(idx, s.z), -1.0, 1.0).astype(complex)
    phases *= _y_phase(s)
    return idx ^ s.x, phases


def operator_matrix(op: QubitOperator, limit: int = OPERATOR_QUBIT_LIMIT) -> sp.csr_matrix:
    """Sparse matrix of the Pauli terms plus the identity constant.

    Terms with X mask x fill only the entries (c ^ x, c): each X mask is one
    vector over the columns, summed in term order (the constant first on
    x = 0), so every entry is the sum term-by-term assembly makes."""
    if op.n > limit:
        raise ResourceLimitError(f"{op.n} qubits exceeds the {limit}-qubit matrix limit")
    dim = 1 << op.n
    cols = np.arange(dim, dtype=np.int64)
    groups: dict[int, list[tuple[int, complex]]] = {0: []}  # x = 0 holds the constant
    for s, c in op.items():
        groups.setdefault(s.x, []).append((s.z, c * _y_phase(s)))
    rows, nz_cols, data = [], [], []
    for x, terms in groups.items():
        diag = np.full(dim, op.constant if x == 0 else 0j)
        for z, w in terms:
            diag += np.where(_parity(cols, z), -w, w)
        nz = np.flatnonzero(diag).astype(np.int32)
        rows.append(nz ^ np.int32(x))
        nz_cols.append(nz)
        data.append(diag[nz])
    coo = sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(nz_cols))),
                        shape=(dim, dim))
    del rows, nz_cols, data  # the pieces would otherwise live through the CSR copy
    return coo.tocsr()


def _hermitian_defect(m: sp.csr_matrix) -> float:
    """max |m - m^H|, with one matrix-sized temporary (the transpose) when
    m's sparsity pattern is symmetric, as every operator_matrix's is."""
    t = m.transpose().tocsr()
    if not (np.array_equal(t.indptr, m.indptr) and np.array_equal(t.indices, m.indices)):
        return abs(m - m.getH()).max()
    d = np.conjugate(t.data, out=t.data)
    return np.abs(np.subtract(m.data, d, out=d)).max(initial=0.0)


def ground_state(m: sp.spmatrix | np.ndarray, herm_tol: float = 1e-10,
                 residual_tol: float = 1e-9) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a Hermitian matrix."""
    m = sp.csr_matrix(m)
    if _hermitian_defect(m) > herm_tol:
        raise ValueError("matrix is not Hermitian")
    dim = m.shape[0]
    if dim <= 64:
        vals, vecs = np.linalg.eigh(m.toarray())
        energy, vec = vals[0], vecs[:, 0]
    else:
        try:
            # A fixed start vector makes the result repeatable bit for bit.
            v0 = np.random.default_rng(0).standard_normal(dim).astype(m.dtype)
            vals, vecs = spla.eigsh(m, k=1, which="SA", v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise EigensolverError("lowest-eigenpair iteration did not converge",
                                   iterations=getattr(exc, "maxiter", None)) from exc
        energy, vec = vals[0], vecs[:, 0]
    residual = np.linalg.norm(m @ vec - energy * vec)
    if residual > residual_tol:
        raise EigensolverError(f"eigenpair residual {residual:.2e} above tolerance")
    return float(energy), vec


def apply_pauli(s: PauliString, state: np.ndarray) -> np.ndarray:
    rows, phases = _pauli_action(s, len(state))
    # xor-indexing is an involution: out[j] = phase[j^x] * state[j^x]
    return (phases * state)[rows]


def apply_trotterized(plan: TrotterPlan, state: np.ndarray) -> np.ndarray:
    """Apply (prod_j exp(-i theta_j/2 P_j))^n using the closed form
    exp(-i phi P)|psi> = cos(phi)|psi> - i sin(phi) P|psi> (P^2 = I).

    (P|psi>)[j] = i^ny (-1)^parity(z & (j ^ x)) psi[j ^ x]: the permutations
    (one per X mask), sign flips and scalars are built once per plan."""
    dim = 1 << plan.n_qubits
    if len(state) != dim:
        raise ValueError(f"state has dimension {len(state)}, plan needs {dim}")
    idx = np.arange(dim, dtype=np.int64)
    perms = {x: idx ^ x for x in {s.x for s, _ in plan.ordered_terms}}
    table = [(perms[s.x], _parity(perms[s.x], s.z).astype(bool), math.cos(0.5 * theta),
              -1j * math.sin(0.5 * theta) * _y_phase(s))
             for (s, _), theta in zip(plan.ordered_terms, plan.angles())]
    psi = state.astype(complex, copy=True)
    moved = np.empty_like(psi)
    for _ in range(plan.n_steps):
        for perm, flip, cos, scale in table:
            # mode="wrap" spares the copy of `out` that "raise" makes; perm is in range.
            np.take(psi, perm, out=moved, mode="wrap")
            np.negative(moved, out=moved, where=flip)
            moved *= scale
            psi *= cos
            psi += moved
    return psi


@dataclass
class TrotterErrorReport:
    mapping: str
    ordering: str
    n_steps: int
    time: float
    exact_energy: float
    estimated_energy: float
    error: float
    overlap_magnitude: float
    unreliable: bool


def trotter_error(plan: TrotterPlan, exact_energy: float, ground: np.ndarray,
                  ordering: str = "", mapping: str = "") -> TrotterErrorReport:
    """Phase-based energy estimate from one Trotterized evolution.

    The overlap <g|U|g> carries phase -E t for the exact propagator; the
    branch assumes |E t| < pi, with E excluding the scalar offset.
    """
    evolved = apply_trotterized(plan, ground)
    overlap = complex(np.vdot(ground, evolved))
    mag = abs(overlap)
    estimated = -cmath.phase(overlap) / plan.time + plan.scalar_offset
    return TrotterErrorReport(
        exact_energy=exact_energy,
        estimated_energy=estimated,
        error=abs(estimated - exact_energy),
        ordering=ordering,
        mapping=mapping,
        n_steps=plan.n_steps,
        time=plan.time,
        overlap_magnitude=mag,
        unreliable=mag < 0.5,
    )


def safe_evolution_time(op: QubitOperator, requested: float = 1.0) -> float:
    """Shrink the evolution time until sum|c_j| * t stays inside the
    phase branch |E t| < pi."""
    bound = op.coefficient_norm()
    if bound * requested < 0.9 * math.pi:
        return requested
    return 0.9 * math.pi / bound


_SQ = 1.0 / math.sqrt(2.0)
_GATE_1Q = {
    "H": np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "YB": _SQ * np.array([[1, -1j], [-1j, 1]], dtype=complex),
    "YBD": _SQ * np.array([[1, 1j], [1j, 1]], dtype=complex),
}


def _apply_gate(g: Gate, arr: np.ndarray) -> None:
    """Apply one gate in place to arr of shape (dim, ...)."""
    dim = arr.shape[0]
    idx = np.arange(dim, dtype=np.int64)
    if g.kind == "RZ":
        q = g.qubits[0]
        bit = (idx >> q) & 1
        phase = np.where(bit == 1, cmath.exp(0.5j * g.angle), cmath.exp(-0.5j * g.angle))
        arr *= phase.reshape((dim,) + (1,) * (arr.ndim - 1))
        return
    if g.kind == "CNOT":
        c, t = g.qubits
        sel = idx[(((idx >> c) & 1) == 1) & (((idx >> t) & 1) == 0)]
        arr[[*sel, *(sel | (1 << t))]] = arr[[*(sel | (1 << t)), *sel]]
        return
    if g.kind == "CZ":
        a, b = g.qubits
        sel = (((idx >> a) & 1) == 1) & (((idx >> b) & 1) == 1)
        arr[sel] *= -1.0
        return
    q = g.qubits[0]
    m = _GATE_1Q[g.kind]
    i0 = idx[((idx >> q) & 1) == 0]
    i1 = i0 | (1 << q)
    a0 = arr[i0].copy()
    a1 = arr[i1]
    arr[i0] = m[0, 0] * a0 + m[0, 1] * a1
    arr[i1] = m[1, 0] * a0 + m[1, 1] * a1


def apply_circuit(c: Circuit, state: np.ndarray) -> np.ndarray:
    out = state.astype(complex, copy=True)
    for g in c.gates:
        _apply_gate(g, out)
    return out


def circuit_unitary(c: Circuit, limit: int = UNITARY_QUBIT_LIMIT) -> np.ndarray:
    """Dense unitary of the gate sequence (columns = input basis states)."""
    if c.width > limit:
        raise ResourceLimitError(f"{c.width} qubits exceeds the {limit}-qubit unitary limit")
    u = np.eye(1 << c.width, dtype=complex)
    for g in c.gates:
        _apply_gate(g, u)
    return u


def pauli_exponential(s: PauliString, theta: float) -> np.ndarray:
    """Dense exp(-i theta/2 P), the per-term synthesis oracle."""
    dim = 1 << s.n
    rows, phases = _pauli_action(s, dim)
    p = np.zeros((dim, dim), dtype=complex)
    p[rows, np.arange(dim)] = phases
    return math.cos(theta / 2) * np.eye(dim) - 1j * math.sin(theta / 2) * p
