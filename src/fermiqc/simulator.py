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


def _zparity(indices: np.ndarray, z: int) -> np.ndarray:
    par = np.zeros(len(indices), dtype=np.int64)
    while z:
        b = (z & -z).bit_length() - 1
        par ^= (indices >> b) & 1
        z &= z - 1
    return par


def _pauli_action(s: PauliString, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns c map to rows c ^ x with the returned phases."""
    idx = np.arange(dim, dtype=np.int64)
    ny = (s.x & s.z).bit_count()
    phases = np.where(_zparity(idx, s.z) == 1, -1.0, 1.0).astype(complex)
    phases *= _I_POWERS[ny % 4]
    return idx ^ s.x, phases


def operator_matrix(op: QubitOperator, limit: int = OPERATOR_QUBIT_LIMIT) -> sp.csr_matrix:
    """Sparse matrix of the Pauli terms plus the identity constant."""
    if op.n > limit:
        raise ResourceLimitError(f"{op.n} qubits exceeds the {limit}-qubit matrix limit")
    dim = 1 << op.n
    cols = np.arange(dim, dtype=np.int64)
    total = sp.csr_matrix((dim, dim), dtype=complex)
    if op.constant != 0:
        total = total + op.constant * sp.identity(dim, format="csr", dtype=complex)
    for s, c in op.items():
        rows, phases = _pauli_action(s, dim)
        total = total + sp.csr_matrix((c * phases, (rows, cols)), shape=(dim, dim))
    return total.tocsr()


def ground_state(m: sp.spmatrix | np.ndarray, herm_tol: float = 1e-10,
                 residual_tol: float = 1e-9) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a Hermitian matrix."""
    m = sp.csr_matrix(m)
    if (abs(m - m.getH())).max() > herm_tol:
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
    src = rows
    return (phases * state)[src]


def apply_trotterized(plan: TrotterPlan, state: np.ndarray) -> np.ndarray:
    """Apply (prod_j exp(-i theta_j/2 P_j))^n using the closed form
    exp(-i phi P)|psi> = cos(phi)|psi> - i sin(phi) P|psi> (P^2 = I)."""
    dim = 1 << plan.n_qubits
    if len(state) != dim:
        raise ValueError(f"state has dimension {len(state)}, plan needs {dim}")
    psi = state.astype(complex, copy=True)
    half_angles = [0.5 * th for th in plan.angles()]
    for _ in range(plan.n_steps):
        for (string, _), phi in zip(plan.ordered_terms, half_angles):
            psi = math.cos(phi) * psi - 1j * math.sin(phi) * apply_pauli(string, psi)
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
