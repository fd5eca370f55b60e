"""Desk-scale numerics: sparse operator matrices, ground states, symbolic
Trotter evolution on state vectors and error reports.

Qubit 0 is the least significant bit of every basis-state index, matching
the occupation-number convention of :mod:`fermiqc.fermion`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fermion import ResourceLimitError
from .pauli import PauliString, QubitOperator
from .trotter import TrotterPlan

OPERATOR_QUBIT_LIMIT = 16
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
