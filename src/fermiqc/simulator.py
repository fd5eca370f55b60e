"""Desk-scale numerics: operator matrices, ground states, symbolic Trotter
evolution on state vectors and error reports.

Qubit 0 is the least significant bit of every basis-state index, matching
the occupation-number convention of :mod:`fermiqc.fermion`.  A matrix of
at most _DENSE_DIM states is a numpy array, so scipy is imported only for a
larger sector or matrix (CSR and Lanczos), never for the molecule fixtures.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .fermion import IntegralSet, ResourceLimitError
from .mappings import MappingScheme, basis_permutation
from .pauli import I_POWERS, QubitOperator
from .trotter import TrotterPlan

if TYPE_CHECKING:
    import scipy.sparse as sp

OPERATOR_QUBIT_LIMIT = 16
_HERMITIAN_TOL = 1e-10  # max |m - m^H| that ground_state accepts
_RESIDUAL_TOL = 1e-9  # max |m v - E v| of the returned eigenpair
_BLOCK_TIE_TOL = 1e-10  # coset blocks this close to the lowest energy tie
_DENSE_DIM = 256  # largest matrix solved as a numpy array (1 MB): LiH's 225-state sector
# Bytes of column sign patterns for which evolution_tables widens its split
# past rank // 2: LiH's 252 (z, flip) keys over a whole 256-state coset take
# 1 MB, while 16 qubits keep the half split.
_SIGN_PATTERN_BUDGET = 2 << 20


class EigensolverError(RuntimeError):
    pass


def _parity(indices: np.ndarray, z: int) -> np.ndarray:
    """Parity (0 or 1) of the bits of each index under the Z mask."""
    return np.bitwise_count(indices & z) & 1


def _check_register(n: int) -> None:
    if n > OPERATOR_QUBIT_LIMIT:
        raise ResourceLimitError(f"{n} qubits exceeds the "
                                 f"{OPERATOR_QUBIT_LIMIT}-qubit matrix limit")


def sector_basis(n_spatial: int, nelec: int, ms2: int,
                 scheme: MappingScheme | str) -> np.ndarray:
    """Sorted qubit-basis indices of the states with (NELEC + MS2)/2
    electrons on the even (alpha) modes and (NELEC - MS2)/2 on the odd (beta)
    modes: the Jordan-Wigner occupation states, or for Bravyi-Kitaev their
    images under :func:`fermiqc.mappings.basis_permutation`."""
    n_up, odd = divmod(nelec + ms2, 2)
    n_down = nelec - n_up
    if odd or not (0 <= n_up <= n_spatial and 0 <= n_down <= n_spatial):
        raise ValueError(f"no sector has NELEC={nelec}, MS2={ms2} in NORB={n_spatial} "
                         f"orbitals: (NELEC + MS2)/2 and (NELEC - MS2)/2 must be whole "
                         f"numbers in 0..{n_spatial}")
    occ = np.arange(1 << n_spatial, dtype=np.int64)
    spread = np.zeros_like(occ)  # spatial orbital p -> spin-orbital 2p
    for p in range(n_spatial):
        spread |= ((occ >> p) & 1) << (2 * p)
    weight = np.bitwise_count(occ)
    states = (spread[weight == n_up] | spread[weight == n_down, None] << 1).ravel()
    return np.sort(basis_permutation(2 * n_spatial, scheme)[states])


def _matrix_entries(op: QubitOperator, cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """(rows, cols, values) of the nonzero entries of the Pauli terms plus
    the identity constant over the sorted basis-state indices ``cols``.

    Terms with X mask x fill only the entries (c ^ x, c): each X mask is one
    vector over the columns, summed in term order (the constant first on
    x = 0), so every entry is the sum term-by-term assembly makes, and no
    two masks meet at one entry.  An entry whose row c ^ x is not in
    ``cols`` is dropped: the entries are the full matrix's block there."""
    dim = len(cols)
    groups: dict[int, list[tuple[int, complex]]] = {0: []}  # x = 0 holds the constant
    for x, z, c in zip(*(a.tolist() for a in op.arrays())):
        groups.setdefault(x, []).append((z, c * I_POWERS[(x & z).bit_count() % 4]))
    rows, nz_cols, data = [], [], []
    for x, terms in groups.items():
        diag = np.full(dim, op.constant if x == 0 else 0j)
        for z, w in terms:
            diag += np.where(_parity(cols, z), -w, w)
        nz = np.flatnonzero(diag)
        image = cols[nz] ^ x
        row = np.searchsorted(cols, image).clip(max=dim - 1)
        inside = cols[row] == image
        nz = nz[inside]
        rows.append(row[inside].astype(np.int32))
        nz_cols.append(nz.astype(np.int32))
        data.append(diag[nz])
    return np.concatenate(rows), np.concatenate(nz_cols), np.concatenate(data)


def operator_matrix(op: QubitOperator, basis: np.ndarray | None = None) -> sp.csr_matrix:
    """CSR matrix of :func:`_matrix_entries` over the sorted basis-state
    indices ``basis`` (default: all 2^n of them)."""
    import scipy.sparse as sp

    _check_register(op.n)
    cols = np.arange(1 << op.n, dtype=np.int64) if basis is None else basis
    rows, nz_cols, data = _matrix_entries(op, cols)
    return sp.coo_matrix((data, (rows, nz_cols)), shape=(len(cols), len(cols))).tocsr()


def _hermitian_defect(m: sp.csr_matrix) -> float:
    """max |m - m^H|, with one matrix-sized temporary (the transpose) when
    m's sparsity pattern is symmetric, as the operator_matrix of a
    Hermitian operator is; any other pattern takes the general difference."""
    t = m.transpose().tocsr()
    if not (np.array_equal(t.indptr, m.indptr) and np.array_equal(t.indices, m.indices)):
        return abs(m - m.getH()).max()
    d = np.conjugate(t.data, out=t.data)
    return np.abs(np.subtract(m.data, d, out=d)).max(initial=0.0)


def ground_state(m: sp.spmatrix | np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a Hermitian matrix: dense ``eigh`` up to
    _DENSE_DIM states, seeded Lanczos on a CSR matrix above."""
    dim = np.shape(m)[0]
    if dim <= _DENSE_DIM:
        m = m.toarray() if hasattr(m, "toarray") else np.asarray(m)
        if np.abs(m - m.conj().T).max(initial=0.0) > _HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian")
        vals, vecs = np.linalg.eigh(m)
    else:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        m = sp.csr_matrix(m)
        if _hermitian_defect(m) > _HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian")
        try:
            # A fixed start vector makes the result repeatable bit for bit.
            v0 = np.random.default_rng(0).standard_normal(dim).astype(m.dtype)
            vals, vecs = spla.eigsh(m, k=1, which="SA", v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise EigensolverError("lowest-eigenpair iteration did not converge") from exc
    energy, vec = vals[0], vecs[:, 0]
    residual = np.linalg.norm(m @ vec - energy * vec)
    if residual > _RESIDUAL_TOL:
        raise EigensolverError(f"eigenpair residual {residual:.2e} above tolerance")
    return float(energy), vec


def sector_ground_state(qop: QubitOperator, ints: IntegralSet,
                        scheme: MappingScheme | str) -> tuple[float, np.ndarray, dict]:
    """The exact energy: the lowest eigenpair of the qubit operator's block
    over the input's NELEC/MS2 sector, with the eigenvector embedded in the
    2^n basis, and the sector as report fields.

    H conserves the alpha and the beta electron counts, so the block holds
    every nonzero entry of its columns up to rounding.  A term moves basis
    state j only to j ^ x, so the block is block-diagonal over the cosets
    j ^ span(X masks) of the sector states: the Z2 symmetries of qubit
    tapering.  Each coset's block (of a numpy array up to _DENSE_DIM states,
    else of a CSR matrix) is solved and the lowest is kept; blocks within
    _BLOCK_TIE_TOL of the minimum tie, and the one of smallest
    representative wins.  The state is thus exactly zero outside one
    coset, the only one its evolution runs over."""
    _check_register(qop.n)
    basis = sector_basis(ints.n_spatial, ints.n_electrons, ints.ms2, scheme)
    if len(basis) <= _DENSE_DIM:
        rows, cols, values = _matrix_entries(qop, basis)
        m = np.zeros((len(basis), len(basis)), complex)
        m[rows, cols] = values
    else:
        m = operator_matrix(qop, basis)
    x_basis, span = _x_span(set(qop.arrays()[0].tolist()))
    reps = basis ^ span[_pivot_coords(basis, x_basis)]
    blocks = []
    for rep in np.unique(reps).tolist():  # ascending representatives
        idx = np.flatnonzero(reps == rep)
        # A one-block sector is solved as built: slicing would copy it.
        blocks.append((*ground_state(m if len(idx) == len(basis) else m[idx][:, idx]), idx))
    lowest = min(b[0] for b in blocks)
    energy, vec, idx = next(b for b in blocks if b[0] <= lowest + _BLOCK_TIE_TOL)
    state = np.zeros(1 << qop.n, dtype=vec.dtype)
    state[basis[idx]] = vec
    return energy, state, {"nelec": ints.n_electrons, "ms2": ints.ms2,
                           "sector_dim": len(basis)}


def _x_span(xs: set[int]) -> tuple[list[int], np.ndarray]:
    """Reduced row-echelon basis of the GF(2) span of the X masks, by
    ascending pivot: each vector's top bit, which no other vector has; and
    the span table, span[k] the XOR of the basis vectors picked by the bits
    of k."""
    basis: dict[int, int] = {}  # pivot -> vector
    for x in xs:
        for p, b in basis.items():
            if x >> p & 1:
                x ^= b
        if x:
            top = x.bit_length() - 1
            for p, b in basis.items():
                if b >> top & 1:
                    basis[p] = b ^ x
            basis[top] = x
    basis = [basis[p] for p in sorted(basis)]
    span = np.zeros(1, dtype=np.int64)
    for b in basis:
        span = np.concatenate([span, span ^ b])
    return basis, span


def _pivot_coords(j, basis: list[int]):
    """Pivot coordinates: bit i of k is the bit of j at basis[i]'s pivot.
    j ^ span[k] clears every pivot bit, so it is the representative of j's
    coset j ^ span."""
    k = j & 0
    for i, b in enumerate(basis):
        k |= (j >> (b.bit_length() - 1) & 1) << i
    return k


@dataclass
class EvolutionTables:
    """What evolving one state under any plan of one operator needs: the
    reached basis states, each X mask's gather and each (z, flip) sign
    pattern pair; see :func:`evolution_tables`."""

    reached: np.ndarray  # basis state of each position, (coset, k) order
    shape: tuple[int, ...]  # of the uint64 sign view of the gathered vector
    perms: dict[int, np.ndarray]  # x -> positions gathered from
    signs: dict[tuple[int, int], tuple[np.ndarray | None, np.ndarray | None]]  # row, column


def evolution_tables(x: np.ndarray, z: np.ndarray, state: np.ndarray) -> EvolutionTables:
    """Tables for evolving ``state`` under plans whose terms are the (x, z)
    masks given, in any order and at any angles.

    j ^ x stays in the coset j ^ span(X masks), so only the cosets of the
    state's nonzero entries are laid out.  With span[k] the XOR of the basis
    vectors picked by the bits of k, amplitude rep ^ span[k] sits at position
    (coset, k), and X mask x moves it to (coset, k ^ k_x), k_x its pivot bits.
    The sign of (P|psi>)[j] is parity(z & j) ^ flip, flip = parity(z & x);
    it factorises over the rows rep ^ span[k_hi << lo] ^ r0 and the columns
    span[k_lo] ^ r0 of a (rows, 2 * 2^lo) view (real and imaginary part),
    for any offset r0.  With r0 the first representative and one row, the
    row value is 0, so the flip rides on the column pattern and the view is
    1-D: one same-shape XOR per term.  lo is the largest split, at least
    rank // 2, whose column patterns fit _SIGN_PATTERN_BUDGET; with several
    rows the flip stays on the row patterns, so each z keeps one column
    pattern."""
    xs, zs = x.tolist(), z.tolist()
    keys = {(z, (z & x).bit_count() & 1) for x, z in zip(xs, zs)}
    basis, span = _x_span(set(xs))
    rank = len(basis)
    fits = (_SIGN_PATTERN_BUDGET // (16 * len(keys))).bit_length() - 1 if keys else rank
    lo = max(rank // 2, min(rank, fits))
    nonzero = np.flatnonzero(state)
    reps = np.unique(nonzero ^ span[_pivot_coords(nonzero, basis)])
    r0 = reps[0] if len(reps) else 0
    rows = (reps[:, None] ^ span[::1 << lo] ^ r0).reshape(-1, 1)
    cols = np.repeat(span[:1 << lo] ^ r0, 2)  # real, imaginary part
    one_row = len(rows) == 1
    shared: dict[tuple, np.ndarray | None] = {}

    def pattern(vals: np.ndarray, z: int, flip: int) -> np.ndarray | None:
        """Sign bits of parity(z & vals) ^ flip, None when all zero."""
        key = (vals.ndim, z, flip)
        if key not in shared:
            bits = _parity(vals, z) ^ flip
            shared[key] = bits.astype(np.uint64) << np.uint64(63) if bits.any() else None
        return shared[key]

    pos = np.arange(len(reps) << rank, dtype=np.int64)
    return EvolutionTables(
        reached=(reps[:, None] ^ span).ravel(),
        shape=(len(cols),) if one_row else (len(rows), len(cols)),
        perms={x: pos ^ _pivot_coords(x, basis) for x in set(xs)},
        signs={(z, f): (None, pattern(cols, z, f)) if one_row
               else (pattern(rows, z, f), pattern(cols, z, 0)) for z, f in keys})


def apply_trotterized(plan: TrotterPlan, state: np.ndarray,
                      tables: EvolutionTables | None = None) -> np.ndarray:
    """Apply (prod_j exp(-i theta_j/2 P_j))^n using the closed form
    exp(-i phi P)|psi> = cos(phi)|psi> - i sin(phi) P|psi> (P^2 = I), with
    (P|psi>)[j] = i^ny (-1)^parity(z & (j ^ x)) psi[j ^ x].

    Only the reached amplitudes of ``tables`` (built from the plan and the
    state when omitted; see :func:`evolution_tables`) are evolved; every
    other amplitude stays 0.  Each term costs a gather, one or two sign-bit
    XORs into a uint64 view, a scale, a cos multiply and an add on buffers
    of the reached size, its scalars complex128 so that numpy takes its
    scalar fast path."""
    dim = 1 << plan.n_qubits
    if len(state) != dim:
        raise ValueError(f"state has dimension {len(state)}, plan needs {dim}")
    if tables is None:
        tables = evolution_tables(plan.x, plan.z, state)
    psi = state[tables.reached].astype(complex, copy=False)
    if np.count_nonzero(psi) != np.count_nonzero(state):
        raise ValueError("state has amplitudes outside the cosets of its evolution tables")
    table = [(tables.perms[x], *tables.signs[z, (x & z).bit_count() & 1],
              np.complex128(math.cos(0.5 * theta)),
              np.complex128(-1j * math.sin(0.5 * theta) * I_POWERS[(x & z).bit_count() % 4]))
             for x, z, theta in zip(plan.x.tolist(), plan.z.tolist(), plan.angles())]
    moved = np.empty_like(psi)
    bits = moved.view(np.uint64).reshape(tables.shape)
    for _ in range(plan.n_steps):
        for perm, row, col, cos, scale in table:
            # mode="wrap" spares the copy of `out` that "raise" makes; perm is in range.
            psi.take(perm, out=moved, mode="wrap")
            if row is not None:
                bits ^= row
            if col is not None:
                bits ^= col
            moved *= scale
            psi *= cos
            psi += moved
    out = np.zeros(dim, dtype=complex)
    out[tables.reached] = psi
    return out


@dataclass
class TrotterErrorReport:
    n_steps: int
    time: float
    exact_energy: float
    estimated_energy: float
    error: float
    overlap_magnitude: float
    unreliable: bool


def trotter_error(plan: TrotterPlan, exact_energy: float, ground: np.ndarray,
                  tables: EvolutionTables | None = None) -> TrotterErrorReport:
    """Phase-based energy estimate from one Trotterized evolution; ``tables``
    as for :func:`apply_trotterized`.

    The overlap <g|U|g> carries phase -E t for the exact propagator; the
    branch assumes |E t| < pi, with E excluding the scalar offset.
    """
    evolved = apply_trotterized(plan, ground, tables)
    overlap = complex(np.vdot(ground, evolved))
    mag = abs(overlap)
    estimated = -cmath.phase(overlap) / plan.time + plan.scalar_offset
    return TrotterErrorReport(
        exact_energy=exact_energy,
        estimated_energy=estimated,
        error=abs(estimated - exact_energy),
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
