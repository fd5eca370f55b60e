"""Test oracles, independent of the package code they check.

Everything here is built from first principles (explicit Kronecker
products, dense linear algebra, a ladder-operator Fock-space matrix, a
gate-by-gate circuit unitary, a plain list-based peephole optimizer,
gate-by-gate circuit-file loops, term-by-term simulator loops, a
dictionary-based fermion-to-qubit expansion) so the package code under
test is never used to check itself.  The package supplies its data types
and, to the mapping reference, its per-mode ladder images.
"""

import cmath
import math

import numpy as np
import scipy.sparse as sp

from fermiqc.circuits import Circuit, Gate
from fermiqc.fermion import FermionOperator, ResourceLimitError
from fermiqc.mappings import MappingScheme, _ladder_images
from fermiqc.pauli import DEFAULT_TOL, PauliString, QubitOperator

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_MATS = (I2, SX, SY, SZ)


def pauli_matrix(s: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string with qubit 0 as the least significant bit."""
    out = np.eye(1, dtype=complex)
    for q in range(s.n):
        out = np.kron(PAULI_MATS[s.axis(q)], out)
    return out


def operator_dense(op) -> np.ndarray:
    """Dense matrix of a QubitOperator via the Kronecker oracle."""
    dim = 1 << op.n
    total = complex(op.constant) * np.eye(dim, dtype=complex)
    for s, c in op.items():
        total += c * pauli_matrix(s)
    return total


def pauli_exponential(s: PauliString, theta: float) -> np.ndarray:
    """Dense exp(-i theta/2 P) = cos(theta/2) I - i sin(theta/2) P (P^2 = I)."""
    return (math.cos(theta / 2) * np.eye(1 << s.n)
            - 1j * math.sin(theta / 2) * pauli_matrix(s))


def random_pauli_string(rng: np.random.Generator, n: int,
                        min_weight: int = 1) -> PauliString:
    while True:
        s = PauliString.from_axes(rng.integers(0, 4, size=n))
        if s.weight >= min_weight:
            return s


def random_fermion_operator(rng: np.random.Generator, n_modes: int,
                            n_products: int = 6) -> FermionOperator:
    """Random sum of ladder products with complex coefficients."""
    op = FermionOperator(n_modes, constant=float(rng.normal()))
    for _ in range(n_products):
        length = int(rng.integers(1, 5))
        factors = tuple((int(rng.integers(0, n_modes)), bool(rng.integers(0, 2)))
                        for _ in range(length))
        coeff = complex(rng.normal(), rng.normal())
        op.add(coeff, factors)
    return op


def strip_global_phase(u: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """``u`` rotated by the global phase of its overlap with ``ref``.

    The overlap vdot(ref, u) fixes one phase even when several entries tie
    in magnitude (as in every one-qubit Clifford), where a largest-entry
    pivot is ambiguous.
    """
    overlap = np.vdot(ref, u)
    if abs(overlap) < 1e-14:
        return u
    return u * (abs(overlap) / overlap)


def assert_same_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10):
    np.testing.assert_allclose(strip_global_phase(a, b), b, atol=tol, rtol=0)


# ---- Fock-space and circuit-unitary oracles ---------------------------------
# Dense or sparse matrices built operator by operator and gate by gate.

FOCK_QUBIT_LIMIT = 16
UNITARY_QUBIT_LIMIT = 10


def _ladder_matrix(mode: int, dagger: bool, n_modes: int) -> sp.csr_matrix:
    """Sparse matrix of a_i or a+_i with sign (-1)^(sum_{j<i} n_j)."""
    dim = 1 << n_modes
    states = np.arange(dim, dtype=np.int64)
    bit = np.int64(1) << mode
    if dagger:
        src = states[(states & bit) == 0]
    else:
        src = states[(states & bit) != 0]
    dst = src ^ bit
    signs = np.ones(len(src))
    parity = np.zeros(len(src), dtype=np.int64)
    for j in range(mode):
        parity ^= (src >> j) & 1
    signs[parity == 1] = -1.0
    return sp.csr_matrix((signs, (dst, src)), shape=(dim, dim))


def fock_matrix(op: FermionOperator, n_modes: int | None = None,
                limit: int = FOCK_QUBIT_LIMIT) -> sp.csr_matrix:
    """Occupation-number-basis matrix of a FermionOperator.

    Basis index bit j holds the occupation of mode j; creation operators
    carry the Jordan-Wigner sign convention of :mod:`fermiqc.fermion`.
    """
    n = op.n_modes if n_modes is None else n_modes
    if n > limit:
        raise ResourceLimitError(f"{n} modes exceeds the {limit}-qubit Fock limit")
    dim = 1 << n
    cache: dict[tuple[int, bool], sp.csr_matrix] = {}
    total = sp.csr_matrix((dim, dim), dtype=complex)
    total += op.constant * sp.identity(dim, format="csr")
    for coeff, factors in op.products:
        m = sp.identity(dim, format="csr", dtype=complex)
        # rightmost factor acts first
        for mode, dag in reversed(factors):
            key = (mode, dag)
            if key not in cache:
                cache[key] = _ladder_matrix(mode, dag, n)
            m = cache[key] @ m
        total = total + coeff * m
    return total.tocsr()


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


def circuit_unitary(c: Circuit, limit: int = UNITARY_QUBIT_LIMIT) -> np.ndarray:
    """Dense unitary of the gate sequence (columns = input basis states)."""
    if c.width > limit:
        raise ResourceLimitError(f"{c.width} qubits exceeds the {limit}-qubit unitary limit")
    u = np.eye(1 << c.width, dtype=complex)
    for g in c.gates:
        _apply_gate(g, u)
    return u


# ---- reference peephole optimizer ------------------------------------------
# The list-based greedy the package optimizer must reproduce exactly: its own
# inverse table and set-based commutation rules, an O(n) ``del`` per
# cancelled pair, and a step back of one gate after each cancellation.

_REF_DIAGONAL = frozenset({"RZ", "CZ"})
_REF_INVERSE = {"H": "H", "X": "X", "CNOT": "CNOT", "CZ": "CZ", "YB": "YBD", "YBD": "YB"}


def reference_partner(g: Gate) -> Gate | None:
    kind = _REF_INVERSE.get(g.kind)
    return None if kind is None else Gate(kind, g.qubits)


def reference_commute(a: Gate, b: Gate) -> bool:
    if not set(a.qubits) & set(b.qubits):
        return True
    if a.kind in _REF_DIAGONAL and b.kind in _REF_DIAGONAL:
        return True
    if a.kind == "CNOT" and b.kind == "CNOT":
        return a.qubits[1] != b.qubits[0] and b.qubits[1] != a.qubits[0]
    for first, second in ((a, b), (b, a)):
        if first.kind in _REF_DIAGONAL and second.kind == "CNOT":
            return second.qubits[1] not in first.qubits
    return False


def _reference_commute_pass(gates: list[Gate], window: int | None) -> list[Gate]:
    gates = list(gates)
    i = 0
    while i < len(gates):
        g = gates[i]
        partner = reference_partner(g)
        if partner is None:
            i += 1
            continue
        j = i + 1
        limit = len(gates) if window is None else min(len(gates), i + 1 + window)
        hit = None
        while j < limit:
            if gates[j] == partner:
                hit = j
                break
            if not reference_commute(g, gates[j]):
                break
            j += 1
        if hit is None:
            i += 1
        else:
            del gates[hit]
            del gates[i]
            i = max(i - 1, 0)
    return gates


def _reference_segments(c: Circuit, cross_step: bool) -> list[list[Gate]]:
    if cross_step or not c.barriers:
        return [list(c.gates)]
    bounds = [0, *c.barriers, len(c.gates)]
    return [c.gates[a:b] for a, b in zip(bounds, bounds[1:])]


def _reference_rebuild(c: Circuit, segments: list[list[Gate]]) -> Circuit:
    gates: list[Gate] = []
    barriers: list[int] = []
    for k, seg in enumerate(segments):
        if k:
            barriers.append(len(gates))
        gates.extend(seg)
    return Circuit(c.n_qubits, gates, ancilla=c.ancilla, barriers=barriers)


def reference_cancel_adjacent(c: Circuit, cross_step: bool = False) -> Circuit:
    segs = []
    for seg in _reference_segments(c, cross_step):
        out: list[Gate] = []
        for g in seg:
            if out and reference_partner(out[-1]) == g:
                out.pop()
            else:
                out.append(g)
        segs.append(out)
    return _reference_rebuild(c, segs)


def reference_commute_and_cancel(c: Circuit, cross_step: bool = False,
                                 window: int | None = None) -> Circuit:
    return _reference_rebuild(c, [_reference_commute_pass(seg, window)
                                  for seg in _reference_segments(c, cross_step)])


def reference_optimize(c: Circuit, cross_step: bool = False, window: int | None = None,
                       passes: list[int] | None = None) -> Circuit:
    """Both passes to fixpoint; appends each round's nonzero removal to ``passes``."""
    current = c
    while True:
        before = len(current.gates)
        current = reference_cancel_adjacent(current, cross_step)
        current = reference_commute_and_cancel(current, cross_step, window)
        removed = before - len(current.gates)
        if passes is not None and removed:
            passes.append(removed)
        if removed == 0:
            return current


# ---- reference circuit-file writer and reader ------------------------------
# The gate-by-gate loops the package must reproduce on every circuit file:
# every gate formatted afresh, every line parsed into a new validated Gate.

def reference_format_circuit(c: Circuit) -> str:
    lines = [f"QUBITS {c.n_qubits} ANCILLA {1 if c.ancilla else 0}"]
    for g in c.gates:
        if g.kind == "RZ":
            lines.append(f"RZ {g.qubits[0]} {g.angle!r}")
        else:
            lines.append(f"{g.kind} {' '.join(str(q) for q in g.qubits)}")
    return "\n".join(lines) + "\n"


_REF_FIELDS = {"H": 2, "X": 2, "YB": 2, "YBD": 2, "RZ": 3, "CNOT": 3, "CZ": 3}


def reference_parse_circuit(text: str) -> Circuit:
    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        head = raw.strip()
        if head and raw[0] != "#":
            break
    else:
        raise ValueError("empty circuit file")
    fields = head.split()
    try:
        if len(fields) != 4 or fields[0] != "QUBITS" or fields[2] != "ANCILLA":
            raise ValueError
        circ = Circuit(int(fields[1]), ancilla=bool(int(fields[3])))
    except ValueError:
        raise ValueError(f"line {lineno}: bad circuit header {head!r}") from None

    def qubit(text: str) -> int:
        q = int(text)
        if not 0 <= q < circ.width:
            raise ValueError(f"qubit {q} outside register of width {circ.width}")
        return q

    try:
        for lineno, raw in lines:
            ln = raw.strip()
            if not ln or raw[0] == "#":
                continue
            fields = ln.split()
            kind = fields[0]
            if len(fields) != _REF_FIELDS.get(kind):
                if kind not in _REF_FIELDS:
                    raise ValueError(f"unknown gate kind {kind!r}")
                raise ValueError(f"{kind} takes {_REF_FIELDS[kind] - 1} operands, "
                                 f"got {len(fields) - 1}")
            if kind == "RZ":
                circ.gates.append(Gate("RZ", (qubit(fields[1]),), float(fields[2])))
            else:
                circ.gates.append(Gate(kind, tuple(qubit(f) for f in fields[1:])))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    return circ


# ---- reference simulator kernels -------------------------------------------
# The term-by-term loops the package kernels must reproduce bit for bit: a
# per-bit parity loop, one CSR matrix added per term, and every term's
# action rebuilt at every Trotter step.

def _reference_zparity(indices: np.ndarray, z: int) -> np.ndarray:
    par = np.zeros(len(indices), dtype=np.int64)
    while z:
        b = (z & -z).bit_length() - 1
        par ^= (indices >> b) & 1
        z &= z - 1
    return par


def _reference_pauli_action(s: PauliString, dim: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(dim, dtype=np.int64)
    ny = (s.x & s.z).bit_count()
    phases = np.where(_reference_zparity(idx, s.z) == 1, -1.0, 1.0).astype(complex)
    phases *= (1.0, 1.0j, -1.0, -1.0j)[ny % 4]
    return idx ^ s.x, phases


def reference_operator_matrix(op) -> sp.csr_matrix:
    dim = 1 << op.n
    cols = np.arange(dim, dtype=np.int64)
    total = sp.csr_matrix((dim, dim), dtype=complex)
    if op.constant != 0:
        total = total + op.constant * sp.identity(dim, format="csr", dtype=complex)
    for s, c in op.items():
        rows, phases = _reference_pauli_action(s, dim)
        total = total + sp.csr_matrix((c * phases, (rows, cols)), shape=(dim, dim))
    return total.tocsr()


def reference_apply_trotterized(plan, state: np.ndarray) -> np.ndarray:
    psi = state.astype(complex, copy=True)
    half_angles = [0.5 * th for th in plan.angles()]
    for _ in range(plan.n_steps):
        for (string, _), phi in zip(plan.ordered_terms, half_angles):
            rows, phases = _reference_pauli_action(string, len(psi))
            psi = math.cos(phi) * psi - 1j * math.sin(phi) * (phases * psi)[rows]
    return psi


# ---- reference mapping and term-file writer ---------------------------------
# The entry-by-entry loops the package must reproduce exactly: each ladder
# product doubles a list of (c, x, z) entries per factor, one dictionary sums
# the entries in order, and the terms are written in tuple-of-digits order.

def reference_map_operator(op: FermionOperator, scheme: MappingScheme,
                           tol: float = DEFAULT_TOL) -> QubitOperator:
    scheme = MappingScheme(scheme)
    n = op.n_modes
    imgs = _ladder_images(n, scheme)
    acc: dict[tuple[int, int], complex] = {}
    for coeff, factors in op.products:
        entries = [(complex(coeff), 0, 0)]
        for mode, dagger in factors:
            fx, z_sym, z_anti = imgs[mode]
            half = 0.5 if dagger else -0.5
            new = []
            for c, x, z in entries:
                sign = -1.0 if (z & fx).bit_count() & 1 else 1.0
                new.append((0.5 * sign * c, x ^ fx, z ^ z_sym))
                new.append((half * sign * c, x ^ fx, z ^ z_anti))
            entries = new
        for c, x, z in entries:
            acc[x, z] = acc.get((x, z), 0.0) + c
    out = QubitOperator(n, constant=op.constant)
    for (x, z), c in acc.items():
        coeff = c * (1.0, -1.0j, -1.0, 1.0j)[(x & z).bit_count() % 4]
        if x == 0 and z == 0:
            out.constant += coeff
        elif abs(coeff) > tol:
            out.add_term(coeff, PauliString(n, x, z))
    return out


def reference_lex_key(s: PauliString) -> tuple[int, ...]:
    return tuple(s.axis(q) for q in range(s.n))


def reference_format_terms(op: QubitOperator) -> str:
    def line(coeff, s):
        ops = " ".join(f"{'IXYZ'[s.axis(q)]}{q}" for q in range(s.n) if s.axis(q))
        return f"({coeff.real!r},{coeff.imag!r}) {ops}".rstrip()

    lines = [line(op.constant, PauliString(op.n))] if op.constant != 0 else []
    lines += [line(c, s) for s, c in sorted(op.items(), key=lambda t: reference_lex_key(t[0]))]
    return "\n".join(lines) + ("\n" if lines else "")
