"""Test oracles, independent of the package code they check.

Everything here is built from first principles (explicit Kronecker
products, dense linear algebra, a ladder-operator Fock-space matrix, a
gate-by-gate circuit unitary, a term ordering over (string, coefficient)
pairs, per-term Gate lists for Trotter circuits, a plain list-based
peephole optimizer, gate-by-gate circuit-file loops, term-by-term
simulator loops, an XOR closure of basis states, a nested-loop Hamiltonian construction and its
normal-ordered merge, a dictionary-based fermion-to-qubit expansion, a
block-doubled Bravyi-Kitaev matrix, a closed-form gate tally of one term
circuit, a dictionary sum of (coefficient, string) pairs into a qubit
operator) so the package code under test is never used to check itself.
The package supplies its data types and, to the mapping reference, its
per-mode ladder images.
"""

import cmath
import math
import random

import numpy as np
import scipy.sparse as sp

from fermiqc.circuits import SYNTHESIS_MODES, Circuit, Gate, GateCounts
from fermiqc.fermion import FermionOperator, ResourceLimitError
from fermiqc.mappings import MappingScheme, _ladder_images
from fermiqc.pauli import DEFAULT_TOL, PauliString, QubitOperator
from fermiqc.trotter import OrderingStrategy, TrotterPlan, plan_for

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI_MATS = (I2, SX, SY, SZ)


def pauli(label: str) -> PauliString:
    """The string of a label like 'XIZY', qubit 0 first."""
    masks = (sum(1 << q for q, c in enumerate(label) if c in axes) for axes in ("XY", "YZ"))
    return PauliString(len(label), *masks)


def qubit_operator(n: int, terms, constant: complex = 0.0) -> QubitOperator:
    """The operator of (coefficient, PauliString) pairs, summed in a dict as
    a term file's lines sum: a sum keeps its place, an exact-zero sum leaves,
    a new string goes last, and ``0.0 + c`` clears -0.0 parts.  Identity
    strings add to the constant."""
    acc: dict[tuple[int, int], complex] = {}
    constant = complex(constant)
    for c, s in terms:
        assert s.n == n, (s, n)
        if not s.x | s.z:
            constant += c
            continue
        new = acc.get((s.x, s.z), 0.0) + c
        if new == 0:
            acc.pop((s.x, s.z), None)
        else:
            acc[s.x, s.z] = new
    mask = np.uint64 if n <= 64 else object
    arrays = (np.array([x for x, _ in acc], dtype=mask), np.array([z for _, z in acc], dtype=mask),
              np.array(list(acc.values()), dtype=complex))
    return QubitOperator(n, constant, arrays=arrays)


def _digit(s: PauliString, q: int) -> int:
    """The axis of qubit q as a base-4 digit: I=0, X=1, Y=2, Z=3."""
    return (0, 1, 3, 2)[(s.x >> q & 1) | (s.z >> q & 1) << 1]


def pauli_matrix(s: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string with qubit 0 as the least significant bit."""
    out = np.eye(1, dtype=complex)
    for q in range(s.n):
        out = np.kron(PAULI_MATS[_digit(s, q)], out)
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
        if n < 63:  # rng.integers draws int64
            s = PauliString(n, *(int(m) for m in rng.integers(0, 1 << n, size=2)))
        else:
            s = PauliString(n, *(sum(int(b) << q for q, b in enumerate(bits))
                                 for bits in rng.integers(0, 2, size=(2, n))))
        if (s.x | s.z).bit_count() >= min_weight:
            return s


def random_fermion_operator(rng: np.random.Generator, n_modes: int,
                            n_products: int = 6) -> FermionOperator:
    """Random sum of ladder products with complex coefficients."""
    constant, products = float(rng.normal()), []
    for _ in range(n_products):
        length = int(rng.integers(1, 5))
        factors = tuple((int(rng.integers(0, n_modes)), bool(rng.integers(0, 2)))
                        for _ in range(length))
        products.append((complex(rng.normal(), rng.normal()), factors))
    return FermionOperator.from_products(n_modes, products, constant)


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
    width = c.n_qubits + c.ancilla
    if width > limit:
        raise ResourceLimitError(f"{width} qubits exceeds the {limit}-qubit unitary limit")
    u = np.eye(1 << width, dtype=complex)
    for g in c.gates:
        _apply_gate(g, u)
    return u


# ---- reference circuit synthesis -------------------------------------------
# Every term's gates built afresh as validated Gates, concatenated in plan
# order with the term's own angle, and the step repeated per Trotter step.

def _reference_basis(s: PauliString, qubits) -> tuple[list[Gate], list[Gate]]:
    pre, post = [], []
    for q in qubits:
        if _digit(s, q) == 1:
            pre.append(Gate("H", (q,)))
            post.append(Gate("H", (q,)))
        elif _digit(s, q) == 2:
            pre.append(Gate("YB", (q,)))
            post.append(Gate("YBD", (q,)))
    return pre, post


def _reference_ladder(qubits) -> list[Gate]:
    return [Gate("CNOT", (a, b)) for a, b in zip(qubits, qubits[1:])]


def _reference_canonical(s: PauliString, theta: float) -> list[Gate]:
    support = [q for q in range(s.n) if _digit(s, q)]
    pre, post = _reference_basis(s, support)
    ladder = _reference_ladder(support)
    return [*pre, *ladder, Gate("RZ", (support[-1],), theta), *reversed(ladder),
            *reversed(post)]


def _reference_basis_shift(s: PauliString, theta: float) -> list[Gate]:
    support = [q for q in range(s.n) if _digit(s, q)]
    central, rest = support[-1], support[:-1]
    cut = (len(rest) + 1) // 2
    couple = "CZ" if _digit(s, central) == 1 else "CNOT"
    halves = []
    for group in (g for g in (rest[:cut], rest[cut:]) if g):
        pre, post = _reference_basis(s, group)
        chain = _reference_ladder(group)
        k = Gate(couple, (group[-1], central))
        halves.append(([*pre, *chain, k], [k, *reversed(chain), *reversed(post)]))
    pre, post = _reference_basis(s, (central,))
    gates = [g for first, _ in halves for g in first]
    gates += [*pre, Gate("RZ", (central,), theta), *post]
    for _, second in reversed(halves):
        gates += second
    return gates


def _reference_ancilla(s: PauliString, theta: float) -> list[Gate]:
    support = [q for q in range(s.n) if _digit(s, q)]
    pre, post = _reference_basis(s, support)
    return [*pre, *(Gate("CNOT", (q, s.n)) for q in support), Gate("RZ", (s.n,), theta),
            *(Gate("CNOT", (q, s.n)) for q in reversed(support)), *reversed(post)]


_REFERENCE_TERM_GATES = {"canonical": _reference_canonical,
                         "basis_shift": _reference_basis_shift,
                         "ancilla": _reference_ancilla}


def reference_synthesize_plan(plan: TrotterPlan, mode: str) -> Circuit:
    step: list[Gate] = []
    for (s, _), theta in zip(plan.ordered_terms, plan.angles()):
        step += _REFERENCE_TERM_GATES[mode](s, theta)
    return stepped(plan.n_qubits, step, plan.n_steps, ancilla=mode == "ancilla")


def term_plan(s: PauliString, theta: float) -> TrotterPlan:
    """The one-step plan of exp(-i theta/2 P): its one angle, 2 (theta/2)
    (1/1), is theta exactly."""
    return TrotterPlan(s.n, np.array([s.x]), np.array([s.z]), np.array([theta / 2]), 1, 1.0)


def stepped(n: int, step: list[Gate], n_steps: int, ancilla: bool = False) -> Circuit:
    """The circuit of ``n_steps`` copies of ``step``, seams between them."""
    one = Circuit.from_gates(n, step, ancilla)
    return Circuit(n, one.keys, one.angles, n_steps, ancilla)


def reference_gate_counts(gates: list[Gate]) -> GateCounts:
    entangling = sum(len(g.qubits) == 2 for g in gates)
    rz = sum(g.kind == "RZ" for g in gates)
    return GateCounts(len(gates), entangling, len(gates) - entangling - rz, rz)


def term_gate_counts(string: PauliString, mode: str = "canonical") -> GateCounts:
    """Closed-form gate tally of one term circuit, without materializing it;
    acceptance criterion 6 sums it over the terms of large registers."""
    if mode not in SYNTHESIS_MODES:
        raise ValueError(f"unknown synthesis mode {mode!r}")
    w = (string.x | string.z).bit_count()
    if w == 0:
        return GateCounts(0, 0, 0, 0)
    single = 2 * string.x.bit_count()  # a basis change on each side of every X or Y
    # basis_shift has the canonical multiset: basis pairs move inward, each
    # group contributes (|group|-1) chain CNOTs plus one coupling per side.
    ent = 2 * w if mode == "ancilla" else 2 * (w - 1)
    return GateCounts(single + ent + 1, ent, single, 1)


def random_plan(rng: np.random.Generator, max_qubits: int = 8) -> TrotterPlan:
    """A plan of a few random terms, under a random ordering, time and step count."""
    n = int(rng.integers(1, max_qubits + 1))
    constant = float(rng.normal())
    op = qubit_operator(n, [(float(rng.normal()), random_pauli_string(rng, n))
                            for _ in range(int(rng.integers(1, 9)))], constant)
    kind = str(rng.choice(OrderingStrategy.KINDS))
    strategy = OrderingStrategy(kind, int(rng.integers(100)) if kind == "random" else None)
    return plan_for(op, strategy, int(rng.integers(1, 4)), float(rng.uniform(0.1, 2.0)))


def _reference_magnitude_sorted(terms: list[tuple[PauliString, complex]],
                                descending: bool) -> list[tuple[PauliString, complex]]:
    # ``terms`` come in lex order and sorted() is stable, so ties keep lex order;
    # magnitudes rank in whole steps of 2^-40, rounded half to even.
    sign = -1 if descending else 1
    return sorted(terms, key=lambda t: sign * round(abs(t[1]) * 2**40))


def reference_order_terms(op: QubitOperator,
                          strategy: OrderingStrategy) -> list[tuple[PauliString, complex]]:
    """The operator's (string, coefficient) pairs in the strategy's order,
    ordered as objects: a lex sort by digit tuples, sorted() by magnitude,
    a shuffle of the pairs and a set of the strings already taken."""
    terms = sorted(op.items(), key=lambda t: reference_lex_key(t[0]))
    if strategy.kind == "lex":
        return terms
    if strategy.kind == "magnitude":
        return _reference_magnitude_sorted(terms, strategy.descending_magnitude)
    if strategy.kind == "random":
        rng = random.Random(strategy.seed)
        shuffled = list(terms)
        rng.shuffle(shuffled)
        return shuffled
    # lexomag: alternate the lex and magnitude streams, lex first,
    # skipping terms already emitted.
    mag = _reference_magnitude_sorted(terms, strategy.descending_magnitude)
    streams = [iter(terms), iter(mag)]
    emitted: set[PauliString] = set()
    out: list[tuple[PauliString, complex]] = []
    turn = 0
    while len(out) < len(terms):
        for cand in streams[turn]:
            if cand[0] not in emitted:
                emitted.add(cand[0])
                out.append(cand)
                break
        turn ^= 1
    return out


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


def reference_stops(gates: list[Gate], window: int | None, block: int,
                    lookahead: int) -> list[int]:
    """Each gate's stop by a direct forward scan, encoded as the optimizer's
    stop table: the index of the first later gate that is the gate's partner
    or does not commute with it; -1 for none up to the end or no partner;
    -2 for a partner farther than ``window``, or for no stop before the end
    of the gate's ``block``-gate block and its ``lookahead`` gates."""
    out = []
    for i, g in enumerate(gates):
        partner = reference_partner(g)
        reach = min(len(gates), i // block * block + block + lookahead)
        stop = None if partner is None else next(
            (j for j in range(i + 1, reach)
             if gates[j] == partner or not reference_commute(g, gates[j])), None)
        if partner is None or stop is None and reach == len(gates):
            out.append(-1)
        elif stop is None or (gates[stop] == partner and window is not None
                              and stop - i > window):
            out.append(-2)
        else:
            out.append(stop)
    return out


def _reference_segments(c: Circuit, cross_step: bool) -> list[list[Gate]]:
    """The gates cut at the seams of the circuit's equal steps, or uncut."""
    gates = list(c.gates)
    k = 1 if cross_step else c.n_steps
    size = len(gates) // k
    return [gates[i * size:(i + 1) * size] for i in range(k)]


def _reference_rebuild(c: Circuit, segments: list[list[Gate]]) -> Circuit:
    assert all(seg == segments[0] for seg in segments)  # equal steps stay equal
    return stepped(c.n_qubits, segments[0], len(segments), c.ancilla)


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
        if head and head[0] != "#":
            break
    else:
        raise ValueError("empty circuit file")
    fields = head.split()
    try:
        if len(fields) != 4 or fields[0] != "QUBITS" or fields[2] != "ANCILLA":
            raise ValueError
        n_qubits, ancilla = int(fields[1]), bool(int(fields[3]))
    except ValueError:
        raise ValueError(f"line {lineno}: bad circuit header {head!r}") from None
    width = n_qubits + ancilla

    def qubit(text: str) -> int:
        q = int(text)
        if not 0 <= q < width:
            raise ValueError(f"qubit {q} outside register of width {width}")
        return q

    gates: list[Gate] = []
    try:
        for lineno, raw in lines:
            ln = raw.strip()
            if not ln or ln[0] == "#":
                continue
            fields = ln.split()
            kind = fields[0]
            if len(fields) != _REF_FIELDS.get(kind):
                if kind not in _REF_FIELDS:
                    raise ValueError(f"unknown gate kind {kind!r}")
                raise ValueError(f"{kind} takes {_REF_FIELDS[kind] - 1} operands, "
                                 f"got {len(fields) - 1}")
            if kind == "RZ":
                q, angle = qubit(fields[1]), float(fields[2])
                if not math.isfinite(angle):
                    raise ValueError(f"RZ angle {fields[2]!r} is not finite")
                gates.append(Gate("RZ", (q,), angle))
            else:
                gates.append(Gate(kind, tuple(qubit(f) for f in fields[1:])))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    return Circuit.from_gates(n_qubits, gates, ancilla=ancilla)


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


def x_closure(j: int, xs) -> set[int]:
    """j ^ span(xs), by closing {j} under XOR with each mask."""
    reach, frontier = {j}, [j]
    while frontier:
        new = {s ^ x for s in frontier for x in xs} - reach
        reach |= new
        frontier = list(new)
    return reach


# ---- reference Hamiltonian construction -------------------------------------
# Nested index loops over the integrals, one product per integral and spin
# pair; build_hamiltonian must give their normal-ordered, merged sum.

def reference_build_hamiltonian(ints) -> FermionOperator:
    products = []
    h, g = ints.one_body, ints.two_body
    for p, q in zip(*np.nonzero(h)):
        for spin in (0, 1):
            products.append((h[p, q], ((2 * p + spin, True), (2 * q + spin, False))))
    for p, q, r, s in zip(*np.nonzero(g)):
        half = 0.5 * g[p, q, r, s]
        for s1 in (0, 1):
            i, l = 2 * p + s1, 2 * q + s1
            for s2 in (0, 1):
                j, k = 2 * r + s2, 2 * s + s2
                if i != j and k != l:
                    products.append((half, ((i, True), (j, True), (k, False), (l, False))))
    return FermionOperator.from_products(2 * ints.n_spatial, products, ints.core_energy)


def reference_excitations(ints) -> dict[tuple, float]:
    """``reference_build_hamiltonian``'s products normal-ordered and merged:
    {factors: coefficient}, creators and annihilators each by descending
    mode, one sign flip per swap, sums in product order, zeros dropped."""
    merged: dict[tuple, float] = {}
    for coeff, factors in reference_build_hamiltonian(ints).products:
        if len(factors) == 4:
            (i, _), (j, _), (k, _), (l, _) = factors
            if i < j:
                i, j, coeff = j, i, -coeff
            if k < l:
                k, l, coeff = l, k, -coeff
            factors = ((i, True), (j, True), (k, False), (l, False))
        merged[factors] = merged.get(factors, 0.0) + coeff
    return {f: c for f, c in merged.items() if c != 0.0}


# ---- reference mapping and term-file writer ---------------------------------
# The entry-by-entry loops the package must reproduce exactly: each ladder
# product doubles a list of (c, x, z) entries per factor, one dictionary sums
# the entries in order, and the terms are written in tuple-of-digits order.
# A product flagged "plus its adjoint" also expands its adjoint A+ (factors
# reversed, daggers flipped, coefficient conjugated) and adds it entry by
# entry to its own expansion before the sum.

def stored_products(op: FermionOperator):
    """(coefficient, factors, plus-adjoint flag) per stored product, read
    from the arrays."""
    coeffs, lengths, modes, dagger, adjoint = op.arrays()
    factors = iter(zip(modes.tolist(), dagger.tolist()))
    for c, k, adj in zip(coeffs.tolist(), lengths.tolist(), adjoint.tolist()):
        yield complex(c), [next(factors) for _ in range(k)], adj


def _reference_entries(coeff: complex, factors, imgs) -> list[tuple[complex, int, int]]:
    entries = [(coeff, 0, 0)]
    for mode, dagger in factors:
        fx, z_sym, z_anti = imgs[mode]
        half = 0.5 if dagger else -0.5
        new = []
        for c, x, z in entries:
            sign = -1.0 if (z & fx).bit_count() & 1 else 1.0
            new.append((0.5 * sign * c, x ^ fx, z ^ z_sym))
            new.append((half * sign * c, x ^ fx, z ^ z_anti))
        entries = new
    return entries


def bk_matrix(n: int) -> np.ndarray:
    """Bravyi-Kitaev occupation-to-qubit-state int8 matrix, built by block
    doubling.

    Non-power-of-two sizes take the top-left n x n block of the
    next-power-of-two matrix.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    size = 1
    m = np.ones((1, 1), dtype=np.int8)
    while size < n:
        big = np.zeros((2 * size, 2 * size), dtype=np.int8)
        big[:size, :size] = m
        big[size:, size:] = m
        big[-1, :size] = 1
        m = big
        size *= 2
    return m[:n, :n].copy()


def reference_map_operator(op: FermionOperator, scheme: MappingScheme,
                           tol: float = DEFAULT_TOL) -> QubitOperator:
    scheme = MappingScheme(scheme)
    n = op.n_modes
    imgs = _ladder_images(n, scheme)
    acc: dict[tuple[int, int], complex] = {}
    for coeff, factors, adjoint in stored_products(op):
        entries = _reference_entries(coeff, factors, imgs)
        if adjoint:
            adj = _reference_entries(coeff.conjugate(),
                                     [(m, not d) for m, d in reversed(factors)], imgs)
            # Entry b of A (one sym/anti choice per factor, the first factor
            # the highest bit) is the adjoint of entry b bit-reversed of A+.
            k = len(factors)
            mirror = [adj[int(f"{b:0{k}b}"[::-1], 2)] for b in range(len(adj))]
            assert [e[1:] for e in entries] == [e[1:] for e in mirror]
            entries = [(c + c2, x, z) for (c, x, z), (c2, _, _) in zip(entries, mirror)]
        for c, x, z in entries:
            acc[x, z] = acc.get((x, z), 0.0) + c
    terms = []
    for (x, z), c in acc.items():
        coeff = c * (1.0, -1.0j, -1.0, 1.0j)[(x & z).bit_count() % 4]
        if not x | z or abs(coeff) > tol:
            terms.append((coeff, PauliString(n, x, z)))
    return qubit_operator(n, terms, op.constant)


def reference_lex_key(s: PauliString) -> tuple[int, ...]:
    return tuple(_digit(s, q) for q in range(s.n))


def reference_format_terms(op: QubitOperator) -> str:
    def line(coeff, s):
        ops = " ".join(f"{'IXYZ'[_digit(s, q)]}{q}" for q in range(s.n) if _digit(s, q))
        return f"({coeff.real!r},{coeff.imag!r}) {ops}".rstrip()

    lines = [line(op.constant, PauliString(op.n))] if op.constant != 0 else []
    lines += [line(c, s) for s, c in sorted(op.items(), key=lambda t: reference_lex_key(t[0]))]
    return "\n".join(lines) + ("\n" if lines else "")
