"""Trotter-term circuit synthesis: canonical, basis-change-shift and ancilla.

Gate conventions:
- RZ(theta) = exp(-i theta Z / 2); it is the only non-Clifford gate here.
- YB is the Clifford G with G^dag Z G = Y (a quarter X rotation); YBD is
  its inverse.  An axis-Y qubit gets YB before and YBD after the parity
  ladder, an axis-X qubit gets H on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .pauli import PauliString
from .trotter import TrotterPlan

# kind -> (qubit count, inverse kind); RZ has no inverse among the kinds.
GATE_KINDS = {"H": (1, "H"), "X": (1, "X"), "YB": (1, "YBD"), "YBD": (1, "YB"),
              "RZ": (1, None), "CNOT": (2, "CNOT"), "CZ": (2, "CZ")}


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate.  The Clifford constructors below share one instance per
    (kind, qubits), validated once.  RZ() builds a new instance per call;
    parse_circuit shares one per distinct line, so never key a cache on
    an RZ's identity."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if GATE_KINDS[self.kind][0] == 2:
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError(f"{self.kind} needs two distinct qubits")
        elif len(self.qubits) != 1:
            raise ValueError(f"{self.kind} acts on one qubit")
        if min(self.qubits) < 0:
            raise ValueError(f"{self.kind} on negative qubit {min(self.qubits)}")
        if (self.kind == "RZ") != (self.angle is not None):
            raise ValueError("angle given exactly for RZ")


@cache
def _clifford(kind: str, qubits: tuple[int, ...]) -> Gate:
    """The shared Gate of a Clifford (kind, qubits)."""
    return Gate(kind, qubits)


def H(q: int) -> Gate:
    return _clifford("H", (q,))


def X(q: int) -> Gate:
    return _clifford("X", (q,))


def YB(q: int) -> Gate:
    return _clifford("YB", (q,))


def YBD(q: int) -> Gate:
    return _clifford("YBD", (q,))


def CNOT(control: int, target: int) -> Gate:
    return _clifford("CNOT", (control, target))


def CZ(a: int, b: int) -> Gate:
    # Symmetric gate; store qubits sorted so equal CZs compare equal.
    return _clifford("CZ", (min(a, b), max(a, b)))


def RZ(q: int, angle: float) -> Gate:
    return Gate("RZ", (q,), angle)


@dataclass
class Circuit:
    """Ordered gate list over n_qubits (+1 trailing ancilla when flagged).

    ``barriers`` marks Trotter-step seams (gate indices); the optimizer
    does not move cancellations across them unless asked to.
    """

    n_qubits: int
    gates: list[Gate] = field(default_factory=list)
    ancilla: bool = False
    barriers: list[int] = field(default_factory=list)

    @property
    def width(self) -> int:
        return self.n_qubits + (1 if self.ancilla else 0)

    def append(self, gate: Gate) -> None:
        if max(gate.qubits) >= self.width:
            raise ValueError(f"gate {gate} outside register of width {self.width}")
        self.gates.append(gate)

    def extend(self, gates) -> None:
        for g in gates:
            self.append(g)

    def __len__(self):
        return len(self.gates)


@dataclass(frozen=True)
class GateCounts:
    total: int
    entangling: int
    single_qubit: int
    non_clifford: int


def count_gates(c: Circuit) -> GateCounts:
    two_qubit = {kind for kind, (n, _) in GATE_KINDS.items() if n == 2}
    ent = single = rz = 0
    for g in c.gates:
        if g.kind in two_qubit:
            ent += 1
        elif g.kind == "RZ":
            rz += 1
        else:
            single += 1
    return GateCounts(ent + single + rz, ent, single, rz)


def _support(string: PauliString) -> tuple[int, ...]:
    support = string.support
    if not support:
        raise ValueError("identity term has no circuit; handle it as an offset")
    return support


def _basis_gates(string: PauliString, qubits) -> tuple[list[Gate], list[Gate]]:
    pre, post = [], []
    for q in qubits:
        a = string.axis(q)
        if a == 1:
            pre.append(H(q))
            post.append(H(q))
        elif a == 2:
            pre.append(YB(q))
            post.append(YBD(q))
    return pre, post


def _canonical_gates(string: PauliString, theta: float) -> list[Gate]:
    support = _support(string)
    pre, post = _basis_gates(string, support)
    ladder = [CNOT(a, b) for a, b in zip(support, support[1:])]
    return [*pre, *ladder, RZ(support[-1], theta), *reversed(ladder), *reversed(post)]


def synthesize_term(string: PauliString, theta: float) -> Circuit:
    """Canonical construction: basis changes outside a linear CNOT ladder."""
    return Circuit(string.n, _canonical_gates(string, theta))


def _central_sequence(axis: int, qubit: int, theta: float) -> list[Gate]:
    if axis == 3:
        return [RZ(qubit, theta)]
    if axis == 1:
        return [H(qubit), RZ(qubit, theta), H(qubit)]
    return [YB(qubit), RZ(qubit, theta), YBD(qubit)]


def _basis_shift_gates(string: PauliString, theta: float) -> list[Gate]:
    support = _support(string)
    central = support[-1]
    rest = support[:-1]
    cut = (len(rest) + 1) // 2
    groups = [g for g in (rest[:cut], rest[cut:]) if g]
    central_axis = string.axis(central)
    couple = CZ if central_axis == 1 else CNOT

    halves: list[tuple[list[Gate], list[Gate]]] = []
    for group in groups:
        pre, post = _basis_gates(string, group)
        chain = [CNOT(a, b) for a, b in zip(group, group[1:])]
        k = couple(group[-1], central)
        halves.append(([*pre, *chain, k], [k, *reversed(chain), *reversed(post)]))
    gates = [g for first, _ in halves for g in first]
    gates += _central_sequence(central_axis, central, theta)
    for _, second in reversed(halves):
        gates += second
    return gates


def synthesize_term_basis_shift(string: PauliString, theta: float) -> Circuit:
    """Basis changes pulled inside the parity strings.

    The parity chain is split into an exterior and an interior string,
    each delivered to the central qubit by its own coupling gate: CZ when
    the central axis is X, CNOT when it is Y or Z.  The central basis
    change then sits directly against the rotation.
    """
    return Circuit(string.n, _basis_shift_gates(string, theta))


def _ancilla_gates(string: PauliString, theta: float) -> list[Gate]:
    support = _support(string)
    anc = string.n
    pre, post = _basis_gates(string, support)
    return [*pre, *(CNOT(q, anc) for q in support), RZ(anc, theta),
            *(CNOT(q, anc) for q in reversed(support)), *reversed(post)]


def synthesize_term_ancilla(string: PauliString, theta: float) -> Circuit:
    """Parity of all involved qubits accumulated onto one ancilla.

    Acting on |psi>|0> the circuit applies exp(-i theta/2 P) to the data
    register and returns the ancilla to |0>.
    """
    return Circuit(string.n, _ancilla_gates(string, theta), ancilla=True)


_TERM_GATES = {
    "canonical": _canonical_gates,
    "basis_shift": _basis_shift_gates,
    "ancilla": _ancilla_gates,
}
SYNTHESIS_MODES = tuple(_TERM_GATES)


def synthesize_plan(plan: TrotterPlan, mode: str = "canonical") -> Circuit:
    """Concatenate per-term gates in plan order, n_steps times.

    One step's gate list is built once; the steps share its Gate objects,
    with a barrier at each seam.
    """
    if mode not in _TERM_GATES:
        raise ValueError(f"unknown synthesis mode {mode!r}; pick from {SYNTHESIS_MODES}")
    term_gates = _TERM_GATES[mode]
    step: list[Gate] = []
    for (string, _), theta in zip(plan.ordered_terms, plan.angles()):
        if string.n != plan.n_qubits:
            raise ValueError(f"term {string.label} acts on {string.n} qubits, "
                             f"the plan on {plan.n_qubits}")
        step += term_gates(string, theta)
    barriers = list(range(len(step), len(step) * plan.n_steps, len(step))) if step else []
    return Circuit(plan.n_qubits, step * plan.n_steps, ancilla=(mode == "ancilla"),
                   barriers=barriers)


def term_gate_counts(string: PauliString, mode: str = "canonical") -> GateCounts:
    """Closed-form gate tally of one term circuit, without materializing it.

    Validated against the synthesizers in the test suite; used for
    counting-only resource sweeps on large registers.
    """
    if mode not in _TERM_GATES:
        raise ValueError(f"unknown synthesis mode {mode!r}")
    w = string.weight
    if w == 0:
        return GateCounts(0, 0, 0, 0)
    single = 2 * string.x.bit_count()  # a basis change on each side of every X or Y
    # basis_shift has the canonical multiset: basis pairs move inward, each
    # group contributes (|group|-1) chain CNOTs plus one coupling per side.
    ent = 2 * w if mode == "ancilla" else 2 * (w - 1)
    return GateCounts(single + ent + 1, ent, single, 1)


def format_circuit(c: Circuit) -> str:
    """One gate per line under a ``QUBITS <n> ANCILLA <0|1>`` header.

    Barriers are not written, so a circuit read back has none.
    """
    # A Clifford gate is one shared object, so its line is built once and
    # kept under its id; c.gates keeps every key alive.  RZ lines are not
    # kept: RZ(q, 0.0) == RZ(q, -0.0), so any cache keyed on the gate's
    # value would write one for the other.
    clifford: dict[int, str] = {}
    body = []
    for g in c.gates:
        line = clifford.get(id(g))
        if line is None:
            if g.kind == "RZ":
                line = f"RZ {g.qubits[0]} {g.angle!r}"
            else:
                line = clifford[id(g)] = f"{g.kind} {' '.join(map(str, g.qubits))}"
        body.append(line)
    return "\n".join([f"QUBITS {c.n_qubits} ANCILLA {1 if c.ancilla else 0}", *body]) + "\n"


def _qubit(text: str, width: int) -> int:
    q = int(text)
    if not 0 <= q < width:
        raise ValueError(f"qubit {q} outside register of width {width}")
    return q


def _parse_gate(fields: list[str], width: int) -> Gate:
    kind = fields[0]
    if kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {kind!r}")
    operands = GATE_KINDS[kind][0] + (kind == "RZ")  # an RZ also takes its angle
    if len(fields) - 1 != operands:
        raise ValueError(f"{kind} takes {operands} operands, got {len(fields) - 1}")
    if kind == "RZ":
        return RZ(_qubit(fields[1], width), float(fields[2]))
    return _clifford(kind, tuple(_qubit(f, width) for f in fields[1:]))


def parse_circuit(text: str) -> Circuit:
    """Inverse of :func:`format_circuit`; errors name the offending line.

    Each distinct gate line is parsed and validated once; its repeats
    share the resulting Gate.
    """
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
    width = circ.width
    gates = circ.gates
    seen: dict[str, Gate] = {}
    try:
        for lineno, raw in lines:
            ln = raw.strip()
            g = seen.get(ln)
            if g is None:
                if not ln or raw[0] == "#":
                    continue
                g = seen[ln] = _parse_gate(ln.split(), width)
            gates.append(g)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    return circ
