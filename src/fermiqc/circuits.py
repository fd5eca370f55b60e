"""Trotter-term circuit synthesis: canonical, basis-change-shift and ancilla.

Gate conventions:
- RZ(theta) = exp(-i theta Z / 2); it is the only non-Clifford gate here.
- YB is the Clifford G with G^dag Z G = Y (a quarter X rotation); YBD is
  its inverse.  An axis-Y qubit gets YB before and YBD after the parity
  ladder, an axis-X qubit gets H on both sides.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cache
from operator import itemgetter

from .trotter import TrotterPlan

# kind -> (qubit count, inverse kind); RZ has no inverse among the kinds.
GATE_KINDS = {"H": (1, "H"), "X": (1, "X"), "YB": (1, "YBD"), "YBD": (1, "YB"),
              "RZ": (1, None), "CNOT": (2, "CNOT"), "CZ": (2, "CZ")}


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate.  The Clifford constructors below share one instance per
    (kind, qubits), validated once.  RZ() builds a new instance per call,
    and each read of Circuit.gates one per RZ of a step, so never key a
    cache on an RZ's identity.  CZ is symmetric, so its qubits are stored
    sorted."""

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
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError(f"RZ angle '{self.angle}' is not finite")
        if self.kind == "CZ" and self.qubits[0] > self.qubits[1]:
            object.__setattr__(self, "qubits", self.qubits[::-1])


# Fields of an encoded entry.  The Z mask holds the qubits on which the gate
# is diagonal (RZ, CZ, CNOT control), the X mask a CNOT's target.
_MASK, _Z, _X, _KEY, _PARTNER, _GATE, _LINE = range(7)
_KEYS: dict[tuple[str, tuple[int, ...]], int] = {}  # (kind, qubits) -> key
_SLICE = 8192  # gate lines per text slice of format_circuit


@cache
def _clifford(kind: str, qubits: tuple[int, ...]) -> tuple:
    """The shared entry (qubit mask, Z mask, X mask, key, partner key, Gate,
    file line) of a Clifford (kind, qubits); its Gate is built and validated
    once."""
    g = Gate(kind, qubits)
    mask = sum(1 << q for q in qubits)
    z, x = ((1 << qubits[0], 1 << qubits[1]) if kind == "CNOT"
            else (mask if kind == "CZ" else 0, 0))
    key = _KEYS.setdefault((kind, qubits), len(_KEYS))
    partner = _KEYS.setdefault((GATE_KINDS[kind][1], qubits), len(_KEYS))
    return mask, z, x, key, partner, g, f"{kind} {' '.join(map(str, g.qubits))}"


@cache
def _rz(q: int) -> tuple:
    """The entry of every RZ on qubit q: its own key ``("RZ", (q,))``, so
    the optimizer's per-key table knows its wire, but no partner, angle or
    line.  No Clifford's partner key is an RZ key, so an RZ never cancels."""
    return 1 << q, 1 << q, 0, _KEYS.setdefault(("RZ", (q,)), len(_KEYS)), None, None, None


def _entry(kind: str, qubits: tuple[int, ...]) -> tuple:
    """The entry of a gate (kind, qubits), or of the key of that name."""
    return _rz(qubits[0]) if kind == "RZ" else _clifford(kind, qubits)


def H(q: int) -> Gate:
    return _clifford("H", (q,))[_GATE]


def X(q: int) -> Gate:
    return _clifford("X", (q,))[_GATE]


def YB(q: int) -> Gate:
    return _clifford("YB", (q,))[_GATE]


def YBD(q: int) -> Gate:
    return _clifford("YBD", (q,))[_GATE]


def CNOT(control: int, target: int) -> Gate:
    return _clifford("CNOT", (control, target))[_GATE]


def CZ(a: int, b: int) -> Gate:
    return _clifford("CZ", (min(a, b), max(a, b)))[_GATE]  # one shared gate per pair


def RZ(q: int, angle: float) -> Gate:
    return Gate("RZ", (q,), angle)


class Circuit:
    """Ordered gates over n_qubits (+1 trailing ancilla when flagged), held
    in encoded form: one step's entries (see ``_clifford``), the step's RZ
    angles in order and the step count.  Nothing edits a circuit after
    construction; :meth:`from_gates` builds one from a Gate list.

    The seams between the ``n_steps`` equal steps are the Trotter-step
    seams; the optimizer does not move cancellations across them unless
    asked to.
    """

    def __init__(self, n_qubits: int, entries: list[tuple], angles: list[float],
                 n_steps: int = 1, ancilla: bool = False):
        self.n_qubits, self.ancilla = n_qubits, ancilla
        self.entries, self.angles, self.n_steps = entries, angles, n_steps

    @classmethod
    def from_gates(cls, n_qubits: int, gates: list[Gate], ancilla: bool = False) -> "Circuit":
        """A one-step circuit of ``gates``, each inside the register."""
        width = n_qubits + ancilla
        for g in gates:
            if max(g.qubits) >= width:
                raise ValueError(f"gate {g} outside register of width {width}")
        return cls(n_qubits, [_entry(g.kind, g.qubits) for g in gates],
                   [g.angle for g in gates if g.angle is not None], 1, ancilla)

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gates, built on each call; the steps share one step's Gate objects."""
        rz = iter(self.angles)
        step = tuple(e[_GATE] or RZ(e[_MASK].bit_length() - 1, next(rz)) for e in self.entries)
        return step * self.n_steps

    def __eq__(self, other):
        return isinstance(other, Circuit) and (
            (self.n_qubits, self.ancilla, self.n_steps, self.gates)
            == (other.n_qubits, other.ancilla, other.n_steps, other.gates))


@dataclass(frozen=True)
class GateCounts:
    total: int
    entangling: int
    single_qubit: int
    non_clifford: int


def count_gates(c: Circuit) -> GateCounts:
    """Tally of the encoded form: a two-qubit gate's mask has two bits, and
    each RZ has one angle."""
    ent = list(map(int.bit_count, map(itemgetter(_MASK), c.entries))).count(2)
    rz, n_steps = len(c.angles), c.n_steps
    return GateCounts(n_steps * len(c.entries), n_steps * ent,
                      n_steps * (len(c.entries) - ent - rz), n_steps * rz)


def _support(x: int, z: int) -> tuple[int, ...]:
    support = tuple(q for q in range((x | z).bit_length()) if (x | z) >> q & 1)
    if not support:
        raise ValueError("identity term has no circuit; handle it as an offset")
    return support


def _basis(x: int, z: int, qubits) -> tuple[list[tuple], list[tuple]]:
    pre, post = [], []
    for q in qubits:
        axis = (x >> q & 1, z >> q & 1)
        if axis == (1, 0):  # X
            pre.append(_clifford("H", (q,)))
            post.append(pre[-1])
        elif axis == (1, 1):  # Y
            pre.append(_clifford("YB", (q,)))
            post.append(_clifford("YBD", (q,)))
    return pre, post


def _ladder(qubits) -> list[tuple]:
    return [_clifford("CNOT", pair) for pair in zip(qubits, qubits[1:])]


def _canonical(n: int, x: int, z: int) -> list[tuple]:
    """Basis changes outside a linear CNOT ladder."""
    support = _support(x, z)
    pre, post = _basis(x, z, support)
    ladder = _ladder(support)
    return [*pre, *ladder, _rz(support[-1]), *reversed(ladder), *reversed(post)]


def _basis_shift(n: int, x: int, z: int) -> list[tuple]:
    """Basis changes pulled inside the parity strings.

    The parity chain is split into an exterior and an interior string,
    each delivered to the central qubit by its own coupling gate: CZ when
    the central axis is X, CNOT when it is Y or Z.  The central basis
    change then sits directly against the rotation.
    """
    support = _support(x, z)
    central = support[-1]
    rest = support[:-1]
    cut = (len(rest) + 1) // 2
    groups = [g for g in (rest[:cut], rest[cut:]) if g]
    couple = "CZ" if (x >> central & 1, z >> central & 1) == (1, 0) else "CNOT"

    halves: list[tuple[list[tuple], list[tuple]]] = []
    for group in groups:
        pre, post = _basis(x, z, group)
        chain = _ladder(group)
        k = _clifford(couple, (group[-1], central))  # group[-1] < central: CZ sorted
        halves.append(([*pre, *chain, k], [k, *reversed(chain), *reversed(post)]))
    out = [e for first, _ in halves for e in first]
    pre, post = _basis(x, z, (central,))
    out += [*pre, _rz(central), *post]
    for _, second in reversed(halves):
        out += second
    return out


def _ancilla(n: int, x: int, z: int) -> list[tuple]:
    """Parity of all involved qubits accumulated onto one ancilla (qubit n).

    Acting on |psi>|0> the circuit applies exp(-i theta/2 P) to the data
    register and returns the ancilla to |0>.
    """
    support = _support(x, z)
    pre, post = _basis(x, z, support)
    return [*pre, *(_clifford("CNOT", (q, n)) for q in support), _rz(n),
            *(_clifford("CNOT", (q, n)) for q in reversed(support)), *reversed(post)]


_TEMPLATES = {
    "canonical": _canonical,
    "basis_shift": _basis_shift,
    "ancilla": _ancilla,
}
SYNTHESIS_MODES = tuple(_TEMPLATES)


def _template(mode: str):
    if mode not in _TEMPLATES:
        raise ValueError(f"unknown synthesis mode {mode!r}; pick from {SYNTHESIS_MODES}")
    return _TEMPLATES[mode]


def synthesize_plan(plan: TrotterPlan, mode: str = "canonical",
                    templates: dict | None = None) -> Circuit:
    """One Trotter step assembled from per-term templates, repeated n_steps
    times; the angles are kept apart, in plan order.

    A template is a term's encoded entries, keyed by (mode, x mask, z mask);
    its one RZ entry holds no angle, so one ``templates`` table can serve
    every plan on the same register.
    """
    build = _template(mode)
    table = {} if templates is None else templates
    step: list[tuple] = []
    for x, z in zip(plan.x.tolist(), plan.z.tolist()):
        key = (mode, x, z)
        template = table.get(key)
        if template is None:
            template = table[key] = build(plan.n_qubits, x, z)
        step += template
    return Circuit(plan.n_qubits, step, plan.angles(), plan.n_steps,
                   ancilla=(mode == "ancilla"))


def format_circuit(c: Circuit) -> Iterator[str]:
    """One gate per line under a ``QUBITS <n> ANCILLA <0|1>`` header, as
    text slices: the header line, then each step's lines in slices of at
    most ``_SLICE`` lines, each ending in a newline.  Join them for the
    whole file.

    Step seams are not written, so a circuit read back has one step.
    """
    yield f"QUBITS {c.n_qubits} ANCILLA {1 if c.ancilla else 0}\n"
    for _ in range(c.n_steps):
        rz = iter(c.angles)
        for start in range(0, len(c.entries), _SLICE):
            yield "\n".join([e[_LINE] or f"RZ {e[_MASK].bit_length() - 1} {next(rz)!r}"
                             for e in c.entries[start:start + _SLICE]]) + "\n"


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
    qubits = tuple(_qubit(f, width) for f in fields[1:])
    return CZ(*qubits) if kind == "CZ" else _clifford(kind, qubits)[_GATE]


def parse_circuit(source: str | Iterable[str]) -> Circuit:
    """Inverse of :func:`format_circuit`, from a file's text or its lines
    (an open file); errors name the offending line.

    Each distinct gate line is parsed and validated once; its repeats
    share the resulting entry.
    """
    lines = enumerate(source.splitlines() if isinstance(source, str) else source, start=1)
    for lineno, raw in lines:
        head = raw.strip()
        if head and head[0] != "#":
            break
    else:
        raise ValueError("empty circuit file")
    fields = head.split()
    try:
        if (len(fields) != 4 or fields[0] != "QUBITS" or fields[2] != "ANCILLA"
                or int(fields[1]) < 0 or fields[3] not in ("0", "1")):
            raise ValueError
        n_qubits, ancilla = int(fields[1]), fields[3] == "1"
    except ValueError:
        raise ValueError(f"line {lineno}: bad circuit header {head!r}") from None
    entries: list[tuple] = []
    angles: list[float] = []
    seen: dict[str, tuple] = {}  # line -> (entry, angle or None)
    try:
        for lineno, raw in lines:
            ln = raw.strip()
            hit = seen.get(ln)
            if hit is None:
                if not ln or ln[0] == "#":
                    continue
                g = _parse_gate(ln.split(), n_qubits + ancilla)
                hit = seen[ln] = (_entry(g.kind, g.qubits), g.angle)
            entries.append(hit[0])
            if hit[1] is not None:
                angles.append(hit[1])
    except UnicodeDecodeError:
        raise  # an open file decodes by the block: lineno need not hold the bad byte
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    return Circuit(n_qubits, entries, angles, ancilla=ancilla)
