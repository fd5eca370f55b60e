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

import numpy as np

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


_SLICE = 8192  # gate lines per text slice of format_circuit

# Per-key tables.  A key is the insertion index of a gate's (kind, qubits)
# in _KEYS, one per Clifford gate and per RZ qubit; the lists grow as keys
# are added, and _table() is rebuilt from them when it is behind.
_KEYS: dict[tuple[str, tuple[int, ...]], int] = {}
_GATES: list[Gate | None] = []  # the Clifford's shared Gate; None for an RZ
_LINES: list[str | None] = []  # the Clifford's file line; None for an RZ
# Qubit mask, Z mask and X mask: the Z mask holds the qubits on which the
# gate is diagonal (RZ, CZ, CNOT control), the X mask a CNOT's target.
_MASKS: list[tuple[int, int, int]] = []
_PARTNERS: list[int] = []  # the inverse's key; -1 for an RZ, which never cancels
_by_key = (np.empty((0, 2), np.int32), np.empty((0, 2), np.int32), np.empty(0, np.int32))


def _key(kind: str, qubits: tuple[int, ...]) -> int:
    """The key of the gate (kind, qubits), a CZ's qubits sorted; its rows,
    and its inverse's, are added on first use, and its Gate is validated
    once."""
    key = _KEYS.get((kind, qubits))
    if key is None:
        gate = Gate(kind, qubits, 0.0 if kind == "RZ" else None)
        key = _KEYS[kind, qubits] = len(_KEYS)
        mask = sum(1 << q for q in qubits)
        z, x = ((1 << qubits[0], 1 << qubits[1]) if kind == "CNOT"
                else (mask if kind in ("CZ", "RZ") else 0, 0))
        rz = kind == "RZ"
        _GATES.append(None if rz else gate)
        _LINES.append(None if rz else f"{kind} {' '.join(map(str, qubits))}")
        _MASKS.append((mask, z, x))
        _PARTNERS.append(-1)
        if not rz:
            _PARTNERS[key] = _key(GATE_KINDS[kind][1], qubits)
    return key


def _table() -> tuple[np.ndarray, ...]:
    """Per key: the gate's qubits and its kind on each, as rows of two (-1
    where a gate has no second qubit), and its partner key (-1 for none).
    A wire's kind is its Z bit plus twice its X bit: 1 diagonal, 2 CNOT
    target, 0 other; gates commute on a wire where their kinds are equal
    and not 0."""
    global _by_key
    if len(_by_key[2]) != len(_KEYS):
        rows = []
        for (_, qubits), (_, z, x), partner in zip(_KEYS, _MASKS, _PARTNERS):
            wires = [(z >> q & 1) | (x >> q & 1) << 1 for q in qubits]
            rows.append((*qubits, -1)[:2] + (*wires, -1)[:2] + (partner,))
        table = np.array(rows, np.int32).reshape(-1, 5)
        _by_key = (table[:, :2].copy(), table[:, 2:4].copy(), table[:, 4].copy())
    return _by_key


def H(q: int) -> Gate:
    return _GATES[_key("H", (q,))]


def X(q: int) -> Gate:
    return _GATES[_key("X", (q,))]


def YB(q: int) -> Gate:
    return _GATES[_key("YB", (q,))]


def YBD(q: int) -> Gate:
    return _GATES[_key("YBD", (q,))]


def CNOT(control: int, target: int) -> Gate:
    return _GATES[_key("CNOT", (control, target))]


def CZ(a: int, b: int) -> Gate:
    return _GATES[_key("CZ", (min(a, b), max(a, b)))]  # one shared gate per pair


def RZ(q: int, angle: float) -> Gate:
    return Gate("RZ", (q,), angle)


class Circuit:
    """Ordered gates over n_qubits (+1 trailing ancilla when flagged), held
    as one step's int32 keys (see ``_key``), the step's RZ angles in order
    and the step count.  Nothing edits a circuit after construction;
    :meth:`from_gates` builds one from a Gate list.

    The seams between the ``n_steps`` equal steps are the Trotter-step
    seams; the optimizer does not move cancellations across them unless
    asked to.
    """

    def __init__(self, n_qubits: int, keys: np.ndarray | list[int], angles: list[float],
                 n_steps: int = 1, ancilla: bool = False):
        self.n_qubits, self.ancilla = n_qubits, ancilla
        self.keys, self.angles, self.n_steps = np.asarray(keys, np.int32), angles, n_steps

    @classmethod
    def from_gates(cls, n_qubits: int, gates: list[Gate], ancilla: bool = False) -> "Circuit":
        """A one-step circuit of ``gates``, each inside the register."""
        width = n_qubits + ancilla
        for g in gates:
            if max(g.qubits) >= width:
                raise ValueError(f"gate {g} outside register of width {width}")
        return cls(n_qubits, [_key(g.kind, g.qubits) for g in gates],
                   [g.angle for g in gates if g.angle is not None], 1, ancilla)

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gates, built on each call; the steps share one step's Gate objects."""
        rz = iter(self.angles)
        step = tuple(_GATES[k] or RZ(_MASKS[k][0].bit_length() - 1, next(rz))
                     for k in self.keys.tolist())
        return step * self.n_steps

    def __eq__(self, other):
        return isinstance(other, Circuit) and (
            (self.n_qubits, self.ancilla, self.n_steps, self.angles)
            == (other.n_qubits, other.ancilla, other.n_steps, other.angles)
            and np.array_equal(self.keys, other.keys))


@dataclass(frozen=True)
class GateCounts:
    """A gate tally; its fields are the keys of a report's ``raw`` and ``opt``."""

    total: int
    entangling: int
    single: int
    nonclifford: int


def count_gates(c: Circuit) -> GateCounts:
    """Tally of the keys: a key with a second qubit is entangling, and each
    RZ has one angle."""
    ent = int(np.count_nonzero((_table()[0][:, 1] >= 0)[c.keys]))
    rz, n_steps = len(c.angles), c.n_steps
    return GateCounts(n_steps * len(c.keys), n_steps * ent,
                      n_steps * (len(c.keys) - ent - rz), n_steps * rz)


SYNTHESIS_MODES = ("canonical", "basis_shift", "ancilla")
_KINDS = tuple(GATE_KINDS)  # a kind's index in the gate codes of _step_keys
# Support bits of the terms synthesized at once: 2,048 terms at 16 qubits.
# A whole 5,792-term step at once held 7.2 MB of temporaries, this 2.7 MB.
_CHUNK = 1 << 15


def _bits(masks: np.ndarray, width: int) -> np.ndarray:
    """Bit q of each mask at [term, q], as a bool matrix ``width`` wide;
    masks above 64 qubits are ints."""
    if masks.dtype == object:
        size = (width + 7) // 8
        raw = np.frombuffer(b"".join([m.to_bytes(size, "little") for m in masks.tolist()]),
                            np.uint8).reshape(-1, size)
    else:
        raw = masks.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(raw, 1, width, "little").view(bool)


def _step_keys(xs: np.ndarray, zs: np.ndarray, width: int, n: int, mode: str,
               out: np.ndarray) -> None:
    """Write into ``out`` the keys of the terms (xs, zs) in turn, each V RZ V^-1.

    Incidence i is term t[i] on support qubit q[i], in qubit order.  V is
    a run of groups of consecutive incidences: each group holds the basis
    changes of its X and Y qubits, then a link gate for each incidence
    that has one, in order.  In ``canonical`` a term is one group whose
    qubits link to the next one; in ``ancilla`` all link to the ancilla,
    qubit n.  ``basis_shift`` links the qubits of the lower and the upper
    half of the non-central ones (the central one is the highest) to the
    next, and the last of each half to the central one, by CZ when its
    axis is X; the central qubit is a group of its own, with no link.  The
    mirror of V holds the partners of its gates in reverse order.
    """
    xb, zb = _bits(xs, width), _bits(zs, width)
    t, q = np.nonzero(xb | zb)
    basis, y = xb[t, q], zb[t, q]  # X or Y; a basis change with a Z bit is Y's
    m, size = len(xs), len(t)
    last = np.append(t[1:] != t[:-1], True)  # the central qubit
    target, kind = np.append(q[1:], 0), _KINDS.index("CNOT")
    if mode == "basis_shift":
        weight = np.bincount(t, minlength=m)
        rank = np.arange(size) - (np.cumsum(weight) - weight)[t]
        group = 3 * t + np.where(last, 2, rank >= weight[t] // 2)
        link = ~last
        ends = np.append(group[1:] != group[:-1], True) & link
        target[ends] = q[last][t[ends]]
        kind = np.where(ends & (basis & ~y)[last][t], _KINDS.index("CZ"), kind)
    elif mode == "ancilla":
        group, link, target = t, np.ones(size, bool), np.full(size, n)
    else:
        group, link = t, ~last
    rotated = np.full(m, n) if mode == "ancilla" else q[last]  # the RZ's qubit
    # Positions in the terms' Vs laid end to end, by cumsum offsets.
    n_groups = group[-1] + 1
    n_basis = np.bincount(group[basis], minlength=n_groups)
    sizes = n_basis + np.bincount(group[link], minlength=n_groups)
    counts = np.bincount(group, minlength=n_groups)
    start = (np.cumsum(sizes) - sizes)[group]
    pre = start + np.cumsum(basis) - basis - (np.cumsum(n_basis) - n_basis)[group]
    links = start + n_basis[group] + np.arange(size) - (np.cumsum(counts) - counts)[group]
    half, owner = np.concatenate((pre[basis], links[link])), np.concatenate((t[basis], t[link]))
    # One code (kind w + a) w + b per gate, looked up once per distinct code.
    w = max(width, n + 1)
    codes = np.concatenate((
        (np.where(y, _KINDS.index("YB"), _KINDS.index("H")) * w + q)[basis] * w,
        ((kind * w + q) * w + target)[link],
        (_KINDS.index("RZ") * w + rotated) * w))
    known, at = np.unique(codes, return_inverse=True)
    names = [(_KINDS[c // w // w], c // w % w, c % w) for c in known.tolist()]
    keys = np.array([_key(k, (a, b)[:GATE_KINDS[k][0]]) for k, a, b in names], np.int32)[at]
    # Term j starts at 2 hs + j in the step, where hs is where its V starts.
    length = np.bincount(owner, minlength=m)
    hs = np.cumsum(length) - length
    j = np.arange(m)
    out[(hs + j)[owner] + half] = keys[:len(half)]
    out[(3 * hs + 2 * length + j)[owner] - half] = _table()[2][keys[:len(half)]]
    out[2 * hs + length + j] = keys[len(half):]


def synthesize_plan(plan: TrotterPlan, mode: str = "canonical") -> Circuit:
    """One Trotter step built in numpy from the plan's masks, a chunk of
    terms at a time into one key array, and repeated n_steps times; the
    angles are kept apart, in plan order."""
    if mode not in SYNTHESIS_MODES:
        raise ValueError(f"unknown synthesis mode {mode!r}; pick from {SYNTHESIS_MODES}")
    xs, zs = plan.x, plan.z
    support = xs | zs
    if not np.all(support):
        raise ValueError("identity term has no circuit; handle it as an offset")
    width = max(int(np.bitwise_or.reduce(support)).bit_length(), 1)
    step = max(_CHUNK // width, 1)
    # A term's keys: its RZ, and each way a basis change per X bit and a link
    # per support qubit but the rotated one (every one in ancilla mode).
    ends = np.cumsum(2 * (np.bitwise_count(xs).astype(np.int64) + np.bitwise_count(support))
                     + (1 if mode == "ancilla" else -1))
    starts = np.concatenate(([0], ends)).astype(np.int64)
    keys = np.empty(starts[-1], np.int32)
    for a in range(0, len(xs), step):
        b = min(a + step, len(xs))
        _step_keys(xs[a:b], zs[a:b], width, plan.n_qubits, mode, keys[starts[a]:starts[b]])
    return Circuit(plan.n_qubits, keys, plan.angles(), plan.n_steps,
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
        for start in range(0, len(c.keys), _SLICE):
            yield "\n".join([_LINES[k] or f"RZ {_MASKS[k][0].bit_length() - 1} {next(rz)!r}"
                             for k in c.keys[start:start + _SLICE].tolist()]) + "\n"


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
    return CZ(*qubits) if kind == "CZ" else _GATES[_key(kind, qubits)]


def parse_circuit(source: str | Iterable[str]) -> Circuit:
    """Inverse of :func:`format_circuit`, from a file's text or its lines
    (an open file); errors name the offending line.

    Each distinct gate line is parsed and validated once; its repeats
    append the same key.
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
    keys: list[int] = []
    angles: list[float] = []
    seen: dict[str, tuple] = {}  # unstripped line -> (key, angle or None)
    try:
        for lineno, raw in lines:
            hit = seen.get(raw)
            if hit is None:
                ln = raw.strip()
                if not ln or ln[0] == "#":
                    continue
                g = _parse_gate(ln.split(), n_qubits + ancilla)
                hit = seen[raw] = (_key(g.kind, g.qubits), g.angle)
            keys.append(hit[0])
            if hit[1] is not None:
                angles.append(hit[1])
    except UnicodeDecodeError:
        raise  # an open file decodes by the block: lineno need not hold the bad byte
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    return Circuit(n_qubits, np.fromiter(keys, np.int32, len(keys)), angles, ancilla=ancilla)
