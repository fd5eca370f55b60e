"""Rule-based peephole optimization: duplicate cancellation to fixpoint.

Commutation is decided purely by rules, never by gate matrices:
- gates on disjoint qubits always commute;
- CNOTs commute unless one targets the other's control;
- diagonal gates (RZ, CZ) commute with each other and with CNOT controls;
- non-diagonal single-qubit gates (H, YB, YBD, X) only commute off-qubit.

Cancellation deletes reachable self-inverse pairs without reordering the
surviving gates, so every rewrite is an exact identity.  The result is the
greedy one: scan left to right, cancel each Clifford gate with the first
inverse partner reachable through commuting gates, and step back one gate
after every cancellation.

The passes read a circuit's int32 keys (``Circuit.keys``), one key per
Clifford (kind, qubits) and per RZ qubit, and the per-key tables of the
circuits module: qubit, Z and X masks, partner key, wires.  Two gates
commute when every qubit they share is Z for both or X for both.  Step
seams come from ``Circuit.n_steps`` alone: without ``cross_step`` the
steps are equal, so one step is optimized and the result repeated; with
it the steps are optimized as one list.

The rounds share one key array, cut down after each pass.  The adjacent
pass walks in Python only the sites numpy finds, gates followed by their
partner.  The commute pass does not scan gate by gate: at its start,
:func:`_stops` finds in numpy, for every gate, its stop, the first later
gate on its wires that is its partner or blocks it.  Gates only ever leave
the list during a pass, and every gate between a gate and its stop commutes
with it, so that stop stays the first one while it is present.  The greedy
loop takes each outcome from the table, and walks the list in Python only
for a gate whose stop is out of the table's reach or has been deleted.  The
table a pass ends with certifies the fixpoint: no round only confirms it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress, islice

import numpy as np

from .circuits import _MASKS, _PARTNERS, Circuit, _table


def _drop(keys: np.ndarray, keep: bytearray | None) -> np.ndarray:
    """The keys without the gates whose ``keep`` flag is 0."""
    return keys if keep is None else keys[np.frombuffer(keep, bool)]


def _adjacent(keys: np.ndarray) -> bytearray | None:
    """Keep flags of the left-to-right stack pass that drops adjacent inverse
    pairs, or None when there are none.  Only a gate followed by its partner
    starts a cancellation, which cascades outward; ``below`` links the first
    gate of each run pushed between such sites to the gate under it."""
    sites = np.flatnonzero(_table()[2][keys[:-1]] == keys[1:])
    if not len(sites):
        return None
    seg, n = memoryview(keys), len(keys)
    keep, below, top, end = bytearray(b"\1") * n, {}, -1, 0
    for s in sites.tolist():
        if s < end:
            continue
        below[end] = top
        top, end = s, s + 1
        while top >= 0 and end < n and _PARTNERS[seg[top]] == seg[end]:
            keep[top] = keep[end] = 0
            top, end = below.get(top, top - 1), end + 1
    return keep


# Gates per table block, and gates after a block that its table also reads.
# Blocks are views of the key array, but at 8,192 gates the sort and run
# arrays raised a 127,328-gate optimize's peak RSS by 0.5 MB, at no gain.
_BLOCK = 1 << 12
_LOOKAHEAD = 1 << 9


def _stops(keys: np.ndarray, window: int | None) -> tuple[array, bytearray]:
    """Each gate's stop, and a flag on each gate that can cancel.

    A gate's stop is the index of the first later gate on its wires that is
    its partner or does not commute with it: on some shared wire the two
    are not both diagonal and not both CNOT targets.  -1 means no such gate
    up to the end, or a gate without a partner; -2 means a partner that
    ``window`` does not reach, or no stop inside the gate's block and its
    lookahead.  A gate is flagged when its stop is its partner or -2.
    """
    qubits, kinds, partners = _table()
    n = len(keys)
    table, flags = array("i", [0]) * n, bytearray(n)
    for a in range(0, n, _BLOCK):
        k = keys[a:a + _BLOCK + _LOOKAHEAD]
        m, b = len(k), min(_BLOCK, n - a)
        shift = (2 * m).bit_length()  # an index below 2m fits in the low bits
        low = (1 << shift) - 1
        # Incidence 2g + slot is gate g on its first or second wire; sort
        # them by wire, then by gate.
        wires = qubits.take(k, 0).ravel()
        inc = np.flatnonzero(wires >= 0)
        code = np.sort((wires[inc].astype(np.int64) << shift) | inc)
        wire, inc = code >> shift, code & low
        kind = kinds.take(k, 0).ravel()[inc]
        # A run is a stretch of one wire whose gates are all diagonal or all
        # CNOT targets there; every other gate is a run of its own.  A
        # gate's stop on a wire is the first gate of the wire's next run.
        new = kind == 0
        new[1:] |= (kind[1:] != kind[:-1]) | (wire[1:] != wire[:-1])
        new[0] = True
        after = np.append(np.flatnonzero(new), len(new))[np.cumsum(new)]
        wire, gate = np.append(wire, -1), np.append(inc >> 1, m)
        reach = np.full(2 * m, m)  # m: no stop inside the block and its lookahead
        reach[inc] = np.where(wire[after] == wire[:-1], gate[after], m)
        stop = np.minimum(reach[0::2], reach[1::2])
        # A gate that is neither diagonal nor a CNOT target on a wire stops
        # at the wire's next gate, so only CZ and CNOT can reach a partner
        # past their wire stops.  Each is its own partner: the next gate
        # with the same key.
        code = np.sort((k.astype(np.int64) << shift) | np.arange(m))
        same = np.flatnonzero(code[1:] >> shift == code[:-1] >> shift)
        first, second = code[same] & low, code[same + 1] & low
        stop[first] = np.minimum(stop[first], second)
        stop, p = stop[:b], partners.take(k[:b])
        hit = (stop < m) & (k[np.minimum(stop, m - 1)] == p)
        out = np.where(stop < m, stop + a, -1 if a + m == n else -2)
        if window is not None:
            out[hit & (stop - np.arange(b) > window)] = -2
        out[p < 0] = -1
        memoryview(table)[a:a + b] = out.astype(np.intc)
        memoryview(flags)[a:a + b] = (hit | (out == -2)).view(np.uint8)
    return table, flags


def _scan(seg: memoryview, alive: bytearray, i: int, window: int | None) -> int:
    """Gate i's stop found by walking the live keys after it, as
    :func:`_stops` encodes it, with -2 when ``window`` runs out first."""
    (mask, z, x), partner = _MASKS[seg[i]], _PARTNERS[seg[i]]
    rest = compress(range(i + 1, len(seg)), memoryview(alive)[i + 1:])
    for j in islice(rest, window):
        h = seg[j]
        if h == partner:
            return j
        # h blocks the scan unless the two commute.
        h_mask, h_z, h_x = _MASKS[h]
        shared = mask & h_mask
        if shared and shared != (z & h_z) | (x & h_x):
            return j
    return -1 if next(rest, None) is None else -2


def _commute_pass(keys: np.ndarray, window: int | None) -> tuple:
    """One greedy commute-and-cancel pass: its keep flags, None when it
    cancels nothing, and whether it is clean.

    Gate i's outcome is read from the stop table: a hit when its stop is
    its partner.  It holds while the stop is present, since the gates
    right of i only ever lose members, and every gate deleted between i and
    its stop was a commuting non-partner.  A stop that has been deleted, or
    a -2, sends the gate to :func:`_scan`, whose answer replaces its entry.

    A cancelled pair (i, s) is never the stop of a live gate right of i:
    such a gate commutes with i on their shared wires, so with s, which acts
    on them as i does.  So only gates the scan has passed can lose their
    stop, and it meets them again only by stepping back.  The forward scan
    therefore visits only the flagged gates; after a cancellation it steps
    back to the nearest live gate, as the greedy scan does.  A pass with no
    flag cancels nothing.  A pass is clean when its table, each -2 or
    deleted stop of a live gate rescanned, holds only -1 and live
    non-partners: a fresh pass would find the same stops and cancel nothing.
    """
    stop, flag = _stops(keys, window)
    if 1 not in flag:
        return None, True
    seg = memoryview(keys)
    alive = bytearray(b"\1") * len(seg)
    for i in compress(range(len(seg)), flag):
        while i >= 0 and alive[i]:
            s = stop[i]
            if s == -2 or s >= 0 and not alive[s]:
                s = stop[i] = _scan(seg, alive, i, window)
            if s < 0 or seg[s] != _PARTNERS[seg[i]]:
                break
            alive[i] = alive[s] = 0
            i = alive.rfind(1, 0, i)
    stops, live = np.frombuffer(stop, np.intc), np.frombuffer(alive, bool)
    # Live gates whose stop is -2 or deleted; where() drops what -1 and -2 read.
    redo = live & np.where(stops >= 0, ~live[stops], stops == -2)
    for i in np.flatnonzero(redo).tolist():
        s = _scan(seg, alive, i, window)
        if s == -2 or s >= 0 and seg[s] == _PARTNERS[seg[i]]:
            return alive, False
    return alive, True


@dataclass
class OptimizationReport:
    passes: list[int] = field(default_factory=list)

    @property
    def removed(self) -> int:
        return sum(self.passes)


def _step(c: Circuit, cross_step: bool) -> tuple[np.ndarray, list[float], int]:
    """The keys to optimize, their RZ angles and how often the result
    repeats: one step of the equal steps, or all of them at once with
    ``cross_step``.  RZs are never removed or reordered, so the angles pair
    up unchanged; a repeated step never empties."""
    k = c.n_steps if cross_step else 1
    return np.tile(c.keys, k) if k > 1 else c.keys, c.angles * k, c.n_steps // k


def cancel_adjacent(c: Circuit, cross_step: bool = False) -> Circuit:
    """Remove adjacent self-inverse pairs; one stack pass leaves none."""
    keys, angles, repeat = _step(c, cross_step)
    return Circuit(c.n_qubits, _drop(keys, _adjacent(keys)), angles, repeat, c.ancilla)


def commute_and_cancel(c: Circuit, cross_step: bool = False,
                       window: int | None = None) -> Circuit:
    """Cancel self-inverse pairs reachable through commuting gates."""
    keys, angles, repeat = _step(c, cross_step)
    keys = _drop(keys, _commute_pass(keys, window)[0])
    return Circuit(c.n_qubits, keys, angles, repeat, c.ancilla)


def optimize(c: Circuit, cross_step: bool = False, window: int | None = None,
             report: OptimizationReport | None = None) -> Circuit:
    """Alternate both passes until a round removes nothing or ends clean."""
    keys, angles, repeat = _step(c, cross_step)
    while True:
        before = len(keys)
        keys = _drop(keys, _adjacent(keys))
        keep, clean = _commute_pass(keys, window)
        keys = _drop(keys, keep)
        if report is not None and len(keys) < before:
            report.passes.append((before - len(keys)) * repeat)
        if clean or len(keys) == before:
            return Circuit(c.n_qubits, keys, angles, repeat, c.ancilla)


LEVELS = ("none", "cancel", "full")


def run_level(c: Circuit, level: str, cross_step: bool = False, window: int | None = None,
              report: OptimizationReport | None = None) -> Circuit:
    """``none`` keeps the circuit, ``cancel`` drops adjacent pairs, ``full`` optimizes."""
    if level not in LEVELS:
        raise ValueError(f"optimize level must be one of {LEVELS}")
    if level == "cancel":
        return cancel_adjacent(c, cross_step)
    return optimize(c, cross_step, window, report) if level == "full" else c
