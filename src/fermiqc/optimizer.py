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

Each gate is encoded once per call as a tuple (qubit mask, Z mask, X mask,
key, partner key, gate), shared by all gates with the same (kind, qubits).
The Z mask holds the qubits on which the gate is diagonal (RZ, CZ, CNOT
control), the X mask a CNOT's target; two gates commute when every qubit
they share is Z for both or X for both.  The commute pass runs on two
stacks, the gates already passed and the rest in reverse, so neither
stepping back nor deleting a partner near the scan position shifts the
whole list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuits import GATE_KINDS, Circuit, Gate

_DIAGONAL = frozenset({"RZ", "CZ"})

# Fields of an encoded gate.
_MASK, _Z, _X, _KEY, _PARTNER, _GATE = range(6)


def _rule(g: Gate) -> tuple[int, int, int]:
    """(qubit mask, Z mask, X mask) of a gate for the commutation rule."""
    mask = 0
    for q in g.qubits:
        mask |= 1 << q
    if g.kind == "CNOT":
        return mask, 1 << g.qubits[0], 1 << g.qubits[1]
    if g.kind in _DIAGONAL:
        return mask, mask, 0
    return mask, 0, 0


def commute(a: Gate, b: Gate) -> bool:
    """Rule-based commutation test for an ordered gate pair."""
    mask_a, z_a, x_a = _rule(a)
    mask_b, z_b, x_b = _rule(b)
    shared = mask_a & mask_b
    return shared == (z_a & z_b) | (x_a & x_b)


def _cancel_adjacent_pass(seg: list[tuple]) -> None:
    """Drop adjacent inverse pairs in place with a stack; none remain."""
    top = 0
    for e in seg:
        if top and seg[top - 1][_PARTNER] == e[_KEY]:
            top -= 1
        else:
            seg[top] = e
            top += 1
    del seg[top:]


def _commute_pass(seg: list[tuple], window: int | None) -> list[tuple]:
    """One greedy commute-and-cancel pass; consumes ``seg``.

    ``done`` holds the gates left of the scan position, ``rest`` the gate
    at it and everything right of it, reversed, so ``rest[-1]`` is the
    current gate and ``rest[-1 - k]`` the k-th gate after it.
    """
    rest = seg
    rest.reverse()
    done: list[tuple] = []
    while rest:
        g = rest[-1]
        partner = g[_PARTNER]
        hit = -1
        if partner is not None:
            mask, z, x = g[_MASK], g[_Z], g[_X]
            top = len(rest) - 1
            stop = -1 if window is None else max(top - 1 - window, -1)
            for k in range(top - 1, stop, -1):
                h = rest[k]
                if h[_KEY] == partner:
                    hit = k
                    break
                # The test of commute(), inlined: this is the hot loop.
                shared = mask & h[_MASK]
                if shared and shared != (z & h[_Z]) | (x & h[_X]):
                    break
        if hit < 0:
            done.append(rest.pop())
        else:
            del rest[hit]
            rest.pop()
            if done:
                rest.append(done.pop())
    return done


@dataclass
class OptimizationReport:
    passes: list[int] = field(default_factory=list)

    @property
    def removed(self) -> int:
        return sum(self.passes)


def _encoded_segments(c: Circuit, cross_step: bool) -> list[list[tuple]]:
    """Segments of encoded gates; one shared encoding per Clifford (kind, qubits).

    Keys number the (kind, qubits) pairs seen, partners included.  RZ gates
    get key -1 and no partner, so they neither cancel nor are cancelled.
    """
    if cross_step or not c.barriers:
        parts = [c.gates]
    else:
        bounds = [0, *c.barriers, len(c.gates)]
        parts = [c.gates[a:b] for a, b in zip(bounds, bounds[1:])]
    keys: dict[tuple, int] = {}
    shared: dict[tuple, tuple] = {}
    segs = []
    for part in parts:
        out = []
        for g in part:
            if g.kind == "RZ":
                out.append((*_rule(g), -1, None, g))
                continue
            enc = shared.get((g.kind, g.qubits))
            if enc is None:
                key = keys.setdefault((g.kind, g.qubits), len(keys))
                partner = keys.setdefault((GATE_KINDS[g.kind][1], g.qubits), len(keys))
                enc = shared[(g.kind, g.qubits)] = (*_rule(g), key, partner, g)
            out.append(enc)
        segs.append(out)
    return segs


def _rebuild(c: Circuit, segments: list[list[tuple]]) -> Circuit:
    gates: list[Gate] = []
    barriers: list[int] = []
    for k, seg in enumerate(segments):
        if k:
            barriers.append(len(gates))
        gates.extend(e[_GATE] for e in seg)
    return Circuit(c.n_qubits, gates, ancilla=c.ancilla, barriers=barriers)


def cancel_adjacent(c: Circuit, cross_step: bool = False) -> Circuit:
    """Remove adjacent self-inverse pairs; one stack pass leaves none."""
    segs = _encoded_segments(c, cross_step)
    for seg in segs:
        _cancel_adjacent_pass(seg)
    return _rebuild(c, segs)


def commute_and_cancel(c: Circuit, cross_step: bool = False,
                       window: int | None = None) -> Circuit:
    """Cancel self-inverse pairs reachable through commuting gates."""
    segs = [_commute_pass(seg, window) for seg in _encoded_segments(c, cross_step)]
    return _rebuild(c, segs)


def optimize(c: Circuit, cross_step: bool = False, window: int | None = None,
             report: OptimizationReport | None = None) -> Circuit:
    """Alternate both cancellation passes until a full sweep changes nothing."""
    segs = _encoded_segments(c, cross_step)
    while True:
        removed = 0
        for k, seg in enumerate(segs):
            before = len(seg)
            _cancel_adjacent_pass(seg)
            segs[k] = _commute_pass(seg, window)
            removed += before - len(segs[k])
        if report is not None and removed:
            report.passes.append(removed)
        if removed == 0:
            return _rebuild(c, segs)


LEVELS = ("none", "cancel", "full")


def run_level(c: Circuit, level: str, cross_step: bool = False, window: int | None = None,
              report: OptimizationReport | None = None) -> Circuit:
    """``none`` keeps the circuit, ``cancel`` drops adjacent pairs, ``full`` optimizes."""
    if level not in LEVELS:
        raise ValueError(f"optimize level must be one of {LEVELS}")
    if level == "cancel":
        return cancel_adjacent(c, cross_step)
    return optimize(c, cross_step, window, report) if level == "full" else c
