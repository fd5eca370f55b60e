"""Rule-based peephole optimization: duplicate cancellation to fixpoint.

Commutation is decided purely by rules, never by gate matrices:
- gates on disjoint qubits always commute;
- CNOTs commute unless one targets the other's control;
- diagonal gates (RZ, CZ) commute with each other and with CNOT controls;
- non-diagonal single-qubit gates (H, YB, YBD, X) only commute off-qubit.

Cancellation deletes reachable self-inverse pairs without reordering the
surviving gates, so every rewrite is an exact identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuits import Circuit, Gate

_DIAGONAL = frozenset({"RZ", "CZ"})


def commute(a: Gate, b: Gate) -> bool:
    """Rule-based commutation test for an ordered gate pair."""
    if not set(a.qubits) & set(b.qubits):
        return True
    if a.kind in _DIAGONAL and b.kind in _DIAGONAL:
        return True
    if a.kind == "CNOT" and b.kind == "CNOT":
        return a.qubits[1] != b.qubits[0] and b.qubits[1] != a.qubits[0]
    for first, second in ((a, b), (b, a)):
        if first.kind in _DIAGONAL and second.kind == "CNOT":
            # Diagonal gates pass over a CNOT's control, not its target.
            return second.qubits[1] not in first.qubits
    return False


def _commute_and_cancel_pass(gates: list[Gate], window: int | None) -> list[Gate]:
    gates = list(gates)
    i = 0
    while i < len(gates):
        g = gates[i]
        partner = g.inverse_partner()
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
            if not commute(g, gates[j]):
                break
            j += 1
        if hit is None:
            i += 1
        else:
            del gates[hit]
            del gates[i]
            i = max(i - 1, 0)
    return gates


@dataclass
class OptimizationReport:
    passes: list[int] = field(default_factory=list)

    @property
    def removed(self) -> int:
        return sum(self.passes)


def _segments(c: Circuit, cross_step: bool) -> list[list[Gate]]:
    if cross_step or not c.barriers:
        return [list(c.gates)]
    bounds = [0, *c.barriers, len(c.gates)]
    return [c.gates[a:b] for a, b in zip(bounds, bounds[1:])]


def _rebuild(c: Circuit, segments: list[list[Gate]]) -> Circuit:
    gates: list[Gate] = []
    barriers: list[int] = []
    for k, seg in enumerate(segments):
        if k:
            barriers.append(len(gates))
        gates.extend(seg)
    return Circuit(c.n_qubits, gates, ancilla=c.ancilla, barriers=barriers)


def cancel_adjacent(c: Circuit, cross_step: bool = False) -> Circuit:
    """Remove adjacent self-inverse pairs; one stack pass leaves none."""
    segs = []
    for seg in _segments(c, cross_step):
        out: list[Gate] = []
        for g in seg:
            if out and out[-1].inverse_partner() == g:
                out.pop()
            else:
                out.append(g)
        segs.append(out)
    return _rebuild(c, segs)


def commute_and_cancel(c: Circuit, cross_step: bool = False,
                       window: int | None = None) -> Circuit:
    """Cancel self-inverse pairs reachable through commuting gates."""
    segs = [_commute_and_cancel_pass(seg, window) for seg in _segments(c, cross_step)]
    return _rebuild(c, segs)


def optimize(c: Circuit, cross_step: bool = False, window: int | None = None,
             report: OptimizationReport | None = None) -> Circuit:
    """Alternate both cancellation passes until a full sweep changes nothing."""
    current = c
    while True:
        before = len(current.gates)
        current = cancel_adjacent(current, cross_step)
        current = commute_and_cancel(current, cross_step, window)
        removed = before - len(current.gates)
        if report is not None and removed:
            report.passes.append(removed)
        if removed == 0:
            return current
