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

The passes read a circuit's encoded form (``Circuit.entries``): one shared
entry (qubit mask, Z mask, X mask, key, partner key, gate) per Clifford
(kind, qubits) and one per RZ qubit.  Two gates commute when every qubit
they share is Z for both or X for both.  Step seams come from
``Circuit.n_steps`` alone: without ``cross_step`` the steps are equal, so
one step is optimized and the result repeated; with it the steps are
optimized as one list.  The commute pass runs on two stacks, the gates
already passed and the rest in reverse, so neither stepping back nor
deleting a partner near the scan position shifts the whole list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from operator import length_hint

from .circuits import _KEY, _MASK, _PARTNER, _X, _Z, Circuit


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
            it = reversed(rest)
            next(it)
            for h in islice(it, window):
                if h[_KEY] == partner:
                    hit = length_hint(it)  # the index of h in rest
                    break
                # h blocks the scan unless the two commute.
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


def _step(c: Circuit, cross_step: bool) -> tuple[list[tuple], list[float], int]:
    """A fresh entry list to optimize, its RZ angles and how often its
    result repeats: one step of the equal steps, or all of them at once
    with ``cross_step``.  RZs are never removed or reordered, so the angles
    pair up unchanged, and a repeated step never empties."""
    k = c.n_steps if cross_step else 1
    return c.entries * k, c.angles * k, c.n_steps // k


def cancel_adjacent(c: Circuit, cross_step: bool = False) -> Circuit:
    """Remove adjacent self-inverse pairs; one stack pass leaves none."""
    seg, angles, repeat = _step(c, cross_step)
    _cancel_adjacent_pass(seg)
    return Circuit(c.n_qubits, seg, angles, repeat, c.ancilla)


def commute_and_cancel(c: Circuit, cross_step: bool = False,
                       window: int | None = None) -> Circuit:
    """Cancel self-inverse pairs reachable through commuting gates."""
    seg, angles, repeat = _step(c, cross_step)
    return Circuit(c.n_qubits, _commute_pass(seg, window), angles, repeat, c.ancilla)


def optimize(c: Circuit, cross_step: bool = False, window: int | None = None,
             report: OptimizationReport | None = None) -> Circuit:
    """Alternate both cancellation passes until a full sweep changes nothing."""
    seg, angles, repeat = _step(c, cross_step)
    while True:
        before = len(seg)
        _cancel_adjacent_pass(seg)
        seg = _commute_pass(seg, window)
        if report is not None and len(seg) < before:
            report.passes.append((before - len(seg)) * repeat)
        if len(seg) == before:
            return Circuit(c.n_qubits, seg, angles, repeat, c.ancilla)


LEVELS = ("none", "cancel", "full")


def run_level(c: Circuit, level: str, cross_step: bool = False, window: int | None = None,
              report: OptimizationReport | None = None) -> Circuit:
    """``none`` keeps the circuit, ``cancel`` drops adjacent pairs, ``full`` optimizes."""
    if level not in LEVELS:
        raise ValueError(f"optimize level must be one of {LEVELS}")
    if level == "cancel":
        return cancel_adjacent(c, cross_step)
    return optimize(c, cross_step, window, report) if level == "full" else c
