"""Term ordering strategies and first-order Trotter plans."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .pauli import DEFAULT_TOL, PauliString, QubitOperator, lex_order


@dataclass(frozen=True)
class OrderingStrategy:
    """One of magnitude / lex / random / lexomag; random carries its seed."""

    kind: str
    seed: int | None = None
    descending_magnitude: bool = True

    KINDS = ("magnitude", "lex", "random", "lexomag")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown ordering {self.kind!r}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random ordering requires a seed")

    @classmethod
    def parse(cls, text: str, descending_magnitude: bool = True) -> "OrderingStrategy":
        """Parse CLI spellings: magnitude | lex | lexomag | random:<seed>."""
        if text.startswith("random:"):
            try:
                return cls("random", int(text.split(":", 1)[1]))
            except ValueError:
                raise ValueError(f"random ordering needs an integer seed, got {text!r}") from None
        return cls(text, descending_magnitude=descending_magnitude)

    def __str__(self):
        return f"random:{self.seed}" if self.kind == "random" else self.kind


def _magnitude_sorted(terms: list[tuple[PauliString, complex]],
                      descending: bool) -> list[tuple[PauliString, complex]]:
    # ``terms`` come in lex order and sorted() is stable, so ties keep lex order.
    return sorted(terms, key=lambda t: -abs(t[1]) if descending else abs(t[1]))


def order_terms(op: QubitOperator, strategy: OrderingStrategy) -> list[tuple[PauliString, complex]]:
    """Permute the operator's non-identity terms per the chosen strategy."""
    items, (x, z, _) = list(op.items()), op.arrays()
    terms = [items[i] for i in lex_order(op.n, x, z).tolist()]
    if strategy.kind == "lex":
        return terms
    if strategy.kind == "magnitude":
        return _magnitude_sorted(terms, strategy.descending_magnitude)
    if strategy.kind == "random":
        rng = random.Random(strategy.seed)
        shuffled = list(terms)
        rng.shuffle(shuffled)
        return shuffled
    # lexomag: alternate the lex and magnitude streams, lex first,
    # skipping terms already emitted.
    mag = _magnitude_sorted(terms, strategy.descending_magnitude)
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


@dataclass
class TrotterPlan:
    """A first-order product-formula schedule for exp(-i H t).

    The realized unitary is (prod_j exp(-i c_j (t/n) P_j))^n over the
    ordered non-identity terms; the identity component rides along as a
    classical scalar offset.
    """

    n_qubits: int
    ordered_terms: list[tuple[PauliString, complex]]
    n_steps: int
    time: float
    scalar_offset: float = 0.0

    def angles(self) -> list[float]:
        """Rotation angle per term: theta_j = 2 c_j t / n."""
        dt = self.time / self.n_steps
        return [2.0 * coeff.real * dt for _, coeff in self.ordered_terms]


def plan_for(op: QubitOperator, strategy: OrderingStrategy, n_steps: int,
             time: float) -> TrotterPlan:
    """Order an operator's terms and wrap them in a plan.

    A plan's angles and offset are real, so a non-Hermitian operator (an
    imaginary part above DEFAULT_TOL) raises ValueError.
    """
    for s, c in ((PauliString(op.n), op.constant), *op.items()):
        if abs(c.imag) > DEFAULT_TOL:
            raise ValueError(f"operator is not Hermitian: term {s.label} has "
                             f"coefficient {c!r}")
    if n_steps < 1:
        raise ValueError("need at least one Trotter step")
    return TrotterPlan(op.n, order_terms(op, strategy), n_steps, time, op.constant.real)
