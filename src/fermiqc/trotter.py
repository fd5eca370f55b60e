"""Term ordering strategies and first-order Trotter plans."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .pauli import DEFAULT_TOL, PauliString, QubitOperator, lex_order


@dataclass(frozen=True)
class OrderingStrategy:
    """One of magnitude / lex / random / lexomag; random carries its seed.
    Only the magnitude sorts have a direction: lex and random always hold
    ``descending_magnitude=True``, so equal orderings compare equal."""

    kind: str
    seed: int | None = None
    descending_magnitude: bool = True

    KINDS = ("magnitude", "lex", "random", "lexomag")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown ordering {self.kind!r}")
        if self.kind == "random" and self.seed is None:
            raise ValueError("random ordering requires a seed")
        if self.kind in ("lex", "random"):
            object.__setattr__(self, "descending_magnitude", True)

    @classmethod
    def parse(cls, text: str) -> "OrderingStrategy":
        """The inverse of ``str()``: magnitude[-asc] | lex | lexomag[-asc] | random:<seed>."""
        if text.startswith("random:"):
            try:
                return cls("random", int(text.split(":", 1)[1]))
            except ValueError:
                raise ValueError(f"random ordering needs an integer seed, got {text!r}") from None
        kind = text.removesuffix("-asc")
        if kind != text and kind not in ("magnitude", "lexomag"):
            raise ValueError(f"unknown ordering {text!r}")
        return cls(kind, descending_magnitude=kind == text)

    @property
    def label(self) -> str:
        """The report's ordering name: the kind, ``-asc`` added when a
        magnitude sort is ascending; a random ordering's seed goes apart."""
        ascending = not self.descending_magnitude and self.kind in ("magnitude", "lexomag")
        return f"{self.kind}-asc" if ascending else self.kind

    def __str__(self):
        return f"random:{self.seed}" if self.kind == "random" else self.label


def order_terms(op: QubitOperator, strategy: OrderingStrategy) -> np.ndarray:
    """Indices into the operator's ``arrays()``, in the strategy's term order."""
    x, z, coeffs = op.arrays()
    lex = lex_order(op.n, x, z)
    if strategy.kind == "lex":
        return lex
    if strategy.kind == "random":
        shuffled = lex.tolist()
        random.Random(strategy.seed).shuffle(shuffled)
        return np.array(shuffled, dtype=np.intp)
    # A stable sort of the lex permutation, so ties keep lex order; magnitudes
    # are ranked in steps of 2^-40, so float noise in the last bits ties too.
    mags = np.rint(np.abs(coeffs[lex]) * 2.0**40)
    mag = lex[np.argsort(-mags if strategy.descending_magnitude else mags, kind="stable")]
    if strategy.kind == "magnitude":
        return mag
    # lexomag: the lex and magnitude streams in turn, lex first, skipping taken terms.
    streams, out = [iter(lex.tolist()), iter(mag.tolist())], []
    taken = np.zeros(len(lex), dtype=bool)
    while len(out) < len(lex):
        j = next(j for j in streams[len(out) % 2] if not taken[j])
        taken[j] = True
        out.append(j)
    return np.array(out, dtype=np.intp)


@dataclass
class TrotterPlan:
    """A first-order product-formula schedule for exp(-i H t).

    The realized unitary is (prod_j exp(-i c_j (t/n) P_j))^n over the
    non-identity terms, held as ``QubitOperator.arrays`` in plan order; the
    identity component rides along as a classical scalar offset.
    """

    n_qubits: int
    x: np.ndarray
    z: np.ndarray
    coeffs: np.ndarray
    n_steps: int
    time: float
    scalar_offset: float = 0.0

    @property
    def ordered_terms(self) -> list[tuple[PauliString, complex]]:
        """The (string, coefficient) pairs in plan order, built on each call."""
        return [(PauliString(self.n_qubits, x, z), c)
                for x, z, c in zip(self.x.tolist(), self.z.tolist(), self.coeffs.tolist())]

    def angles(self) -> list[float]:
        """Rotation angle per term: theta_j = 2 c_j t / n."""
        return (2.0 * self.coeffs.real * (self.time / self.n_steps)).tolist()


def plan_for(op: QubitOperator, strategy: OrderingStrategy, n_steps: int,
             time: float) -> TrotterPlan:
    """Order an operator's terms and wrap them in a plan.

    A plan's angles and offset are real, so a non-Hermitian operator (an
    imaginary part above DEFAULT_TOL) raises ValueError.
    """
    x, z, coeffs = op.arrays()
    c = np.concatenate(([op.constant], coeffs))
    i = int(np.argmax(np.abs(c.imag) > DEFAULT_TOL))  # the first offender, or 0
    if abs(c[i].imag) > DEFAULT_TOL:
        s = PauliString(op.n, int(x[i - 1]), int(z[i - 1])) if i else PauliString(op.n)
        raise ValueError(f"operator is not Hermitian: term {s.label} has "
                         f"coefficient {c[i].item()!r}")
    if n_steps < 1:
        raise ValueError("need at least one Trotter step")
    order = order_terms(op, strategy)
    return TrotterPlan(op.n, x[order], z[order], coeffs[order], n_steps, time, op.constant.real)
