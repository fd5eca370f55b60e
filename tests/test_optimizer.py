"""Peephole optimizer: rule soundness, exactness and barrier discipline."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiqc.circuits import (CNOT, CZ, RZ, YB, YBD, Circuit, Gate, H, X,
                              count_gates, synthesize_plan)
from fermiqc.optimizer import (OptimizationReport, cancel_adjacent, commute,
                               commute_and_cancel, optimize)
from fermiqc.pauli import QubitOperator
from fermiqc.trotter import OrderingStrategy, plan_for

from oracles import (circuit_unitary, random_pauli_string, reference_cancel_adjacent,
                     reference_commute, reference_commute_and_cancel, reference_optimize)


def gate_unitary(g: Gate, n: int) -> np.ndarray:
    c = Circuit(n)
    c.append(g)
    return circuit_unitary(c)


def random_gate(rng, n: int) -> Gate:
    kind = rng.choice(["H", "X", "YB", "YBD", "RZ", "CNOT", "CZ"])
    if kind in ("CNOT", "CZ"):
        a, b = rng.choice(n, size=2, replace=False)
        return Gate(kind, (int(a), int(b))) if kind == "CNOT" else CZ(int(a), int(b))
    q = int(rng.integers(0, n))
    if kind == "RZ":
        return RZ(q, float(rng.uniform(-np.pi, np.pi)))
    return Gate(kind, (q,))


class TestCommuteRules:
    def test_disjoint_always(self):
        assert commute(H(0), CNOT(1, 2))
        assert commute(RZ(0, 0.1), X(3))

    def test_cnot_pairs(self):
        assert commute(CNOT(0, 1), CNOT(0, 2))   # shared control
        assert commute(CNOT(0, 2), CNOT(1, 2))   # shared target
        assert not commute(CNOT(0, 1), CNOT(1, 2))  # target feeds control

    def test_diagonal_family(self):
        assert commute(RZ(0, 0.3), CZ(0, 1))
        assert commute(CZ(0, 1), CZ(1, 2))

    def test_diagonal_through_cnot_control(self):
        assert commute(RZ(0, 0.3), CNOT(0, 1))
        assert commute(CZ(0, 2), CNOT(0, 1))
        assert not commute(RZ(1, 0.3), CNOT(0, 1))  # sits on the target
        assert not commute(CZ(1, 2), CNOT(0, 1))

    def test_non_diagonal_blocked_on_shared_qubit(self):
        assert not commute(H(0), RZ(0, 0.1))
        assert not commute(X(1), CNOT(0, 1))
        assert not commute(YB(0), YBD(0))

    def test_rules_never_unsound(self, rng):
        # Whenever the rules say "commutes", the matrices must agree.
        n = 3
        for _ in range(200):
            a, b = random_gate(rng, n), random_gate(rng, n)
            if commute(a, b):
                ua, ub = gate_unitary(a, n), gate_unitary(b, n)
                np.testing.assert_allclose(ua @ ub, ub @ ua, atol=1e-12,
                                           err_msg=f"{a} vs {b}")


class TestCancelAdjacent:
    def test_simple_pairs(self):
        c = Circuit(2)
        c.extend([H(0), H(0), CNOT(0, 1), CNOT(0, 1), YB(1), YBD(1)])
        assert cancel_adjacent(c).gates == []

    def test_nested_pairs_need_iteration(self):
        c = Circuit(2)
        c.extend([H(0), CNOT(0, 1), CNOT(0, 1), H(0)])
        assert cancel_adjacent(c).gates == []

    def test_rz_never_cancelled(self):
        c = Circuit(1)
        c.extend([RZ(0, 0.5), RZ(0, -0.5)])
        assert len(cancel_adjacent(c).gates) == 2

    def test_yb_pair_order_irrelevant(self):
        c = Circuit(1)
        c.extend([YBD(0), YB(0)])
        assert cancel_adjacent(c).gates == []


class TestCommuteAndCancel:
    def test_cancellation_through_commuting_gates(self):
        c = Circuit(2)
        c.extend([H(1), RZ(0, 0.2), H(1)])
        out = commute_and_cancel(c)
        assert out.gates == [RZ(0, 0.2)]

    def test_blocked_by_noncommuting_gate(self):
        c = Circuit(1)
        c.extend([H(0), RZ(0, 0.2), H(0)])
        assert len(commute_and_cancel(c).gates) == 3

    def test_window_limits_scan(self):
        c = Circuit(3)
        c.extend([H(0), RZ(1, 0.1), RZ(2, 0.2), H(0)])
        assert len(commute_and_cancel(c, window=2).gates) == 4
        assert len(commute_and_cancel(c, window=3).gates) == 2

    def test_survivors_keep_order(self):
        c = Circuit(2)
        c.extend([CNOT(0, 1), RZ(1, 0.3), YB(0), CNOT(0, 1)])
        out = commute_and_cancel(c)
        assert out.gates == c.gates  # YB on the control blocks the pair


class TestBarriers:
    def pair_across_barrier(self):
        c = Circuit(1)
        c.extend([H(0), H(0)])
        c.barriers = [1]
        return c

    def test_confined_by_default(self):
        assert len(cancel_adjacent(self.pair_across_barrier()).gates) == 2
        assert len(optimize(self.pair_across_barrier()).gates) == 2

    def test_cross_step_opt_in(self):
        assert cancel_adjacent(self.pair_across_barrier(), cross_step=True).gates == []

    def test_barrier_positions_updated(self):
        c = Circuit(1)
        c.extend([H(0), H(0), X(0), X(0), H(0)])
        c.barriers = [4]
        out = optimize(c)
        assert out.gates == [H(0)]
        assert out.barriers == [0]


class TestOptimize:
    def test_report_counts_removals(self):
        c = Circuit(2)
        c.extend([H(0), CNOT(0, 1), CNOT(0, 1), H(0), YB(1), YBD(1)])
        report = OptimizationReport()
        out = optimize(c, report=report)
        assert out.gates == []
        assert report.removed == 6

    def test_preserves_unitary_on_random_plans(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            op = QubitOperator(n)
            for _ in range(int(rng.integers(2, 6))):
                op.add_term(float(rng.normal()), random_pauli_string(rng, n))
            plan = plan_for(op, OrderingStrategy("random", int(rng.integers(1000))),
                            n_steps=int(rng.integers(1, 3)), time=0.8)
            circ = synthesize_plan(plan, rng.choice(["canonical", "basis_shift", "ancilla"]))
            opt = optimize(circ)
            np.testing.assert_allclose(circuit_unitary(opt), circuit_unitary(circ),
                                       atol=1e-10)
            assert count_gates(opt).total <= count_gates(circ).total

    def test_idempotent(self):
        op = QubitOperator(3)
        op.add_term(0.5, random_pauli_string(np.random.default_rng(0), 3))
        op.add_term(-0.3, random_pauli_string(np.random.default_rng(1), 3))
        circ = synthesize_plan(plan_for(op, OrderingStrategy("lex"), 2, 1.0), "canonical")
        once = optimize(circ)
        twice = optimize(once)
        assert once.gates == twice.gates


def all_gates(n: int) -> list[Gate]:
    out = [Gate(k, (q,)) for k in ("H", "X", "YB", "YBD") for q in range(n)]
    out += [RZ(q, 0.25) for q in range(n)]
    out += [Gate(k, pair) for k in ("CNOT", "CZ")
            for pair in itertools.permutations(range(n), 2)]
    return out


@st.composite
def circuits(draw, max_qubits: int = 5, max_gates: int = 40) -> Circuit:
    """Random circuits over a small alphabet, so inverse pairs are common."""
    n = draw(st.integers(1, max_qubits))
    kinds = ["H", "X", "YB", "YBD", "RZ"] + (["CNOT", "CZ"] if n > 1 else [])
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        a = draw(st.integers(0, n - 1))
        if kind in ("CNOT", "CZ"):
            b = draw(st.integers(0, n - 2))
            gates.append(Gate(kind, (a, b + (b >= a))))
        elif kind == "RZ":
            gates.append(RZ(a, draw(st.floats(-3.0, 3.0))))
        else:
            gates.append(Gate(kind, (a,)))
    barriers = sorted(draw(st.lists(st.integers(0, len(gates)), max_size=3)))
    return Circuit(n, gates, barriers=barriers)


windows = st.sampled_from([None, 0, 1, 2, 3, 4, 5, 6])


def assert_equal_up_to_phase(a: np.ndarray, b: np.ndarray) -> None:
    # Phase from the overlap, not from one pivot entry: ties between
    # entries of equal magnitude make a pivot choice unstable.
    overlap = np.vdot(b, a)
    np.testing.assert_allclose(a, b * (overlap / abs(overlap)), atol=1e-10, rtol=0)


def is_subsequence(short: list[Gate], long: list[Gate]) -> bool:
    it = iter(long)
    return all(any(g == h for h in it) for g in short)


class TestAgainstReference:
    """The optimizer reproduces the plain list-based greedy exactly."""

    def test_commute_matches_reference_rules(self):
        gates = all_gates(3)
        for a, b in itertools.product(gates, gates):
            assert commute(a, b) == reference_commute(a, b), (a, b)

    @settings(max_examples=300, deadline=None)
    @given(circuits(), st.booleans(), windows)
    def test_passes_match_reference(self, circ, cross_step, window):
        report, passes = OptimizationReport(), []
        got = optimize(circ, cross_step, window, report)
        want = reference_optimize(circ, cross_step, window, passes)
        assert (got.gates, got.barriers, report.passes) == (want.gates, want.barriers, passes)
        got = commute_and_cancel(circ, cross_step, window)
        want = reference_commute_and_cancel(circ, cross_step, window)
        assert (got.gates, got.barriers) == (want.gates, want.barriers)
        got = cancel_adjacent(circ, cross_step)
        want = reference_cancel_adjacent(circ, cross_step)
        assert (got.gates, got.barriers) == (want.gates, want.barriers)


class TestSafety:
    @settings(max_examples=100, deadline=None)
    @given(circuits(max_qubits=4), st.booleans(), windows)
    def test_unitary_kept_and_rz_survive_in_order(self, circ, cross_step, window):
        out = optimize(circ, cross_step, window)
        assert_equal_up_to_phase(circuit_unitary(out), circuit_unitary(circ))
        rz = [g for g in circ.gates if g.kind == "RZ"]
        assert [g for g in out.gates if g.kind == "RZ"] == rz
        assert is_subsequence(out.gates, circ.gates)
