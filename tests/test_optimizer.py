"""Peephole optimizer: rule soundness, exactness and step-seam discipline."""

import itertools
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermiqc
from fermiqc import optimizer
from fermiqc.circuits import (_KEYS, _PARTNERS, CNOT, CZ, RZ, SYNTHESIS_MODES, YB, YBD,
                              Circuit, Gate, H, X, _key, count_gates, parse_circuit,
                              synthesize_plan)
from fermiqc.fermion import build_hamiltonian, parse_fcidump
from fermiqc.fixtures import fixture_text
from fermiqc.mappings import MappingScheme, map_operator
from fermiqc.optimizer import (LEVELS, OptimizationReport, cancel_adjacent,
                               commute_and_cancel, optimize, run_level)
from fermiqc.trotter import OrderingStrategy, plan_for

from oracles import (circuit_unitary, pauli, qubit_operator, random_pauli_string,
                     random_plan, reference_cancel_adjacent, reference_commute,
                     reference_commute_and_cancel, reference_gate_counts, reference_optimize,
                     reference_partner, reference_stops, reference_synthesize_plan, stepped)


def gate_unitary(g: Gate, n: int) -> np.ndarray:
    return circuit_unitary(Circuit.from_gates(n, [g]))


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
    """The reference rules, by hand and against gate matrices; the optimizer
    follows them (TestAgainstReference)."""

    def test_disjoint_always(self):
        assert reference_commute(H(0), CNOT(1, 2))
        assert reference_commute(RZ(0, 0.1), X(3))

    def test_cnot_pairs(self):
        assert reference_commute(CNOT(0, 1), CNOT(0, 2))  # shared control
        assert reference_commute(CNOT(0, 2), CNOT(1, 2))  # shared target
        assert not reference_commute(CNOT(0, 1), CNOT(1, 2))  # target feeds control

    def test_diagonal_family(self):
        assert reference_commute(RZ(0, 0.3), CZ(0, 1))
        assert reference_commute(CZ(0, 1), CZ(1, 2))

    def test_diagonal_through_cnot_control(self):
        assert reference_commute(RZ(0, 0.3), CNOT(0, 1))
        assert reference_commute(CZ(0, 2), CNOT(0, 1))
        assert not reference_commute(RZ(1, 0.3), CNOT(0, 1))  # sits on the target
        assert not reference_commute(CZ(1, 2), CNOT(0, 1))

    def test_non_diagonal_blocked_on_shared_qubit(self):
        assert not reference_commute(H(0), RZ(0, 0.1))
        assert not reference_commute(X(1), CNOT(0, 1))
        assert not reference_commute(YB(0), YBD(0))

    def test_rules_never_unsound(self, rng):
        # Whenever the rules say "commutes", the matrices must agree.
        n = 3
        for _ in range(200):
            a, b = random_gate(rng, n), random_gate(rng, n)
            if reference_commute(a, b):
                ua, ub = gate_unitary(a, n), gate_unitary(b, n)
                np.testing.assert_allclose(ua @ ub, ub @ ua, atol=1e-12,
                                           err_msg=f"{a} vs {b}")


class TestCancelAdjacent:
    def test_simple_pairs(self):
        c = Circuit.from_gates(2, [H(0), H(0), CNOT(0, 1), CNOT(0, 1), YB(1), YBD(1)])
        assert cancel_adjacent(c).gates == ()

    def test_nested_pairs_need_iteration(self):
        c = Circuit.from_gates(2, [H(0), CNOT(0, 1), CNOT(0, 1), H(0)])
        assert cancel_adjacent(c).gates == ()

    def test_rz_never_cancelled(self):
        c = Circuit.from_gates(1, [RZ(0, 0.5), RZ(0, -0.5)])
        assert len(cancel_adjacent(c).gates) == 2

    def test_rz_keys(self):
        # One key per RZ qubit, never a Clifford's partner, so no RZ pairs up.
        rz = [_key("RZ", (q,)) for q in range(4)]
        assert rz == [_KEYS[("RZ", (q,))] for q in range(4)] and len(set(rz)) == 4
        assert all(_PARTNERS[k] == -1 for k in rz)
        partners = {_PARTNERS[_key(g.kind, g.qubits)] for g in all_gates(4)
                    if g.kind != "RZ"}
        assert not partners & set(rz)
        gates = [RZ(q, a) for q in range(4) for a in (0.5, -0.5, 0.5)]
        c = Circuit.from_gates(4, gates + [H(0), RZ(0, 0.1), RZ(0, 0.1), H(0)])
        assert [g.kind for g in cancel_adjacent(c).gates].count("RZ") == 14

    @pytest.mark.parametrize("gates, want", [
        ([X(0), X(0), X(0)], [X(0)]),
        ([H(0), CNOT(0, 1), CNOT(0, 1), H(0)], []),
        # Two cascades meet once the run between them empties.
        ([X(2), H(0), H(0), YB(1), YBD(1), X(2)], []),
        ([H(0), RZ(0, 0.5), X(0), X(0), H(0)], [H(0), RZ(0, 0.5), H(0)]),
        ([YB(0), YB(0), YBD(0)], [YB(0)]),  # YB is not its own inverse
        ([], []),
        ([H(1)], [H(1)]),
    ], ids=["xxx", "nested", "cascades-meet", "stopped-by-rz", "yb-yb-ybd", "empty",
            "one-gate"])
    def test_site_walk_is_the_stack_pass(self, gates, want):
        c = Circuit.from_gates(3, gates)
        assert cancel_adjacent(c).gates == reference_cancel_adjacent(c).gates == tuple(want)

    def test_yb_pair_order_irrelevant(self):
        c = Circuit.from_gates(1, [YBD(0), YB(0)])
        assert cancel_adjacent(c).gates == ()

    def test_cz_operands_in_either_order(self):
        # A symmetric CZ read as "CZ 2 1" is the same gate as "CZ 1 2".
        c = parse_circuit("QUBITS 3 ANCILLA 0\nCZ 2 1\nCZ 1 2\nH 0\nH 0\n")
        report = OptimizationReport()
        assert optimize(c, report=report).gates == ()
        assert report.removed == 4


class TestCommuteAndCancel:
    def test_cancellation_through_commuting_gates(self):
        c = Circuit.from_gates(2, [H(1), RZ(0, 0.2), H(1)])
        out = commute_and_cancel(c)
        assert out.gates == (RZ(0, 0.2),)

    def test_blocked_by_noncommuting_gate(self):
        c = Circuit.from_gates(1, [H(0), RZ(0, 0.2), H(0)])
        assert len(commute_and_cancel(c).gates) == 3

    def test_window_limits_scan(self):
        c = Circuit.from_gates(3, [H(0), RZ(1, 0.1), RZ(2, 0.2), H(0)])
        assert len(commute_and_cancel(c, window=2).gates) == 4
        assert len(commute_and_cancel(c, window=3).gates) == 2

    def test_survivors_keep_order(self):
        c = Circuit.from_gates(2, [CNOT(0, 1), RZ(1, 0.3), YB(0), CNOT(0, 1)])
        out = commute_and_cancel(c)
        assert out.gates == c.gates  # YB on the control blocks the pair


class TestBarriers:
    """Cancellation stops at the seams between Trotter steps unless asked
    to cross them."""

    def two_steps(self):
        # Each step is H RZ H, so the two steps meet in an H H pair.
        op = qubit_operator(1, [(0.5, pauli("X"))])
        return synthesize_plan(plan_for(op, OrderingStrategy("lex"), 2, 1.0))

    def test_confined_by_default(self):
        c = self.two_steps()
        assert len(c.gates) == 6
        for out in (cancel_adjacent(c), commute_and_cancel(c), optimize(c)):
            assert (out.gates, out.n_steps) == (c.gates, 2)

    def test_cross_step_opt_in(self):
        c = self.two_steps()
        for out in (cancel_adjacent(c, True), commute_and_cancel(c, True), optimize(c, True)):
            assert [g.kind for g in out.gates] == ["H", "RZ", "RZ", "H"]
            assert out.n_steps == 1


class TestOptimize:
    def test_report_counts_removals(self):
        c = Circuit.from_gates(2, [H(0), CNOT(0, 1), CNOT(0, 1), H(0), YB(1), YBD(1)])
        report = OptimizationReport()
        out = optimize(c, report=report)
        assert out.gates == ()
        assert report.removed == 6

    def test_preserves_unitary_on_random_plans(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            op = qubit_operator(n, [(float(rng.normal()), random_pauli_string(rng, n))
                                    for _ in range(int(rng.integers(2, 6)))])
            plan = plan_for(op, OrderingStrategy("random", int(rng.integers(1000))),
                            n_steps=int(rng.integers(1, 3)), time=0.8)
            circ = synthesize_plan(plan, rng.choice(["canonical", "basis_shift", "ancilla"]))
            opt = optimize(circ)
            np.testing.assert_allclose(circuit_unitary(opt), circuit_unitary(circ),
                                       atol=1e-10)
            assert count_gates(opt).total <= count_gates(circ).total

    def test_idempotent(self):
        op = qubit_operator(3, [(0.5, random_pauli_string(np.random.default_rng(0), 3)),
                                (-0.3, random_pauli_string(np.random.default_rng(1), 3))])
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
    """Random circuits over a small alphabet, so inverse pairs are common:
    one drawn step, repeated one to three times."""
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
    return stepped(n, gates, draw(st.integers(1, 3)))


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
        # a reaches its partner through b exactly when the reference rules
        # say the two commute; rule commutation is symmetric, so every pair
        # with a Clifford a covers every pair that can block a scan.
        gates = all_gates(3)
        for a, b in itertools.product(gates, gates):
            partner = reference_partner(a)
            if partner is None or b in (a, partner):
                continue
            out = optimize(Circuit.from_gates(3, [a, b, partner]))
            assert len(out.gates) == (1 if reference_commute(a, b) else 3), (a, b)

    @settings(max_examples=300, deadline=None)
    @given(circuits(), st.booleans(), windows)
    def test_passes_match_reference(self, circ, cross_step, window):
        report, passes = OptimizationReport(), []
        got = optimize(circ, cross_step, window, report)
        want = reference_optimize(circ, cross_step, window, passes)
        assert (got.gates, got.n_steps, report.passes) == (want.gates, want.n_steps, passes)
        got = commute_and_cancel(circ, cross_step, window)
        want = reference_commute_and_cancel(circ, cross_step, window)
        assert (got.gates, got.n_steps) == (want.gates, want.n_steps)
        got = cancel_adjacent(circ, cross_step)
        want = reference_cancel_adjacent(circ, cross_step)
        assert (got.gates, got.n_steps) == (want.gates, want.n_steps)


class TestEncodedPlans:
    """Synthesized circuits, optimized in their encoded form, one step at a
    time without ``cross_step``, match the reference on the Gate lists."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([None, 0, 3, 50]))
    def test_levels_match_reference(self, seed, cross_step, window):
        plan = random_plan(np.random.default_rng(seed))
        for mode in SYNTHESIS_MODES:
            circ, ref = synthesize_plan(plan, mode), reference_synthesize_plan(plan, mode)
            for level in LEVELS:
                report, passes = OptimizationReport(), []
                got = run_level(circ, level, cross_step, window, report)
                if level == "full":
                    want = reference_optimize(ref, cross_step, window, passes)
                else:
                    want = ref if level == "none" else reference_cancel_adjacent(ref, cross_step)
                assert (got.gates, got.n_steps, report.passes) == (
                    want.gates, want.n_steps, passes)
                assert count_gates(got) == reference_gate_counts(want.gates)
            got = commute_and_cancel(circ, cross_step, window)
            want = reference_commute_and_cancel(ref, cross_step, window)
            assert (got.gates, got.n_steps) == (want.gates, want.n_steps)


class TestSafety:
    @settings(max_examples=100, deadline=None)
    @given(circuits(max_qubits=4), st.booleans(), windows)
    def test_unitary_kept_and_rz_survive_in_order(self, circ, cross_step, window):
        out = optimize(circ, cross_step, window)
        assert_equal_up_to_phase(circuit_unitary(out), circuit_unitary(circ))
        rz = [g for g in circ.gates if g.kind == "RZ"]
        assert [g for g in out.gates if g.kind == "RZ"] == rz
        assert is_subsequence(out.gates, circ.gates)


@st.composite
def gate_lists(draw, max_qubits: int = 5, max_gates: int = 40) -> Circuit:
    """One-step circuits of 1-5 qubits, with an ancilla or not."""
    n, ancilla = draw(st.integers(1, max_qubits)), draw(st.booleans())
    width = n + ancilla
    kinds = ["H", "X", "YB", "YBD", "RZ"] + (["CNOT", "CZ"] if width > 1 else [])
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind, a = draw(st.sampled_from(kinds)), draw(st.integers(0, width - 1))
        if kind in ("CNOT", "CZ"):
            b = draw(st.integers(0, width - 2))
            gates.append(Gate(kind, (a, b + (b >= a))) if kind == "CNOT" else CZ(a, b + (b >= a)))
        else:
            gates.append(RZ(a, 0.5) if kind == "RZ" else Gate(kind, (a,)))
    return Circuit.from_gates(n, gates, ancilla)


class TestStopTable:
    """The commute pass reads each gate's outcome from ``_stops`` and
    rescans only where the table's answer may have changed."""

    @settings(max_examples=300, deadline=None)
    @given(gate_lists(), st.sampled_from([None, 0, 1, 2, 5]),
           st.sampled_from([(1 << 14, 1 << 11), (4, 2), (3, 0), (1, 1)]))
    def test_matches_direct_scan(self, circ, window, blocks):
        block, lookahead = blocks
        with mock.patch.multiple(optimizer, _BLOCK=block, _LOOKAHEAD=lookahead):
            table, flags = optimizer._stops(circ.keys, window)
        gates = list(circ.gates)
        want = reference_stops(gates, window, block, lookahead)
        assert list(table) == want
        assert list(flags) == [s == -2 or s >= 0 and gates[s] == reference_partner(g)
                               for g, s in zip(gates, want)]

    def test_deleted_stop_is_rescanned(self):
        # The CNOT's stop is the first H on its target.  That H cancels with
        # the second one through the RZ; the scan steps back to the CNOT,
        # whose stop is gone, and the rescan reaches its partner.
        c = Circuit.from_gates(3, [CNOT(0, 1), H(1), RZ(0, 0.3), X(2), H(1), CNOT(0, 1)])
        table, flags = optimizer._stops(c.keys, None)
        assert (list(table), list(flags)) == ([1, 4, -1, -1, 5, -1], [0, 1, 0, 0, 0, 0])
        scanned = []

        def scan(seg, alive, i, window):
            scanned.append(i)
            return rescan(seg, alive, i, window)

        rescan = optimizer._scan
        with mock.patch.object(optimizer, "_scan", scan):
            out = optimize(c)
        assert scanned == [0]
        assert out.gates == reference_optimize(c).gates == (RZ(0, 0.3), X(2))

    def test_quiet_round_is_one_table(self):
        # Nothing cancels: the pass returns without walking the gates.
        c = Circuit.from_gates(2, [H(0), CNOT(0, 1), H(0), RZ(1, 0.2), CNOT(0, 1)])
        table, flags = optimizer._stops(c.keys, None)
        assert (list(table), list(flags)) == ([1, 2, 4, -1, -1], [0] * 5)
        with mock.patch.object(optimizer, "_scan", side_effect=AssertionError):
            assert optimize(c).gates == c.gates

    @settings(max_examples=300, deadline=None)
    @given(gate_lists())
    def test_clean_pass_leaves_a_quiet_table(self, circ):
        # optimize stops on a clean pass without a confirming round: a
        # fresh table of its result flags nothing, and no adjacent pair is left.
        out = optimize(circ)
        _, flags = optimizer._stops(out.keys, None)
        assert 1 not in flags
        gates = out.gates
        assert all(reference_partner(a) != b for a, b in zip(gates, gates[1:]))

    def test_out_of_window_stop_is_not_clean(self):
        # The H pair is 5 apart, beyond the window, so the first pass ends
        # with a -2 and only cancels the CNOTs.  That pass is not clean: the
        # second one reaches the Hs.
        c = Circuit.from_gates(4, [H(0), X(3), CNOT(1, 2), RZ(1, 0.3), CNOT(1, 2), H(0)])
        report = OptimizationReport()
        assert optimize(c, window=3, report=report).gates == (X(3), RZ(1, 0.3))
        assert report.passes == [2, 2]

    def test_lih_optimizes_with_one_table(self):
        # LiH/JW, magnitude, canonical: one round cancels every pair, and its
        # table certifies that, so no round runs only to confirm it.
        ints = parse_fcidump(fixture_text("lih_sto3g"))
        qop = map_operator(build_hamiltonian(ints), MappingScheme.JORDAN_WIGNER)
        c = synthesize_plan(plan_for(qop, OrderingStrategy("magnitude"), 1, 1.0), "canonical")
        report = OptimizationReport()
        with mock.patch.object(optimizer, "_stops", wraps=optimizer._stops) as stops:
            out = optimize(c, report=report)
        assert stops.call_count == 1
        assert (len(c.keys), len(out.keys), report.passes) == (10506, 8600, [1906])

    def test_empty_circuit_before_any_key(self):
        # In a fresh process no gate has a key yet, so the key table is empty.
        script = ("from fermiqc.circuits import Circuit; from fermiqc.optimizer import optimize; "
                  "print(len(optimize(Circuit(0, [], [])).keys))")
        env = {**os.environ, "PYTHONPATH": str(Path(fermiqc.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout == "0\n"
