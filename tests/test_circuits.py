"""Circuit synthesis against the dense Pauli-exponential oracle."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermiqc.circuits import (CNOT, CZ, RZ, YB, YBD, Circuit, Gate, GateCounts, H, X,
                              SYNTHESIS_MODES, count_gates, format_circuit,
                              parse_circuit, synthesize_plan, synthesize_term,
                              synthesize_term_ancilla, synthesize_term_basis_shift,
                              term_gate_counts)
from fermiqc.pauli import PauliString, QubitOperator
from fermiqc.trotter import OrderingStrategy, plan_for

from oracles import (assert_same_up_to_phase, circuit_unitary, pauli_exponential,
                     random_pauli_string, reference_format_circuit, reference_parse_circuit)

_SYNTH = {
    "canonical": synthesize_term,
    "basis_shift": synthesize_term_basis_shift,
    "ancilla": synthesize_term_ancilla,
}


def realized_unitary(circ: Circuit) -> np.ndarray:
    """Data-register unitary; for ancilla circuits the |0> input block."""
    u = circuit_unitary(circ)
    if circ.ancilla:
        dim = 1 << circ.n_qubits
        return u[:dim, :dim]
    return u


class TestGate:
    def test_slotted_pickle_hash_and_equality(self):
        g = RZ(2, 0.25)
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == hash(g) and back is not g
        assert not hasattr(g, "__dict__")
        with pytest.raises(AttributeError):
            g.angle = 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            Gate("CNOT", (1, 1))
        with pytest.raises(ValueError):
            Gate("H", (0, 1))
        with pytest.raises(ValueError):
            Gate("SWAP", (0, 1))
        with pytest.raises(ValueError):
            Gate("H", (0,), angle=0.5)
        with pytest.raises(ValueError):
            Gate("RZ", (0,))

    def test_negative_qubit_rejected_at_construction(self):
        for make in (lambda: Gate("H", (-1,)), lambda: CNOT(0, -2), lambda: CZ(-1, 1),
                     lambda: RZ(-3, 0.5)):
            with pytest.raises(ValueError, match="negative qubit"):
                make()

    def test_cz_symmetric(self):
        assert CZ(3, 1) == CZ(1, 3)

    def test_clifford_constructors_share_one_gate(self):
        assert H(0) is H(0) and CNOT(1, 2) is CNOT(1, 2) and CZ(3, 1) is CZ(1, 3)
        assert H(0) is not H(1) and CNOT(1, 2) is not CNOT(2, 1)
        assert H(0) == Gate("H", (0,))
        assert RZ(0, 0.5) is not RZ(0, 0.5)


class TestCircuit:
    def test_width_and_ancilla(self):
        c = Circuit(3, ancilla=True)
        assert c.width == 4

    def test_append_bounds(self):
        c = Circuit(2)
        with pytest.raises(ValueError):
            c.append(H(2))


class TestGateCounts:
    def test_count_gates(self):
        c = Circuit(3)
        c.extend([H(0), CNOT(0, 1), RZ(1, 0.2), CZ(1, 2), YB(2)])
        assert count_gates(c) == GateCounts(5, 2, 2, 1)


class TestSynthesis:
    @pytest.mark.parametrize("mode", SYNTHESIS_MODES)
    def test_single_qubit_terms(self, mode):
        for label, theta in [("Z", 0.7), ("X", -1.2), ("Y", 2.3)]:
            s = PauliString.from_label(label)
            circ = _SYNTH[mode](s, theta)
            assert_same_up_to_phase(realized_unitary(circ), pauli_exponential(s, theta))

    @pytest.mark.parametrize("mode", SYNTHESIS_MODES)
    def test_random_terms(self, mode, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            s = random_pauli_string(rng, n)
            theta = float(rng.uniform(-np.pi, np.pi))
            circ = _SYNTH[mode](s, theta)
            assert_same_up_to_phase(realized_unitary(circ), pauli_exponential(s, theta))

    @pytest.mark.parametrize("mode", SYNTHESIS_MODES)
    def test_identity_rejected(self, mode):
        with pytest.raises(ValueError):
            _SYNTH[mode](PauliString(3), 0.5)

    def test_canonical_structure(self):
        s = PauliString.from_label("YZIZX")
        circ = synthesize_term(s, 0.4)
        kinds = [g.kind for g in circ.gates]
        # basis changes bracket a symmetric CNOT ladder around one rotation
        assert kinds == ["YB", "H", "CNOT", "CNOT", "CNOT", "RZ",
                         "CNOT", "CNOT", "CNOT", "H", "YBD"]
        assert circ.gates[5] == RZ(4, 0.4)

    def test_ancilla_returns_to_zero(self):
        s = PauliString.from_label("XYZ")
        u = circuit_unitary(synthesize_term_ancilla(s, 0.9))
        dim = 1 << 3
        # no amplitude may leak from the |0>-ancilla block
        np.testing.assert_allclose(u[dim:, :dim], 0.0, atol=1e-12)

    def test_basis_shift_rotation_adjacent_to_basis_change(self):
        s = PauliString.from_label("ZZZZX")
        gates = synthesize_term_basis_shift(s, 0.3).gates
        i = next(k for k, g in enumerate(gates) if g.kind == "RZ")
        assert gates[i - 1] == H(4) and gates[i + 1] == H(4)


class TestTermGateCounts:
    @pytest.mark.parametrize("mode", SYNTHESIS_MODES)
    def test_matches_synthesized_circuit(self, mode, rng):
        for _ in range(40):
            n = int(rng.integers(1, 9))
            s = random_pauli_string(rng, n)
            assert term_gate_counts(s, mode) == count_gates(_SYNTH[mode](s, 0.1)), s

    def test_identity_is_free(self):
        assert term_gate_counts(PauliString(4)) == GateCounts(0, 0, 0, 0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            term_gate_counts(PauliString.from_label("X"), "magic")


class TestSynthesizePlan:
    def make_plan(self, n_steps=1, time=1.0):
        op = QubitOperator(3)
        op.add_term(0.5, PauliString.from_label("XZI"))
        op.add_term(-0.25, PauliString.from_label("IYZ"))
        return plan_for(op, OrderingStrategy("lex"), n_steps, time)

    def test_matches_term_product(self):
        plan = self.make_plan()
        u = circuit_unitary(synthesize_plan(plan, "canonical"))
        want = np.eye(8, dtype=complex)
        for (s, _), theta in zip(plan.ordered_terms, plan.angles()):
            want = pauli_exponential(s, theta) @ want
        assert_same_up_to_phase(u, want)

    def test_barriers_at_step_seams(self):
        plan = self.make_plan(n_steps=3)
        circ = synthesize_plan(plan, "canonical")
        per_step = len(circ.gates) // 3
        assert circ.barriers == [per_step, 2 * per_step]

    def test_ancilla_mode_flags_circuit(self):
        circ = synthesize_plan(self.make_plan(), "ancilla")
        assert circ.ancilla and circ.width == 4

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            synthesize_plan(self.make_plan(), "fancy")

    @pytest.mark.parametrize("mode", SYNTHESIS_MODES)
    def test_steps_repeat_one_step(self, mode):
        one = synthesize_plan(self.make_plan(time=1.0 / 3), mode)
        three = synthesize_plan(self.make_plan(n_steps=3), mode)
        assert three.gates == one.gates * 3
        step = three.gates[:len(one.gates)]
        assert all(a is b for a, b in zip(three.gates, step * 3))
        assert three.barriers == [len(one.gates), 2 * len(one.gates)]

    @pytest.mark.parametrize("mode", SYNTHESIS_MODES)
    def test_term_register_must_match_plan(self, mode):
        plan = self.make_plan()
        plan.ordered_terms.append((PauliString.from_label("XY"), 0.5))
        with pytest.raises(ValueError, match="acts on 2 qubits, the plan on 3"):
            synthesize_plan(plan, mode)


class TestSerialization:
    def test_roundtrip(self):
        circ = Circuit(3, ancilla=True)
        circ.extend([H(0), YB(1), CNOT(0, 3), CZ(1, 2), RZ(3, -0.125), X(2), YBD(1)])
        back = parse_circuit(format_circuit(circ))
        assert back.n_qubits == 3 and back.ancilla
        assert back.gates == circ.gates

    def test_rz_angle_exact(self):
        circ = Circuit(1)
        circ.append(RZ(0, 0.1 + 1e-17))
        assert parse_circuit(format_circuit(circ)).gates[0].angle == circ.gates[0].angle

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_circuit("GATES 3\nH 0\n")
        with pytest.raises(ValueError):
            parse_circuit("")

    @pytest.mark.parametrize("body,line,message", [
        ("H 0\nCNOT 1\n", 3, "CNOT takes 2 operands, got 1"),
        ("H 0\n\n# note\nFOO 1\n", 5, "unknown gate kind 'FOO'"),
        ("H x\n", 2, "invalid literal for int()"),
        ("RZ 0 half\n", 2, "could not convert string to float"),
        ("H 0 1\n", 2, "H takes 1 operands, got 2"),
        ("CNOT 1 1\n", 2, "CNOT needs two distinct qubits"),
        ("H 7\n", 2, "qubit 7 outside register of width 2"),
        ("CZ 0 -1\n", 2, "qubit -1 outside register of width 2"),
        ("H 0\n  # indented\n", 3, "unknown gate kind '#'"),
        ("H 0\nH 5\nH 0\nH 5\n", 3, "qubit 5 outside register of width 2"),
    ])
    def test_gate_errors_name_the_line(self, body, line, message):
        with pytest.raises(ValueError, match=rf"^line {line}: ") as err:
            parse_circuit("QUBITS 2 ANCILLA 0\n" + body)
        assert message in str(err.value)

    def test_header_error_names_the_line(self):
        with pytest.raises(ValueError, match=r"^line 2: bad circuit header"):
            parse_circuit("\nQUBITS two ANCILLA 0\nH 0\n")

    def test_multi_step_file_has_no_barriers(self):
        # The file format has no barrier line: a multi-step circuit is
        # written gate by gate and reads back with its gates only.
        plan = TestSynthesizePlan().make_plan(n_steps=3)
        circ = synthesize_plan(plan, "ancilla")
        text = format_circuit(circ)
        assert text == reference_format_circuit(circ)
        back = parse_circuit(text)
        assert back.gates == circ.gates and back.barriers == []

    def test_both_zero_signs_written(self):
        text = format_circuit(Circuit(1, [RZ(0, 0.0), RZ(0, -0.0)]))
        assert text == "QUBITS 1 ANCILLA 0\nRZ 0 0.0\nRZ 0 -0.0\n"
        back = parse_circuit(text)
        assert [math.copysign(1.0, g.angle) for g in back.gates] == [1.0, -1.0]


_ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     math.inf, -math.inf, 0.1 + 1e-17, -1.2345678901234567]),
    st.floats(allow_nan=False))


@st.composite
def circuits(draw, max_qubits: int = 4, max_gates: int = 30) -> Circuit:
    """Random circuits, with an ancilla or not, over every gate kind."""
    n = draw(st.integers(1, max_qubits))
    ancilla = draw(st.booleans())
    width = n + ancilla
    kinds = ["H", "X", "YB", "YBD", "RZ"] + (["CNOT", "CZ"] if width > 1 else [])
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        a = draw(st.integers(0, width - 1))
        if kind in ("CNOT", "CZ"):
            b = draw(st.integers(0, width - 2))
            gates.append(Gate(kind, (a, b + (b >= a))))
        elif kind == "RZ":
            gates.append(RZ(a, draw(_ANGLES)))
        else:
            gates.append(Gate(kind, (a,)))
    return Circuit(n, gates, ancilla=ancilla)


class TestCircuitFileProperties:
    @given(circuits())
    def test_roundtrip(self, circ):
        text = format_circuit(circ)
        back = parse_circuit(text)
        assert back == circ
        assert format_circuit(back) == text

    @given(circuits(), st.lists(st.sampled_from(["", "# note", "  "])),
           st.randoms(use_true_random=False))
    def test_matches_reference_loops(self, circ, extra, random):
        text = format_circuit(circ)
        assert text == reference_format_circuit(circ)
        # Blank lines, comments and indentation between the gate lines.
        lines = text.splitlines()
        body = [" " + ln if random.random() < 0.2 else ln for ln in lines[1:]]
        for ln in extra:
            body.insert(random.randint(0, len(body)), ln)
        decorated = "\n".join([lines[0], *body]) + "\n"
        assert parse_circuit(decorated) == reference_parse_circuit(decorated) == circ

    @given(st.lists(st.tuples(
        st.sampled_from(["H", "X", "YB", "YBD", "CNOT", "CZ", "RZ", "FOO", "#", ""]),
        st.lists(st.sampled_from(["0", "1", "2", "-1", "x", "0.5", "-0.0", "inf"]),
                 max_size=3)), max_size=8))
    def test_errors_match_reference(self, rows):
        text = "QUBITS 2 ANCILLA 0\n" + "".join(
            " ".join([kind, *ops]) + "\n" for kind, ops in rows)
        try:
            want = reference_parse_circuit(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                parse_circuit(text)
            assert str(err.value) == str(exc)
        else:
            assert parse_circuit(text) == want


def test_phase_oracle_ignores_magnitude_ties():
    # All four entries have magnitude 1/sqrt(2); rounding makes a different
    # entry the largest with and without the identity pair YB YBD in front.
    gates = [YB(0), RZ(0, 1.9452146449735768), RZ(0, -0.28489514565904095), YBD(0), YB(0)]
    u = circuit_unitary(Circuit(1, gates))
    assert_same_up_to_phase(circuit_unitary(Circuit(1, [YB(0), YBD(0), *gates])), u)
    assert_same_up_to_phase(1j * u, u)
