"""Circuit synthesis against the dense Pauli-exponential oracle."""

import dataclasses
import io
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiqc import fermion, mappings
from fermiqc.circuits import (_KEYS, _SLICE, CNOT, CZ, RZ, YB, YBD, Circuit, Gate, GateCounts,
                              H, X, SYNTHESIS_MODES, count_gates, format_circuit,
                              parse_circuit, synthesize_plan)
from fermiqc.cli import main
from fermiqc.fixtures import fixture_path
from fermiqc.pauli import PauliString
from fermiqc.trotter import OrderingStrategy, plan_for

from oracles import (assert_same_up_to_phase, circuit_unitary, pauli, pauli_exponential,
                     qubit_operator, random_pauli_string, random_plan, reference_format_circuit,
                     reference_gate_counts, reference_parse_circuit, reference_synthesize_plan,
                     term_gate_counts, term_plan)

def realized_unitary(circ: Circuit) -> np.ndarray:
    """Data-register unitary; for ancilla circuits the |0> input block."""
    u = circuit_unitary(circ)
    if circ.ancilla:
        dim = 1 << circ.n_qubits
        return u[:dim, :dim]
    return u


def parse_file(tmp_path, data: bytes) -> Circuit:
    """parse_circuit of an open file holding ``data``, as ``optimize`` reads one."""
    path = tmp_path / "parsed.circ"
    path.write_bytes(data)
    with open(path) as lines:
        return parse_circuit(lines)


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
        # The ancilla is one more qubit, after the data register.
        assert Circuit.from_gates(3, [CNOT(0, 3)], ancilla=True).ancilla
        with pytest.raises(ValueError, match="outside register of width 3"):
            Circuit.from_gates(3, [CNOT(0, 3)])

    def test_from_gates_bounds(self):
        with pytest.raises(ValueError, match="outside register of width 2"):
            Circuit.from_gates(2, [H(0), H(2)])
        with pytest.raises(ValueError, match="outside register of width 4"):
            Circuit.from_gates(3, [CNOT(4, 0)], ancilla=True)


class TestGateCounts:
    def test_count_gates(self):
        c = Circuit.from_gates(3, [H(0), CNOT(0, 1), RZ(1, 0.2), CZ(1, 2), YB(2)])
        assert count_gates(c) == GateCounts(5, 2, 2, 1)


class TestSynthesis:
    @pytest.mark.parametrize("mode", SYNTHESIS_MODES)
    def test_single_qubit_terms(self, mode):
        for label, theta in [("Z", 0.7), ("X", -1.2), ("Y", 2.3)]:
            s = pauli(label)
            circ = synthesize_plan(term_plan(s, theta), mode)
            assert_same_up_to_phase(realized_unitary(circ), pauli_exponential(s, theta))

    @pytest.mark.parametrize("mode", SYNTHESIS_MODES)
    def test_random_terms(self, mode, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            s = random_pauli_string(rng, n)
            theta = float(rng.uniform(-np.pi, np.pi))
            circ = synthesize_plan(term_plan(s, theta), mode)
            assert_same_up_to_phase(realized_unitary(circ), pauli_exponential(s, theta))

    @pytest.mark.parametrize("mode", SYNTHESIS_MODES)
    def test_identity_rejected(self, mode):
        with pytest.raises(ValueError, match="identity term has no circuit"):
            synthesize_plan(term_plan(PauliString(3), 0.5), mode)

    def test_canonical_structure(self):
        s = pauli("YZIZX")
        circ = synthesize_plan(term_plan(s, 0.4))
        kinds = [g.kind for g in circ.gates]
        # basis changes bracket a symmetric CNOT ladder around one rotation
        assert kinds == ["YB", "H", "CNOT", "CNOT", "CNOT", "RZ",
                         "CNOT", "CNOT", "CNOT", "H", "YBD"]
        assert circ.gates[5] == RZ(4, 0.4)

    def test_ancilla_returns_to_zero(self):
        s = pauli("XYZ")
        u = circuit_unitary(synthesize_plan(term_plan(s, 0.9), "ancilla"))
        dim = 1 << 3
        # no amplitude may leak from the |0>-ancilla block
        np.testing.assert_allclose(u[dim:, :dim], 0.0, atol=1e-12)

    def test_basis_shift_rotation_adjacent_to_basis_change(self):
        s = pauli("ZZZZX")
        gates = synthesize_plan(term_plan(s, 0.3), "basis_shift").gates
        i = next(k for k, g in enumerate(gates) if g.kind == "RZ")
        assert gates[i - 1] == H(4) and gates[i + 1] == H(4)


class TestTermGateCounts:
    @pytest.mark.parametrize("mode", SYNTHESIS_MODES)
    def test_matches_synthesized_circuit(self, mode, rng):
        for _ in range(40):
            n = int(rng.integers(1, 9))
            s = random_pauli_string(rng, n)
            circ = synthesize_plan(term_plan(s, 0.1), mode)
            assert term_gate_counts(s, mode) == count_gates(circ), s

    def test_identity_is_free(self):
        assert term_gate_counts(PauliString(4)) == GateCounts(0, 0, 0, 0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            term_gate_counts(pauli("X"), "magic")


class TestSynthesizePlan:
    def make_plan(self, n_steps=1, time=1.0):
        op = qubit_operator(3, [(0.5, pauli("XZI")), (-0.25, pauli("IYZ"))])
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
        assert circ.n_steps == 3 and len(circ.gates) == 3 * len(circ.keys) > 0

    def test_ancilla_mode_flags_circuit(self):
        circ = synthesize_plan(self.make_plan(), "ancilla")
        assert circ.ancilla and circ.n_qubits == 3
        assert max(q for g in circ.gates for q in g.qubits) == 3

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            synthesize_plan(self.make_plan(), "fancy")

    @pytest.mark.parametrize("mode", SYNTHESIS_MODES)
    def test_steps_repeat_one_step(self, mode):
        one = synthesize_plan(self.make_plan(time=1.0 / 3), mode)
        three = synthesize_plan(self.make_plan(n_steps=3), mode)
        gates = three.gates
        assert gates == one.gates * 3
        assert all(a is b for a, b in zip(gates, gates[:len(one.gates)] * 3))
        assert three.n_steps == 3 and np.array_equal(three.keys, one.keys)

    def test_chunks_fill_one_key_array(self, monkeypatch):
        # 94,848 terms on 32 qubits are three chunks, each written into the
        # step's key array: no chunk's keys are held beside it.
        ints = fermion.synthetic_integrals(16, seed=7)
        plan = plan_for(mappings.map_operator(fermion.build_hamiltonian(ints), "jw"),
                        OrderingStrategy("magnitude"), 1, 1.0)
        synthesize_plan(plan)  # fills the key tables before the measured run
        tracemalloc.start()
        try:
            keys = synthesize_plan(plan).keys
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * keys.nbytes, f"peak {peak} B for {keys.nbytes} B of keys"
        monkeypatch.setattr("fermiqc.circuits._CHUNK", 1000 * 32)  # 95 chunks
        assert np.array_equal(synthesize_plan(plan).keys, keys)


class TestTemplates:
    """Plans synthesized in numpy equal the per-term Gate lists."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_reference_synthesis(self, seed):
        # Every other seed draws registers up to 70 qubits, whose masks
        # are ints above 64 qubits rather than uint64.
        plan = random_plan(np.random.default_rng(seed), max_qubits=(8, 70)[seed % 2])
        for n_steps in (1, 2, 3):
            plan = dataclasses.replace(plan, n_steps=n_steps)
            for mode in SYNTHESIS_MODES:
                got, want = synthesize_plan(plan, mode), reference_synthesize_plan(plan, mode)
                assert got == want
                assert count_gates(got) == reference_gate_counts(want.gates)

    @pytest.mark.parametrize("n", [63, 64, 65, 70])
    def test_object_masks_match_reference(self, n, rng):
        # Terms on qubits 0 and n - 1, across the uint64/object boundary at 64.
        op = qubit_operator(n, [(float(rng.normal()), random_pauli_string(rng, n))
                                for _ in range(6)] + [(0.5, pauli("X" + "I" * (n - 2) + "Y"))])
        assert op.arrays()[0].dtype == (np.uint64 if n <= 64 else object)
        plan = plan_for(op, OrderingStrategy("magnitude"), 2, 0.7)
        for mode in SYNTHESIS_MODES:
            got, want = synthesize_plan(plan, mode), reference_synthesize_plan(plan, mode)
            assert got == want
            assert count_gates(got) == reference_gate_counts(want.gates)

    def test_shared_table_gives_each_plan_its_angles(self, rng):
        # The per-key tables are shared by every plan; the angles are each plan's own.
        op = qubit_operator(5, [(float(rng.normal()), random_pauli_string(rng, 5))
                                for _ in range(12)])
        first = plan_for(op, OrderingStrategy("lex"), 1, 0.5)
        second = plan_for(op, OrderingStrategy("magnitude"), 3, 1.7)
        for mode in SYNTHESIS_MODES:
            assert synthesize_plan(first, mode) == reference_synthesize_plan(first, mode)
        size = len(_KEYS)
        for mode in SYNTHESIS_MODES:
            circ = synthesize_plan(second, mode)
            assert circ == reference_synthesize_plan(second, mode)
            assert [g.angle for g in circ.gates if g.kind == "RZ"] == second.angles() * 3
        assert len(_KEYS) == size  # the second plan reused every key


# A circuit body after a two-qubit header, the line its error names, and the message.
GATE_ERRORS = [
    ("H 0\nCNOT 1\n", 3, "CNOT takes 2 operands, got 1"),
    ("H 0\n\n# note\nFOO 1\n", 5, "unknown gate kind 'FOO'"),
    ("H x\n", 2, "invalid literal for int()"),
    ("RZ 0 half\n", 2, "could not convert string to float"),
    ("H 0 1\n", 2, "H takes 1 operands, got 2"),
    ("CNOT 1 1\n", 2, "CNOT needs two distinct qubits"),
    ("H 7\n", 2, "qubit 7 outside register of width 2"),
    ("CZ 0 -1\n", 2, "qubit -1 outside register of width 2"),
    ("H 0\n  # indented\nFOO 1\n", 4, "unknown gate kind 'FOO'"),
    ("H 0\nH 5\nH 0\nH 5\n", 3, "qubit 5 outside register of width 2"),
]


class TestSerialization:
    def test_roundtrip(self):
        circ = Circuit.from_gates(3, [H(0), YB(1), CNOT(0, 3), CZ(1, 2), RZ(3, -0.125), X(2),
                                      YBD(1)], ancilla=True)
        back = parse_circuit("".join(format_circuit(circ)))
        assert back.n_qubits == 3 and back.ancilla
        assert back.gates == circ.gates

    def test_rz_angle_exact(self):
        circ = Circuit.from_gates(1, [RZ(0, 0.1 + 1e-17)])
        assert parse_circuit("".join(format_circuit(circ))).gates[0].angle == circ.gates[0].angle

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_circuit("GATES 3\nH 0\n")
        with pytest.raises(ValueError):
            parse_circuit("")

    @pytest.mark.parametrize("body,line,message", GATE_ERRORS)
    def test_gate_errors_name_the_line(self, body, line, message):
        with pytest.raises(ValueError, match=rf"^line {line}: ") as err:
            parse_circuit("QUBITS 2 ANCILLA 0\n" + body)
        assert message in str(err.value)

    @pytest.mark.parametrize("body,line,message", GATE_ERRORS)
    def test_gate_errors_in_a_file_name_the_line(self, body, line, message, tmp_path):
        with pytest.raises(ValueError, match=rf"^line {line}: ") as err:
            parse_file(tmp_path, b"QUBITS 2 ANCILLA 0\n" + body.encode())
        assert message in str(err.value)

    def test_header_error_names_the_line(self):
        for header in ("QUBITS two ANCILLA 0", "QUBITS -2 ANCILLA 0", "QUBITS 1 ANCILLA 5",
                       "QUBITS 1 ANCILLA -1"):
            with pytest.raises(ValueError, match=r"^line 2: bad circuit header"):
                parse_circuit(f"\n{header}\nH 0\n")

    def test_indented_comments_are_comments(self):
        # As in term files and FCIDUMPs, a line whose stripped form starts
        # with '#' is a comment, before the header and between gates.
        text = "  # note\nQUBITS 2 ANCILLA 0\n\t# note\nH 0\n   #\nCNOT 0 1\n"
        want = Circuit.from_gates(2, [H(0), CNOT(0, 1)])
        assert parse_circuit(text) == reference_parse_circuit(text) == want

    def test_empty_register_header(self):
        # An identity-only term file compiles to a circuit on no qubits.
        assert parse_circuit("QUBITS 0 ANCILLA 0\n").n_qubits == 0

    def test_multi_step_file_has_no_barriers(self):
        # The file format has no barrier line: a multi-step circuit is
        # written gate by gate and reads back as one step.
        plan = TestSynthesizePlan().make_plan(n_steps=3)
        circ = synthesize_plan(plan, "ancilla")
        text = "".join(format_circuit(circ))
        assert text == reference_format_circuit(circ)
        back = parse_circuit(text)
        assert back.gates == circ.gates and back.n_steps == 1

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_non_finite_angle_is_an_error(self, angle):
        with pytest.raises(ValueError) as err:
            parse_circuit(f"QUBITS 1 ANCILLA 0\nH 0\nRZ 0 {angle}\n")
        assert str(err.value) == f"line 3: RZ angle '{angle}' is not finite"
        # The gate rejects it, so no Circuit holds one for format_circuit to write.
        with pytest.raises(ValueError, match=f"^RZ angle '{angle}' is not finite$"):
            RZ(0, float(angle))

    def test_both_zero_signs_written(self):
        text = "".join(format_circuit(Circuit.from_gates(1, [RZ(0, 0.0), RZ(0, -0.0)])))
        assert text == "QUBITS 1 ANCILLA 0\nRZ 0 0.0\nRZ 0 -0.0\n"
        back = parse_circuit(text)
        assert [math.copysign(1.0, g.angle) for g in back.gates] == [1.0, -1.0]


_ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, math.inf, -math.inf, math.nan,
                     0.1 + 1e-17, -1.2345678901234567]),
    st.floats())


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
            angle = draw(_ANGLES)
            if math.isfinite(angle):
                gates.append(RZ(a, angle))
            else:  # a circuit, and so a circuit file, holds finite angles only
                with pytest.raises(ValueError, match="^RZ angle '.*' is not finite$"):
                    RZ(a, angle)
        else:
            gates.append(Gate(kind, (a,)))
    return Circuit.from_gates(n, gates, ancilla=ancilla)


class TestCircuitFileProperties:
    @given(circuits())
    def test_roundtrip(self, circ):
        text = "".join(format_circuit(circ))
        back = parse_circuit(text)
        assert back == circ
        assert "".join(format_circuit(back)) == text

    @given(circuits(), st.lists(st.sampled_from(["", "# note", "  # note", "  "])),
           st.randoms(use_true_random=False))
    def test_matches_reference_loops(self, circ, extra, random):
        text = "".join(format_circuit(circ))
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


class TestCircuitFileStreaming:
    @pytest.mark.parametrize("n_steps", [1, 2, 3])
    @pytest.mark.parametrize("n_gates", [0, 5, _SLICE, 2 * _SLICE + 3])
    def test_slices_are_bounded(self, n_steps, n_gates):
        pattern = [H(0), CNOT(0, 2), YB(1), CZ(1, 2)]
        gates = [RZ(k % 3, 0.001 * k) if k % 5 == 0 else pattern[k % 4] for k in range(n_gates)]
        step = Circuit.from_gates(2, gates, ancilla=True)
        circ = Circuit(2, step.keys, step.angles, n_steps, ancilla=True)
        slices = list(format_circuit(circ))
        assert slices[0] == "QUBITS 2 ANCILLA 1\n"
        assert len(slices) == 1 + n_steps * -(-n_gates // _SLICE)
        for piece in slices:
            assert piece.endswith("\n") and piece.count("\n") <= _SLICE
        assert "".join(slices) == reference_format_circuit(circ)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_open_file_reads_as_its_text(self, newline, tmp_path):
        text = ("  # note\n\nQUBITS 2 ANCILLA 1\n\t# note\nH 0\n\n   #\nRZ 2 -0.125\n"
                "CNOT 0 2\n  H 0\nRZ 2 -0.125\n")
        want = Circuit.from_gates(2, [H(0), RZ(2, -0.125), CNOT(0, 2), H(0), RZ(2, -0.125)],
                                  ancilla=True)
        data = text.replace("\n", newline).encode()
        assert parse_file(tmp_path, data) == parse_circuit(data.decode()) == want

    @given(circuits(), st.sampled_from(["\n", "\r\n", "\r"]))
    def test_lines_parse_as_the_text(self, circ, newline):
        text = "".join(format_circuit(circ)).replace("\n", newline)
        # newline=None reads universal newlines, as an open file does.
        assert parse_circuit(io.StringIO(text, newline=None)) == parse_circuit(text) == circ

    def test_optimize_holds_no_copy_of_the_file(self, tmp_path):
        # optimize reads the file line by line and writes its circuit in
        # slices, so neither the file's text nor a list of its lines is held.
        terms, circ, out = (str(tmp_path / name) for name in ("lih.terms", "lih.circ", "o.circ"))
        main(["map", str(fixture_path("lih_sto3g")), "-o", terms], standalone_mode=False)
        main(["compile", terms, "--steps", "3", "-o", circ], standalone_mode=False)
        with open(circ) as f:
            assert sum(1 for _ in f) > 30_000
        args = ["optimize", circ, "--optimize", "none", "-o", out]
        main(args, standalone_mode=False)  # fills the gate caches before the measured run
        tracemalloc.start()
        try:
            main(args, standalone_mode=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "lih.circ").stat().st_size
        assert peak < 2 * size, f"peak {peak} B for a {size}-byte file"
        assert (tmp_path / "o.circ").read_bytes() == (tmp_path / "lih.circ").read_bytes()


def test_phase_oracle_ignores_magnitude_ties():
    # All four entries have magnitude 1/sqrt(2); rounding makes a different
    # entry the largest with and without the identity pair YB YBD in front.
    gates = [YB(0), RZ(0, 1.9452146449735768), RZ(0, -0.28489514565904095), YBD(0), YB(0)]
    u = circuit_unitary(Circuit.from_gates(1, gates))
    assert_same_up_to_phase(circuit_unitary(Circuit.from_gates(1, [YB(0), YBD(0), *gates])), u)
    assert_same_up_to_phase(1j * u, u)
