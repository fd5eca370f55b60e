"""The benchmark's own output checks."""

import numpy as np
import pytest

import oracle
import workloads
from fermiqc.fixtures import fixture_path

# (term line, mode) -> (total, entangling, single, nonclifford), counted by hand
HAND_COUNTS = [
    ("(0.5,0.0) Z3", "canonical", (1, 0, 0, 1)),
    ("(0.5,0.0) Z3", "ancilla", (3, 2, 0, 1)),
    ("(0.5,0.0) X0 Y1 Z2", "canonical", (9, 4, 4, 1)),
    ("(0.5,0.0) X0 Y1 Z2", "basis_shift", (9, 4, 4, 1)),
    ("(0.5,0.0) X0 Y1 Z2", "ancilla", (11, 6, 4, 1)),
    ("(0.5,0.0) Y0 Y2 Y5 Y7", "canonical", (15, 6, 8, 1)),
    ("(0.5,0.0) Z0 Z1 Z2 Z3 X4", "ancilla", (13, 10, 2, 1)),
]


@pytest.mark.parametrize("line, mode, want", HAND_COUNTS)
def test_closed_form_counts_by_hand(line, mode, want):
    (_, ops), = oracle.parse_terms(line).terms
    assert oracle.term_counts(ops, mode) == oracle.Counts(*want)


@pytest.mark.parametrize("mode", workloads.MODES)
def test_closed_form_matches_compiled_circuits(tmp_path, mode):
    text = "(-0.25,0.0)\n" + "\n".join(sorted({line for line, _, _ in HAND_COUNTS})) + "\n"
    (tmp_path / "t.terms").write_text(text)
    code, err = workloads.run_cli(["compile", str(tmp_path / "t.terms"), "--mode", mode,
                                   "--steps", "3", "-o", str(tmp_path / "t.circ")])
    assert code == 0, err
    circuit = oracle.parse_circuit((tmp_path / "t.circ").read_text())
    terms = oracle.parse_terms(text)
    assert circuit.counts() == oracle.plan_counts(terms, mode, steps=3)
    assert circuit.counts().nonclifford == 3 * len(terms.terms)


@pytest.fixture(scope="module")
def h2_terms(tmp_path_factory):
    d = tmp_path_factory.mktemp("h2")
    out = {}
    for m in workloads.MAPPINGS:
        code, err = workloads.run_cli(["map", str(fixture_path("h2_sto3g")), "--mapping", m,
                                       "-o", str(d / f"{m}.terms")])
        assert code == 0, err
        out[m] = oracle.parse_terms((d / f"{m}.terms").read_text())
    return out


def test_jw_bk_invariant_holds_on_h2(h2_terms):
    jw, bk = h2_terms["jw"], h2_terms["bk"]
    assert {frozenset(ops.items()) for _, ops in jw.terms} != {
        frozenset(ops.items()) for _, ops in bk.terms}
    assert oracle.encoding_errors(jw, bk) == []


def test_jw_bk_invariant_catches_changes(h2_terms):
    jw, bk = h2_terms["jw"], h2_terms["bk"]
    scaled = oracle.TermFile(bk.constant, [(c * 1.001, ops) for c, ops in bk.terms])
    shifted = oracle.TermFile(bk.constant + 1e-6, bk.terms)
    complex_bk = oracle.TermFile(bk.constant, bk.terms[:-1] + [(1e-6j, {0: "X", 1: "Y"})])
    assert any("norm" in e for e in oracle.encoding_errors(jw, scaled))
    assert any("constant" in e for e in oracle.encoding_errors(jw, shifted))
    assert any("imaginary" in e for e in oracle.encoding_errors(jw, complex_bk))


def test_gate_matrices():
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1, -1])
    yb = oracle.GATES_1Q["YB"]
    assert np.allclose(yb.conj().T @ z @ yb, y)
    assert np.allclose(oracle.GATES_1Q["YBD"], yb.conj().T)


def test_circuit_unitary_bit_order_and_phase():
    # CNOT with control 0, target 1: basis index bit q is qubit q.
    u = oracle.circuit_unitary(oracle.parse_circuit("QUBITS 2 ANCILLA 0\nCNOT 0 1\n"))
    assert u[3, 1] == 1 and u[1, 3] == 1 and u[0, 0] == 1 and u[2, 2] == 1
    # RZ(2pi) = -I: equal to the empty circuit only up to phase.
    rot = oracle.circuit_unitary(
        oracle.parse_circuit("QUBITS 1 ANCILLA 0\nRZ 0 6.283185307179586\n"))
    assert oracle.equal_up_to_phase(rot, np.eye(2))
    h = oracle.circuit_unitary(oracle.parse_circuit("QUBITS 1 ANCILLA 0\nH 0\n"))
    assert not oracle.equal_up_to_phase(h, np.eye(2))


def test_same_within_is_exact_on_small_registers():
    a = {"n_qubits": 4, "error": 1e-5}
    b = {"n_qubits": 4, "error": 1e-5 + 1e-13}
    assert not oracle.same_within(a, b, 4)
    assert oracle.same_within(a, b, 12)
    assert not oracle.same_within(a, {"n_qubits": 4, "error": 2e-5}, 12)
    assert not oracle.same_within({"mode": "lex"}, {"mode": "magnitude"}, 12)


def test_synthetic_fcidump_is_seeded():
    assert oracle.synthetic_fcidump(3, 5) == oracle.synthetic_fcidump(3, 5)
    assert oracle.synthetic_fcidump(3, 5) != oracle.synthetic_fcidump(3, 6)
