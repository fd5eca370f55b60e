"""Numerics: operator matrices, eigenpairs, symbolic evolution, gate application."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiqc import fermion, mappings, simulator
from fermiqc.circuits import CNOT, CZ, RZ, YB, YBD, Circuit, H, X
from fermiqc.pauli import PauliString, QubitOperator
from fermiqc.simulator import (EigensolverError, ResourceLimitError, apply_trotterized,
                               ground_state, operator_matrix, safe_evolution_time,
                               trotter_error)
from fermiqc.fixtures import FIXTURE_NAMES, fixture_text
from fermiqc.trotter import OrderingStrategy, build_plan, plan_for

from oracles import (assert_same_up_to_phase, circuit_unitary, operator_dense,
                     pauli_exponential, pauli_matrix, random_pauli_string,
                     reference_apply_trotterized, reference_operator_matrix)


def random_operator(rng, n, n_terms=5) -> QubitOperator:
    op = QubitOperator(n, constant=float(rng.normal()))
    for _ in range(n_terms):
        op.add_term(float(rng.normal()), random_pauli_string(rng, n))
    return op


class TestOperatorMatrix:
    def test_against_kron_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            op = random_operator(rng, n)
            np.testing.assert_allclose(operator_matrix(op).toarray(),
                                       operator_dense(op), atol=1e-12)

    def test_includes_constant(self):
        op = QubitOperator(1, constant=2.5)
        np.testing.assert_allclose(operator_matrix(op).toarray(), 2.5 * np.eye(2))

    def test_limit(self):
        with pytest.raises(ResourceLimitError):
            operator_matrix(QubitOperator(17))


class TestGroundState:
    def test_dense_path(self):
        m = np.diag([3.0, -1.0, 2.0, 0.0])
        energy, vec = ground_state(m)
        assert energy == pytest.approx(-1.0)
        assert abs(vec[1]) == pytest.approx(1.0)

    def test_sparse_path(self, rng):
        # above the 64-dim cutoff the Lanczos branch is used
        op = random_operator(rng, 7, n_terms=8)
        m = operator_matrix(op)
        energy, vec = ground_state(m)
        dense = np.linalg.eigvalsh(m.toarray())
        assert energy == pytest.approx(dense[0], abs=1e-8)
        np.testing.assert_allclose(m @ vec, energy * vec, atol=1e-8)

    def test_sparse_path_repeatable(self, rng):
        m = operator_matrix(random_operator(rng, 7, n_terms=8))
        (e1, v1), (e2, v2) = ground_state(m), ground_state(m)
        assert e1 == e2
        assert np.array_equal(v1, v2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ground_state(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("m", [[[0.0, 1.0], [2.0, 0.0]], [[0.0, 1j], [1j, 0.0]],
                                   [[1j, 0.0], [0.0, 1.0]]],
                             ids=["values", "imaginary", "diagonal"])
    def test_rejects_non_hermitian_symmetric_pattern(self, m):
        with pytest.raises(ValueError, match="^matrix is not Hermitian$"):
            ground_state(np.array(m))

    def test_hermitian_within_tolerance(self):
        energy, _ = ground_state(np.array([[0.0, 1.0 + 1e-12j], [1.0, 0.0]]))
        assert energy == pytest.approx(-1.0)

    def test_hermitian_defect_is_max_of_difference(self, rng):
        # The symmetric-pattern shortcut and the fallback both give
        # max |m - m^H| as a sparse difference computes it.
        for trial in range(40):
            dim = int(rng.integers(1, 9))
            a = sp.random(dim, dim, density=0.5, random_state=trial, format="csr")
            a = a + 1j * sp.random(dim, dim, density=0.5, random_state=trial + 100)
            for m in (sp.csr_matrix(a), sp.csr_matrix(a + a.getH()),
                      sp.csr_matrix(a + a.T), sp.csr_matrix((dim, dim), dtype=complex)):
                want = abs(m - m.getH()).max()
                assert simulator._hermitian_defect(m) == want

    def test_accepts_sparse_input(self):
        energy, _ = ground_state(sp.diags([1.0, -2.0]))
        assert energy == pytest.approx(-2.0)


class TestApplyTrotterized:
    def test_matches_matrix_product(self, rng):
        op = random_operator(rng, 3)
        plan = plan_for(op, OrderingStrategy("magnitude"), n_steps=2, time=0.7)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        u = np.eye(8, dtype=complex)
        for _ in range(plan.n_steps):
            for (s, _), theta in zip(plan.ordered_terms, plan.angles()):
                u = pauli_exponential(s, theta) @ u
        np.testing.assert_allclose(apply_trotterized(plan, state), u @ state,
                                   atol=1e-12)

    def test_dimension_check(self, rng):
        op = random_operator(rng, 3)
        plan = plan_for(op, OrderingStrategy("lex"), 1, 1.0)
        with pytest.raises(ValueError):
            apply_trotterized(plan, np.zeros(4))

    def test_large_step_count_converges(self, rng):
        import scipy.linalg as la
        op = random_operator(rng, 2)
        m = operator_matrix(op).toarray() - op.constant * np.eye(4)
        exact = la.expm(-1j * m * 0.5)
        state = rng.normal(size=4) + 0j
        state /= np.linalg.norm(state)
        plan = plan_for(op, OrderingStrategy("lex"), n_steps=4000, time=0.5)
        np.testing.assert_allclose(apply_trotterized(plan, state), exact @ state,
                                   atol=1e-4, rtol=0)


class TestTrotterError:
    def make(self, rng, n_steps=1, time=0.3):
        op = random_operator(rng, 3)
        energy, ground = ground_state(operator_matrix(op))
        plan = plan_for(op, OrderingStrategy("magnitude"), n_steps, time)
        return op, energy, ground, plan

    def test_error_shrinks_with_steps(self, rng):
        op, energy, ground, plan1 = self.make(rng, n_steps=1)
        plan50 = plan_for(op, OrderingStrategy("magnitude"), 50, 0.3)
        e1 = trotter_error(plan1, energy, ground).error
        e50 = trotter_error(plan50, energy, ground).error
        assert e50 < e1

    def test_estimate_time_invariant(self):
        # phase-slope consistency: with the splitting converged, halving the
        # simulated time must leave the recovered energy unchanged
        from fermiqc import fermion, mappings
        from fermiqc.fixtures import fixture_text
        ints = fermion.parse_fcidump(fixture_text("h2_sto3g"))
        qop = mappings.map_operator(fermion.build_hamiltonian(ints), "jw")
        energy, ground = ground_state(operator_matrix(qop))
        estimates = []
        for t in (0.1, 0.05):
            plan = plan_for(qop, OrderingStrategy("magnitude"), 2000, t)
            rep = trotter_error(plan, energy, ground, "magnitude", "jw")
            estimates.append(rep.estimated_energy)
            assert rep.ordering == "magnitude" and rep.mapping == "jw"
        assert estimates[0] == pytest.approx(estimates[1], abs=1e-8)

    def test_exact_plan_has_negligible_error(self, rng):
        # single-term Hamiltonians Trotterize exactly
        s = PauliString.from_label("XZY")
        op = QubitOperator(3, {s: 0.8}, constant=0.5)
        energy, ground = ground_state(operator_matrix(op))
        plan = plan_for(op, OrderingStrategy("lex"), 1, 0.9)
        rep = trotter_error(plan, energy, ground)
        assert rep.error < 1e-10
        assert rep.overlap_magnitude == pytest.approx(1.0)
        assert not rep.unreliable


class TestSafeEvolutionTime:
    def test_passthrough_when_in_branch(self):
        op = QubitOperator(1, {PauliString.from_label("Z"): 0.5})
        assert safe_evolution_time(op, 1.0) == 1.0

    def test_shrinks_when_out_of_branch(self):
        op = QubitOperator(1, {PauliString.from_label("Z"): 100.0})
        t = safe_evolution_time(op, 1.0)
        assert t == pytest.approx(0.9 * np.pi / 100.0)
        assert op.coefficient_norm() * t < np.pi


class TestGateApplication:
    def kron_unitary(self, gate, n):
        """Independent Kronecker-product oracle for every gate kind."""
        sq = 1 / np.sqrt(2)
        mats_1q = {
            "H": np.array([[sq, sq], [sq, -sq]]),
            "X": np.array([[0, 1], [1, 0]]),
            "YB": sq * np.array([[1, -1j], [-1j, 1]]),
            "YBD": sq * np.array([[1, 1j], [1j, 1]]),
        }
        dim = 1 << n
        u = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            if gate.kind == "RZ":
                bit = (col >> gate.qubits[0]) & 1
                u[col, col] = np.exp(1j * gate.angle * (0.5 if bit else -0.5))
            elif gate.kind == "CNOT":
                c, t = gate.qubits
                row = col ^ (1 << t) if (col >> c) & 1 else col
                u[row, col] = 1.0
            elif gate.kind == "CZ":
                a, b = gate.qubits
                sign = -1.0 if ((col >> a) & 1) and ((col >> b) & 1) else 1.0
                u[col, col] = sign
            else:
                q = gate.qubits[0]
                m = mats_1q[gate.kind]
                bit = (col >> q) & 1
                u[col ^ (bit << q), col] += m[0, bit]
                u[col | (1 << q), col] = m[1, bit]
        return u

    @pytest.mark.parametrize("gate", [H(1), X(0), YB(2), YBD(1), RZ(0, 0.37),
                                      CNOT(0, 2), CNOT(2, 0), CZ(1, 2)])
    def test_each_gate_kind(self, gate):
        c = Circuit(3)
        c.append(gate)
        np.testing.assert_allclose(circuit_unitary(c), self.kron_unitary(gate, 3),
                                   atol=1e-12)

    def test_yb_conjugates_z_to_y(self):
        c = Circuit(1)
        c.extend([YB(0), RZ(0, 0.8), YBD(0)])
        assert_same_up_to_phase(circuit_unitary(c),
                                pauli_exponential(PauliString.from_label("Y"), 0.8))

    def test_unitary_limit(self):
        with pytest.raises(ResourceLimitError):
            circuit_unitary(Circuit(11))


class TestPauliExponential:
    def test_against_scipy_expm(self, rng):
        import scipy.linalg as la
        for _ in range(10):
            s = random_pauli_string(rng, 3, min_weight=0)
            theta = float(rng.uniform(-np.pi, np.pi))
            want = la.expm(-0.5j * theta * pauli_matrix(s))
            np.testing.assert_allclose(pauli_exponential(s, theta), want, atol=1e-12)


def test_eigensolver_error_type():
    assert issubclass(EigensolverError, RuntimeError)


def test_trotterized_evolution_preserves_norm(rng):
    op = random_operator(rng, 4, n_terms=8)
    plan = plan_for(op, OrderingStrategy("lex"), n_steps=3, time=1.3)
    state = rng.normal(size=16) + 1j * rng.normal(size=16)
    state /= np.linalg.norm(state)
    assert np.linalg.norm(apply_trotterized(plan, state)) == pytest.approx(1.0, abs=1e-10)


def test_mappings_are_isospectral_on_fixtures():
    for name in FIXTURE_NAMES:
        ham = fermion.build_hamiltonian(fermion.parse_fcidump(fixture_text(name)))
        energies = [ground_state(operator_matrix(mappings.map_operator(ham, scheme)))[0]
                    for scheme in ("jw", "bk")]
        assert energies[0] == pytest.approx(energies[1], abs=1e-9), name


# Few distinct values, so sums of terms sharing an X mask often cancel exactly.
_COEFFS = st.sampled_from([0.5, -0.5, 0.25, 1.0, 0.5j, -0.5j, 0.25 - 0.75j, 1e-3])


@st.composite
def operators(draw, max_qubits=6):
    n = draw(st.integers(0, max_qubits))
    constant = draw(st.sampled_from([0.0, 0.5, -0.25, 0.5 - 0.5j]))
    op = QubitOperator(n, constant=constant)
    xs = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 12))):
        x, z = draw(st.sampled_from(xs)), draw(st.integers(0, (1 << n) - 1))
        op.add_term(draw(_COEFFS | st.complex_numbers(max_magnitude=2.0)),
                    PauliString(n, x, z))
    return op


def assert_same_csr(got: sp.csr_matrix, want: sp.csr_matrix):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestAgainstReference:
    """The kernels repeat the term-by-term loops bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(operators(), st.integers(1, 3), st.floats(0.01, 3.0), st.randoms())
    def test_matches_reference_loops(self, op, n_steps, time, random):
        assert_same_csr(operator_matrix(op), reference_operator_matrix(op))
        ordered = list(op.items())
        random.shuffle(ordered)
        plan = build_plan(ordered, n_steps, time, n_qubits=op.n)
        rng = np.random.default_rng(random.getrandbits(32))
        state = rng.normal(size=1 << op.n) + 1j * rng.normal(size=1 << op.n)
        assert np.array_equal(apply_trotterized(plan, state),
                              reference_apply_trotterized(plan, state))

    @pytest.mark.parametrize("scheme", ["jw", "bk"])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_operators(self, name, scheme, rng):
        ham = fermion.build_hamiltonian(fermion.parse_fcidump(fixture_text(name)))
        qop = mappings.map_operator(ham, scheme)
        assert_same_csr(operator_matrix(qop), reference_operator_matrix(qop))
        plan = plan_for(qop, OrderingStrategy("magnitude"), n_steps=2, time=0.1)
        state = rng.normal(size=1 << qop.n) + 1j * rng.normal(size=1 << qop.n)
        assert np.array_equal(apply_trotterized(plan, state),
                              reference_apply_trotterized(plan, state))
