"""Numerics: operator matrices, eigenpairs, symbolic evolution, gate application."""

import itertools
from math import comb

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
                               sector_basis, sector_ground_state, trotter_error)
from fermiqc.fixtures import FIXTURE_NAMES, fixture_text, reference_energy
from fermiqc.trotter import OrderingStrategy, TrotterPlan, plan_for

from oracles import (assert_same_up_to_phase, circuit_unitary, fock_matrix, operator_dense,
                     pauli, pauli_exponential, pauli_matrix, qubit_operator, random_pauli_string,
                     reference_apply_trotterized, reference_operator_matrix, x_closure)


def random_operator(rng, n, n_terms=5) -> QubitOperator:
    constant = float(rng.normal())
    return qubit_operator(n, [(float(rng.normal()), random_pauli_string(rng, n))
                              for _ in range(n_terms)], constant)


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
        # above the _DENSE_DIM cutoff the Lanczos branch is used
        op = random_operator(rng, 9, n_terms=8)
        m = operator_matrix(op)
        energy, vec = ground_state(m)
        dense = np.linalg.eigvalsh(m.toarray())
        assert energy == pytest.approx(dense[0], abs=1e-8)
        np.testing.assert_allclose(m @ vec, energy * vec, atol=1e-8)

    def test_sparse_path_repeatable(self, rng):
        m = operator_matrix(random_operator(rng, 9, n_terms=8))
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


class TestSector:
    EVEN = int("01" * 8, 2)  # alpha (spin 0) modes of 8 spatial orbitals

    @pytest.mark.parametrize("n_spatial", [1, 2, 3, 4])
    def test_basis(self, n_spatial):
        perm = mappings.basis_permutation(2 * n_spatial, "bk")
        for up, down in itertools.product(range(n_spatial + 1), repeat=2):
            nelec, ms2 = up + down, up - down
            jw = sector_basis(n_spatial, nelec, ms2, "jw")
            assert len(jw) == comb(n_spatial, up) * comb(n_spatial, down)
            assert np.all(np.diff(jw) > 0)
            for s in jw.tolist():
                assert ((s & self.EVEN).bit_count(), (s & self.EVEN << 1).bit_count()) == \
                    (up, down)
            assert np.array_equal(sector_basis(n_spatial, nelec, ms2, "bk"), np.sort(perm[jw]))

    @pytest.mark.parametrize("n_spatial,nelec,ms2", [(2, 3, 0), (2, 2, 1), (3, 1, 3),
                                                     (3, 2, -4), (2, 6, 0), (2, 4, 2),
                                                     (2, -2, 0)],
                             ids=["parity", "parity-ms2", "ms2-above-nelec",
                                  "negative-ms2-above-nelec", "above-norb",
                                  "alpha-above-norb", "negative-nelec"])
    def test_impossible_sector(self, n_spatial, nelec, ms2):
        with pytest.raises(ValueError, match=f"^no sector has NELEC={nelec}, MS2={ms2} "
                                             f"in NORB={n_spatial} orbitals: "):
            sector_basis(n_spatial, nelec, ms2, "jw")

    @pytest.mark.parametrize("name", [*FIXTURE_NAMES, "synthetic-1", "synthetic-2",
                                      "synthetic-3", "synthetic-4", "synthetic-5"])
    def test_energy_matches_fock_oracle(self, name):
        if name.startswith("synthetic"):
            ints = fermion.synthetic_integrals(int(name[-1]), seed=5, density=0.8)
        else:
            ints = fermion.parse_fcidump(fixture_text(name))
        ham = fermion.build_hamiltonian(ints)
        fock = fock_matrix(ham)
        up, down = (ints.n_electrons + ints.ms2) // 2, (ints.n_electrons - ints.ms2) // 2
        sector = [s for s in range(fock.shape[0])
                  if ((s & self.EVEN).bit_count(), (s & self.EVEN << 1).bit_count()) == (up, down)]
        want = np.linalg.eigvalsh(fock[sector][:, sector].toarray())[0]
        for scheme in ("jw", "bk"):
            qop = mappings.map_operator(ham, scheme)
            energy, state, fields = sector_ground_state(qop, ints, scheme)
            assert energy == pytest.approx(want, abs=1e-10), scheme
            assert fields == {"nelec": ints.n_electrons, "ms2": ints.ms2,
                              "sector_dim": len(sector)}
            # The embedded vector is an eigenvector of the whole operator.
            assert np.linalg.norm(state) == pytest.approx(1.0)
            np.testing.assert_allclose(operator_matrix(qop) @ state, energy * state, atol=1e-9)
            # It is exactly zero outside one coset j ^ span(X masks).
            support = np.flatnonzero(state).tolist()
            coset = x_closure(support[0], set(qop.arrays()[0].tolist()))
            assert set(support) <= coset, scheme
            if name == "lih_sto3g":  # whose sector meets four cosets
                sector_states = set(sector_basis(ints.n_spatial, ints.n_electrons, ints.ms2,
                                                 scheme).tolist())
                assert sector_states - coset
            if not name.startswith("synthetic"):
                assert energy == pytest.approx(reference_energy(name), abs=1e-10)

    def test_tied_blocks_pick_the_smallest_representative(self):
        # Z-only, so every basis state is its own coset.  The one-electron
        # sector is {0b0001, 0b0100}: energies b - a = 1e-12 and a - b, tied
        # within the tolerance, so 0b0001 wins though it is not the lowest.
        a, b = 0.5, 0.5 + 1e-12
        op = qubit_operator(4, [(a, pauli("ZIII")), (b, pauli("IIZI"))])
        ints = fermion.IntegralSet(2, 1, np.zeros((2, 2)), np.zeros((2, 2, 2, 2)), 0.0, 1)
        assert sector_basis(2, 1, 1, "jw").tolist() == [0b0001, 0b0100]
        energy, state, fields = sector_ground_state(op, ints, "jw")
        assert energy == pytest.approx(b - a, abs=1e-15)
        assert np.flatnonzero(state).tolist() == [0b0001]
        assert fields["sector_dim"] == 2

    def test_one_operator_matrix_per_call(self, monkeypatch):
        calls, build = [], simulator._matrix_entries

        def matrix_entries(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(simulator, "_matrix_entries", matrix_entries)
        ints = fermion.parse_fcidump(fixture_text("lih_sto3g"))
        qop = mappings.map_operator(fermion.build_hamiltonian(ints), "jw")
        sector_ground_state(qop, ints, "jw")
        assert len(calls) == 1

    @pytest.mark.parametrize("scheme", ["jw", "bk"])
    @pytest.mark.parametrize("name", ["lih_sto3g", "h2_631g"])
    def test_lanczos_path_agrees(self, name, scheme, monkeypatch):
        # With no dense cutoff the sector is a CSR matrix and every block is
        # solved by Lanczos, as sectors above 256 states are.
        ints = fermion.parse_fcidump(fixture_text(name))
        qop = mappings.map_operator(fermion.build_hamiltonian(ints), scheme)
        plan = plan_for(qop, OrderingStrategy("magnitude"), 20, time=0.1)

        def solve():
            energy, state, _ = sector_ground_state(qop, ints, scheme)
            tables = simulator.evolution_tables(*qop.arrays()[:2], state)
            return energy, tables.reached, trotter_error(plan, energy, state, tables).error

        dense = solve()
        monkeypatch.setattr(simulator, "_DENSE_DIM", 0)
        lanczos = solve()
        assert np.array_equal(lanczos[1], dense[1])  # the same coset block
        assert lanczos[0] == pytest.approx(dense[0], abs=1e-12)
        assert lanczos[2] == pytest.approx(dense[2], abs=1e-10)

    def test_limit_checked_before_the_sector(self):
        ints = fermion.synthetic_integrals(9, seed=0)
        ints.n_electrons = 99  # no such sector; the register size is reported first
        with pytest.raises(ResourceLimitError, match="18 qubits exceeds the 16-qubit"):
            sector_ground_state(QubitOperator(18), ints, "jw")


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
            estimates.append(trotter_error(plan, energy, ground).estimated_energy)
        assert estimates[0] == pytest.approx(estimates[1], abs=1e-8)

    def test_exact_plan_has_negligible_error(self, rng):
        # single-term Hamiltonians Trotterize exactly
        op = qubit_operator(3, [(0.8, pauli("XZY"))], 0.5)
        energy, ground = ground_state(operator_matrix(op))
        plan = plan_for(op, OrderingStrategy("lex"), 1, 0.9)
        rep = trotter_error(plan, energy, ground)
        assert rep.error < 1e-10
        assert rep.overlap_magnitude == pytest.approx(1.0)
        assert not rep.unreliable


class TestSafeEvolutionTime:
    def test_passthrough_when_in_branch(self):
        op = qubit_operator(1, [(0.5, pauli("Z"))])
        assert safe_evolution_time(op, 1.0) == 1.0

    def test_shrinks_when_out_of_branch(self):
        op = qubit_operator(1, [(100.0, pauli("Z"))])
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
        c = Circuit.from_gates(3, [gate])
        np.testing.assert_allclose(circuit_unitary(c), self.kron_unitary(gate, 3),
                                   atol=1e-12)

    def test_yb_conjugates_z_to_y(self):
        c = Circuit.from_gates(1, [YB(0), RZ(0, 0.8), YBD(0)])
        assert_same_up_to_phase(circuit_unitary(c),
                                pauli_exponential(pauli("Y"), 0.8))

    def test_unitary_limit(self):
        with pytest.raises(ResourceLimitError):
            circuit_unitary(Circuit.from_gates(11, []))


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
    xs = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=3))
    terms = []
    for _ in range(draw(st.integers(0, 12))):
        x, z = draw(st.sampled_from(xs)), draw(st.integers(0, (1 << n) - 1))
        terms.append((draw(_COEFFS | st.complex_numbers(max_magnitude=2.0)),
                      PauliString(n, x, z)))
    return qubit_operator(n, terms, constant)


def assert_same_csr(got: sp.csr_matrix, want: sp.csr_matrix):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@settings(max_examples=200, deadline=None)
@given(operators(), st.randoms())
def test_dense_fill_equals_csr(op, random):
    # No two entries share a (row, column), so filling an array with them
    # equals the CSR matrix, which sums duplicates.
    basis = np.array(sorted(random.sample(range(1 << op.n), random.randint(1, 1 << op.n))))
    rows, cols, values = simulator._matrix_entries(op, basis)
    m = np.zeros((len(basis), len(basis)), complex)
    m[rows, cols] = values
    assert np.array_equal(m, operator_matrix(op, basis).toarray())


class TestAgainstReference:
    """The kernels repeat the term-by-term loops bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(operators(), st.integers(1, 3), st.floats(0.01, 3.0), st.randoms())
    def test_matches_reference_loops(self, op, n_steps, time, random):
        full = operator_matrix(op)
        assert_same_csr(full, reference_operator_matrix(op))
        basis = np.array(sorted(random.sample(range(1 << op.n), random.randint(1, 1 << op.n))))
        assert np.array_equal(operator_matrix(op, basis).toarray(),
                              full.toarray()[np.ix_(basis, basis)])
        order = list(range(len(op)))
        random.shuffle(order)
        x, z, coeffs = op.arrays()
        plan = TrotterPlan(op.n, x[order], z[order], coeffs[order], n_steps, time)
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


class TestReachedStates:
    """The evolution runs only over the cosets j ^ span(X masks) of the
    state's nonzero entries, with the reference loops' bits everywhere."""

    @pytest.mark.parametrize("scheme", ["jw", "bk"])
    @pytest.mark.parametrize("name", ["lih_sto3g", "h2_631g"])
    def test_sector_ground_states(self, name, scheme):
        ints = fermion.parse_fcidump(fixture_text(name))
        qop = mappings.map_operator(fermion.build_hamiltonian(ints), scheme)
        state = sector_ground_state(qop, ints, scheme)[1]
        for ordering in ("magnitude", "lex"):
            for n_steps in (1, 3):
                plan = plan_for(qop, OrderingStrategy(ordering), n_steps, time=0.1)
                assert np.array_equal(apply_trotterized(plan, state),
                                      reference_apply_trotterized(plan, state)), (ordering, n_steps)

    @settings(max_examples=200, deadline=None)
    @given(operators(), st.integers(1, 3), st.floats(0.01, 3.0), st.randoms())
    def test_sparse_states(self, op, n_steps, time, random):
        x, z, coeffs = op.arrays()
        plan = TrotterPlan(op.n, x, z, coeffs, n_steps, time)
        support = random.sample(range(1 << op.n), random.randint(1, 1 << op.n))
        rng = np.random.default_rng(random.getrandbits(32))
        state = np.zeros(1 << op.n, dtype=complex)
        state[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
        assert np.array_equal(apply_trotterized(plan, state),
                              reference_apply_trotterized(plan, state))

    def test_zero_state(self, rng):
        plan = plan_for(random_operator(rng, 4, n_terms=8), OrderingStrategy("lex"), 2, 0.7)
        out = apply_trotterized(plan, np.zeros(16))
        assert np.array_equal(out, np.zeros(16)) and out.dtype == complex

    def test_plan_without_terms(self, rng):
        empty = np.zeros(0, dtype=np.int64)
        plan = TrotterPlan(3, empty, empty, np.zeros(0), 2, 0.5)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state[[1, 6]] = 0
        assert np.array_equal(apply_trotterized(plan, state),
                              reference_apply_trotterized(plan, state))

    @pytest.mark.parametrize("name, reached", [("h2_sto3g", 2), ("lih_sto3g", None)])
    def test_output_stays_in_the_coset(self, name, reached):
        ham = fermion.build_hamiltonian(fermion.parse_fcidump(fixture_text(name)))
        qop = mappings.map_operator(ham, "jw")
        plan = plan_for(qop, OrderingStrategy("magnitude"), 2, time=0.3)
        j = 0b0011  # two electrons in the lowest spatial orbital
        state = np.zeros(1 << qop.n)
        state[j] = 1.0
        coset = x_closure(j, set(plan.x.tolist()))
        rank = len(coset).bit_length() - 1
        assert len(coset) == 1 << rank
        support = set(np.flatnonzero(apply_trotterized(plan, state)).tolist())
        assert j in support and support <= coset and len(support) <= 1 << rank
        if reached is not None:
            assert len(support) == reached

    def test_no_table_of_full_register_arrays(self):
        # One int64 array of 2^n entries per distinct X mask is the table the
        # coset layout replaces; LiH's sector ground state reaches 1 of 16 cosets.
        import tracemalloc
        ints = fermion.parse_fcidump(fixture_text("lih_sto3g"))
        qop = mappings.map_operator(fermion.build_hamiltonian(ints), "jw")
        state = sector_ground_state(qop, ints, "jw")[1]
        plan = plan_for(qop, OrderingStrategy("magnitude"), 1, time=0.1)
        tracemalloc.start()
        try:
            apply_trotterized(plan, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(set(plan.x.tolist())) * len(state) * 8


class TestEvolutionTables:
    """The sign patterns take the whole coset only inside their byte budget."""

    @staticmethod
    def tables(ints, scheme):
        qop = mappings.map_operator(fermion.build_hamiltonian(ints), scheme)
        state = sector_ground_state(qop, ints, scheme)[1]
        return simulator.evolution_tables(*qop.arrays()[:2], state), qop, state

    @pytest.mark.parametrize("scheme", ["jw", "bk"])
    def test_one_coset_takes_one_xor(self, scheme):
        tables = self.tables(fermion.parse_fcidump(fixture_text("lih_sto3g")), scheme)[0]
        assert len(tables.reached) == 256
        assert tables.shape == (512,)
        assert all(row is None for row, _ in tables.signs.values())

    def test_sixteen_qubits_keep_the_half_split(self):
        # 1,145 (z, flip) keys over a coset of 2^14 states: whole-coset
        # patterns would take 300 MB, and even a split at 2^9 columns 9 MB.
        tables = self.tables(fermion.synthetic_integrals(8, seed=3), "jw")[0]
        rank = len(tables.reached).bit_length() - 1
        assert (rank, len(tables.signs)) == (14, 1145)
        assert tables.shape == (1 << (rank - rank // 2), 2 << (rank // 2))
        # The half split's patterns before the one-coset fold held 3,245,056 bytes.
        patterns = [p for pair in tables.signs.values() for p in pair if p is not None]
        assert sum(p.nbytes for p in patterns) <= 3_245_056

    def test_split_path_matches_reference(self, monkeypatch):
        # With no budget, LiH's coset is split into rows and columns again.
        monkeypatch.setattr(simulator, "_SIGN_PATTERN_BUDGET", 0)
        tables, qop, state = self.tables(fermion.parse_fcidump(fixture_text("lih_sto3g")), "jw")
        assert tables.shape == (16, 32)
        plan = plan_for(qop, OrderingStrategy("magnitude"), 2, time=0.1)
        assert np.array_equal(apply_trotterized(plan, state, tables),
                              reference_apply_trotterized(plan, state))

    def test_rejects_a_state_outside_its_cosets(self):
        # X0 and Z1 reach the coset {0, 1} of state 0 only.
        plan = plan_for(qubit_operator(2, [(0.5, pauli("XI")), (0.25, pauli("IZ"))]),
                        OrderingStrategy("lex"), 1, 0.3)
        tables = simulator.evolution_tables(plan.x, plan.z, np.array([1, 0, 0, 0]))
        assert sorted(tables.reached.tolist()) == [0, 1]
        with pytest.raises(ValueError, match="outside the cosets"):
            apply_trotterized(plan, np.array([1, 0, 1, 0], dtype=complex), tables)
