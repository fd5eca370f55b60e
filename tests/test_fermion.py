"""Integral I/O, Hamiltonian construction and the occupation-basis oracle."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fermiqc import fermion
from fermiqc.fermion import (FcidumpError, FermionOperator, IntegralSet,
                             ResourceLimitError, build_hamiltonian,
                             parse_fcidump, synthetic_integrals, write_fcidump)
from fermiqc.fixtures import FIXTURE_NAMES, fixture_text, reference_energy
from fermiqc.simulator import ground_state

from oracles import fock_matrix


class TestParseFcidump:
    def test_roundtrip(self):
        ints = synthetic_integrals(3, seed=11)
        back = parse_fcidump(write_fcidump(ints))
        assert back.n_spatial == 3 and back.n_electrons == 3
        np.testing.assert_allclose(back.one_body, ints.one_body, atol=1e-14)
        np.testing.assert_allclose(back.two_body, ints.two_body, atol=1e-14)
        assert back.core_energy == pytest.approx(ints.core_energy)
        assert not back.core_energy_missing

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.floats(0.0, 1.0, exclude_min=True))
    def test_roundtrip_is_exact(self, n, seed, density):
        ints = synthetic_integrals(n, seed=seed, density=density)
        back = parse_fcidump(write_fcidump(ints))
        assert back.one_body.tobytes() == ints.one_body.tobytes()
        assert back.two_body.tobytes() == ints.two_body.tobytes()
        assert back.core_energy == ints.core_energy
        assert (back.n_spatial, back.n_electrons, back.ms2) == (n, ints.n_electrons, ints.ms2)

    def test_accepts_stream_and_bytes(self):
        text = write_fcidump(synthetic_integrals(2, seed=0))
        a = parse_fcidump(io.StringIO(text))
        b = parse_fcidump(text.encode())
        np.testing.assert_allclose(a.two_body, b.two_body)

    def test_comment_lines_skipped(self):
        text = write_fcidump(synthetic_integrals(2, seed=1), comments=["note"])
        assert text.startswith("# note")
        ints = parse_fcidump(text)
        assert ints.n_spatial == 2

    def test_symmetry_expansion(self):
        text = ("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n"
                "0.5   2 1 2 1\n"
                "-1.0  2 1 0 0\n"
                "0.25  0 0 0 0\n")
        ints = parse_fcidump(text)
        assert ints.one_body[0, 1] == ints.one_body[1, 0] == -1.0
        # all eight (pq|rs) images of (21|21)
        for idx in [(1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)]:
            assert ints.two_body[idx] == 0.5
        assert ints.core_energy == 0.25
        ints.validate()

    def test_missing_header(self):
        with pytest.raises(FcidumpError, match="&FCI"):
            parse_fcidump("NORB=2\n&END\n")

    def test_missing_terminator(self):
        with pytest.raises(FcidumpError, match="&END"):
            parse_fcidump("&FCI NORB=2,NELEC=2,\n")

    def test_bad_row_reports_line(self):
        text = "&FCI NORB=2,NELEC=2,\n&END\n0.5 1 1\n"
        with pytest.raises(FcidumpError, match="line 3"):
            parse_fcidump(text)

    def test_index_out_of_range(self):
        text = "&FCI NORB=2,NELEC=2,\n&END\n0.5 3 1 0 0\n"
        with pytest.raises(FcidumpError, match="out of range"):
            parse_fcidump(text)

    def test_core_energy_missing_flag(self):
        text = "&FCI NORB=1,NELEC=1,\n&END\n0.5 1 1 0 0\n"
        assert parse_fcidump(text).core_energy_missing


class TestIntegralSet:
    def test_validate_rejects_asymmetry(self):
        ints = synthetic_integrals(2, seed=3)
        ints.one_body[0, 1] += 1.0
        with pytest.raises(ValueError, match="one-body"):
            ints.validate()


class TestSyntheticIntegrals:
    def test_deterministic(self):
        a = synthetic_integrals(3, seed=5, density=0.7)
        b = synthetic_integrals(3, seed=5, density=0.7)
        np.testing.assert_array_equal(a.two_body, b.two_body)
        assert a.core_energy == b.core_energy

    def test_symmetric(self):
        synthetic_integrals(4, seed=9, density=0.5).validate()

    def test_density_bounds(self):
        with pytest.raises(ValueError):
            synthetic_integrals(2, seed=0, density=0.0)


class TestLadderAlgebra:
    """Canonical anticommutation relations of the sparse ladder matrices."""

    def test_number_operator(self):
        op = FermionOperator(1)
        op.add(1.0, ((0, True), (0, False)))
        m = fock_matrix(op).toarray()
        np.testing.assert_allclose(m, np.diag([0.0, 1.0]), atol=1e-14)

    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 2), (2, 2)])
    def test_anticommutators(self, i, j):
        n = 3
        dim = 1 << n

        def ladder(mode, dag):
            op = FermionOperator(n)
            op.add(1.0, ((mode, dag),))
            return fock_matrix(op).toarray()

        a_i, adj_j = ladder(i, False), ladder(j, True)
        acomm = a_i @ adj_j + adj_j @ a_i
        np.testing.assert_allclose(acomm, np.eye(dim) * (1.0 if i == j else 0.0),
                                   atol=1e-12)
        aa = ladder(i, False) @ ladder(j, False) + ladder(j, False) @ ladder(i, False)
        np.testing.assert_allclose(aa, 0.0, atol=1e-12)

    def test_jordan_wigner_sign(self):
        # a+_1 acting on |100> (mode 0 occupied) must pick up a minus sign.
        op = FermionOperator(2)
        op.add(1.0, ((1, True),))
        m = fock_matrix(op).toarray()
        assert m[0b11, 0b01] == -1.0
        assert m[0b10, 0b00] == 1.0


class TestBuildHamiltonian:
    def test_hermitian(self):
        ham = build_hamiltonian(synthetic_integrals(2, seed=7))
        m = fock_matrix(ham).toarray()
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)

    def test_constant_carried(self):
        ints = synthetic_integrals(2, seed=7)
        ham = build_hamiltonian(ints)
        assert ham.constant == pytest.approx(ints.core_energy)

    def test_mode_bounds_checked(self):
        op = FermionOperator(2)
        with pytest.raises(ValueError):
            op.add(1.0, ((2, True),))

    def test_one_body_block_diagonal_in_spin(self):
        # A pure one-body Hamiltonian must never mix alpha and beta modes.
        ints = synthetic_integrals(2, seed=2)
        ints.two_body[:] = 0.0
        ham = build_hamiltonian(ints)
        for _, factors in ham.products:
            spins = {mode % 2 for mode, _ in factors}
            assert len(spins) == 1

    def test_fixture_ground_energies_match_references(self):
        for name in FIXTURE_NAMES:
            ints = parse_fcidump(fixture_text(name))
            ham = build_hamiltonian(ints)
            energy, _ = ground_state(fock_matrix(ham))
            assert energy == pytest.approx(reference_energy(name), abs=1e-8), name


def test_fock_matrix_limit():
    with pytest.raises(ResourceLimitError):
        fock_matrix(FermionOperator(20))
