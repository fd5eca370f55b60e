"""Integral I/O, Hamiltonian construction and the occupation-basis oracle."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiqc.fermion import (FermionOperator, ResourceLimitError, build_hamiltonian, parse_fcidump,
                             synthetic_integrals, write_fcidump)
from fermiqc.fixtures import FIXTURE_NAMES, fixture_text, reference_energy
from fermiqc.simulator import ground_state

from oracles import fock_matrix, reference_build_hamiltonian, reference_excitations


class TestParseFcidump:
    def test_roundtrip(self):
        ints = synthetic_integrals(3, seed=11)
        back = parse_fcidump(write_fcidump(ints))
        assert back.n_spatial == 3 and back.n_electrons == 3
        np.testing.assert_allclose(back.one_body, ints.one_body, atol=1e-14)
        np.testing.assert_allclose(back.two_body, ints.two_body, atol=1e-14)
        assert back.core_energy == pytest.approx(ints.core_energy)

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.floats(0.0, 1.0, exclude_min=True))
    def test_roundtrip_is_exact(self, n, seed, density):
        ints = synthetic_integrals(n, seed=seed, density=density)
        back = parse_fcidump(write_fcidump(ints))
        assert back.one_body.tobytes() == ints.one_body.tobytes()
        assert back.two_body.tobytes() == ints.two_body.tobytes()
        assert back.core_energy == ints.core_energy
        assert (back.n_spatial, back.n_electrons, back.ms2) == (n, ints.n_electrons, ints.ms2)

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
        with pytest.raises(ValueError, match="&FCI"):
            parse_fcidump("NORB=2\n&END\n")

    def test_missing_terminator(self):
        with pytest.raises(ValueError, match="&END"):
            parse_fcidump("&FCI NORB=2,NELEC=2,\n")

    @pytest.mark.parametrize("header", [
        "&FCI NORB=2,NELEC=2,MS2=0 /", "&fci norb=2,nelec=2,ms2=0\n  /",
        "&FCI NORB=2,NELEC=2,MS2=0,\n&end", "&FCI NORB=2,\n  NELEC=2 &END"])
    def test_header_ends_at_end_or_slash(self, header):
        # One terminator rule for the line scan and the key text: &END, or a
        # slash that starts a word, on the header's own line or a later one.
        ints = parse_fcidump(f"{header}\n0.5 1 1 0 0\n")
        assert (ints.n_spatial, ints.n_electrons, ints.one_body[0, 0]) == (2, 2, 0.5)

    @pytest.mark.parametrize("text,message", [
        ("# c\n# c\n&FCI NORB=,NELEC=2,\n&END\n", "line 3: NORB must be an integer, got ''"),
        ("\n  # c\n\n&FCI NORB=2,\n&END\n", "line 4: header missing NELEC"),
        ("# c\n&FCI NORB=0,NELEC=2 /\n", "line 2: NORB must be at least 1, got 0"),
        ("# c\nNORB=2\n&END\n", "line 2: missing &FCI header"),
        ("# c\n# c\n", "line 1: missing &END terminator in header"),
    ])
    def test_header_errors_name_its_first_line(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_fcidump(text)

    def test_bad_row_reports_line(self):
        text = "&FCI NORB=2,NELEC=2,\n&END\n0.5 1 1\n"
        with pytest.raises(ValueError, match="line 3"):
            parse_fcidump(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_line(self, value):
        text = f"&FCI NORB=2,NELEC=2,\n&END\n0.5 1 1 0 0\n{value} 2 2 0 0\n"
        with pytest.raises(ValueError, match=rf"^line 4: value '{value}' is not finite$"):
            parse_fcidump(text)

    def test_index_out_of_range(self):
        text = "&FCI NORB=2,NELEC=2,\n&END\n0.5 3 1 0 0\n"
        with pytest.raises(ValueError, match="out of range"):
            parse_fcidump(text)


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
        op = FermionOperator.from_products(1, [(1.0, ((0, True), (0, False)))])
        m = fock_matrix(op).toarray()
        np.testing.assert_allclose(m, np.diag([0.0, 1.0]), atol=1e-14)

    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 2), (2, 2)])
    def test_anticommutators(self, i, j):
        n = 3
        dim = 1 << n

        def ladder(mode, dag):
            return fock_matrix(FermionOperator.from_products(n, [(1.0, ((mode, dag),))])).toarray()

        a_i, adj_j = ladder(i, False), ladder(j, True)
        acomm = a_i @ adj_j + adj_j @ a_i
        np.testing.assert_allclose(acomm, np.eye(dim) * (1.0 if i == j else 0.0),
                                   atol=1e-12)
        aa = ladder(i, False) @ ladder(j, False) + ladder(j, False) @ ladder(i, False)
        np.testing.assert_allclose(aa, 0.0, atol=1e-12)

    def test_jordan_wigner_sign(self):
        # a+_1 acting on |100> (mode 0 occupied) must pick up a minus sign.
        m = fock_matrix(FermionOperator.from_products(2, [(1.0, ((1, True),))])).toarray()
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

    @staticmethod
    def assert_matches_reference(ints):
        ham, want = build_hamiltonian(ints), reference_excitations(ints)
        got = {factors: c for c, factors in ham.products}
        assert len(got) == len(ham.products)  # each excitation once
        assert ham.n_modes == 2 * ints.n_spatial and ham.constant == ints.core_energy
        assert set(got) == set(want)
        for factors, c in got.items():
            assert abs(c - want[factors]) <= 1e-14, factors

    @settings(deadline=None)
    @given(st.integers(0, 6), st.integers(0, 2**32 - 1), st.floats(0.3, 1.0))
    def test_excitations_match_reference(self, n, seed, density):
        self.assert_matches_reference(synthetic_integrals(n, seed=seed, density=density))

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixture_excitations_match_reference(self, name):
        self.assert_matches_reference(parse_fcidump(fixture_text(name)))

    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 4), st.integers(0, 2**32 - 1), st.floats(0.3, 1.0))
    def test_fock_matrix_matches_reference(self, n, seed, density):
        ints = synthetic_integrals(n, seed=seed, density=density)
        want = fock_matrix(reference_build_hamiltonian(ints))
        assert abs(fock_matrix(build_hamiltonian(ints)) - want).max() <= 1e-12

    def test_mode_bounds_checked(self):
        with pytest.raises(ValueError, match="^mode 2 outside register of size 2$"):
            FermionOperator.from_products(2, [(1.0, ((0, True),)), (1.0, ((2, True),))])
        with pytest.raises(ValueError, match="^mode -1 outside"):
            FermionOperator.from_products(2, [(1.0, ((-1, False),))])

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
        fock_matrix(FermionOperator.from_products(20, []))
