"""Jordan-Wigner and Bravyi-Kitaev mappings against first-principles oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiqc import fermion, mappings
from fermiqc.fermion import FermionOperator, ResourceLimitError
from fermiqc.fixtures import FIXTURE_NAMES, fixture_text
from fermiqc.mappings import (MappingScheme, basis_permutation, bk_index_sets, bk_matrix,
                              map_operator)
from fermiqc.pauli import PauliString
from fermiqc.simulator import operator_matrix

from oracles import fock_matrix, random_fermion_operator, reference_map_operator


class TestBkMatrix:
    def test_small_sizes(self):
        np.testing.assert_array_equal(bk_matrix(1).bits, [[1]])
        np.testing.assert_array_equal(bk_matrix(2).bits, [[1, 0], [1, 1]])
        np.testing.assert_array_equal(
            bk_matrix(4).bits,
            [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1]])

    def test_truncation_is_top_left_block(self):
        full = bk_matrix(16).bits
        for n in (3, 5, 9, 12):
            np.testing.assert_array_equal(bk_matrix(n).bits, full[:n, :n])

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 8, 13, 32])
    def test_unit_lower_triangular_and_invertible(self, n):
        m = bk_matrix(n).bits
        assert np.all(np.triu(m, 1) == 0)
        assert np.all(np.diag(m) == 1)
        # unit lower triangular over GF(2) is always invertible

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            bk_matrix(0)


class TestBkIndexSets:
    """The sets must agree with the matrix they summarize."""

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 12, 16])
    def test_update_set_matches_matrix_column(self, n):
        m = bk_matrix(n).bits
        for i in range(n):
            expected = frozenset(j for j in range(n) if j > i and m[j, i])
            assert bk_index_sets(i, n).update == expected, (i, n)

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 12, 16])
    def test_flip_set_property(self, n, rng):
        # Qubit i stores orbital i's occupation XOR the states of its
        # flip-set qubits (its direct children in the parity tree).
        tm = bk_matrix(n)
        for _ in range(20):
            occ = rng.integers(0, 2, size=n)
            qubits = tm.bits @ occ % 2
            for i in range(n):
                folded = int(sum(qubits[j] for j in bk_index_sets(i, n).flip) % 2)
                assert qubits[i] == (occ[i] + folded) % 2, (i, n)

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 12, 16])
    def test_parity_set_property(self, n, rng):
        # XOR of the qubits in P(i) must equal the parity of orbitals < i.
        tm = bk_matrix(n)
        for _ in range(20):
            occ = rng.integers(0, 2, size=n)
            qubits = tm.bits @ occ % 2
            for i in range(n):
                want = int(np.sum(occ[:i]) % 2)
                got = int(sum(qubits[j] for j in bk_index_sets(i, n).parity) % 2)
                assert got == want, (i, n)

    def test_remainder_disjoint_from_flip(self):
        for n in (4, 8, 16):
            for i in range(n):
                sets = bk_index_sets(i, n)
                assert sets.remainder == sets.parity - sets.flip
                assert not sets.remainder & sets.flip

    def test_even_indices_have_empty_flip(self):
        for i in range(0, 16, 2):
            assert bk_index_sets(i, 16).flip == frozenset()

    def test_known_values(self):
        assert bk_index_sets(0, 8).update == {1, 3, 7}
        assert bk_index_sets(3, 8).flip == {1, 2}
        assert bk_index_sets(2, 8).parity == {1}
        assert bk_index_sets(7, 8).parity == {3, 5, 6}

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            bk_index_sets(8, 8)


class TestJordanWigner:
    def test_single_creation_operators(self):
        op = FermionOperator(2)
        op.add(1.0, ((1, True),))
        qop = map_operator(op, MappingScheme.JORDAN_WIGNER)
        # a+_1 -> (X1 - iY1)/2 * Z0
        terms = {s.label: c for s, c in qop.items()}
        assert terms == pytest.approx({"ZX": 0.5, "ZY": -0.5j})

    def test_matches_fock_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            op = random_fermion_operator(rng, n)
            qop = map_operator(op, MappingScheme.JORDAN_WIGNER)
            np.testing.assert_allclose(operator_matrix(qop).toarray(),
                                       fock_matrix(op).toarray(), atol=1e-10)


class TestBravyiKitaev:
    def test_matches_permuted_fock_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            op = random_fermion_operator(rng, n)
            qop = map_operator(op, MappingScheme.BRAVYI_KITAEV)
            perm = basis_permutation(n, MappingScheme.BRAVYI_KITAEV)
            fock = fock_matrix(op).toarray()
            got = operator_matrix(qop).toarray()
            np.testing.assert_allclose(got[np.ix_(perm, perm)], fock, atol=1e-10)

    def test_number_operator_support(self):
        # n_i = a+_i a_i involves only qubit i and its flip set.
        n = 8
        for i in range(n):
            op = FermionOperator(n)
            op.add(1.0, ((i, True), (i, False)))
            qop = map_operator(op, MappingScheme.BRAVYI_KITAEV)
            involved = set()
            for s, _ in qop.items():
                involved |= set(s.support)
            assert involved <= {i} | bk_index_sets(i, n).flip

    def test_operator_weight_logarithmic(self):
        # Every mapped ladder-operator image touches O(log N) qubits.
        n = 64
        for i in (0, 1, 31, 62, 63):
            op = FermionOperator(n)
            op.add(1.0, ((i, True),))
            qop = map_operator(op, MappingScheme.BRAVYI_KITAEV)
            assert max(s.weight for s, _ in qop.items()) <= 4 * int(np.log2(n)) + 2

    def test_accepts_string_scheme(self):
        op = FermionOperator(2)
        op.add(1.0, ((0, True), (0, False)))
        assert map_operator(op, "bk") == map_operator(op, MappingScheme.BRAVYI_KITAEV)

    def test_mode_out_of_range(self):
        op = FermionOperator(2)
        op.products.append((1.0, ((5, True),)))
        with pytest.raises(ValueError, match="mode 5"):
            map_operator(op, "jw")


class TestStateTranslation:
    @pytest.mark.parametrize("scheme", list(MappingScheme))
    def test_basis_permutation_consistent_with_matrix(self, scheme, rng):
        n = 5
        perm = basis_permutation(n, scheme)
        assert sorted(perm) == list(range(1 << n))
        for _ in range(10):
            occ = rng.integers(0, 2, size=n)
            idx = int(sum(int(b) << j for j, b in enumerate(occ)))
            enc = occ if scheme is MappingScheme.JORDAN_WIGNER else bk_matrix(n).bits @ occ % 2
            want = int(sum(int(b) << j for j, b in enumerate(enc)))
            assert perm[idx] == want


def test_ladder_images_cached():
    a = mappings._ladder_images(6, MappingScheme.BRAVYI_KITAEV)
    b = mappings._ladder_images(6, MappingScheme.BRAVYI_KITAEV)
    assert a is b


def test_mapped_identity_goes_to_constant():
    op = FermionOperator(2, constant=1.5)
    op.add(1.0, ((0, True), (0, False)))
    op.add(1.0, ((0, False), (0, True)))  # sums to n_0 + (1 - n_0) = 1
    qop = map_operator(op, "jw")
    assert len(qop) == 0
    assert qop.constant == pytest.approx(2.5)


def test_rejects_registers_above_the_limit():
    op = FermionOperator(mappings.MAP_MODE_LIMIT + 1)
    op.add(1.0, ((0, True), (0, False)))
    with pytest.raises(ResourceLimitError, match="^65 modes exceeds the 64-mode map limit$"):
        map_operator(op, "jw")


# ---- exactness against the entry-by-entry reference loop -------------------

def assert_same_operator(got, want):
    """Same terms in the same insertion order, repr-equal coefficients and constant."""
    assert got.n == want.n
    assert [(s, repr(c)) for s, c in got.items()] == [(s, repr(c)) for s, c in want.items()]
    assert repr(got.constant) == repr(want.constant)


_COEFFS = st.sampled_from([1.0, -1.0, 0.5, -0.0, 0.0, 0.25 - 0.5j, -0.5j, 1e-13, 3.0 + 0.0j])


@st.composite
def fermion_operators(draw):
    """Products of 0-5 factors with repeated modes, real and complex
    coefficients, exact cancellations and an occasional shared X mask."""
    n = draw(st.integers(0, 64))
    op = FermionOperator(n, constant=draw(st.sampled_from([0.0, -0.0, 1.5, -0.25])))
    if n == 0:
        for _ in range(draw(st.integers(0, 3))):
            op.add(draw(_COEFFS), ())
        return op
    modes = st.integers(0, n - 1)
    if draw(st.booleans()):  # few distinct modes: repeats and shared X masks
        modes = st.sampled_from(draw(st.lists(modes, min_size=1, max_size=3)))
    for _ in range(draw(st.integers(0, 12))):
        factors = tuple(draw(st.lists(st.tuples(modes, st.booleans()), max_size=5)))
        coeff = draw(_COEFFS | st.complex_numbers(max_magnitude=2.0)
                     | st.floats(-2.0, 2.0))
        op.add(coeff, factors)
        if draw(st.integers(0, 3)) == 0:  # cancels exactly
            op.add(-coeff, factors)
    return op


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(fermion_operators(), st.sampled_from(list(MappingScheme)),
           st.sampled_from([1, 2, 3, 16, mappings._CHUNK]))
    def test_matches_reference_loop(self, op, scheme, chunk):
        with mock.patch.object(mappings, "_CHUNK", chunk):
            got = map_operator(op, scheme)
        assert_same_operator(got, reference_map_operator(op, scheme))

    def test_x_group_larger_than_a_chunk(self):
        # Every a+_i a+_j a_j a_i has X mask 0, so the x = 0 group holds more
        # entries than one chunk; the hopping terms interleave other masks.
        n = 10
        op = FermionOperator(n, constant=0.5)
        for k in range(mappings._CHUNK // 16 + 50):
            i, j = k % n, (3 * k + 1) % n
            op.add(0.1 * (k % 7) - 0.3, ((i, True), (j, True), (j, False), (i, False)))
            op.add(0.25j * (k % 3), ((i, True), (j, False)))
        for scheme in MappingScheme:
            assert_same_operator(map_operator(op, scheme), reference_map_operator(op, scheme))

    @pytest.mark.parametrize("scheme", list(MappingScheme))
    @pytest.mark.parametrize("name", [*FIXTURE_NAMES, "synthetic-n6"])
    def test_hamiltonians(self, name, scheme):
        ints = (fermion.synthetic_integrals(6, seed=3) if name == "synthetic-n6"
                else fermion.parse_fcidump(fixture_text(name)))
        ham = fermion.build_hamiltonian(ints)
        assert_same_operator(map_operator(ham, scheme), reference_map_operator(ham, scheme))
