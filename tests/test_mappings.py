"""Jordan-Wigner and Bravyi-Kitaev mappings against first-principles oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiqc import fermion, mappings
from fermiqc.fermion import FermionOperator, ResourceLimitError
from fermiqc.fixtures import FIXTURE_NAMES, fixture_text
from fermiqc.mappings import MappingScheme, basis_permutation, bk_index_sets, map_operator
from fermiqc.simulator import operator_matrix
from fermiqc.trotter import OrderingStrategy, plan_for

from oracles import (bk_matrix, fock_matrix, random_fermion_operator,
                     reference_build_hamiltonian, reference_map_operator, stored_products)


class TestBkMatrix:
    def test_small_sizes(self):
        np.testing.assert_array_equal(bk_matrix(1), [[1]])
        np.testing.assert_array_equal(bk_matrix(2), [[1, 0], [1, 1]])
        np.testing.assert_array_equal(
            bk_matrix(4),
            [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1]])

    def test_truncation_is_top_left_block(self):
        full = bk_matrix(16)
        for n in (3, 5, 9, 12):
            np.testing.assert_array_equal(bk_matrix(n), full[:n, :n])

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 8, 13, 32])
    def test_unit_lower_triangular_and_invertible(self, n):
        m = bk_matrix(n)
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
        m = bk_matrix(n)
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
            qubits = tm @ occ % 2
            for i in range(n):
                folded = int(sum(qubits[j] for j in bk_index_sets(i, n).flip) % 2)
                assert qubits[i] == (occ[i] + folded) % 2, (i, n)

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 12, 16])
    def test_parity_set_property(self, n, rng):
        # XOR of the qubits in P(i) must equal the parity of orbitals < i.
        tm = bk_matrix(n)
        for _ in range(20):
            occ = rng.integers(0, 2, size=n)
            qubits = tm @ occ % 2
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
        op = FermionOperator.from_products(2, [(1.0, ((1, True),))])
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
            op = FermionOperator.from_products(n, [(1.0, ((i, True), (i, False)))])
            qop = map_operator(op, MappingScheme.BRAVYI_KITAEV)
            involved = set()
            for s, _ in qop.items():
                involved |= {q for q in range(n) if (s.x | s.z) >> q & 1}
            assert involved <= {i} | bk_index_sets(i, n).flip

    def test_operator_weight_logarithmic(self):
        # Every mapped ladder-operator image touches O(log N) qubits.
        n = 64
        for i in (0, 1, 31, 62, 63):
            op = FermionOperator.from_products(n, [(1.0, ((i, True),))])
            qop = map_operator(op, MappingScheme.BRAVYI_KITAEV)
            assert max((s.x | s.z).bit_count() for s, _ in qop.items()) <= 4 * int(np.log2(n)) + 2

    def test_accepts_string_scheme(self):
        op = FermionOperator.from_products(2, [(1.0, ((0, True), (0, False)))])
        assert map_operator(op, "bk") == map_operator(op, MappingScheme.BRAVYI_KITAEV)

    def test_mode_out_of_range(self):
        # No operator with a mode outside its register reaches the map.
        arrays = (np.ones(1, dtype=complex), np.ones(1, dtype=np.int64),
                  np.array([5]), np.ones(1, dtype=bool))
        with pytest.raises(ValueError, match="^mode 5 outside register of size 2$"):
            FermionOperator(2, 0.0, arrays)


class TestStateTranslation:
    @pytest.mark.parametrize("scheme", list(MappingScheme))
    def test_basis_permutation_consistent_with_matrix(self, scheme, rng):
        n = 5
        perm = basis_permutation(n, scheme)
        assert sorted(perm) == list(range(1 << n))
        for _ in range(10):
            occ = rng.integers(0, 2, size=n)
            idx = int(sum(int(b) << j for j, b in enumerate(occ)))
            enc = occ if scheme is MappingScheme.JORDAN_WIGNER else bk_matrix(n) @ occ % 2
            want = int(sum(int(b) << j for j, b in enumerate(enc)))
            assert perm[idx] == want


def test_ladder_images_cached():
    a = mappings._ladder_images(6, MappingScheme.BRAVYI_KITAEV)
    b = mappings._ladder_images(6, MappingScheme.BRAVYI_KITAEV)
    assert a is b


def test_mapped_identity_goes_to_constant():
    # n_0 + (1 - n_0) = 1
    op = FermionOperator.from_products(2, [(1.0, ((0, True), (0, False))),
                                           (1.0, ((0, False), (0, True)))], 1.5)
    qop = map_operator(op, "jw")
    assert len(qop) == 0
    assert qop.constant == pytest.approx(2.5)


def test_rejects_registers_above_the_limit():
    op = FermionOperator.from_products(mappings.MAP_MODE_LIMIT + 1,
                                       [(1.0, ((0, True), (0, False)))])
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
    constant, products = draw(st.sampled_from([0.0, -0.0, 1.5, -0.25])), []
    if n == 0:
        for _ in range(draw(st.integers(0, 3))):
            products.append((draw(_COEFFS), ()))
        return FermionOperator.from_products(n, products, constant)
    modes = st.integers(0, n - 1)
    if draw(st.booleans()):  # few distinct modes: repeats and shared X masks
        modes = st.sampled_from(draw(st.lists(modes, min_size=1, max_size=3)))
    for _ in range(draw(st.integers(0, 12))):
        factors = tuple(draw(st.lists(st.tuples(modes, st.booleans()), max_size=5)))
        coeff = draw(_COEFFS | st.complex_numbers(max_magnitude=2.0)
                     | st.floats(-2.0, 2.0))
        products.append((coeff, factors))
        if draw(st.integers(0, 3)) == 0:  # cancels exactly
            products.append((-coeff, factors))
    return FermionOperator.from_products(n, products, constant)


@st.composite
def folded_operators(draw, n_modes):
    """Products a+...a+ a...a of one or two creators and as many
    annihilators, modes repeating, each flagged "plus its adjoint" or not."""
    n = draw(n_modes)
    modes = st.integers(0, n - 1)
    products, flags = [], []
    for _ in range(draw(st.integers(0, 8))):
        m = draw(st.integers(1, 2))
        factors = ([(draw(modes), True) for _ in range(m)]
                   + [(draw(modes), False) for _ in range(m)])
        products.append((draw(_COEFFS | st.complex_numbers(max_magnitude=2.0)), tuple(factors)))
        flags.append(draw(st.booleans()))
    *arrays, _ = FermionOperator.from_products(n, products).arrays()
    return FermionOperator(n, draw(st.sampled_from([0.0, -0.25])),
                           (*arrays, np.array(flags, dtype=bool)))


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
        n, products = 10, []
        for k in range(mappings._CHUNK // 16 + 50):
            i, j = k % n, (3 * k + 1) % n
            products.append((0.1 * (k % 7) - 0.3, ((i, True), (j, True), (j, False), (i, False))))
            products.append((0.25j * (k % 3), ((i, True), (j, False))))
        op = FermionOperator.from_products(n, products, 0.5)
        for scheme in MappingScheme:
            assert_same_operator(map_operator(op, scheme), reference_map_operator(op, scheme))

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(list(MappingScheme)), st.sampled_from([1, 16, 256]))
    def test_folded_products_match_reference_loop(self, data, scheme, chunk):
        op = data.draw(folded_operators(st.integers(1, 64)))
        with mock.patch.object(mappings, "_CHUNK", chunk):
            got = map_operator(op, scheme)
        assert_same_operator(got, reference_map_operator(op, scheme))

    @pytest.mark.parametrize("scheme", list(MappingScheme))
    @pytest.mark.parametrize("name", [*FIXTURE_NAMES, "synthetic-n6"])
    def test_hamiltonians(self, name, scheme):
        ints = (fermion.synthetic_integrals(6, seed=3) if name == "synthetic-n6"
                else fermion.parse_fcidump(fixture_text(name)))
        ham = fermion.build_hamiltonian(ints)
        assert_same_operator(map_operator(ham, scheme), reference_map_operator(ham, scheme))


# ---- the folded Hamiltonian against its listed products ----------------------

@pytest.mark.parametrize("scheme", list(MappingScheme))
@pytest.mark.parametrize("name", [*FIXTURE_NAMES, *(f"synthetic-n{n}" for n in range(1, 7))])
def test_folded_map_matches_listed_products(name, scheme):
    # Each stored pair mapped once gives the terms, in the same order, of
    # both members mapped as separate unflagged products.
    n = name.removeprefix("synthetic-n")
    ints = (fermion.parse_fcidump(fixture_text(name)) if n == name
            else fermion.synthetic_integrals(int(n), seed=7))
    ham = fermion.build_hamiltonian(ints)
    got = map_operator(ham, scheme)
    want = map_operator(FermionOperator.from_products(ham.n_modes, ham.products, ham.constant),
                        scheme)
    assert [s for s, _ in got.items()] == [s for s, _ in want.items()]
    for a, b in [*zip(got.arrays()[2], want.arrays()[2]), (got.constant, want.constant)]:
        assert abs(a - b) <= 1e-14 * max(1.0, abs(b))


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "synthetic-n6"])
def test_only_pairs_are_flagged(name):
    ints = (fermion.synthetic_integrals(6, seed=3) if name == "synthetic-n6"
            else fermion.parse_fcidump(fixture_text(name)))
    flags = []
    for _, factors, adjoint in stored_products(fermion.build_hamiltonian(ints)):
        half = len(factors) // 2
        swapped = [(m, not d) for m, d in factors[half:] + factors[:half]]
        assert adjoint == (swapped != factors)  # a self-adjoint product is not flagged
        flags.append(adjoint)
    assert any(flags) and not all(flags)


@settings(max_examples=50, deadline=None)
@given(folded_operators(st.integers(1, 5)))
def test_products_list_each_adjoint(op):
    # The view holds A and then A+ for every flagged A.
    want = 0.0
    for coeff, factors, adjoint in stored_products(op):
        a = fock_matrix(FermionOperator.from_products(op.n_modes, [(coeff, factors)])).toarray()
        want = want + a + (a.conj().T if adjoint else 0.0)
    listed = FermionOperator(op.n_modes, 0.0, op.arrays())
    np.testing.assert_allclose(fock_matrix(listed).toarray(), want, atol=1e-12)


# ---- the excitation-built map against the product-by-product route ---------

@pytest.mark.parametrize("scheme", list(MappingScheme))
@pytest.mark.parametrize("name", [*FIXTURE_NAMES, *(f"synthetic-n{n}" for n in range(1, 7))])
def test_excitations_map_like_reference_products(name, scheme):
    n = name.removeprefix("synthetic-n")
    ints = (fermion.parse_fcidump(fixture_text(name)) if n == name
            else fermion.synthetic_integrals(int(n), seed=7))
    got = map_operator(fermion.build_hamiltonian(ints), scheme)
    want = reference_map_operator(reference_build_hamiltonian(ints), scheme)
    terms = dict(want.items())
    assert set(dict(got.items())) == set(terms)
    assert all(abs(c - terms[s]) <= 1e-12 for s, c in got.items())
    assert abs(got.constant - want.constant) <= 1e-12
    for name in ("magnitude", "magnitude-asc", "lex", "lexomag", "lexomag-asc", "random:7"):
        strategy = OrderingStrategy.parse(name)
        a, b = plan_for(got, strategy, 1, 1.0), plan_for(want, strategy, 1, 1.0)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z), name
