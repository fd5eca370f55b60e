"""Pauli-string algebra checked against explicit Kronecker-product matrices."""

import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiqc import pauli
from fermiqc.pauli import DEFAULT_TOL, DimensionError, PauliString, QubitOperator, lex_key

from oracles import operator_dense, reference_format_terms, reference_lex_key

digit_lists = st.lists(st.integers(0, 3), min_size=1, max_size=5)


class TestPauliString:
    def test_label_roundtrip(self):
        s = PauliString.from_label("XIZY")
        assert s.label == "XIZY"
        assert s.axes == (1, 0, 3, 2)
        assert s.weight == 3
        assert s.support == (0, 2, 3)

    def test_slotted_pickle_hash_and_equality(self):
        # Strings cross process boundaries with `bench --workers` and key dicts.
        s = PauliString.from_label("XIZY")
        back = pickle.loads(pickle.dumps(s))
        assert back == s and hash(back) == hash(s) and back is not s
        assert not hasattr(s, "__dict__")
        with pytest.raises(AttributeError):
            s.x = 0

    @given(digit_lists)
    def test_axes_roundtrip(self, digits):
        s = PauliString.from_axes(digits)
        assert list(s.axes) == digits
        assert PauliString.from_label(s.label) == s

    def test_from_ops(self):
        s = PauliString.from_ops(4, [(1, "X"), (3, "Z")])
        assert s.label == "IXIZ"
        with pytest.raises(DimensionError):
            PauliString.from_ops(2, [(2, "X")])

    def test_symplectic_encoding(self):
        s = PauliString.from_label("XYZI")
        assert (s.x, s.z) == (0b0011, 0b0110)

    def test_bits_outside_register_rejected(self):
        with pytest.raises(ValueError):
            PauliString(2, x=0b100)

    def test_identity(self):
        assert PauliString(3).is_identity()
        assert not PauliString.from_label("IXI").is_identity()


class TestLexKey:
    def test_qubit_zero_most_significant(self):
        strings = [PauliString.from_label(l) for l in ("ZI", "IX", "XI", "YY")]
        assert [s.label for s in sorted(strings, key=lex_key)] == \
            ["IX", "XI", "YY", "ZI"]

    @given(st.lists(digit_lists.map(lambda d: d + [0] * (5 - len(d))), min_size=2, max_size=8))
    def test_matches_label_order(self, digit_rows):
        strings = [PauliString.from_axes(d) for d in digit_rows]
        by_key = sorted(strings, key=lex_key)
        by_label = sorted(strings, key=lambda s: s.label)
        assert [s.label for s in by_key] == [s.label for s in by_label]


    @given(st.integers(0, 70).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=2, max_size=6)))
    def test_integer_key_orders_like_digit_tuples(self, rows):
        strings = [PauliString.from_axes(d) for d in rows]
        assert ([lex_key(s) for s in strings] == [
            sum(d << 2 * (s.n - 1 - q) for q, d in enumerate(reference_lex_key(s)))
            for s in strings])
        assert sorted(strings, key=lex_key) == sorted(strings, key=reference_lex_key)


_TERM_COEFFS = st.sampled_from([1.0, -1.0, 0.5j, -0.0, 0.25 - 0.5j, 1e-300, 1 / 3]) | \
    st.complex_numbers(allow_nan=False, allow_infinity=False)


@st.composite
def qubit_operators(draw, max_qubits=70):
    """Operators built through add_term, the way parse_terms builds them."""
    n = draw(st.integers(0, max_qubits))
    op = QubitOperator(n)
    digits = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    for _ in range(draw(st.integers(0, 8))):
        op.add_term(draw(_TERM_COEFFS), PauliString.from_axes(draw(digits)))
    return op


class TestTermFiles:
    @settings(max_examples=200)
    @given(qubit_operators())
    def test_format_matches_reference(self, op):
        assert pauli.format_terms(op) == reference_format_terms(op)

    @settings(max_examples=200)
    @given(qubit_operators())
    def test_roundtrip(self, op):
        text = pauli.format_terms(op)
        back = pauli.parse_terms(text, n_qubits=op.n)
        assert back == op
        assert pauli.format_terms(back) == text


class TestQubitOperator:
    def test_merge_and_constant(self):
        op = QubitOperator(2)
        s = PauliString.from_label("XZ")
        op.add_term(1.0, s)
        op.add_term(2.5, s)
        op.add_term(0.5, PauliString(2))
        assert op.terms == {s: 3.5}
        assert op.constant == 0.5

    def test_terms_is_a_read_only_view(self):
        op = QubitOperator(1)
        s = PauliString.from_label("Z")
        op.add_term(1.0, s)
        view = op.terms
        with pytest.raises(TypeError):
            view[s] = 2.0
        op.add_term(1.0, PauliString.from_label("X"))
        assert len(view) == 2 and op.terms[s] == 1.0

    def test_exact_cancellation_drops_term(self):
        op = QubitOperator(1)
        s = PauliString.from_label("X")
        op.add_term(1.0, s)
        op.add_term(-1.0, s)
        assert len(op) == 0

    def test_dimension_check(self):
        op = QubitOperator(2)
        with pytest.raises(DimensionError):
            op.add_term(1.0, PauliString(3))

    def test_coefficient_norm(self):
        op = QubitOperator(2, {PauliString.from_label("XI"): 3.0,
                               PauliString.from_label("IZ"): -4.0}, constant=7.0)
        assert op.coefficient_norm() == pytest.approx(7.0)


class TestSerialization:
    def test_roundtrip(self, rng):
        op = QubitOperator(4, constant=0.25 - 0.5j)
        for _ in range(10):
            s = PauliString.from_axes(rng.integers(0, 4, size=4))
            op.add_term(complex(rng.normal(), rng.normal()), s)
        text = pauli.format_terms(op)
        back = pauli.parse_terms(text, n_qubits=4)
        assert back.n == op.n
        assert back.constant == pytest.approx(op.constant)
        assert set(back.terms) == set(op.terms)
        for s, c in op.items():
            assert back.terms[s] == pytest.approx(c)

    def test_register_inference_and_comments(self):
        op = pauli.parse_terms("# header\n(0.5,0.0) X0 Z3\n\n(1.0,-1.0) Y1\n")
        assert op.n == 4
        assert len(op) == 2

    def test_malformed_lines(self):
        with pytest.raises(ValueError, match="line 1"):
            pauli.parse_terms("0.5 X0\n")
        with pytest.raises(ValueError, match="bad axis"):
            pauli.parse_terms("(0.5,0.0) Q0\n")

    @pytest.mark.parametrize("line,message", [
        ("(1.0) X0", "malformed coefficient '(1.0)'"),
        ("(1.0,2.0,3.0) X0", "malformed coefficient"),
        ("(a,0.0) X0", "malformed coefficient '(a,0.0)'"),
        ("(1.0,0.0) Xa", "bad qubit index 'Xa'"),
        ("(1.0,0.0) X", "bad qubit index 'X'"),
        ("(1.0,0.0) X-1", "bad qubit index 'X-1'"),
        ("(1.0,0.0) X0 Z0", "a qubit appears twice"),
        ("(1.0,0.0) X4", "qubit 4 outside register of size 4"),
    ])
    def test_errors_name_the_line(self, line, message):
        with pytest.raises(ValueError, match=r"^line 3: " + re.escape(message)):
            pauli.parse_terms(f"# header\n(0.5,0.0) Z1\n{line}\n", n_qubits=4)

    def test_dense_equivalence_after_roundtrip(self, rng):
        op = QubitOperator(3, constant=1.0)
        for _ in range(5):
            op.add_term(complex(rng.normal(), rng.normal()),
                        PauliString.from_axes(rng.integers(0, 4, size=3)))
        back = pauli.parse_terms(pauli.format_terms(op), n_qubits=3)
        np.testing.assert_allclose(operator_dense(back), operator_dense(op), atol=1e-12)


def test_default_tol_positive():
    assert 0 < DEFAULT_TOL < 1e-9
