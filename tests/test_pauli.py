"""Pauli-string algebra checked against explicit Kronecker-product matrices."""

import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiqc import pauli
from fermiqc.pauli import DEFAULT_TOL, PauliString, QubitOperator, lex_order

from oracles import (operator_dense, pauli as pauli_string, qubit_operator,
                     reference_format_terms, reference_lex_key)

labels = st.text("IXYZ", min_size=1, max_size=5)


def from_digits(digits) -> PauliString:
    return pauli_string("".join("IXYZ"[d] for d in digits))


class TestPauliString:
    def test_label_roundtrip(self):
        s = pauli_string("XIZY")
        assert s.label == "XIZY"
        assert (s.x | s.z).bit_count() == 3

    def test_slotted_pickle_hash_and_equality(self):
        # Strings cross process boundaries with `bench --workers` and key dicts.
        s = pauli_string("XIZY")
        back = pickle.loads(pickle.dumps(s))
        assert back == s and hash(back) == hash(s) and back is not s
        assert not hasattr(s, "__dict__")
        with pytest.raises(AttributeError):
            s.x = 0

    @given(labels)
    def test_axes_roundtrip(self, label):
        s = pauli_string(label)
        assert s.label == label

    def test_symplectic_encoding(self):
        assert PauliString(4, 0b0011, 0b0110).label == "XYZI"

    def test_bits_outside_register_rejected(self):
        with pytest.raises(ValueError):
            PauliString(2, x=0b100)



def masks(strings, n):
    """X and Z masks of ``strings``: uint64 arrays, Python-int objects above 64 qubits."""
    dtype = np.uint64 if n <= 64 else object
    return (np.array([s.x for s in strings], dtype=dtype),
            np.array([s.z for s in strings], dtype=dtype))


def lex_sorted(strings, n):
    return [strings[i] for i in lex_order(n, *masks(strings, n))]


class TestLexOrder:
    def test_qubit_zero_most_significant(self):
        strings = [pauli_string(l) for l in ("ZI", "IX", "XI", "YY")]
        assert [s.label for s in lex_sorted(strings, 2)] == ["IX", "XI", "YY", "ZI"]

    @given(st.lists(labels.map(lambda l: l.ljust(5, "I")), min_size=2, max_size=8))
    def test_matches_label_order(self, rows):
        strings = [pauli_string(l) for l in rows]
        by_key = lex_sorted(strings, 5)
        by_label = sorted(strings, key=lambda s: s.label)
        assert [s.label for s in by_key] == [s.label for s in by_label]

    @given(st.integers(0, 70).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=2, max_size=6))))
    def test_orders_like_digit_tuples(self, case):
        n, rows = case
        strings = [from_digits(d) for d in rows]
        # Equal strings keep their input order, as in a stable sort.
        assert lex_sorted(strings, n) == sorted(strings, key=reference_lex_key)

    @pytest.mark.parametrize("n", [1, 8, 9, 31, 32, 33, 63, 64, 65, 70])
    def test_key_boundaries(self, n, rng):
        # Strings that differ only past a byte or key boundary, and random ones.
        strings = [from_digits(d) for d in rng.integers(0, 4, size=(40, n))]
        for q in {n - 1, n // 2, min(n - 1, 32), min(n - 1, 64)}:
            for d in range(4):
                strings.append(PauliString(n, (d & 1) << q, (d >> 1) << q))
        assert lex_sorted(strings, n) == sorted(strings, key=reference_lex_key)

    def test_empty(self):
        assert lex_order(0, *masks([], 0)).tolist() == []
        assert lex_order(3, *masks([], 3)).tolist() == []


_TERM_COEFFS = st.sampled_from([1.0, -1.0, 0.5j, -0.0, 0.25 - 0.5j, 1e-300, 1 / 3]) | \
    st.complex_numbers(allow_nan=False, allow_infinity=False)


@st.composite
def qubit_operators(draw, max_qubits=70):
    """Operators of drawn terms, summed as parse_terms sums a file's lines."""
    n = draw(st.integers(0, max_qubits))
    digits = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    return qubit_operator(n, [(draw(_TERM_COEFFS), from_digits(draw(digits)))
                              for _ in range(draw(st.integers(0, 8)))])


def term_lines(terms) -> str:
    """Term-file lines of (coefficient, PauliString) pairs, in order."""
    return "".join(f"({complex(c).real!r},{complex(c).imag!r}) "
                   + " ".join(f"{a}{q}" for q, a in enumerate(s.label) if a != "I") + "\n"
                   for c, s in terms)


class TestTermFiles:
    @settings(max_examples=200)
    @given(qubit_operators())
    def test_format_matches_reference(self, op):
        assert pauli.format_terms(op) == reference_format_terms(op)

    @settings(max_examples=200)
    @given(qubit_operators())
    def test_roundtrip(self, op):
        text = pauli.format_terms(op)
        if not np.isfinite([*op.arrays()[2], op.constant]).all():  # a drawn sum overflowed
            with pytest.raises(ValueError, match=r"^line \d+: .* makes a non-finite sum$"):
                pauli.parse_terms(text, n_qubits=op.n)
            return
        back = pauli.parse_terms(text, n_qubits=op.n)
        assert back == op
        assert pauli.format_terms(back) == text

    @settings(max_examples=200)
    @given(st.lists(st.tuples(
        st.sampled_from([0.5, -0.5, -0.0, complex(-0.0, -0.0), complex(-0.0, 1e-3), 1.0]),
        st.sampled_from(["III", "XII", "IYZ", "ZZZ"])), max_size=12))
    def test_repeated_lines_sum_as_add_term(self, lines):
        # Repeats, cancellations that come back, identity lines and -0.0 parts,
        # summed as the dict oracle sums them.
        terms = [(complex(c), pauli_string(label)) for c, label in lines]
        want = qubit_operator(3, terms)
        back = pauli.parse_terms(term_lines(terms), n_qubits=3)
        forms_agree(back, want)
        assert repr(back.constant) == repr(want.constant)
        assert repr(back.arrays()[2].tolist()) == repr(want.arrays()[2].tolist())


def from_arrays_of(op):
    """The operator ``op`` built from arrays of its items."""
    strings = [s for s, _ in op.items()]
    coeffs = np.array([c for _, c in op.items()], dtype=complex)
    return QubitOperator(op.n, constant=op.constant, arrays=(*masks(strings, op.n), coeffs))


def norm(op):
    try:
        return op.coefficient_norm()
    except OverflowError as exc:  # |c| of a drawn coefficient can exceed the float range
        return str(exc)


def forms_agree(a, b):
    assert a == b and b == a
    assert len(a) == len(b)
    assert [s for s, _ in a.items()] == [s for s, _ in b.items()]
    assert [c for _, c in a.items()] == [c for _, c in b.items()]
    assert norm(a) == norm(b)
    assert pauli.format_terms(a) == pauli.format_terms(b)


_EDGE_COEFFS = st.sampled_from([1.0, -1.0, 0.0, -0.0, complex(-0.0, -0.0), complex(1.0, -0.0),
                                complex(-0.0, 0.5), 0.5j, -0.5j])


class TestArrayForm:
    @settings(max_examples=200)
    @given(qubit_operators(), st.data())
    def test_from_arrays_matches_add_term(self, op, data):
        # The array form agrees with the operator it was read from, and a
        # file of its terms plus drawn lines parses as the dict oracle sums
        # them: a sum stays in place, an exact-zero sum leaves, a zero never
        # enters, a new string goes last, and `0.0 + c` turns -0.0 parts
        # into +0.0.
        forms_agree(from_arrays_of(op), op)
        digits = st.lists(st.integers(0, 3), min_size=op.n, max_size=op.n)
        pool = [s for s, _ in op.items()] + [PauliString(op.n)]
        pool += [from_digits(data.draw(digits)) for _ in range(2)]
        terms = [(op.constant, PauliString(op.n)), *((c, s) for s, c in op.items())]
        terms += [(data.draw(_EDGE_COEFFS | _TERM_COEFFS), data.draw(st.sampled_from(pool)))
                  for _ in range(data.draw(st.integers(1, 12)))]
        want, text = qubit_operator(op.n, terms), term_lines(terms)
        if not np.isfinite([*want.arrays()[2], want.constant]).all():  # a drawn sum overflowed
            with pytest.raises(ValueError, match=r"^line \d+: .* makes a non-finite sum$"):
                pauli.parse_terms(text, n_qubits=op.n)
            return
        back = pauli.parse_terms(text, n_qubits=op.n)
        forms_agree(back, want)
        assert ([(s.x, s.z, repr(c)) for s, c in back.items()]
                == [(s.x, s.z, repr(c)) for s, c in want.items()])
        assert repr(back.constant) == repr(want.constant)


class TestQubitOperator:
    def test_merge_and_constant(self):
        op = pauli.parse_terms("(1.0,0.0) X0 Z1\n(2.5,0.0) X0 Z1\n(0.5,0.0)\n")
        assert op.terms == {pauli_string("XZ"): 3.5}
        assert op.constant == 0.5

    def test_exact_cancellation_drops_term(self):
        op = pauli.parse_terms("(1.0,0.0) X0\n(-1.0,0.0) X0\n", n_qubits=1)
        assert len(op) == 0 and op.arrays()[0].tolist() == []
        assert pauli.format_terms(op) == ""

    def test_coefficient_norm(self):
        op = qubit_operator(2, [(3.0, pauli_string("XI")), (-4.0, pauli_string("IZ"))], 7.0)
        assert op.coefficient_norm() == pytest.approx(7.0)


class TestSerialization:
    def test_roundtrip(self, rng):
        terms = []
        for _ in range(10):
            s = from_digits(rng.integers(0, 4, size=4))
            terms.append((complex(rng.normal(), rng.normal()), s))
        op = qubit_operator(4, terms, 0.25 - 0.5j)
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
        ("(nan,0.0) X0", "coefficient '(nan,0.0)' makes a non-finite sum"),
        ("(1.0,-inf) X0", "coefficient '(1.0,-inf)' makes a non-finite sum"),
    ])
    def test_errors_name_the_line(self, line, message):
        with pytest.raises(ValueError, match=r"^line 3: " + re.escape(message)):
            pauli.parse_terms(f"# header\n(0.5,0.0) Z1\n{line}\n", n_qubits=4)

    def test_overflowing_sum_names_the_line(self):
        with pytest.raises(ValueError, match=r"^line 3: .* '\(0.0,-1e308\)' makes a non-finite"):
            pauli.parse_terms("(0.0,-1e308) X0\n(1.0,0.0) X0\n(0.0,-1e308) X0\n")

    def test_dense_equivalence_after_roundtrip(self, rng):
        op = qubit_operator(3, [(complex(rng.normal(), rng.normal()),
                                 from_digits(rng.integers(0, 4, size=3))) for _ in range(5)], 1.0)
        back = pauli.parse_terms(pauli.format_terms(op), n_qubits=3)
        np.testing.assert_allclose(operator_dense(back), operator_dense(op), atol=1e-12)


def test_default_tol_positive():
    assert 0 < DEFAULT_TOL < 1e-9
