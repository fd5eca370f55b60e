"""Ordering strategies and Trotter plan bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiqc.fermion import build_hamiltonian, parse_fcidump
from fermiqc.fixtures import FIXTURE_NAMES, fixture_text
from fermiqc.mappings import map_operator
from fermiqc.pauli import PauliString, QubitOperator
from fermiqc.trotter import OrderingStrategy, order_terms, plan_for

from oracles import pauli, qubit_operator, reference_order_terms


def make_operator():
    return qubit_operator(3, [(coeff, pauli(label)) for label, coeff in [
        ("XII", 0.5), ("IYI", -2.0), ("IIZ", 1.0), ("XYI", -0.25), ("ZZZ", 1.5), ("IXX", -1.0)]],
        0.75)


class TestOrderingStrategy:
    def test_parse_random_with_seed(self):
        s = OrderingStrategy.parse("random:42")
        assert (s.kind, s.seed) == ("random", 42)
        assert str(s) == "random:42"

    def test_parse_plain(self):
        for kind in ("magnitude", "lex", "lexomag"):
            assert OrderingStrategy.parse(kind).kind == kind

    def test_parse_reads_back_the_printed_name(self):
        for name in ("magnitude", "magnitude-asc", "lex", "lexomag", "lexomag-asc",
                     *(f"random:{seed}" for seed in range(100))):
            assert str(OrderingStrategy.parse(name)) == name

    @given(st.sampled_from(OrderingStrategy.KINDS), st.integers())
    def test_parse_inverts_str(self, kind, seed):
        strategy = OrderingStrategy(kind, seed if kind == "random" else None)
        assert OrderingStrategy.parse(str(strategy)) == strategy

    def test_only_magnitude_sorts_have_a_direction(self):
        # The kind names the direction; lex and random have none to name.
        for kind in ("magnitude", "lexomag"):
            assert OrderingStrategy(f"{kind}-asc") != OrderingStrategy(kind)
        for name in ("lex-asc", "random-asc"):
            with pytest.raises(ValueError, match=f"unknown ordering '{name}'"):
                OrderingStrategy(name)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            OrderingStrategy("alphabetical")

    def test_random_requires_seed(self):
        with pytest.raises(ValueError, match="random ordering requires a seed"):
            OrderingStrategy("random")

    @pytest.mark.parametrize("kind", ["magnitude", "magnitude-asc", "lex", "lexomag",
                                      "lexomag-asc"])
    def test_only_random_takes_a_seed(self, kind):
        with pytest.raises(ValueError, match=f"{kind} ordering takes no seed, got 5"):
            OrderingStrategy(kind, 5)
        # str() of any other seed would be a name that parse rejects.
        for seed in (5.5, True):
            with pytest.raises(ValueError, match=f"needs an integer seed, got {seed!r}"):
                OrderingStrategy("random", seed)


def ordered(op, strategy):
    return plan_for(op, strategy, 1, 1.0).ordered_terms


class TestOrderTerms:
    def test_is_permutation(self):
        op = make_operator()
        base = dict(op.items())
        for strat in (OrderingStrategy("magnitude"), OrderingStrategy("lex"),
                      OrderingStrategy("lexomag"), OrderingStrategy("random", 7)):
            assert sorted(order_terms(op, strat).tolist()) == list(range(len(op)))
            terms = ordered(op, strat)
            assert dict(terms) == base
            assert len(terms) == len(base)

    def test_lex_order(self):
        labels = [s.label for s, _ in ordered(make_operator(), OrderingStrategy("lex"))]
        assert labels == sorted(labels)

    def test_magnitude_descending_default(self):
        mags = [abs(c) for _, c in ordered(make_operator(), OrderingStrategy("magnitude"))]
        assert mags == sorted(mags, reverse=True)

    def test_magnitude_ascending(self):
        strat = OrderingStrategy("magnitude-asc")
        mags = [abs(c) for _, c in ordered(make_operator(), strat)]
        assert mags == sorted(mags)

    @pytest.mark.parametrize("strategy,labels", [
        (OrderingStrategy("magnitude"), ["IYI", "ZZZ", "IIZ", "IXX", "XII", "XYI"]),
        (OrderingStrategy("magnitude-asc"), ["XYI", "XII", "IIZ", "IXX", "ZZZ", "IYI"]),
        (OrderingStrategy("lexomag"), ["IIZ", "IYI", "IXX", "ZZZ", "XII", "XYI"]),
    ], ids=["magnitude-desc", "magnitude-asc", "lexomag"])
    def test_magnitude_ties_keep_lex_order(self, strategy, labels):
        # IIZ (1.0) and IXX (-1.0) tie in magnitude; IIZ comes first in lex order.
        assert [s.label for s, _ in ordered(make_operator(), strategy)] == labels

    def test_random_seeded_and_distinct(self):
        op = make_operator()
        a = ordered(op, OrderingStrategy("random", 1))
        b = ordered(op, OrderingStrategy("random", 1))
        c = ordered(op, OrderingStrategy("random", 2))
        assert a == b
        assert a != c  # overwhelmingly likely for 6 terms

    def test_lexomag_interleaves(self):
        op = make_operator()
        out = ordered(op, OrderingStrategy("lexomag"))
        lex = ordered(op, OrderingStrategy("lex"))
        mag = ordered(op, OrderingStrategy("magnitude"))
        assert out[0] == lex[0]
        # second slot: best magnitude term not already emitted
        expected = next(t for t in mag if t != out[0])
        assert out[1] == expected
        assert dict(out) == dict(lex)

    @pytest.mark.parametrize("scheme", ["jw", "bk"])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_float_noise_does_not_break_magnitude_ties(self, name, scheme):
        # Magnitudes within 2^-40 tie, so nudging every coefficient by 2 ulp,
        # up, down or either way at random, leaves every plan as it was.
        op = map_operator(build_hamiltonian(parse_fcidump(fixture_text(name))), scheme)
        x, z, c = op.arrays()
        rng = np.random.default_rng(0)
        for toward in (np.inf, -np.inf, rng.choice([np.inf, -np.inf], len(c))):
            real = np.nextafter(np.nextafter(c.real, toward), toward)
            nudged = QubitOperator(op.n, op.constant, arrays=(x, z, real + 1j * c.imag))
            for name in ("magnitude", "magnitude-asc", "lex", "lexomag", "lexomag-asc",
                         "random:7"):
                strategy = OrderingStrategy.parse(name)
                want, got = plan_for(op, strategy, 1, 1.0), plan_for(nudged, strategy, 1, 1.0)
                assert np.array_equal(got.x, want.x) and np.array_equal(got.z, want.z)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference_order(self, data):
        # Few magnitudes, so ties are common; 70 qubits takes the int-mask path.
        n = data.draw(st.sampled_from([1, 2, 3, 5, 8, 70]))
        constant = data.draw(st.sampled_from([0.0, -0.5]))
        coeffs = (st.sampled_from([0.5, -0.5, 1.0, -1.0, 0.25, 1e-3])
                  | st.floats(-2.0, 2.0, allow_nan=False))
        masks = st.integers(0, (1 << n) - 1)
        op = qubit_operator(n, [(data.draw(coeffs),
                                 PauliString(n, data.draw(masks), data.draw(masks)))
                                for _ in range(data.draw(st.integers(0, 40)))], constant)
        kind = data.draw(st.sampled_from(OrderingStrategy.KINDS))
        strategy = OrderingStrategy(kind, data.draw(st.integers(0, 99)) if kind == "random"
                                    else None)
        assert ordered(op, strategy) == reference_order_terms(op, strategy)


class TestTrotterPlan:
    def test_angles(self):
        op = make_operator()
        plan = plan_for(op, OrderingStrategy("lex"), n_steps=4, time=2.0)
        for (_, coeff), theta in zip(plan.ordered_terms, plan.angles()):
            assert theta == pytest.approx(2.0 * coeff.real * 2.0 / 4)

    def test_offset_includes_constant(self):
        plan = plan_for(make_operator(), OrderingStrategy("lex"), 1, 1.0)
        assert plan.scalar_offset == pytest.approx(0.75)

    def test_plan_for_rejects_zero_steps(self):
        with pytest.raises(ValueError, match="need at least one Trotter step"):
            plan_for(make_operator(), OrderingStrategy("lex"), 0, 1.0)

    @pytest.mark.parametrize("constant,coeff,bad", [(0.0, 1.0 + 2.0j, "XY"),
                                                    (0.5 - 1e-3j, 1.0, "II")])
    def test_plan_for_rejects_non_hermitian(self, constant, coeff, bad):
        op = qubit_operator(2, [(coeff, pauli("XY"))], constant)
        with pytest.raises(ValueError, match=f"not Hermitian: term {bad} "):
            plan_for(op, OrderingStrategy("lex"), 1, 1.0)

    def test_plan_for_keeps_imaginary_parts_within_tolerance(self):
        op = qubit_operator(1, [(1.0 + 1e-13j, pauli("X"))], 1e-13j)
        assert plan_for(op, OrderingStrategy("lex"), 1, 1.0).angles() == [2.0]
