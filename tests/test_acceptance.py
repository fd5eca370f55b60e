"""Acceptance gate: the eight release criteria, each printing one PASS/FAIL line.

Every numeric claim is checked against an independent oracle (explicit
Kronecker products, the occupation-basis ladder matrices, dense matrix
exponentials) at the pinned tolerance.  Reference energies for the bundled
molecule fixtures were frozen from exact diagonalization when the fixtures
were generated and are recorded inside the files themselves.
"""

import contextlib
import math
import time

import numpy as np

from fermiqc import fermion, optimizer
from fermiqc.bench import BenchConfig, BenchInput, emit_report, run_bench
from fermiqc.circuits import SYNTHESIS_MODES, count_gates, synthesize_plan
from fermiqc.fermion import build_hamiltonian, synthetic_integrals
from fermiqc.fixtures import FIXTURE_NAMES, fixture_path, fixture_text
from fermiqc.mappings import MappingScheme, basis_permutation, bk_index_sets, map_operator
from fermiqc.simulator import ground_state, operator_matrix, trotter_error
from fermiqc.trotter import OrderingStrategy, plan_for

from oracles import (bk_matrix, circuit_unitary, fock_matrix, pauli, pauli_exponential,
                     qubit_operator, random_fermion_operator, random_pauli_string,
                     strip_global_phase, term_gate_counts, term_plan)

# Evolution time used for all error measurements: well inside the phase
# branch |E t| < pi for every bundled fixture, with margin.
ERROR_ANALYSIS_TIME = 0.1

@contextlib.contextmanager
def criterion(number: int, title: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS [{time.monotonic() - start:.1f}s]")


def load_fixture_operator(name: str, scheme) -> tuple:
    ints = fermion.parse_fcidump(fixture_text(name))
    ham = build_hamiltonian(ints)
    return ham, map_operator(ham, scheme)


def test_criterion_1_mapping_correctness():
    """JW equals the occupation-basis oracle; BK equals its basis relabeling."""
    with criterion(1, "mapping correctness"):
        rng = np.random.default_rng(1)
        perms = {n: basis_permutation(n, MappingScheme.BRAVYI_KITAEV)
                 for n in range(1, 9)}
        for _ in range(200):
            n = int(rng.integers(1, 9))
            op = random_fermion_operator(rng, n)
            oracle = fock_matrix(op).toarray()
            jw = operator_matrix(map_operator(op, "jw")).toarray()
            np.testing.assert_allclose(jw, oracle, atol=1e-10, rtol=0)
            bk = operator_matrix(map_operator(op, "bk")).toarray()
            np.testing.assert_allclose(bk[np.ix_(perms[n], perms[n])], oracle,
                                       atol=1e-10, rtol=0)


def test_criterion_2_bk_structure():
    """Transformation matrix, index sets and logarithmic set sizes."""
    with criterion(2, "BK structure"):
        expected_8 = np.array([
            [1, 0, 0, 0, 0, 0, 0, 0],
            [1, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, 0, 0, 0, 0, 0],
            [1, 1, 1, 1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 0],
            [1, 1, 1, 1, 1, 1, 1, 1],
        ], dtype=np.int8)
        assert np.array_equal(bk_matrix(8), expected_8)
        assert bk_index_sets(0, 8).update == {1, 3, 7}
        assert bk_index_sets(3, 8).flip == {1, 2}
        for n in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
            bound = math.ceil(math.log2(n))
            for i in range(n):
                sets = bk_index_sets(i, n)
                assert len(sets.update) <= bound, (i, n)
                assert len(sets.parity) <= bound, (i, n)


def test_criterion_3_non_clifford_invariance():
    """Rotation count = term count, identical across mappings; zero tolerance."""
    with criterion(3, "non-Clifford invariance"):
        orderings = [OrderingStrategy("magnitude"), OrderingStrategy("lex"),
                     OrderingStrategy("lexomag"), OrderingStrategy("random", 3)]
        for name in FIXTURE_NAMES:
            counts_by_scheme = {}
            for scheme in MappingScheme:
                _, qop = load_fixture_operator(name, scheme)
                for strategy in orderings:
                    plan = plan_for(qop, strategy, 1, 1.0)
                    for mode in SYNTHESIS_MODES:
                        rz = count_gates(synthesize_plan(plan, mode)).nonclifford
                        assert rz == len(qop), (name, scheme, strategy, mode)
                        counts_by_scheme.setdefault((strategy.kind, mode), set()).add(rz)
            for key, values in counts_by_scheme.items():
                assert len(values) == 1, (name, key)  # JW count == BK count


def test_criterion_4_circuit_fidelity():
    """All three constructions realize exp(-i theta/2 P) up to global phase."""
    with criterion(4, "circuit fidelity"):
        rng = np.random.default_rng(4)
        cases = [(pauli("YZIZX"), 0.3)]
        # central-rotation parity cases: axis Z or Y on an even or odd
        # central qubit, paired with an even or odd parity qubit
        for axis in ("Z", "Y"):
            for central in (2, 3):
                for partner in (0, 1):
                    label = ["I"] * 4
                    label[partner], label[central] = "Z", axis
                    cases.append((pauli("".join(label)), 0.7))
        while len(cases) < 209:
            n = int(rng.integers(1, 7))
            cases.append((random_pauli_string(rng, n),
                          float(rng.uniform(-np.pi, np.pi))))
        for s, theta in cases:
            want = pauli_exponential(s, theta)
            for mode in SYNTHESIS_MODES:
                u = circuit_unitary(synthesize_plan(term_plan(s, theta), mode))
                if mode == "ancilla":
                    dim = 1 << s.n
                    np.testing.assert_allclose(u[dim:, :dim], 0.0, atol=1e-10)
                    u = u[:dim, :dim]
                np.testing.assert_allclose(strip_global_phase(u, want), want,
                                           atol=1e-10, rtol=0,
                                           err_msg=f"{mode} {s} {theta}")


def test_criterion_5_optimizer_safety_and_trend():
    """Exact rewrites only; lexicographic ordering cancels at least as much."""
    with criterion(5, "optimizer safety and trend"):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            op = qubit_operator(n, [(float(rng.normal()), random_pauli_string(rng, n))
                                    for _ in range(int(rng.integers(2, 7)))])
            plan = plan_for(op, OrderingStrategy("random", int(rng.integers(10000))),
                            int(rng.integers(1, 3)), 0.9)
            mode = SYNTHESIS_MODES[int(rng.integers(0, 3))]
            circ = synthesize_plan(plan, mode)
            opt = optimizer.optimize(circ)
            np.testing.assert_allclose(circuit_unitary(opt), circuit_unitary(circ),
                                       atol=1e-10, rtol=0)
        for name in FIXTURE_NAMES:
            for scheme in MappingScheme:
                _, qop = load_fixture_operator(name, scheme)
                savings = {}
                for kind in ("lex", "magnitude"):
                    plan = plan_for(qop, OrderingStrategy(kind), 1, 1.0)
                    circ = synthesize_plan(plan, "canonical")
                    raw = count_gates(circ).total
                    opt = count_gates(optimizer.optimize(circ)).total
                    savings[kind] = (raw - opt) / raw
                assert savings["lex"] >= savings["magnitude"], (name, scheme)


def test_criterion_6_crossover():
    """BK overtakes JW in total gate count as the register grows."""
    with criterion(6, "mapping crossover"):
        totals = {}
        for n_spin in (16, 24, 32, 40, 48):
            ints = synthetic_integrals(n_spin // 2, seed=7, density=1.0)
            ham = build_hamiltonian(ints)
            for scheme in MappingScheme:
                qop = map_operator(ham, scheme)
                totals[n_spin, scheme.value] = sum(
                    term_gate_counts(s).total for s in qop.terms)
        for n_spin in (16, 24):
            ratio = totals[n_spin, "bk"] / totals[n_spin, "jw"]
            assert 0.9 <= ratio <= 1.1, (n_spin, ratio)
        for n_spin in (40, 48):
            assert totals[n_spin, "bk"] < totals[n_spin, "jw"], n_spin
        saving_48 = 1.0 - totals[48, "bk"] / totals[48, "jw"]
        assert 0.10 <= saving_48 <= 0.35, saving_48


def test_criterion_7_trotter_error():
    """Single-step splitting error below 1e-3 Hartree; refinement helps."""
    with criterion(7, "Trotter error"):
        for name in ("h2_sto3g", "lih_sto3g"):
            for scheme in MappingScheme:
                _, qop = load_fixture_operator(name, scheme)
                energy, ground = ground_state(operator_matrix(qop))
                for kind in ("magnitude", "lex"):
                    errors = {}
                    for n_steps in (1, 100):
                        plan = plan_for(qop, OrderingStrategy(kind), n_steps,
                                        ERROR_ANALYSIS_TIME)
                        rep = trotter_error(plan, energy, ground)
                        assert not rep.unreliable
                        errors[n_steps] = rep.error
                    assert errors[1] < 1e-3, (name, scheme, kind, errors[1])
                    assert errors[100] < errors[1], (name, scheme, kind)


def test_criterion_8_determinism():
    """Identical configuration and seeds give byte-identical reports."""
    with criterion(8, "determinism"):
        def config():
            return BenchConfig(
                inputs=[BenchInput.parse(str(fixture_path("h2_sto3g"))),
                        BenchInput.parse("synthetic:n=3,seed=5,density=0.8")],
                mappings=list(MappingScheme),
                orderings=[OrderingStrategy("magnitude"),
                           OrderingStrategy("random", 11)],
                modes=["canonical", "basis_shift"],
                with_error=True, time=ERROR_ANALYSIS_TIME,
            )
        first = [emit_report(run_bench(config()), fmt) for fmt in ("csv", "json")]
        second = [emit_report(run_bench(config()), fmt) for fmt in ("csv", "json")]
        assert first[0].encode() == second[0].encode()
        assert first[1].encode() == second[1].encode()
