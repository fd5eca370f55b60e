"""Benchmark sweeps, report round-trips and the command-line front end."""

import csv
import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import pytest
from click.testing import CliRunner

import fermiqc
from fermiqc import bench, fermion, mappings, pauli, simulator, trotter, write_fcidump
from fermiqc.bench import CSV_HEADER, BenchConfig, BenchInput, emit_report, run_bench
from fermiqc.circuits import SYNTHESIS_MODES, GateCounts, count_gates, parse_circuit
from fermiqc.cli import main
from fermiqc.fixtures import fixture_path
from fermiqc.mappings import MappingScheme
from fermiqc.pauli import PauliString
from fermiqc.trotter import OrderingStrategy

from oracles import reference_gate_counts, reference_optimize, reference_synthesize_plan


SPEC = "synthetic:n=2,seed=1"


def write_impossible_sectors(directory):
    """FCIDUMP headers of two orbitals whose NELEC and MS2 name no sector."""
    for name, nelec, ms2 in (("parity", 3, 0), ("spin", 1, 3), ("full", 6, 0)):
        (directory / f"{name}.fcidump").write_text(
            f"&FCI NORB=2,NELEC={nelec},MS2={ms2},\n&END\n 0.5   1   1   0   0\n")


def write_bad_inputs(directory):
    """The bad input files of test_bad_input_is_one_line and
    test_bad_input_fails_its_pair."""
    write_impossible_sectors(directory)
    for name, text in (
            ("bad.fcidump", "&FCI NORB=2,NELEC=2,MS2=0,\n&END\n 0.5 1 1\n"),
            ("neg.fcidump", "&FCI NORB=-1,NELEC=2,\n&END\n"),
            ("empty-norb.fcidump", "&FCI NORB=,NELEC=2,\n&END\n"),
            ("empty-nelec.fcidump", "&FCI NORB=2,NELEC=,\n&END\n"),
            ("empty-ms2.fcidump", "&FCI NORB=2,NELEC=2,MS2=,\n&END\n"),
            ("nan.fcidump", "&FCI NORB=2,NELEC=2,\n&END\n nan 1 1 0 0\n"),
            ("nan.terms", "(0.5,0.0) X0\n(nan,0.0) Y0\n"),
            ("nan.circ", "QUBITS 1 ANCILLA 0\nH 0\nRZ 0 nan\nH 0\n"),
            ("huge.fcidump", "&FCI NORB=3000,NELEC=2,MS2=0,\n&END\n"),
            # 33 spatial orbitals are 66 spin-orbitals, beyond the 64-mode map limit.
            ("big.fcidump", "&FCI NORB=33,NELEC=2,MS2=0,\n&END\n 0.5   1   1   0   0\n")):
        (directory / name).write_text(text)


def assert_pairs_failed(r, spec, n_qubits, error, mappings=("jw", "bk")):
    """A trotter-error run in which each (spec, mapping) pair failed with
    ``error``: one error object and one ``pair failed:`` line per mapping,
    written in full, and exit status 2."""
    system = BenchInput.parse(spec).system
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)
    assert json.loads(r.stdout) == [{"system": system, "n_qubits": n_qubits, "mapping": m,
                                     "error": error} for m in mappings]
    assert r.stderr == "".join(f"pair failed: {system}/{m}: {error}\n" for m in mappings)


def tiny_config(**overrides):
    cfg = dict(
        inputs=[BenchInput.parse("synthetic:n=2,seed=3")],
        mappings=[MappingScheme.JORDAN_WIGNER, MappingScheme.BRAVYI_KITAEV],
        orderings=[OrderingStrategy("magnitude"), OrderingStrategy("random", 11)],
        modes=["canonical", "ancilla"],
    )
    cfg.update(overrides)
    return BenchConfig(**cfg)


class TestBenchInput:
    def test_parse_synthetic(self):
        inp = BenchInput.parse("synthetic:n=4,seed=2,density=0.5")
        assert inp.synthetic == (4, 2, 0.5)
        assert inp.system == "synthetic-n4-s2-d0.5"
        assert fermion.synthetic_integrals(*inp.synthetic).n_spatial == 4

    def test_parse_synthetic_defaults(self):
        assert BenchInput.parse("synthetic:n=3").synthetic == (3, 0, 1.0)

    def test_parse_path(self):
        path = fixture_path("h2_sto3g")
        inp = BenchInput.parse(str(path))
        assert inp.system == "h2_sto3g"
        assert fermion.parse_fcidump(Path(inp.path).read_text()).n_spatial == 2

    @pytest.mark.parametrize("spec,fragment", [
        ("synthetic:n=2,sed=1", "unknown key 'sed'"),
        ("synthetic:n=x", "n must be int, got 'x'"),
        ("synthetic:n=2,density=dense", "density must be float, got 'dense'"),
        ("synthetic:seed=1", "missing key 'n'"),
        ("synthetic:n", "n must be int, got ''"),
        ("synthetic:n=0", "n must be at least 1, got 0"),
        ("synthetic:n=-1,seed=2", "n must be at least 1, got -1"),
        ("synthetic:n=2,seed=-1", "seed must be at least 0, got -1"),
        ("synthetic:n=2,density=2", "density must be in (0, 1], got 2.0"),
        ("synthetic:n=2,density=0", "density must be in (0, 1], got 0.0"),
        ("synthetic:n=2,density=nan", "density must be in (0, 1], got nan"),
    ])
    def test_parse_synthetic_rejects_bad_spec(self, spec, fragment):
        with pytest.raises(ValueError) as err:
            BenchInput.parse(spec)
        assert repr(spec) in str(err.value) and fragment in str(err.value)


class TestRunBench:
    def test_sweep_shape_and_counts(self):
        rows = run_bench(tiny_config())
        assert len(rows) == 2 * 2 * 2  # mappings x orderings x modes
        for row in rows:
            assert "error" not in row
            assert row["n_qubits"] == 4
            assert row["raw"]["total"] >= row["opt"]["total"]
            assert 0.0 <= row["savings"] < 1.0
            # every term keeps exactly one rotation through optimization
            assert row["opt"]["nonclifford"] == row["raw"]["nonclifford"]

    @pytest.mark.parametrize("steps", [1, 3])
    def test_rows_count_the_reference_gates(self, steps):
        inp = BenchInput.parse(str(fixture_path("h2_sto3g")))
        cfg = tiny_config(inputs=[inp], n_steps=steps, modes=list(SYNTHESIS_MODES))
        ham = fermion.build_hamiltonian(fermion.parse_fcidump(Path(inp.path).read_text()))
        for row in run_bench(cfg):
            qop = mappings.map_operator(ham, MappingScheme(row["mapping"]))
            plan = trotter.plan_for(qop, OrderingStrategy(row["ordering"], row["seed"]), steps,
                                    simulator.safe_evolution_time(qop, cfg.time))
            circ = reference_synthesize_plan(plan, row["mode"])
            assert row["raw"] == asdict(reference_gate_counts(circ.gates))
            assert row["opt"] == asdict(reference_gate_counts(reference_optimize(circ).gates))

    def test_with_error_column(self):
        cfg = tiny_config(with_error=True, time=0.1,
                          orderings=[OrderingStrategy("magnitude")],
                          modes=["canonical"])
        rows = run_bench(cfg)
        assert all(row["trotter_error"] is not None for row in rows)
        assert all(row["trotter_error"] < 1e-2 for row in rows)

    def test_cell_isolation(self):
        cfg = tiny_config(inputs=[BenchInput.parse("/no/such/file.fcidump")])
        rows = run_bench(cfg)
        assert all(row["error"] is not None for row in rows)

    def test_each_stage_runs_once_per_key(self, monkeypatch):
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(mappings, "map_operator")
        counted(simulator, "_matrix_entries")
        counted(trotter, "plan_for")
        counted(simulator, "trotter_error")
        rows = run_bench(tiny_config(with_error=True, time=0.1))
        assert len(rows) == 8 and all("error" not in row for row in rows)
        # 2 (input, mapping) pairs x 2 orderings; the modes share each plan.
        assert calls == {"map_operator": 2, "_matrix_entries": 2,
                         "plan_for": 4, "trotter_error": 4}

    def test_ground_state_failure_keeps_counts(self, monkeypatch):
        def fail(m):
            raise simulator.EigensolverError("no convergence")
        monkeypatch.setattr(simulator, "ground_state", fail)
        for row in run_bench(tiny_config(with_error=True, time=0.1)):
            assert row["error"] == "EigensolverError: no convergence"
            assert row["n_qubits"] == 4 and row["opt"] is not None
            assert row["trotter_error"] is None

    def test_pair_fails_as_a_unit(self, monkeypatch):
        cfg = tiny_config(inputs=[BenchInput.parse("synthetic:n=2,seed=3"),
                                  BenchInput.parse("synthetic:n=3,seed=3")],
                          mappings=[MappingScheme.JORDAN_WIGNER],
                          orderings=[OrderingStrategy("magnitude")])
        clean = {(row["n_qubits"], row["mode"]): row for row in run_bench(cfg)}
        real = bench.synthesize_plan

        def synthesize_plan(plan, mode):
            if plan.n_qubits == 6 and mode == "ancilla":
                raise RuntimeError("no ancilla")
            return real(plan, mode)

        monkeypatch.setattr(bench, "synthesize_plan", synthesize_plan)
        rows = {(row["n_qubits"], row["mode"]): row for row in run_bench(cfg)}
        assert sorted(rows) == [(4, "ancilla"), (4, "canonical"),
                                (6, "ancilla"), (6, "canonical")]
        for mode in ("canonical", "ancilla"):
            assert rows[6, mode]["error"] == "RuntimeError: no ancilla"
            assert rows[4, mode] == clean[4, mode] and "error" not in rows[4, mode]
        # canonical runs before ancilla, so its counts were made before the failure
        made = rows[6, "canonical"]
        assert (made["raw"], made["opt"]) == (clean[6, "canonical"]["raw"],
                                              clean[6, "canonical"]["opt"])
        assert rows[6, "ancilla"]["raw"] is None

    def test_equal_orderings_give_one_row(self):
        # An ordering is its printed name, so the built and the parsed lex are one
        # ordering and one row (a seed cannot make a second lex; see test_trotter).
        lex, jw = OrderingStrategy("lex"), [MappingScheme.JORDAN_WIGNER]
        both = [lex, OrderingStrategy.parse("lex")]
        rows = run_bench(tiny_config(orderings=both, mappings=jw))
        assert rows == run_bench(tiny_config(orderings=[lex], mappings=jw))
        assert [(row["ordering"], row["mode"]) for row in rows] == [("lex", "ancilla"),
                                                                   ("lex", "canonical")]

    def test_rows_respell_their_orderings(self):
        # A row's ordering and seed columns build its strategy back, for
        # every kind and for random seeds of any size and sign.
        strategies = [OrderingStrategy(kind) for kind in OrderingStrategy.KINDS
                      if kind != "random"]
        strategies += [OrderingStrategy("random", seed) for seed in (0, 11, -3, 2**40)]
        rows = run_bench(tiny_config(orderings=strategies, modes=["canonical"],
                                     mappings=[MappingScheme.JORDAN_WIGNER]))
        assert len(rows) == len(strategies)
        assert {OrderingStrategy(row["ordering"], row["seed"]) for row in rows} == set(strategies)

    def test_parallel_matches_serial(self):
        serial = emit_report(run_bench(tiny_config(workers=1)))
        parallel = emit_report(run_bench(tiny_config(workers=2)))
        assert serial == parallel

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(inputs=[])
        with pytest.raises(ValueError):
            tiny_config(optimize_level="max")
        with pytest.raises(ValueError, match="unknown synthesis mode 'bogus'"):
            tiny_config(modes=["canonical", "bogus"])
        with pytest.raises(ValueError, match="need at least one Trotter step, got 0"):
            tiny_config(n_steps=0)


class TestReports:
    def test_csv_header(self):
        text = emit_report(run_bench(tiny_config()))
        assert text.splitlines()[0] == CSV_HEADER

    def test_csv_roundtrip(self):
        def counts(rec, prefix):
            return GateCounts(*(int(rec[f"{prefix}_{k}"])
                                for k in ("total", "entangling", "single", "nonclifford")))

        rows = run_bench(tiny_config(with_error=True, time=0.1))
        back = list(csv.DictReader(emit_report(rows).splitlines()))
        assert len(back) == len(rows)
        for a, b in zip(rows, back):
            assert (a["system"], a["mapping"], a["ordering"], a["seed"], a["mode"]) == \
                (b["system"], b["mapping"], b["ordering"],
                 None if b["seed"] == "" else int(b["seed"]), b["mode"])
            assert a["raw"] == asdict(counts(b, "raw"))
            assert a["opt"] == asdict(counts(b, "opt"))
            assert a["savings"] == pytest.approx(float(b["savings"]))

    def test_json_report(self):
        payload = json.loads(emit_report(run_bench(tiny_config()), "json"))
        assert payload[0]["raw"]["total"] > 0

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report([], "xml")

    def test_deterministic(self):
        a = emit_report(run_bench(tiny_config()))
        b = emit_report(run_bench(tiny_config()))
        assert a == b


class TestCli:
    def run(self, *args):
        return CliRunner().invoke(main, list(args), catch_exceptions=False)

    def test_map_compile_optimize_pipeline(self, tmp_path):
        terms = tmp_path / "terms.txt"
        circ = tmp_path / "circ.txt"
        opt = tmp_path / "opt.txt"
        r = self.run("map", str(fixture_path("h2_sto3g")), "--mapping", "bk",
                     "-o", str(terms))
        assert r.exit_code == 0 and terms.read_text().count("\n") > 3
        r = self.run("compile", str(terms), "--ordering", "lex", "--mode",
                     "basis_shift", "-o", str(circ))
        assert r.exit_code == 0
        assert circ.read_text().startswith("QUBITS 4 ANCILLA 0")
        r = self.run("optimize", str(circ), "-o", str(opt))
        assert r.exit_code == 0
        assert opt.read_text().count("\n") <= circ.read_text().count("\n")

    def test_commands_build_no_pauli_string(self, tmp_path, monkeypatch):
        # The pipeline reads the operator's masks; PauliString is only a view.
        built = []
        post_init = PauliString.__post_init__
        monkeypatch.setattr(PauliString, "__post_init__",
                            lambda s: (built.append(s), post_init(s))[1])
        lih = str(fixture_path("lih_sto3g"))
        terms, circ = tmp_path / "lih.terms", tmp_path / "lih.circ"
        for args in (["map", lih, "-o", str(terms)],
                     ["compile", str(terms), "--ordering", "lexomag", "-o", str(circ)],
                     ["optimize", str(circ), "-o", str(tmp_path / "opt.circ")],
                     ["bench", lih, "--orderings", "magnitude,lex,lexomag,random:7",
                      "--mode", "basis_shift", "--mode", "ancilla", "--error"],
                     ["trotter-error", lih, "--orderings", "magnitude,lex", "--steps", "1,2"]):
            assert self.run(*args).exit_code == 0, args
        assert built == []
        PauliString(1, 1, 0)
        assert len(built) == 1  # the wrapper counts

    def test_bench_csv_to_stdout(self):
        r = self.run("bench", "synthetic:n=2,seed=1", "--mode", "canonical",
                     "--orderings", "lex")
        assert r.exit_code == 0
        assert r.output.splitlines()[0] == CSV_HEADER

    def test_bench_exit_code_on_failure(self):
        r = CliRunner().invoke(main, ["bench", "/missing.fcidump"])
        assert r.exit_code == 2

    def test_bench_register_size_unknown_before_load(self):
        # A pair that fails before its register size is known writes no
        # size: an empty CSV field and a JSON null, not a 0-qubit register.
        args = ["bench", "/missing.fcidump", "--mapping", "jw"]
        r = CliRunner().invoke(main, args)
        assert r.exit_code == 2
        assert r.stdout.splitlines()[1].startswith("missing,,jw,")
        r = CliRunner().invoke(main, [*args, "--format", "json"])
        assert r.exit_code == 2
        [row] = json.loads(r.stdout)
        assert row["n_qubits"] is None and row["error"].startswith("FileNotFoundError")

    @pytest.mark.parametrize("option,value", [("--mode", "canonical,ancilla"),
                                              ("--mapping", "jw,bk"),
                                              ("--workers", "0")])
    def test_bench_rejects_unknown_choice(self, option, value):
        r = CliRunner().invoke(main, ["bench", "synthetic:n=2,seed=1", option, value])
        assert r.exit_code == 2
        assert f"Invalid value for '{option}'" in r.output

    def test_bench_orderings_override(self):
        r = self.run("bench", "synthetic:n=2,seed=1", "--orderings",
                     "lex,random:5", "--mode", "canonical", "--mapping", "jw")
        body = r.output.splitlines()[1:]
        assert len(body) == 2
        assert any(",random,5," in line for line in body)

    def test_trotter_error_json(self):
        r = self.run("trotter-error", str(fixture_path("h2_sto3g")),
                     "--mapping", "jw", "--orderings", "magnitude",
                     "--steps", "1,10", "--time", "0.1")
        payload = json.loads(r.output)
        assert len(payload) == 2
        by_steps = {p["n_steps"]: p for p in payload}
        assert by_steps[10]["error"] < by_steps[1]["error"]
        assert abs(by_steps[1]["exact_energy"] - (-1.137270175)) < 1e-6
        for p in payload:
            assert list(p)[:5] == ["system", "n_qubits", "mapping", "ordering", "n_steps"]
            assert p["ordering"] == "magnitude" and p["mapping"] == "jw"

    def test_bench_and_trotter_error_agree_bit_for_bit(self):
        # Both commands run one (input, mapping) stage, so the numbers they
        # share are the same floats.
        args = [str(fixture_path("lih_sto3g")), "--orderings", "magnitude,lex",
                "--steps", "2", "--time", "0.1"]
        rows = json.loads(self.run("bench", *args, "--error", "--format", "json").output)
        reports = json.loads(self.run("trotter-error", *args).output)
        assert len(rows) == len(reports) == 4
        shared = ("time", "overlap_magnitude", "nelec", "ms2", "sector_dim")
        got = {(r["mapping"], r["ordering"]): [r["trotter_error"], *map(r.get, shared)]
               for r in rows}
        want = {(r["mapping"], r["ordering"]): [r["error"], *map(r.get, shared)]
                for r in reports}
        assert repr(sorted(got.items())) == repr(sorted(want.items()))
        assert got[("jw", "lex")][0] > 0 and got[("bk", "magnitude")][5] == 225

    def test_trotter_error_eigensolver_failure_is_one_line(self, monkeypatch):
        def fail(m):
            raise simulator.EigensolverError("no convergence")
        monkeypatch.setattr(simulator, "ground_state", fail)
        r = CliRunner().invoke(main, ["trotter-error", SPEC, "--mapping", "jw"])
        assert_pairs_failed(r, SPEC, 4, "EigensolverError: no convergence", ["jw"])

    def test_trotter_error_keeps_finished_pairs(self):
        # A pair that fails takes only its own reports with it.
        h2 = str(fixture_path("h2_sto3g"))
        alone = json.loads(self.run("trotter-error", h2, "--mapping", "jw").output)
        r = CliRunner().invoke(main, ["trotter-error", h2, "synthetic:n=9", "--mapping", "jw"])
        assert r.exit_code == 2
        error = "ResourceLimitError: 18 qubits exceeds the 16-qubit matrix limit"
        assert json.loads(r.stdout) == alone + [{"system": "synthetic-n9-s0-d1", "n_qubits": 18,
                                                 "mapping": "jw", "error": error}]
        assert r.stderr == f"pair failed: synthetic-n9-s0-d1/jw: {error}\n"

    def test_mixed_direction_sweep(self):
        # One sweep takes both directions of each magnitude sort; each label
        # counts the circuit that a sweep of that direction alone counts.
        def opt_totals(orderings):
            r = self.run("bench", str(fixture_path("lih_sto3g")), "--mapping", "jw",
                         "--mode", "canonical", "--orderings", orderings)
            assert r.exit_code == 0
            return {row["ordering"]: int(row["opt_total"])
                    for row in csv.DictReader(r.output.splitlines())}

        mixed = opt_totals("magnitude,magnitude-asc,lexomag,lexomag-asc,lex")
        assert mixed == {**opt_totals("magnitude,lexomag,lex"),
                         **opt_totals("magnitude-asc,lexomag-asc,lex")}
        # The counts of the separate descending and ascending sweeps that a
        # direction flag once chose.
        assert mixed == {"lex": 6052, "lexomag": 9168, "lexomag-asc": 9118,
                         "magnitude": 8600, "magnitude-asc": 8568}
        errors = self.run("trotter-error", SPEC, "--mapping", "jw", "--orderings",
                          "magnitude-asc,lexomag-asc,lex,random:3,magnitude")
        assert [r["ordering"] for r in json.loads(errors.output)] == [
            "magnitude-asc", "lexomag-asc", "lex", "random:3", "magnitude"]

    def test_printed_orderings_compile_back(self, tmp_path):
        # Each ordering a bench report prints, spelled back as compile
        # --ordering, gives a circuit that optimizes to the row's count.
        lih = str(fixture_path("lih_sto3g"))
        terms, circ, opt = tmp_path / "lih.terms", tmp_path / "lih.circ", tmp_path / "opt.circ"
        assert self.run("map", lih, "--mapping", "jw", "-o", str(terms)).exit_code == 0
        r = self.run("bench", lih, "--mapping", "jw", "--mode", "canonical", "--orderings",
                     "magnitude,magnitude-asc,lexomag-asc,lex,random:3")
        rows = list(csv.DictReader(r.output.splitlines()))
        assert len(rows) == 5
        for row in rows:
            spelled = f"{row['ordering']}:{row['seed']}" if row["seed"] else row["ordering"]
            assert self.run("compile", str(terms), "--ordering", spelled,
                            "-o", str(circ)).exit_code == 0, spelled
            assert self.run("optimize", str(circ), "-o", str(opt)).exit_code == 0
            assert count_gates(parse_circuit(opt.read_text())).total == int(row["opt_total"])

    def test_bench_json_row_layout(self):
        head = ["system", "n_qubits", "mapping", "ordering", "seed", "mode", "savings",
                "trotter_error"]
        caveats = ["time", "unreliable", "overlap_magnitude", "nelec", "ms2", "sector_dim"]
        counts = ["total", "entangling", "single", "nonclifford"]
        for error, keys in (([], head), (["--error"], head + caveats)):
            r = self.run("bench", SPEC, "--mapping", "jw", *error, "--format", "json")
            [row] = json.loads(r.output)
            assert list(row) == keys + ["raw", "opt"]
            assert list(row["raw"]) == list(row["opt"]) == counts
            r = CliRunner().invoke(main, ["bench", "/missing.fcidump", "--mapping", "jw",
                                          *error, "--format", "json"])
            assert r.exit_code == 2
            [row] = json.loads(r.stdout)
            assert list(row) == keys + ["raw", "opt", "error"]

    @pytest.mark.parametrize("args", [
        ["trotter-error", "synthetic:n=2,seed=1", "--time", "0"],
        ["bench", "synthetic:n=2,seed=1", "--error", "--time", "0"],
        ["bench", "synthetic:n=2,seed=1", "--time", "-1"],
        ["compile", "t.terms", "--time", "0"],
        # Nor nan or inf, which would write `RZ q nan` lines or be clamped unseen.
        *([*cmd, "--time", value] for value in ("nan", "inf")
          for cmd in (["compile", "t.terms"], ["bench", "synthetic:n=2,seed=1", "--error"],
                      ["trotter-error", "synthetic:n=2,seed=1"])),
    ])
    def test_time_must_be_positive(self, args):
        r = CliRunner().invoke(main, args)
        assert r.exit_code == 2
        assert "Invalid value for '--time'" in r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)

    @pytest.mark.parametrize("qubits", ["0", "-2"])
    def test_compile_rejects_bad_register_size(self, qubits, tmp_path):
        terms = tmp_path / "t.terms"
        terms.write_text("(1.0,0.0) X0\n")
        r = CliRunner().invoke(main, ["compile", str(terms), "--qubits", qubits])
        assert r.exit_code == 2
        assert "Invalid value for '--qubits'" in r.output

    @pytest.mark.parametrize("repeated,once", [
        (["bench", SPEC, "synthetic:seed=1,n=2"], ["bench", SPEC]),
        (["bench", SPEC, "--mapping", "jw", "--mapping", "bk", "--mapping", "jw"],
         ["bench", SPEC, "--mapping", "jw", "--mapping", "bk"]),
        (["bench", SPEC, "--mode", "ancilla", "--mode", "ancilla"],
         ["bench", SPEC, "--mode", "ancilla"]),
        (["bench", SPEC, "--orderings", "random:1,lex,random:01"],
         ["bench", SPEC, "--orderings", "random:1,lex"]),
        (["trotter-error", SPEC, SPEC], ["trotter-error", SPEC]),
        (["trotter-error", SPEC, "--mapping", "bk", "--mapping", "bk"],
         ["trotter-error", SPEC, "--mapping", "bk"]),
        (["trotter-error", SPEC, "--orderings", "lex,lex"],
         ["trotter-error", SPEC, "--orderings", "lex"]),
        (["trotter-error", SPEC, "--steps", "1,1"], ["trotter-error", SPEC, "--steps", "1"]),
    ], ids=["bench-inputs", "bench-mapping", "bench-mode", "bench-orderings",
            "trotter-error-inputs", "trotter-error-mapping", "trotter-error-orderings",
            "trotter-error-steps"])
    def test_repeated_value_runs_once(self, repeated, once):
        assert self.run(*repeated).output == self.run(*once).output

    def test_optimize_rejects_negative_window(self, tmp_path):
        circ = tmp_path / "c.txt"
        circ.write_text("QUBITS 1 ANCILLA 0\nH 0\nH 0\n")
        r = CliRunner().invoke(main, ["optimize", str(circ), "--window", "-3"])
        assert r.exit_code == 2
        assert "Invalid value for '--window'" in r.output

    @pytest.mark.parametrize("spec", ["synthetic:n=2,sed=1", "synthetic:n=x", "synthetic:n=0",
                                      "synthetic:n=-1", "synthetic:n=2,density=2",
                                      "synthetic:n=2,n=3", "synthetic:n=2,seed=-1"])
    def test_bad_synthetic_spec_is_one_line(self, spec):
        r = CliRunner().invoke(main, ["bench", spec])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.output.splitlines()[-1].startswith(f"Error: Invalid value: {spec!r}: ")
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("command", ["bench", "trotter-error"])
    @pytest.mark.parametrize("first,second,system", [
        ("a/h2.fcidump", "b/h2.fcidump", "h2"),
        # :g rounds the density in the system name
        ("synthetic:n=2,density=0.1234567", "synthetic:n=2,density=0.1234568",
         "synthetic-n2-s0-d0.123457"),
    ], ids=["paths", "synthetic"])
    def test_inputs_sharing_a_system_name_are_a_usage_error(self, command, first, second,
                                                             system, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for directory, fixture in (("a", "h2_sto3g"), ("b", "h2_631g")):
            (tmp_path / directory).mkdir()
            (tmp_path / directory / "h2.fcidump").write_text(fixture_path(fixture).read_text())
        r = CliRunner().invoke(main, [command, first, first, second])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.output.splitlines()[-1] == (
            f"Error: Invalid value: {first!r} and {second!r} are distinct inputs "
            f"that share the system name {system!r}")

    def test_optimize_reports_bad_circuit_line(self, tmp_path):
        circ = tmp_path / "c.txt"
        circ.write_text("QUBITS 2 ANCILLA 0\nH 0\nCNOT 1\n")
        r = CliRunner().invoke(main, ["optimize", str(circ)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert r.output == f"Error: {circ}: line 3: CNOT takes 2 operands, got 1\n"

    @pytest.mark.parametrize("args", [
        ["compile", "TERMS", "--steps", "0"],
        ["bench", "synthetic:n=2,seed=1", "--steps", "0"],
        ["trotter-error", "synthetic:n=2,seed=1", "--steps", "1,0"],
        ["trotter-error", "synthetic:n=2,seed=1", "--steps", "1,x"],
    ], ids=["compile", "bench", "trotter-error-zero", "trotter-error-not-int"])
    def test_steps_must_be_positive(self, args, tmp_path):
        terms = tmp_path / "t.terms"
        terms.write_text("(1.0,0.0) X0\n")
        r = CliRunner().invoke(main, [str(terms) if a == "TERMS" else a for a in args])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.output.splitlines()[-1].startswith("Error: Invalid value for '--steps'")

    @pytest.mark.parametrize("text,message", [
        ("(0.0,0.0)\n(1.0,2.0) X0 Y1\n",
         "operator is not Hermitian: term XY has coefficient (1+2j)"),
        ("(0.5,0.0) X0\n(1.0) X0\n", "line 2: malformed coefficient '(1.0)', expected (re,im)"),
    ], ids=["non-hermitian", "short-coefficient"])
    def test_compile_reports_bad_terms_in_one_line(self, tmp_path, text, message):
        terms = tmp_path / "t.terms"
        terms.write_text(text)
        r = CliRunner().invoke(main, ["compile", str(terms)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert r.output == f"Error: {terms}: {message}\n"

    @pytest.mark.parametrize("args,option,message", [
        (["compile", "TERMS", "--ordering", "foo"], "--ordering", "unknown ordering 'foo'"),
        (["compile", "TERMS", "--ordering", "random:x"], "--ordering",
         "random ordering needs an integer seed, got 'random:x'"),
        # compile takes one name; a comma is part of it.
        (["compile", "TERMS", "--ordering", "lex,magnitude"], "--ordering",
         "unknown ordering 'lex,magnitude'"),
        (["bench", "synthetic:n=2,seed=1", "--orderings", "lex,random:x"], "--orderings",
         "random ordering needs an integer seed, got 'random:x'"),
        (["bench", "synthetic:n=2,seed=1", "--orderings", "foo"], "--orderings",
         "unknown ordering 'foo'"),
        (["bench", "synthetic:n=2,seed=1", "--orderings", ""], "--orderings",
         "unknown ordering ''"),
        # lex and random have no direction.
        (["bench", "synthetic:n=2,seed=1", "--orderings", "lex-asc"], "--orderings",
         "unknown ordering 'lex-asc'"),
        (["trotter-error", "synthetic:n=2,seed=1", "--orderings", "lex,foo"], "--orderings",
         "unknown ordering 'foo'"),
        (["trotter-error", "synthetic:n=2,seed=1", "--orderings", "random:"], "--orderings",
         "random ordering needs an integer seed, got 'random:'"),
        (["trotter-error", "synthetic:n=2,seed=1", "--orderings", "random:3-asc"],
         "--orderings", "random ordering needs an integer seed, got 'random:3-asc'"),
        (["compile", "TERMS", "--ordering", "magnitude-asc-asc"], "--ordering",
         "unknown ordering 'magnitude-asc-asc'"),
    ], ids=["compile", "compile-seed", "compile-list", "bench-seed", "bench", "bench-empty",
            "bench-lex-asc", "trotter-error", "trotter-error-seed", "trotter-error-random-asc",
            "compile-asc-twice"])
    def test_bad_ordering_is_one_line(self, args, option, message, tmp_path):
        terms = tmp_path / "t.terms"
        terms.write_text("(1.0,0.0) X0\n")
        r = CliRunner().invoke(main, [str(terms) if a == "TERMS" else a for a in args])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.output.splitlines()[-1] == f"Error: Invalid value for '{option}': {message}"
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("command,spec,message", [
        ("map", "bad.fcidump", "line 3: expected 'value i j k l', got ' 0.5 1 1'"),
        ("map", "missing.fcidump", "[Errno 2] No such file or directory: 'missing.fcidump'"),
        ("compile", "missing.terms", "[Errno 2] No such file or directory: 'missing.terms'"),
        ("optimize", "missing.circ", "[Errno 2] No such file or directory: 'missing.circ'"),
        ("map", "neg.fcidump", "line 1: NORB must be at least 1, got -1"),
        ("map", "empty-norb.fcidump", "line 1: NORB must be an integer, got ''"),
        ("map", "empty-nelec.fcidump", "line 1: NELEC must be an integer, got ''"),
        ("map", "empty-ms2.fcidump", "line 1: MS2 must be an integer, got ''"),
        ("map", "nan.fcidump", "line 3: value 'nan' is not finite"),
        ("compile", "nan.terms", "line 2: coefficient '(nan,0.0)' makes a non-finite sum"),
        ("optimize", "nan.circ", "line 3: RZ angle 'nan' is not finite"),
        # Integrals of NORB=3000 would need 589 TiB; the header's NORB is
        # checked against the map limit before they are asked for.
        ("map", "huge.fcidump", "6000 modes exceeds the 64-mode map limit"),
    ], ids=["map-malformed", "map-missing-file", "compile-missing-file",
            "optimize-missing-file", "map-negative-norb", "map-empty-norb",
            "map-empty-nelec", "map-empty-ms2", "map-nan", "compile-nan", "optimize-nan",
            "map-unallocatable"])
    def test_bad_input_is_one_line(self, command, spec, message, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_bad_inputs(tmp_path)
        r = CliRunner().invoke(main, [command, spec])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert r.output == f"Error: {spec}: {message}\n"

    @pytest.mark.parametrize("gates", [0, 5000], ids=["first-block", "later-block"])
    def test_undecodable_circuit_is_one_line(self, gates, tmp_path, monkeypatch):
        # optimize decodes its file as it reads; a bad byte past the first
        # block still fails with one line naming the file and no line number.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.circ").write_bytes(b"QUBITS 1 ANCILLA 0\n" + b"H 0\n" * gates
                                            + b"H \xff\n")
        r = CliRunner().invoke(main, ["optimize", "bad.circ"])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert re.fullmatch(r"Error: bad\.circ: 'utf-8' codec can't decode byte 0xff "
                            r"in position \d+: invalid start byte\n", r.output)

    @pytest.mark.parametrize("spec,n_qubits,kind,message", [
        ("missing.fcidump", None, "FileNotFoundError",
         "[Errno 2] No such file or directory: 'missing.fcidump'"),
        ("bad.fcidump", 4, "ValueError", "line 3: expected 'value i j k l', got ' 0.5 1 1'"),
        ("big.fcidump", 66, "ResourceLimitError", "66 modes exceeds the 64-mode map limit"),
        ("synthetic:n=9", 18, "ResourceLimitError",
         "18 qubits exceeds the 16-qubit matrix limit"),
        ("parity.fcidump", 4, "ValueError", "no sector has NELEC=3, MS2=0 in NORB=2 orbitals: "
         "(NELEC + MS2)/2 and (NELEC - MS2)/2 must be whole numbers in 0..2"),
        ("spin.fcidump", 4, "ValueError", "no sector has NELEC=1, MS2=3 in NORB=2 orbitals: "
         "(NELEC + MS2)/2 and (NELEC - MS2)/2 must be whole numbers in 0..2"),
        ("full.fcidump", 4, "ValueError", "no sector has NELEC=6, MS2=0 in NORB=2 orbitals: "
         "(NELEC + MS2)/2 and (NELEC - MS2)/2 must be whole numbers in 0..2"),
        # Integrals of NORB=3000 would need 589 TiB; the header's NORB is
        # checked against the map limit before they are asked for.
        ("huge.fcidump", 6000, "ResourceLimitError", "6000 modes exceeds the 64-mode map limit"),
    ], ids=["missing-file", "malformed", "above-map-limit", "above-matrix-limit",
            "sector-parity", "sector-ms2-above-nelec", "sector-above-norb",
            "trotter-error-unallocatable"])
    def test_bad_input_fails_its_pair(self, spec, n_qubits, kind, message, tmp_path,
                                      monkeypatch):
        # trotter-error writes one error object per failed (input, mapping)
        # pair, as bench fails the pair's cells, and exits 2.
        monkeypatch.chdir(tmp_path)
        write_bad_inputs(tmp_path)
        r = CliRunner().invoke(main, ["trotter-error", spec])
        assert_pairs_failed(r, spec, n_qubits, f"{kind}: {message}")

    def test_impossible_sector_fails_only_where_the_sector_is_built(self, tmp_path):
        write_impossible_sectors(tmp_path)
        parity = str(tmp_path / "parity.fcidump")
        assert self.run("map", parity).exit_code == 0
        assert self.run("bench", parity).exit_code == 0
        r = CliRunner().invoke(main, ["bench", parity, "--error", "--format", "json"])
        assert r.exit_code == 2
        message = ("ValueError: no sector has NELEC=3, MS2=0 in NORB=2 orbitals: "
                   "(NELEC + MS2)/2 and (NELEC - MS2)/2 must be whole numbers in 0..2")
        assert r.stderr == "".join(f"cell failed: parity/{m}/magnitude/canonical: {message}\n"
                                   for m in ("bk", "jw"))
        for row in json.loads(r.stdout):
            assert row["error"] == message and row["opt"] is not None
            assert row["trotter_error"] is None and row["sector_dim"] is None

    def test_bench_error_json_carries_caveats(self):
        h2 = str(fixture_path("h2_sto3g"))
        args = ["bench", h2, "--error", "--time", "100", "--orderings", "magnitude,lex"]
        r = self.run(*args, "--format", "json")
        assert r.exit_code == 0
        ham = fermion.build_hamiltonian(fermion.parse_fcidump(fixture_path("h2_sto3g").read_text()))
        for row in json.loads(r.output):
            clamped = simulator.safe_evolution_time(
                mappings.map_operator(ham, MappingScheme(row["mapping"])), 100)
            assert clamped < 100 and row["time"] == clamped
            assert row["unreliable"] is (row["overlap_magnitude"] < 0.5)
            assert (row["nelec"], row["ms2"], row["sector_dim"]) == (2, 0, 4)
        # The CSV has no such columns.
        assert self.run(*args).output.splitlines()[0] == CSV_HEADER

    def test_trotter_error_reports_the_sector_energy(self):
        r = self.run("trotter-error", "synthetic:n=3,seed=5,density=0.8", "--mapping", "bk")
        [report] = json.loads(r.output)
        assert round(report["exact_energy"], 4) == -3.1746  # not the 4-electron -3.7597
        assert (report["nelec"], report["ms2"], report["sector_dim"]) == (3, 1, 9)

    def test_map_does_not_import_scipy(self, tmp_path):
        script = ("import sys; from fermiqc.cli import main; "
                  "main(sys.argv[1:], standalone_mode=False); "
                  "print('scipy' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(fermiqc.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", script, "map", str(fixture_path("lih_sto3g")),
                              "-o", str(tmp_path / "lih.terms")],
                             capture_output=True, text=True, env=env, check=True).stdout
        assert out == "False\n"

    def test_desk_scale_error_runs_do_not_import_scipy(self, tmp_path):
        # LiH's 225-state and H2/6-31G's 16-state sectors are numpy arrays.
        script = ("import sys; from fermiqc.cli import main; "
                  "main(sys.argv[1:], standalone_mode=False); "
                  "print('scipy' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(fermiqc.__file__).parents[1])}
        lih, h2 = str(fixture_path("lih_sto3g")), str(fixture_path("h2_631g"))
        for args in (["bench", lih, "--error", "--time", "0.1", "-o", str(tmp_path / "b.csv")],
                     ["trotter-error", lih, h2, "--steps", "1,20", "--time", "0.1",
                      "-o", str(tmp_path / "t.json")]):
            out = subprocess.run([sys.executable, "-c", script, *args],
                                 capture_output=True, text=True, env=env, check=True).stdout
            assert out == "False\n", args

    def test_cli_does_not_import_the_process_pool(self):
        # Only a bench sweep with --workers > 1 loads multiprocessing.
        script = ("import sys, fermiqc.cli; print(sorted({'multiprocessing', "
                  "'concurrent.futures.process'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": str(Path(fermiqc.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, env=env, check=True).stdout
        assert out == "[]\n"

    def test_register_above_map_limit_is_one_line(self, tmp_path, monkeypatch):
        # 33 spatial orbitals are 66 spin-orbitals, beyond the 64-mode map
        # limit; the check comes before the Hamiltonian is built, and for a
        # synthetic spec before its integrals are made.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "big.fcidump").write_text("&FCI NORB=33,NELEC=2,MS2=0,\n&END\n"
                                              " 0.5   1   1   0   0\n 1.0   0   0   0   0\n")

        def build_hamiltonian(ints):
            raise AssertionError("built a Hamiltonian above the map limit")

        def synthetic_integrals(*args):
            raise AssertionError("made synthetic integrals above the map limit")

        monkeypatch.setattr(fermion, "build_hamiltonian", build_hamiltonian)
        monkeypatch.setattr(fermion, "synthetic_integrals", synthetic_integrals)
        for spec in ("big.fcidump", "synthetic:n=33"):
            r = CliRunner().invoke(main, ["map", spec])
            assert r.exit_code == 1
            assert isinstance(r.exception, SystemExit)
            assert r.output == f"Error: {spec}: 66 modes exceeds the 64-mode map limit\n"
            r = CliRunner().invoke(main, ["trotter-error", spec, "--mapping", "bk"])
            assert_pairs_failed(r, spec, 66, "ResourceLimitError: 66 modes exceeds the "
                                "64-mode map limit", ["bk"])
            r = CliRunner().invoke(main, ["bench", spec, "--mapping", "bk", "--format", "json"])
            assert r.exit_code == 2
            assert isinstance(r.exception, SystemExit)
            assert r.stderr == (f"cell failed: {BenchInput.parse(spec).system}/bk/magnitude/"
                                "canonical: ResourceLimitError: 66 modes exceeds the 64-mode "
                                "map limit\n")
            [row] = json.loads(r.stdout)
            assert row["n_qubits"] == 66

    def test_no_integral_array_above_the_map_limit(self, tmp_path, monkeypatch):
        # NORB=60 integrals take 104 MB, made zeroed and so never paged in;
        # tracemalloc counts numpy's arrays as soon as they are made.
        import tracemalloc
        monkeypatch.chdir(tmp_path)
        (tmp_path / "wide.fcidump").write_text("&FCI NORB=60,NELEC=2,MS2=0,\n&END\n")
        for command in ("map", "trotter-error"):
            tracemalloc.start()
            try:
                r = CliRunner().invoke(main, [command, "wide.fcidump"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            message = "120 modes exceeds the 64-mode map limit"
            if command == "map":
                assert r.output == f"Error: wide.fcidump: {message}\n"
            else:
                assert_pairs_failed(r, "wide.fcidump", 120, f"ResourceLimitError: {message}")
            assert peak < 60 ** 4  # an eighth of the two-electron array

    @pytest.mark.parametrize("command", ["map", "trotter-error"])
    def test_memory_error_is_one_line(self, command, monkeypatch):
        def synthetic_integrals(*spec):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")

        monkeypatch.setattr(fermion, "synthetic_integrals", synthetic_integrals)
        r = CliRunner().invoke(main, [command, SPEC, "--mapping", "jw"])
        message = "Unable to allocate 8.00 GiB for an array"
        if command == "map":
            assert r.exit_code == 1
            assert isinstance(r.exception, SystemExit)
            assert r.output == f"Error: {SPEC}: {message}\n"
        else:
            assert_pairs_failed(r, SPEC, 4, f"MemoryError: {message}", ["jw"])

    @pytest.mark.parametrize("command,pairs", [("map", 1), ("bench", 2), ("trotter-error", 2)])
    def test_operator_comes_from_pair_stages(self, command, pairs, monkeypatch):
        # Each map_operator call runs inside a pair_stages chain, and map
        # closes its chain before it writes the terms.
        real_stages, real_map, real_format = (bench.pair_stages, mappings.map_operator,
                                              pauli.format_terms)
        chains, inside, closed = [], [], []

        def pair_stages(*args):
            chains.append(real_stages(*args))
            return chains[-1]

        def map_operator(*args):
            inside.append(any(chain.gi_running for chain in chains))
            return real_map(*args)

        def format_terms(op):
            closed.append(all(chain.gi_frame is None for chain in chains))
            return real_format(op)

        monkeypatch.setattr(bench, "pair_stages", pair_stages)
        monkeypatch.setattr(mappings, "map_operator", map_operator)
        monkeypatch.setattr(pauli, "format_terms", format_terms)
        assert self.run(command, SPEC).exit_code == 0
        assert len(chains) == pairs and inside == [True] * pairs
        assert closed == ([True] if command == "map" else [])

    @pytest.mark.parametrize("command,names,extra,pairs,plans", [
        ("trotter-error", ["lih_sto3g", "h2_631g"], ["--steps", "1,20"], 4, 16),
        ("bench", ["lih_sto3g"], ["--error"], 2, 4)])
    def test_evolution_tables_built_once_per_pair(self, command, names, extra, pairs, plans,
                                                  monkeypatch):
        # The sector ground state takes one X-mask span per pair; any other
        # span is an evolution table build, and each serves all the pair's plans.
        real_span, real_error = simulator._x_span, simulator.trotter_error
        builds, errors = [], []

        def _x_span(xs):
            builds.append(sys._getframe(1).f_code.co_name != "sector_ground_state")
            return real_span(xs)

        def trotter_error(*args):
            errors.append(args[0])
            return real_error(*args)

        monkeypatch.setattr(simulator, "_x_span", _x_span)
        monkeypatch.setattr(simulator, "trotter_error", trotter_error)
        inputs = [str(fixture_path(name)) for name in names]
        assert self.run(command, *inputs, "--orderings", "magnitude,lex", *extra).exit_code == 0
        assert len(errors) == plans
        assert builds.count(False) == pairs and builds.count(True) == pairs

    @pytest.mark.parametrize("command", ["map", "compile", "optimize", "bench", "trotter-error"])
    def test_unwritable_output_is_one_line(self, command, tmp_path):
        terms, circ = tmp_path / "h2.terms", tmp_path / "h2.circ"
        h2 = str(fixture_path("h2_sto3g"))
        assert self.run("map", h2, "-o", str(terms)).exit_code == 0
        assert self.run("compile", str(terms), "-o", str(circ)).exit_code == 0
        source = {"map": h2, "compile": terms, "optimize": circ}.get(command, h2)
        out = tmp_path / "missing" / "out"
        r = CliRunner().invoke(main, [command, str(source), "-o", str(out)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert r.stderr.splitlines()[-1] == (
            f"Error: {out}: [Errno 2] No such file or directory: '{out}'")
        assert not out.parent.exists()

    def test_map_accepts_synthetic_spec(self, tmp_path):
        fcidump = tmp_path / "s.fcidump"
        fcidump.write_text(write_fcidump(fermion.synthetic_integrals(
            *BenchInput.parse("synthetic:n=2,seed=1").synthetic)))
        r = self.run("map", "synthetic:n=2,seed=1")
        assert r.exit_code == 0
        assert r.output == self.run("map", str(fcidump)).output

    def test_bench_error_above_matrix_limit_fails_cells(self, monkeypatch):
        monkeypatch.setattr(simulator, "OPERATOR_QUBIT_LIMIT", 2)
        r = CliRunner().invoke(main, ["bench", "synthetic:n=2,seed=1", "--error",
                                      "--format", "json"])
        assert r.exit_code == 2
        payload = json.loads(r.stdout)
        assert len(payload) == 2
        for row in payload:
            assert row["error"] == "ResourceLimitError: 4 qubits exceeds the 2-qubit matrix limit"
            assert row["raw"]["total"] > 0 and row["opt"]["total"] > 0
            assert row["trotter_error"] is None
