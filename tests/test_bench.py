"""Benchmark sweeps, report round-trips and the command-line front end."""

import csv
import json
from collections import Counter

import click
import pytest
from click.testing import CliRunner

from fermiqc import mappings, simulator, trotter
from fermiqc.bench import CSV_HEADER, BenchConfig, BenchInput, emit_report, run_bench
from fermiqc.circuits import GateCounts
from fermiqc.cli import main
from fermiqc.fixtures import fixture_path
from fermiqc.mappings import MappingScheme
from fermiqc.trotter import OrderingStrategy


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
        assert inp.load().n_spatial == 4

    def test_parse_synthetic_defaults(self):
        assert BenchInput.parse("synthetic:n=3").synthetic == (3, 0, 1.0)

    def test_parse_path(self):
        path = fixture_path("h2_sto3g")
        inp = BenchInput.parse(str(path))
        assert inp.system == "h2_sto3g"
        assert inp.load().n_spatial == 2

    @pytest.mark.parametrize("spec,fragment", [
        ("synthetic:n=2,sed=1", "unknown key 'sed'"),
        ("synthetic:n=x", "n must be int, got 'x'"),
        ("synthetic:n=2,density=dense", "density must be float, got 'dense'"),
        ("synthetic:seed=1", "missing key 'n'"),
        ("synthetic:n", "n must be int, got ''"),
    ])
    def test_parse_synthetic_rejects_bad_spec(self, spec, fragment):
        with pytest.raises(click.BadParameter) as err:
            BenchInput.parse(spec)
        assert repr(spec) in err.value.message and fragment in err.value.message


class TestRunBench:
    def test_sweep_shape_and_counts(self):
        rows = run_bench(tiny_config())
        assert len(rows) == 2 * 2 * 2  # mappings x orderings x modes
        for row in rows:
            assert row.error is None
            assert row.n_qubits == 4
            assert row.raw.total >= row.optimized.total
            assert 0.0 <= row.savings < 1.0
            # every term keeps exactly one rotation through optimization
            assert row.optimized.non_clifford == row.raw.non_clifford

    def test_with_error_column(self):
        cfg = tiny_config(with_error=True, time=0.1,
                          orderings=[OrderingStrategy("magnitude")],
                          modes=["canonical"])
        rows = run_bench(cfg)
        assert all(row.trotter_error is not None for row in rows)
        assert all(row.trotter_error < 1e-2 for row in rows)

    def test_cell_isolation(self):
        cfg = tiny_config(inputs=[BenchInput.parse("/no/such/file.fcidump")])
        rows = run_bench(cfg)
        assert all(row.error is not None for row in rows)

    def test_each_stage_runs_once_per_key(self, monkeypatch):
        calls = Counter()

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(mappings, "map_operator")
        counted(simulator, "operator_matrix")
        counted(trotter, "plan_for")
        counted(simulator, "trotter_error")
        rows = run_bench(tiny_config(with_error=True, time=0.1))
        assert len(rows) == 8 and all(row.error is None for row in rows)
        # 2 (input, mapping) pairs x 2 orderings; the modes share each plan.
        assert calls == {"map_operator": 2, "operator_matrix": 2,
                         "plan_for": 4, "trotter_error": 4}

    def test_ground_state_failure_keeps_counts(self, monkeypatch):
        def fail(m):
            raise simulator.EigensolverError("no convergence")
        monkeypatch.setattr(simulator, "ground_state", fail)
        for row in run_bench(tiny_config(with_error=True, time=0.1)):
            assert row.error == "EigensolverError: no convergence"
            assert row.n_qubits == 4 and row.optimized is not None
            assert row.trotter_error is None

    def test_parallel_matches_serial(self):
        serial = emit_report(run_bench(tiny_config(workers=1)))
        parallel = emit_report(run_bench(tiny_config(workers=2)))
        assert serial == parallel

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(inputs=[])
        with pytest.raises(ValueError):
            tiny_config(optimize_level="max")


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
            assert (a.system, a.mapping, a.ordering, a.seed, a.mode) == \
                (b["system"], b["mapping"], b["ordering"],
                 None if b["seed"] == "" else int(b["seed"]), b["mode"])
            assert a.raw == counts(b, "raw") and a.optimized == counts(b, "opt")
            assert a.savings == pytest.approx(float(b["savings"]))

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

    def test_bench_csv_to_stdout(self):
        r = self.run("bench", "synthetic:n=2,seed=1", "--mode", "canonical",
                     "--ordering", "lex")
        assert r.exit_code == 0
        assert r.output.splitlines()[0] == CSV_HEADER

    def test_bench_exit_code_on_failure(self):
        r = CliRunner().invoke(main, ["bench", "/missing.fcidump"])
        assert r.exit_code == 2

    @pytest.mark.parametrize("option,value", [("--mode", "canonical,ancilla"),
                                              ("--mapping", "jw,bk")])
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
                     "--mapping", "jw", "--ordering", "magnitude",
                     "--steps", "1,10", "--time", "0.1")
        payload = json.loads(r.output)
        assert len(payload) == 2
        by_steps = {p["n_steps"]: p for p in payload}
        assert by_steps[10]["error"] < by_steps[1]["error"]
        assert abs(by_steps[1]["exact_energy"] - (-1.137270175)) < 1e-6

    def test_magnitude_direction_flag(self):
        base = ["bench", "synthetic:n=2,seed=1", "--mapping", "jw",
                "--mode", "canonical", "--ordering", "magnitude"]
        desc = self.run(*base, "--magnitude-direction", "desc")
        asc = self.run(*base, "--magnitude-direction", "asc")
        assert desc.exit_code == 0 and asc.exit_code == 0

    @pytest.mark.parametrize("args", [
        ["trotter-error", "synthetic:n=2,seed=1", "--time", "0"],
        ["bench", "synthetic:n=2,seed=1", "--error", "--time", "0"],
        ["bench", "synthetic:n=2,seed=1", "--time", "-1"],
    ])
    def test_time_must_be_positive(self, args):
        r = CliRunner().invoke(main, args)
        assert r.exit_code == 2
        assert "Invalid value for '--time'" in r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)

    def test_optimize_rejects_negative_window(self, tmp_path):
        circ = tmp_path / "c.txt"
        circ.write_text("QUBITS 1 ANCILLA 0\nH 0\nH 0\n")
        r = CliRunner().invoke(main, ["optimize", str(circ), "--window", "-3"])
        assert r.exit_code == 2
        assert "Invalid value for '--window'" in r.output

    @pytest.mark.parametrize("spec", ["synthetic:n=2,sed=1", "synthetic:n=x"])
    def test_bad_synthetic_spec_is_one_line(self, spec):
        r = CliRunner().invoke(main, ["bench", spec])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.output.splitlines()[-1].startswith(f"Error: Invalid value: {spec!r}: ")
        assert "Traceback" not in r.output

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

    @pytest.mark.parametrize("args,option", [
        (["compile", "TERMS", "--ordering", "foo"], "--ordering"),
        (["compile", "TERMS", "--ordering", "random:x"], "--ordering"),
        (["bench", "synthetic:n=2,seed=1", "--orderings", "lex,random:x"], "--orderings"),
        (["bench", "synthetic:n=2,seed=1", "--ordering", "foo"], "--ordering"),
        (["trotter-error", "synthetic:n=2,seed=1", "--orderings", "lex,foo"], "--orderings"),
        (["trotter-error", "synthetic:n=2,seed=1", "--ordering", "random:"], "--ordering"),
    ], ids=["compile", "compile-seed", "bench-seed", "bench", "trotter-error",
            "trotter-error-seed"])
    def test_bad_ordering_is_one_line(self, args, option, tmp_path):
        terms = tmp_path / "t.terms"
        terms.write_text("(1.0,0.0) X0\n")
        r = CliRunner().invoke(main, [str(terms) if a == "TERMS" else a for a in args])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.output.splitlines()[-1].startswith(f"Error: Invalid value for '{option}': ")
        assert "Traceback" not in r.output

    @pytest.mark.parametrize("command,spec,message", [
        ("trotter-error", "missing.fcidump",
         "[Errno 2] No such file or directory: 'missing.fcidump'"),
        ("trotter-error", "bad.fcidump", "line 3: expected 'value i j k l', got ' 0.5 1 1'"),
        ("trotter-error", "big.fcidump", "66 modes exceeds the 64-mode map limit"),
        ("trotter-error", "synthetic:n=9", "18 qubits exceeds the 16-qubit matrix limit"),
        ("map", "bad.fcidump", "line 3: expected 'value i j k l', got ' 0.5 1 1'"),
    ], ids=["missing-file", "malformed", "above-map-limit", "above-matrix-limit",
            "map-malformed"])
    def test_bad_input_is_one_line(self, command, spec, message, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.fcidump").write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\n 0.5 1 1\n")
        # 33 spatial orbitals are 66 spin-orbitals, beyond the 64-mode map limit.
        (tmp_path / "big.fcidump").write_text("&FCI NORB=33,NELEC=2,MS2=0,\n&END\n"
                                              " 0.5   1   1   0   0\n")
        r = CliRunner().invoke(main, [command, spec])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert r.output == f"Error: {spec}: {message}\n"

    def test_register_above_map_limit_is_one_line(self, tmp_path):
        # 33 spatial orbitals are 66 spin-orbitals, beyond the 64-mode map limit.
        fcidump = tmp_path / "big.fcidump"
        fcidump.write_text("&FCI NORB=33,NELEC=2,MS2=0,\n&END\n"
                           " 0.5   1   1   0   0\n 1.0   0   0   0   0\n")
        r = CliRunner().invoke(main, ["map", str(fcidump)])
        assert r.exit_code == 1
        assert isinstance(r.exception, SystemExit)
        assert r.output == f"Error: {fcidump}: 66 modes exceeds the 64-mode map limit\n"
        r = CliRunner().invoke(main, ["bench", str(fcidump), "--mapping", "bk"])
        assert r.exit_code == 2
        assert isinstance(r.exception, SystemExit)
        assert r.stderr == ("cell failed: big/bk/magnitude/canonical: ResourceLimitError: "
                            "66 modes exceeds the 64-mode map limit\n")
