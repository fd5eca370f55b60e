"""The four workloads: seeded inputs, the fermiqc commands a sweep runs, and
the output checks made after the timed sweeps.

One client runs every command in this process, one after the other, with
``--workers 1``: a researcher who waits for each sweep to finish.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import click
from fermiqc import cli
from fermiqc.fixtures import fixture_path

import oracle
from oracle import Counts

FIXTURES = ("h2_sto3g", "h2_631g", "lih_sto3g")
MODES = ("canonical", "basis_shift", "ancilla")
MAPPINGS = ("jw", "bk")


def run_cli(args: list[str]) -> tuple[int, str]:
    """One in-process ``fermiqc`` invocation; returns (exit code, its stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
        try:
            rv = cli.main(args, standalone_mode=False)
            code = rv if isinstance(rv, int) else 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
            err.write(exc.format_message())
        except Exception:  # the client keeps going; the failure is counted
            code = 1
            err.write(traceback.format_exc())
    return code, err.getvalue()


@dataclass
class Tally:
    """Outputs attempted, and the first reason each failed output failed."""

    attempted: int = 0
    failed: dict[str, str] = field(default_factory=dict)
    jitter: int = 0     # error reports equal only within ERROR_TOL
    compared: int = 0   # error reports compared across sweeps

    def fail(self, oid: str, reason: str) -> None:
        self.failed.setdefault(oid, reason)


@dataclass
class Command:
    """A CLI call writing one output file; a bench call lists its cells."""

    name: str
    args: list[str]
    output: str
    cells: list[tuple[str, ...]] = field(default_factory=list)
    with_error: bool = False

    def argv(self, outdir: Path) -> list[str]:
        """The arguments, with ``{out}`` naming this sweep's output directory."""
        return [a.replace("{out}", str(outdir)) for a in self.args] + [
            "-o", str(outdir / self.output)]

    def ids(self, k: int) -> list[str]:
        return [f"s{k}:{self.name}:{'/'.join(c)}" for c in self.cells] or [f"s{k}:{self.name}"]


def bench_command(name: str, inputs: dict[str, str], orderings: list[str],
                  extra: list[str], with_error: bool = False) -> Command:
    args = ["bench", *inputs.values()]
    for m in MAPPINGS:
        args += ["--mapping", m]
    args += ["--orderings", ",".join(orderings)]
    for mode in MODES:  # `--mode` takes one mode per flag, see README
        args += ["--mode", mode]
    args += [*extra, "--workers", "1"]
    keys = [(o.split(":")[0], o.split(":")[1] if ":" in o else "") for o in orderings]
    cells = [(s, m, o, seed, mode) for s, m, (o, seed), mode
             in itertools.product(inputs, MAPPINGS, keys, MODES)]
    return Command(name, args, f"{name}.csv", cells, with_error)


@dataclass
class Workload:
    name: str
    seed: int
    work: Path
    commands: list[Command]
    check: Callable[["Workload", Path, Tally], None]
    gates: Callable[["Workload", Path], Counts]
    inputs: dict[str, str] = field(default_factory=dict)
    _terms: dict = field(default_factory=dict)

    def term_file(self, system: str, mapping: str) -> Path:
        """The `map` output of an input, made once, outside any timed sweep."""
        out = self.work / f"check-{system}-{mapping}.terms"
        if not out.exists():
            code, err = run_cli(["map", self.inputs[system], "--mapping", mapping,
                                 "-o", str(out)])
            if code:
                raise RuntimeError(f"map {system} {mapping} failed: {err.strip()}")
        return out

    def terms(self, system: str, mapping: str) -> oracle.TermFile:
        key = (system, mapping)
        if key not in self._terms:
            self._terms[key] = oracle.parse_terms(self.term_file(system, mapping).read_text())
        return self._terms[key]


# ---- after every sweep: exit codes, cell failures, repeatability ------------

def record_sweep(cmd: Command, k: int, code: int, stderr: str, outdir: Path,
                 first: Path, tally: Tally) -> None:
    """Count sweep k's outputs of ``cmd`` and compare them with sweep 0's."""
    ids = cmd.ids(k)
    tally.attempted += len(ids)
    out = outdir / cmd.output
    why = f"exit {code}: {stderr.strip()[-300:]}"
    if not out.exists():
        for oid in ids:
            tally.fail(oid, why)
        return
    if cmd.cells:
        rows = oracle.read_bench_csv(out.read_text())
        for oid, cell in zip(ids, cmd.cells):
            if cell not in rows or oracle.row_counts(rows[cell], "opt") is None:
                tally.fail(oid, f"cell failed, {why}")
    elif code:
        tally.fail(ids[0], why)
    ref = first / cmd.output
    if not k or not ref.exists():
        return
    if not cmd.with_error:
        if out.read_bytes() != ref.read_bytes():
            for oid in ids:
                tally.fail(oid, "output differs byte-wise from the first sweep")
        return
    # Error reports jitter (README, known defects): equal within ERROR_TOL.
    got, want = _entries(cmd, out), _entries(cmd, ref)
    if len(got) != len(want):
        tally.fail(ids[0], "report length differs from the first sweep")
    for oid, a, b in zip(ids if cmd.cells else itertools.repeat(ids[0]), got, want):
        if a is None or b is None:
            continue
        tally.compared += 1
        if a != b:
            tally.jitter += 1
            if not oracle.same_within(a, b, int(a["n_qubits"])):
                tally.fail(oid, "report differs from the first sweep beyond ERROR_TOL")


def _entries(cmd: Command, path: Path) -> list[dict | None]:
    if cmd.cells:
        rows = oracle.read_bench_csv(path.read_text())
        return [rows.get(c) for c in cmd.cells]
    return json.loads(path.read_text())


# ---- shared output checks -------------------------------------------------

def _check_bench_rows(wl: Workload, cmd: Command, out: Path, tally: Tally) -> None:
    """Raw counts against the closed form from the `map` output's Pauli weights."""
    if not (out / cmd.output).exists():
        return
    rows = oracle.read_bench_csv((out / cmd.output).read_text())
    for oid, cell in zip(cmd.ids(0), cmd.cells):
        row = rows.get(cell)
        if row is None or oracle.row_counts(row, "opt") is None:
            continue  # already counted by record_sweep
        system, mapping, _, _, mode = cell
        terms = wl.terms(system, mapping)
        want = oracle.plan_counts(terms, mode)
        raw, opt = oracle.row_counts(row, "raw"), oracle.row_counts(row, "opt")
        if raw != want:
            tally.fail(oid, f"raw counts {raw} != closed form {want}")
        elif not opt.nonclifford == raw.nonclifford == len(terms.terms):
            tally.fail(oid, f"non-Clifford {opt.nonclifford}/{raw.nonclifford} "
                            f"!= {len(terms.terms)} terms")
        elif opt.total > raw.total:
            tally.fail(oid, "optimizer added gates")
        if cmd.with_error:
            err = float(row["trotter_error"] or "nan")
            if not (math.isfinite(err) and err >= 0):
                tally.fail(oid, f"trotter_error {row['trotter_error']!r}")


def _check_mapping_invariants(wl: Workload, systems, ids_of: Callable[[str], list[str]],
                              tally: Tally) -> None:
    for system in systems:
        for reason in oracle.encoding_errors(wl.terms(system, "jw"), wl.terms(system, "bk")):
            for oid in ids_of(system):
                tally.fail(oid, f"{system}: {reason}")


def _bench_gates(wl: Workload, out: Path) -> Counts:
    total = oracle.ZERO
    for cmd in wl.commands:
        if cmd.cells:
            for row in oracle.read_bench_csv((out / cmd.output).read_text()).values():
                total = total + (oracle.row_counts(row, "opt") or oracle.ZERO)
    return total


def _cells_of(cmd: Command, system: str) -> list[str]:
    return [oid for oid, c in zip(cmd.ids(0), cmd.cells) if c[0] == system]


def _fixtures(names) -> dict[str, str]:
    return {n: str(fixture_path(n)) for n in names}


# ---- fixture-sweep ----------------------------------------------------------

def fixture_sweep(seed: int, work: Path) -> Workload:
    inputs = _fixtures(FIXTURES)
    bench = bench_command("bench", inputs, ["magnitude", "lex", "lexomag", f"random:{seed}"],
                          ["--optimize", "full"])
    return Workload("fixture-sweep", seed, work, [bench], _check_fixture_sweep,
                    _bench_gates, inputs)


def _check_fixture_sweep(wl: Workload, out: Path, tally: Tally) -> None:
    bench = wl.commands[0]
    _check_bench_rows(wl, bench, out, tally)
    _check_mapping_invariants(wl, wl.inputs, lambda s: _cells_of(bench, s), tally)
    # H2/STO-3G is small enough (4 qubits + ancilla) for dense unitaries.
    rows = oracle.read_bench_csv((out / bench.output).read_text())
    for oid, cell in zip(bench.ids(0), bench.cells):
        system, mapping, ordering, oseed, mode = cell
        if system != "h2_sto3g" or cell not in rows:
            continue
        terms = wl.term_file(system, mapping)
        raw, opt = wl.work / "unitary.circ", wl.work / "unitary-opt.circ"
        spelled = f"{ordering}:{oseed}" if oseed else ordering
        code, err = run_cli(["compile", str(terms), "--ordering", spelled, "--mode", mode,
                             "-o", str(raw)])
        if not code:
            code, err = run_cli(["optimize", str(raw), "--optimize", "full", "-o", str(opt)])
        if code:
            tally.fail(oid, f"compile/optimize for the unitary check failed: {err.strip()}")
            continue
        c_raw = oracle.parse_circuit(raw.read_text())
        c_opt = oracle.parse_circuit(opt.read_text())
        if not oracle.equal_up_to_phase(oracle.circuit_unitary(c_opt),
                                        oracle.circuit_unitary(c_raw)):
            tally.fail(oid, "optimized circuit unitary differs from the raw one")
        elif (c_raw.counts(), c_opt.counts()) != (oracle.row_counts(rows[cell], "raw"),
                                                  oracle.row_counts(rows[cell], "opt")):
            tally.fail(oid, "compile/optimize counts differ from the bench row")


# ---- fixture-error ----------------------------------------------------------

def fixture_error(seed: int, work: Path) -> Workload:
    inputs = _fixtures(("lih_sto3g", "h2_631g"))
    bench = bench_command("bench-error", {"lih_sto3g": inputs["lih_sto3g"]},
                          ["magnitude", "lex"], ["--error"], with_error=True)
    time = round(random.Random(seed).uniform(0.05, 0.15), 4)
    trotter = Command("trotter-error", ["trotter-error", inputs["lih_sto3g"], inputs["h2_631g"],
                                        "--orderings", "magnitude,lex", "--steps", "1,20",
                                        "--time", repr(time)],
                      "trotter-error.json", with_error=True)
    return Workload("fixture-error", seed, work, [bench, trotter], _check_fixture_error,
                    _bench_gates, inputs)


def _check_fixture_error(wl: Workload, out: Path, tally: Tally) -> None:
    bench, trotter = wl.commands
    _check_bench_rows(wl, bench, out, tally)
    oid = trotter.ids(0)[0]
    _check_mapping_invariants(wl, wl.inputs, lambda s: _cells_of(bench, s) + [oid], tally)
    if not (out / trotter.output).exists():
        return
    requested = float(trotter.args[trotter.args.index("--time") + 1])
    entries = json.loads((out / trotter.output).read_text())
    want = set(itertools.product(wl.inputs, MAPPINGS, ("magnitude", "lex"), (1, 20)))
    got = {(e["system"], e["mapping"], e["ordering"], e["n_steps"]) for e in entries}
    if got != want or len(entries) != len(want):
        tally.fail(oid, f"report cells {sorted(got)} != {sorted(want)}")
    for e in entries:
        reference = oracle.fixture_energy(Path(wl.inputs[e["system"]]).read_text())
        if abs(e["exact_energy"] - reference) > 1e-6:
            tally.fail(oid, f"{e['system']}: exact_energy {e['exact_energy']} != FCI {reference}")
        if not (math.isfinite(e["error"]) and e["error"] >= 0 and not e["unreliable"]
                and 0 < e["time"] <= requested):
            tally.fail(oid, f"bad report entry {e}")


# ---- synthetic-map ----------------------------------------------------------

def synthetic_map(seed: int, work: Path) -> Workload:
    fcidump = work / "synthetic-n12.fcidump"
    fcidump.write_text(oracle.synthetic_fcidump(12, seed))
    commands = [Command(f"map-{m}", ["map", str(fcidump), "--mapping", m], f"{m}.terms")
                for m in MAPPINGS]
    return Workload("synthetic-map", seed, work, commands, _check_synthetic_map,
                    _map_gates)


def _check_synthetic_map(wl: Workload, out: Path, tally: Tally) -> None:
    ids = [c.ids(0)[0] for c in wl.commands]
    if any(oid in tally.failed for oid in ids):
        return
    jw, bk = (oracle.parse_terms((out / c.output).read_text()) for c in wl.commands)
    for reason in oracle.encoding_errors(jw, bk):
        for oid in ids:
            tally.fail(oid, reason)


def _map_gates(wl: Workload, out: Path) -> Counts:
    # No circuit is built here: the closed-form canonical count of the term
    # files stands in for the generated code's size.
    total = oracle.ZERO
    for c in wl.commands:
        total = total + oracle.plan_counts(oracle.parse_terms((out / c.output).read_text()),
                                           "canonical")
    return total


# ---- synthetic-compile ------------------------------------------------------

COMPILE_ORDERINGS = ("lex", "magnitude")


def synthetic_compile(seed: int, work: Path) -> Workload:
    fcidump = work / "synthetic-n8.fcidump"
    fcidump.write_text(oracle.synthetic_fcidump(8, seed))
    terms = work / "synthetic-n8.terms"
    code, err = run_cli(["map", str(fcidump), "--mapping", "jw", "-o", str(terms)])
    if code:
        raise RuntimeError(f"preparing the term file failed: {err.strip()}")
    commands = []
    for o in COMPILE_ORDERINGS:
        commands.append(Command(f"compile-{o}", ["compile", str(terms), "--ordering", o,
                                                 "--mode", "canonical"], f"{o}.circ"))
        commands.append(Command(f"optimize-{o}", ["optimize", f"{{out}}/{o}.circ",
                                                  "--optimize", "full"], f"{o}.opt.circ"))
    return Workload("synthetic-compile", seed, work, commands, _check_synthetic_compile,
                    _compile_gates, {"terms": str(terms)})


def _check_synthetic_compile(wl: Workload, out: Path, tally: Tally) -> None:
    terms = oracle.parse_terms(Path(wl.inputs["terms"]).read_text())
    want = oracle.plan_counts(terms, "canonical")
    for compile_cmd, opt_cmd in zip(wl.commands[::2], wl.commands[1::2]):
        oid_raw, oid_opt = compile_cmd.ids(0)[0], opt_cmd.ids(0)[0]
        if oid_raw in tally.failed or oid_opt in tally.failed:
            continue
        raw = oracle.parse_circuit((out / compile_cmd.output).read_text())
        opt = oracle.parse_circuit((out / opt_cmd.output).read_text())
        if raw.counts() != want:
            tally.fail(oid_raw, f"raw counts {raw.counts()} != closed form {want}")
        # The optimizer only deletes self-inverse Clifford pairs: every
        # rotation survives, in order, on the same register.
        rotations = [g for g in raw.gates if g[0] == "RZ"]
        if (opt.width != raw.width or opt.counts().total > raw.counts().total
                or [g for g in opt.gates if g[0] == "RZ"] != rotations
                or len(rotations) != len(terms.terms)):
            tally.fail(oid_opt, "optimized circuit lost or moved a rotation, or grew")


def _compile_gates(wl: Workload, out: Path) -> Counts:
    total = oracle.ZERO
    for c in wl.commands[1::2]:
        total = total + oracle.parse_circuit((out / c.output).read_text()).counts()
    return total


WORKLOADS = {
    "fixture-sweep": fixture_sweep,
    "fixture-error": fixture_error,
    "synthetic-map": synthetic_map,
    "synthetic-compile": synthetic_compile,
}
