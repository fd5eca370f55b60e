"""Command-line front end: map, compile, optimize, bench, trotter-error."""

from __future__ import annotations

import contextlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import click

from . import bench as bench_mod
from . import fermion, mappings, optimizer, pauli, simulator, trotter
from .circuits import SYNTHESIS_MODES, format_circuit, parse_circuit, synthesize_plan
from .mappings import MappingScheme
from .trotter import OrderingStrategy


@click.group()
def main():
    """Fermionic-Hamiltonian-to-qubit-circuit compiler and benchmark suite."""


def _write(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


@contextlib.contextmanager
def _one_line_errors(source: str):
    """Report a bad input as one ``Error: <source>: <message>`` line, exit 1."""
    try:
        yield
    except (OSError, ValueError, fermion.ResourceLimitError) as exc:
        raise click.ClickException(f"{source}: {exc}") from None


@main.command("map")
@click.argument("integrals", type=click.Path(exists=True))
@click.option("--mapping", type=click.Choice(["jw", "bk"]), default="jw", show_default=True)
@click.option("-o", "--output", default=None, help="Pauli term file (default stdout).")
def map_cmd(integrals, mapping, output):
    """Map an FCIDUMP integral file to a Pauli term file."""
    with _one_line_errors(integrals):
        ham = fermion.build_hamiltonian(bench_mod.BenchInput.parse(integrals).load())
        qop = mappings.map_operator(ham, MappingScheme(mapping))
    _write(pauli.format_terms(qop), output)


def _ordering_option(fn):
    fn = click.option("--ordering", default="magnitude", show_default=True,
                      help="magnitude | lex | lexomag | random:<seed>")(fn)
    fn = click.option("--magnitude-direction", type=click.Choice(["desc", "asc"]),
                      default="desc", show_default=True,
                      help="Direction of the magnitude ordering.")(fn)
    return fn


def _parse_orderings(ordering: str, orderings: str | None,
                     magnitude_direction: str) -> list[OrderingStrategy]:
    """``--orderings`` (comma-separated) if given, else ``--ordering``."""
    option = "--orderings" if orderings else "--ordering"
    names = orderings.split(",") if orderings else [ordering]
    try:
        return [OrderingStrategy.parse(n, descending_magnitude=magnitude_direction == "desc")
                for n in names]
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=f"'{option}'") from None


def _steps_list(ctx, param, value: str) -> list[int]:
    """Comma-separated Trotter step counts, each at least 1."""
    try:
        steps = [int(s) for s in value.split(",")]
    except ValueError:
        raise click.BadParameter(f"{value!r} is not a comma-separated list of integers") from None
    if min(steps) < 1:
        raise click.BadParameter(f"{value!r}: every step count must be >= 1")
    return steps


@main.command("compile")
@click.argument("terms", type=click.Path(exists=True))
@_ordering_option
@click.option("--steps", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--time", "time_", type=float, default=1.0, show_default=True)
@click.option("--mode", type=click.Choice(SYNTHESIS_MODES), default="canonical",
              show_default=True)
@click.option("--qubits", type=int, default=None, help="Register size override.")
@click.option("-o", "--output", default=None)
def compile_cmd(terms, ordering, magnitude_direction, steps, time_, mode, qubits, output):
    """Compile a Pauli term file into a Trotter-step circuit file."""
    [strategy] = _parse_orderings(ordering, None, magnitude_direction)
    with _one_line_errors(terms):
        qop = pauli.parse_terms(Path(terms).read_text(), n_qubits=qubits)
        plan = trotter.plan_for(qop, strategy, steps, time_)
    _write(format_circuit(synthesize_plan(plan, mode)), output)


@main.command("optimize")
@click.argument("circuit", type=click.Path(exists=True))
@click.option("--optimize", "level", type=click.Choice(bench_mod.OPTIMIZE_LEVELS),
              default="full", show_default=True)
@click.option("--cross-step", is_flag=True, help="Cancel across Trotter-step seams.")
@click.option("--window", type=click.IntRange(min=0), default=None,
              help="Bound on the forward commutation scan.")
@click.option("-o", "--output", default=None)
def optimize_cmd(circuit, level, cross_step, window, output):
    """Run peephole optimization on a circuit file."""
    with _one_line_errors(circuit):
        circ = parse_circuit(Path(circuit).read_text())
    if level == "cancel":
        out = optimizer.cancel_adjacent(circ, cross_step)
    elif level == "full":
        report = optimizer.OptimizationReport()
        out = optimizer.optimize(circ, cross_step, window, report)
        click.echo(f"removed {report.removed} gates in {len(report.passes)} passes",
                   err=True)
    else:
        out = circ
    _write(format_circuit(out), output)


@main.command("bench")
@click.argument("inputs", nargs=-1, required=True)
@click.option("--mapping", "mapping_names", type=click.Choice(["jw", "bk"]), multiple=True,
              default=("jw", "bk"), show_default=True)
@_ordering_option
@click.option("--orderings", default=None,
              help="Comma-separated list overriding --ordering.")
@click.option("--mode", "modes", type=click.Choice(SYNTHESIS_MODES), multiple=True,
              default=("canonical",), show_default=True)
@click.option("--optimize", "level", type=click.Choice(bench_mod.OPTIMIZE_LEVELS),
              default="full", show_default=True)
@click.option("--steps", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--time", "time_", type=click.FloatRange(0, min_open=True), default=1.0,
              show_default=True)
@click.option("--error/--no-error", "with_error", default=False,
              help="Also measure Trotter error (small systems only).")
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("-o", "--output", default=None)
def bench_cmd(inputs, mapping_names, ordering, magnitude_direction, orderings, modes,
              level, steps, time_, with_error, workers, fmt, output):
    """Sweep (input x mapping x ordering x mode) and emit a report.

    INPUTS are FCIDUMP paths or synthetic specs like
    ``synthetic:n=8,seed=1,density=1.0``.
    """
    cfg = bench_mod.BenchConfig(
        inputs=[bench_mod.BenchInput.parse(s) for s in inputs],
        mappings=[MappingScheme(m) for m in mapping_names],
        orderings=_parse_orderings(ordering, orderings, magnitude_direction),
        modes=list(modes),
        optimize_level=level,
        n_steps=steps,
        time=time_,
        with_error=with_error,
        workers=workers,
    )
    rows = bench_mod.run_bench(cfg)
    _write(bench_mod.emit_report(rows, fmt), output)
    for row in rows:
        if row.error is not None:
            click.echo(f"cell failed: {row.system}/{row.mapping}/{row.ordering}/"
                       f"{row.mode}: {row.error}", err=True)
    if any(row.error is not None for row in rows):
        sys.exit(2)


@main.command("trotter-error")
@click.argument("inputs", nargs=-1, required=True)
@click.option("--mapping", "mapping_names", type=click.Choice(["jw", "bk"]), multiple=True,
              default=("jw", "bk"), show_default=True)
@_ordering_option
@click.option("--orderings", default=None,
              help="Comma-separated list overriding --ordering.")
@click.option("--steps", "steps_list", default="1", show_default=True, callback=_steps_list,
              help="Comma-separated Trotter step counts.")
@click.option("--time", "time_", type=click.FloatRange(0, min_open=True), default=1.0,
              show_default=True)
@click.option("-o", "--output", default=None)
def trotter_error_cmd(inputs, mapping_names, ordering, magnitude_direction, orderings,
                      steps_list, time_, output):
    """Measure Trotter error against exact ground energies (JSON report)."""
    strategies = _parse_orderings(ordering, orderings, magnitude_direction)
    reports = []
    for spec in inputs:
        inp = bench_mod.BenchInput.parse(spec)
        with _one_line_errors(spec):
            ham = fermion.build_hamiltonian(inp.load())
            for scheme in map(MappingScheme, mapping_names):
                qop = mappings.map_operator(ham, scheme)
                energy, ground = bench_mod.exact_ground(qop)
                time_used = simulator.safe_evolution_time(qop, time_)
                for strategy in strategies:
                    for n_steps in steps_list:
                        plan = trotter.plan_for(qop, strategy, n_steps, time_used)
                        rep = simulator.trotter_error(
                            plan, energy, ground,
                            ordering=str(strategy), mapping=scheme.value)
                        reports.append({"system": inp.system, "n_qubits": qop.n,
                                        **asdict(rep)})
    _write(json.dumps(reports, indent=2) + "\n", output)


if __name__ == "__main__":
    main()
