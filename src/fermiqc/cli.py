"""Command-line front end: map, compile, optimize, bench, trotter-error."""

from __future__ import annotations

import contextlib
import json
import math
import sys
from collections.abc import Iterable
from dataclasses import asdict
from pathlib import Path

import click

from . import bench as bench_mod
from . import fermion, optimizer, pauli, simulator, trotter
from .circuits import SYNTHESIS_MODES, format_circuit, parse_circuit, synthesize_plan
from .mappings import MappingScheme
from .trotter import OrderingStrategy


@click.group()
def main():
    """Fermionic-Hamiltonian-to-qubit-circuit compiler and benchmark suite."""


@contextlib.contextmanager
def _one_line_errors(source: str):
    """Report a bad input, or an output that cannot be written, as one
    ``Error: <source>: <message>`` line, exit 1."""
    try:
        yield
    except (OSError, ValueError, MemoryError, fermion.ResourceLimitError) as exc:
        raise click.ClickException(f"{source}: {exc}") from None


def _write(chunks: Iterable[str], output: str | None) -> None:
    """Write text slices as they come, to ``output`` or stdout."""
    if output is None or output == "-":
        sys.stdout.writelines(chunks)
    else:
        with _one_line_errors(output), open(output, "w") as f:
            f.writelines(chunks)


def _unique(ctx, param, values):
    """A repeatable option's values, each once, in first-occurrence order."""
    return list(dict.fromkeys(values))


def _schemes(ctx, param, value):
    """``--mapping``'s scheme, or a repeated flag's schemes, each once."""
    return MappingScheme(value) if isinstance(value, str) else _unique(
        ctx, param, map(MappingScheme, value))


def _mapping_option(multiple: bool):
    """``--mapping``: one scheme, or a repeatable flag defaulting to all of them."""
    names = [scheme.value for scheme in MappingScheme]
    return click.option("--mapping", "mappings" if multiple else "scheme",
                        type=click.Choice(names), multiple=multiple,
                        default=names if multiple else "jw", show_default=True, callback=_schemes)


def _orderings(ctx, param, value: str):
    """Ordering names as the reports print them: ``--orderings`` takes a
    comma-separated list, each ordering kept once; ``--ordering`` takes one."""
    try:
        if param.name == "strategy":
            return OrderingStrategy.parse(value)
        return _unique(ctx, param, map(OrderingStrategy.parse, value.split(",")))
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None


def _ordering_option(multiple: bool):
    """``--orderings``, a comma-separated list, or ``--ordering``, one name."""
    names = " | ".join("random:<seed>" if k == "random" else k for k in OrderingStrategy.KINDS)
    return click.option("--orderings" if multiple else "--ordering",
                        "orderings" if multiple else "strategy", default="magnitude",
                        show_default=True, callback=_orderings,
                        help=f"Comma-separated list of {names}." if multiple else names)


def _finite(ctx, param, value: float) -> float:
    if not math.isfinite(value):  # FloatRange lets nan and inf through
        raise click.BadParameter(f"{value} is not finite")
    return value


_time_option = click.option("--time", type=click.FloatRange(0, min_open=True),
                            default=1.0, show_default=True, callback=_finite)
_optimize_option = click.option("--optimize", "optimize_level", type=click.Choice(optimizer.LEVELS),
                                default="full", show_default=True)
_output_option = click.option("-o", "--output", default=None, help="Output file (default stdout).")
_steps_option = click.option("--steps", "n_steps", type=click.IntRange(min=1), default=1,
                             show_default=True)


def _steps_list(ctx, param, value: str) -> list[int]:
    """Comma-separated Trotter step counts, each at least 1, each kept once."""
    try:
        steps = [int(s) for s in value.split(",")]
    except ValueError:
        raise click.BadParameter(f"{value!r} is not a comma-separated list of integers") from None
    if min(steps) < 1:
        raise click.BadParameter(f"{value!r}: every step count must be >= 1")
    return list(dict.fromkeys(steps))


def _parse_inputs(specs) -> list[bench_mod.BenchInput]:
    """Each distinct input once, in first-occurrence order.  Report rows are
    keyed by system name, so two distinct inputs that share one are a usage error."""
    by_system = {}
    for spec in specs:
        try:
            inp = bench_mod.BenchInput.parse(spec)
        except ValueError as exc:
            raise click.BadParameter(str(exc)) from None
        first, first_spec = by_system.setdefault(inp.system, (inp, spec))
        if inp != first:
            raise click.BadParameter(f"{first_spec!r} and {spec!r} are distinct inputs "
                                     f"that share the system name {inp.system!r}")
    return [inp for inp, _ in by_system.values()]


def _write_report(text: str, output: str | None, failures: list[str]) -> None:
    """Write a report, then the failure lines on stderr and exit 2 if any."""
    _write([text], output)
    if failures:
        click.echo("\n".join(failures), err=True)
        sys.exit(2)


@main.command("map")
@click.argument("integrals")
@_mapping_option(multiple=False)
@_output_option
def map_cmd(integrals, scheme, output):
    """Map an FCIDUMP file or synthetic spec to a Pauli term file."""
    [inp] = _parse_inputs([integrals])
    with _one_line_errors(integrals):
        stages = bench_mod.pair_stages(inp, scheme)
        _, qop = next(stages), next(stages)
        stages.close()  # frees the file text and integrals before the terms are written
    _write([pauli.format_terms(qop)], output)


@main.command("compile")
@click.argument("terms")
@_ordering_option(multiple=False)
@_steps_option
@_time_option
@click.option("--mode", type=click.Choice(SYNTHESIS_MODES), default="canonical",
              show_default=True)
@click.option("--qubits", "n_qubits", type=click.IntRange(min=1), help="Register size override.")
@_output_option
def compile_cmd(terms, strategy, n_steps, time, mode, n_qubits, output):
    """Compile a Pauli term file into a Trotter-step circuit file."""
    with _one_line_errors(terms):
        qop = pauli.parse_terms(Path(terms).read_text(), n_qubits=n_qubits)
        plan = trotter.plan_for(qop, strategy, n_steps, time)
    _write(format_circuit(synthesize_plan(plan, mode)), output)


@main.command("optimize")
@click.argument("circuit")
@_optimize_option
@click.option("--cross-step", is_flag=True,
              help="Cancel across Trotter-step seams (a circuit file reads back as one step).")
@click.option("--window", type=click.IntRange(min=0), default=None,
              help="Bound on the forward commutation scan.")
@_output_option
def optimize_cmd(circuit, optimize_level, cross_step, window, output):
    """Run peephole optimization on a circuit file."""
    with _one_line_errors(circuit), open(circuit) as lines:
        circ = parse_circuit(lines)
    report = optimizer.OptimizationReport()
    out = optimizer.run_level(circ, optimize_level, cross_step, window, report)
    if optimize_level == "full":
        click.echo(f"removed {report.removed} gates in {len(report.passes)} passes", err=True)
    _write(format_circuit(out), output)


@main.command("bench")
@click.argument("inputs", nargs=-1, required=True)
@_mapping_option(multiple=True)
@_ordering_option(multiple=True)
@click.option("--mode", "modes", type=click.Choice(SYNTHESIS_MODES), multiple=True,
              default=("canonical",), show_default=True, callback=_unique)
@_optimize_option
@_steps_option
@_time_option
@click.option("--error/--no-error", "with_error", default=False,
              help="Also measure Trotter error; a register above "
                   f"{simulator.OPERATOR_QUBIT_LIMIT} qubits fails its cells.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@_output_option
def bench_cmd(inputs, fmt, output, **config):
    """Sweep (input x mapping x ordering x mode) and emit a report.

    INPUTS are FCIDUMP paths or synthetic specs like
    ``synthetic:n=8,seed=1,density=1.0``.
    """
    rows = bench_mod.run_bench(bench_mod.BenchConfig(_parse_inputs(inputs), **config))
    _write_report(bench_mod.emit_report(rows, fmt), output,
                  [f"cell failed: {r['system']}/{r['mapping']}/{r['ordering']}/{r['mode']}: "
                   f"{r['error']}" for r in rows if "error" in r])


@main.command("trotter-error")
@click.argument("inputs", nargs=-1, required=True)
@_mapping_option(multiple=True)
@_ordering_option(multiple=True)
@click.option("--steps", "step_counts", default="1", show_default=True, callback=_steps_list,
              help="Comma-separated Trotter step counts.")
@_time_option
@_output_option
def trotter_error_cmd(inputs, mappings, orderings, step_counts, time, output):
    """Measure Trotter error against exact ground energies (JSON report).
    A failed pair writes one ``error`` object in place of its reports; exit 2."""
    reports, failures = [], []
    for inp in _parse_inputs(inputs):
        for scheme in mappings:
            head = {"system": inp.system, "n_qubits": None, "mapping": scheme.value}
            stages = bench_mod.pair_stages(inp, scheme, orderings, step_counts, time)
            try:
                head["n_qubits"] = next(stages)
                next(stages), next(stages)  # the qubit operator and the plans
                reports += [{**head, "ordering": str(strategy), **asdict(rep), **sector}
                            for (strategy, _), rep, sector in stages]
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                reports.append({**head, "error": error})
                failures.append(f"pair failed: {inp.system}/{scheme.value}: {error}")
    _write_report(json.dumps(reports, indent=2) + "\n", output, failures)


if __name__ == "__main__":
    main()
