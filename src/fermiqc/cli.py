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


def _mapping_option(multiple: bool):
    """``--mapping``: one scheme, or a repeatable flag defaulting to all of them."""
    names = [scheme.value for scheme in MappingScheme]
    return click.option("--mapping", type=click.Choice(names), multiple=multiple,
                        default=names if multiple else "jw", show_default=True,
                        callback=_unique if multiple else None)


def _orderings(ctx, param, value: str) -> list[OrderingStrategy]:
    """Ordering names as the reports print them: ``--orderings`` takes a
    comma-separated list, each ordering kept once; ``--ordering`` takes one."""
    names = value.split(",") if param.name == "orderings" else [value]
    try:
        return list(dict.fromkeys(map(OrderingStrategy.parse, names)))
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None


_ORDERING_NAMES = "magnitude[-asc] | lex | lexomag[-asc] | random:<seed>"
_orderings_option = click.option("--orderings", default="magnitude", show_default=True,
                                 callback=_orderings,
                                 help=f"Comma-separated list of {_ORDERING_NAMES}.")


def _finite(ctx, param, value: float) -> float:
    if not math.isfinite(value):  # FloatRange lets nan and inf through
        raise click.BadParameter(f"{value} is not finite")
    return value


_time_option = click.option("--time", "time_", type=click.FloatRange(0, min_open=True),
                            default=1.0, show_default=True, callback=_finite)
_optimize_option = click.option("--optimize", "level", type=click.Choice(optimizer.LEVELS),
                                default="full", show_default=True)
_output_option = click.option("-o", "--output", default=None, help="Output file (default stdout).")


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
def map_cmd(integrals, mapping, output):
    """Map an FCIDUMP file or synthetic spec to a Pauli term file."""
    [inp] = _parse_inputs([integrals])
    with _one_line_errors(integrals):
        stages = bench_mod.pair_stages(inp, MappingScheme(mapping))
        _, qop = next(stages), next(stages)
        stages.close()  # frees the file text and integrals before the terms are written
    _write([pauli.format_terms(qop)], output)


@main.command("compile")
@click.argument("terms")
@click.option("--ordering", "strategies", default="magnitude", show_default=True,
              callback=_orderings, help=_ORDERING_NAMES)
@click.option("--steps", type=click.IntRange(min=1), default=1, show_default=True)
@_time_option
@click.option("--mode", type=click.Choice(SYNTHESIS_MODES), default="canonical",
              show_default=True)
@click.option("--qubits", type=click.IntRange(min=1), help="Register size override.")
@_output_option
def compile_cmd(terms, strategies, steps, time_, mode, qubits, output):
    """Compile a Pauli term file into a Trotter-step circuit file."""
    [strategy] = strategies
    with _one_line_errors(terms):
        qop = pauli.parse_terms(Path(terms).read_text(), n_qubits=qubits)
        plan = trotter.plan_for(qop, strategy, steps, time_)
    _write(format_circuit(synthesize_plan(plan, mode)), output)


@main.command("optimize")
@click.argument("circuit")
@_optimize_option
@click.option("--cross-step", is_flag=True, help="Cancel across Trotter-step seams.")
@click.option("--window", type=click.IntRange(min=0), default=None,
              help="Bound on the forward commutation scan.")
@_output_option
def optimize_cmd(circuit, level, cross_step, window, output):
    """Run peephole optimization on a circuit file."""
    with _one_line_errors(circuit), open(circuit) as lines:
        circ = parse_circuit(lines)
    report = optimizer.OptimizationReport()
    out = optimizer.run_level(circ, level, cross_step, window, report)
    if level == "full":
        click.echo(f"removed {report.removed} gates in {len(report.passes)} passes", err=True)
    _write(format_circuit(out), output)


@main.command("bench")
@click.argument("inputs", nargs=-1, required=True)
@_mapping_option(multiple=True)
@_orderings_option
@click.option("--mode", "modes", type=click.Choice(SYNTHESIS_MODES), multiple=True,
              default=("canonical",), show_default=True, callback=_unique)
@_optimize_option
@click.option("--steps", type=click.IntRange(min=1), default=1, show_default=True)
@_time_option
@click.option("--error/--no-error", "with_error", default=False,
              help="Also measure Trotter error; a register above "
                   f"{simulator.OPERATOR_QUBIT_LIMIT} qubits fails its cells.")
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@_output_option
def bench_cmd(inputs, mapping, orderings, modes, level, steps, time_, with_error, workers,
              fmt, output):
    """Sweep (input x mapping x ordering x mode) and emit a report.

    INPUTS are FCIDUMP paths or synthetic specs like
    ``synthetic:n=8,seed=1,density=1.0``.
    """
    cfg = bench_mod.BenchConfig(
        inputs=_parse_inputs(inputs),
        mappings=[MappingScheme(m) for m in mapping],
        orderings=orderings,
        modes=modes,
        optimize_level=level,
        n_steps=steps,
        time=time_,
        with_error=with_error,
        workers=workers,
    )
    rows = bench_mod.run_bench(cfg)
    _write_report(bench_mod.emit_report(rows, fmt), output,
                  [f"cell failed: {r['system']}/{r['mapping']}/{r['ordering']}/{r['mode']}: "
                   f"{r['error']}" for r in rows if "error" in r])


@main.command("trotter-error")
@click.argument("inputs", nargs=-1, required=True)
@_mapping_option(multiple=True)
@_orderings_option
@click.option("--steps", "steps_list", default="1", show_default=True, callback=_steps_list,
              help="Comma-separated Trotter step counts.")
@_time_option
@_output_option
def trotter_error_cmd(inputs, mapping, orderings, steps_list, time_, output):
    """Measure Trotter error against exact ground energies (JSON report).
    A failed pair writes one ``error`` object in place of its reports; exit 2."""
    reports, failures = [], []
    for inp in _parse_inputs(inputs):
        for scheme in map(MappingScheme, mapping):
            head = {"system": inp.system, "n_qubits": None, "mapping": scheme.value}
            stages = bench_mod.pair_stages(inp, scheme, orderings, steps_list, time_)
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
