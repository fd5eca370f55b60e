"""Pipeline sweeps over (input x mapping x ordering x mode) and report I/O."""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from . import fermion, mappings, optimizer, simulator, trotter
from .circuits import GateCounts, count_gates, synthesize_plan
from .fermion import IntegralSet
from .mappings import MappingScheme
from .pauli import QubitOperator
from .trotter import OrderingStrategy

CSV_HEADER = ("system,n_qubits,mapping,ordering,seed,mode,"
              "raw_total,raw_entangling,raw_single,raw_nonclifford,"
              "opt_total,opt_entangling,opt_single,opt_nonclifford,"
              "savings,trotter_error")

OPTIMIZE_LEVELS = ("none", "cancel", "full")
_SYNTHETIC_KEYS = {"n": int, "seed": int, "density": float}


@dataclass(frozen=True)
class BenchInput:
    """Either an integral file path or a synthetic spec."""

    system: str
    path: str | None = None
    synthetic: tuple[int, int, float] | None = None  # (n_spatial, seed, density)

    @classmethod
    def parse(cls, spec: str) -> "BenchInput":
        """``path/to/file.fcidump`` or ``synthetic:n=8,seed=1,density=1.0``."""
        if spec.startswith("synthetic:"):
            kv = {"seed": 0, "density": 1.0}
            for part in spec[len("synthetic:"):].split(","):
                key, _, value = part.partition("=")
                if key not in _SYNTHETIC_KEYS:
                    raise click.BadParameter(f"{spec!r}: unknown key {key!r}; "
                                             f"expected {', '.join(_SYNTHETIC_KEYS)}")
                try:
                    kv[key] = _SYNTHETIC_KEYS[key](value)
                except ValueError:
                    raise click.BadParameter(f"{spec!r}: {key} must be "
                                             f"{_SYNTHETIC_KEYS[key].__name__}, "
                                             f"got {value!r}") from None
            if "n" not in kv:
                raise click.BadParameter(f"{spec!r}: missing key 'n'")
            n, seed, density = kv["n"], kv["seed"], kv["density"]
            return cls(f"synthetic-n{n}-s{seed}-d{density:g}", synthetic=(n, seed, density))
        return cls(Path(spec).stem, path=spec)

    def load(self) -> IntegralSet:
        if self.synthetic is not None:
            n, seed, density = self.synthetic
            return fermion.synthetic_integrals(n, seed, density)
        return fermion.parse_fcidump(Path(self.path).read_text())


@dataclass
class BenchConfig:
    inputs: list[BenchInput]
    mappings: list[MappingScheme] = field(default_factory=lambda: list(MappingScheme))
    orderings: list[OrderingStrategy] = field(
        default_factory=lambda: [OrderingStrategy("magnitude")])
    modes: list[str] = field(default_factory=lambda: ["canonical"])
    optimize_level: str = "full"
    n_steps: int = 1
    time: float = 1.0
    with_error: bool = False
    workers: int = 1

    def __post_init__(self):
        if not (self.inputs and self.mappings and self.orderings and self.modes):
            raise ValueError("need at least one input, mapping, ordering and mode")
        if self.optimize_level not in OPTIMIZE_LEVELS:
            raise ValueError(f"optimize level must be one of {OPTIMIZE_LEVELS}")


@dataclass
class BenchRow:
    system: str
    n_qubits: int
    mapping: str
    ordering: str
    seed: int | None
    mode: str
    raw: GateCounts | None = None
    optimized: GateCounts | None = None
    savings: float | None = None
    trotter_error: float | None = None
    error: str | None = None


def exact_ground(qop: QubitOperator) -> tuple[float, np.ndarray]:
    """Ground energy and state; the operator matrix is dropped once solved."""
    return simulator.ground_state(simulator.operator_matrix(qop))


@contextlib.contextmanager
def _isolated(rows: list[BenchRow]):
    """Record a stage failure in each row that has none yet; sweeps never abort."""
    try:
        yield
    except Exception as exc:
        for row in rows:
            row.error = row.error or f"{type(exc).__name__}: {exc}"


def _plan_and_count(cfg: BenchConfig, qop: QubitOperator, ordering: OrderingStrategy,
                    time: float, rows: list[BenchRow]) -> trotter.TrotterPlan | None:
    """Stage (ordering): one plan, then per row (mode) its synthesis and counts."""
    with _isolated(rows):
        plan = trotter.plan_for(qop, ordering, cfg.n_steps, time)
        for row in rows:
            with _isolated([row]):
                circ = synthesize_plan(plan, row.mode)
                row.raw = count_gates(circ)
                if cfg.optimize_level == "cancel":
                    circ = optimizer.cancel_adjacent(circ)
                elif cfg.optimize_level == "full":
                    circ = optimizer.optimize(circ)
                row.optimized = count_gates(circ)
                row.savings = ((row.raw.total - row.optimized.total) / row.raw.total
                               if row.raw.total else 0.0)
        return plan


def _sweep_pair(cfg: BenchConfig, inp: BenchInput, scheme: MappingScheme) -> list[BenchRow]:
    """Every cell of one (input, mapping) pair, each stage run once per key:
    (input, mapping) → ordering → mode, then the ground state and one Trotter
    error per ordering.  A ground-state failure leaves the counts in place."""
    by_ordering = [[BenchRow(inp.system, 0, scheme.value, o.kind, o.seed, mode)
                    for mode in cfg.modes] for o in cfg.orderings]
    rows = [row for group in by_ordering for row in group]
    with _isolated(rows):
        ham = fermion.build_hamiltonian(inp.load())
        for row in rows:
            row.n_qubits = ham.n_modes
        qop = mappings.map_operator(ham, scheme)
        time = simulator.safe_evolution_time(qop, cfg.time)
        plans = [_plan_and_count(cfg, qop, o, time, group)
                 for o, group in zip(cfg.orderings, by_ordering)]
        if cfg.with_error and qop.n <= simulator.OPERATOR_QUBIT_LIMIT:
            energy, ground = exact_ground(qop)
            for o, group, plan in zip(cfg.orderings, by_ordering, plans):
                if plan is None:  # its rows already hold the plan's failure
                    continue
                with _isolated(group):
                    error = simulator.trotter_error(plan, energy, ground, ordering=str(o),
                                                    mapping=scheme.value).error
                    for row in group:
                        if row.error is None:
                            row.trotter_error = error
    return rows


def run_bench(cfg: BenchConfig) -> list[BenchRow]:
    """Cartesian sweep; rows sorted by (system, mapping, ordering, mode)."""
    args = zip(*itertools.product([cfg], cfg.inputs, cfg.mappings))  # cfgs, inputs, schemes
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            groups = list(pool.map(_sweep_pair, *args))
    else:
        groups = list(map(_sweep_pair, *args))
    rows = [row for group in groups for row in group]
    rows.sort(key=lambda r: (r.system, r.mapping, r.ordering, str(r.seed), r.mode))
    return rows


def _row_fields(row: BenchRow) -> list[str]:
    def num(v):
        return "" if v is None else repr(v)

    fields = [row.system, str(row.n_qubits), row.mapping, row.ordering,
              "" if row.seed is None else str(row.seed), row.mode]
    for counts in (row.raw, row.optimized):
        if counts is None:
            fields += ["", "", "", ""]
        else:
            fields += [str(counts.total), str(counts.entangling),
                       str(counts.single_qubit), str(counts.non_clifford)]
    fields.append(num(row.savings))
    fields.append(num(row.trotter_error))
    return fields


def emit_report(rows: list[BenchRow], fmt: str = "csv") -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for row in rows:
            writer.writerow(_row_fields(row))
        return buf.getvalue()
    if fmt == "json":
        payload = []
        for row in rows:
            d = {
                "system": row.system, "n_qubits": row.n_qubits,
                "mapping": row.mapping, "ordering": row.ordering,
                "seed": row.seed, "mode": row.mode,
                "savings": row.savings, "trotter_error": row.trotter_error,
            }
            for label, counts in (("raw", row.raw), ("opt", row.optimized)):
                d[label] = None if counts is None else {
                    "total": counts.total, "entangling": counts.entangling,
                    "single": counts.single_qubit, "nonclifford": counts.non_clifford,
                }
            if row.error is not None:
                d["error"] = row.error
            payload.append(d)
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
