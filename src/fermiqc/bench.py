"""Pipeline sweeps over (input x mapping x ordering x mode) and report I/O."""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import fermion, mappings, optimizer, simulator, trotter
from .circuits import SYNTHESIS_MODES, count_gates, synthesize_plan
from .mappings import MappingScheme
from .trotter import OrderingStrategy

CSV_HEADER = ("system,n_qubits,mapping,ordering,seed,mode,"
              "raw_total,raw_entangling,raw_single,raw_nonclifford,"
              "opt_total,opt_entangling,opt_single,opt_nonclifford,"
              "savings,trotter_error")

_SYNTHETIC_KEYS = {"n": int, "seed": int, "density": float}
# With --error, each JSON row also says what its trotter_error rests on.
_CAVEATS = ("time", "unreliable", "overlap_magnitude", "nelec", "ms2", "sector_dim")


@dataclass(frozen=True)
class BenchInput:
    """Either an integral file path or a synthetic spec."""

    system: str
    path: str | None = None
    synthetic: tuple[int, int, float] | None = None  # (n_spatial, seed, density)

    @classmethod
    def parse(cls, spec: str) -> "BenchInput":
        """``path/to/file.fcidump`` or ``synthetic:n=8,seed=1,density=1.0``;
        a bad spec raises ValueError."""
        if spec.startswith("synthetic:"):
            kv = {}
            for part in spec[len("synthetic:"):].split(","):
                key, _, value = part.partition("=")
                if key not in _SYNTHETIC_KEYS:
                    raise ValueError(f"{spec!r}: unknown key {key!r}; "
                                     f"expected {', '.join(_SYNTHETIC_KEYS)}")
                if key in kv:
                    raise ValueError(f"{spec!r}: key {key!r} given twice")
                try:
                    kv[key] = _SYNTHETIC_KEYS[key](value)
                except ValueError:
                    raise ValueError(f"{spec!r}: {key} must be "
                                     f"{_SYNTHETIC_KEYS[key].__name__}, "
                                     f"got {value!r}") from None
            if "n" not in kv:
                raise ValueError(f"{spec!r}: missing key 'n'")
            if kv["n"] < 1:
                raise ValueError(f"{spec!r}: n must be at least 1, got {kv['n']}")
            n, seed, density = kv["n"], kv.get("seed", 0), kv.get("density", 1.0)
            if seed < 0:
                raise ValueError(f"{spec!r}: seed must be at least 0, got {seed}")
            if not 0 < density <= 1:
                raise ValueError(f"{spec!r}: density must be in (0, 1], got {density}")
            return cls(f"synthetic-n{n}-s{seed}-d{density:g}", synthetic=(n, seed, density))
        return cls(Path(spec).stem, path=spec)

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
        if self.optimize_level not in optimizer.LEVELS:
            raise ValueError(f"optimize level must be one of {optimizer.LEVELS}")
        for mode in self.modes:
            if mode not in SYNTHESIS_MODES:
                raise ValueError(f"unknown synthesis mode {mode!r}; pick from {SYNTHESIS_MODES}")
        if self.n_steps < 1:
            raise ValueError(f"need at least one Trotter step, got {self.n_steps}")


def pair_stages(inp: BenchInput, scheme: MappingScheme, orderings=(), step_counts=(), time=1.0):
    """The stages of one (input, mapping) pair, each run when the caller
    takes its value: the register size (named by a synthetic spec, read
    from a file's header), the qubit operator, its Trotter plans by
    (ordering, n_steps) at the clamped time, then per plan its key, error
    report and sector fields.  The map limit is checked before any integral
    array is made; both they and the Hamiltonian grow as n^4."""
    if inp.synthetic is None:
        text = Path(inp.path).read_text()
        n_modes = 2 * fermion.fcidump_header(text.splitlines())[0]
    else:
        n_modes = 2 * inp.synthetic[0]
    yield n_modes
    mappings.check_map_limit(n_modes)
    ints = (fermion.parse_fcidump(text) if inp.synthetic is None
            else fermion.synthetic_integrals(*inp.synthetic))
    qop = mappings.map_operator(fermion.build_hamiltonian(ints), scheme)
    yield qop
    time = simulator.safe_evolution_time(qop, time)
    plans = {(o, n): trotter.plan_for(qop, o, n, time) for o in orderings for n in step_counts}
    yield plans
    energy, ground, sector = simulator.sector_ground_state(qop, ints, scheme)
    tables = simulator.evolution_tables(*qop.arrays()[:2], ground)
    for key, plan in plans.items():
        yield key, simulator.trotter_error(plan, energy, ground, tables), sector


def _sweep_pair(cfg: BenchConfig, inp: BenchInput, scheme: MappingScheme) -> list[dict]:
    """Every cell of one (input, mapping) pair from its stages, each made
    once as the report's JSON object, every key in place: the counts per
    (ordering, mode), then with ``with_error`` one Trotter error per
    ordering.  The pair fails as a unit: a stage that raises adds its error
    to every cell and leaves the values already made in place."""
    caveats = dict.fromkeys(_CAVEATS) if cfg.with_error else {}
    by_ordering = {o: [{"system": inp.system, "n_qubits": None, "mapping": scheme.value,
                        "ordering": o.kind, "seed": o.seed, "mode": mode, "savings": None,
                        "trotter_error": None, **caveats, "raw": None, "opt": None}
                       for mode in cfg.modes] for o in cfg.orderings}
    cells = [cell for group in by_ordering.values() for cell in group]
    stages = pair_stages(inp, scheme, cfg.orderings, [cfg.n_steps], cfg.time)
    try:
        n_qubits = next(stages)
        for cell in cells:
            cell["n_qubits"] = n_qubits
        next(stages)  # the qubit operator
        for (ordering, _), plan in next(stages).items():
            for cell in by_ordering[ordering]:
                circ = synthesize_plan(plan, cell["mode"])
                raw = count_gates(circ)
                cell["raw"] = asdict(raw)
                opt = count_gates(optimizer.run_level(circ, cfg.optimize_level))
                cell.update(opt=asdict(opt),
                            savings=(raw.total - opt.total) / raw.total if raw.total else 0.0)
        for (ordering, _), rep, sector in (stages if cfg.with_error else ()):
            for cell in by_ordering[ordering]:
                cell.update(trotter_error=rep.error, time=rep.time, unreliable=rep.unreliable,
                            overlap_magnitude=rep.overlap_magnitude, **sector)
    except Exception as exc:
        for cell in cells:
            cell["error"] = f"{type(exc).__name__}: {exc}"
    return cells


def run_bench(cfg: BenchConfig) -> list[dict]:
    """Cartesian sweep; rows sorted by (system, mapping, ordering, mode)."""
    args = zip(*itertools.product([cfg], cfg.inputs, cfg.mappings))  # cfgs, inputs, schemes
    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            groups = list(pool.map(_sweep_pair, *args))
    else:
        groups = list(map(_sweep_pair, *args))
    rows = [row for group in groups for row in group]
    rows.sort(key=lambda r: (r["system"], r["mapping"], r["ordering"], str(r["seed"]), r["mode"]))
    return rows


def emit_report(rows: list[dict], fmt: str = "csv") -> str:
    """The rows of ``run_bench`` as a CSV or JSON report."""
    if fmt == "csv":
        # CSV_HEADER picks the columns; d["raw"]["total"] is column raw_total,
        # and None or a missing count is an empty field.
        buf = io.StringIO()
        writer = csv.DictWriter(buf, CSV_HEADER.split(","), extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        for d in rows:
            writer.writerow({**d, **{f"{label}_{key}": n for label in ("raw", "opt")
                                     for key, n in (d[label] or {}).items()}})
        return buf.getvalue()
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
