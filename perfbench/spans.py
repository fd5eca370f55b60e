"""Spans around fermiqc's public functions, and per-layer metrics from them.

The tracer wraps functions from outside the package: each target is
replaced by a wrapper in every ``fermiqc`` module namespace that holds it,
so names imported with ``from .circuits import synthesize_plan`` are
patched where their callers look them up.  A call made while a span of the
same layer is open belongs to that span and opens none of its own.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from dataclasses import asdict, dataclass, field

from fermiqc.optimizer import OptimizationReport


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    parent: int | None
    run: str
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _gates_in_out(a, r):
    return {"gates_in": len(a["c"].gates), "gates_out": len(r.gates)}


# (layer, module, function, counter(bound arguments, result) -> counts)
TARGETS = [
    ("fermion", "fermiqc.fermion", "parse_fcidump", None),
    ("fermion", "fermiqc.fermion", "build_hamiltonian", lambda a, r: {"products": len(r.products)}),
    ("mappings", "fermiqc.mappings", "map_operator", lambda a, r: {
        "products_in": len(a["op"].products), "terms": len(r),
        "key": hash((a["op"].n_modes, a["op"].constant, tuple(a["op"].products),
                     getattr(a["scheme"], "value", a["scheme"])))}),
    ("pauli", "fermiqc.pauli", "parse_terms", lambda a, r: {"bytes": len(a["text"])}),
    ("pauli", "fermiqc.pauli", "format_terms", lambda a, r: {"bytes": len(r)}),
    ("trotter", "fermiqc.trotter", "plan_for", None),
    ("circuits", "fermiqc.circuits", "synthesize_plan", lambda a, r: {"gates": len(r.gates)}),
    ("circuits", "fermiqc.circuits", "format_circuit", None),
    ("circuits", "fermiqc.circuits", "parse_circuit", None),
    ("circuits", "fermiqc.circuits", "count_gates", None),
    ("optimizer", "fermiqc.optimizer", "optimize", lambda a, r: {
        **_gates_in_out(a, r), "passes": len(a["report"].passes)}),
    ("optimizer", "fermiqc.optimizer", "cancel_adjacent", _gates_in_out),
    ("optimizer", "fermiqc.optimizer", "commute_and_cancel", _gates_in_out),
    ("simulator", "fermiqc.simulator", "operator_matrix", lambda a, r: {
        "nnz": int(r.nnz), "key": hash((a["op"].n, a["op"].constant, tuple(a["op"].items())))}),
    ("simulator", "fermiqc.simulator", "ground_state", None),
    ("simulator", "fermiqc.simulator", "trotter_error", lambda a, r: {
        "applies": len(a["plan"].ordered_terms) * a["plan"].n_steps}),
    ("simulator", "fermiqc.simulator", "apply_trotterized", lambda a, r: {
        "applies": len(a["plan"].ordered_terms) * a["plan"].n_steps}),
    ("bench", "fermiqc.bench", "run_bench", None),
]


class Tracer:
    """Collects spans in memory; ``install`` patches TARGETS until ``uninstall``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, layer, time.perf_counter(), parent, self.run_id)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer, fn, counter):
        sig = inspect.signature(fn)
        takes_report = "report" in sig.parameters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1].layer == layer:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            if takes_report and bound.arguments.get("report") is None:
                # `optimizer.passes` is read from the public OptimizationReport.
                bound.arguments["report"] = OptimizationReport()
            with self.span(f"{layer}.{fn.__name__}", layer) as s:
                result = fn(*bound.args, **bound.kwargs)
            if counter:
                s.counts.update(counter(bound.arguments, result))
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fermiqc" or n.startswith("fermiqc."))]
        for layer, modname, fname, counter in TARGETS:
            orig = getattr(importlib.import_module(modname), fname)
            wrapper = self._wrap(layer, orig, counter)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the part of the span's interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def subtree(spans: list[Span], root: Span) -> list[Span]:
    """``root`` and every span below it."""
    keep = {root.id}
    for s in spans:  # parents are opened, so numbered, before their children
        if s.parent in keep:
            keep.add(s.id)
    return [s for s in spans if s.id in keep]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    st = self_times(spans)

    def busy(*names):
        return sum(st[s.id] for s in spans if s.name in names)

    def of(name):
        return [s for s in spans if s.name == name]

    def total(names, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name in names)

    maps, mats = of("mappings.map_operator"), of("simulator.operator_matrix")
    map_distinct = len({s.counts["key"] for s in maps})
    mat_distinct = len({s.counts["key"] for s in mats})
    products_in = total(["mappings.map_operator"], "products_in")
    terms_out = total(["mappings.map_operator"], "terms")
    opt = ["optimizer.optimize", "optimizer.cancel_adjacent", "optimizer.commute_and_cancel"]
    gates_in = total(opt, "gates_in")
    evolve = ["simulator.trotter_error", "simulator.apply_trotterized"]
    calls = len(maps) + len(mats)
    return {
        "fermion.parse_s": busy("fermion.parse_fcidump"),
        "fermion.build_s": busy("fermion.build_hamiltonian"),
        "fermion.build_calls": len(of("fermion.build_hamiltonian")),
        "fermion.products": total(["fermion.build_hamiltonian"], "products"),
        "mappings.map_s": busy("mappings.map_operator"),
        "mappings.map_calls": len(maps),
        "mappings.map_distinct": map_distinct,
        "mappings.terms_out": terms_out,
        "mappings.terms_per_product": terms_out / products_in if products_in else 0.0,
        "pauli.io_s": busy("pauli.parse_terms", "pauli.format_terms"),
        "pauli.io_bytes": total(["pauli.parse_terms", "pauli.format_terms"], "bytes"),
        "trotter.plan_s": busy("trotter.plan_for"),
        "trotter.plan_calls": len(of("trotter.plan_for")),
        "circuits.synth_s": busy("circuits.synthesize_plan"),
        "circuits.raw_gates": total(["circuits.synthesize_plan"], "gates"),
        "circuits.io_s": busy("circuits.format_circuit", "circuits.parse_circuit"),
        "circuits.count_s": busy("circuits.count_gates"),
        "optimizer.opt_s": busy(*opt),
        "optimizer.gates_in": gates_in,
        "optimizer.removed_ratio": (gates_in - total(opt, "gates_out")) / gates_in
        if gates_in else 0.0,
        "optimizer.passes": total(opt, "passes"),
        "simulator.matrix_s": busy("simulator.operator_matrix"),
        "simulator.matrix_calls": len(mats),
        "simulator.matrix_distinct": mat_distinct,
        "simulator.matrix_nnz": total(["simulator.operator_matrix"], "nnz"),
        "simulator.ground_s": busy("simulator.ground_state"),
        "simulator.evolve_s": busy(*evolve),
        "simulator.pauli_applies": total(evolve, "applies"),
        "bench.self_s": busy("bench.run_bench"),
        # No map or matrix call at all wastes nothing.
        "bench.useful_ratio": (map_distinct + mat_distinct) / calls if calls else 1.0,
        "cli.self_s": sum(st[s.id] for s in spans if s.layer == "cli"),
    }
