"""Span bookkeeping: self time, subtrees and the patching tracer."""

import pytest

import spans
import workloads
from fermiqc import bench, circuits, cli


def span(i, name, start, end, parent=None, **counts):
    return spans.Span(i, name, name.split(".")[0], start, parent, "t", end, counts)


def test_self_time_subtracts_covered_child_intervals():
    tree = [
        span(0, "cli.bench", 0.0, 10.0),
        span(1, "bench.run_bench", 1.0, 9.0, 0),
        span(2, "mappings.map_operator", 2.0, 4.0, 1, key=7, products_in=10, terms=4),
        span(3, "optimizer.optimize", 5.0, 8.5, 1),
        span(4, "circuits.count_gates", 6.0, 7.0, 3),
    ]
    st = spans.self_times(tree)
    assert st == pytest.approx({0: 2.0, 1: 2.5, 2: 2.0, 3: 2.5, 4: 1.0})
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["bench.self_s"] == pytest.approx(2.5)
    assert m["optimizer.opt_s"] == pytest.approx(2.5)
    assert (m["mappings.map_calls"], m["mappings.terms_per_product"]) == (1, 0.4)


def test_self_time_clips_overlapping_and_overhanging_children():
    tree = [
        span(0, "a.x", 0.0, 10.0),
        span(1, "b.y", 1.0, 5.0, 0),
        span(2, "b.z", 4.0, 6.0, 0),    # overlaps its sibling
        span(3, "b.w", 9.0, 12.0, 0),   # runs past its parent
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_subtree():
    tree = [span(0, "s.a", 0, 9), span(1, "c.b", 0, 4, 0), span(2, "c.c", 5, 9, 0),
            span(3, "x.d", 1, 2, 1), span(4, "x.e", 6, 7, 2)]
    assert [s.id for s in spans.subtree(tree, tree[1])] == [1, 3]


def test_tracer_patches_names_where_callers_look_them_up(tmp_path):
    originals = (bench.count_gates, bench.synthesize_plan, cli.synthesize_plan,
                 cli.format_circuit, circuits.synthesize_plan)
    tracer = spans.Tracer("test")
    tracer.install()
    try:
        assert cli.synthesize_plan is not originals[2]
        with tracer.span("cli.bench", "cli"):
            code, err = workloads.run_cli(
                ["bench", "synthetic:n=2,seed=3", "--mapping", "jw", "--orderings", "lex",
                 "--workers", "1", "-o", str(tmp_path / "r.csv")])
    finally:
        tracer.uninstall()
    assert code == 0, err
    assert (bench.count_gates, bench.synthesize_plan, cli.synthesize_plan,
            cli.format_circuit, circuits.synthesize_plan) == originals
    names = [s.name for s in tracer.spans]
    for name in ("bench.run_bench", "mappings.map_operator", "trotter.plan_for",
                 "circuits.synthesize_plan", "circuits.count_gates", "optimizer.optimize"):
        assert name in names
    # optimize calls cancel_adjacent and commute_and_cancel: same layer, one span.
    assert "optimizer.cancel_adjacent" not in names
    m = spans.layer_metrics(tracer.spans)
    assert m["mappings.map_calls"] == m["mappings.map_distinct"] == 1
    assert m["circuits.raw_gates"] == m["optimizer.gates_in"] > 0
    assert m["optimizer.passes"] >= 1
    run_bench = next(s for s in tracer.spans if s.name == "bench.run_bench")
    assert all(s.parent == run_bench.id for s in tracer.spans
               if s.layer not in ("cli", "bench", "fermion"))
