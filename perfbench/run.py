"""fermiqc pipeline benchmark: untraced sweeps give the end-to-end metrics,
``--trace 1`` adds one traced sweep for the per-layer metrics.

    python3 perfbench/run.py --workload all                # every workload
    python3 perfbench/run.py --workload fixture-sweep --seed 3 --seconds 20 --trace 1

Run from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for the workloads, metrics and known defects.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import it pays for

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / "_work"
sys.path.insert(0, str(ROOT / "src"))
# One client on one thread.  Threaded BLAS only spins a second core on the
# small ARPACK vectors of fixture-error (see README).  Set before numpy is
# imported; set-up processes inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import fermiqc  # noqa: E402

if not Path(fermiqc.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"fermiqc imported from {fermiqc.__file__}, not from {ROOT / 'src'}")

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_CHILDREN = 4   # set-ups in fresh processes besides this one; setup_s is the median
MIN_SWEEPS = 2       # so every output is compared with a repetition of itself


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_setup(args) -> float:
    """Set-up time of a fresh interpreter doing this run's set-up alone."""
    proc = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                           "--seed", str(args.seed), "--setup-only"],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def sweep(wl, k: int, tracer=None) -> tuple[float, list]:
    """Run every command once; returns (wall seconds, [(cmd, code, stderr, s)])."""
    outdir = wl.work / f"sweep{k}"
    outdir.mkdir()
    results = []
    start = time.perf_counter()
    for cmd in wl.commands:
        t = time.perf_counter()
        if tracer is None:
            code, err = workloads.run_cli(cmd.argv(outdir))
        else:
            with tracer.span(f"cli.{cmd.args[0]}", "cli"):
                code, err = workloads.run_cli(cmd.argv(outdir))
        results.append((cmd, code, err, time.perf_counter() - t))
    return time.perf_counter() - start, results


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return f"n={n}, too few for a tail percentile"
    p = int(100 * (n - 10) / n)
    return f"n={n}, p{p} {statistics.quantiles(samples, n=100)[p - 1]:.4f} s"


def measure(args) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        own_setup = time.perf_counter() - T0
        if args.setup_only:
            print(own_setup)
            return {}
        return run_workload(args, wl, own_setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(args, wl, own_setup: float) -> dict:
    tally = workloads.Tally()
    setups = [own_setup]
    times: list[float] = []
    per_command: dict[str, list[float]] = {}
    while len(times) < MIN_SWEEPS or sum(times) + statistics.median(times) <= args.seconds:
        k = len(times)
        dt, results = sweep(wl, k)
        times.append(dt)
        for cmd, code, err, s in results:
            per_command.setdefault(cmd.name, []).append(s)
            workloads.record_sweep(cmd, k, code, err, wl.work / f"sweep{k}",
                                   wl.work / "sweep0", tally)
        # Set-ups spread between sweeps sample the machine at different moments.
        if len(setups) <= SETUP_CHILDREN:
            setups.append(child_setup(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sweep_s = statistics.median(times)
    if args.trace:
        layers, per_command_counts = traced_sweep(args, wl, len(times), tally, sweep_s)
    try:
        wl.check(wl, wl.work / "sweep0", tally)
        gates = wl.gates(wl, wl.work / "sweep0")
    except Exception as exc:  # a check that cannot run fails the whole run
        tally.fail("checks", f"{type(exc).__name__}: {exc}")
        gates = oracle.ZERO
    while len(setups) <= SETUP_CHILDREN:
        setups.append(child_setup(args))

    fail_ratio = len(tally.failed) / max(tally.attempted, 1)
    e2e = {"setup_s": statistics.median(setups), "sweep_s": sweep_s,
           "peak_rss_mb": peak_rss_mb, "opt_gates": gates.total,
           "opt_entangling": gates.entangling, "ok_ratio": 1.0 - fail_ratio}
    print(f"workload {wl.name}  seed {args.seed}  closed loop, 1 client, --workers 1")
    print(f"  setup_s        {e2e['setup_s']:10.4f} s      median of {len(setups)} set-ups")
    print(f"  sweep_s        {sweep_s:10.4f} s      median; {tail(times)}")
    for name, ts in per_command.items():
        print(f"    {name:18s} {statistics.median(ts):8.4f} s")
    print(f"  peak_rss_mb    {peak_rss_mb:10.1f} MB")
    print(f"  opt_gates      {gates.total:10d} count")
    print(f"  opt_entangling {gates.entangling:10d} count")
    print(f"  ok_ratio       {e2e['ok_ratio']:10.4f} ratio  fail_ratio {fail_ratio:.4f}"
          f" = {len(tally.failed)} failed / {tally.attempted} attempted")
    if tally.compared:
        print(f"  known defect: {tally.jitter} of {tally.compared} error-report rows were not"
              f" byte-identical across sweeps; all agree within {oracle.ERROR_TOL:g}")
    for oid, reason in list(tally.failed.items())[:20]:
        print(f"  FAILED {oid}: {reason}")
    if args.trace:
        print("  per-layer (traced sweep):")
        for name, v in layers.items():
            print(f"    {name:28s} {v:.6g}")
        for line in per_command_counts:
            print(f"    {line}")

    kind, values = ("per_layer", layers) if args.trace else ("end_to_end", e2e)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec()[kind]}
    return {"correct": not tally.failed, "attempted": max(tally.attempted, 1),
            "failed": len(tally.failed), "metrics": metrics}


def traced_sweep(args, wl, k: int, tally, sweep_s: float) -> tuple[dict, list[str]]:
    """Sweep k under the tracer: the per-layer metrics, and map/matrix call
    counts per command."""
    tracer = spans.Tracer(f"{wl.name}-seed{args.seed}")
    tracer.install()
    try:
        with tracer.span("sweep", "sweep") as root:
            _, results = sweep(wl, k, tracer)
    finally:
        tracer.uninstall()
    for cmd, code, err, _ in results:
        workloads.record_sweep(cmd, k, code, err, wl.work / f"sweep{k}", wl.work / "sweep0",
                               tally)
    (WORK_ROOT / f"spans-{wl.name}-seed{args.seed}.json").write_text(json.dumps(tracer.dump()))
    layers = spans.layer_metrics(tracer.spans)
    layers["trace.overhead_s"] = (root.end - root.start) - sweep_s
    lines = []
    for s in tracer.spans:
        if s.layer == "cli":
            m = spans.layer_metrics(spans.subtree(tracer.spans, s))
            counts = [f"{c}={m[c]}" for c in ("mappings.map_calls", "mappings.map_distinct",
                                               "simulator.matrix_calls",
                                               "simulator.matrix_distinct") if m[c]]
            if counts:
                lines.append(f"{s.name}: " + " ".join(counts))
    return layers, lines


def run_all(args) -> dict:
    """Every workload in its own process; the metrics keyed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec()["workloads"]:
        proc = subprocess.run([sys.executable, __file__, "--workload", w["name"],
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            raise SystemExit(f"workload {w['name']} exited with {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{w['name']}.{name}"] = m
    return total


def main() -> None:
    names = [w["name"] for w in spec()["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    result = run_all(args) if args.workload == "all" else measure(args)
    if result:
        print(json.dumps(result))


if __name__ == "__main__":
    main()
