#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the GSim+ reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload live-mixed --seed 1 --seconds 30 --trace 0

``--workload`` is ``er-recompress-mmap``, ``live-mixed`` or ``all``
(each workload in turn, in its own process).  With
``--trace 0`` the run measures the end-to-end metrics: no execution
context and no spans reach the program's query and scan calls.  With
``--trace 1`` the run replays one pass of the workload untraced and then
traced (the benchmark's own spans around every call into the program,
plus an ``ExecutionContext(metrics=Metrics())`` whose counters it
reads), and reports the per-layer metrics and the tracing overhead.

The metric names and units come from ``BENCHMARK.json``.  Every output
is checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when a check failed, 2 when the program or
``BENCHMARK.json`` cannot be loaded, and 3 when the workload needs more
workers than the host has usable cores.  Spans, the self-time table and
the full result (with the host record) are written under
``.perfbench/results/``.
"""

from __future__ import annotations

import os

# BLAS thread pools are pinned before NumPy loads, so the program's own
# worker counts are the only parallelism the numbers see.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("er-recompress-mmap", "live-mixed")
MIN_QUERIES = 1000  # so at least 10 query samples lie beyond p99
MIN_TOP_PAIRS = 5  # timed top_pairs calls per end-to-end run
MIB = float(1 << 20)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Host record and memory high-water mark
# ----------------------------------------------------------------------
def host_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def reset_peak_rss() -> None:
    """Restart the kernel's resident high-water mark (VmHWM) from now."""
    Path("/proc/self/clear_refs").write_text("5")


def peak_rss_mib() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / MIB
    raise RuntimeError("no VmHWM in /proc/self/status")


def percentile(values: list[float], q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q)) if values else 0.0


# ----------------------------------------------------------------------
# End-to-end pass
# ----------------------------------------------------------------------
def measure(wl, seconds: float) -> tuple[dict, dict, int, list[str]]:
    """The end-to-end metrics of one workload run.

    The run sets up ``wl.setup_reps`` times.  Then, for ``seconds``, it
    alternates timed ``top_pairs`` calls with the serve loop, half the
    wall time each, so both sample the same stretch of the run.

    Scans and queries are gated on the process's CPU time (all its
    threads), which leaves out the time the kernel or the hypervisor ran
    something else; wall times are reported alongside.  Queries are
    gated on their 10th percentile: a query's CPU time also grows while
    the other hardware thread of its core is busy, which on a shared
    host comes and goes, so the median sits between the quiet and the
    busy mode and moves with how long each lasted.
    """
    from tracing import NULL_SPANS
    from workloads import ServeStats, clocks, median

    wl.generate()
    gc.collect()
    reset_peak_rss()
    setup_times, handle = [], None
    for _ in range(wl.setup_reps):
        if handle is not None:
            wl.release(handle)
            handle = None
            gc.collect()
        start = time.perf_counter()
        handle = wl.setup(NULL_SPANS, None)
        setup_times.append(time.perf_counter() - start)
    # Untimed warm-up: the first scan starts the scan's worker threads.
    reference = wl.top_pairs(handle, NULL_SPANS, None)
    stats = ServeStats()
    top_times, top_walls, serve_seconds = [], [], 0.0
    deadline = time.perf_counter() + seconds
    while (
        time.perf_counter() < deadline
        or len(top_times) < MIN_TOP_PAIRS
        or len(stats.queries) < MIN_QUERIES
        or stats.rounds < wl.min_rounds
    ):
        owed = sum(top_walls) - serve_seconds
        if owed <= 0.0:
            started = clocks()
            pairs = wl.top_pairs(handle, NULL_SPANS, None)
            wall, cpu = clocks()
            top_walls.append(wall - started[0])
            top_times.append(cpu - started[1])
            wl.check_repeat(handle, pairs, reference)
            continue
        start = time.perf_counter()
        before = stats.operations
        wl.serve(
            handle, NULL_SPANS, None, lambda s: time.perf_counter() < start + owed, stats
        )
        serve_seconds += time.perf_counter() - start
        if stats.operations == before:  # the workload has no operations left
            break
    peak = peak_rss_mib()
    wl.check_top_pairs(handle, reference)
    wl.check_final(handle)
    factors = wl.factors(handle)
    wl.release(handle)
    attempted = wl.setup_reps + 1 + len(top_times) + stats.operations
    failed = len(stats.errors) + wl.checker.failed
    metrics = {
        "setup_s": median(setup_times),
        "top_pairs_cpu_s": median(top_times),
        "query_cpu_p10_us": percentile(stats.queries, 10) * 1e6,
        "peak_rss_mib": peak,
    }
    extra = {
        "query_cpu_p50_us": (median(stats.queries) * 1e6, "us"),
        "top_pairs_wall_s": (median(top_walls), "s"),
        "query_wall_p50_us": (median(stats.queries_wall) * 1e6, "us"),
        "query_wall_p99_us": (percentile(stats.queries_wall, 99) * 1e6, "us"),
        "query_cpu_p99_us": (percentile(stats.queries, 99) * 1e6, "us"),
        "top_matches_p50_us": (median(stats.matches) * 1e6, "us"),
        "index_mib": (factors.nbytes / MIB, "MiB"),
        "failed_ratio": (failed / attempted, "ratio"),
        "write_p50_us": (median(stats.writes) * 1e6, "us"),
        "fresh_query_p50_ms": (median(stats.fresh) * 1e3, "ms"),
        "samples": {
            "setup": len(setup_times), "top_pairs": len(top_times),
            "queries": len(stats.queries), "top_matches": len(stats.matches),
            "writes": len(stats.writes), "fresh_queries": len(stats.fresh),
        },
    }
    return metrics, extra, attempted, stats.errors


# ----------------------------------------------------------------------
# Traced pass
# ----------------------------------------------------------------------
def traced(wl, seconds: float, spans) -> tuple[dict, dict, int, list[str]]:
    """One untraced and one traced pass of the same operations; the
    per-layer metrics of the traced one."""
    from tracing import NULL_SPANS
    from workloads import (
        ITERATIONS, RECOMPRESS_TOL, LowRankFactors, ServeStats, median, traced_context,
    )

    wl.generate()
    start = time.perf_counter()
    handle = wl.setup(NULL_SPANS, None)
    pairs = wl.top_pairs(handle, NULL_SPANS, None)
    deadline = time.perf_counter() + seconds / 2
    base = ServeStats()
    wl.serve(handle, NULL_SPANS, None, lambda s: time.perf_counter() < deadline, base)
    untraced_wall = time.perf_counter() - start
    wl.check_top_pairs(handle, pairs)
    wl.release(handle)
    handle = None
    gc.collect()

    setup_ctx, top_ctx, serve_ctx = traced_context(), traced_context(), traced_context()
    start = time.perf_counter()
    with spans.span("bench.setup"):
        handle = wl.setup(spans, setup_ctx)
    with spans.span("bench.top_pairs"):
        pairs = wl.top_pairs(handle, spans, top_ctx)
    # Shard accounting of the two calls, before the serve loop adds to it.
    build = setup_ctx.metrics.timer("index.build")
    scan_wall = spans.total_seconds("retrieval.index.GSimIndex.top_pairs")
    busy = sum(c.metrics.timer("parallel.shard_seconds").seconds for c in (setup_ctx, top_ctx))
    shards = sum(c.metrics.counter("parallel.shards") for c in (setup_ctx, top_ctx))
    capacity = wl.workers * build.seconds + wl.top_pairs_workers * scan_wall
    lifecycle = setup_ctx.metrics
    rebuilds_before = lifecycle.counter("lifecycle.rebuilds")
    waits_before = lifecycle.counter("lifecycle.waits")
    build_before = lifecycle.timer("index.build")
    operations = base.operations
    stats = ServeStats()
    with spans.span("bench.serve"):
        wl.serve(handle, spans, serve_ctx, lambda s: s.operations < operations, stats)
    traced_wall = time.perf_counter() - start
    wl.check_top_pairs(handle, pairs)

    factors = wl.factors(handle)
    n_a, n_b = factors.shape
    scan = top_ctx.metrics.histogram("topk.scan_seconds")["sum"]
    m = {
        "io.read_edge_list_s": spans.total_seconds("graphs.io.read_edge_list"),
        "mmap_csr.convert_s": spans.total_seconds("graphs.mmap_csr.convert_edge_list"),
        "mmap_csr.load_verify_s": spans.total_seconds("graphs.mmap_csr.MmapCSRGraph.load"),
        "mmap_csr.artifact_mib": 0.0,
        "mmap_csr.resident_mib": 0.0,
        "index.build_s": build.seconds / max(build.calls, 1),
        "index.factors_mib": factors.nbytes / MIB,
        "embeddings.recompress_s": 0.0,
        "topk.scan_s": scan,
        "topk.blocks_scanned": top_ctx.metrics.counter("topk.blocks_scanned"),
        "topk.rows_scanned_ratio": top_ctx.metrics.counter("topk.rows_scanned") / n_a,
        "topk.cells_per_s": n_a * n_b / scan,
        "topk.gflops_computed": 2.0 * n_a * n_b * factors.width / scan / 1e9,
        "parallel.shards": shards,
        "parallel.shard_busy_s": busy,
        "parallel.efficiency": busy / capacity,
        "dynamic.write_p50_us": median(base.writes) * 1e6,
        "dynamic.snapshot_s": 0.0,
        "lifecycle.fresh_query_p50_ms": median(base.fresh) * 1e3,
        "lifecycle.rebuilds_per_write": 0.0,
        "lifecycle.build_s": 0.0,
        "lifecycle.waits": 0.0,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
    if getattr(handle, "root", None) is not None:
        m["mmap_csr.artifact_mib"] = sum(
            path.stat().st_size for path in handle.root.rglob("*") if path.is_file()
        ) / MIB
        m["mmap_csr.resident_mib"] = sum(g.resident_bytes() for g in handle.graphs) / MIB
    if stats.writes:
        build_after = lifecycle.timer("index.build")
        m["lifecycle.rebuilds_per_write"] = (
            lifecycle.counter("lifecycle.rebuilds") - rebuilds_before
        ) / len(stats.writes)
        m["lifecycle.waits"] = lifecycle.counter("lifecycle.waits") - waits_before
        m["lifecycle.build_s"] = (build_after.seconds - build_before.seconds) / max(
            build_after.calls - build_before.calls, 1
        )
        snapshots = []
        for _ in range(3):
            wl.write(handle, spans)
            with spans.span("dynamic.graph.DynamicGraph.snapshot"):
                began = time.perf_counter()
                handle.graph_a.snapshot()
                snapshots.append(time.perf_counter() - began)
        m["dynamic.snapshot_s"] = median(snapshots)
        wl.check_final(handle)

    # The solver loop GSimIndex.build wraps, one span per yielded step.
    iterate_ctx = traced_context()
    solver = wl.solver(handle)
    steps = solver.iterate(ITERATIONS, context=iterate_ctx)
    state = next(steps)
    for k in range(1, ITERATIONS + 1):
        with spans.span("core.gsim_plus.GSimPlus.iterate.step"):
            began = time.perf_counter()
            state = next(steps)
            m[f"gsim_plus.step{k}_s"] = time.perf_counter() - began
    steps.close()
    m["gsim_plus.width"] = state.factors.width
    m["gsim_plus.spmm"] = iterate_ctx.metrics.counter("gsim_plus.spmm")
    m["gsim_plus.recompressions"] = iterate_ctx.metrics.counter("gsim_plus.recompressions")
    del solver, steps, state

    norms = []
    for _ in range(5):
        with spans.span("core.embeddings.LowRankFactors.frobenius_norm"):
            began = time.perf_counter()
            factors.frobenius_norm(include_scale=False)
            norms.append(time.perf_counter() - began)
    m["embeddings.frobenius_norm_s"] = median(norms)
    if wl.name == "er-recompress-mmap":
        exact = LowRankFactors(*wl.reference())
        with spans.span("core.embeddings.LowRankFactors.recompressed"):
            began = time.perf_counter()
            exact.recompressed(RECOMPRESS_TOL)
            m["embeddings.recompress_s"] = time.perf_counter() - began
    wl.release(handle)

    attempted = 4 + base.operations + stats.operations
    extra = {"untraced_wall_s": (untraced_wall, "s"), "traced_wall_s": (traced_wall, "s")}
    return m, extra, attempted, base.errors + stats.errors


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }


def run_all(args) -> int:
    """Each workload in its own process; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, child.returncode)
        if child.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # Everything the run writes (inputs, artifacts, the process backend's
    # scratch files) stays under the checkout.
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import checks
        import tracing
        import workloads
    except ImportError as exc:
        shutil.rmtree(work, ignore_errors=True)
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    host = host_record()
    print("host " + json.dumps(host), flush=True)
    wl_class = workloads.WORKLOADS[args.workload]
    if wl_class.workers > host["usable_cores"]:
        shutil.rmtree(work, ignore_errors=True)
        print(
            f"refusing {args.workload}: it runs {wl_class.workers} workers but "
            f"this host has {host['usable_cores']} usable cores",
            file=sys.stderr,
        )
        return 3
    checker = checks.Checker()
    wl = wl_class(work, args.seed, checker)
    spans = tracing.SpanRecorder()
    try:
        if args.trace:
            values, extra, attempted, errors = traced(wl, args.seconds, spans)
        else:
            values, extra, attempted, errors = measure(wl, args.seconds)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        for child in multiprocessing.active_children():
            child.join(timeout=30)
        shutil.rmtree(work, ignore_errors=True)

    failed = len(errors) + checker.failed
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in spec[args.trace]}
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    for name, value in extra.items():
        if isinstance(value, tuple):
            print(f"info {name} = {value[0]:.6g} {value[1]}")
        else:
            print(f"info {name} = {value}")
    print(f"checks {checker.checks} run, {checker.failed} failed; "
          f"{len(errors)} operations raised")
    for problem in (checker.failures + errors)[:20]:
        print(f"FAILED {problem}")

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        table = spans.render_self_times()
        print(table)
        (results / f"{stem}-selftime.txt").write_text(table + "\n", encoding="utf-8")
        spans.write_chrome(results / f"{stem}-spans.json")
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }
    (results / f"{stem}.json").write_text(
        json.dumps({**result, "workload": args.workload, "seed": args.seed,
                    "host": host, "info": extra, "failures": checker.failures + errors},
                   indent=2),
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
