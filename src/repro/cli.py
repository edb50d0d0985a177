"""Command-line entry point: regenerate any figure or table of the paper.

Usage (installed as ``gsimplus`` or via ``python -m repro.cli``)::

    gsimplus fig2 --scale tiny
    gsimplus fig3 --dataset EE --scale small
    gsimplus accuracy --scale tiny
    gsimplus all --scale tiny
    gsimplus fig2 --scale tiny --metrics out.json   # dump runtime metrics
    gsimplus spec exp.json --trace trace.json --trace-summary

Every subcommand is one entry of ``_COMMANDS``: its help text, the shared
flags of ``_FLAGS`` its handler reads, its own arguments, and the
handler.  A subcommand accepts no flag its handler ignores.  Every
handler runs under one lifecycle (:func:`_run`) and one
:class:`repro.runtime.ExecutionContext` carrying the run's tracer,
metrics sink and slow-query log.

``--metrics PATH`` (every subcommand) writes that context's
:class:`repro.runtime.Metrics` counter/timer/histogram tree as JSON —
for experiment commands (figures, ``all``, ``spec``) every cell's
snapshot is merged into it as the cell finishes; ``topk``, ``sim``,
``live`` and ``datasets convert`` run on the context directly;
``accuracy``, ``bound`` and the ``datasets`` registry record their wall
time under ``cli.*`` timers.

``--trace PATH`` (figures, ``all``, ``spec``, ``topk``, ``sim``,
``live``) records a hierarchical span trace of the run and writes Chrome
``trace_event`` JSON — open it in Perfetto or ``chrome://tracing`` to
see iterate → shard → top-k nesting; ``--trace-summary`` prints the
per-span-name total/self-time hot-path table instead of (or as well as)
the file.  ``--trace`` and ``--metrics`` compose in one run.

``--telemetry-dir DIR`` (same subcommands as ``--trace``) opens a
:class:`repro.runtime.TelemetrySession`: a background flusher exports
the run's metrics to ``DIR/metrics.prom`` (Prometheus text format) and
``DIR/metrics.jsonl`` (append-only time-series) every
``--flush-interval`` seconds with resource gauges (RSS, CPU, GC,
threads) sampled on the same cadence, retrieval calls slower than
``--slow-query-ms`` land in ``DIR/slow_queries.jsonl``, and any
``--slo`` objectives (repeatable, e.g.
``--slo 'p99(index.query_seconds) < 50ms'``) are evaluated at the end
into ``DIR/slo_report.json``.  A violated objective sets exit code 3.
``--slo`` also works without ``--telemetry-dir`` (report printed only).

All observability outputs — ``--metrics``, ``--trace``, telemetry — are
flushed on failure paths too: a run that raises or is cancelled
mid-sweep still writes its partial snapshots, so post-mortems have data.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NoReturn, Sequence

from repro.experiments.figures import (
    fig2_time_by_dataset,
    fig3_time_vs_k,
    fig4_time_vs_nb,
    fig5_time_vs_queries,
    fig6_memory_by_dataset,
    fig7_memory_vs_k,
    fig8_memory_vs_queries,
)
from repro.experiments.report import render_records
from repro.experiments.runner import ExperimentConfig
from repro.experiments.tables import accuracy_table, render_accuracy_table
from repro.runtime import (
    CheckpointManager,
    Deadline,
    ExecutionContext,
    IndexUnavailableError,
    MemoryBudget,
    Metrics,
    RetryPolicy,
    SLObjective,
    SLOTracker,
    TelemetrySession,
    Tracer,
    render_slo_report,
    render_trace_summary,
)

__all__ = ["main"]

_FIGURES: dict[str, tuple[Callable, str, str, str]] = {
    # name -> (driver, sweep column, metric, description)
    "fig2": (fig2_time_by_dataset, "dataset", "time", "time by dataset"),
    "fig3": (fig3_time_vs_k, "k", "time", "time vs iterations k"),
    "fig4": (fig4_time_vs_nb, "n_b", "time", "time vs |V_B|"),
    "fig5": (fig5_time_vs_queries, "q_a", "time", "time vs query size"),
    "fig6": (fig6_memory_by_dataset, "dataset", "memory", "memory by dataset"),
    "fig7": (fig7_memory_vs_k, "k", "memory", "memory vs iterations k"),
    "fig8": (fig8_memory_vs_queries, "q_a", "memory", "memory vs query size"),
}

# The shared flags, keyed by argparse dest: (option strings,
# add_argument keywords).  A command's flag list names single flags or
# the _GROUPS that travel together.
_FLAGS: dict[str, tuple[tuple[str, ...], dict]] = {
    "scale": (("--scale",), dict(
        default="tiny", choices=("tiny", "small", "medium"),
        help="dataset scale profile (default: tiny)",
    )),
    "seed": (("--seed",), dict(
        type=int, default=7, help="random seed (default: 7)",
    )),
    "dataset": (("--dataset",), dict(
        default="HP", help="dataset key (default: %(default)s)",
    )),
    "iterations": (("--iterations", "-k"), dict(
        type=int, default=None,
        help="iterations K (default: %(default)s; None means the scale "
        "profile's K, which keeps 2^K below the scaled |V_B| as in the "
        "paper's regime)",
    )),
    "algorithms": (("--algorithms",), dict(
        default=None,
        help="comma-separated competitor subset, e.g. 'GSim+,GSim' "
        "(default: all six)",
    )),
    "deadline": (("--deadline",), dict(
        type=float, default=20.0,
        help="per-cell wall-clock budget in seconds (default: 20)",
    )),
    "memory_budget_mib": (("--memory-budget-mib",), dict(
        type=float, default=256.0,
        help="per-cell memory budget in MiB (default: 256)",
    )),
    "metrics": (("--metrics",), dict(
        default=None, metavar="PATH",
        help="write the run's counter/timer/histogram tree as JSON to "
        "this path",
    )),
    "trace": (("--trace",), dict(
        default=None, metavar="PATH",
        help="record a hierarchical span trace and write Chrome "
        "trace_event JSON to this path (open in Perfetto or "
        "chrome://tracing)",
    )),
    "trace_summary": (("--trace-summary",), dict(
        action="store_true",
        help="print a per-span-name total/self-time table after the run",
    )),
    "telemetry_dir": (("--telemetry-dir",), dict(
        default=None, metavar="DIR",
        help="export operational telemetry under DIR during the run: "
        "metrics.prom (Prometheus text format) + metrics.jsonl "
        "(append-only time-series) flushed periodically with process "
        "resource gauges, and slow_queries.jsonl for retrieval calls "
        "over the --slow-query-ms threshold",
    )),
    "flush_interval": (("--flush-interval",), dict(
        type=float, default=5.0, metavar="SEC",
        help="telemetry flush cadence in seconds (default: 5)",
    )),
    "slow_query_ms": (("--slow-query-ms",), dict(
        type=float, default=100.0, metavar="MS",
        help="latency threshold for the slow-query log in milliseconds "
        "(default: 100)",
    )),
    "slo": (("--slo",), dict(
        action="append", default=None, metavar="SPEC",
        help="declare a service-level objective evaluated against the "
        "run's final metrics, e.g. 'p99(index.query_seconds) < 50ms' "
        "or 'error_rate(index.query) < 0.1%%'; repeatable; a "
        "violation sets exit code 3",
    )),
    "retries": (("--retries",), dict(
        type=int, default=0, metavar="N",
        help="retry transient failures up to N extra times with backoff; "
        "cells that keep failing are quarantined as structured ERROR "
        "records (default: 0 — fail fast)",
    )),
    "checkpoint_dir": (("--checkpoint-dir",), dict(
        default=None, metavar="DIR",
        help="persist progress under DIR (a run journal for sweeps, "
        "iteration snapshots for factor builds) so an interrupted run "
        "can be resumed with --resume",
    )),
    "resume": (("--resume",), dict(
        action="store_true",
        help="resume from the state in --checkpoint-dir: completed sweep "
        "cells are replayed, interrupted factor builds restart from "
        "their last valid snapshot",
    )),
    "workers": (("--workers",), dict(
        type=int, default=1, metavar="N",
        help="worker threads for sharded kernels and independent sweep "
        "cells (default: 1 — fully serial; results are identical for "
        "every N)",
    )),
    "backend": (("--backend",), dict(
        choices=("thread", "process"), default="thread",
        help="worker backend for the sharded kernels: 'thread' (default) "
        "shares memory, 'process' ships (path, row-range) shard "
        "descriptors to pool processes — GIL-free compute for "
        "mmap-converted graphs; results are bit-identical either way",
    )),
    "precision": (("--precision",), dict(
        default="float64", choices=("float64", "float32"),
        help="factor dtype for GSim+ (default: %(default)s): float64 is "
        "exact, float32 halves memory bandwidth on the SpMM / scan hot "
        "loops",
    )),
    "recompress_tol": (("--recompress-tol",), dict(
        type=float, default=None, metavar="TOL",
        help="enable rank-bounded factor recompression between doubling "
        "steps at relative Frobenius tolerance TOL (e.g. 1e-8); width is "
        "then bounded by numerical rank instead of 2^k (default: off — "
        "exact doubling)",
    )),
}

_GROUPS: dict[str, tuple[str, ...]] = {
    "data": ("scale", "seed"),
    "sweep": ("iterations", "algorithms", "deadline", "memory_budget_mib"),
    "observe": (
        "metrics", "trace", "trace_summary", "telemetry_dir",
        "flush_interval", "slow_query_ms", "slo",
    ),
    "resilience": ("retries", "checkpoint_dir", "resume"),
    "solver": ("workers", "precision", "recompress_tol"),
}


def _expand(names: Sequence[str]) -> list[str]:
    """Flag dests of ``names``, each a group of ``_GROUPS`` or one flag."""
    return [dest for name in names for dest in _GROUPS.get(name, (name,))]


@dataclass(frozen=True)
class _Command:
    """One subcommand: help text, the shared flags its handler reads,
    its own arguments, and per-command flag defaults."""

    help: str
    flags: tuple[str, ...]
    handler: Callable[[argparse.Namespace, ExecutionContext], None]
    arguments: Callable[[argparse.ArgumentParser], None] | None = None
    defaults: dict = field(default_factory=dict)


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _retry_policy(args: argparse.Namespace):
    """The --retries policy; ``None`` (fail fast) at the default 0."""
    return RetryPolicy(max_attempts=args.retries + 1) if args.retries > 0 else None


def _resilience(args: argparse.Namespace, journal_name: str):
    """``(journal, retry_policy)`` of a sweep; each ``None`` when off."""
    journal = None
    if args.checkpoint_dir:
        from repro.experiments.journal import RunJournal

        journal = RunJournal(
            Path(args.checkpoint_dir) / f"{journal_name}-journal.jsonl",
            resume=args.resume,
        )
    return journal, _retry_policy(args)


def _solver(args: argparse.Namespace) -> dict:
    """The solver-group flags as GSim+ keyword arguments."""
    return dict(
        max_workers=args.workers,
        precision=args.precision,
        recompress_tol=args.recompress_tol,
    )


def _observers(context: ExecutionContext) -> dict:
    """The run context's observers as sweep keyword arguments."""
    return dict(
        tracer=context.tracer,
        metrics_sink=context.metrics,
        slow_queries=context.slow_queries,
    )


class _CliTelemetry:
    """The --telemetry-dir/--slo lifecycle of one CLI run.

    Owns the run's :class:`repro.runtime.Metrics` sink (``self.metrics``)
    plus, under --telemetry-dir, the
    :class:`repro.runtime.TelemetrySession` exporting it.  Without
    either flag it records into the sink and :meth:`close` does nothing.
    """

    def __init__(self, args: argparse.Namespace):
        self.metrics = Metrics()
        self.session = None
        self.slow_queries = None
        try:
            self.objectives = [SLObjective.parse(raw) for raw in args.slo or ()]
        except ValueError as exc:
            _usage_error(str(exc))
        if args.telemetry_dir:
            self.session = TelemetrySession(
                args.telemetry_dir,
                self.metrics,
                interval_seconds=args.flush_interval,
                slow_query_threshold=args.slow_query_ms / 1000.0,
                objectives=self.objectives,
            ).start()
            self.slow_queries = self.session.slow_queries

    def close(self) -> int:
        """Final flush + SLO verdicts; returns 3 on a violated SLO."""
        reports = None
        if self.session is not None:
            reports = self.session.close()
            print(f"telemetry written to {self.session.directory}")
        elif self.objectives:
            reports = SLOTracker(self.objectives).evaluate(self.metrics.snapshot())
        if reports:
            print(render_slo_report(reports))
            if any(not report.ok for report in reports):
                print("error: SLO violated", file=sys.stderr)
                return 3
        return 0


def _finish(args: argparse.Namespace, context: ExecutionContext) -> int:
    """Emit the --metrics / --trace / --trace-summary outputs.

    All three compose in one run; the exit code is non-zero when any
    requested artifact could not be written.
    """
    code = 0
    if args.metrics:
        try:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                json.dump(context.snapshot(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print(
                f"error: cannot write metrics to {args.metrics}: {exc}",
                file=sys.stderr,
            )
            code = 1
        else:
            print(f"metrics written to {args.metrics}")
    if args.trace:
        try:
            context.tracer.write_chrome_trace(args.trace)
        except OSError as exc:
            print(
                f"error: cannot write trace to {args.trace}: {exc}",
                file=sys.stderr,
            )
            code = 1
        else:
            print(
                f"trace written to {args.trace} "
                f"({len(context.tracer.spans())} spans; open in Perfetto)"
            )
    if args.trace_summary:
        print(render_trace_summary(context.tracer))
    return code


def _run(command: _Command, args: argparse.Namespace) -> int:
    """Run one subcommand's handler under the shared lifecycle.

    Builds the tracer (live only under --trace/--trace-summary), the
    telemetry and one :class:`ExecutionContext` carrying both.  If the
    handler raises, the partial --metrics/--trace/telemetry outputs are
    flushed before the exception propagates.  Otherwise returns the
    worse of the SLO and output-writing exit codes.
    """
    if args.resume and not args.checkpoint_dir:
        _usage_error("--resume requires --checkpoint-dir")
    telemetry = _CliTelemetry(args)
    context = ExecutionContext(
        tracer=Tracer() if args.trace or args.trace_summary else None,
        metrics=telemetry.metrics,
        slow_queries=telemetry.slow_queries,
    )
    try:
        command.handler(args, context)
    except BaseException:
        # Best effort: nothing here may mask the run's own failure.
        with contextlib.suppress(Exception):
            _finish(args, context)
        with contextlib.suppress(Exception):
            telemetry.close()
        raise
    slo_code = telemetry.close()
    return max(slo_code, _finish(args, context))


# ----------------------------------------------------------------------
# Handlers: each reads exactly the flags its table entry declares.
# ----------------------------------------------------------------------
def _figure(
    name: str,
    args: argparse.Namespace,
    context: ExecutionContext,
    journal,
    retry_policy,
) -> str:
    """Run one figure's sweep under ``context``; returns its table."""
    driver, column, metric, description = _FIGURES[name]
    guards = dict(
        memory_budget=MemoryBudget(int(args.memory_budget_mib * 1024 * 1024)),
        deadline=Deadline(limit_seconds=args.deadline),
        journal=journal,
        retry_policy=retry_policy,
        **_solver(args),
        **_observers(context),
    )
    if args.iterations is None:
        config = ExperimentConfig.for_scale(args.scale, seed=args.seed, **guards)
    else:
        config = ExperimentConfig(
            scale=args.scale, iterations=args.iterations, seed=args.seed, **guards
        )
    kwargs = {} if column == "dataset" else {"dataset": args.dataset}
    if args.algorithms:
        kwargs["algorithms"] = tuple(
            token.strip() for token in args.algorithms.split(",") if token.strip()
        )
    hits_before = journal.hits if journal is not None else 0
    records = driver(config, **kwargs)
    title = f"Figure {name[3:]} — {description} (scale={args.scale})"
    rendered = render_records(records, column_key=column, metric=metric, title=title)
    if journal is not None:
        replayed = journal.hits - hits_before
        rendered += (
            f"\n[{replayed}/{len(records)} cells replayed from "
            f"{journal.path}]"
        )
    return rendered


def _run_figure(args: argparse.Namespace, context: ExecutionContext) -> None:
    print(_figure(args.command, args, context, *_resilience(args, args.command)))


def _run_all(args: argparse.Namespace, context: ExecutionContext) -> None:
    journal, retry_policy = _resilience(args, "all")
    for name in _FIGURES:
        print(_figure(name, args, context, journal, retry_policy))
        print()
    print(render_accuracy_table(accuracy_table(scale=args.scale, seed=args.seed)))


def _run_accuracy(args: argparse.Namespace, context: ExecutionContext) -> None:
    with context.metrics.time("cli.accuracy"):
        table = accuracy_table(dataset=args.dataset, scale=args.scale, seed=args.seed)
    print(render_accuracy_table(table))
    print(
        f"max |GSim+ err - GSim err| = {table.max_equivalence_gap():.3e} "
        "(Theorem 3.1 predicts 0)"
    )


def _run_bound(args: argparse.Namespace, context: ExecutionContext) -> None:
    from repro.experiments.tables import error_bound_table, render_error_bound_table

    with context.metrics.time("cli.bound"):
        table = error_bound_table(dataset=args.dataset, seed=args.seed)
    print(render_error_bound_table(table))


def _run_topk(args: argparse.Namespace, context: ExecutionContext) -> None:
    from repro.core import top_k_pairs
    from repro.graphs import load_dataset_pair

    graph_a, graph_b = load_dataset_pair(args.dataset, scale=args.scale, seed=args.seed)
    iterations = args.iterations
    if iterations is None:
        iterations = ExperimentConfig.for_scale(args.scale).iterations
    pairs = top_k_pairs(
        graph_a, graph_b, args.top, iterations=iterations, context=context,
        backend=args.backend, **_solver(args),
    )
    print(f"top-{args.top} pairs on {graph_a.name} (K={iterations}):")
    for pair in pairs:
        print(
            f"  G_A {pair.node_a:>7}  ~  G_B {pair.node_b:>6}"
            f"   score {pair.score:.5f}"
        )


def _run_sim(args: argparse.Namespace, context: ExecutionContext) -> None:
    import numpy as np

    from repro.core import top_k_pairs
    from repro.core.gsim_plus import gsim_plus
    from repro.graphs import MmapCSRGraph, convert_edge_list, read_edge_list

    def _load_graph(source: str):
        path = Path(source)
        if (path / "manifest.json").exists():
            return MmapCSRGraph(path)
        if args.mmap_dir is None:
            return read_edge_list(path, relabel=args.relabel)
        return convert_edge_list(
            path, Path(args.mmap_dir) / path.stem, context=context
        )

    graph_a = _load_graph(args.graph_a)
    graph_b = _load_graph(args.graph_b)
    print(f"G_A = {graph_a}")
    print(f"G_B = {graph_b}")
    solver = dict(context=context, backend=args.backend, **_solver(args))
    retry_policy = _retry_policy(args)

    def _with_retries(compute, what: str, on_retry=None):
        if retry_policy is None:
            return compute()
        return retry_policy.call(compute, what=what, on_retry=on_retry)

    if args.top is not None:
        pairs = _with_retries(
            lambda: top_k_pairs(
                graph_a, graph_b, args.top, iterations=args.iterations, **solver
            ),
            "sim topk",
        )
        for pair in pairs:
            print(f"  {pair.node_a}\t{pair.node_b}\t{pair.score:.6f}")
        return

    def _parse_queries(raw: str | None) -> list[int] | None:
        if raw is None:
            return None
        return [int(token) for token in raw.split(",") if token.strip()]

    checkpoints = None
    if args.checkpoint_dir:
        checkpoints = CheckpointManager(Path(args.checkpoint_dir), prefix="sim")
    resume_from = {"manager": checkpoints if args.resume else None}

    def _on_retry(attempt: int, exc: BaseException) -> None:
        # A failed attempt may still have snapshotted progress; pick up
        # from the last valid checkpoint rather than iteration zero.
        resume_from["manager"] = checkpoints

    result = _with_retries(
        lambda: gsim_plus(
            graph_a,
            graph_b,
            iterations=args.iterations,
            queries_a=_parse_queries(args.queries_a),
            queries_b=_parse_queries(args.queries_b),
            normalization="global",
            checkpoints=checkpoints,
            resume_from=resume_from["manager"],
            **solver,
        ),
        "sim",
        _on_retry,
    )
    if args.output:
        np.savetxt(args.output, result.similarity, delimiter=",", fmt="%.8g")
        print(f"{result.similarity.shape} block written to {args.output}")
    else:
        with np.printoptions(precision=4, suppress=True, threshold=400):
            print(result.similarity)


def _run_live(args: argparse.Namespace, context: ExecutionContext) -> None:
    """A seeded writer/reader replay against a lifecycle-managed
    session, reporting how the chosen policy behaved."""
    import numpy as np

    from repro.dynamic import DynamicGraph, SimilaritySession, StalenessBudget
    from repro.graphs import load_dataset_pair

    base_a, base_b = load_dataset_pair(args.dataset, scale=args.scale, seed=args.seed)
    graph_a = DynamicGraph(base_a.num_nodes)
    graph_a.add_edges([(s, d) for s, d, _ in base_a.edges()])
    graph_b = DynamicGraph(base_b.num_nodes)
    graph_b.add_edges([(s, d) for s, d, _ in base_b.edges()])

    budget = None
    if (
        args.max_version_lag is not None
        or args.max_age_seconds is not None
        or args.max_edge_delta is not None
    ):
        budget = StalenessBudget(
            max_version_lag=args.max_version_lag,
            max_age_seconds=args.max_age_seconds,
            max_edge_delta=args.max_edge_delta,
        )
    rng = np.random.default_rng(args.seed)
    served = shed = 0
    with SimilaritySession(
        graph_a,
        graph_b,
        iterations=args.iterations,
        context=context,
        policy=args.policy,
        staleness_budget=budget,
        eager_rebuild=args.eager,
        checkpoint_dir=Path(args.checkpoint_dir) if args.checkpoint_dir else None,
        **_solver(args),
    ) as session:
        print(f"G_A = {graph_a}")
        print(f"G_B = {graph_b}")
        session.refresh()  # generation 1, built before the stream
        total = args.mutations + args.queries
        plan = rng.permutation([True] * args.mutations + [False] * args.queries)
        for is_mutation in plan:
            if is_mutation:
                while True:
                    src = int(rng.integers(graph_a.num_nodes))
                    dst = int(rng.integers(graph_a.num_nodes))
                    if src != dst and not graph_a.has_edge(src, dst):
                        break
                graph_a.add_edge(src, dst)
            else:
                node = int(rng.integers(graph_a.num_nodes))
                try:
                    session.query_info([node], [0])
                except IndexUnavailableError:
                    shed += 1
                else:
                    served += 1
        # Settle: one final synchronous rebuild so the closing state
        # is fresh and the chain is fully installed.
        session.refresh()
        stats = session.stats
        health = session.health()
        print(
            f"\nreplayed {total} events "
            f"({args.mutations} mutations, {args.queries} queries) "
            f"under policy={args.policy!r}"
        )
        print(f"  served {served} queries ({stats.stale_served} stale), shed {shed}")
        print(
            f"  {stats.recomputes} rebuilds installed, "
            f"{health['generations_built']} generations built, "
            f"live generation {health['live_generation']} "
            f"(fingerprint {health['live_fingerprint'][:12]})"
        )
        print(
            f"  breaker {health['breaker']}, "
            f"degraded={health['degraded']}, "
            f"rejected mutations: {graph_a.rejected_mutations}"
        )


def _run_spec(args: argparse.Namespace, context: ExecutionContext) -> None:
    import dataclasses

    from repro.experiments.export import write_csv
    from repro.experiments.spec import ExperimentSpec, run_spec

    journal, retry_policy = _resilience(args, "spec")
    spec = ExperimentSpec.from_json(args.spec_path)
    # An explicit flag overrides the spec file's precision policy.
    overrides = {"precision": args.precision, "recompress_tol": args.recompress_tol}
    spec = dataclasses.replace(
        spec, **{key: value for key, value in overrides.items() if value is not None}
    )
    records = run_spec(
        spec, journal=journal, retry_policy=retry_policy,
        max_workers=args.workers, **_observers(context),
    )
    if journal is not None:
        print(f"[{journal.hits}/{len(records)} cells replayed from {journal.path}]")
    column = "dataset" if spec.sweep_axis is None else {
        "iterations": "k",
        "query_size": "q_a",
        "sample_size": "n_b",
    }[spec.sweep_axis]
    print(
        render_records(records, column_key=column, metric=args.metric, title=spec.name)
    )
    if args.export_csv:
        write_csv(records, args.export_csv)
        print(f"records written to {args.export_csv}")


def _run_datasets(args: argparse.Namespace, context: ExecutionContext) -> None:
    from repro.graphs import convert_edge_list

    if args.datasets_command == "convert":
        out_dir = Path(args.out_dir)
        graph = convert_edge_list(
            Path(args.edge_list),
            out_dir,
            mode=args.mode,
            comment=args.comment,
            name=args.name,
            resume=not args.no_resume,
            context=context,
        )
        on_disk = sum(
            item.stat().st_size for item in out_dir.iterdir() if item.is_file()
        )
        print(f"converted {args.edge_list} -> {out_dir}")
        print(
            f"  {graph.name}: {graph.num_nodes:,} nodes, "
            f"{graph.num_edges:,} edges, {on_disk:,} bytes on disk "
            f"({graph.resident_bytes():,} resident)"
        )
        return
    from repro.experiments.report import render_table
    from repro.graphs import DATASETS, degree_statistics, load_dataset

    rows = []
    for key in sorted(DATASETS):
        spec = DATASETS[key]
        with context.metrics.time("cli.datasets"):
            graph = load_dataset(key, scale=args.scale, seed=args.seed)
            stats = degree_statistics(graph)
        rows.append(
            [
                key,
                f"{spec.paper_nodes:,}",
                f"{spec.paper_edges:,}",
                f"{spec.edge_ratio:.1f}",
                f"{graph.num_nodes:,}",
                f"{graph.num_edges:,}",
                f"{graph.average_degree:.1f}",
                f"{stats.gini:.2f}",
            ]
        )
    print(
        render_table(
            [
                "key", "paper n", "paper m", "paper m/n",
                f"{args.scale} n", f"{args.scale} m", "m/n", "gini",
            ],
            rows,
            title=f"Simulated dataset registry (scale={args.scale})",
        )
    )


# ----------------------------------------------------------------------
# Each subcommand's own arguments
# ----------------------------------------------------------------------
def _topk_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--top", type=int, default=10, help="number of pairs")


def _sim_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "graph_a", help="edge-list file or mmap-CSR artifact directory for G_A"
    )
    sub.add_argument(
        "graph_b", help="edge-list file or mmap-CSR artifact directory for G_B"
    )
    sub.add_argument(
        "--queries-a", default=None,
        help="comma-separated G_A node ids (default: all nodes)",
    )
    sub.add_argument(
        "--queries-b", default=None,
        help="comma-separated G_B node ids (default: all nodes)",
    )
    sub.add_argument(
        "--top", type=int, default=None,
        help="instead of the block, print the top-N pairs",
    )
    loading = sub.add_mutually_exclusive_group()
    loading.add_argument(
        "--relabel", action="store_true",
        help="accept arbitrary node tokens (relabelled to 0..n-1)",
    )
    loading.add_argument(
        "--mmap-dir", default=None, metavar="DIR",
        help="operate out-of-core: convert each edge list into an "
        "mmap-CSR artifact under DIR (reused on later runs) and compute "
        "from the memory maps; incompatible with --relabel (streaming "
        "conversion needs integer node ids)",
    )
    sub.add_argument(
        "--output", default=None, help="write the block as CSV to this path"
    )


def _live_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--policy", default="serve_stale",
        choices=("block", "serve_stale", "shed"),
        help="what queries do while a rebuild is pending "
        "(default: serve_stale)",
    )
    sub.add_argument(
        "--mutations", type=int, default=60, metavar="N",
        help="edge mutations to replay (default: 60)",
    )
    sub.add_argument(
        "--queries", type=int, default=120, metavar="N",
        help="queries to interleave with the stream (default: 120)",
    )
    sub.add_argument(
        "--max-version-lag", type=int, default=None, metavar="N",
        help="staleness budget: max graph versions a served generation "
        "may lag (default: unbounded)",
    )
    sub.add_argument(
        "--max-age-seconds", type=float, default=None, metavar="SEC",
        help="staleness budget: max wall-clock age of a stale generation",
    )
    sub.add_argument(
        "--max-edge-delta", type=int, default=None, metavar="N",
        help="staleness budget: max edge mutations since the served "
        "generation was built",
    )
    sub.add_argument(
        "--eager", action="store_true",
        help="enqueue rebuilds at write time instead of first-query time",
    )
    sub.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="checkpoint rebuilds under DIR so killed builds resume",
    )


def _spec_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("spec_path", help="path to the JSON experiment spec")
    sub.add_argument(
        "--metric", default="time", choices=("time", "memory"),
        help="metric to tabulate (default: time)",
    )
    sub.add_argument(
        "--export-csv", default=None, help="also write the records to this CSV"
    )


def _datasets_arguments(sub: argparse.ArgumentParser) -> None:
    convert = sub.add_subparsers(
        dest="datasets_command", required=False, metavar="{convert}"
    ).add_parser(
        "convert",
        help="convert an edge-list file into an out-of-core mmap-CSR "
        "artifact directory (atomic, checksummed, crash-resumable)",
    )
    convert.add_argument("edge_list", help="edge-list file (src dst [weight])")
    convert.add_argument("out_dir", help="artifact directory to create")
    mode = convert.add_mutually_exclusive_group()
    mode.add_argument(
        "--strict", dest="mode", action="store_const", const="strict",
        help="raise on any malformed line (default)",
    )
    mode.add_argument(
        "--lenient", dest="mode", action="store_const", const="lenient",
        help="skip malformed lines with one counted warning",
    )
    convert.set_defaults(mode="strict")
    convert.add_argument(
        "--comment", default="#", metavar="PREFIX",
        help="comment-line prefix (default: '#')",
    )
    convert.add_argument(
        "--name", default=None, help="graph name recorded in the manifest"
    )
    convert.add_argument(
        "--no-resume", action="store_true",
        help="discard any partial progress instead of resuming it",
    )


_SWEEP = ("data", "sweep", "observe", "resilience", "solver")

_COMMANDS: dict[str, _Command] = {
    **{
        name: _Command(
            f"Figure {name[3:]}: {description}",
            _SWEEP if column == "dataset" else _SWEEP + ("dataset",),
            _run_figure,
            defaults={"dataset": "EE"},
        )
        for name, (_, column, _, description) in _FIGURES.items()
    },
    "accuracy": _Command(
        "§5.2.3 accuracy table (GSim+/GSim vs GSVD ranks)",
        ("data", "dataset", "metrics"),
        _run_accuracy,
    ),
    "bound": _Command(
        "Theorem 4.2 validation: measured error vs spectral bound",
        ("seed", "dataset", "metrics"),
        _run_bound,
    ),
    # The figures run on their default dataset; `all` has no --dataset.
    "all": _Command(
        "regenerate every figure and the accuracy table",
        _SWEEP,
        _run_all,
        defaults={"dataset": "EE"},
    ),
    "topk": _Command(
        "retrieve the k most similar cross-graph pairs",
        ("data", "dataset", "iterations", "observe", "solver", "backend"),
        _run_topk,
        _topk_arguments,
    ),
    "datasets": _Command(
        "show the simulated dataset registry and statistics",
        ("data", "metrics"),
        _run_datasets,
        _datasets_arguments,
    ),
    "sim": _Command(
        "compute GSim+ similarities between two edge-list files",
        ("iterations", "observe", "resilience", "solver", "backend"),
        _run_sim,
        _sim_arguments,
        defaults={"iterations": 10},
    ),
    "live": _Command(
        "replay a seeded mutation stream against a live similarity "
        "session: background rebuilds, atomic generation swaps, and a "
        "block/serve_stale/shed serving policy",
        ("data", "dataset", "iterations", "observe", "solver"),
        _run_live,
        _live_arguments,
        defaults={"iterations": 6},
    ),
    "spec": _Command(
        "run a declarative experiment from a JSON spec file; "
        "--precision/--recompress-tol override the file's values",
        ("observe", "resilience", "solver"),
        _run_spec,
        _spec_arguments,
        defaults={"precision": None},
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsimplus",
        description="Regenerate the figures and tables of the GSim+ paper "
        "(EDBT 2024) on simulated, scale-reduced datasets.",
    )
    # The lifecycle reads these on every run; a subcommand without them
    # sees them off.
    parser.set_defaults(**{
        dest: _FLAGS[dest][1].get("default", False)
        for dest in _expand(("observe", "resilience"))
    })
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=command.help)
        if command.arguments is not None:
            command.arguments(sub)
        for dest in _expand(command.flags):
            option_strings, options = _FLAGS[dest]
            sub.add_argument(*option_strings, **options)
        sub.set_defaults(**command.defaults)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return _run(_COMMANDS[args.command], args)


if __name__ == "__main__":
    sys.exit(main())
