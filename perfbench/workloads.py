"""The benchmark workloads, driven through ``repro``'s public API.

Each workload is a closed loop run by one client thread with no think
time.  A workload generates its inputs from the seed, then exposes the
steps :mod:`run` times:

* ``setup`` — edge-list files to a servable index (one repetition);
* ``top_pairs`` — one ``top_pairs(k=100)`` on the served factors, in
  ``TOP_PAIRS_BLOCK_ROWS``-row blocks;
* ``serve`` — the query loop, while a caller-given condition holds;
* ``check_top_pairs`` (and ``check_final`` for the live workload) — the
  output checks that need the whole run;
* ``solver`` — the ``GSimPlus`` solver the traced run steps through.

Every step takes ``spans`` (a :class:`tracing.SpanRecorder` or
``NULL_SPANS``) and ``context`` (None in the end-to-end pass, an
``ExecutionContext(metrics=Metrics())`` in the traced pass).
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs
from repro import ExecutionContext, GSimIndex, GSimPlus, LowRankFactors, Metrics
from repro.dynamic import DynamicGraph, SimilaritySession
from repro.graphs import MmapCSRGraph, convert_edge_list, read_edge_list
from repro.runtime import WorkerPool

ITERATIONS = 6
TOP_K = 100
MATCH_K = 10
RECOMPRESS_TOL = 1e-6
# The scan's default 1024-row blocks are, against an 8192-node B, fresh
# 32 MiB allocations whose page faults dominate the scan, and cost more or
# less depending on whether the kernel backs them with transparent huge
# pages: the same scan took 2.9 s in one process and 4.9 s in another.
# 64-row blocks (2 MiB) stay within a core's L2 and reuse their memory:
# 1.5-1.6 s either way.
TOP_PAIRS_BLOCK_ROWS = 64


def traced_context() -> ExecutionContext:
    return ExecutionContext(metrics=Metrics())


def clocks() -> tuple[float, float]:
    """Wall and process CPU time now, to time one call with both."""
    return time.perf_counter(), time.process_time()


@dataclass
class ServeStats:
    """Latencies (seconds) of one serve loop and how far it got."""

    queries: list[float] = field(default_factory=list)  # process CPU time
    queries_wall: list[float] = field(default_factory=list)
    matches: list[float] = field(default_factory=list)
    writes: list[float] = field(default_factory=list)
    fresh: list[float] = field(default_factory=list)
    operations: int = 0
    rounds: int = 0
    errors: list[str] = field(default_factory=list)

    def query_done(self, started: tuple[float, float]) -> None:
        wall, cpu = clocks()
        self.queries_wall.append(wall - started[0])
        self.queries.append(cpu - started[1])


def _expect_ranking(checker, got, scores_row, k, what) -> None:
    """``got``: [(b, score)] from a per-node ranking; ``scores_row``: the
    normalised row it ranks."""
    order = np.argsort(-scores_row, kind="stable")[:k]
    want = [(0, int(b), float(scores_row[b])) for b in order]
    checker.mismatch(
        checks.same_ranking(
            [(0, b, s) for b, s in got], want, lambda _, b: float(scores_row[b])
        ),
        what,
    )


class Workload:
    name = ""
    workers = 1  # the most program workers any step uses
    top_pairs_workers = 1
    setup_reps = 3
    min_rounds = 0  # write rounds an end-to-end run must reach

    def __init__(self, work: Path, seed: int, checker: checks.Checker) -> None:
        self.work = work
        self.seed = seed
        self.checker = checker
        self._rep = 0
        self._reference: tuple[np.ndarray, np.ndarray] | None = None

    def rep_dir(self) -> Path:
        self._rep += 1
        path = self.work / f"rep{self._rep}"
        path.mkdir()
        return path

    def release(self, handle) -> None:
        """Free what one setup repetition holds (untimed)."""

    def reference(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact factors of the generated pair, built without the program."""
        if self._reference is None:
            self._reference = checks.reference_factors(
                self.a.num_nodes, self.a.load(), self.b.num_nodes, self.b.load(),
                ITERATIONS,
            )
        return self._reference

    def check_top_pairs(self, handle, pairs) -> None:
        """Exact builds: ids and scores equal the reference top-k."""
        u, v = self.reference()
        scale = 1.0 / checks.frobenius(u, v)
        floor = checks.kth_floor(u, v, [(p.node_a, p.node_b) for p in pairs], TOP_K)
        scores, rows, cols = checks.reference_top_pairs(u, v, TOP_K, floor)
        want = [(int(a), int(b), float(s) * scale) for s, a, b in zip(scores, rows, cols)]
        got = [(p.node_a, p.node_b, p.score) for p in pairs]
        self.checker.mismatch(
            checks.same_ranking(got, want, lambda a, b: float(u[a] @ v[b]) * scale),
            f"{self.name} top_pairs vs reference",
        )

    def check_repeat(self, handle, pairs, first) -> None:
        """A timed ``top_pairs`` call returns what the warm-up call did."""
        self.checker.expect(pairs == first, f"{self.name} top_pairs differs from its first call")

    def check_final(self, handle) -> None:
        """Checks on the state the serve loop left behind."""


# ----------------------------------------------------------------------
# Static index workload: GSimIndex built once, then scanned and queried
# ----------------------------------------------------------------------
@dataclass
class StaticHandle:
    index: GSimIndex
    pool: WorkerPool | None = None
    graphs: tuple = ()
    root: Path | None = None


class ErRecompressMmap(Workload):
    name = "er-recompress-mmap"
    workers = 2
    top_pairs_workers = 2

    def generate(self) -> None:
        n_a, n_b = 1 << 17, 1 << 13
        self.a = inputs.write_edge_list(
            self.work, "er_a",
            *inputs.er_edges(inputs.rng_for(self.seed, inputs.STREAM_GRAPH_A), n_a, 1_000_000),
        )
        self.b = inputs.write_edge_list(
            self.work, "er_b",
            *inputs.er_edges(inputs.rng_for(self.seed, inputs.STREAM_GRAPH_B), n_b, 60_000),
        )
        self._queries()

    def _queries(self) -> None:
        rng = inputs.rng_for(self.seed, inputs.STREAM_QUERIES)
        # 128x512 blocks: the product dominates a query, and the result
        # (512 KiB) stays well inside a core's 4 MiB L2.  With 64x256
        # blocks per-call overhead dominated and the median moved between
        # processes on the same input (75-93 us); 256x1024 results (2 MiB,
        # two live per query) filled the L2 and the median moved with
        # where their pages landed (1011-1373 us over four runs).
        self.blocks = inputs.query_blocks(rng, self.a, self.b, 128, 128, 512)
        self.match_nodes = inputs.degree_biased(rng, self.a.degree, 128)

    def factors(self, handle: StaticHandle) -> LowRankFactors:
        return handle.index.factors

    def top_pairs(self, handle: StaticHandle, spans, context):
        with spans.span("retrieval.index.GSimIndex.top_pairs"):
            return handle.index.top_pairs(
                k=TOP_K, block_rows=TOP_PAIRS_BLOCK_ROWS,
                max_workers=self.top_pairs_workers, context=context,
            )

    def serve(self, handle, spans, context, keep_going, stats: ServeStats) -> None:
        """Closed loop: 7 query blocks, then one ``top_matches``, repeated
        while ``keep_going(stats)``; samples accumulate in ``stats``."""
        index = handle.index
        factors = index.factors
        norm = factors.frobenius_norm(include_scale=False)
        while keep_going(stats):
            i = stats.operations
            if i % 8 == 7:
                node = int(self.match_nodes[(i // 8) % self.match_nodes.size])
                start = time.perf_counter()
                try:
                    with spans.span("retrieval.index.GSimIndex.top_matches"):
                        got = index.top_matches(node, k=MATCH_K, context=context)
                except Exception as exc:  # counted, the loop goes on
                    stats.errors.append(f"top_matches({node}): {exc!r}")
                else:
                    stats.matches.append(time.perf_counter() - start)
                    if (i // 8) % 16 == 0:
                        row = factors.query_block(
                            [node], np.arange(factors.shape[1]), include_scale=False
                        )[0] / norm
                        _expect_ranking(
                            self.checker,
                            [(p.node_b, p.score) for p in got],
                            row,
                            MATCH_K,
                            f"top_matches({node})",
                        )
            else:
                rows, cols = self.blocks[i % len(self.blocks)]
                started = clocks()
                try:
                    with spans.span("retrieval.index.GSimIndex.query"):
                        block = index.query(rows, cols, context=context)
                except Exception as exc:
                    stats.errors.append(f"query block {i}: {exc!r}")
                else:
                    stats.query_done(started)
                    if i % 64 == 0:
                        want = factors.query_block(rows, cols, include_scale=False) / norm
                        self.checker.expect(
                            np.allclose(block, want, rtol=checks.EXACT_RTOL, atol=0.0),
                            f"query block {i} differs from query_block",
                        )
            stats.operations += 1

    def setup(self, spans, context) -> StaticHandle:
        root = self.rep_dir()
        with spans.span("graphs.mmap_csr.convert_edge_list"):
            convert_edge_list(self.a.path, root / "a")
        with spans.span("graphs.mmap_csr.convert_edge_list"):
            convert_edge_list(self.b.path, root / "b")
        with spans.span("graphs.mmap_csr.MmapCSRGraph.load"):
            graph_a = MmapCSRGraph.load(root / "a", verify=True)
        with spans.span("graphs.mmap_csr.MmapCSRGraph.load"):
            graph_b = MmapCSRGraph.load(root / "b", verify=True)
        # The pool is what build(max_workers=2, backend="process") would
        # create; holding it lets the benchmark stop its processes.
        pool = WorkerPool(max_workers=2, backend="process")
        with spans.span("retrieval.index.GSimIndex.build"):
            index = GSimIndex.build(
                graph_a, graph_b, iterations=ITERATIONS, recompress_tol=RECOMPRESS_TOL,
                backend="process", max_workers=pool, context=context,
            )
        return StaticHandle(index, pool=pool, graphs=(graph_a, graph_b), root=root)

    def release(self, handle: StaticHandle) -> None:
        handle.pool.shutdown()
        handle.graphs = ()
        shutil.rmtree(handle.root, ignore_errors=True)

    def solver(self, handle: StaticHandle) -> GSimPlus:
        return GSimPlus(
            *handle.graphs, rank_cap="qr-compress", recompress_tol=RECOMPRESS_TOL,
            max_workers=handle.pool, backend="process",
        )

    def check_top_pairs(self, handle: StaticHandle, pairs) -> None:
        """Recompressed scores stay within ``tol * ||Z||_F`` of the exact
        reference: per returned pair, and rank by rank against the exact
        top-k (an entrywise error bound moves the i-th largest value by
        no more than that bound)."""
        graph_a, graph_b = handle.graphs
        self.checker.expect(
            (graph_a.num_nodes, graph_a.num_edges, graph_b.num_nodes, graph_b.num_edges)
            == (self.a.num_nodes, self.a.num_edges, self.b.num_nodes, self.b.num_edges),
            "mmap graphs match the edge lists",
        )
        u, v = self.reference()
        scale = 1.0 / checks.frobenius(u, v)
        floor = checks.kth_floor(u, v, [(p.node_a, p.node_b) for p in pairs], TOP_K)
        scores, _, _ = checks.reference_top_pairs(u, v, TOP_K, floor)
        worst = 0.0
        for rank, pair in enumerate(pairs):
            exact = float(u[pair.node_a] @ v[pair.node_b]) * scale
            worst = max(worst, abs(pair.score - exact), abs(pair.score - scores[rank] * scale))
        self.checker.expect(
            len(pairs) == TOP_K and worst <= RECOMPRESS_TOL,
            f"{self.name} top_pairs: {len(pairs)} pairs, worst score error "
            f"{worst:.3g} (bound {RECOMPRESS_TOL})",
        )


# ----------------------------------------------------------------------
# Live workload: writes and reads interleaved through a SimilaritySession
# ----------------------------------------------------------------------
@dataclass
class LiveHandle:
    session: SimilaritySession
    graph_a: DynamicGraph
    graph_b: DynamicGraph


class LiveMixed(Workload):
    name = "live-mixed"
    queries_per_round = 128
    matches_per_round = 4
    min_rounds = 8  # fresh-query and write samples per end-to-end run
    batches = 160

    def generate(self) -> None:
        a_src, a_dst = inputs.rmat_edges(
            inputs.rng_for(self.seed, inputs.STREAM_GRAPH_A), 15, 200_000
        )
        self.a = inputs.write_edge_list(self.work, "live_a", a_src, a_dst)
        self.b = inputs.write_edge_list(
            self.work, "live_b",
            *inputs.rmat_edges(inputs.rng_for(self.seed, inputs.STREAM_GRAPH_B), 12, 30_000),
        )
        rng = inputs.rng_for(self.seed, inputs.STREAM_QUERIES)
        self.blocks = inputs.query_blocks(rng, self.a, self.b, 128, 8, 32)
        self.match_nodes = inputs.degree_biased(rng, self.a.degree, 128)
        self.writes = inputs.new_edge_batches(
            inputs.rng_for(self.seed, inputs.STREAM_WRITES),
            a_src, a_dst, self.a.num_nodes, self.batches, 64,
        )

    def setup(self, spans, context) -> LiveHandle:
        with spans.span("graphs.io.read_edge_list"):
            graph_a = read_edge_list(self.a.path)
        with spans.span("graphs.io.read_edge_list"):
            graph_b = read_edge_list(self.b.path)
        with spans.span("dynamic.graph.DynamicGraph"):
            dynamic_a = DynamicGraph(graph_a.num_nodes, graph_a.edges())
            dynamic_b = DynamicGraph(graph_b.num_nodes, graph_b.edges())
        del graph_a, graph_b
        session = SimilaritySession(
            dynamic_a, dynamic_b, iterations=ITERATIONS, policy="block", context=context
        )
        with spans.span("dynamic.session.SimilaritySession.query"):
            session.query(*self.blocks[0])
        self._next_batch = 0
        self._checked = None  # (generation ordinal, top_pairs) last checked in full
        return LiveHandle(session, dynamic_a, dynamic_b)

    def release(self, handle: LiveHandle) -> None:
        handle.session.close()

    def factors(self, handle: LiveHandle) -> LowRankFactors:
        return handle.session.lifecycle.live_generation.factors

    def top_pairs(self, handle: LiveHandle, spans, context):
        with spans.span("dynamic.lifecycle.lease"), handle.session.lifecycle.lease(
            "block"
        ) as lease:
            with spans.span("retrieval.index.GSimIndex.top_pairs"):
                return lease.index.top_pairs(
                    k=TOP_K, block_rows=TOP_PAIRS_BLOCK_ROWS, context=context
                )

    def check_repeat(self, handle: LiveHandle, pairs, first) -> None:
        """Writes move the graph between calls, so each call is checked
        against the exact top-k of the generation that served it."""
        generation = handle.session.lifecycle.live_generation
        if self._checked is not None and self._checked[0] == generation.ordinal:
            self.checker.expect(
                pairs == self._checked[1], f"{self.name} top_pairs differs on one generation"
            )
            return
        self._checked = (generation.ordinal, pairs)
        factors = generation.factors
        u, v = factors.u, factors.v
        scale = 1.0 / factors.frobenius_norm(include_scale=False)
        floor = checks.kth_floor(u, v, [(p.node_a, p.node_b) for p in pairs], TOP_K)
        scores, rows, cols = checks.reference_top_pairs(u, v, TOP_K, floor)
        want = [(int(a), int(b), float(s) * scale) for s, a, b in zip(scores, rows, cols)]
        self.checker.mismatch(
            checks.same_ranking(
                [(p.node_a, p.node_b, p.score) for p in pairs], want,
                lambda a, b: float(u[a] @ v[b]) * scale,
            ),
            f"{self.name} top_pairs vs the served generation",
        )

    def write(self, handle: LiveHandle, spans) -> float:
        batch = self.writes[self._next_batch].tolist()
        self._next_batch += 1
        start = time.perf_counter()
        with spans.span("dynamic.graph.DynamicGraph.add_edges"):
            handle.graph_a.add_edges(batch)
        return time.perf_counter() - start

    def serve(self, handle, spans, context, keep_going, stats: ServeStats) -> None:
        """Rounds of: one write batch, the fresh query that waits for its
        rebuild, then steady query blocks and a few ``top_matches``,
        repeated while ``keep_going(stats)`` and write batches last."""
        session = handle.session
        while keep_going(stats) and self._next_batch < len(self.writes):
            try:
                stats.writes.append(self.write(handle, spans))
            except Exception as exc:
                stats.errors.append(f"add_edges round {stats.rounds}: {exc!r}")
            rows, cols = self.blocks[stats.rounds % len(self.blocks)]
            start = time.perf_counter()
            try:
                with spans.span("dynamic.session.SimilaritySession.query"):
                    session.query(rows, cols)
            except Exception as exc:
                stats.errors.append(f"fresh query round {stats.rounds}: {exc!r}")
            else:
                stats.fresh.append(time.perf_counter() - start)
            generation = session.lifecycle.live_generation
            self.checker.expect(
                generation.versions == (handle.graph_a.version, handle.graph_b.version),
                f"round {stats.rounds}: fresh query not served at the written version",
            )
            factors = generation.factors
            norm = factors.frobenius_norm(include_scale=False)
            for j in range(self.queries_per_round):
                rows, cols = self.blocks[(stats.rounds + j) % len(self.blocks)]
                started = clocks()
                try:
                    with spans.span("dynamic.session.SimilaritySession.query"):
                        block = session.query(rows, cols)
                except Exception as exc:
                    stats.errors.append(f"query round {stats.rounds}: {exc!r}")
                    continue
                stats.query_done(started)
                if j % 32 == 0:
                    want = factors.query_block(rows, cols, include_scale=False) / norm
                    self.checker.expect(
                        np.allclose(block, want, rtol=checks.EXACT_RTOL, atol=0.0),
                        f"round {stats.rounds}: session block differs from query_block",
                    )
            for j in range(self.matches_per_round):
                node = int(self.match_nodes[
                    (stats.rounds * self.matches_per_round + j) % self.match_nodes.size
                ])
                start = time.perf_counter()
                try:
                    with spans.span("dynamic.session.SimilaritySession.top_matches"):
                        got = session.top_matches(node, k=MATCH_K)
                except Exception as exc:
                    stats.errors.append(f"top_matches round {stats.rounds}: {exc!r}")
                    continue
                stats.matches.append(time.perf_counter() - start)
                if j == 0:
                    row = factors.query_block(
                        [node], np.arange(factors.shape[1]), include_scale=False
                    )[0] / norm
                    _expect_ranking(self.checker, got, row, MATCH_K, f"top_matches({node})")
            stats.operations += 2 + self.queries_per_round + self.matches_per_round
            stats.rounds += 1

    def check_final(self, handle: LiveHandle) -> None:
        """A block from the final generation equals a fresh build over the
        same graph snapshots."""
        session = handle.session
        rows, cols = self.blocks[1]
        served = session.query(rows, cols)
        fresh = GSimIndex.build(
            handle.graph_a.snapshot(), handle.graph_b.snapshot(), iterations=ITERATIONS
        )
        self.checker.expect(
            np.allclose(served, fresh.query(rows, cols), rtol=checks.EXACT_RTOL, atol=0.0),
            "final generation differs from a fresh build",
        )

    def solver(self, handle: LiveHandle) -> GSimPlus:
        return GSimPlus(
            handle.graph_a.snapshot(), handle.graph_b.snapshot(), rank_cap="qr-compress"
        )


WORKLOADS = {cls.name: cls for cls in (ErRecompressMmap, LiveMixed)}


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
