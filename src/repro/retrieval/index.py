"""The GSimIndex: build once, persist, and serve retrievals.

Wraps the lower-level pieces (:class:`repro.core.gsim_plus.GSimPlus`,
:class:`repro.core.embeddings.LowRankFactors`,
:mod:`repro.core.serialization`, :mod:`repro.core.topk`) behind one
object with a stable on-disk format that records how the index was built
(iteration count, graph sizes, library version), so a served score can
always be traced back to its construction parameters.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core.batch import BatchQueryEngine
from repro.core.embeddings import LowRankFactors, TruncationInfo
from repro.core.gsim_plus import GSimPlus
from repro.core.topk import ScoredPair, scan_top_pairs
from repro.graphs.graph import Graph
from repro.runtime import NULL_CONTEXT, ExecutionContext, WorkerPool
from repro.runtime.errors import CorruptArtifactError
from repro.runtime.resilience import (
    CheckpointManager,
    atomic_write,
    content_checksum,
)
from repro.utils.validation import check_positive_integer

__all__ = ["GSimIndex", "IndexMetadata"]

# v2 added ``build_metrics``; v3 added the precision policy and
# recompression provenance.  Older files load with the new fields
# defaulted (float64, no recompression).
_METADATA_VERSION = 3


@dataclass(frozen=True)
class IndexMetadata:
    """Provenance recorded alongside the factors."""

    n_a: int
    n_b: int
    m_a: int
    m_b: int
    iterations: int
    graph_a_name: str
    graph_b_name: str
    content_prior: bool
    metadata_version: int = _METADATA_VERSION
    build_metrics: dict | None = None
    precision: str = "float64"
    recompress_tol: float | None = None
    truncation: dict | None = None


class GSimIndex:
    """A built GSim+ similarity index over one graph pair.

    Construct with :meth:`build` (from graphs) or :meth:`load` (from
    disk).

    Examples
    --------
    >>> from repro.graphs import Graph
    >>> a = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    >>> b = Graph.from_edges(3, [(0, 1), (1, 2)])
    >>> index = GSimIndex.build(a, b, iterations=6)
    >>> index.query([0, 1], [0]).shape
    (2, 1)
    >>> index.top_matches(0, k=2)[0].node_a
    0
    """

    def __init__(self, factors: LowRankFactors, metadata: IndexMetadata) -> None:
        self._factors = factors
        self._metadata = metadata
        self._engine = BatchQueryEngine(factors, normalization="global")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph_a: Graph,
        graph_b: Graph,
        iterations: int = 10,
        initial_factors: tuple[np.ndarray, np.ndarray] | None = None,
        context: ExecutionContext | None = None,
        checkpoints: CheckpointManager | str | Path | None = None,
        checkpoint_every: int = 1,
        resume_from: CheckpointManager | str | Path | None = None,
        recompress_tol: float | None = None,
        precision: str = "float64",
        max_workers: int | None = None,
        backend: str = "thread",
    ) -> "GSimIndex":
        """Iterate GSim+ (QR-compressed cap, so the result stays factored)
        and wrap the final factors.

        ``recompress_tol`` enables rank-bounded recompression between
        doubling steps and ``precision`` selects the factor dtype; both
        are recorded in the metadata so a served score can be traced back
        to its accuracy/precision envelope.

        Build-time counters (spmm calls, per-iteration widths, bytes held)
        are recorded in a fresh :class:`repro.runtime.ExecutionContext`
        when none is passed, and persisted in
        :attr:`IndexMetadata.build_metrics` either way — so a served score
        can be traced back to the run that produced the factors.

        ``checkpoints`` / ``checkpoint_every`` / ``resume_from`` forward
        to :meth:`GSimPlus.iterate`, so an interrupted multi-hour build
        restarts at its last snapshotted iteration instead of from
        scratch.  ``max_workers`` forwards to the solver's worker pool
        (row-sharded SpMM; results are bit-identical at every count) and
        ``backend`` selects thread or process workers — the process
        backend ships (path, row-range) shard descriptors, which lets a
        build over :class:`repro.graphs.mmap_csr.MmapCSRGraph` inputs
        run GIL-free without copying the graphs anywhere.
        """
        iterations = check_positive_integer(iterations, "iterations")
        context = context or ExecutionContext()
        solver = GSimPlus(
            graph_a,
            graph_b,
            rank_cap="qr-compress",
            initial_factors=initial_factors,
            recompress_tol=recompress_tol,
            precision=precision,
            max_workers=max_workers,
            backend=backend,
        )
        state = None
        with context.metrics.time("index.build"), context.tracer.span(
            "index.build", iterations=iterations
        ):
            for state in solver.iterate(
                iterations,
                context=context,
                checkpoints=checkpoints,
                checkpoint_every=checkpoint_every,
                resume_from=resume_from,
            ):
                pass
        assert state is not None and state.factors is not None
        metadata = IndexMetadata(
            n_a=graph_a.num_nodes,
            n_b=graph_b.num_nodes,
            m_a=graph_a.num_edges,
            m_b=graph_b.num_edges,
            iterations=iterations,
            graph_a_name=graph_a.name,
            graph_b_name=graph_b.name,
            content_prior=initial_factors is not None,
            build_metrics=context.metrics.snapshot(),
            precision=precision,
            recompress_tol=recompress_tol,
            truncation=(
                state.factors.truncation.to_dict()
                if state.factors.truncation is not None
                else None
            ),
        )
        return cls(state.factors, metadata)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Atomically write factors + metadata to one ``.npz``.

        The write goes to a sibling temp file published with
        ``os.replace`` and embeds a SHA-256 content checksum, so a crash
        mid-save never clobbers a good index and a garbled file is
        detected on load rather than served.
        """
        path = Path(path)
        content = {
            "u": self._factors.u,
            "v": self._factors.v,
            "log_scale": np.float64(self._factors.log_scale),
            "dtype": np.str_(self._factors.dtype.name),
            "metadata_json": json.dumps(asdict(self._metadata)),
        }
        digest = content_checksum(content)
        with atomic_write(path) as tmp:
            with open(tmp, "wb") as handle:
                np.savez_compressed(
                    handle,
                    u=content["u"],
                    v=content["v"],
                    log_scale=content["log_scale"],
                    dtype=content["dtype"],
                    metadata_json=np.str_(content["metadata_json"]),
                    checksum=np.str_(digest),
                )

    @classmethod
    def load(cls, path: str | Path) -> "GSimIndex":
        """Restore and verify an index written by :meth:`save`.

        Raises ``ValueError`` on missing arrays or a newer metadata
        version than this library understands, and
        :class:`repro.runtime.CorruptArtifactError` when the file is
        unreadable or fails its checksum — rebuild the index with
        :meth:`build` in that case.
        """
        path = Path(path)
        wanted = {"u", "v", "log_scale", "dtype", "metadata_json", "checksum"}
        try:
            with np.load(path, allow_pickle=False) as archive:
                arrays = {
                    name: archive[name].copy()
                    for name in archive.files
                    if name in wanted
                }
        except FileNotFoundError:
            raise
        except Exception as exc:  # truncated zip, bad CRC, bad header...
            raise CorruptArtifactError(
                f"cannot read GSimIndex file {path} ({exc}); the artifact "
                "is corrupt — rebuild it with GSimIndex.build",
                path=str(path),
            ) from exc
        missing = {"u", "v", "log_scale", "metadata_json"} - set(arrays)
        if missing:
            raise ValueError(
                f"{path} is not a GSimIndex file (missing {sorted(missing)})"
            )
        if "checksum" in arrays:
            content = {
                "u": arrays["u"],
                "v": arrays["v"],
                "log_scale": arrays["log_scale"],
                "metadata_json": str(arrays["metadata_json"]),
            }
            if "dtype" in arrays:
                content["dtype"] = arrays["dtype"]
            if content_checksum(content) != str(arrays["checksum"]):
                raise CorruptArtifactError(
                    f"checksum mismatch in GSimIndex file {path}; the "
                    "artifact is corrupt — rebuild it with GSimIndex.build",
                    path=str(path),
                )
        raw = json.loads(str(arrays["metadata_json"]))
        if raw.get("metadata_version", 0) > _METADATA_VERSION:
            raise ValueError(
                f"{path} was written by a newer library "
                f"(metadata v{raw['metadata_version']})"
            )
        metadata = IndexMetadata(**raw)
        if "dtype" in arrays:
            declared = np.dtype(str(arrays["dtype"]))
            for name in ("u", "v"):
                if arrays[name].dtype != declared:
                    raise ValueError(
                        f"{path} declares dtype {declared.name} but array "
                        f"'{name}' is {arrays[name].dtype.name}; the "
                        "artifact is inconsistent — rebuild it with "
                        "GSimIndex.build"
                    )
            dtype = declared
        else:
            # pre-v3 indexes predate the precision policy: float64 only.
            dtype = np.dtype(np.float64)
        truncation = (
            TruncationInfo.from_dict(metadata.truncation)
            if metadata.truncation is not None
            else None
        )
        factors = LowRankFactors(
            arrays["u"],
            arrays["v"],
            float(arrays["log_scale"]),
            dtype=dtype,
            truncation=truncation,
        )
        return cls(factors, metadata)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    @property
    def metadata(self) -> IndexMetadata:
        """How this index was built."""
        return self._metadata

    @property
    def factors(self) -> LowRankFactors:
        """The served factor pair (immutable; shared, not copied).

        Exposed for layers that compose indexes rather than querying
        them one block at a time — the live-index lifecycle fingerprints
        and leases whole generations through this.
        """
        return self._factors

    @property
    def shape(self) -> tuple[int, int]:
        """``(n_A, n_B)`` of the indexed similarity."""
        return self._factors.shape

    def memory_bytes(self) -> int:
        """Bytes held by the factor arrays."""
        return self._factors.memory_bytes()

    def query(
        self,
        queries_a: np.ndarray | list[int],
        queries_b: np.ndarray | list[int],
        context: ExecutionContext | None = None,
    ) -> np.ndarray:
        """A globally-normalised similarity block.

        With a context, each call records one ``index.query`` span (the
        result-cell count as an attribute) and its latency in the
        ``index.query_seconds`` histogram — the per-query p50/p99 any
        serving deployment steers by — plus ``index.query.requests`` /
        ``index.query.errors`` counters (the error-rate SLO inputs).  A
        call above the latency threshold of an attached
        :class:`repro.runtime.telemetry.SlowQueryLog` additionally lands
        in the slow-query ring with its cell count, factor width, and
        trace span id.
        """
        context = context or NULL_CONTEXT
        start = time.perf_counter()
        failed = False
        span = None
        try:
            with context.tracer.span("index.query") as span:
                block = self._engine.query(queries_a, queries_b, context=context)
                span.set_attribute("cells", int(block.size))
                return block
        except BaseException:
            failed = True
            raise
        finally:
            duration = time.perf_counter() - start
            context.metrics.observe_histogram("index.query_seconds", duration)
            context.metrics.increment("index.query.requests")
            if failed:
                context.metrics.increment("index.query.errors")
            if context.slow_queries is not None:
                context.slow_queries.maybe_record(
                    "index.query",
                    duration,
                    width=self._factors.width,
                    span_id=getattr(span, "span_id", None),
                    error=failed,
                )

    def top_matches(
        self, node_a: int, k: int = 10, context: ExecutionContext | None = None
    ) -> list[ScoredPair]:
        """The ``k`` best G_B matches for one G_A node."""
        k = check_positive_integer(k, "k")
        if not (0 <= node_a < self.shape[0]):
            raise IndexError(f"node {node_a} out of range")
        row = self.query([node_a], np.arange(self.shape[1]), context=context)[0]
        order = np.argsort(-row, kind="stable")[: min(k, row.size)]
        return [
            ScoredPair(node_a=node_a, node_b=int(col), score=float(row[col]))
            for col in order
        ]

    def query_many(
        self,
        requests,
        max_workers=None,
        context: ExecutionContext | None = None,
    ) -> list[np.ndarray]:
        """Answer many query blocks, optionally across a worker pool.

        Results come back in request order for every worker count.  Each
        request goes through :meth:`query`, so every block contributes
        one ``index.query`` span and one ``index.query_seconds``
        observation; the batch as a whole records an ``index.query_many``
        span under which worker-shard spans stitch.
        """
        request_list = list(requests)
        if isinstance(max_workers, int) and max_workers < 1:
            max_workers = 1  # historical "0 means serial" tolerance
        pool = WorkerPool.resolve(max_workers)
        context = context or NULL_CONTEXT
        start = time.perf_counter()
        with context.tracer.span("index.query_many") as span:
            span.set_attribute("requests", len(request_list))
            try:
                return pool.map(
                    lambda request: self.query(
                        request[0], request[1], context=context
                    ),
                    request_list,
                    context=context,
                    what="index query blocks",
                )
            finally:
                duration = time.perf_counter() - start
                context.metrics.observe_histogram(
                    "index.query_many_seconds", duration
                )
                if context.slow_queries is not None:
                    context.slow_queries.maybe_record(
                        "index.query_many",
                        duration,
                        requests=len(request_list),
                        workers=pool.max_workers,
                        width=self._factors.width,
                        span_id=getattr(span, "span_id", None),
                    )

    def top_pairs(
        self,
        k: int = 10,
        block_rows: int = 1024,
        context: ExecutionContext | None = None,
        max_workers=None,
    ) -> list[ScoredPair]:
        """The ``k`` globally best pairs, scanned under bounded memory.

        Scores are globally normalised (entries of the unit-Frobenius
        matrix); ties break by lowest ``node_a`` then ``node_b``, and the
        result is identical for every ``max_workers`` (and for every
        ``block_rows`` up to last-bit rounding of the scores).
        """
        context = context or NULL_CONTEXT
        start = time.perf_counter()
        with context.tracer.span("index.top_pairs") as span:
            span.set_attribute("k", k)
            try:
                return scan_top_pairs(
                    self._factors,
                    k,
                    block_rows=block_rows,
                    context=context,
                    max_workers=max_workers,
                    score_scale=1.0 / self._engine.global_norm,
                )
            finally:
                duration = time.perf_counter() - start
                context.metrics.observe_histogram(
                    "index.top_pairs_seconds", duration
                )
                if context.slow_queries is not None:
                    context.slow_queries.maybe_record(
                        "index.top_pairs",
                        duration,
                        k=int(k),
                        block_rows=int(block_rows),
                        workers=WorkerPool.resolve(max_workers).max_workers,
                        width=self._factors.width,
                        span_id=getattr(span, "span_id", None),
                    )

    def __repr__(self) -> str:
        return (
            f"GSimIndex(shape={self.shape}, iterations={self._metadata.iterations}, "
            f"graphs=({self._metadata.graph_a_name!r}, "
            f"{self._metadata.graph_b_name!r}))"
        )
