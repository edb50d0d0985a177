"""Out-of-core CSR graphs: ``np.memmap``-backed storage behind ``Graph``.

The paper's headline experiments run on billion-edge web crawls; holding
such a graph's CSR arrays (let alone building them from a raw edge list)
in RAM is exactly what this module avoids:

* :class:`MmapCSRGraph` — a :class:`repro.graphs.Graph` whose
  indptr/indices/data arrays (for both ``A`` and the precomputed ``A^T``)
  are read-only memory maps over an on-disk artifact.  Every algorithm
  above the ``Graph`` interface works unchanged; the OS pages CSR data in
  on demand and :meth:`release_pages` hands clean pages back mid-scan so
  resident memory tracks the *working set*, not the graph.
* :func:`convert_edge_list` — an atomic, checksummed, crash-resumable
  edge-list → artifact converter that reuses the strict/lenient parse
  modes of :mod:`repro.graphs.io` and the artifact conventions of
  :mod:`repro.runtime.resilience` (sibling-tmp + fsync + rename
  publishing, SHA-256 content checksums, a manifest written last).

Artifact layout (one directory per graph)::

    adj.indptr.bin    adj.indices.bin    adj.data.bin      # A
    adj_t.indptr.bin  adj_t.indices.bin  adj_t.data.bin    # A^T
    manifest.json       # dtypes, lengths, per-file SHA-256, written LAST
    progress.json       # conversion stage journal; deleted on completion

Arrays are raw native-endian buffers (dtype and length live in the
manifest), so a worker process can map any of them from an
(path, dtype, shape) descriptor without reading a header — the process
workspace of :mod:`repro.runtime.workspace` ships a mapped graph's
operands that way instead of copying them.

The converter runs in bounded memory: two streaming parse passes (count,
scatter), a block-wise canonicalisation pass (duplicates summed, stored
zeros dropped, rows sorted — the same canonical form
:class:`repro.graphs.Graph` enforces, so the mapped graph is
entry-for-entry bit-identical to an in-memory load of the same file), and
an out-of-core transpose.  Each stage publishes its outputs atomically
and journals completion in ``progress.json``; a crash — including an
injected :class:`repro.runtime.FaultInjector` fault at any
``context.checkpoint`` — resumes at the first incomplete stage.
"""

from __future__ import annotations

import hashlib
import json
import mmap as _mmap_module
import os
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.graphs.io import _MODES, _parse_lines, _SkipCounter, _warn_skips
from repro.runtime.context import NULL_CONTEXT, ExecutionContext
from repro.runtime.workspace import ArrayRef, CsrRef, csr_from_arrays
from repro.runtime.resilience import atomic_write, content_checksum
from repro.utils.memory import resident_nbytes

__all__ = ["MmapCSRGraph", "convert_edge_list"]

_FORMAT = "repro-mmap-csr-v1"
_ARRAY_NAMES = (
    "adj.indptr",
    "adj.indices",
    "adj.data",
    "adj_t.indptr",
    "adj_t.indices",
    "adj_t.data",
)
_VALUE_DTYPE = np.dtype(np.float64)


def _index_dtype(num_nodes: int, nnz: int) -> np.dtype:
    """int32 when every index fits (scipy's own choice), else int64."""
    if max(num_nodes, nnz) <= np.iinfo(np.int32).max:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def _file_sha256(path: Path, chunk: int = 1 << 22) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        while True:
            block = handle.read(chunk)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _write_array(path: Path, array: np.ndarray) -> None:
    """Publish ``array`` atomically as a raw buffer."""
    with atomic_write(path) as tmp:
        with tmp.open("wb") as handle:
            handle.write(np.ascontiguousarray(array).tobytes())


class _Progress:
    """The conversion stage journal (atomic ``progress.json``)."""

    def __init__(self, root: Path) -> None:
        self.path = root / "progress.json"
        self.stages: dict[str, dict] = {}
        if self.path.exists():
            try:
                raw = json.loads(self.path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                raw = {}
            if raw.get("format") == _FORMAT:
                self.stages = raw.get("stages", {})

    def done(self, stage: str) -> dict | None:
        return self.stages.get(stage)

    def complete(self, stage: str, meta: dict) -> None:
        self.stages[stage] = meta
        with atomic_write(self.path) as tmp:
            tmp.write_text(
                json.dumps({"format": _FORMAT, "stages": self.stages}, indent=2),
                encoding="utf-8",
            )

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)


class MmapCSRGraph(Graph):
    """A :class:`Graph` whose CSR arrays are read-only memory maps.

    Construct from a converted artifact directory (see
    :func:`convert_edge_list` / :meth:`from_graph`).  The full
    ``Graph`` API works unchanged; additionally:

    * :meth:`csr_ref` hands out the (path, dtype, shape) descriptors
      worker processes map the same files through (the process
      workspace derives the same descriptors from the mapped arrays,
      so a pool never receives pickled slices);
    * :meth:`release_pages` advises the kernel to drop the (clean) CSR
      pages, bounding resident memory during streaming scans;
    * :meth:`resident_bytes` reports the pages actually in RAM right
      now, which is what the memory ledger charges for mapped graphs.

    Examples
    --------
    >>> import tempfile
    >>> from repro.graphs import Graph
    >>> g = Graph.from_edges(3, [(0, 1), (1, 2)])
    >>> m = MmapCSRGraph.from_graph(g, tempfile.mkdtemp())
    >>> (m.num_nodes, m.num_edges) == (g.num_nodes, g.num_edges)
    True
    """

    __slots__ = ("_root", "_manifest", "_arrays")

    def __init__(self, root: str | Path, verify: bool = False) -> None:
        root = Path(root)
        manifest_path = root / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise FileNotFoundError(
                f"{root} is not a converted mmap-CSR artifact (no "
                "manifest.json; run convert_edge_list first)"
            ) from None
        if manifest.get("format") != _FORMAT:
            raise ValueError(
                f"{manifest_path} has format {manifest.get('format')!r}, "
                f"expected {_FORMAT!r}"
            )
        arrays: dict[str, np.ndarray] = {}
        for array_name in _ARRAY_NAMES:
            spec = manifest["arrays"][array_name]
            path = root / spec["file"]
            dtype = np.dtype(spec["dtype"])
            length = int(spec["length"])
            expected = dtype.itemsize * length
            actual = path.stat().st_size
            if actual != expected:
                raise ValueError(
                    f"{path} is {actual} bytes, manifest says {expected}; "
                    "artifact is truncated or stale"
                )
            if verify and length and _file_sha256(path) != spec["sha256"]:
                raise ValueError(f"{path} fails its manifest checksum")
            if length:
                arrays[array_name] = np.memmap(
                    path, dtype=dtype, mode="r", shape=(length,)
                )
            else:
                arrays[array_name] = np.empty(0, dtype=dtype)
        n = int(manifest["num_nodes"])
        # Bypass Graph.__init__: it would copy + re-canonicalise; the
        # artifact is canonical by construction and must stay mapped.
        self._adj, self._adj_t = (
            csr_from_arrays(
                arrays[f"{prefix}.indptr"],
                arrays[f"{prefix}.indices"],
                arrays[f"{prefix}.data"],
                (n, n),
            )
            for prefix in ("adj", "adj_t")
        )
        self._name = str(manifest.get("name", root.name))
        self._root = root
        self._manifest = manifest
        self._arrays = arrays

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, root: str | Path, verify: bool = False) -> "MmapCSRGraph":
        """Alias of the constructor, for symmetry with other artifacts."""
        return cls(root, verify=verify)

    @classmethod
    def from_graph(
        cls, graph: Graph, out_dir: str | Path, name: str | None = None
    ) -> "MmapCSRGraph":
        """Write an in-memory graph as an mmap artifact and map it back.

        The fast path for tests and benchmarks (no parsing); the arrays
        are written exactly as held, so the mapped graph's CSR entries
        are bit-identical to the source's.
        """
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        adj = graph.adjacency
        if not adj.has_sorted_indices:
            adj = adj.sorted_indices()
        adj_t = graph.adjacency_t
        if not adj_t.has_sorted_indices:
            adj_t = adj_t.sorted_indices()
        index_dtype = _index_dtype(graph.num_nodes, graph.num_edges)
        halves = {"adj": adj, "adj_t": adj_t}
        for prefix, matrix in halves.items():
            _write_array(
                out_dir / f"{prefix}.indptr.bin",
                matrix.indptr.astype(index_dtype, copy=False),
            )
            _write_array(
                out_dir / f"{prefix}.indices.bin",
                matrix.indices.astype(index_dtype, copy=False),
            )
            _write_array(
                out_dir / f"{prefix}.data.bin",
                matrix.data.astype(_VALUE_DTYPE, copy=False),
            )
        _publish_manifest(
            out_dir,
            name=name or graph.name,
            num_nodes=graph.num_nodes,
            nnz=graph.num_edges,
            index_dtype=index_dtype,
            source={"kind": "from_graph"},
        )
        return cls(out_dir)

    # ------------------------------------------------------------------
    # Out-of-core specifics
    # ------------------------------------------------------------------
    @property
    def root(self) -> Path:
        """The artifact directory this graph is mapped from."""
        return self._root

    def csr_ref(self, which: str = "adj") -> CsrRef:
        """Shard descriptor of ``A`` (``"adj"``) or ``A^T`` (``"adj_t"``)."""
        if which not in ("adj", "adj_t"):
            raise ValueError(f"which must be 'adj' or 'adj_t', got {which!r}")
        specs = self._manifest["arrays"]

        def _ref(part: str) -> ArrayRef:
            spec = specs[f"{which}.{part}"]
            return ArrayRef(
                path=str(self._root / spec["file"]),
                dtype=spec["dtype"],
                shape=(int(spec["length"]),),
            )

        n = self.num_nodes
        return CsrRef(
            indptr=_ref("indptr"),
            indices=_ref("indices"),
            data=_ref("data"),
            shape=(n, n),
        )

    def release_pages(self) -> None:
        """Advise the kernel to drop this graph's resident CSR pages.

        The mappings are read-only, so every page is clean and reloadable
        from disk; streaming scans call this between passes to keep the
        resident set at one window instead of the whole graph.
        """
        for array in self._arrays.values():
            mapping = getattr(array, "_mmap", None)
            if mapping is not None:
                try:
                    mapping.madvise(_mmap_module.MADV_DONTNEED)
                except (AttributeError, ValueError, OSError):  # pragma: no cover
                    return  # platform without madvise: RSS stays OS-managed

    def resident_bytes(self) -> int:
        """Bytes of CSR data currently resident in RAM (mincore probe)."""
        return sum(resident_nbytes(array) for array in self._arrays.values())

    def memory_bytes(self) -> int:
        """Virtual (fully-faulted) size of the mapped CSR structures.

        Deliberately the same definition as the in-memory ``Graph`` —
        what the graph *would* cost fully resident; the ledger charges
        :meth:`resident_bytes` instead for mapped graphs.
        """
        return super().memory_bytes()


# ----------------------------------------------------------------------
# Converter
# ----------------------------------------------------------------------
def _publish_manifest(
    root: Path,
    name: str,
    num_nodes: int,
    nnz: int,
    index_dtype: np.dtype,
    source: dict,
) -> None:
    """Checksum every array file and write ``manifest.json`` atomically.

    The manifest is written last, so its presence certifies a complete
    artifact; its own ``checksum`` field folds the per-file digests, so
    corruption of any component is detectable without re-hashing data.
    """
    arrays: dict[str, dict] = {}
    for array_name in _ARRAY_NAMES:
        path = root / f"{array_name}.bin"
        dtype = _VALUE_DTYPE if array_name.endswith(".data") else index_dtype
        size = path.stat().st_size
        if size % dtype.itemsize:
            raise ValueError(f"{path}: size {size} not a multiple of {dtype}")
        arrays[array_name] = {
            "file": path.name,
            "dtype": dtype.str,
            "length": size // dtype.itemsize,
            "sha256": _file_sha256(path),
        }
    manifest = {
        "format": _FORMAT,
        "name": name,
        "num_nodes": int(num_nodes),
        "nnz": int(nnz),
        "arrays": arrays,
        "source": source,
    }
    manifest["checksum"] = content_checksum(
        {array_name: spec["sha256"] for array_name, spec in arrays.items()}
        | {"num_nodes": int(num_nodes), "nnz": int(nnz)}
    )
    with atomic_write(root / "manifest.json") as tmp:
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")


def _iter_edge_chunks(
    path: Path,
    comment: str,
    mode: str,
    skips: _SkipCounter,
    chunk_edges: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Parse ``path`` into ``(src, dst, weight)`` array chunks.

    Wraps :func:`repro.graphs.io._parse_lines`, so strict/lenient line
    handling is byte-for-byte the one ``read_edge_list`` applies; the
    integer-id check mirrors ``_build_graph``'s non-relabelled branch.
    """
    sources = np.empty(chunk_edges, dtype=np.int64)
    targets = np.empty(chunk_edges, dtype=np.int64)
    weights = np.empty(chunk_edges, dtype=np.float64)
    filled = 0
    with path.open("r", encoding="utf-8") as handle:
        for lineno, src, dst, weight in _parse_lines(handle, comment, mode, skips):
            try:
                src_id, dst_id = int(src), int(dst)
            except ValueError:
                if mode == "lenient":
                    skips.skip(f"line {lineno}: non-integer node id {src!r}/{dst!r}")
                    continue
                raise ValueError(
                    f"line {lineno}: non-integer node id {src!r}/{dst!r}"
                ) from None
            if src_id < 0 or dst_id < 0:
                if mode == "lenient":
                    skips.skip(f"line {lineno}: negative node id")
                    continue
                raise ValueError(
                    f"line {lineno}: node ids must be non-negative"
                )
            sources[filled] = src_id
            targets[filled] = dst_id
            weights[filled] = weight
            filled += 1
            if filled == chunk_edges:
                yield sources[:filled], targets[:filled], weights[:filled]
                filled = 0
    if filled:
        yield sources[:filled], targets[:filled], weights[:filled]


def _count_stage(
    source: Path,
    root: Path,
    comment: str,
    mode: str,
    chunk_edges: int,
    context: ExecutionContext,
) -> dict:
    """Pass 1: out-degree counts -> raw indptr; node count; raw nnz."""
    skips = _SkipCounter()
    counts = np.zeros(1024, dtype=np.int64)
    max_id = -1
    nnz = 0
    for src, dst, _ in _iter_edge_chunks(source, comment, mode, skips, chunk_edges):
        context.checkpoint(f"mmap convert count @edge {nnz}")
        top = int(max(src.max(), dst.max()))
        max_id = max(max_id, top)
        if top >= counts.size:
            counts = np.concatenate(
                [counts, np.zeros(max(counts.size, top + 1 - counts.size), np.int64)]
            )
        counts += np.bincount(src, minlength=counts.size)
        nnz += src.size
    num_nodes = max_id + 1
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts[:num_nodes], out=indptr[1:])
    _write_array(root / "raw.indptr.bin", indptr)
    return {
        "num_nodes": num_nodes,
        "raw_nnz": nnz,
        "skipped": skips.skipped,
        "first_skip_reason": skips.first_reason,
    }


def _scatter_stage(
    source: Path,
    root: Path,
    comment: str,
    mode: str,
    chunk_edges: int,
    num_nodes: int,
    raw_nnz: int,
    context: ExecutionContext,
) -> None:
    """Pass 2: scatter (dst, weight) into per-row slots, file order kept."""
    indptr = np.fromfile(root / "raw.indptr.bin", dtype=np.int64)
    cursor = indptr[:-1].copy()
    skips = _SkipCounter()  # already warned about in pass 1
    with atomic_write(root / "raw.indices.bin") as tmp_idx, atomic_write(
        root / "raw.data.bin"
    ) as tmp_dat:
        indices = np.memmap(tmp_idx, dtype=np.int64, mode="w+", shape=(max(raw_nnz, 1),))
        data = np.memmap(tmp_dat, dtype=np.float64, mode="w+", shape=(max(raw_nnz, 1),))
        seen = 0
        for src, dst, weight in _iter_edge_chunks(
            source, comment, mode, skips, chunk_edges
        ):
            context.checkpoint(f"mmap convert scatter @edge {seen}")
            # Vectorised multi-scatter: group the chunk by source row
            # (stable, so file order within a row is preserved), then
            # place each group at its row cursor in one slice assignment.
            order = np.argsort(src, kind="stable")
            rows = src[order]
            boundaries = np.flatnonzero(np.diff(rows)) + 1
            groups = np.split(np.arange(rows.size), boundaries)
            for group in groups:
                row = int(rows[group[0]])
                at = cursor[row]
                indices[at : at + group.size] = dst[order[group]]
                data[at : at + group.size] = weight[order[group]]
                cursor[row] += group.size
            seen += src.size
        indices.flush()
        data.flush()
        del indices, data
        if raw_nnz == 0:
            # The placeholder element keeps np.memmap happy; truncate it.
            os.truncate(tmp_idx, 0)
            os.truncate(tmp_dat, 0)


def _canonical_stage(
    root: Path,
    num_nodes: int,
    raw_nnz: int,
    index_dtype: np.dtype,
    block_rows: int,
    context: ExecutionContext,
) -> int:
    """Block-wise canonicalisation into the final ``adj.*`` arrays.

    Per row block: duplicates summed, stored zeros dropped, columns
    sorted — the same canonical form ``Graph.__init__`` enforces (sum
    first, then eliminate, so duplicate groups summing to zero vanish
    exactly as they do on the in-memory path).  Rows are processed in
    ascending order, so the final arrays are written append-only.
    """
    raw_indptr = np.fromfile(root / "raw.indptr.bin", dtype=np.int64)
    raw_indices = (
        np.memmap(root / "raw.indices.bin", dtype=np.int64, mode="r")
        if raw_nnz
        else np.empty(0, dtype=np.int64)
    )
    raw_data = (
        np.memmap(root / "raw.data.bin", dtype=np.float64, mode="r")
        if raw_nnz
        else np.empty(0, dtype=np.float64)
    )
    final_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    nnz = 0
    with atomic_write(root / "adj.indices.bin") as tmp_idx, atomic_write(
        root / "adj.data.bin"
    ) as tmp_dat, tmp_idx.open("wb") as idx_handle, tmp_dat.open("wb") as dat_handle:
        for start in range(0, num_nodes, block_rows):
            stop = min(start + block_rows, num_nodes)
            context.checkpoint(f"mmap convert canonical @row {start}")
            lo, hi = int(raw_indptr[start]), int(raw_indptr[stop])
            block = sp.csr_matrix(
                (
                    np.array(raw_data[lo:hi]),  # writable copies: the raw
                    np.array(raw_indices[lo:hi]),  # maps are read-only
                    raw_indptr[start : stop + 1] - lo,
                ),
                shape=(stop - start, num_nodes),
            )
            block.sum_duplicates()
            block.eliminate_zeros()
            block.sort_indices()
            idx_handle.write(
                block.indices.astype(index_dtype, copy=False).tobytes()
            )
            dat_handle.write(
                block.data.astype(_VALUE_DTYPE, copy=False).tobytes()
            )
            final_indptr[start + 1 : stop + 1] = nnz + block.indptr[1:]
            nnz += int(block.nnz)
    _write_array(root / "adj.indptr.bin", final_indptr.astype(index_dtype))
    return nnz


def _transpose_stage(
    root: Path,
    num_nodes: int,
    nnz: int,
    index_dtype: np.dtype,
    block_rows: int,
    context: ExecutionContext,
) -> None:
    """Out-of-core ``A^T`` from the canonical ``A``.

    Scanning canonical rows in ascending order and appending each entry
    at its column's cursor yields transpose rows that are already sorted
    and duplicate-free — no second canonicalisation pass needed.
    """
    indptr = np.fromfile(root / "adj.indptr.bin", dtype=index_dtype).astype(np.int64)
    indices = (
        np.memmap(root / "adj.indices.bin", dtype=index_dtype, mode="r")
        if nnz
        else np.empty(0, dtype=index_dtype)
    )
    data = (
        np.memmap(root / "adj.data.bin", dtype=_VALUE_DTYPE, mode="r")
        if nnz
        else np.empty(0, dtype=_VALUE_DTYPE)
    )
    in_degrees = np.bincount(
        np.asarray(indices, dtype=np.int64), minlength=num_nodes
    )
    indptr_t = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(in_degrees, out=indptr_t[1:])
    cursor = indptr_t[:-1].copy()
    with atomic_write(root / "adj_t.indices.bin") as tmp_idx, atomic_write(
        root / "adj_t.data.bin"
    ) as tmp_dat:
        indices_t = np.memmap(
            tmp_idx, dtype=index_dtype, mode="w+", shape=(max(nnz, 1),)
        )
        data_t = np.memmap(
            tmp_dat, dtype=_VALUE_DTYPE, mode="w+", shape=(max(nnz, 1),)
        )
        for start in range(0, num_nodes, block_rows):
            stop = min(start + block_rows, num_nodes)
            context.checkpoint(f"mmap convert transpose @row {start}")
            lo, hi = int(indptr[start]), int(indptr[stop])
            if hi == lo:
                continue
            cols = np.asarray(indices[lo:hi], dtype=np.int64)
            vals = np.asarray(data[lo:hi])
            rows = np.repeat(
                np.arange(start, stop, dtype=np.int64),
                np.diff(indptr[start : stop + 1]),
            )
            # Stable sort by column; ranks within each column group give
            # collision-free slots even with duplicate columns per chunk.
            order = np.argsort(cols, kind="stable")
            sorted_cols = cols[order]
            uniques, counts = np.unique(sorted_cols, return_counts=True)
            group_starts = np.cumsum(counts) - counts
            within = np.arange(sorted_cols.size) - np.repeat(group_starts, counts)
            slots = np.repeat(cursor[uniques], counts) + within
            indices_t[slots] = rows[order]
            data_t[slots] = vals[order]
            cursor[uniques] += counts
        indices_t.flush()
        data_t.flush()
        del indices_t, data_t
        if nnz == 0:
            os.truncate(tmp_idx, 0)
            os.truncate(tmp_dat, 0)
    _write_array(root / "adj_t.indptr.bin", indptr_t.astype(index_dtype))


def convert_edge_list(
    source: str | Path,
    out_dir: str | Path,
    mode: str = "strict",
    comment: str = "#",
    name: str | None = None,
    chunk_edges: int = 1 << 20,
    block_rows: int = 1 << 16,
    resume: bool = True,
    context: ExecutionContext | None = None,
) -> MmapCSRGraph:
    """Convert an edge-list file into an mmap-CSR artifact directory.

    Parameters
    ----------
    source:
        Edge-list file (``src dst [weight]`` per line, SNAP-style
        ``#`` comments); node ids must be non-negative integers (use
        :func:`repro.graphs.read_edge_list` with ``relabel=True`` for
        arbitrary tokens — relabelling needs a token table, which
        defeats streaming).
    mode:
        ``"strict"`` (default) raises on any malformed line;
        ``"lenient"`` skips malformed lines and emits one counted
        ``RuntimeWarning`` — the exact semantics of
        :func:`repro.graphs.io.read_edge_list`.
    chunk_edges, block_rows:
        Streaming granularity of the parse passes and the
        canonicalise/transpose passes; peak memory is
        ``O(num_nodes + chunk_edges + block nnz)``, never ``O(nnz)``.
    resume:
        When True (default) a partially-converted directory continues
        from its first incomplete stage (journalled in
        ``progress.json``); when False any prior progress is discarded.
    context:
        Optional :class:`repro.runtime.ExecutionContext`; the converter
        checkpoints per chunk (label ``"mmap convert <stage>"``), so
        deadlines, cancellation, and injected faults stop it between
        chunks — and the atomic stage publishing guarantees a later
        ``resume=True`` call completes with a bit-identical artifact.

    Returns the mapped :class:`MmapCSRGraph`.  Idempotent: a directory
    whose manifest already exists is just loaded back.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    context = context or NULL_CONTEXT
    source = Path(source)
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    if (root / "manifest.json").exists():
        return MmapCSRGraph(root)
    progress = _Progress(root)
    if not resume:
        progress.stages = {}
        progress.clear()

    def _metric(event: str, value: int = 1) -> None:
        context.metrics.increment(f"mmap_convert.{event}", value)

    count_meta = progress.done("count")
    if count_meta is None:
        count_meta = _count_stage(source, root, comment, mode, chunk_edges, context)
        if count_meta["skipped"]:
            skips = _SkipCounter()
            skips.skipped = count_meta["skipped"]
            skips.first_reason = count_meta.get("first_skip_reason")
            _warn_skips(skips, str(source))
        progress.complete("count", count_meta)
        _metric("stages_run")
    else:
        _metric("stages_resumed")
    num_nodes = int(count_meta["num_nodes"])
    raw_nnz = int(count_meta["raw_nnz"])
    index_dtype = _index_dtype(num_nodes, raw_nnz)

    if progress.done("scatter") is None:
        _scatter_stage(
            source, root, comment, mode, chunk_edges, num_nodes, raw_nnz, context
        )
        progress.complete("scatter", {})
        _metric("stages_run")
    else:
        _metric("stages_resumed")

    canonical_meta = progress.done("canonical")
    if canonical_meta is None:
        nnz = _canonical_stage(
            root, num_nodes, raw_nnz, index_dtype, block_rows, context
        )
        canonical_meta = {"nnz": nnz}
        progress.complete("canonical", canonical_meta)
        _metric("stages_run")
    else:
        _metric("stages_resumed")
    nnz = int(canonical_meta["nnz"])

    if progress.done("transpose") is None:
        _transpose_stage(root, num_nodes, nnz, index_dtype, block_rows, context)
        progress.complete("transpose", {})
        _metric("stages_run")
    else:
        _metric("stages_resumed")

    context.checkpoint("mmap convert manifest")
    _publish_manifest(
        root,
        name=name or source.stem,
        num_nodes=num_nodes,
        nnz=nnz,
        index_dtype=index_dtype,
        source={
            "kind": "edge_list",
            "path": str(source),
            "mode": mode,
            "skipped_lines": int(count_meta["skipped"]),
        },
    )
    for stale in ("raw.indptr.bin", "raw.indices.bin", "raw.data.bin"):
        (root / stale).unlink(missing_ok=True)
    progress.clear()
    _metric("completed")
    return MmapCSRGraph(root)
