"""Out-of-core CSR graphs and the process-pool backend (``scale`` marker).

The load-bearing claims, mirroring the parallel suite's contract:

* an :class:`MmapCSRGraph` built by :func:`convert_edge_list` is
  **bit-identical** to the in-memory :class:`Graph` parsed from the same
  edge list — structure, degrees, and SpMM products;
* the converter is crash-safe: killed at any checkpoint, a resumed run
  publishes a manifest whose content checksum equals a clean convert's;
* ``gsim_plus`` / ``top_k_pairs`` / ``top_k_for_queries`` return
  bit-identical results across ``backend`` in {thread, process},
  ``max_workers`` in {1, 2, 4}, and in-memory vs mmap-backed graphs;
* memmap arrays are charged at their *resident* estimate, not their
  virtual ``nbytes``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.embeddings import LowRankFactors
from repro.core.gsim_plus import GSimPlus, gsim_plus
from repro.core.topk import top_k_for_queries, top_k_pairs
from repro.graphs import MmapCSRGraph, convert_edge_list, read_edge_list
from repro.runtime import (
    ExecutionContext,
    FaultInjector,
    InjectedFault,
    MemoryLedger,
    Metrics,
    WorkerPool,
)
from repro.utils.memory import RESIDENT_WINDOW_BYTES, resident_estimate, resident_nbytes

pytestmark = pytest.mark.scale

WORKER_COUNTS = (1, 2, 4)
GRAPH_SPECS = {"a": (60, 400, 11), "b": (45, 300, 12)}


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def edge_files(tmp_path_factory):
    """Weighted edge lists with comments and duplicate edges."""
    root = tmp_path_factory.mktemp("edges")
    paths = {}
    for label, (n, m, seed) in GRAPH_SPECS.items():
        rng = np.random.default_rng(seed)
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        weight = rng.standard_normal(m).round(3)
        lines = ["# synthetic weighted edge list", f"{n - 1} {n - 1} 0.5"]
        lines += [f"{s} {d} {w}" for s, d, w in zip(src, dst, weight)]
        path = root / f"{label}.txt"
        path.write_text("\n".join(lines) + "\n")
        paths[label] = path
    return paths


@pytest.fixture(scope="module")
def graph_pairs(edge_files, tmp_path_factory):
    """(in-memory, mmap) pairs parsed from the same edge lists.

    Tiny chunk/block sizes force the converter through many chunks and
    row blocks, exercising the streamed code paths on a small input.
    """
    root = tmp_path_factory.mktemp("mmap")
    mem = {k: read_edge_list(p, name=k) for k, p in edge_files.items()}
    mm = {
        k: convert_edge_list(
            p, root / k, name=k, chunk_edges=64, block_rows=16
        )
        for k, p in edge_files.items()
    }
    return mem, mm


@pytest.fixture(scope="module")
def pools():
    """One persistent pool per (backend, workers) cell, shut down at teardown."""
    built = {
        (backend, w): WorkerPool(max_workers=w, backend=backend)
        for backend in ("thread", "process")
        for w in WORKER_COUNTS
    }
    yield built
    for pool in built.values():
        pool.shutdown()


# ---------------------------------------------------------------------------
# mmap-CSR vs in-memory parity
# ---------------------------------------------------------------------------


def test_mmap_structure_parity(graph_pairs):
    mem, mm = graph_pairs
    for key in mem:
        g, h = mem[key], mm[key]
        assert h.num_nodes == g.num_nodes
        assert h.num_edges == g.num_edges
        assert np.array_equal(h.out_degrees(), g.out_degrees())
        assert np.array_equal(h.in_degrees(), g.in_degrees())
        for attr in ("adjacency", "adjacency_t"):
            a, b = getattr(g, attr), getattr(h, attr)
            assert np.array_equal(b.indptr, a.indptr)
            assert np.array_equal(b.indices, a.indices)
            assert np.array_equal(b.data, a.data)


def test_mmap_spmm_bit_identical(graph_pairs):
    mem, mm = graph_pairs
    for key in mem:
        g, h = mem[key], mm[key]
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((g.num_nodes, 7))
        assert np.array_equal(h.adjacency @ dense, g.adjacency @ dense)
        assert np.array_equal(h.adjacency_t @ dense, g.adjacency_t @ dense)


def test_convert_idempotent_and_verifiable(graph_pairs, edge_files, tmp_path):
    _, mm = graph_pairs
    root = mm["a"].root
    # A second convert into the same directory reloads the artifact.
    again = convert_edge_list(edge_files["a"], root, name="a")
    assert again.num_edges == mm["a"].num_edges
    # Full checksum verification passes on a clean artifact.
    verified = MmapCSRGraph(root, verify=True)
    assert verified.num_edges == mm["a"].num_edges
    # No raw.* intermediates or progress journal survive completion.
    leftovers = [p.name for p in root.iterdir() if p.name.startswith("raw.")]
    assert leftovers == []
    assert not (root / "progress.json").exists()


def test_verify_detects_corruption(edge_files, tmp_path):
    graph = convert_edge_list(edge_files["b"], tmp_path / "art", name="b")
    target = tmp_path / "art" / "adj.data.bin"
    raw = bytearray(target.read_bytes())
    raw[0] ^= 0xFF
    target.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum"):
        MmapCSRGraph(graph.root, verify=True)


def test_from_graph_round_trip(graph_pairs, tmp_path):
    mem, _ = graph_pairs
    g = mem["b"]
    h = MmapCSRGraph.from_graph(g, tmp_path / "fg", name="b-copy")
    assert np.array_equal(h.adjacency.indptr, g.adjacency.indptr)
    assert np.array_equal(h.adjacency.indices, g.adjacency.indices)
    assert np.array_equal(h.adjacency.data, g.adjacency.data)
    rng = np.random.default_rng(9)
    dense = rng.standard_normal((g.num_nodes, 3))
    assert np.array_equal(h.adjacency_t @ dense, g.adjacency_t @ dense)


# ---------------------------------------------------------------------------
# converter modes and crash-safety
# ---------------------------------------------------------------------------


def test_convert_strict_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1\nx y\n2 3\n")
    with pytest.raises(ValueError, match="line 2"):
        convert_edge_list(path, tmp_path / "out", mode="strict")


def test_convert_lenient_matches_reader(tmp_path):
    path = tmp_path / "messy.txt"
    path.write_text("# header\n0 1 2.0\nx y\n2 0 1.0\n-1 3 9.0\n3 2\n")
    with pytest.warns(RuntimeWarning, match="skipped"):
        h = convert_edge_list(path, tmp_path / "out", mode="lenient")
        g = read_edge_list(path, mode="lenient")
    assert h.num_edges == g.num_edges
    assert np.array_equal(h.adjacency.indices, g.adjacency.indices)
    assert np.array_equal(h.adjacency.data, g.adjacency.data)


@pytest.mark.parametrize("fail_at", [1, 3, 5, 7, 9])
def test_convert_crash_resume_checksum_identical(
    edge_files, tmp_path, fail_at
):
    clean = convert_edge_list(
        edge_files["a"], tmp_path / "clean", chunk_edges=64, block_rows=16
    )
    clean_manifest = json.loads((clean.root / "manifest.json").read_text())

    crashed = tmp_path / "crashed"
    context = ExecutionContext(
        fault_injector=FaultInjector(fail_at=fail_at, match="mmap convert")
    )
    with pytest.raises(InjectedFault):
        convert_edge_list(
            edge_files["a"],
            crashed,
            chunk_edges=64,
            block_rows=16,
            context=context,
        )
    assert not (crashed / "manifest.json").exists()

    resumed = convert_edge_list(
        edge_files["a"], crashed, chunk_edges=64, block_rows=16
    )
    resumed_manifest = json.loads((resumed.root / "manifest.json").read_text())
    assert resumed_manifest["checksum"] == clean_manifest["checksum"]
    assert not (crashed / "progress.json").exists()


# ---------------------------------------------------------------------------
# cross-backend bit-identity
# ---------------------------------------------------------------------------


def _similarity(graph_a, graph_b, max_workers=None, backend="thread"):
    return gsim_plus(
        graph_a,
        graph_b,
        iterations=6,
        max_workers=max_workers,
        backend=backend,
    ).similarity


def test_gsim_plus_backend_bit_identity(graph_pairs, pools):
    mem, mm = graph_pairs
    reference = _similarity(mem["a"], mem["b"])
    for (backend, workers), pool in pools.items():
        got = _similarity(mem["a"], mem["b"], max_workers=pool)
        assert np.array_equal(got, reference), (backend, workers)
    # mmap-backed graphs ship (path, row-range) descriptors; results are
    # still bit-identical to the in-memory serial reference.
    assert np.array_equal(_similarity(mm["a"], mm["b"]), reference)
    mmap_proc = _similarity(
        mm["a"], mm["b"], max_workers=pools[("process", 2)]
    )
    assert np.array_equal(mmap_proc, reference)


def test_top_k_pairs_backend_bit_identity(graph_pairs, pools):
    mem, mm = graph_pairs
    reference = top_k_pairs(mem["a"], mem["b"], k=25, iterations=6, block_rows=17)
    for (backend, workers), pool in pools.items():
        got = top_k_pairs(
            mem["a"], mem["b"], k=25, iterations=6, block_rows=17, max_workers=pool
        )
        assert got == reference, (backend, workers)
    mmap_got = top_k_pairs(
        mm["a"],
        mm["b"],
        k=25,
        iterations=6,
        block_rows=17,
        max_workers=pools[("process", 4)],
    )
    assert mmap_got == reference


def test_top_k_for_queries_backend_bit_identity(graph_pairs, pools):
    mem, mm = graph_pairs
    queries = [0, 5, 5, 17, 3, 59, 28]
    reference = top_k_for_queries(
        mem["a"], mem["b"], queries, k=7, iterations=6, block_rows=2
    )
    for (backend, workers), pool in pools.items():
        got = top_k_for_queries(
            mem["a"],
            mem["b"],
            queries,
            k=7,
            iterations=6,
            block_rows=2,
            max_workers=pool,
        )
        assert got == reference, (backend, workers)
    mmap_got = top_k_for_queries(
        mm["a"],
        mm["b"],
        queries,
        k=7,
        iterations=6,
        block_rows=2,
        max_workers=pools[("process", 2)],
    )
    assert mmap_got == reference


_PARITY_COUNTERS = (
    "topk.rows_scanned",
    "topk.blocks_scanned",
    "parallel.shards",
    "gsim_plus.spmm",
    "gsim_plus.shard_cache_hits",
)


def _counters(run, graphs, pool):
    context = ExecutionContext()
    run(graphs, pool, context)
    counters = context.metrics.snapshot()["counters"]
    return {name: counters.get(name) for name in _PARITY_COUNTERS}


@pytest.mark.parametrize(
    "run",
    [
        lambda g, pool, context: top_k_pairs(
            g["a"], g["b"], k=25, iterations=6, block_rows=7,
            max_workers=pool, context=context,
        ),
        lambda g, pool, context: top_k_for_queries(
            g["a"], g["b"], [0, 5, 5, 17, 3, 59, 28], k=7, iterations=6,
            block_rows=2, max_workers=pool, context=context,
        ),
        lambda g, pool, context: gsim_plus(
            g["a"], g["b"], iterations=8, max_workers=pool, context=context
        ),
    ],
    ids=["top_k_pairs", "top_k_for_queries", "gsim_plus"],
)
def test_counters_identical_across_backends(graph_pairs, pools, run):
    mem, _ = graph_pairs
    serial = _counters(run, mem, pools[("thread", 1)])
    for workers in WORKER_COUNTS[1:]:
        thread = _counters(run, mem, pools[("thread", workers)])
        process = _counters(run, mem, pools[("process", workers)])
        assert thread == process, workers
        for name in ("topk.rows_scanned", "topk.blocks_scanned"):
            assert thread[name] == serial[name], (workers, name)


# ---------------------------------------------------------------------------
# operand placement (the process workspace)
# ---------------------------------------------------------------------------


def _scratch_files(solver):
    scratch = solver._ws._scratch
    return sorted(p.name for p in Path(scratch.name).iterdir()) if scratch else []


def test_process_steps_map_graphs_and_keep_two_generations(graph_pairs, pools):
    mem, mm = graph_pairs
    solver = GSimPlus(
        mm["a"], mm["b"], rank_cap="none", max_workers=pools[("process", 2)]
    )
    reference = GSimPlus(mem["a"], mem["b"], rank_cap="none")
    for state, expected in zip(solver.iterate(5), reference.iterate(5)):
        assert np.array_equal(state.factors.u, expected.factors.u)
        assert np.array_equal(state.factors.v, expected.factors.v)
        files = _scratch_files(solver)
        if state.k == 0:
            assert files == []
            continue
        # Only this generation's two outputs remain: the float64 mapped
        # graphs were never spilled, the previous generation was unlinked,
        # and step k read step k-1's output in place (no input spill).
        assert len(files) == 2 and all(f.startswith("output") for f in files)
        # Healing and rescaling ran in place on the mapped output.
        for factor in (state.factors.u, state.factors.v):
            assert isinstance(factor.base, np.memmap)
            assert Path(factor.base.filename).name in files

    def paths(ref):
        parts = (ref.indptr, ref.indices, ref.data)
        return {str(Path(part.path).resolve()) for part in parts}

    # Every CSR operand shipped the mapped graph's own artifact files.
    shipped = set().union(*(paths(ref) for ref in solver._ws._csr_refs.values()))
    on_disk = set().union(
        *(paths(g.csr_ref(w)) for g in (mm["a"], mm["b"]) for w in ("adj", "adj_t"))
    )
    assert shipped == on_disk


def test_in_process_shards_cut_once_and_serial_uncut(graph_pairs):
    mem, _ = graph_pairs
    matrix = mem["a"].adjacency
    serial = WorkerPool(max_workers=1).workspace()
    ((start, stop, (rows,)),) = serial.row_shards(matrix)
    assert (start, stop) == (0, matrix.shape[0]) and rows is matrix
    threaded = WorkerPool(max_workers=4).workspace()
    shards = threaded.row_shards(matrix)
    assert len(shards) > 1 and threaded.row_shards(matrix) is shards
    assert threaded.stage(matrix.data) is matrix.data


# ---------------------------------------------------------------------------
# process-pool semantics
# ---------------------------------------------------------------------------


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("shard three exploded")
    return x


def test_process_pool_preserves_submission_order(pools):
    pool = pools[("process", 4)]
    assert pool.map(_square, list(range(32))) == [i * i for i in range(32)]


def test_process_pool_propagates_first_error(pools):
    pool = pools[("process", 2)]
    with pytest.raises(ValueError, match="shard three exploded"):
        pool.map(_fail_on_three, [1, 2, 3, 4, 5])
    # The pool stays usable after a failed batch.
    assert pool.map(_square, [5, 6]) == [25, 36]


def test_process_pool_pins_worker_blas_threads(pools):
    pool = pools[("process", 2)]
    metrics = Metrics()
    context = ExecutionContext(metrics=metrics)
    pool.map(_square, [1, 2, 3, 4], context=context)
    info = pool.worker_info
    assert info is not None
    assert info["blas_threads"] == 1
    pool.map(_square, [1, 2], context=context)
    assert metrics.snapshot()["gauges"]["parallel.worker_blas_threads"] == 1.0


def test_resolve_existing_pool_backend_wins(pools):
    pool = pools[("process", 2)]
    resolved = WorkerPool.resolve(pool, backend="thread")
    assert resolved is pool
    assert resolved.backend == "process"
    fresh = WorkerPool.resolve(2, backend="process")
    assert fresh.backend == "process" and fresh.max_workers == 2
    fresh.shutdown()


# ---------------------------------------------------------------------------
# resident-memory accounting
# ---------------------------------------------------------------------------


def test_resident_nbytes_memmap_bounded(graph_pairs):
    _, mm = graph_pairs
    graph = mm["a"]
    data = graph.adjacency.data
    resident = resident_nbytes(data)
    assert 0 <= resident <= data.nbytes
    # Heap arrays are fully resident by definition.
    heap = np.ones(1024)
    assert resident_nbytes(heap) == heap.nbytes


def test_resident_estimate_window():
    assert resident_estimate(100) == 100
    big = 4 * RESIDENT_WINDOW_BYTES
    assert resident_estimate(big) == RESIDENT_WINDOW_BYTES


def test_factors_resident_matches_nbytes_for_heap_arrays():
    u = np.ones((8, 3))
    v = np.ones((5, 3))
    factors = LowRankFactors(u, v)
    assert factors.resident_nbytes == factors.nbytes


def test_ledger_charges_resident_not_virtual(graph_pairs):
    _, mm = graph_pairs
    graph = mm["b"]
    virtual = graph.memory_bytes()
    resident = graph.resident_bytes()
    assert resident <= virtual
    ledger = MemoryLedger(limit_bytes=max(resident, 1) * 2 + 1)
    ledger.charge(resident, "mmap graph")
    assert ledger.held_bytes == resident
    ledger.release(resident)
    assert ledger.held_bytes == 0


def test_release_pages_keeps_graph_usable(graph_pairs):
    mem, mm = graph_pairs
    graph = mm["a"]
    graph.release_pages()
    assert graph.resident_bytes() >= 0
    rng = np.random.default_rng(2)
    dense = rng.standard_normal((graph.num_nodes, 2))
    assert np.array_equal(
        graph.adjacency @ dense, mem["a"].adjacency @ dense
    )


# ---------------------------------------------------------------------------
# CLI converter
# ---------------------------------------------------------------------------


def test_cli_datasets_convert(edge_files, tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "artifact"
    code = main(
        ["datasets", "convert", str(edge_files["a"]), str(out), "--lenient"]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "nodes" in printed and "edges" in printed
    assert (out / "manifest.json").exists()
    graph = MmapCSRGraph(out)
    assert graph.num_nodes == GRAPH_SPECS["a"][0]
