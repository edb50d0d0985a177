"""Operand placement for the shard kernels of :mod:`repro.runtime.kernels`.

A kernel passes every operand *handle* through :func:`resolve`; the
workspace a pool hands out (:meth:`repro.runtime.WorkerPool.workspace`,
one per solver or scan) decides what a handle is:

* :class:`Workspace` (serial and thread pools) — the array itself;
  outputs are ``np.empty``, and CSR row shards are cut once (the serial
  case is one shard: the whole matrix, uncut).
* :class:`ProcessWorkspace` — a file descriptor, since pickling a
  multi-GB slice per shard would erase the win of dodging the GIL:
  :class:`ArrayRef` for a raw array, mapped worker-side out of the page
  cache the parent already warmed, and :class:`CsrRef` for three such
  parts (optionally a row range, sliced worker-side).  Read-only
  whole-file maps, like an :class:`repro.graphs.mmap_csr.MmapCSRGraph`'s
  arrays, ship as their own path; other operands are spilled once to
  scratch.  Outputs are shared scratch memmaps that workers write
  through ``MAP_SHARED`` mappings, read in place when fed back as the
  next step's input; :meth:`ProcessWorkspace.release` unlinks finished
  steps' files (pages live on while mapped), so at most two factor
  generations are on disk.

Values round-trip through a raw file byte-exactly and every workspace
splits rows the same way, so results do not depend on the backend.
"""

from __future__ import annotations

import mmap
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np
import scipy.sparse as sp

from repro.runtime.context import NULL_CONTEXT, ExecutionContext
from repro.runtime.parallel import shard_rows_by_nnz
from repro.utils.memory import resident_estimate

__all__ = [
    "ArrayRef",
    "CsrRef",
    "ProcessWorkspace",
    "Workspace",
    "csr_from_arrays",
    "load_ref",
    "resolve",
]


@dataclass(frozen=True)
class ArrayRef:
    """Descriptor of one raw on-disk array (native byte order) starting
    ``offset`` bytes in; ``writable`` maps it ``r+`` for kernel outputs."""

    path: str
    dtype: str
    shape: tuple[int, ...]
    offset: int = 0
    writable: bool = False


@dataclass(frozen=True)
class CsrRef:
    """Descriptor of a CSR matrix, or of its rows ``[start, stop)`` when
    ``rows`` is set (sliced worker-side); each part is an
    :class:`ArrayRef` (or, for an empty part, the array itself)."""

    indptr: Any
    indices: Any
    data: Any
    shape: tuple[int, int]
    rows: tuple[int, int] | None = None


# Per-process mapping cache.  Bounded: scratch files are short-lived and
# an unbounded cache would pin every generation's pages via open maps.
_CACHE_CAPACITY = 16
_mapping_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()


def load_ref(ref: ArrayRef) -> np.ndarray:
    """Map ``ref`` through the per-process LRU mapping cache, so a
    persistent pool maps each operand once.  The key includes the file's
    inode/size/mtime: a rewritten path is re-mapped, never served stale."""
    stat = os.stat(ref.path)
    key = (ref, stat.st_ino, stat.st_size, stat.st_mtime_ns)
    cached = _mapping_cache.get(key)
    if cached is not None:
        _mapping_cache.move_to_end(key)
        return cached
    mode = "r+" if ref.writable else "r"
    array = np.memmap(
        ref.path, dtype=ref.dtype, mode=mode, shape=ref.shape, offset=ref.offset
    )
    _mapping_cache[key] = array
    while len(_mapping_cache) > _CACHE_CAPACITY:
        _mapping_cache.popitem(last=False)
    return array


def csr_from_arrays(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    shape: tuple[int, int],
) -> sp.csr_matrix:
    """A ``csr_matrix`` *viewing* the given buffers — scipy's constructor
    would copy (and try to canonicalise, mutating read-only mappings), so
    the attributes are assigned directly and the canonical-form flags set
    by contract: every artifact writer stores sorted, deduplicated rows.
    """
    matrix = sp.csr_matrix(shape, dtype=data.dtype)
    matrix.data = np.asarray(data)
    matrix.indices = np.asarray(indices)
    matrix.indptr = np.asarray(indptr)
    matrix.has_sorted_indices = True
    matrix.has_canonical_format = True
    return matrix


def resolve(handle: Any) -> Any:
    """The operand behind a handle: maps descriptors, passes arrays through."""
    if isinstance(handle, ArrayRef):
        return load_ref(handle)
    if isinstance(handle, CsrRef):
        matrix = csr_from_arrays(
            resolve(handle.indptr),
            resolve(handle.indices),
            resolve(handle.data),
            handle.shape,
        )
        if handle.rows in (None, (0, handle.shape[0])):
            return matrix
        return matrix[slice(*handle.rows)]
    return handle


def _mapped_ref(array: np.ndarray) -> tuple[ArrayRef, str] | None:
    """``(descriptor, mode)`` when ``array`` is a whole-file memory map."""
    owner = array if isinstance(array, np.memmap) else array.base
    if not (
        isinstance(owner, np.memmap)
        and isinstance(owner.base, mmap.mmap)
        and owner.filename is not None
        and array.shape == owner.shape
        and array.dtype == owner.dtype
        and array.flags.c_contiguous
        and array.ctypes.data == owner.ctypes.data
    ):
        return None
    ref = ArrayRef(owner.filename, owner.dtype.str, owner.shape, int(owner.offset))
    return ref, owner.mode


class Workspace:
    """In-process placement (serial and thread pools): handles are arrays.
    :meth:`row_shards` splits rows into at most ``shards`` ranges."""

    def __init__(self, shards: int) -> None:
        self.shards = shards
        self._row_cache: dict[tuple[int, ...], tuple[tuple, list]] = {}

    def row_shards(
        self, *matrices: sp.csr_matrix
    ) -> list[tuple[int, int, tuple[Any, ...]]]:
        """``(start, stop, handles)`` per shard of same-height CSR
        matrices, balanced by their combined nnz, with one row-shard
        handle per matrix; built once per matrix set, then reused."""
        key = tuple(id(matrix) for matrix in matrices)
        cached = self._row_cache.get(key)
        if cached is None:
            indptr = sum(np.asarray(m.indptr, dtype=np.int64) for m in matrices)
            shards = [
                (start, stop, tuple(self._rows(m, start, stop) for m in matrices))
                for start, stop in shard_rows_by_nnz(indptr, self.shards)
            ]
            # The matrices ride along so their ids stay unique while cached.
            cached = self._row_cache[key] = (matrices, shards)
        return cached[1]

    def _rows(self, matrix: sp.csr_matrix, start: int, stop: int) -> Any:
        if (start, stop) == (0, matrix.shape[0]):
            return matrix
        return matrix[start:stop]

    def stage(self, array: np.ndarray) -> Any:
        """Handle of a kernel input."""
        return array

    def empty(self, shape: tuple[int, ...], dtype: Any) -> tuple[np.ndarray, Any]:
        """A new uninitialised kernel output and its handle."""
        array = np.empty(shape, dtype=dtype)
        return array, array

    def buffer_cost(self, num_bytes: int) -> int:
        """Ledger charge of an :meth:`empty` buffer of ``num_bytes``."""
        return int(num_bytes)

    def kernel_context(self, context: ExecutionContext) -> ExecutionContext:
        """The execution context as a kernel can reach it."""
        return context

    def release(self, *keep: np.ndarray) -> None:
        """Drop the scratch of finished steps, except ``keep``'s."""

    def close(self) -> None:
        """Drop everything the workspace holds."""
        self._row_cache.clear()

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ProcessWorkspace(Workspace):
    """Process-pool placement: handles are file descriptors.  The scratch
    directory is made on first use and removed by :meth:`close` or with
    the workspace."""

    def __init__(self, shards: int) -> None:
        super().__init__(shards)
        self._scratch: tempfile.TemporaryDirectory | None = None
        self._counter = 0
        self._csr_refs: dict[int, CsrRef] = {}
        self._step_files: set[str] = set()  # scratch that release() drops

    def _path(self, stem: str) -> Path:
        if self._scratch is None:
            self._scratch = tempfile.TemporaryDirectory(prefix="repro-shards-")
        self._counter += 1
        return Path(self._scratch.name) / f"{stem}_{self._counter}.bin"

    def _spill(self, array: np.ndarray, stem: str) -> Any:
        """Write ``array`` to a raw scratch file; empty arrays stay inline
        (an empty file cannot be mapped)."""
        if array.size == 0:
            return array
        array = np.ascontiguousarray(array)
        path = self._path(stem)
        array.tofile(path)
        return ArrayRef(str(path), array.dtype.str, array.shape)

    def _mapped(self, array: np.ndarray) -> ArrayRef | None:
        """The file of a read-only whole-file map, or of a live output of
        this workspace — either is read in place, never copied."""
        mapped = _mapped_ref(array)
        if mapped is None:
            return None
        ref, mode = mapped
        return ref if mode == "r" or ref.path in self._step_files else None

    def _rows(self, matrix: sp.csr_matrix, start: int, stop: int) -> CsrRef:
        # Keyed by id: row_shards' cache keeps every matrix alive meanwhile.
        ref = self._csr_refs.get(id(matrix))
        if ref is None:
            parts = [
                self._mapped(part) or self._spill(part, "csr")
                for part in (matrix.indptr, matrix.indices, matrix.data)
            ]
            shape = (int(matrix.shape[0]), int(matrix.shape[1]))
            ref = self._csr_refs[id(matrix)] = CsrRef(*parts, shape=shape)
        return replace(ref, rows=(start, stop))

    def stage(self, array: np.ndarray) -> Any:
        ref = self._mapped(array)
        if ref is None:
            ref = self._spill(array, "input")
            if isinstance(ref, ArrayRef):
                self._step_files.add(ref.path)
        return ref

    def empty(self, shape: tuple[int, ...], dtype: Any) -> tuple[np.ndarray, Any]:
        array = np.memmap(self._path("output"), dtype=dtype, mode="w+", shape=shape)
        self._step_files.add(array.filename)
        ref = ArrayRef(array.filename, array.dtype.str, array.shape, writable=True)
        return array, ref

    def buffer_cost(self, num_bytes: int) -> int:
        # A scratch memmap is spillable: charge its bounded resident share.
        return resident_estimate(num_bytes)

    def kernel_context(self, context: ExecutionContext) -> ExecutionContext:
        # A context cannot cross the process boundary; pool.map polls it
        # in the parent between batches instead.
        return NULL_CONTEXT

    def release(self, *keep: np.ndarray) -> None:
        kept = {mapped[0].path for mapped in map(_mapped_ref, keep) if mapped}
        for path in self._step_files - kept:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._step_files &= kept

    def close(self) -> None:
        super().close()
        self._csr_refs.clear()
        self._step_files.clear()
        if self._scratch is not None:
            self._scratch.cleanup()
            self._scratch = None
