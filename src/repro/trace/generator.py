"""Turn iteration chunks plus reference lists into address traces.

For each iteration the kernel issues its references in program order;
for a chunk of ``n`` iterations and ``R`` references the interleaved
trace is the row-major flattening of an ``(n, R)`` address matrix — all
vectorized, no Python-level per-iteration work. A :class:`TraceChunk`
keeps that matrix's read columns as one contiguous matrix, so a
write-around cache stack takes the reads without a copy, and builds
the write columns only when a write-allocate caller asks for them.

Memory is bounded: incoming iteration chunks are re-sliced through
:func:`repro.trace.enumerators.bounded_chunks` so no yielded address
chunk exceeds ``max_addresses`` entries (default
:data:`DEFAULT_CHUNK_ADDRESSES`, ~8 MB of int64). A large-N RESID
point would otherwise materialize a hundred-megabyte address matrix
per tile slab; with the bound, peak memory is O(chunk) regardless of
problem size, and the stream is **bit-for-bit identical** — splitting
only re-batches the same program-ordered reference string (the
differential tests in ``tests/test_perf_chunking.py`` prove it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.errors import TraceError
from repro.layout.array import ArraySpec
from repro.obs import metrics

__all__ = ["Ref", "TraceChunk", "trace_chunks", "kernel_refs",
           "count_refs", "DEFAULT_CHUNK_ADDRESSES"]

#: Default bound on addresses per yielded chunk (``2**20`` int64 = 8 MB).
#: Large enough that numpy call overhead is negligible, small enough
#: that the largest paper-density point (RESID, N = 700) streams in
#: bounded memory instead of materializing ~120 MB tile slabs.
DEFAULT_CHUNK_ADDRESSES = 1 << 20


@dataclass(frozen=True)
class Ref:
    """One static reference: array + constant subscript offsets.

    Offsets are relative to the (1-based) iteration coordinates; the
    generator converts to the 0-based :class:`ArraySpec` origin.
    """

    array: ArraySpec
    oi: int = 0
    oj: int = 0
    ok: int = 0
    is_write: bool = False


def kernel_refs(specs: dict[str, ArraySpec],
                reads: Iterable[tuple[str, int, int, int]],
                writes: Iterable[tuple[str, int, int, int]] = ()) -> list[Ref]:
    """Build a program-ordered reference list: reads first, then writes."""
    refs = [Ref(specs[a], oi, oj, ok) for a, oi, oj, ok in reads]
    refs += [Ref(specs[a], oi, oj, ok, is_write=True)
             for a, oi, oj, ok in writes]
    if not refs:
        raise TraceError("kernel has no references")
    return refs


def count_refs(refs: list[Ref]) -> tuple[int, int]:
    """(reads, writes) per iteration."""
    w = sum(1 for r in refs if r.is_write)
    return len(refs) - w, w


@dataclass(frozen=True)
class TraceChunk:
    """One program-ordered trace chunk, its reads built and its writes
    counted.

    Row ``r`` of :attr:`read_matrix` holds iteration ``r``'s read
    references in program order; ``wmask_row`` places every reference
    in the iteration's interleaved order. A write-around hierarchy
    consumes :attr:`read_addresses`, a zero-copy view of the contiguous
    read matrix, and only counts the writes (:attr:`writes`), so no
    write address is ever built for it. The interleaved stream
    (:attr:`addresses`), write addresses included, is assembled on
    demand for write-allocate callers. ``len(chunk)`` is its address
    count.
    """

    read_matrix: np.ndarray   #: ``(n_iters, n_reads)`` int64 byte addresses
    wmask_row: np.ndarray     #: ``(n_refs,)`` per-reference write flags
    #: Builds the ``(n_iters, n_writes)`` write matrix on demand.
    write_matrix: Callable[[], np.ndarray]

    @property
    def n_iters(self) -> int:
        return self.read_matrix.shape[0]

    @property
    def n_addresses(self) -> int:
        """Addresses in this chunk, reads and writes."""
        return self.n_iters * self.wmask_row.size

    def __len__(self) -> int:
        return self.n_addresses

    @property
    def reads(self) -> int:
        """Read accesses in this chunk."""
        return self.read_matrix.size

    @property
    def writes(self) -> int:
        """Write accesses in this chunk."""
        return self.n_addresses - self.read_matrix.size

    @property
    def read_addresses(self) -> np.ndarray:
        """The read accesses only, in program order (a zero-copy view)."""
        return self.read_matrix.reshape(-1)

    @property
    def addresses(self) -> np.ndarray:
        """The flat interleaved address stream (built on demand)."""
        if not self.writes:
            return self.read_addresses
        matrix = np.empty((self.n_iters, self.wmask_row.size),
                          dtype=np.int64)
        matrix[:, ~self.wmask_row] = self.read_matrix
        matrix[:, self.wmask_row] = self.write_matrix()
        return matrix.reshape(-1)


def _refs_by_spec(refs: list[Ref]) -> list[tuple[ArraySpec, list]]:
    """Group references by array, precomputing per-ref byte offsets.

    A reference's address is linear in the iteration coordinates:
    ``addr_array(i + oi - 1, ...) * eb  ==  addr_array(i, j, k) * eb
    + const`` with ``const = ((oi-1) + (oj-1)*di + (ok-1)*plane) * eb``
    folded at build time (exact int64 algebra — every reference of one
    array then costs a single vector add off a shared base column).
    Each reference becomes ``(col, const)``: it fills column ``col``,
    its position in ``refs``, of the matrix :func:`_fill` builds.
    """
    groups: dict[int, tuple[ArraySpec, list]] = {}
    for col, ref in enumerate(refs):
        spec = ref.array
        const = ((ref.oi - 1)
                 + (ref.oj - 1) * spec.di
                 + (ref.ok - 1) * spec.plane) * spec.elem_bytes
        groups.setdefault(id(spec), (spec, []))[1].append(
            (col, np.int64(const)))
    return list(groups.values())


#: Row-block budget for the address-matrix fill, in matrix elements
#: (~1 MB of int64): each block's columns are written while the block
#: is still cache-resident, instead of streaming the whole multi-MB
#: matrix once per reference.
_FILL_BLOCK_ELEMENTS = 1 << 17


def _fill(i: np.ndarray, j: np.ndarray, k: np.ndarray, groups,
          width: int) -> np.ndarray:
    """One iteration chunk's ``(n, width)`` address matrix (see
    :func:`_refs_by_spec`)."""
    n = i.size
    mat = np.empty((n, width), dtype=np.int64)
    blk = max(1, _FILL_BLOCK_ELEMENTS // max(1, width))
    for s in range(0, n, blk):
        e = min(n, s + blk)
        ib, jb, kb = i[s:e], j[s:e], k[s:e]
        for spec, cols in groups:
            # 1-based coordinates; each ref's subscript offset is
            # pre-folded into its byte constant (see _refs_by_spec).
            base = spec.addr_array(ib, jb, kb)
            base *= spec.elem_bytes
            for col, const in cols:
                np.add(base, const, out=mat[s:e, col])
    return mat


def trace_chunks(iter_chunks, refs: list[Ref],
                 max_addresses: int | None = None,
                 structured: bool = False) -> Iterator:
    """Yield program-ordered trace chunks.

    ``iter_chunks`` yields 1-based ``(I, J, K)`` coordinate arrays (see
    :mod:`repro.trace.enumerators`); each output chunk interleaves the
    per-iteration references. By default chunks are the legacy
    ``(byte_addresses, is_write)`` pairs; with ``structured=True`` they
    are :class:`TraceChunk` objects carrying the same stream with reads
    and writes apart (the hierarchy engine consumes those without
    materializing per-address write masks).

    ``max_addresses`` bounds the size of every yielded chunk (and with
    it the peak size of the address matrices built here): ``None``
    means :data:`DEFAULT_CHUNK_ADDRESSES`, ``0`` disables the bound and
    yields one chunk per incoming iteration chunk (the pre-streaming
    monolithic behaviour). Splitting never changes the reference
    stream, only its batching. No yielded chunk is referenced here once
    the consumer asks for the next, so a consumer that drops each chunk
    holds one at a time.
    """
    if not refs:
        raise TraceError("no references")
    if max_addresses is not None and max_addresses < 0:
        raise TraceError(
            f"max_addresses must be >= 0, got {max_addresses}")
    nrefs = len(refs)
    wmask_row = np.array([r.is_write for r in refs], dtype=bool)
    if structured:
        reads = [r for r in refs if not r.is_write]
        writes = [r for r in refs if r.is_write]
        rgroups, wgroups = _refs_by_spec(reads), _refs_by_spec(writes)
    else:
        groups = _refs_by_spec(refs)

    if max_addresses is None:
        max_addresses = DEFAULT_CHUNK_ADDRESSES
    if max_addresses:
        from repro.trace.enumerators import bounded_chunks

        iter_chunks = bounded_chunks(iter_chunks,
                                     max(1, max_addresses // nrefs))

    for i, j, k in iter_chunks:
        if i.size == 0:
            continue
        metrics.inc("repro.trace.chunks")
        metrics.inc("repro.trace.addresses", i.size * nrefs)
        if structured:
            yield TraceChunk(
                _fill(i, j, k, rgroups, len(reads)), wmask_row,
                partial(_fill, i, j, k, wgroups, len(writes)))
        else:
            yield (_fill(i, j, k, groups, nrefs).reshape(-1),
                   np.tile(wmask_row, i.size))
