"""Affine run-compressed trace chunks: (base, stride, count) per ref.

Stencil traces are affine: within a row of the iteration space only the
inner coordinate moves, so every reference walks memory at the same
constant byte stride (``delta_i * elem_bytes`` — per-array padding
cancels out of the difference). A :class:`RunChunk` stores one
``(base, stride, count)`` run per reference per such row segment
instead of materializing the ``(n_iters, n_refs)`` address matrix,
shrinking a chunk by roughly the run length (a factor of N for the
paper's sweeps) while representing bit-for-bit the same interleaved
reference stream.

:func:`compress_iter_chunk` detects the segments directly from the
enumerator's ``(I, J, K)`` coordinate arrays: a segment is a maximal
stretch of iterations whose steps keep ``J``/``K`` fixed and ``I``
moving by a constant (REDBLACK's stride-2 rows compress too; its color
boundaries simply end segments). When the detected segments are too
short to pay for themselves — irregular schedules such as MGRID
restriction/prolongation chunks — the generator falls back to a
materialized :class:`~repro.trace.generator.TraceChunk` for that chunk,
which is always exact; consumers must accept both forms.

The cache layer consumes runs without expanding them (see
:func:`repro.cache.partition.run_line_intervals` and the run-aware
paths in :mod:`repro.cache.engine`); :meth:`RunChunk.materialize` is
the exact escape hatch for everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RunChunk", "compress_iter_chunk", "materialize_runs",
           "MIN_RUN_LENGTH", "MIN_CHUNK_ADDRESSES"]

#: Minimum average run length (iterations per segment) for a chunk to
#: be emitted as runs: below this the per-run bookkeeping rivals the
#: per-address work it replaces, so the generator materializes instead.
MIN_RUN_LENGTH = 4

#: Minimum represented addresses for a chunk to be emitted as runs.
#: Compressing a chunk costs a fixed handful of Python-level numpy
#: calls here *and* again in every consumer window; for small chunks
#: (a tiled schedule's batches of small tiles hold at most
#: :data:`~repro.trace.enumerators.TILE_BATCH_ITERATIONS` iterations,
#: under this bound for the 7-reference JACOBI) that fixed cost
#: outweighs the vector work it saves (measured break-even is a few
#: thousand addresses), so small chunks stay flat — same stream,
#: cheaper.
MIN_CHUNK_ADDRESSES = 1 << 15


def materialize_runs(bases: np.ndarray, strides: np.ndarray,
                     counts: np.ndarray) -> np.ndarray:
    """Expand runs into the ``(total_iters, n_refs)`` address matrix.

    ``bases`` is ``(n_segments, n_refs)``, ``strides``/``counts`` are
    per-segment. Row ``t`` of segment ``g`` holds
    ``bases[g] + t * strides[g]`` — exactly the rows the flat generator
    would have produced for the same iterations.
    """
    total = int(counts.sum())
    nrefs = bases.shape[1]
    if total == 0:
        return np.empty((0, nrefs), dtype=np.int64)
    starts = np.empty(counts.size, dtype=np.int64)
    starts[0] = 0
    np.cumsum(counts[:-1], out=starts[1:])
    t = np.arange(total, dtype=np.int64)
    t -= np.repeat(starts, counts)
    t *= np.repeat(strides, counts)
    # ``np.repeat`` expands the base rows in one sequential pass;
    # the per-iteration offsets are then added in row blocks that stay
    # cache-resident, so the whole expansion runs at the same memory
    # bandwidth as the flat generator's matrix fill.
    out = np.repeat(bases, counts, axis=0)
    blk = max(1, (1 << 17) // nrefs)
    for s in range(0, total, blk):
        e = min(total, s + blk)
        out[s:e] += t[s:e, None]
    return out


@dataclass(frozen=True)
class RunChunk:
    """One program-ordered trace chunk as per-reference affine runs.

    Segment ``g`` covers ``counts[g]`` consecutive iterations; during
    it reference ``c`` touches ``bases[g, c] + t * strides[g]`` for
    ``t = 0 .. counts[g] - 1``. The represented interleaved stream is
    identical to :attr:`materialize`'s row-major flattening — the
    run-aware engine paths are held to bit-for-bit the same
    :class:`~repro.cache.base.CacheStats` as that expansion.
    """

    bases: np.ndarray       #: ``(n_segments, n_refs)`` int64 first addresses
    strides: np.ndarray     #: ``(n_segments,)`` int64 bytes per iteration
    counts: np.ndarray      #: ``(n_segments,)`` int64 iterations per segment
    wmask_row: np.ndarray   #: ``(n_refs,)`` per-reference write flags

    @property
    def n_segments(self) -> int:
        return self.counts.size

    @property
    def n_refs(self) -> int:
        return self.bases.shape[1]

    @property
    def n_iters(self) -> int:
        return int(self.counts.sum())

    @property
    def n_addresses(self) -> int:
        """Addresses represented (the materialized stream's length)."""
        return self.n_iters * self.n_refs

    def __len__(self) -> int:
        return self.n_addresses

    @property
    def n_runs(self) -> int:
        """Stored (segment, reference) runs — the compressed size."""
        return self.n_segments * self.n_refs

    @property
    def reads(self) -> int:
        nw = int(np.count_nonzero(self.wmask_row))
        return self.n_iters * (self.n_refs - nw)

    @property
    def writes(self) -> int:
        return self.n_iters * int(np.count_nonzero(self.wmask_row))

    @property
    def read_bases(self) -> np.ndarray:
        """Base columns of the read references only (program order).

        Mirrors :attr:`TraceChunk.read_addresses
        <repro.trace.generator.TraceChunk.read_addresses>`: with the
        reads-first layout of :func:`~repro.trace.generator.kernel_refs`
        this is a column slice.
        """
        nw = int(np.count_nonzero(self.wmask_row))
        if nw == 0:
            return self.bases
        nr = self.n_refs - nw
        if not self.wmask_row[:nr].any():    # reads-first layout
            return self.bases[:, :nr]
        return self.bases[:, ~self.wmask_row]

    def materialize(self):
        """The equivalent :class:`~repro.trace.generator.TraceChunk`."""
        from repro.trace.generator import TraceChunk

        return TraceChunk(
            materialize_runs(self.bases, self.strides, self.counts),
            self.wmask_row)


def _segment_starts(i: np.ndarray, j: np.ndarray,
                    k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(segment start indices, per-iteration-step ``delta_i``).

    A step breaks a segment when it moves J or K, or when two adjacent
    interior (J/K-fixed) steps disagree on ``delta_i`` — so within each
    segment every step is ``(s, 0, 0)`` for one constant ``s``.
    """
    di = np.diff(i)
    bad = (np.diff(j) != 0) | (np.diff(k) != 0)
    brk = bad.copy()
    if di.size > 1:
        brk[1:] |= ~bad[1:] & ~bad[:-1] & (di[1:] != di[:-1])
    starts = np.concatenate([np.zeros(1, dtype=np.int64),
                             np.flatnonzero(brk) + 1])
    return starts, di


def compress_iter_chunk(i: np.ndarray, j: np.ndarray, k: np.ndarray,
                        groups, nrefs: int,
                        wmask_row: np.ndarray) -> RunChunk | str:
    """Compress one iteration chunk into a :class:`RunChunk`.

    ``groups`` is the per-array reference grouping of
    :func:`repro.trace.generator._refs_by_spec`. Returns the chunk, or
    a fallback *reason* string when the chunk should be materialized
    instead: ``"small_chunk"`` (below :data:`MIN_CHUNK_ADDRESSES`),
    ``"low_compression"`` (segments too short to pay off) or
    ``"mixed_elem_bytes"`` (no single byte stride spans the refs).
    """
    n = i.size
    if n * nrefs < MIN_CHUNK_ADDRESSES:
        return "small_chunk"
    elem_sizes = {spec.elem_bytes for spec, _ in groups}
    if len(elem_sizes) != 1:
        return "mixed_elem_bytes"
    eb = elem_sizes.pop()

    if n == 1:
        starts = np.zeros(1, dtype=np.int64)
        stride_i = np.zeros(0, dtype=np.int64)
    else:
        starts, stride_i = _segment_starts(i, j, k)
    nseg = starts.size
    if n < nseg * MIN_RUN_LENGTH:
        return "low_compression"

    counts = np.empty(nseg, dtype=np.int64)
    counts[:-1] = np.diff(starts)
    counts[-1] = n - starts[-1]
    # A segment's stride is its first step's delta_i; singleton
    # segments have no step and get stride 0 (never consulted).
    strides = np.zeros(nseg, dtype=np.int64)
    multi = counts > 1
    strides[multi] = stride_i[starts[multi]]
    strides *= eb

    ib, jb, kb = i[starts], j[starts], k[starts]
    bases = np.empty((nseg, nrefs), dtype=np.int64)
    for spec, cols in groups:
        base = spec.addr_array(ib, jb, kb)
        base = base * spec.elem_bytes
        for col, const in cols:
            np.add(base, const, out=bases[:, col])
    return RunChunk(bases, strides, counts, wmask_row)
