"""Iteration-space enumerators: 1-based coordinates in execution order.

Each enumerator is a generator yielding ``(I, J, K)`` triples of int64
arrays — one chunk of iterations in exact program order. Coordinates are
1-based like the paper's Fortran codes; loop bodies run over the
interior ``2..N-1``.

Chunking strategy: chunks follow natural schedule boundaries so that
they stay large enough to amortize numpy call overhead. An untiled
sweep yields one K-plane per chunk. A tiled one yields consecutive
tiles of one tile row together, built in one vectorized step, while
the batch stays within :data:`TILE_BATCH_ITERATIONS`; a tile at or
above that size is one chunk by itself. A ``group`` argument fixes the
tiles per chunk instead: the exact acceleration
(:mod:`repro.experiments.extrapolate`) asks for one trace segment per
chunk that way, still built in one vectorized step. Small tiles (Euc3D's 1x1
fallback holds NK - 2 iterations) would otherwise cost every consumer
one chunk's fixed overhead per tile. Natural boundaries alone do
**not** bound memory — a large tile spans every K plane and an untiled
plane grows as N^2 — so consumers that need O(chunk) peak memory
re-slice through :func:`bounded_chunks` (the address generator,
:func:`repro.trace.generator.trace_chunks`, does this by default).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import TraceError
from repro.obs import metrics

__all__ = [
    "bounded_chunks",
    "untiled_3d",
    "tiled_3d",
    "tiled_3loop",
    "redblack_naive",
    "redblack_fused",
    "redblack_tiled",
]

Chunk = tuple[np.ndarray, np.ndarray, np.ndarray]

#: Iterations up to which consecutive tiles of one tile row share a
#: chunk: enough that a 1x1-tile sweep yields O(N) chunks instead of
#: O(N^2), few enough that a batch's address matrix stays under 1 MB
#: even for RESID's 29 references.
TILE_BATCH_ITERATIONS = 4096


def bounded_chunks(chunks: Iterable[Chunk],
                   max_iterations: int) -> Iterator[Chunk]:
    """Re-slice iteration chunks so none exceeds ``max_iterations``.

    Execution order is preserved exactly: an oversized ``(I, J, K)``
    chunk is yielded as consecutive row slices (numpy views, no copy),
    so downstream address generation and cache simulation see the same
    reference string while peak memory stays O(``max_iterations``)
    instead of O(tile slab). Undersized chunks pass through untouched.
    """
    if max_iterations < 1:
        raise TraceError(
            f"max_iterations must be positive, got {max_iterations}")
    for i, j, k in chunks:
        n = i.size
        if n <= max_iterations:
            yield i, j, k
            continue
        metrics.inc("repro.trace.chunk_splits",
                    -(-n // max_iterations) - 1)
        for lo in range(0, n, max_iterations):
            hi = lo + max_iterations
            yield i[lo:hi], j[lo:hi], k[lo:hi]


def _plane(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(I, J) coordinates of one K-plane interior sweep, J outer/I inner."""
    j, i = np.meshgrid(np.arange(2, n, dtype=np.int64),
                       np.arange(2, n, dtype=np.int64), indexing="ij")
    return i.ravel(), j.ravel()


def untiled_3d(n: int, nk: int | None = None) -> Iterator[Chunk]:
    """Figure 3 order: K outer, J middle, I inner; one chunk per plane.

    ``n`` is the I/J extent, ``nk`` the K extent (defaults to ``n``; the
    paper's experiments fix it at 30).
    """
    nk = n if nk is None else nk
    if n < 3 or nk < 3:
        raise TraceError(f"need N, NK >= 3 for an interior sweep, got {n}, {nk}")
    i, j = _plane(n)
    for k in range(2, nk):
        yield i, j, np.full(i.size, k, dtype=np.int64)


def _tile_ranges(n: int, start: int, t: int) -> Iterator[tuple[int, int]]:
    """Fortran tile loop ``do X = start, n-1, t``: (lo, hi) inclusive."""
    for lo in range(start, n, t):
        yield lo, min(lo + t - 1, n - 1)


def _tile_row(n: int, ti: int, ks: np.ndarray, js: np.ndarray,
              group: int | None = None) -> Iterator[Chunk]:
    """One row of ``ti``-wide tiles (II loop; K, J, I inner), batched.

    Every tile adds its I offset to one full-width (K, J, I) template;
    an edge tile drops the I values past ``n - 1``. Consecutive tiles
    are yielded together, ``group`` at a time or else up to
    :data:`TILE_BATCH_ITERATIONS` iterations.
    """
    ti = min(ti, n - 2)                 # no template wider than the row
    k, j, i = (a.ravel() for a in np.meshgrid(
        ks, js, np.arange(ti, dtype=np.int64), indexing="ij"))
    ilos = np.arange(2, n, ti, dtype=np.int64)
    per = group or max(1, TILE_BATCH_ITERATIONS // i.size)
    for s in range(0, ilos.size, per):
        lo = ilos[s:s + per]
        ib = (lo[:, None] + i).ravel()
        jb, kb = np.tile(j, lo.size), np.tile(k, lo.size)
        if lo[-1] + ti > n:             # the batch ends with the edge tile
            keep = ib < n
            ib, jb, kb = ib[keep], jb[keep], kb[keep]
        yield ib, jb, kb


def tiled_3d(n: int, ti: int, tj: int, nk: int | None = None,
             group: int | None = None) -> Iterator[Chunk]:
    """Figure 6 order: JJ, II outer; K, J, I inner.

    Tiles of one JJ row are batched into chunks of ``group`` tiles or
    of up to :data:`TILE_BATCH_ITERATIONS` iterations (see
    :func:`_tile_row`).
    """
    nk = n if nk is None else nk
    if n < 3 or nk < 3:
        raise TraceError(f"need N, NK >= 3, got {n}, {nk}")
    if ti < 1 or tj < 1:
        raise TraceError(f"tile sizes must be positive: ({ti}, {tj})")
    ks = np.arange(2, nk, dtype=np.int64)
    for jlo, jhi in _tile_ranges(n, 2, tj):
        js = np.arange(jlo, jhi + 1, dtype=np.int64)
        yield from _tile_row(n, ti, ks, js, group)


def tiled_3loop(n: int, ti: int, tj: int, tk: int,
                nk: int | None = None,
                group: int | None = None) -> Iterator[Chunk]:
    """Wolf-Lam-style 3-loop tiling: KK, JJ, II outer; K, J, I inner
    (tiles batched as in :func:`tiled_3d`)."""
    nk = n if nk is None else nk
    if ti < 1 or tj < 1 or tk < 1:
        raise TraceError(f"tile sizes must be positive: ({ti}, {tj}, {tk})")
    for klo, khi in _tile_ranges(nk, 2, tk):
        ks = np.arange(klo, khi + 1, dtype=np.int64)
        for jlo, jhi in _tile_ranges(n, 2, tj):
            js = np.arange(jlo, jhi + 1, dtype=np.int64)
            yield from _tile_row(n, ti, ks, js, group)


# ----------------------------------------------------------------------
# red-black SOR schedules (Figure 12)
# ----------------------------------------------------------------------

def _parity_rows(starts: np.ndarray, stops, *cols: np.ndarray
                 ) -> tuple[np.ndarray, ...]:
    """Expand stride-2 I rows ``starts[r], starts[r] + 2, .. <= stops[r]``.

    ``stops`` is per row or one scalar for all; each of ``cols`` holds
    one value per row (its J, K, ...). Returns ``(I, *cols)`` flat, in
    row order with I inner; empty rows vanish.
    """
    counts = (stops - starts) // 2 + 1
    np.clip(counts, 0, None, out=counts)
    t = np.arange(int(counts.sum()), dtype=np.int64)
    t -= np.repeat(np.cumsum(counts) - counts, counts)
    return (np.repeat(starts, counts) + 2 * t,
            *(np.repeat(c, counts) for c in cols))


def redblack_naive(n: int, nk: int | None = None) -> Iterator[Chunk]:
    """Figure 12 top: all red points (odd=0) then all black (odd=1).

    Inner loop ``do I = 2+mod(K+J+odd, 2), N-1, 2``. The start depends
    on K only through ``(K + odd) % 2``, so the two parities' (I, J)
    rows are built once and shared by every plane, as
    :func:`untiled_3d` shares its one plane.
    """
    nk = n if nk is None else nk
    if n < 3 or nk < 3:
        raise TraceError(f"need N, NK >= 3, got {n}, {nk}")
    js = np.arange(2, n, dtype=np.int64)
    rows = [_parity_rows(2 + (par + js) % 2, n - 1, js) for par in (0, 1)]
    for odd in (0, 1):
        for k in range(2, nk):
            i, j = rows[(k + odd) % 2]
            yield i, j, np.full(i.size, k, dtype=np.int64)


def redblack_fused(n: int, nk: int | None = None) -> Iterator[Chunk]:
    """Figure 12 middle: fused schedule — red(KK+1) then black(KK).

    ``do KK=1,N-1 / do K=KK+1,KK,-1`` with the 2 <= K <= N-1 guard; the
    inner I start is ``2 + mod(KK+J+1, 2)`` for both K values.
    """
    nk = n if nk is None else nk
    if n < 3 or nk < 3:
        raise TraceError(f"need N, NK >= 3, got {n}, {nk}")
    js = np.arange(2, n, dtype=np.int64)
    for kk in range(1, nk):
        istart = 2 + (kk + js + 1) % 2
        for k in (kk + 1, kk):
            if not (2 <= k <= nk - 1):
                continue
            i, j = _parity_rows(istart, n - 1, js)
            yield i, j, np.full(i.size, k, dtype=np.int64)


def redblack_tiled(n: int, ti: int, tj: int, nk: int | None = None,
                   group: int | None = None) -> Iterator[Chunk]:
    """Figure 12 bottom: tiled fused red-black.

    Tile loops start at 1 (``do JJ=1,N-1,TJ``); within a (JJ, II) tile
    the KK sweep executes a skewed window: plane K = KK + d (d = 1 then
    0) covers J in ``max(JJ+d, 2) .. min(JJ+d+TJ-1, N-1)`` and I from
    ``IStart = II + d`` parity-adjusted by ``mod(KK+J+IStart+1, 2)``
    (bumped 1 -> 3 to stay interior), stepping by 2 up to
    ``min(II+d+TI-1, N-1)``.

    A tile's iterations are stride-2 I rows, one per (KK, d, J) in
    execution order. The rows of consecutive tiles of one JJ row are
    expanded together by :func:`_parity_rows` and yielded as one chunk,
    ``group`` tiles at a time or else while an upper bound on the
    batch's iterations stays within :data:`TILE_BATCH_ITERATIONS`; a
    tile whose bound reaches it is yielded alone, and empty batches
    yield nothing.
    """
    nk = n if nk is None else nk
    if n < 3 or nk < 3:
        raise TraceError(f"need N, NK >= 3, got {n}, {nk}")
    if ti < 1 or tj < 1:
        raise TraceError(f"tile sizes must be positive: ({ti}, {tj})")

    # (KK, d) of one tile's planes K = KK + d, in execution order.
    kks, ds = np.array([(kk, d) for kk in range(1, nk) for d in (1, 0)
                        if 2 <= kk + d <= nk - 1], dtype=np.int64).T
    iis = np.arange(1, n, ti, dtype=np.int64)
    for jj in range(1, n, tj):
        js = [np.arange(max(jj + d, 2), min(jj + d + tj - 1, n - 1) + 1,
                        dtype=np.int64) for d in (0, 1)]
        # One row per (KK, d, J); the parity term less its II part.
        rj = np.concatenate([js[d] for d in ds.tolist()])
        sizes = np.where(ds == 1, js[1].size, js[0].size)
        rkk, rd = np.repeat(kks, sizes), np.repeat(ds, sizes)
        rk, par = rkk + rd, rkk + rj + 1
        per = group or max(1, TILE_BATCH_ITERATIONS
                           // (rj.size * ((ti + 1) // 2)))
        for s in range(0, iis.size, per):
            base = iis[s:s + per, None] + rd        # IStart = II + d
            start = base + (par + base) % 2
            start[start == 1] = 3
            stop = np.minimum(base + ti - 1, n - 1)
            b = base.shape[0]
            i, j, k = _parity_rows(start.ravel(), stop.ravel(),
                                   np.tile(rj, b), np.tile(rk, b))
            if i.size:
                yield i, j, k
