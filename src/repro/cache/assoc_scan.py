"""Vectorized exact-LRU set-associative simulation (segmented scan).

The scalar reference model (:mod:`repro.cache.set_assoc`) walks one
OrderedDict per set, a few million accesses per second. This module
resolves the same exact LRU hits/misses with segmented numpy scans and
no Python-level per-access loop, for *any* associativity — k-way levels
and fully associative TLBs included. The direct-mapped
(:mod:`repro.cache.direct_mapped`) and 2-way (:mod:`repro.cache.two_way`)
specializations stay faster for their geometries; this class covers
everything they cannot (see :func:`repro.cache.factory.build_simulator`).

The window algorithm, given accesses stably partitioned by set
(:func:`repro.cache.partition.partition` — program order within each
set's segment):

1. **Ghost prepend.** Each occupied set's carried LRU stack (at most
   ``assoc`` lines) is prepended to its segment in LRU-to-MRU order.
   Replaying those "ghost" accesses reconstructs the set's exact LRU
   state, so carried state needs no special-casing anywhere else; ghost
   verdicts are discarded at the end.
2. **Run-head compression.** An access equal to its predecessor in the
   same segment always hits and removing it changes no other access's
   stack distance (its duplicate neighbour keeps the line in every
   enclosing interval), so only run heads are scanned — stencil traces
   compress severalfold (spatial locality), TLB page traces by orders
   of magnitude.
3. **Previous and next occurrence.** ``P[i]`` and ``Nx[i]`` = the
   previous and next compressed positions of line ``i`` (``-1`` and
   ``mc``, the compressed length, if none), from one stable sort of the
   line ids. Equal lines share a set and segments are contiguous, so
   neither crosses a segment boundary. For ``assoc == 1`` the scan ends
   here: compression makes every run head a direct-mapped miss.
4. **Verdict.** A run head misses iff ``P[i] == -1`` (line not
   resident) or at least ``assoc`` distinct lines came between its two
   uses (pushed out since last use); non-heads hit. Three routes,
   cheapest first, each exact:

   * *Reuse gap.* ``i - P[i] - 1 < assoc``: fewer than ``assoc``
     positions, so fewer lines, lie between the uses — a hit.
   * *Bounded scan.* Walk ``j = i - 1, i - 2, ...`` counting the
     positions with ``Nx[j] > i``: each is the last use of one
     distinct line before ``i``. Reaching ``P[i]`` is a hit; the count
     reaching ``assoc`` is a miss. One vectorized step per offset over
     the heads still open, at most :data:`SCAN_STEP_CAP` steps. On the
     stencil traces nearly every head settles on its gap, and the rest
     within ~30 steps.
   * *Dominance count*, for heads the cap left open (a few pages
     revisited over long stretches, as in TLB streams). With
     segment-relative positions ``p``, the distinct lines between the
     uses number ``C[i] - p[P[i]] - 1`` where ``C[i] = #{t < i, same
     segment : p[P[t]] <= p[P[i]]}``: positions at or before ``P[i]``
     contribute exactly ``p[P[i]] + 1`` (every ``P`` points strictly
     backwards), and positions inside the interval count precisely
     when they are the first occurrence of their line there — one per
     distinct line. ``C`` at the open heads comes from a vectorized
     bottom-up merge count with *segment-aligned* blocks: per
     power-of-two width, one sort + ``searchsorted`` counts each
     ordered pair at the single width where its positions split into
     the two halves of one block, so the level count is ``log2`` of the
     longest segment, not of the window.
5. **State.** The new per-set stack is each segment's last ``assoc``
   distinct lines by recency — the positions with no next occurrence,
   which ascend by recency within a segment.

Bit-for-bit identity with :class:`SetAssociativeCache` (including
chunk-split invariance and mid-stream ``invalidate()``) is enforced by
the differential tests in ``tests/test_cache_assoc_scan.py``.

The carried stacks, read MRU first, are what
:class:`~repro.cache.base.CacheLevel` records and costs first-touch
templates on; every window is handed to the segment recorder.
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import CacheLevel, CacheStats
from repro.cache.params import CacheParams

__all__ = ["AssocScanCache"]

#: Backward-scan steps per run head before it falls back to the
#: dominance count (module docstring, step 4). Stencil traces resolve
#: every head within ~30 steps; page streams revisiting a few pages
#: over long stretches would scan far longer without it.
SCAN_STEP_CAP = 64


def _seg_prefix_leq(vals: np.ndarray, rel: np.ndarray, seg: np.ndarray,
                    seg_len: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``C[i] = #{t < i, seg[t] == seg[i] : vals[t] <= vals[i]}`` for
    the query positions ``i`` in ``q``.

    ``rel`` holds segment-relative positions, ``seg`` the segment id
    per element, ``seg_len`` each segment's length. Bottom-up merge
    count: at width ``w`` every position pairs the halves of one
    ``2w``-aligned block *within its segment*; each same-segment
    ordered pair ``(t, i)`` splits into the two halves of one block at
    exactly one width (the highest differing bit of their relative
    positions), so summing per-width left-half counts over all widths
    counts each pair once. Per width: one sort of block-offset
    composite keys plus a ``searchsorted`` of the queries in the right
    halves — no per-element Python.
    """
    m = vals.size
    C = np.zeros(q.size, dtype=np.int64)
    longest = int(seg_len.max()) if seg_len.size else 0
    if m < 2 or longest < 2:
        return C
    # Composite key = block * M + shifted value; M exceeds the value
    # span so keys order by (block, value). vals >= -1 here
    # (previous-occurrence positions), so the +1 shift keeps every key
    # component non-negative.
    shifted = vals + np.int64(1)
    M = np.int64(int(shifted.max()) + 1)
    qrel, qseg, qshifted = rel[q], seg[q], shifted[q]
    level = 0
    while (1 << level) < longest:
        # Segment-aligned blocks of size 2w: block_base reserves a
        # disjoint block-id range per segment so blocks never span
        # segments (cross-segment pairs must not be counted).
        nblk_seg = (seg_len + (2 << level) - 1) >> (level + 1)
        block_base = np.zeros(seg_len.size + 1, dtype=np.int64)
        np.cumsum(nblk_seg, out=block_base[1:])
        left = ((rel >> level) & 1) == 0
        lblk = block_base[seg[left]] + (rel[left] >> (level + 1))
        lkeys = lblk * M + shifted[left]
        lkeys.sort()
        before = np.zeros(int(block_base[-1]) + 1, dtype=np.int64)
        np.cumsum(np.bincount(lblk, minlength=before.size - 1),
                  out=before[1:])
        right = ((qrel >> level) & 1) == 1
        qblk = block_base[qseg[right]] + (qrel[right] >> (level + 1))
        pos = np.searchsorted(lkeys, qblk * M + qshifted[right],
                              side="right")
        C[right] += pos - before[qblk]
        level += 1
    return C


def _scan_back(heads: np.ndarray, P: np.ndarray, Nx: np.ndarray,
               assoc: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounded backward scan: exact verdicts for most run ``heads``.

    Walks ``j = i - 1, i - 2, ...`` for every head ``i`` at once, one
    vectorized step per offset, counting the positions with
    ``Nx[j] > i`` — each is the last use of one distinct line before
    ``i``. A head hits on reaching ``P[i]`` and misses once the count
    reaches ``assoc``. Returns ``(miss, open_)``: the verdicts (False
    where unresolved) and the indices into ``heads`` still unresolved
    after :data:`SCAN_STEP_CAP` steps.
    """
    miss = np.zeros(heads.size, dtype=bool)
    live = np.arange(heads.size)
    cur, prev = heads, P[heads]
    count = np.zeros(heads.size, dtype=np.int64)
    for k in range(1, SCAN_STEP_CAP + 1):
        if live.size == 0:
            break
        j = cur - k
        count += Nx[j] > cur
        full = count >= assoc
        done = full | (j == prev)
        if done.any():
            miss[live[full]] = True
            keep = ~done
            live, cur, prev, count = (live[keep], cur[keep], prev[keep],
                                      count[keep])
    return miss, live


class AssocScanCache(CacheLevel):
    """Streaming exact-LRU set-associative simulator (vectorized).

    Parameters
    ----------
    params:
        Cache geometry; any ``assoc >= 1`` (``num_sets == 1`` models a
        fully associative cache, e.g. a TLB).
    """

    #: The scan replays each occupied set's carried stack as ghost
    #: accesses every window, so its fixed cost (up to ``num_sets *
    #: assoc`` ghosts) wants more amortization than the other levels'
    #: scatter does; the scratch arrays stay a few MB at this size.
    window = 1 << 16

    def __init__(self, params: CacheParams):
        super().__init__(params)
        # Per-set LRU stack: row ``s`` holds its resident lines in
        # columns [assoc - depth[s], assoc), LRU first, MRU last;
        # unused columns are -1 (no byte address maps to a negative
        # line id).
        self._stack = np.full((params.num_sets, params.assoc), -1,
                              dtype=np.int64)
        self._depth = np.zeros(params.num_sets, dtype=np.int64)

    def reset(self) -> None:
        """Empty the cache AND zero the statistics (a fresh simulator)."""
        self.stats = CacheStats()
        self._stack.fill(-1)
        self._depth.fill(0)

    def invalidate(self) -> None:
        """Empty the cache but keep the statistics (mid-stream flush)."""
        self._stack.fill(-1)
        self._depth.fill(0)

    # ------------------------------------------------------------------
    def access_grouped(self, l_sorted: np.ndarray, occ: np.ndarray,
                       bounds: np.ndarray) -> tuple[np.ndarray, int]:
        """Simulate a set-partitioned line stream against the carried
        LRU stacks (see :meth:`CacheLevel.access_grouped`)."""
        n = l_sorted.size
        if n == 0:
            return np.zeros(0, dtype=bool), 0
        A = self.params.assoc

        seg_start = bounds[:-1]
        seg_len = np.diff(bounds)
        depth = self._depth[occ]                 # ghosts per segment
        cum = np.cumsum(depth)                   # inclusive ghost totals
        cum_excl = cum - depth
        total_ghosts = int(cum[-1])
        m = n + total_ghosts

        # Extended array: each segment prefixed by its ghost stack.
        seg_id = np.repeat(np.arange(occ.size), seg_len)
        real_pos = np.arange(n, dtype=np.int64) + cum[seg_id]
        ext_start = seg_start + cum_excl
        ext = np.empty(m, dtype=np.int64)
        ext[real_pos] = l_sorted
        if total_ghosts:
            ghost_seg = np.repeat(np.arange(occ.size), depth)
            ghost_j = (np.arange(total_ghosts, dtype=np.int64)
                       - cum_excl[ghost_seg])
            ext[ext_start[ghost_seg] + ghost_j] = \
                self._stack[occ[ghost_seg], A - depth[ghost_seg] + ghost_j]

        # Run-head compression: an access equal to its in-segment
        # predecessor always hits and removing it changes no stack
        # distance (see module docstring); only heads are scanned.
        head = np.empty(m, dtype=bool)
        head[0] = True
        np.not_equal(ext[1:], ext[:-1], out=head[1:])
        head[ext_start] = True
        hidx = np.flatnonzero(head)
        core = ext[hidx]
        mc = core.size
        # Compressed-space segment starts/lengths.
        hcount = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(head, out=hcount[1:])
        c_start = hcount[ext_start]
        c_len = np.empty(occ.size, dtype=np.int64)
        c_len[:-1] = c_start[1:] - c_start[:-1]
        c_len[-1] = mc - c_start[-1]
        c_seg = np.repeat(np.arange(occ.size), c_len)

        # Previous (-1 = first in window) and next (mc = last in
        # window) occurrence of each line; equal lines always share a
        # segment, so neither crosses a segment boundary.
        order2 = np.argsort(core, kind="stable")
        P = np.full(mc, -1, dtype=np.int64)
        Nx = np.full(mc, mc, dtype=np.int64)
        if mc > 1:
            prv, nxt = order2[:-1], order2[1:]
            c2 = core[order2]
            same = c2[1:] == c2[:-1]
            P[nxt] = np.where(same, prv, np.int64(-1))
            Nx[prv] = np.where(same, nxt, np.int64(mc))
        seen = P >= 0

        # Verdict per run head: a distinct-line change always misses a
        # direct-mapped set; for A >= 2, resident iff fewer than A
        # distinct lines came between the two uses (module docstring,
        # step 4).
        if A == 1:
            miss_core = np.ones(mc, dtype=bool)
        else:
            miss_core = ~seen
            far = np.flatnonzero(seen)
            far = far[far - P[far] - 1 >= A]     # reuse gap of A or more
            miss_core[far], open_ = _scan_back(far, P, Nx, A)
            if open_.size:
                rel = np.arange(mc, dtype=np.int64) - c_start[c_seg]
                Prel = np.where(seen, P - c_start[c_seg], np.int64(-1))
                h = far[open_]
                C = _seg_prefix_leq(Prel, rel, c_seg, c_len, h)
                miss_core[h] = C - Prel[h] - 1 >= A
        miss_ext = np.zeros(m, dtype=bool)   # non-heads hit
        miss_ext[hidx] = miss_core
        miss_sorted = miss_ext[real_pos]

        # New carried state: each segment's last A distinct lines by
        # recency. Last occurrences ascend by recency within a segment
        # (position order IS recency order), so the per-segment tail of
        # length A, MRU in the last column, is the new stack.
        last_pos = np.flatnonzero(Nx == mc)
        seg_of = c_seg[last_pos]
        counts = np.bincount(seg_of, minlength=occ.size)
        rank_from_end = (np.cumsum(counts)[seg_of] - 1
                         - np.arange(last_pos.size))
        keep = rank_from_end < A
        self._stack[occ] = -1
        self._stack[occ[seg_of[keep]], A - 1 - rank_from_end[keep]] = \
            core[last_pos[keep]]
        self._depth[occ] = np.minimum(counts, A)
        nmiss = int(np.count_nonzero(miss_sorted))
        if self._rec is not None:
            self._rec.add(l_sorted, occ, bounds, miss_sorted, nmiss)
        return miss_sorted, nmiss

    def stacks(self, sets: np.ndarray) -> np.ndarray:
        # Right-aligned LRU-first rows, read backwards.
        return self._stack[sets][:, ::-1]

    def set_stacks(self, sets: np.ndarray, rows: np.ndarray) -> None:
        self._stack[sets] = rows[:, ::-1]
        self._depth[sets] = np.count_nonzero(rows >= 0, axis=1)

    # ------------------------------------------------------------------
    def contains(self, byte_addr: int) -> bool:
        """Whether the line holding ``byte_addr`` is currently resident."""
        line = int(byte_addr) >> self._line_shift
        return bool((self._stack[line & self._set_mask] == line).any())

    def resident_lines(self) -> np.ndarray:
        """All line ids currently resident (sorted)."""
        return np.sort(self._stack[self._stack >= 0])
