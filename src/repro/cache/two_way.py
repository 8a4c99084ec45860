"""Vectorized 2-way set-associative LRU simulation.

The paper evaluates direct-mapped caches (the UltraSparc2's); a natural
question it leaves open is how much of the conflict problem higher
associativity would absorb. The exact scalar model in
:mod:`repro.cache.set_assoc` answers it slowly; this module makes the
2-way case as fast as the direct-mapped path, so full paper-scale
associativity sweeps are feasible.

Why 2-way admits a vectorized form: sort accesses stably by set and
compress each set's sequence to *run heads* (drop accesses equal to
their predecessor — those always hit). The compressed sequence has
consecutive-distinct lines, so after access ``x[i-1]`` an LRU pair
holds exactly ``{x[i-1], x[i-2]}``; a run head hits iff it equals
``x[i-2]`` (it differs from ``x[i-1]`` by construction). Carried state
(the last two distinct lines per set) extends the rule across chunks by
virtually prepending two entries to each segment.

(The same trick does not generalize to higher associativity: beyond two
ways, the last A compressed entries can contain duplicates, so they no
longer enumerate the cache contents.)

The carried pairs are also the level's LRU stacks (MRU first), on which
:class:`~repro.cache.base.CacheLevel` records and costs first-touch
templates; every window is handed to the segment recorder.
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import CacheLevel, CacheStats
from repro.cache.params import CacheParams
from repro.errors import CacheGeometryError

__all__ = ["TwoWayCache"]


class TwoWayCache(CacheLevel):
    """Streaming 2-way LRU simulator (vectorized)."""

    def __init__(self, params: CacheParams):
        if params.assoc != 2:
            raise CacheGeometryError(
                f"TwoWayCache requires assoc=2, got {params.assoc}")
        super().__init__(params)
        # Last two distinct lines per set, MRU first: the LRU stacks
        # (CacheLevel.stacks) with column views for the scan. -1/-2 are
        # the invalid sentinels (no byte address maps to negative
        # lines, and the two must differ so they never look like a
        # valid pair).
        self._ways = np.empty((params.num_sets, 2), dtype=np.int64)
        self._mru = self._ways[:, 0]
        self._lru = self._ways[:, 1]
        self.invalidate()

    def reset(self) -> None:
        """Empty the cache AND zero the statistics (a fresh simulator)."""
        self.stats = CacheStats()
        self.invalidate()

    def invalidate(self) -> None:
        """Empty the cache but keep the statistics (mid-stream flush)."""
        self._ways[:] = (-1, -2)

    # ------------------------------------------------------------------
    def access_grouped(self, l_sorted: np.ndarray, occ: np.ndarray,
                       bounds: np.ndarray) -> tuple[np.ndarray, int]:
        """Simulate a set-partitioned line stream against the carried
        pairs (see :meth:`CacheLevel.access_grouped`)."""
        n = l_sorted.size
        miss = np.zeros(n, dtype=bool)
        if n == 0:
            return miss, 0
        # Previous access's line, with the carried MRU at segment starts.
        prev1 = np.empty(n, dtype=np.int64)
        prev1[1:] = l_sorted[:-1]
        prev1[bounds[:-1]] = self._mru[occ]
        # A segment's last line is its new MRU (for a segment without
        # run heads that is the carried MRU, so this is always right).
        self._mru[occ] = l_sorted[bounds[1:] - 1]
        head = np.flatnonzero(l_sorted != prev1)      # non-heads hit
        if head.size == 0:
            if self._rec is not None:
                self._rec.add(l_sorted, occ, bounds, miss, 0)
            return miss, 0

        x = l_sorted[head]                 # compressed sequence
        xm1 = prev1[head]                  # x_{i-1} (or carried MRU)
        hset = x & self._set_mask
        first = np.empty(head.size, dtype=bool)   # first head of a set
        first[0] = True
        np.not_equal(hset[1:], hset[:-1], out=first[1:])
        # x_{i-2} is the previous head's x_{i-1} within a set; a set's
        # first head reaches back to the carried LRU instead.
        xm2 = np.empty(head.size, dtype=np.int64)
        xm2[1:] = xm1[:-1]
        xm2[first] = self._lru[hset[first]]
        miss_heads = x != xm2
        miss[head] = miss_heads
        # The distinct line before a set's last run is its new LRU.
        last = np.empty(head.size, dtype=bool)
        last[:-1] = first[1:]
        last[-1] = True
        self._lru[hset[last]] = xm1[last]
        nmiss = int(np.count_nonzero(miss_heads))
        if self._rec is not None:
            self._rec.add(l_sorted, occ, bounds, miss, nmiss)
        return miss, nmiss

    def stacks(self, sets: np.ndarray) -> np.ndarray:
        return self._ways[sets]

    def set_stacks(self, sets: np.ndarray, rows: np.ndarray) -> None:
        self._ways[sets] = rows

    # ------------------------------------------------------------------
    def contains(self, byte_addr: int) -> bool:
        line = int(byte_addr) >> self._line_shift
        s = line & self._set_mask
        return bool(self._mru[s] == line or self._lru[s] == line)
