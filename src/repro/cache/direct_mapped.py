"""Vectorized direct-mapped cache simulation.

This is the fast path behind every miss-rate experiment in the paper
(both its caches are direct-mapped). The simulator never loops over
individual accesses in Python; each window is processed with O(window)
numpy/scipy work:

1. map byte addresses to line ids (shift) and set indices (mask);
2. stably partition accesses by set index
   (:func:`repro.cache.partition.partition`, which also returns the
   occupied sets and their bounds) — within a set's segment the
   accesses remain in program order;
3. a non-first access in a segment misses iff its line differs from the
   immediately preceding access to the same set; the first access of each
   segment compares against the carried per-set resident tag;
4. the last access of each segment becomes the new resident tag.

Step 3 is exact for direct-mapped caches because the hit/miss outcome of
an access depends only on the single line currently resident in its set,
which is always the line of the previous access to that set.

State is carried across chunks, so traces can be streamed. The same
decomposition, kept per trace segment, is the A = 1 case of a
:class:`~repro.cache.base.FirstTouchTemplate`: a set's first access
hits by its prior tag alone. Costing a whole-line translate of a
segment therefore needs no stack arithmetic here, and this class keeps
that cost to one gather, compare and scatter per level
(:meth:`DirectMappedCache.shifted_first_touch`).
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import CacheLevel, CacheStats, FirstTouchTemplate
from repro.cache.params import CacheParams
from repro.errors import CacheGeometryError

__all__ = ["DirectMappedCache"]


class DirectMappedCache(CacheLevel):
    """Streaming direct-mapped cache simulator (vectorized).

    Parameters
    ----------
    params:
        Cache geometry; ``params.assoc`` must be 1.
    """

    def __init__(self, params: CacheParams):
        if not params.is_direct_mapped:
            raise CacheGeometryError(
                f"DirectMappedCache requires assoc=1, got {params.assoc}")
        super().__init__(params)
        # Resident line id per set; -1 = invalid (no byte address maps to it).
        self._tags = np.full(params.num_sets, -1, dtype=np.int64)

    def reset(self) -> None:
        """Empty the cache AND zero the statistics (a fresh simulator)."""
        self.stats = CacheStats()
        self._tags.fill(-1)

    def invalidate(self) -> None:
        """Empty the cache but keep the statistics (mid-stream flush)."""
        self._tags.fill(-1)

    # ------------------------------------------------------------------
    def access_grouped(self, l_sorted: np.ndarray, occ: np.ndarray,
                       bounds: np.ndarray) -> tuple[np.ndarray, int]:
        """Simulate a set-partitioned line stream against carried tags
        (see :meth:`CacheLevel.access_grouped`)."""
        n = l_sorted.size
        miss_sorted = np.empty(n, dtype=bool)
        if n == 0:
            return miss_sorted, 0
        if n > 1:
            np.not_equal(l_sorted[1:], l_sorted[:-1], out=miss_sorted[1:])
        starts = bounds[:-1]
        first = l_sorted[starts]
        # First access of each segment consults the carried resident tag
        # (overwriting the meaningless cross-segment comparison there).
        first_miss = self._tags[occ] != first
        miss_sorted[starts] = first_miss
        # Last access of each segment leaves its line resident.
        self._tags[occ] = l_sorted[bounds[1:] - 1]
        nmiss = int(np.count_nonzero(miss_sorted))
        if self._rec is not None:
            self._rec.add(l_sorted, occ, bounds, miss_sorted, nmiss)
        return miss_sorted, nmiss

    def stacks(self, sets: np.ndarray) -> np.ndarray:
        return self._tags[sets][:, None]

    def shifted_first_touch(self, tpl: FirstTouchTemplate, d_lines: int
                            ) -> tuple[np.ndarray, np.ndarray]:
        """``(sets, first_miss)``: a first touch misses iff the tag at
        its shifted set is not its shifted line (the A = 1 case of
        :meth:`CacheLevel.shifted_first_touch`, without the stack
        arithmetic)."""
        sets = tpl.sets + np.int64(d_lines)    # stored narrow; widen
        sets &= self._set_mask
        return sets, self._tags[sets] != tpl.first + d_lines

    def commit_shifted(self, tpl: FirstTouchTemplate, d_lines: int,
                       sets: np.ndarray) -> None:
        """Leave the tags the shifted segment leaves: ``tpl.last`` moved
        by ``d_lines``, at the ``sets`` from :meth:`shifted_first_touch`."""
        self._tags[sets] = tpl.last + d_lines

    # ------------------------------------------------------------------
    def contains(self, byte_addr: int) -> bool:
        """Whether the line holding ``byte_addr`` is currently resident."""
        line = byte_addr >> self._line_shift
        return bool(self._tags[line & self._set_mask] == line)

    def resident_lines(self) -> np.ndarray:
        """Line ids currently in the cache (for inspection/tests)."""
        return self._tags[self._tags >= 0].copy()
