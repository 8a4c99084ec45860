"""Vectorized direct-mapped cache simulation.

This is the fast path behind every miss-rate experiment in the paper
(both its caches are direct-mapped). The simulator never loops over
individual accesses in Python; each chunk is processed with
O(n + num_sets) numpy/scipy work:

1. map byte addresses to line ids (shift) and set indices (mask);
2. stably partition accesses by set index
   (:func:`repro.cache.partition.partition` — counting sort, or the
   original stable argsort as fallback; identical permutation either
   way) — within a set's segment the accesses remain in program order;
3. a non-first access in a segment misses iff its line differs from the
   immediately preceding access to the same set; the first access of each
   segment compares against the carried per-set resident tag;
4. the last access of each segment becomes the new resident tag.

Step 3 is exact for direct-mapped caches because the hit/miss outcome of
an access depends only on the single line currently resident in its set,
which is always the line of the previous access to that set.

State is carried across chunks, so traces can be streamed.
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import CacheLevel, CacheStats
from repro.cache.params import CacheParams
from repro.errors import CacheGeometryError

__all__ = ["DirectMappedCache"]

#: Sets :meth:`DirectMappedCache.tags_equal_shifted` samples before its
#: full comparison.
_SHIFT_SAMPLE = 64


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
    def access_grouped(self, l_sorted: np.ndarray,
                       bp: np.ndarray) -> tuple[np.ndarray, int]:
        """Simulate a set-partitioned line stream against carried tags
        (see :meth:`CacheLevel.access_grouped`)."""
        n = l_sorted.size
        miss_sorted = np.empty(n, dtype=bool)
        if n == 0:
            return miss_sorted, 0
        if n > 1:
            np.not_equal(l_sorted[1:], l_sorted[:-1], out=miss_sorted[1:])
        occupied = np.flatnonzero(bp[1:] > bp[:-1])  # sets with accesses
        starts = bp[occupied]
        # First access of each segment consults the carried resident tag
        # (overwriting the meaningless cross-segment comparison there).
        miss_sorted[starts] = self._tags[occupied] != l_sorted[starts]
        # Last access of each segment leaves its line resident.
        self._tags[occupied] = l_sorted[bp[occupied + 1] - 1]
        return miss_sorted, int(np.count_nonzero(miss_sorted))

    # ------------------------------------------------------------------
    # tag-state primitives for steady-state extrapolation
    # ------------------------------------------------------------------
    def tags_snapshot(self) -> np.ndarray:
        """A copy of the per-set resident line ids (-1 = empty set)."""
        return self._tags.copy()

    def shifted_tags(self, base: np.ndarray, d_lines: int) -> np.ndarray:
        """``base`` advanced by ``d_lines``: the tag array a stream
        shifted by ``d_lines`` cache lines would leave behind.

        A line ``L`` resident in set ``L & (S-1)`` maps to line
        ``L + d`` resident in set ``(L + d) & (S-1)`` — a roll of the
        tag array by ``d mod S`` with ``d`` added to occupied entries.
        """
        rolled = np.roll(base, int(d_lines) % self.params.num_sets)
        return np.where(rolled >= 0, rolled + np.int64(d_lines),
                        np.int64(-1))

    def tags_equal_shifted(self, base: np.ndarray, d_lines: int) -> bool:
        """Whether the current tags equal ``base`` shifted by ``d_lines``.

        A strided sample of :data:`_SHIFT_SAMPLE` sets is compared
        first, so the common "no" costs O(sample) rather than two copies
        of the tag array; only the full comparison can answer True.
        """
        nsets = self.params.num_sets
        sets = np.arange(0, nsets, max(1, nsets // _SHIFT_SAMPLE))
        src = base[(sets - d_lines) % nsets]
        if not np.array_equal(self._tags[sets],
                              np.where(src >= 0, src + d_lines, -1)):
            return False
        return bool(np.array_equal(self._tags,
                                   self.shifted_tags(base, d_lines)))

    def apply_tag_shift(self, d_lines: int) -> None:
        """Replace the tags with their own shift (state fast-forward)."""
        self._tags = self.shifted_tags(self._tags, d_lines)

    # ------------------------------------------------------------------
    def contains(self, byte_addr: int) -> bool:
        """Whether the line holding ``byte_addr`` is currently resident."""
        line = byte_addr >> self._line_shift
        return bool(self._tags[line & self._set_mask] == line)

    def resident_lines(self) -> np.ndarray:
        """Line ids currently in the cache (for inspection/tests)."""
        return self._tags[self._tags >= 0].copy()
