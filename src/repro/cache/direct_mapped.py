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
decomposition, kept per trace segment, is a :class:`FirstTouchTemplate`:
the exact cost of any whole-line translate of that segment
(:mod:`repro.experiments.extrapolate`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.base import CacheLevel, CacheStats
from repro.cache.params import CacheParams
from repro.errors import CacheGeometryError

__all__ = ["DirectMappedCache", "FirstTouchTemplate"]


@dataclass(frozen=True, slots=True)
class FirstTouchTemplate:
    """One simulated trace segment's effect on a direct-mapped level.

    A segment's misses at a direct-mapped level split in two. The first
    touch of each set misses or hits by that set's tag beforehand alone;
    every later access compares against the segment's own previous line
    in its set, so those ``internal`` misses do not change when the
    whole segment moves by a whole number of lines. Afterwards each
    touched set holds the last line the segment put there. A segment
    whose stream is this one's shifted by ``d`` lines therefore costs
    ``internal`` plus its first-touch misses against the tags at
    ``sets + d``, and leaves ``last + d`` behind
    (:meth:`DirectMappedCache.shifted_first_touch`,
    :meth:`DirectMappedCache.commit_shifted`).
    """

    sets: np.ndarray        #: touched sets
    first: np.ndarray       #: each set's first line in the segment
    first_miss: np.ndarray  #: whether that first touch missed
    last: np.ndarray        #: each set's last line (its tag afterwards)
    accesses: int           #: accesses the level saw in the segment
    internal: int           #: misses that were not first touches


class _Recording:
    """The first touches of one segment, gathered window by window.

    ``seen`` marks the sets an earlier window of the segment touched:
    their first access in a later window is internal.
    """

    def __init__(self, num_sets: int):
        self.seen = np.zeros(num_sets, dtype=bool)
        self.parts: list[tuple[np.ndarray, ...]] = []
        self.accesses = 0
        self.misses = 0

    def add(self, occ, first, first_miss, n: int, nmiss: int) -> None:
        self.accesses += n
        self.misses += nmiss
        fresh = ~self.seen[occ]
        if not fresh.all():
            occ, first, first_miss = occ[fresh], first[fresh], first_miss[fresh]
        self.seen[occ] = True
        self.parts.append((occ, first, first_miss))


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
        self._rec: _Recording | None = None

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
            self._rec.add(occ, first, first_miss, n, nmiss)
        return miss_sorted, nmiss

    # ------------------------------------------------------------------
    # first-touch templates (exact acceleration of shifted segments)
    # ------------------------------------------------------------------
    def record_template(self) -> None:
        """Start recording the accesses that follow as one segment's
        :class:`FirstTouchTemplate` (ended by :meth:`take_template`)."""
        self._rec = _Recording(self.params.num_sets)

    def take_template(self) -> FirstTouchTemplate:
        """Stop recording; the template of everything since
        :meth:`record_template`."""
        rec, self._rec = self._rec, None
        if rec.parts:
            sets, first, first_miss = (np.concatenate(c)
                                       for c in zip(*rec.parts))
        else:
            sets = first = np.empty(0, dtype=np.int64)
            first_miss = np.empty(0, dtype=bool)
        return FirstTouchTemplate(
            sets.astype(self._set_dtype), first, first_miss,
            self._tags[sets], rec.accesses,
            rec.misses - int(np.count_nonzero(first_miss)))

    def shifted_first_touch(self, tpl: FirstTouchTemplate, d_lines: int
                            ) -> tuple[np.ndarray, np.ndarray]:
        """``(sets, first_miss)`` of ``tpl``'s segment shifted by
        ``d_lines`` lines: the sets it touches and whether each first
        touch misses against the current tags."""
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
