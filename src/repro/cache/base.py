"""Common cache-simulation interfaces and statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.params import CacheParams
from repro.cache.partition import partition

__all__ = ["CacheStats", "CacheLevel", "BATCH_TARGET"]

#: Default addresses per simulated window (128 KB of int64): large
#: enough to amortize numpy call overhead, small enough that the
#: partition scatter and segment scans stay cache-resident.
BATCH_TARGET = 1 << 14


@dataclass(slots=True)
class CacheStats:
    """Hit/miss counters for one cache level."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        """Local miss rate: misses over accesses *to this level*."""
        return self.misses / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.accesses += other.accesses
        self.misses += other.misses

    def copy(self) -> "CacheStats":
        return CacheStats(self.accesses, self.misses)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CacheStats(accesses={self.accesses}, misses={self.misses}, "
                f"miss_rate={self.miss_rate:.4f})")


def _set_dtype(num_sets: int):
    """The narrowest dtype that holds a set index.

    The argsort partition consumes it without a conversion (numpy's
    radix path, int16 up to 32768 sets, which includes both of the
    paper's caches); the counting partition widens it to int32 for
    scipy's 32-bit scatter kernel.
    """
    if num_sets <= (1 << 15):
        return np.int16
    if num_sets <= (1 << 31):
        return np.int32
    return np.int64  # pragma: no cover - absurd geometry


class CacheLevel:
    """Base of the vectorized level simulators: the one level contract.

    A subclass implements :meth:`access_grouped` — simulate a stream of
    line ids already grouped by set index — plus its state and
    ``reset``/``invalidate``/``contains``. Everything a caller drives
    it through lives here: :meth:`set_index` and ``access_grouped`` are
    the only methods :class:`~repro.cache.engine.HierarchyEngine`
    calls, and :meth:`access` is the same partition-then-simulate
    pipeline for callers holding a plain chunk of byte addresses.
    State persists across calls, so traces may be streamed.

    ``reset()`` is a *full* reset — statistics included; ``invalidate()``
    drops contents and keeps statistics. Use
    :meth:`repro.cache.hierarchy.CacheHierarchy.invalidate` when a level
    sits inside a hierarchy so the hierarchy's totals stay consistent.
    """

    #: Addresses per simulated window, in :meth:`access` and in the
    #: hierarchy engine alike.
    window = BATCH_TARGET

    def __init__(self, params: CacheParams):
        self.params = params
        self._line_shift = int(params.line_bytes).bit_length() - 1
        self._set_mask = params.num_sets - 1
        self._set_dtype = _set_dtype(params.num_sets)
        self._set_mask_narrow = self._set_dtype(params.num_sets - 1)
        self.stats = CacheStats()

    def set_index(self, lines: np.ndarray) -> np.ndarray:
        """Set indices for line ids, in the partition-friendly dtype.

        Narrow first, mask in place: the mask keeps only the low
        log2(num_sets) bits, which a truncating downcast preserves
        exactly, so this equals ``(lines & mask).astype(dtype)`` without
        the intermediate full-width int64 temporary.
        """
        sets = lines.astype(self._set_dtype)
        np.bitwise_and(sets, self._set_mask_narrow, out=sets)
        return sets

    def access_grouped(self, l_sorted: np.ndarray, occ: np.ndarray,
                       bounds: np.ndarray) -> tuple[np.ndarray, int]:
        """Simulate a set-partitioned line stream against carried state.

        ``l_sorted`` holds line ids grouped by set index (program order
        within each group); ``occ`` and ``bounds`` are the occupied sets
        and their group bounds as returned by
        :func:`repro.cache.partition.partition` (set ``occ[g]`` occupies
        ``l_sorted[bounds[g]:bounds[g + 1]]``), so the work is
        O(window), never O(num_sets). Returns ``(miss_sorted, n_miss)``
        in the partitioned order and updates the carried state; the
        caller owns statistics.
        """
        raise NotImplementedError

    def access(self, byte_addrs: np.ndarray) -> np.ndarray:
        """Simulate a chunk of accesses; return the boolean miss mask."""
        byte_addrs = np.asarray(byte_addrs, dtype=np.int64)
        n = byte_addrs.size
        miss = np.empty(n, dtype=bool)
        n_miss = 0
        for s in range(0, n, self.window):
            lines = byte_addrs[s:s + self.window] >> self._line_shift
            order, occ, bounds = partition(self.set_index(lines),
                                           self.params.num_sets)
            miss_sorted, k = self.access_grouped(lines[order], occ, bounds)
            miss[s:s + self.window][order] = miss_sorted
            n_miss += k
        self.stats.accesses += n
        self.stats.misses += n_miss
        return miss
