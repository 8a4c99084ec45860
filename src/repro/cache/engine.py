"""Batched single-pass hierarchy engine.

:meth:`CacheHierarchy.run <repro.cache.hierarchy.CacheHierarchy.run>`
drives every trace through this engine. It produces **bit-for-bit** the
same :class:`HierarchyStats` (and 3C classification) as the per-chunk
``access()`` loop — the differential tests in
``tests/test_cache_engine.py`` hold it to that — by exploiting a
property both paths share: direct-mapped/LRU simulation with carried
state is *split-invariant*, so the stream may be re-batched freely
without changing a single miss.

**One level contract.** Each level window is partitioned by the level's
:meth:`~repro.cache.base.CacheLevel.set_index` and simulated by its
:meth:`~repro.cache.base.CacheLevel.access_grouped`; those are the only
simulator methods the engine calls, whatever the associativity.

**Windowed batching.** Every level consumes its input stream in
windows of its simulator's ``window`` addresses
(:data:`~repro.cache.base.BATCH_TARGET` unless the simulator wants more
amortization). Chunks smaller than a
window (a tile row's last, partial batch of tiles, for instance) are
buffered and concatenated so the fixed per-call numpy cost is paid
once per window; chunks larger than a window are *split*, because the
counting partition's scatter is 4-6x faster when its working set stays
cache-resident — a whole-trace sort would stream multi-MB temporaries
through memory for no algorithmic gain.

**Per-level demand buffering.** A level's demand stream (the misses it
forwards) is buffered the same way, so L2 is also simulated in
full-size windows instead of one small call per L1 window. Levels are
decoupled by their carried state: only the order of each level's own
input matters, and buffering preserves it.

**Classification.** A level's miss classifier sees every window of
that level in stream order, with the window's program-order miss mask
— the same split-invariant stream the per-chunk loop feeds it.

The engine is created per ``run()`` and owns no cache state — tags and
statistics live in the level simulators exactly as before, so carried
state still flows across ``run()`` calls and mixed ``run()``/
``access()`` usage.
"""

from __future__ import annotations

import numpy as np

from repro.cache.partition import partition
from repro.obs import metrics

__all__ = ["HierarchyEngine"]


class HierarchyEngine:
    """Buffers cacheable addresses and simulates them level by level.

    Parameters
    ----------
    levels:
        The hierarchy's live level simulators (state + stats holders).
    params:
        Matching :class:`~repro.cache.params.CacheParams` per level.
    classifiers:
        Per-level :class:`~repro.cache.classify.MissClassifier` or
        ``None`` (the hierarchy's list).
    strategy:
        Partition strategy override forwarded to
        :func:`repro.cache.partition.partition` (tests force
        ``"argsort"`` to diff the two paths); ``None`` = automatic.
    """

    def __init__(self, levels, params, classifiers,
                 strategy: str | None = None):
        self._levels = list(levels)
        self._classifiers = list(classifiers)
        self._strategy = strategy
        self._nlev = len(self._levels)
        self._shifts = [int(p.line_bytes).bit_length() - 1 for p in params]
        self._nsets = [p.num_sets for p in params]
        self._bufs: list[list[np.ndarray]] = [[] for _ in levels]
        self._pending = [0] * self._nlev
        self._wins = [lvl.window for lvl in self._levels]

    # ------------------------------------------------------------------
    def feed(self, byte_addrs: np.ndarray) -> None:
        """Buffer one cacheable (already write-filtered) address array."""
        self._feed_level(0, byte_addrs)

    def flush(self) -> None:
        """Simulate everything buffered so far (idempotent when empty)."""
        for i in range(self._nlev):
            # Flushing level i feeds level i+1's buffer, which the next
            # iteration drains — nearest level first, by construction.
            self._flush_level(i)

    # ------------------------------------------------------------------
    def _feed_level(self, i: int, stream: np.ndarray) -> None:
        if stream.size == 0:
            return
        self._bufs[i].append(stream)
        self._pending[i] += stream.size
        if self._pending[i] >= self._wins[i]:
            self._flush_level(i)

    def _flush_level(self, i: int) -> None:
        buf = self._bufs[i]
        if not buf:
            return
        batch = buf[0] if len(buf) == 1 else np.concatenate(buf)
        buf.clear()
        self._pending[i] = 0
        win = self._wins[i]
        for s in range(0, batch.size, win):
            demand = self._process(i, batch[s:s + win])
            if demand is not None:
                self._feed_level(i + 1, demand)

    def _process(self, i: int, window: np.ndarray) -> np.ndarray | None:
        """Simulate one window at level ``i``; return its demand stream
        (missed byte addresses in program order; ``None`` at the last
        level)."""
        lvl = self._levels[i]
        if i == 0:
            metrics.inc("repro.cache.batches")
        lines = window >> self._shifts[i]
        order, bp = partition(lvl.set_index(lines), self._nsets[i],
                              self._strategy)
        miss_sorted, nmiss = lvl.access_grouped(lines[order], bp)
        lvl.stats.accesses += window.size
        lvl.stats.misses += nmiss
        last = i + 1 == self._nlev
        cls = self._classifiers[i]
        if last and cls is None:
            return None
        # Program-order miss mask: scatter the sorted-space miss
        # positions through the permutation.
        miss = np.zeros(window.size, dtype=bool)
        miss[order[miss_sorted]] = True
        if cls is not None:
            cls.classify(window, miss)
        return None if last else window[miss]
