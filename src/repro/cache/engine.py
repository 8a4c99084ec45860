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
— the same split-invariant stream the per-chunk loop feeds it. A
classified L1 materializes its run windows (outcome ``classified``),
since the closed-form run path never builds a per-access mask.

The engine is created per ``run()`` and owns no cache state — tags and
statistics live in the level simulators exactly as before, so carried
state still flows across ``run()`` calls and mixed ``run()``/
``access()`` usage.
"""

from __future__ import annotations

import numpy as np

from repro.cache.partition import partition, run_line_intervals
from repro.obs import metrics
from repro.trace.runs import materialize_runs

__all__ = ["HierarchyEngine"]

#: Minimum predicted compression (accesses per line interval) for the
#: closed-form run path to be attempted. One interval costs roughly
#: this many times what one materialized access costs (the interval
#: pipeline pays a decomposition, a position sort, and demand
#: reconstruction the flat path never does), so below the threshold
#: materializing is simply faster — and bit-for-bit identical. Unit
#: element strides under 32-byte lines compress 4:1 (below threshold);
#: 64-byte-and-wider lines or coarser-than-element strides clear it.
RUN_PROFIT_RATIO = 6


def _runs_interleave(bases: np.ndarray, strides: np.ndarray,
                     counts: np.ndarray, shift: int, nsets: int) -> bool:
    """Whether any two runs' line intervals can overlap inside a set.

    This is the closed-form path's *exactness certificate*: a ``False``
    verdict proves no two different-line intervals of any set overlap
    in time, so each set's access subsequence is exactly its interval
    heads in start order and the window may be simulated from the
    decomposition alone, with no per-interval runtime guard.

    The proof obligation reduces as follows. Conflicts are always
    *intra*-segment — segments partition the stream, and an interval's
    position range lies inside its segment's position range — so pairs
    of runs from one segment are the only candidates. Within a segment
    all runs share one stride ``s``, so references ``a`` and ``b``
    advance in lockstep: interval ``j`` of a run occupies positions
    from ``ceil((j*W - phi)/s)`` iterations in (``W`` = line bytes,
    ``phi`` = the base's sub-line phase), and since ``ceil`` is
    monotone, intervals of ``a`` and ``b`` can only overlap when their
    relative progress ``delta = j_b - j_a`` satisfies ``delta*W <
    W + phi_b - phi_a`` and ``-delta*W < W + phi_a - phi_b`` — i.e.
    ``delta`` in {-1, 0, +1}, with ``delta = +1`` further requiring
    ``phi_b > phi_a`` and ``delta = -1`` requiring ``phi_a > phi_b``
    (both made non-strict below, absorbing integer-rounding boundary
    ties into the safe direction). Same-set-different-line pairs also
    need ``delta ≡ lo_a - lo_b (mod nsets)`` with distinct lines, and
    ``delta`` must be realizable within both spans. Single-iteration
    runs are single-position intervals and cannot overlap anything.
    Run-edge intervals (clamped starts, truncated ends) occupy subsets
    of their ideal ranges, so the test remains sound for them.

    Cost: O(segments * refs^2) vectorized residue arithmetic — noise
    next to the window's decomposition. Conflicted geometry is usually
    visible in any one segment (the pairwise byte offsets between
    references are fixed across a stream), so a three-segment sample
    runs first and short-circuits the common conflicted case before
    the full certificate is attempted.
    """
    nseg = bases.shape[0]
    sample = np.unique([0, nseg // 2, nseg - 1])
    for sel in (sample, None):
        g = sel if sel is not None else np.arange(nseg)
        g = g[counts[g] > 1]
        if g.size == 0:
            continue
        b = bases[g]
        lo = b >> shift
        span = ((b + (counts[g, None] - 1) * strides[g, None]) >> shift
                ) - lo + 1
        phi = b - (lo << shift)
        D = lo[:, :, None] - lo[:, None, :]
        r = D % nsets
        sa, sb = span[:, :, None], span[:, None, :]
        pa, pb = phi[:, :, None], phi[:, None, :]
        c0 = (r == 0) & (D != 0)
        c1 = ((r == 1) & (D != 1) & (pa <= pb)
              & (np.minimum(sa, sb - 1) > 0))
        cm = ((r == nsets - 1) & (D != -1) & (pa >= pb)
              & (np.minimum(sa - 1, sb) > 0))
        if bool(np.any(c0 | c1 | cm)):
            return True
        if sel is None:
            return False
    return False


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
        self._params = list(params)
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

    def feed_runs(self, bases: np.ndarray, strides: np.ndarray,
                  counts: np.ndarray) -> None:
        """Consume one chunk of cacheable affine runs (program order).

        ``bases`` is ``(n_segments, n_refs)`` — already write-filtered
        by the caller — with per-segment ``strides``/``counts`` (see
        :class:`~repro.trace.runs.RunChunk`). Eligible windows are
        simulated at L1 straight from the closed-form interval
        decomposition; anything the closed form cannot prove exact or
        profitable (per-set interleaving, out-of-range strides, low
        compression, a classified L1) is materialized and driven
        through the ordinary flat path — statistics are bit-for-bit
        identical either way.
        """
        nseg, nrefs = bases.shape
        if nseg == 0 or nrefs == 0:
            return
        total = int(counts.sum()) * nrefs
        if total == 0:
            return
        outcome = self._run_outcome(bases, strides, counts, total)
        metrics.inc("repro.cache.run_windows", outcome=outcome)
        if outcome != "runs":
            metrics.inc("repro.cache.run_elements", total,
                        path="materialized")
            self._feed_level(
                0, materialize_runs(bases, strides, counts).reshape(-1))
            return
        # Run windows are simulated inline, so L1's flat buffer must
        # drain first to keep the level's input in stream order.
        self._flush_level(0)
        demand = self._run_window(bases, strides, counts)
        metrics.inc("repro.cache.run_elements", total, path="runs")
        if self._nlev > 1 and demand.size:
            self._feed_level(1, demand)

    def _run_outcome(self, bases: np.ndarray, strides: np.ndarray,
                     counts: np.ndarray, total: int) -> str:
        """``"runs"`` if L1 may take the closed form, else the reason."""
        if self._classifiers[0] is not None:
            return "classified"
        line_bytes = self._params[0].line_bytes
        if total >= (1 << 31) or not bool(np.all(
                ((strides > 0) & (strides <= line_bytes))
                | ((strides == 0) & (counts == 1)))):
            return "stride_fallback"
        shift = self._shifts[0]
        # Closed-form interval count — the run path's whole cost scales
        # with it, so low compression means the flat path wins even
        # though both are exact. Predicted without decomposing.
        nv = int(((bases + (counts[:, None] - 1) * strides[:, None])
                  >> shift).sum() - (bases >> shift).sum()) + bases.size
        if total < nv * RUN_PROFIT_RATIO:
            return "unprofitable"
        if _runs_interleave(bases, strides, counts, shift, self._nsets[0]):
            return "conflict"
        return "runs"

    def _run_window(self, bases: np.ndarray, strides: np.ndarray,
                    counts: np.ndarray) -> np.ndarray:
        """Simulate one run window at L1 without expanding addresses.

        Returns the window's demand stream (missed byte addresses in
        program order). The caller must have certified the window with
        :func:`_runs_interleave` first — the closed form is only exact
        when no two different-line intervals of a set overlap in time.

        Exactness then rests on three facts the flat simulators
        already rely on: statistics depend only on each set's access
        subsequence in program order; an access equal to its set
        predecessor always hits without disturbing LRU state (so each
        interval contributes its head access only); and with no
        overlap, the set's subsequence *is* the interval heads in
        start order.
        """
        lvl = self._levels[0]
        nseg, nrefs = bases.shape
        shift = self._shifts[0]
        nsets = self._nsets[0]
        run, _, line, p = run_line_intervals(bases, strides, counts, shift)
        nv = p.size
        total = int(counts.sum()) * nrefs
        # Two cheap stable passes instead of one comparison sort on a
        # combined key: ``p`` is a concatenation of per-run ascending
        # sequences (an int32 radix/timsort best case), and the set
        # partition is the counting sort the flat path already uses.
        # Stability makes the per-set streams start-position-ordered,
        # and ``ip[order]`` maps sorted space back to interval rows.
        ip = np.argsort(p, kind="stable")
        order, bp = partition(lvl.set_index(line[ip]), nsets,
                              self._strategy)
        idx = ip[order]
        lg = line[idx]
        starts = bp[np.flatnonzero(bp[1:] > bp[:-1])]
        head = np.empty(nv, dtype=bool)
        head[0] = True
        np.not_equal(lg[1:], lg[:-1], out=head[1:])
        head[starts] = True
        hidx = np.flatnonzero(head)
        prefix = np.zeros(nv + 1, dtype=np.int32)
        np.cumsum(head, out=prefix[1:])
        miss_core, nmiss = lvl.access_grouped(
            lg[hidx], prefix[bp].astype(np.int64))
        lvl.stats.accesses += total
        lvl.stats.misses += nmiss
        if self._nlev == 1:
            return np.empty(0, dtype=np.int64)
        midx = np.flatnonzero(miss_core)
        if midx.size == 0:
            return np.empty(0, dtype=np.int64)
        # The missed heads' byte addresses, restored to program order
        # (``p`` *is* the program-order position), are exactly the flat
        # path's demand-miss stream. Everything here is sized by the
        # miss count, not the interval count — the common mostly-hit
        # window pays nothing for demand reconstruction.
        iv = idx[hidx[midx]]
        iv = iv[np.argsort(p[iv], kind="stable")]
        bf = bases.reshape(-1)
        s_runf = np.maximum(np.repeat(strides, nrefs), 1)
        riv = run[iv]
        x = line[iv] << shift
        x -= bf[riv]
        s_iv = s_runf[riv]
        x += s_iv
        x -= 1
        if bool(np.all(s_runf & (s_runf - 1) == 0)):
            sh_runf = np.round(np.log2(s_runf)).astype(np.int64)
            t = x >> sh_runf[riv]             # == ceil((line<<L - b)/s)
        else:
            t = x // s_iv
        np.maximum(t, 0, out=t)               # run-first intervals: t = 0
        t *= s_iv
        t += bf[riv]
        return t

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
