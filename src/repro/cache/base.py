"""Common cache-simulation interfaces, statistics and first-touch templates.

Every vectorized level simulator is a :class:`CacheLevel`: it
simulates set-partitioned windows (:meth:`CacheLevel.access_grouped`)
and exposes its state as one LRU stack per set, most recent first
(:meth:`CacheLevel.stacks`). On those two hooks this module builds the
one exact acceleration the levels share: a :class:`FirstTouchTemplate`
records what a simulated trace segment did to an A-way LRU level, and
costs any whole-line translate of that segment from the level's current
stacks without simulating it (:mod:`repro.experiments.extrapolate`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.params import CacheParams
from repro.cache.partition import partition

__all__ = ["CacheStats", "CacheLevel", "BATCH_TARGET", "FirstTouchTemplate"]

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


@dataclass(frozen=True, slots=True)
class FirstTouchTemplate:
    """One simulated trace segment's effect on an A-way LRU level.

    Take one set and the m distinct lines x0, x1, ... that the segment
    touches there, in first-touch order. By the LRU stack property
    (Mattson, Gecsei, Slutz & Traiger, IBM Systems Journal, 1970):

    * an access after its line's first touch has a stack distance the
      segment alone fixes, and a first touch at i >= A always misses;
      those ``internal`` misses survive a whole-line translate;
    * the first touch of x_i, i < A, hits iff x_i sits in the set's
      prior stack at some depth p and i plus the prior lines above p
      that are not among x0..x_{i-1} stays under A;
    * afterwards the set holds the segment's last min(m, A) distinct
      lines by recency, then its untouched prior lines in their order.

    So a segment whose stream is this one's shifted by ``d`` lines
    costs ``internal`` plus its first-touch misses against the stacks
    at ``sets + d``, and leaves ``last + d`` on top of them
    (:meth:`CacheLevel.shifted_first_touch`,
    :meth:`CacheLevel.commit_shifted`). At A = 1 a set's one first
    touch is its first access and ``last`` is its tag afterwards, so
    the per-set arrays below are (sets,) instead of (sets, A).
    """

    sets: np.ndarray        #: touched sets
    first: np.ndarray       #: (sets, A): first min(m, A) lines, in order
    first_miss: np.ndarray  #: (sets, A): whether those first touches missed
    last: np.ndarray        #: (sets, A): each set afterwards, MRU first
    recorded: np.ndarray    #: (sets, A): columns holding a line (min(m, A))
    accesses: int           #: accesses the level saw in the segment
    internal: int           #: misses that were not first touches i < A


class _Recording:
    """The first touches of one segment at one level, window by window.

    Per set, the first A distinct lines and whether each first touch
    missed. A set with fewer than A recorded lines has seen exactly
    those lines in the segment, so a window's first occurrence of a
    line there is a first touch iff it is not among them.
    """

    def __init__(self, num_sets: int, assoc: int, set_mask: int):
        self.assoc = assoc
        self.set_mask = set_mask
        self.count = np.zeros(num_sets, dtype=np.min_scalar_type(assoc))
        #: Each set's recorded lines, for the test above (A > 1 only).
        self.lines = (np.full((num_sets, assoc), -1, dtype=np.int64)
                      if assoc > 1 else None)
        #: (sets, columns, lines, misses) recorded, window by window.
        self.parts: list[tuple[np.ndarray, ...]] = []
        self.accesses = 0
        self.misses = 0

    def add(self, l_sorted: np.ndarray, occ: np.ndarray, bounds: np.ndarray,
            miss_sorted: np.ndarray, nmiss: int) -> None:
        """Fold in one window, as :meth:`CacheLevel.access_grouped`
        saw and simulated it."""
        self.accesses += l_sorted.size
        self.misses += nmiss
        A = self.assoc
        open_ = self.count[occ] < A
        if A == 1:
            # An open set is untouched so far: its first access is its
            # one first touch.
            starts = bounds[:-1]
            if not open_.all():
                occ, starts = occ[open_], starts[open_]
            self.count[occ] = 1
            self.parts.append((occ, None, l_sorted[starts],
                               miss_sorted[starts]))
            return
        if not open_.any():
            return
        pos = self._first_occurrences(l_sorted, bounds, open_)
        x = l_sorted[pos]
        s = x & self.set_mask
        fresh = ~(self.lines[s] == x[:, None]).any(axis=1)
        pos, x, s = pos[fresh], x[fresh], s[fresh]
        if not s.size:
            return
        # Column of each fresh line: its set's count so far plus its
        # rank among the set's fresh lines, in program order.
        head = np.empty(s.size, dtype=bool)
        head[0] = True
        np.not_equal(s[1:], s[:-1], out=head[1:])
        firsts = np.flatnonzero(head)
        sets = s[firsts]
        before = self.count[sets]
        group = np.cumsum(head) - 1
        col = before[group] + (np.arange(s.size) - firsts[group])
        self.count[sets] = np.minimum(
            before + np.diff(firsts, append=s.size), A)
        keep = col < A
        s, col, x = s[keep], col[keep], x[keep]
        self.lines[s, col] = x
        self.parts.append((s, col, x, miss_sorted[pos[keep]]))

    @staticmethod
    def _first_occurrences(l_sorted, bounds, open_) -> np.ndarray:
        """Positions in ``l_sorted`` of each line's first occurrence in
        the open sets' groups, in partitioned order."""
        if open_.all():
            base, lines = None, l_sorted
        else:
            base = np.flatnonzero(np.repeat(open_, np.diff(bounds)))
            lines = l_sorted[base]
        # A repeat of the previous access is no first occurrence; sort
        # the run heads' lines stably to find each line's first one.
        head = np.empty(lines.size, dtype=bool)
        head[0] = True
        np.not_equal(lines[1:], lines[:-1], out=head[1:])
        hpos = np.flatnonzero(head)
        order = np.argsort(lines[hpos], kind="stable")
        ordered = lines[hpos[order]]
        new = np.empty(order.size, dtype=bool)
        new[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        first = np.zeros(order.size, dtype=bool)
        first[order[new]] = True
        pos = hpos[first]
        return pos if base is None else base[pos]

    def template(self, level: "CacheLevel") -> "FirstTouchTemplate":
        """The recorded segment's template; ``level`` supplies the
        stacks it left."""
        A = self.assoc
        if self.parts:
            s, col, x, miss = (np.concatenate(c) if c[0] is not None
                               else None for c in zip(*self.parts))
        else:
            s = x = np.empty(0, dtype=np.int64)
            col, miss = s, np.empty(0, dtype=bool)
        if A == 1:
            # One first touch per set: the (sets,) arrays that
            # DirectMappedCache costs directly.
            sets, first, first_miss = s, x, miss
            recorded = np.ones(sets.size, dtype=bool)
            last = level.stacks(sets)[:, 0]
        else:
            # Each set's first record is its column 0; order the rows
            # by it and place every record in its row.
            sets = s[col == 0]
            row = np.empty(self.count.size, dtype=np.intp)
            row[sets] = np.arange(sets.size)
            first = np.full((sets.size, A), -1, dtype=np.int64)
            first_miss = np.zeros((sets.size, A), dtype=bool)
            first[row[s], col] = x
            first_miss[row[s], col] = miss
            recorded = np.arange(A) < self.count[sets][:, None]
            last = level.stacks(sets)
        return FirstTouchTemplate(
            sets.astype(level._set_dtype), first, first_miss, last,
            recorded, self.accesses,
            self.misses - int(np.count_nonzero(first_miss)))


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
    line ids already grouped by set index, and hand each window to the
    segment recorder while one is open — plus :meth:`stacks` /
    :meth:`set_stacks` over its state and
    ``reset``/``invalidate``/``contains``. Everything a caller drives
    it through lives here: :meth:`set_index` and ``access_grouped`` are
    the only methods :class:`~repro.cache.engine.HierarchyEngine`
    calls, :meth:`access` is the same partition-then-simulate pipeline
    for callers holding a plain chunk of byte addresses, and the
    first-touch template methods record and cost shifted segments for
    every associativity. State persists across calls, so traces may be
    streamed.

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
        #: The segment being recorded (:meth:`record_template`); the
        #: subclass's ``access_grouped`` feeds it every window.
        self._rec: _Recording | None = None

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

    def stacks(self, sets: np.ndarray) -> np.ndarray:
        """The LRU stacks of ``sets``: one row of ``assoc`` line ids
        each, most recent first; an empty way holds a negative id."""
        raise NotImplementedError

    def set_stacks(self, sets: np.ndarray, rows: np.ndarray) -> None:
        """Overwrite the stacks of ``sets`` with ``rows`` (the layout of
        :meth:`stacks`; empty way ``j`` holds ``-1 - j``), for
        :meth:`commit_shifted`."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # first-touch templates (exact acceleration of shifted segments)
    # ------------------------------------------------------------------
    def record_template(self) -> None:
        """Start recording the accesses that follow as one segment's
        :class:`FirstTouchTemplate` (ended by :meth:`take_template`)."""
        self._rec = _Recording(self.params.num_sets, self.params.assoc,
                               self._set_mask)

    def take_template(self) -> FirstTouchTemplate:
        """Stop recording; the template of everything since
        :meth:`record_template`."""
        rec, self._rec = self._rec, None
        return rec.template(self)

    def shifted_first_touch(self, tpl: FirstTouchTemplate, d_lines: int
                            ) -> tuple[object, np.ndarray]:
        """``(touch, first_miss)`` of ``tpl``'s segment shifted by
        ``d_lines`` lines: whether each first touch misses against the
        current stacks (shaped like ``tpl.first_miss``), and what
        :meth:`commit_shifted` needs to leave the stacks it leaves.
        This is the A >= 2 form; a direct-mapped level overrides it."""
        sets = tpl.sets + np.int64(d_lines)    # stored narrow; widen
        sets &= self._set_mask
        prior = self.stacks(sets)
        A = prior.shape[1]
        # eq[s, i, q]: first line i sits at depth q of the prior stack.
        eq = (tpl.first + d_lines)[:, :, None] == prior[:, None, :]
        depth = np.where(eq.any(axis=2), eq.argmax(axis=2), A)
        # Earlier first lines that sat above line i rose above it
        # without pushing it down.
        above = (depth[:, None, :] < depth[:, :, None]) & np.tri(
            A, k=-1, dtype=bool)
        first_miss = np.arange(A) + depth - above.sum(axis=2) >= A
        first_miss &= tpl.recorded
        return (sets, prior, eq), first_miss

    def commit_shifted(self, tpl: FirstTouchTemplate, d_lines: int,
                       touch) -> None:
        """Leave the stacks the shifted segment leaves: ``tpl.last``
        moved by ``d_lines`` on top, then the untouched prior lines
        (``touch`` from :meth:`shifted_first_touch`)."""
        sets, prior, eq = touch
        rec = tpl.recorded
        A = rec.shape[1]
        # A set that saw fewer than A lines keeps the prior lines it
        # did not touch below them, in their order.
        rows = np.where(rec, tpl.last + d_lines, -1 - np.arange(A))
        kept = (prior >= 0) & ~(eq & rec[:, :, None]).any(axis=1)
        slot = rec.sum(axis=1)[:, None] + np.cumsum(kept, axis=1) - 1
        kept &= slot < A
        rows[np.nonzero(kept)[0], slot[kept]] = prior[kept]
        self.set_stacks(sets, rows)

    # ------------------------------------------------------------------
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
