"""Exact acceleration by first-touch segment templates.

A point's iteration stream is cut into *segments*: one K plane of an
untiled sweep, or one tile column of a tiled one. Tiles under
:data:`SEGMENT_ITERATIONS` iterations (Euc3D's 1x1 fallback) are
grouped: a segment is then the smallest run of consecutive tiles of one
row that reaches that size and moves by whole lines of the widest
level.

Every simulated segment leaves, at each level, a
:class:`~repro.cache.base.FirstTouchTemplate`: per touched set, the
first min(m, A) distinct lines it touched there (m of them in all, A
the level's ways) and whether each of those first touches missed, the
last min(m, A) lines by recency, and the segment's internal misses
(every other access's). A later segment is **costed from a template
instead of generated and simulated** when

* its iteration arrays equal the template's shifted by (dI, dJ, dK) —
  compared, not assumed — and
* that shift moves every array by one byte distance ``d`` that is a
  multiple of every level's line size (dI always gives one; dJ and dK
  only when all arrays share that stride).

A whole-line translate leaves a segment's internal misses unchanged
(by the LRU stack property, a later access's stack distance depends on
the segment alone), and each first touch hits or misses by its set's
prior LRU stack alone. So if every level but the last reproduces the
template's first-touch outcomes on the shifted sets, the next level's
input is the template's translate too, and at every level the
segment's misses are the template's internal misses plus its
first-touch misses against the current stacks; the touched sets then
hold the template's last lines plus ``d`` on top of their untouched
prior lines. That is one gather, compare and scatter per level over
the segment's footprint sets (a direct-mapped level compares one tag
per set; an A-way level compares A lines against A ways): the fix-up
step of time-partitioned trace-driven cache simulation (Heidelberger &
Stone, "Parallel trace-driven cache simulation by time partitioning",
WSC 1990), applied to translates.

A segment's candidates are the templates of the previous
:data:`CANDIDATE_DEPTH` segments and of the previous
:data:`CANDIDATE_DEPTH` segments that started at the same I (the same
tile position in earlier tile rows; for an untiled sweep, the earlier
planes of the same red-black colour). A costed segment passes its
template on to its own successors. Simulated segments are traced by
``StencilKernel.trace`` like any point's iterations and run through the
point's one ``CacheHierarchy.run``, with the engine flushed at each
segment's boundary so its template covers exactly that segment. Past
the first :data:`PROBE_SEGMENTS` simulated segments, a point none of
whose segments has yet matched a candidate's shape at a whole-line
shift keeps no template and flushes nothing until one does.

Ineligible by construction, and simulated in full (checked in this
order):

* **classifiers** — 3C classification, attached only when the point
  policy asks for it (``--classify``), must observe every access
  (``reason="classifiers"``); a live metrics registry attaches none;
* **mixed plane strides in an untiled sweep** — its segments differ by
  K steps only, and when arrays have different padded plane sizes
  (RESID GcdPadNT) a K step moves each array by a different distance,
  so no single ``d`` exists (``reason="plane_stride"``). Tiled
  schedules with mixed strides (RESID's padded U) stay eligible; only
  their dI shifts qualify.

A point where no segment ever matched a template reports
``reason="no_steady_state"``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from math import gcd

import numpy as np

from repro.cache.hierarchy import CacheHierarchy, HierarchyStats
from repro.kernels.base import Schedule
from repro.trace.generator import count_refs

__all__ = ["CANDIDATE_DEPTH", "ExtrapolationReport", "PROBE_SEGMENTS",
           "SEGMENT_ITERATIONS", "simulate_extrapolated"]

#: Iterations a grouped segment of small tiles reaches at least.
SEGMENT_ITERATIONS = 2000

#: Previous segments, and previous segments at the same I, whose
#: templates a segment tries.
CANDIDATE_DEPTH = 8

#: Simulated segments that keep a template although no segment has yet
#: matched an earlier one's shape at a whole-line shift; later ones keep
#: a template only once some segment has.
PROBE_SEGMENTS = CANDIDATE_DEPTH


@dataclass(frozen=True)
class ExtrapolationReport:
    """What the segment filter did for one point."""

    #: True when at least one segment was costed from a template.
    fired: bool
    #: Segments generated and simulated (0 when the point was
    #: ineligible and simulated whole).
    segments_simulated: int
    #: Segments costed from a template instead.
    segments_skipped: int
    #: Demand references (reads and writes) of the skipped segments.
    refs_skipped: int
    #: Why the point was simulated in full: ``classifiers`` /
    #: ``plane_stride`` / ``no_steady_state``; ``None`` when a segment
    #: was skipped. Any cache geometry is eligible.
    reason: str | None


def _ineligibility(sel, hier: CacheHierarchy, specs) -> str | None:
    """The precondition that rules this point out, or ``None``."""
    if any(c is not None for c in hier.classifiers):
        # Miss classifiers must observe every access; skipped segments
        # would leave the shadow caches stale.
        return "classifiers"
    if not sel.tiled and len({s.plane for s in specs.values()}) != 1:
        return "plane_stride"
    return None


def _tiles_per_segment(kern, sel, schedule: Schedule,
                       line_bytes: int) -> int | None:
    """Tiles per segment of a tiled schedule; ``None`` when untiled."""
    if not sel.tiled:
        return None
    ti = min(sel.tile.ti, kern.n - 2)
    if schedule is Schedule.TILED_3LOOP:
        depth = (sel.array_tile.tk if sel.array_tile is not None
                 else kern.meta.atd)
    else:
        depth = kern.nk - 2
    tile_iters = ti * min(sel.tile.tj, kern.n - 2) * depth
    if tile_iters >= SEGMENT_ITERATIONS:
        return 1
    # The fewest tiles reaching the size whose I extent moves the
    # stream by whole lines.
    step = line_bytes // gcd(ti * kern.elem_bytes, line_bytes)
    tiles = -(-SEGMENT_ITERATIONS // tile_iters)
    return -(-tiles // step) * step


class _Segment:
    """One segment's iteration arrays, keyed by its first iteration."""

    def __init__(self, i, j, k):
        self.ijk = (i, j, k)
        self.size = i.size
        self.origin = (int(i[0]), int(j[0]), int(k[0]))
        self._rel: tuple | None = None
        self._matched: dict[int, bool] = {}
        #: A stored pattern equal to this segment's, once one is found.
        self.pattern: tuple | None = None

    @property
    def rel(self) -> tuple:
        """The iteration arrays less the first iteration."""
        if self._rel is None:
            self._rel = tuple(a - o for a, o in zip(self.ijk, self.origin))
        return self._rel

    def matches(self, pattern: tuple) -> bool:
        """Whether this segment's shape is ``pattern`` (compared once
        per pattern object)."""
        hit = self._matched.get(id(pattern))
        if hit is None:
            hit = all(np.array_equal(a, b) for a, b in zip(self.rel, pattern))
            self._matched[id(pattern)] = hit
            if hit:
                self.pattern = pattern
        return hit

    def stored_pattern(self) -> tuple:
        """A pattern to keep with this segment's template: an equal one
        already stored, else this segment's own, narrowed."""
        if self.pattern is None:
            span = max(int(np.abs(a).max()) for a in self.rel)
            dtype = np.int16 if span < (1 << 15) else np.int32
            self.pattern = tuple(a.astype(dtype) for a in self.rel)
        return self.pattern


@dataclass(frozen=True, slots=True)
class _Template:
    """A simulated segment: where it started, its shape, and its
    first-touch template at every level (``None`` when none was kept)."""

    origin: tuple[int, int, int]
    pattern: tuple
    levels: list | None
    size: int       #: iterations


class _SegmentFilter:
    """The segments of one eligible point, less the template-costed.

    :meth:`segments` is the iteration stream fed through
    ``StencilKernel.trace`` into the point's single ``CacheHierarchy.run``.
    When it resumes after yielding a segment, that segment has been fed
    to the engine; it flushes the engine and keeps the segment's
    template. Before yielding the next one it tries the candidates'
    templates and, on a match, costs the segment instead.

    Recording a template costs up to about as much again as simulating
    its segment, and a template can only ever serve a segment of the same
    shape at a whole-line shift. So past the first
    :data:`PROBE_SEGMENTS` simulated segments, while no segment has
    matched a candidate's shape and shift, segments are simulated
    without a template or a flush (their shapes are still kept, to
    notice the first recurrence).
    """

    def __init__(self, hier: CacheHierarchy, specs, refs, tiled: bool):
        self.hier = hier
        self.levels = hier.levels
        self.lines = [p.line_bytes for p in hier.params]
        #: (element, row, plane) strides of every array, in bytes.
        self.strides = {(s.elem_bytes, s.di * s.elem_bytes,
                         s.plane * s.elem_bytes) for s in specs.values()}
        self.reads_per_iter, self.writes_per_iter = count_refs(refs)
        self.recent: deque = deque(maxlen=CANDIDATE_DEPTH)
        # Earlier tiles at the same I sit whole tile rows (dJ) back,
        # which no single distance describes when the arrays' row
        # strides differ (RESID's padded U): keep no such candidates.
        self.by_start: dict[int, deque] | None = (
            None if tiled and len({row for _, row, _ in self.strides}) > 1
            else {})
        #: Whether a segment has matched a candidate's shape and shift.
        self.recurred = False
        self.simulated = 0
        self.skipped = 0
        self.refs_skipped = 0

    def report(self) -> ExtrapolationReport:
        fired = self.skipped > 0
        return ExtrapolationReport(
            fired=fired, segments_simulated=self.simulated,
            segments_skipped=self.skipped, refs_skipped=self.refs_skipped,
            reason=None if fired else "no_steady_state")

    # ------------------------------------------------------------------
    def _candidates(self, start: int):
        seen = set()
        same_start = () if self.by_start is None else \
            reversed(self.by_start.get(start, ()))
        for tpl in chain(reversed(self.recent), same_start):
            if id(tpl) not in seen:
                seen.add(id(tpl))
                yield tpl

    def _remember(self, start: int, tpl: _Template) -> None:
        self.recent.append(tpl)
        if self.by_start is not None:
            self.by_start.setdefault(
                start, deque(maxlen=CANDIDATE_DEPTH)).append(tpl)

    def _shift(self, tpl: _Template, seg: _Segment) -> int | None:
        """The byte distance moving every array from ``tpl`` onto
        ``seg``, when there is one and it is whole lines everywhere."""
        di, dj, dk = (a - b for a, b in zip(seg.origin, tpl.origin))
        ds = {di * eb + dj * row + dk * plane
              for eb, row, plane in self.strides}
        if len(ds) != 1:
            return None
        d = ds.pop()
        if any(d % line for line in self.lines):
            return None
        return d

    def _first_touches(self, tpl: _Template, d: int) -> list | None:
        """Per level, ``tpl``'s segment shifted by ``d`` bytes: its
        touch (for ``commit_shifted``) and its first-touch misses;
        ``None`` where a level above the last misses differently from
        the template, so the next level's input would differ."""
        out = []
        last = len(self.levels) - 1
        for idx, (lvl, t, line) in enumerate(zip(self.levels, tpl.levels,
                                                 self.lines)):
            touch, first_miss = lvl.shifted_first_touch(t, d // line)
            if idx < last and not np.array_equal(first_miss, t.first_miss):
                return None
            out.append((touch, first_miss))
        return out

    def _cost(self, seg: _Segment) -> bool:
        """Cost ``seg`` from the first candidate template that proves
        it; False when none does."""
        for tpl in self._candidates(seg.origin[0]):
            if tpl.size != seg.size:
                continue
            d = self._shift(tpl, seg)
            if d is None or not seg.matches(tpl.pattern):
                continue
            if not self.recurred:
                # The first recurring shape: segments simulated without
                # a template may still sit in the engine's buffers.
                self.recurred = True
                self.hier.flush()
            if tpl.levels is None:
                continue
            touched = self._first_touches(tpl, d)
            if touched is None:
                continue
            deltas = []
            for lvl, t, line, (touch, first_miss) in zip(
                    self.levels, tpl.levels, self.lines, touched):
                lvl.commit_shifted(t, d // line, touch)
                deltas.append((t.accesses,
                               t.internal + int(np.count_nonzero(first_miss))))
            reads = seg.size * self.reads_per_iter
            writes = seg.size * self.writes_per_iter
            self.hier.advance_stats(deltas, reads=reads, writes=writes)
            self._remember(seg.origin[0], tpl)
            self.skipped += 1
            self.refs_skipped += reads + writes
            return True
        return False

    def segments(self, chunks):
        """Yield the ``(I, J, K)`` segments that must be simulated."""
        hier = self.hier
        for i, j, k in chunks:
            if i.size == 0:
                continue
            seg = _Segment(i, j, k)
            if self._cost(seg):
                continue
            self.simulated += 1
            if not self.recurred and self.simulated > PROBE_SEGMENTS:
                yield i, j, k
                self._remember(seg.origin[0], _Template(
                    seg.origin, seg.stored_pattern(), None, seg.size))
                continue
            for lvl in self.levels:
                lvl.record_template()
            yield i, j, k
            hier.flush()
            self._remember(seg.origin[0], _Template(
                seg.origin, seg.stored_pattern(),
                [lvl.take_template() for lvl in self.levels], seg.size))


def simulate_extrapolated(kern, sel, schedule, hier: CacheHierarchy, *,
                          inter_pad: int | None = None,
                          on_chunk=None
                          ) -> tuple[HierarchyStats, ExtrapolationReport]:
    """Simulate a point, costing template-proven segments exactly.

    Drop-in equal to ``hier.run(kern.trace(...))`` — the returned
    :class:`HierarchyStats` is **bit-for-bit identical** however many
    segments were costed from templates (the differential tests in
    ``tests/test_extrapolate.py`` hold it to that). Either way the
    point is one ``hier.run`` call. ``on_chunk`` keeps its
    ``CacheHierarchy.run`` meaning (budget deadlines, fault ticks) and
    only fires for chunks actually simulated.
    """
    specs = kern.specs(sel.di_p, sel.dj_p, inter_pad_cache=inter_pad)
    reason = _ineligibility(sel, hier, specs)
    seg_filter = iterations = None
    if reason is None:
        group = _tiles_per_segment(kern, sel, schedule,
                                   max(p.line_bytes for p in hier.params))
        seg_filter = _SegmentFilter(hier, specs, kern.refs(specs), sel.tiled)
        iterations = seg_filter.segments(
            kern.schedule_chunks(sel, schedule, group))
    stats = hier.run(kern.trace(sel, schedule, inter_pad_cache=inter_pad,
                                structured=True, iterations=iterations),
                     on_chunk=on_chunk)
    if seg_filter is None:
        return stats, ExtrapolationReport(
            fired=False, segments_simulated=0, segments_skipped=0,
            refs_skipped=0, reason=reason)
    return stats, seg_filter.report()
