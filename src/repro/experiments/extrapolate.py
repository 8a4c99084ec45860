"""Exact steady-state K-plane extrapolation.

Untiled stencil sweeps walk the grid one K plane at a time, and every
reference's byte address is *linear in K*: stepping ``k -> k + 1``
shifts the whole plane's address stream by exactly ``plane_bytes``
(the shared plane stride times the element size). Direct-mapped caches
are shift-equivariant in line space — if the resident-tag array after
plane ``k`` equals the tag array after plane ``k - p`` with every line
id advanced by ``p * plane_lines`` (and rotated through the set index
accordingly), then plane ``k + 1`` replays plane ``k - p + 1``'s
hit/miss sequence verbatim, and so on by induction. Once that
*shift-equivalence* is observed, the remaining planes' statistics
follow in closed form: the per-plane miss deltas of the last ``p``
simulated planes simply cycle.

This module drives a point's simulation plane by plane, watches for
shift-equivalence (periods 1..:data:`QMAX`), and **stops simulating**
when it fires — extrapolating the rest exactly, in integer arithmetic.
It is how the runner simulates every exact point
(:func:`~repro.experiments.runner._simulate_exact`), and it is
conservative: *every* skipped plane is still
structurally verified (same (I, J) iteration pattern as its cycle
counterpart, K advancing by one), and any violation fast-forwards the
cache state by the proven shift and resumes full simulation
mid-stream. Points where the preconditions never hold degrade to full
simulation and report why.

Ineligible by construction (checked in this order):

* **classifiers** — 3C classification must observe every access;
  skipped planes would leave the shadow caches stale, so a classified
  point is simulated in full (``reason="classifiers"``);
* **tiled schedules** — a tile spans all K planes, so there is no
  plane-periodic stream to extrapolate (``reason="tiled_schedule"``);
* **non-direct-mapped levels** — only :class:`DirectMappedCache`
  exposes the tag-array shift primitives
  (``reason="level_not_direct_mapped"``);
* **mixed plane strides** — when arrays have different padded plane
  sizes (e.g. RESID with only some arrays padded), a K step shifts
  each array's stream by a different amount and no single tag shift
  exists (``reason="plane_stride"``; also when the common plane stride
  is not line-aligned).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import CacheHierarchy, HierarchyStats
from repro.trace.generator import trace_chunks

__all__ = ["ExtrapolationReport", "QMAX", "simulate_extrapolated"]

#: Largest steady-state period checked (red-black sweeps alternate
#: plane parity, so their natural period is 2; plain sweeps need 1).
QMAX = 4


@dataclass(frozen=True)
class ExtrapolationReport:
    """What the extrapolating driver actually did for one point."""

    #: True when at least one plane's statistics were extrapolated
    #: instead of simulated.
    fired: bool
    planes_simulated: int
    planes_skipped: int
    #: Steady-state period in planes (None when extrapolation never fired).
    period: int | None
    #: Why the point (fully or partially) fell back to simulation:
    #: ``classifiers`` / ``tiled_schedule`` /
    #: ``level_not_direct_mapped`` / ``plane_stride`` /
    #: ``not_plane_periodic`` / ``no_steady_state``; ``None`` when
    #: every remaining plane was extrapolated.
    reason: str | None


def _ineligibility(sel, hier: CacheHierarchy, specs) -> str | None:
    """The precondition that rules this point out, or ``None``."""
    if any(c is not None for c in hier.classifiers):
        # Miss classifiers must observe every access; skipped planes
        # would leave the shadow caches stale (see module docstring).
        return "classifiers"
    if sel.tiled:
        return "tiled_schedule"
    if not all(isinstance(l, DirectMappedCache) for l in hier.levels):
        return "level_not_direct_mapped"
    planes = {spec.plane for spec in specs.values()}
    if len(planes) != 1:
        return "plane_stride"
    plane_bytes = planes.pop() * next(iter(specs.values())).elem_bytes
    if any(plane_bytes % p.line_bytes for p in hier.params):
        return "plane_stride"
    return None


def _sig_equal(a, b) -> bool:
    """Whether two plane (I, J) iteration signatures are identical."""
    return ((a[0] is b[0] or np.array_equal(a[0], b[0]))
            and (a[1] is b[1] or np.array_equal(a[1], b[1])))


def _cum(hier: CacheHierarchy) -> tuple[int, ...]:
    """Cumulative counters as one flat tuple (exact integers).

    ``hier.stats()`` flushes the in-flight engine first, so the counts
    cover every access fed so far.
    """
    st = hier.stats()
    out = [x for _, lvl in st.levels for x in (lvl.accesses, lvl.misses)]
    return (*out, st.reads, st.writes)


def _scaled_sum(deltas: list[tuple[int, ...]], cycles: int,
                partial: int) -> tuple[int, ...]:
    """``cycles`` full cycles of ``deltas`` plus its first ``partial``."""
    return tuple(cycles * sum(col) + sum(col[:partial])
                 for col in zip(*deltas))


class _PlaneFilter:
    """The iteration planes of one eligible point, less the extrapolated.

    :meth:`planes` is the iteration stream fed through ``trace_chunks``
    into the point's single ``CacheHierarchy.run``. Whenever it resumes
    after yielding a plane, that plane has been fed to the engine, so
    :func:`_cum` reads the counters after exactly that plane; between
    planes it snapshots the tags, tests shift-equivalence, and commits
    skipped planes by advancing the counters and shifting the tags.
    """

    def __init__(self, hier: CacheHierarchy, d_lines: list[int]):
        self.hier = hier
        #: Lines one K step shifts each level's stream by.
        self.d_lines = d_lines
        self.simulated = 0
        self.skipped = 0
        self.period: int | None = None
        self.reason: str | None = None

    def report(self) -> ExtrapolationReport:
        fired = self.skipped > 0
        return ExtrapolationReport(
            fired=fired, planes_simulated=self.simulated,
            planes_skipped=self.skipped,
            period=self.period if fired else None, reason=self.reason)

    def _snapshot(self) -> list[np.ndarray]:
        return [lvl.tags_snapshot() for lvl in self.hier.levels]

    def _shift_period(self, tag_hist, sig_hist, max_p: int) -> int:
        """The smallest proven steady-state period, or 0."""
        # Outer levels first: their tags settle last, so they reject
        # a non-steady state soonest.
        levels = list(zip(self.hier.levels, self.d_lines))[::-1]
        for p in range(1, max_p + 1):
            # The signature must repeat too (same iteration pattern one
            # period back), else a tag coincidence between structurally
            # different planes could arm a cycle whose very first skip
            # check then fails.
            if len(sig_hist) <= p or not _sig_equal(sig_hist[-1],
                                                    sig_hist[-1 - p]):
                continue
            base = tag_hist[-1 - p][::-1]
            if all(lvl.tags_equal_shifted(b, p * d)
                   for (lvl, d), b in zip(levels, base)):
                return p
        return 0

    def _commit(self, deltas: list[tuple[int, ...]], planes: int) -> None:
        """Account ``planes`` skipped planes of the cycle ``deltas`` and
        fast-forward the tags by as many plane shifts."""
        if not planes:
            return
        hier = self.hier
        totals = _scaled_sum(deltas, planes // len(deltas),
                             planes % len(deltas))
        nlev = len(hier.levels)
        hier.advance_stats(
            [(totals[2 * i], totals[2 * i + 1]) for i in range(nlev)],
            reads=totals[2 * nlev], writes=totals[2 * nlev + 1])
        for lvl, d in zip(hier.levels, self.d_lines):
            lvl.apply_tag_shift(planes * d)
        self.skipped += planes

    def planes(self, chunks):
        """Yield the ``(I, J, K)`` chunks that must be simulated."""
        hier = self.hier
        # Detection history, valid within one K-continuous run of planes.
        tag_hist: deque = deque(maxlen=QMAX + 1)   # state after each plane
        delta_hist: deque = deque(maxlen=QMAX)     # per-plane counter deltas
        sig_hist: deque = deque(maxlen=QMAX + 1)   # per-plane (I, J) arrays

        def restart() -> None:
            tag_hist.clear()
            delta_hist.clear()
            sig_hist.clear()
            tag_hist.append(self._snapshot())

        restart()
        prev_cum = _cum(hier)
        prev_k: int | None = None
        # The proven cycle's (signatures, deltas) while skipping.
        cycle: tuple[list, list] | None = None
        run = 0
        next_k = 0

        chunks = iter(chunks)
        for i, j, k in chunks:
            if i.size == 0:
                continue
            kval = int(k[0])
            plane_like = bool((k == kval).all())
            sig = (i, j)

            if cycle is not None:
                sigs, deltas = cycle
                if (plane_like and kval == next_k
                        and _sig_equal(sig, sigs[run % len(sigs)])):
                    run += 1
                    next_k += 1
                    continue
                # The stream stopped repeating (red-black color
                # boundary, end-of-pass wrap, ...): commit what was
                # proven, restore the exact state by shifting, and
                # resume simulation. Nothing was fed since the last
                # plane's flush, so the levels hold the exact state.
                self._commit(deltas, run)
                cycle = None
                run = 0
                restart()
                prev_cum = _cum(hier)
                prev_k = None

            if not plane_like:
                # Not a plane-periodic stream after all: simulate this
                # chunk and everything behind it, detection off for good.
                self.reason = "not_plane_periodic"
                yield i, j, k
                yield from chunks
                return

            if prev_k is not None and kval != prev_k + 1:
                # K discontinuity: earlier snapshots no longer sit one
                # plane-shift apart, so detection restarts here.
                restart()

            yield i, j, k
            self.simulated += 1
            cum = _cum(hier)
            delta_hist.append(tuple(a - b for a, b in zip(cum, prev_cum)))
            prev_cum = cum
            tag_hist.append(self._snapshot())
            sig_hist.append(sig)
            prev_k = kval

            p = self._shift_period(tag_hist, sig_hist,
                                   min(QMAX, len(delta_hist)))
            if p:
                cycle = (list(sig_hist)[-p:], list(delta_hist)[-p:])
                self.period = p
                next_k = kval + 1

        if cycle is not None:
            # Ran off the end of the trace while extrapolating: commit.
            self._commit(cycle[1], run)
        elif self.reason is None:
            # The final segment was simulated to the end without
            # reaching (or after falling out of) steady state.
            self.reason = "no_steady_state"


def simulate_extrapolated(kern, sel, schedule, hier: CacheHierarchy, *,
                          inter_pad: int | None = None,
                          chunk_size: int | None = None,
                          on_chunk=None
                          ) -> tuple[HierarchyStats, ExtrapolationReport]:
    """Simulate a point, extrapolating steady-state planes exactly.

    Drop-in equal to ``hier.run(kern.trace(...))`` — the returned
    :class:`HierarchyStats` is **bit-for-bit identical** whether
    extrapolation fires, partially fires, or never does (the
    differential tests in ``tests/test_extrapolate.py`` hold it to
    that) — but skips the simulation of planes whose statistics are
    already determined by shift-equivalence. Either way the point is
    one ``hier.run`` call. ``on_chunk`` keeps its
    ``CacheHierarchy.run`` meaning (budget deadlines, fault ticks) and
    only fires for chunks actually simulated.
    """
    specs = kern.specs(sel.di_p, sel.dj_p, inter_pad_cache=inter_pad)
    reason = _ineligibility(sel, hier, specs)
    if reason is not None:
        stats = hier.run(kern.trace(sel, schedule, inter_pad_cache=inter_pad,
                                    chunk_size=chunk_size, structured=True),
                         on_chunk=on_chunk)
        return stats, ExtrapolationReport(
            fired=False, planes_simulated=-1, planes_skipped=0,
            period=None, reason=reason)

    spec0 = next(iter(specs.values()))
    plane_bytes = spec0.plane * spec0.elem_bytes
    planes = _PlaneFilter(hier, [plane_bytes // p.line_bytes
                                 for p in hier.params])
    stats = hier.run(trace_chunks(planes.planes(kern.iter_chunks(schedule)),
                                  kern.refs(specs), max_addresses=chunk_size,
                                  structured=True),
                     on_chunk=on_chunk)
    return stats, planes.report()
