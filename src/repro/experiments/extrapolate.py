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
It is opt-in (``SweepOptions(extrapolate=True)`` / ``--extrapolate``)
and conservative: *every* skipped plane is still structurally verified
(same (I, J) iteration pattern as its cycle counterpart, K advancing
by one), and any violation fast-forwards the cache state by the proven
shift and resumes full simulation mid-stream. Points where the
preconditions never hold (tiled schedules, non-direct-mapped levels,
mixed plane strides, red-black's alternating parity breaking the
K-continuity at the color boundary) degrade to full simulation and
report why.

Ineligible by construction:

* **tiled schedules** — a tile spans all K planes, so there is no
  plane-periodic stream to extrapolate (``reason="tiled_schedule"``);
* **classifiers** — 3C classification must observe every access;
  skipped planes would leave the shadow caches stale, so the runner
  never combines the two (extrapolation wins; see
  ``_simulate_exact``);
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
    #: ``tiled_schedule`` / ``classifiers`` /
    #: ``level_not_direct_mapped`` / ``plane_stride`` /
    #: ``not_plane_periodic`` / ``no_steady_state``; ``None`` when
    #: every remaining plane was extrapolated.
    reason: str | None


def _ineligibility(sel, hier: CacheHierarchy, specs) -> str | None:
    """The precondition that rules this point out, or ``None``."""
    if sel.tiled:
        return "tiled_schedule"
    if any(c is not None for c in hier.classifiers):
        # Miss classifiers must observe every access; skipped planes
        # would leave the shadow caches stale (see module docstring).
        return "classifiers"
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
    """Cumulative counters as one flat tuple (exact integers)."""
    out: list[int] = []
    for lvl in hier.levels:
        out.append(lvl.stats.accesses)
        out.append(lvl.stats.misses)
    out.append(hier.reads)
    out.append(hier.writes)
    return tuple(out)


def _delta(after: tuple[int, ...], before: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a - b for a, b in zip(after, before))


def _scaled_sum(deltas: list[tuple[int, ...]], cycles: int,
                partial: int) -> tuple[int, ...]:
    """``cycles`` full cycles of ``deltas`` plus its first ``partial``."""
    width = len(deltas[0])
    total = [0] * width
    for d in deltas:
        for i in range(width):
            total[i] += d[i] * cycles
    for d in deltas[:partial]:
        for i in range(width):
            total[i] += d[i]
    return tuple(total)


def _apply(hier: CacheHierarchy, totals: tuple[int, ...],
           d_lines: list[int], planes: int) -> None:
    """Inject extrapolated counters and fast-forward the tag state."""
    nlev = len(hier.levels)
    hier.advance_stats(
        [(totals[2 * i], totals[2 * i + 1]) for i in range(nlev)],
        reads=totals[2 * nlev], writes=totals[2 * nlev + 1])
    for lvl, d in zip(hier.levels, d_lines):
        lvl.apply_tag_shift(planes * d)


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
    already determined by shift-equivalence. ``on_chunk`` keeps its
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

    refs = kern.refs(specs)
    spec0 = next(iter(specs.values()))
    plane_bytes = spec0.plane * spec0.elem_bytes
    d_lines = [plane_bytes // p.line_bytes for p in hier.params]

    def simulate_plane(chunk) -> None:
        hier.run(trace_chunks(iter([chunk]), refs,
                              max_addresses=chunk_size, structured=True),
                 on_chunk=on_chunk)

    def snapshot_tags() -> list[np.ndarray]:
        return [lvl.tags_snapshot() for lvl in hier.levels]

    # Detection history, valid within one K-continuous run of planes.
    tag_hist: deque = deque(maxlen=QMAX + 1)   # state after each plane
    delta_hist: deque = deque(maxlen=QMAX)     # per-plane counter deltas
    sig_hist: deque = deque(maxlen=QMAX + 1)   # per-plane (I, J) arrays
    tag_hist.append(snapshot_tags())
    prev_cum = _cum(hier)
    prev_k: int | None = None

    planes_simulated = 0
    planes_skipped = 0
    reason = None

    # Skip-phase state (set when shift-equivalence fires).
    skipping = False
    period = 0
    cycle_sigs: list = []
    cycle_deltas: list = []
    skipped_run = 0
    next_k = 0

    def reset_history() -> None:
        tag_hist.clear()
        delta_hist.clear()
        sig_hist.clear()
        tag_hist.append(snapshot_tags())

    def fast_forward(m: int) -> None:
        if m:
            totals = _scaled_sum(cycle_deltas, m // period, m % period)
            _apply(hier, totals, d_lines, m)

    chunks = iter(kern.iter_chunks(schedule))
    for i, j, k in chunks:
        if i.size == 0:
            continue
        kval = int(k[0])
        plane_like = bool((k == kval).all())
        sig = (i, j)

        if skipping:
            if (plane_like and kval == next_k
                    and _sig_equal(sig, cycle_sigs[skipped_run % period])):
                skipped_run += 1
                planes_skipped += 1
                next_k += 1
                continue
            # The stream stopped repeating (red-black color boundary,
            # end-of-pass wrap, ...): commit what was proven, restore
            # the exact state by shifting, and resume simulation.
            fast_forward(skipped_run)
            skipping = False
            skipped_run = 0
            reset_history()
            prev_cum = _cum(hier)
            prev_k = None

        if not plane_like:
            # Not a plane-periodic stream after all: simulate this
            # chunk and everything behind it, detection off for good.
            reason = "not_plane_periodic"
            simulate_plane((i, j, k))
            for rest in chunks:
                simulate_plane(rest)
            break

        if prev_k is not None and kval != prev_k + 1:
            # K discontinuity: earlier snapshots no longer sit one
            # plane-shift apart, so detection restarts here.
            reset_history()

        simulate_plane((i, j, k))
        planes_simulated += 1
        cum = _cum(hier)
        delta_hist.append(_delta(cum, prev_cum))
        prev_cum = cum
        tag_hist.append(snapshot_tags())
        sig_hist.append(sig)
        prev_k = kval

        for p in range(1, min(QMAX, len(delta_hist), len(tag_hist) - 1)
                       + 1):
            # The fire condition needs the *signature* periodic too
            # (same iteration pattern one period back), else a tag
            # coincidence between structurally different planes could
            # arm a cycle whose very first skip check then fails.
            if len(sig_hist) <= p or not _sig_equal(sig_hist[-1],
                                                    sig_hist[-1 - p]):
                continue
            base = tag_hist[-1 - p]
            if all(lvl.tags_equal_shifted(b, p * d)
                   for lvl, b, d in zip(hier.levels, base, d_lines)):
                skipping = True
                period = p
                cycle_sigs = list(sig_hist)[-p:]
                cycle_deltas = list(delta_hist)[-p:]
                skipped_run = 0
                next_k = kval + 1
                break

    if skipping:
        # Ran off the end of the trace while extrapolating: commit.
        fast_forward(skipped_run)

    fired = planes_skipped > 0
    if reason is None and not skipping:
        # The final segment was simulated to the end without reaching
        # (or after falling out of) steady state.
        reason = "no_steady_state"
    return hier.stats(), ExtrapolationReport(
        fired=fired, planes_simulated=planes_simulated,
        planes_skipped=planes_skipped,
        period=period if fired else None,
        reason=reason)
