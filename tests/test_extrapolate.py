"""Tests of exact acceleration by first-touch segment templates.

The mode's whole contract is *exactness*: wherever a segment is costed
from a template, the point's statistics must equal the full
simulation's bit for bit, and wherever the structural preconditions
fail the point must be simulated in full (with the reason recorded)
rather than approximated. Tiny caches make a plane wrap L2 at N~64, so
the matrix below runs in seconds.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache.classify import MissClassifier
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.params import CacheParams
from repro.core.selector import select
from repro.experiments.config import ExperimentConfig
from repro.experiments import extrapolate
from repro.experiments.extrapolate import (
    ExtrapolationReport,
    simulate_extrapolated,
)
from repro.experiments.options import PointPolicy, SweepOptions
from repro.experiments.runner import _schedule_for, run_point, sweep
from repro.kernels import KERNELS
from repro.kernels.base import Schedule
from repro.obs import metrics
from repro.perfmodel.machine import ULTRASPARC2_360
from repro.resilience import PointBudget

CFG = ExperimentConfig(l1=CacheParams(2048, 32, 1, "L1"),
                       l2=CacheParams(65536, 64, 1, "L2"),
                       machine=ULTRASPARC2_360, nk=8)

def point_setup(kernel, strategy, n, cfg=CFG):
    kern = KERNELS[kernel](n, cfg.nk, elem_bytes=cfg.elem_bytes)
    meta = kern.meta
    sel = select(strategy, cfg.cs, n, n, mi=meta.mi, mj=meta.mj,
                 atd=meta.atd)
    return kern, sel, _schedule_for(strategy, kernel, sel)


def run_extrapolated(kernel, strategy, n, cfg=CFG):
    kern, sel, schedule = point_setup(kernel, strategy, n, cfg)
    hier = CacheHierarchy(cfg.levels)
    return simulate_extrapolated(kern, sel, schedule, hier)


def run_full(kernel, strategy, n, cfg=CFG):
    kern, sel, schedule = point_setup(kernel, strategy, n, cfg)
    hier = CacheHierarchy(cfg.levels)
    return hier.run(kern.trace(sel, schedule, structured=True))


def assert_same_stats(a, b):
    assert a.reads == b.reads and a.writes == b.writes
    for (na, sa), (nb, sb) in zip(a.levels, b.levels):
        assert (na, sa.accesses, sa.misses) == (nb, sb.accesses, sb.misses)


def checked_report(kernel, strategy, n, cfg=CFG):
    """The extrapolated point's report, after checking its statistics
    bit for bit against the full simulation."""
    stats, report = run_extrapolated(kernel, strategy, n, cfg)
    assert_same_stats(stats, run_full(kernel, strategy, n, cfg))
    return report


@pytest.mark.parametrize("kernel", ["JACOBI", "RESID", "REDBLACK"])
@pytest.mark.parametrize("n", [64, 100])
def test_fired_statistics_are_bit_identical(kernel, n):
    report = checked_report(kernel, "Orig", n)
    assert report.fired
    assert report.segments_skipped > 0
    assert report.reason is None


#: The figure strategies: untiled Orig and GcdPadNT, tiled the rest.
MATRIX_STRATEGIES = ("Orig", "Tile", "Euc3D", "GcdPad", "Pad", "GcdPadNT")


def differential(kernel, strategy, n, nk):
    """Simulate the point at ``nk`` both ways, check the statistics bit
    for bit, and return its selection, schedule and report. NK is
    built directly: the config clamps it at smoke resolution."""
    kern = KERNELS[kernel](n, nk, elem_bytes=CFG.elem_bytes)
    meta = kern.meta
    sel = select(strategy, CFG.cs, n, n, mi=meta.mi, mj=meta.mj,
                 atd=meta.atd)
    schedule = _schedule_for(strategy, kernel, sel)
    stats, report = simulate_extrapolated(kern, sel, schedule,
                                          CacheHierarchy(CFG.levels))
    full = CacheHierarchy(CFG.levels).run(
        kern.trace(sel, schedule, structured=True))
    assert_same_stats(stats, full)
    strides = {s.di for s in kern.specs(sel.di_p, sel.dj_p).values()}
    if sel.tiled and len(strides) == 1:
        # Uniform strides: every tile shift qualifies.
        assert report.fired and report.refs_skipped > 0
    return sel, schedule, report


@pytest.mark.parametrize("nk", [8, 30])
@pytest.mark.parametrize("n", [64, 90])
@pytest.mark.parametrize("strategy", MATRIX_STRATEGIES)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_differential_matrix(kernel, strategy, n, nk):
    """Every kernel x figure strategy, bit-identical with full simulation.

    On the tiny caches N = 90 is 2 mod 4 (a plane is whole 32-byte but
    not whole 64-byte lines), Euc3D falls back to 1x1 tiles, the 6- and
    7-wide tiles leave edge tiles, and RESID's and PSINV's GcdPad and
    Pad pad one array only.
    """
    differential(kernel, strategy, n, nk)


@pytest.mark.parametrize("nk", [8, 12, 30])
@pytest.mark.parametrize("n", [64, 90])
@pytest.mark.parametrize("kernel", ["JACOBI", "RESID", "PSINV"])
def test_differential_wolf_lam_3loop(kernel, n, nk):
    """The K-tiled schedule (WolfLam3), bit-identical with full
    simulation. Its 5-deep K tiles divide NK - 2 only at NK = 12, so
    at NK = 8 and 30 every tile column ends on a short K tile."""
    sel, schedule, report = differential(kernel, "WolfLam3", n, nk)
    assert schedule is Schedule.TILED_3LOOP and sel.array_tile.tk == 5
    assert report.fired


def costed_shifts(monkeypatch) -> list[tuple[int, int, int]]:
    """Record the (dI, dJ, dK) of every segment costed from a template."""
    shifts = []
    cost = extrapolate._SegmentFilter._cost

    def spy(self, seg):
        hit = cost(self, seg)
        if hit:
            # A costed segment passes on the template that proved it.
            tpl = self.recent[-1]
            shifts.append(tuple(a - b for a, b in zip(seg.origin,
                                                      tpl.origin)))
        return hit

    monkeypatch.setattr(extrapolate._SegmentFilter, "_cost", spy)
    return shifts


def test_redblack_detects_period_two(monkeypatch):
    # Red and black half-sweeps alternate plane parity within a pass:
    # a plane's shape recurs two planes back, so the first plane
    # costed sits two planes after its template.
    shifts = costed_shifts(monkeypatch)
    _, report = run_extrapolated("REDBLACK", "Orig", 96)
    assert report.fired
    assert shifts[0] == (0, 0, 2)


def test_jacobi_detects_period_one(monkeypatch):
    shifts = costed_shifts(monkeypatch)
    _, report = run_extrapolated("JACOBI", "Orig", 96)
    assert report.fired
    assert shifts[0] == (0, 0, 1)


def test_plane_not_whole_l2_lines_uses_even_plane_shifts(monkeypatch):
    # 90*90*8 bytes is whole 32-byte L1 lines but not whole 64-byte L2
    # lines; two planes are, so only even K shifts prove a plane.
    shifts = costed_shifts(monkeypatch)
    report = checked_report("JACOBI", "Orig", 90)
    assert report.fired
    assert shifts[0] == (0, 0, 2)
    assert all(di == dj == 0 and dk % 2 == 0 for di, dj, dk in shifts)


def test_tiled_schedule_costs_tiles_from_earlier_rows(monkeypatch):
    shifts = costed_shifts(monkeypatch)
    checked_report("JACOBI", "Tile", 98)
    assert shifts and all(dj and not di and not dk
                          for di, dj, dk in shifts)


def test_padded_u_allows_only_row_shifts(monkeypatch):
    # RESID Pad pads only U (98 -> 101): a J step moves U and V by
    # different distances, so only tiles along a row prove each other.
    shifts = costed_shifts(monkeypatch)
    report = checked_report("RESID", "Pad", 98)
    assert report.fired
    assert all(di and not dj and not dk for di, dj, dk in shifts)


def test_fallback_reason_tiled_schedule():
    # A tiled schedule is no fallback reason any more: its tile
    # columns are costed from templates like planes are.
    report = checked_report("JACOBI", "GcdPad", 64)
    assert report.fired
    assert report.reason is None
    assert report.segments_simulated > 0


def test_fallback_reason_plane_stride():
    # RESID GcdPadNT pads only U (N = 32 -> 40): a K step moves U and
    # V by different distances, so no single shift exists.
    report = checked_report("RESID", "GcdPadNT", 32)
    assert not report.fired
    assert report.reason == "plane_stride"
    assert report.segments_simulated == 0


def test_fallback_reason_no_steady_state():
    # RESID GcdPad pads only U, so only dI shifts qualify, and no tile
    # of these tiny-cache rows reproduces a template's first touches
    # at L1: every segment is simulated, and the run completes exact.
    report = checked_report("RESID", "GcdPad", 64)
    assert not report.fired
    assert report.segments_skipped == 0 and report.refs_skipped == 0
    assert report.segments_simulated > 0
    assert report.reason == "no_steady_state"


def test_fallback_reason_classifiers():
    kern, sel, schedule = point_setup("JACOBI", "Orig", 64)
    hier = CacheHierarchy(CFG.levels)
    hier.attach_classifiers([MissClassifier(CFG.l1), None])
    stats, report = simulate_extrapolated(kern, sel, schedule, hier)
    assert not report.fired
    assert report.reason == "classifiers"
    assert_same_stats(stats, run_full("JACOBI", "Orig", 64))


def test_fallback_reason_level_not_direct_mapped():
    cfg = ExperimentConfig(l1=CFG.l1,
                           l2=CacheParams(65536, 64, 2, "L2"),
                           machine=ULTRASPARC2_360, nk=8)
    report = checked_report("JACOBI", "Orig", 64, cfg)
    assert not report.fired
    assert report.reason == "level_not_direct_mapped"


def test_report_is_frozen():
    report = ExtrapolationReport(fired=False, segments_simulated=0,
                                 segments_skipped=0, refs_skipped=0,
                                 reason="no_steady_state")
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.fired = True


def test_shifted_tags_roundtrip():
    """A template costs a whole-line translate of its segment exactly,
    from any prior state: misses, and the tags it leaves behind."""
    rng = np.random.default_rng(3)
    for params in (CacheParams(2048, 32, 1, "L1"),
                   CacheParams(65536, 64, 1, "L2")):
        line = params.line_bytes
        # A segment spanning several windows, so a set's first touch in
        # a later window is internal.
        seg = (rng.integers(1 << 12, 1 << 14, size=40_000) * line
               + rng.integers(0, line, size=40_000))
        rec = DirectMappedCache(params)
        rec.access(rng.integers(0, 1 << 20, size=5000) * 8)
        before = rec.stats.misses
        rec.record_template()
        rec.access(seg)
        tpl = rec.take_template()
        assert tpl.accesses == seg.size
        assert (tpl.internal + int(tpl.first_miss.sum())
                == rec.stats.misses - before)
        for d in (192, -64, 4099):
            # Two caches in one new state: one simulates the shifted
            # segment, the other is costed from the template.
            warm = rng.integers(0, 1 << 20, size=5000) * 8
            sim, costed = DirectMappedCache(params), DirectMappedCache(params)
            sim.access(warm)
            costed.access(warm)
            misses = int(sim.access(seg + d * line).sum())
            sets, first_miss = costed.shifted_first_touch(tpl, d)
            costed.commit_shifted(tpl, d, sets)
            assert misses == tpl.internal + int(first_miss.sum())
            np.testing.assert_array_equal(costed.resident_lines(),
                                          sim.resident_lines())


def test_run_point_records_extrapolated_flag():
    # A default run_point costs segments of an untiled and of a tiled
    # point from templates, and simulates a mixed-stride one in full;
    # all three match the flat full trace.
    fired = run_point("JACOBI", "Orig", 64, CFG)
    assert fired.extrapolated
    tiled = run_point("JACOBI", "GcdPad", 64, CFG)
    assert tiled.extrapolated
    mixed = run_point("RESID", "GcdPadNT", 32, CFG)
    assert not mixed.extrapolated
    for p in (fired, tiled, mixed):
        full = run_full(p.kernel, p.strategy, p.n)
        assert (p.l1_misses, p.l2_misses, p.refs) == \
            (full.misses(0), full.misses(1), full.demand_refs)


def test_run_point_extrapolate_fallback_not_flagged():
    # Ineligible by construction: RESID GcdPadNT's mixed plane strides,
    # here under an explicit budget.
    r = run_point("RESID", "GcdPadNT", 32, CFG,
                  policy=PointPolicy(budget=PointBudget()))
    assert not r.extrapolated


def test_sweep_option_marks_points(tmp_path):
    # A journaled sweep records the flag per point, and a resume
    # serves the same flags back from the journal.
    opts = SweepOptions(checkpoint=tmp_path / "x.jsonl")
    pts = sweep("RESID", ["Orig", "GcdPadNT"], [32], CFG, options=opts)
    assert pts["Orig"][0].extrapolated
    assert not pts["GcdPadNT"][0].extrapolated
    assert sweep("RESID", ["Orig", "GcdPadNT"], [32], CFG,
                 options=opts) == pts


def test_extrapolated_point_is_one_engine_run():
    # The segment filter feeds one CacheHierarchy.run, untiled or
    # tiled; it never starts a run per segment.
    for strategy in ("Orig", "GcdPad"):
        with metrics.collect() as reg:
            _, report = run_extrapolated("JACOBI", strategy, 64)
        assert report.fired
        assert reg.counter_total("repro.cache.engine_runs") == 1


def test_metrics_classify_instead_of_extrapolating():
    """Under ``--metrics`` classification takes precedence: an eligible
    point is simulated in full (reason ``classifiers``) and its 3C
    counts sum to its misses."""
    with metrics.collect() as reg:
        p = run_point("JACOBI", "Orig", 64, CFG)
    assert not p.extrapolated
    rows = reg.snapshot()["counters"]
    reasons = {r["labels"]["reason"] for r in rows
               if r["name"] == "repro.cache.extrapolation"}
    assert reasons == {"classifiers"}
    assert reg.counter_total("repro.sim.misses") > 0
    assert reg.counter_total("repro.sim.miss_class") == \
        reg.counter_total("repro.sim.misses")
    plain = run_point("JACOBI", "Orig", 64, CFG)
    assert plain.extrapolated
    assert (p.l1_misses, p.l2_misses) == (plain.l1_misses, plain.l2_misses)
