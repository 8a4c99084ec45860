"""Tests of exact acceleration by first-touch segment templates.

The mode's whole contract is *exactness*: wherever a segment is costed
from a template, the point's statistics must equal the full
simulation's bit for bit, and wherever the structural preconditions
fail the point must be simulated in full (with the reason recorded)
rather than approximated. Tiny caches make a plane wrap L2 at N~64, so
the matrix below runs in seconds. Templates serve every LRU level, so
the matrix runs on 2- and 4-way L1s too, and each simulator's template
is checked against the scalar reference.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.cache.assoc_scan import AssocScanCache
from repro.cache.base import CacheLevel
from repro.cache.classify import MissClassifier
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.params import CacheParams
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.two_way import TwoWayCache
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


def differential(kernel, strategy, n, nk, levels=CFG.levels):
    """Simulate the point at ``nk`` both ways, check the statistics bit
    for bit, and return its selection, schedule and report. Tiles are
    selected for the L1 capacity, whatever ``levels`` holds."""
    kern = KERNELS[kernel](n, nk, elem_bytes=CFG.elem_bytes)
    meta = kern.meta
    sel = select(strategy, CFG.cs, n, n, mi=meta.mi, mj=meta.mj,
                 atd=meta.atd)
    schedule = _schedule_for(strategy, kernel, sel)
    stats, report = simulate_extrapolated(kern, sel, schedule,
                                          CacheHierarchy(levels))
    full = CacheHierarchy(levels).run(
        kern.trace(sel, schedule, structured=True))
    assert_same_stats(stats, full)
    strides = {s.di for s in kern.specs(sel.di_p, sel.dj_p).values()}
    if sel.tiled and len(strides) == 1:
        # Uniform strides: every tile shift qualifies.
        assert report.fired and report.refs_skipped > 0
    return sel, schedule, report


#: The matrix's L1s: the tiny direct-mapped one and 2- and 4-way LRU
#: L1s of the same capacity and line.
MATRIX_L1 = {ways: CacheParams(2048, 32, ways, "L1") for ways in (1, 2, 4)}


def matrix_cases():
    """Every kernel x figure strategy x N on each L1 at NK = 8; NK = 30
    on the direct-mapped L1, and on the associative ones for JACOBI
    Orig and GcdPad at N = 90 (their full simulation is the slow half).
    The direct-mapped cases keep their ids."""
    for ways in MATRIX_L1:
        for kernel in sorted(KERNELS):
            for strategy in MATRIX_STRATEGIES:
                for n in (64, 90):
                    for nk in (8, 30):
                        if nk == 30 and ways > 1 and not (
                                kernel == "JACOBI" and n == 90
                                and strategy in ("Orig", "GcdPad")):
                            continue
                        suffix = "" if ways == 1 else f"-{ways}way"
                        yield pytest.param(
                            kernel, strategy, n, nk, ways,
                            id=f"{kernel}-{strategy}-{n}-{nk}{suffix}")


@pytest.mark.parametrize("kernel,strategy,n,nk,ways", matrix_cases())
def test_differential_matrix(kernel, strategy, n, nk, ways):
    """Every kernel x figure strategy, bit-identical with full simulation.

    On the tiny caches N = 90 is 2 mod 4 (a plane is whole 32-byte but
    not whole 64-byte lines), Euc3D falls back to 1x1 tiles, the 6- and
    7-wide tiles leave edge tiles, and RESID's and PSINV's GcdPad and
    Pad pad one array only.
    """
    differential(kernel, strategy, n, nk, [MATRIX_L1[ways], CFG.l2])


@pytest.mark.parametrize("levels,strategy", [
    pytest.param([CacheParams(2048, 32, 64, "L1"), CFG.l2], "GcdPad",
                 id="fully-assoc-L1"),
    pytest.param([CFG.l1, CacheParams(65536, 64, 4, "L2")], "Orig",
                 id="4way-L2"),
])
def test_differential_other_geometries(levels, strategy):
    """A fully associative L1 (one set, 64 ways) and a 4-way L2 record
    and cost templates too, bit-identical with full simulation."""
    _, _, report = differential("JACOBI", strategy, 64, 8, levels)
    assert report.fired


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


def test_no_recurring_shape_keeps_probe_templates_only(monkeypatch):
    # Default caches: RESID GcdPad N = 90 pads U only, and no tile
    # column's shape recurs at a shift of whole 32- and 64-byte lines.
    # Past the probe segments no template is recorded; still exact.
    taken = []
    take = CacheLevel.take_template

    def spy(self):
        taken.append(self)
        return take(self)

    monkeypatch.setattr(CacheLevel, "take_template", spy)
    cfg = ExperimentConfig()
    report = checked_report("RESID", "GcdPad", 90, cfg)
    assert report.reason == "no_steady_state"
    assert report.segments_simulated > extrapolate.PROBE_SEGMENTS
    assert len(taken) == extrapolate.PROBE_SEGMENTS * len(cfg.levels)


@pytest.mark.parametrize("probe", [0, 1])
@pytest.mark.parametrize("ways", [1, 2])
@pytest.mark.parametrize("kernel,strategy,n", [
    ("JACOBI", "Orig", 64), ("REDBLACK", "Orig", 96), ("JACOBI", "GcdPad", 90)])
def test_templates_kept_from_first_recurrence_are_exact(
        monkeypatch, kernel, strategy, n, ways, probe):
    # With fewer probe segments, the segments simulated before the
    # first recurring shape keep no template and are not flushed: they
    # may still sit in the engine's buffers when the next segment is
    # recorded (probe 0) or costed from a probe template (probe 1, red-
    # black planes recur two planes back).
    monkeypatch.setattr(extrapolate, "PROBE_SEGMENTS", probe)
    _, _, report = differential(kernel, strategy, n, 8,
                                [MATRIX_L1[ways], CFG.l2])
    assert report.fired


def test_fallback_reason_classifiers():
    kern, sel, schedule = point_setup("JACOBI", "Orig", 64)
    hier = CacheHierarchy(CFG.levels)
    hier.attach_classifiers([MissClassifier(CFG.l1), None])
    stats, report = simulate_extrapolated(kern, sel, schedule, hier)
    assert not report.fired
    assert report.reason == "classifiers"
    assert_same_stats(stats, run_full("JACOBI", "Orig", 64))


def test_two_way_l2_point_fires():
    # An associative level is no fallback reason: a 2-way L2 records
    # and costs templates like a direct-mapped one.
    cfg = ExperimentConfig(l1=CFG.l1,
                           l2=CacheParams(65536, 64, 2, "L2"),
                           machine=ULTRASPARC2_360, nk=8)
    report = checked_report("JACOBI", "Orig", 64, cfg)
    assert report.fired
    assert report.reason is None
    assert report.segments_skipped > 0


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


def lru_stacks(cache, num_sets):
    """Each set's resident lines, most recent first."""
    if isinstance(cache, SetAssociativeCache):
        return [list(ways)[::-1] for ways in cache._sets]
    return [[int(x) for x in row if x >= 0]
            for row in cache.stacks(np.arange(num_sets))]


@pytest.mark.parametrize("cls,ways", [
    (DirectMappedCache, 1), (TwoWayCache, 2), (AssocScanCache, 2),
    (AssocScanCache, 4), (AssocScanCache, 8)])
def test_template_costs_shifted_segment_like_reference(cls, ways):
    """Each simulator's template costs a whole-line translate of its
    segment as the scalar LRU reference simulates it, from random prior
    states: the misses, and every set's lines in LRU order."""
    rng = np.random.default_rng(ways)
    params = CacheParams(2048, 32, ways, "L1")
    sets = params.num_sets
    # Sets below 3/4 of the cache see many lines each; the top quarter
    # sees fewer lines than ways (set top - 1 - q sees q of them).
    dense = rng.integers(0, 3 * sets // 4, 6000) + sets * rng.integers(
        10, 10 + 3 * ways, 6000)
    sparse = [sets - 1 - q + sets * (40 + np.arange(q))
              for q in range(min(ways, sets // 4))]
    lines = np.concatenate([dense, *(np.repeat(x, 3) for x in sparse)])
    rng.shuffle(lines)
    seg = lines * 32 + rng.integers(0, 32, lines.size)
    rec = cls(params)
    rec.window = 1024            # the segment spans several windows
    rec.access(rng.integers(0, 1 << 16, 3000) * 8)
    rec.record_template()
    before = rec.stats.misses
    rec.access(seg)
    tpl = rec.take_template()
    assert tpl.accesses == seg.size
    assert tpl.internal + int(tpl.first_miss.sum()) == \
        rec.stats.misses - before
    if ways > 1:
        assert not tpl.recorded.all()
    depths = set()
    for d, warm_kind in itertools.product((0, sets, 3 * sets + 5, 1000),
                                          ("mixed", "reversed")):
        shifted = lines + d
        if warm_kind == "mixed":
            # Some of the shifted lines at mixed recency, so first
            # touches find them at several depths.
            warm = np.concatenate([rng.choice(shifted, 200),
                                   rng.integers(0, 1 << 12, 400)])
            rng.shuffle(warm)
        else:
            # The shifted segment backwards: each set's first lines sit
            # on top of its stack in first-touch order, so a line's
            # earlier first lines were above it and push nothing down.
            warm = shifted[::-1]
        ref, costed = SetAssociativeCache(params), cls(params)
        ref.access(warm * 32)
        costed.access(warm * 32)
        prior = costed.stacks(np.arange(sets))
        misses = int(ref.access(shifted * 32).sum())
        touch, first_miss = costed.shifted_first_touch(tpl, d)
        costed.commit_shifted(tpl, d, touch)
        assert tpl.internal + int(first_miss.sum()) == misses
        assert lru_stacks(costed, sets) == lru_stacks(ref, sets)
        # The state left behind keeps simulating like the reference.
        after = rng.integers(0, 1 << 12, 2000) * 32
        np.testing.assert_array_equal(costed.access(after), ref.access(after))
        first = (tpl.first + d).reshape(tpl.sets.size, ways)
        found = (first[:, :, None] == prior[
            (tpl.sets.astype(np.int64) + d) & (sets - 1)][:, None, :])
        found &= tpl.recorded.reshape(tpl.sets.size, ways)[:, :, None]
        depths |= set(np.nonzero(found)[2].tolist())
    assert len(depths) == ways


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


def _extrapolation_reasons(reg):
    return {r["labels"]["reason"] for r in reg.snapshot()["counters"]
            if r["name"] == "repro.cache.extrapolation"}


def test_metrics_record_without_changing_the_simulation():
    """A live registry records a point without changing what runs: it
    costs segments from templates as a plain run does, records its
    per-level misses, and classifies nothing."""
    plain = run_point("JACOBI", "Orig", 64, CFG)
    assert plain.extrapolated
    with metrics.collect() as reg:
        p = run_point("JACOBI", "Orig", 64, CFG)
    assert p == plain
    assert _extrapolation_reasons(reg) == {"none"}
    assert reg.counter_total("repro.sim.misses") == \
        plain.l1_misses + plain.l2_misses
    assert reg.counter_total("repro.sim.miss_class") == 0
    assert reg.counter_total("repro.sim.miss_array") == 0


def test_classify_simulates_in_full_and_sums_to_misses():
    """Under ``classify`` classification takes precedence: an eligible
    point is simulated in full (reason ``classifiers``), its 3C counts
    sum to its misses per level, and its statistics are the plain
    run's."""
    with metrics.collect() as reg:
        p = run_point("JACOBI", "Orig", 64, CFG,
                      policy=PointPolicy(classify=True))
    assert not p.extrapolated
    assert _extrapolation_reasons(reg) == {"classifiers"}
    misses, classified = {}, {}
    for row in reg.snapshot()["counters"]:
        level = row["labels"].get("level")
        if row["name"] == "repro.sim.misses":
            misses[level] = row["value"]
        elif row["name"] == "repro.sim.miss_class":
            classified[level] = classified.get(level, 0) + row["value"]
    assert set(misses) == {"L1", "L2"} and classified == misses
    plain = run_point("JACOBI", "Orig", 64, CFG)
    assert dataclasses.replace(p, extrapolated=True) == plain
