"""Tests of exact steady-state K-plane extrapolation.

The mode's whole contract is *exactness*: wherever it fires it must
reproduce the full simulation's statistics bit for bit, and wherever
the structural preconditions fail it must fall back to full simulation
(with the reason recorded) rather than approximate. Tiny caches make a
plane wrap L2 at N~64, so the steady state appears — and these tests
run — in milliseconds.
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
from repro.experiments.extrapolate import (
    ExtrapolationReport,
    simulate_extrapolated,
)
from repro.experiments.options import PointPolicy, SweepOptions
from repro.experiments.runner import (
    _schedule_for,
    clear_cache,
    run_point,
    sweep,
)
from repro.kernels import KERNELS
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
    assert report.planes_skipped > 0
    assert report.reason is None


def test_redblack_detects_period_two():
    # Red and black half-sweeps alternate: consecutive planes differ
    # structurally, planes two apart repeat.
    _, report = run_extrapolated("REDBLACK", "Orig", 96)
    assert report.fired
    assert report.period == 2


def test_jacobi_detects_period_one():
    _, report = run_extrapolated("JACOBI", "Orig", 96)
    assert report.fired
    assert report.period == 1


def test_fallback_reason_tiled_schedule():
    report = checked_report("JACOBI", "GcdPad", 64)
    assert not report.fired
    assert report.reason == "tiled_schedule"
    assert report.planes_simulated == -1


def test_fallback_reason_plane_stride():
    # 90*90*8 bytes is not a multiple of the 64-byte L2 line, so planes
    # do not shift tags by a whole number of lines.
    report = checked_report("JACOBI", "Orig", 90)
    assert not report.fired
    assert report.reason == "plane_stride"


def test_fallback_reason_no_steady_state():
    # With the real 2MB L2 the whole tiny grid stays resident: tags
    # never recur shifted, and the run must complete unextrapolated.
    cfg = ExperimentConfig(machine=ULTRASPARC2_360, nk=8)
    report = checked_report("JACOBI", "Orig", 40, cfg)
    assert not report.fired
    assert report.planes_skipped == 0
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
    report = ExtrapolationReport(fired=False, planes_simulated=0,
                                 planes_skipped=0, period=0,
                                 reason="no_steady_state")
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.fired = True


def test_shifted_tags_roundtrip():
    rng = np.random.default_rng(3)
    # 64 sets (all sampled) and 1024 sets (every 16th sampled).
    for params in (CacheParams(2048, 32, 1, "L1"),
                   CacheParams(65536, 64, 1, "L2")):
        cache = DirectMappedCache(params)
        cache.access(rng.integers(0, 1 << 20, size=5000) * 8)
        base = cache.tags_snapshot()
        d = 192
        shifted = cache.shifted_tags(base, d)
        # Empty sets stay empty; occupied sets move by d lines exactly.
        assert ((base == -1).sum()) == ((shifted == -1).sum())
        assert not cache.tags_equal_shifted(base, d)
        cache.apply_tag_shift(d)
        assert cache.tags_equal_shifted(base, d)
        # Only the full comparison may answer True: a difference in a
        # set the sample skips still reads unequal.
        cache._tags[1] ^= 1 << 40
        assert not cache.tags_equal_shifted(base, d)


def test_run_point_records_extrapolated_flag():
    # A default run_point extrapolates an eligible (untiled) point and
    # simulates a tiled one in full; both match the flat full trace.
    clear_cache()
    fired = run_point("JACOBI", "Orig", 64, CFG)
    assert fired.extrapolated
    tiled = run_point("JACOBI", "GcdPad", 64, CFG)
    assert not tiled.extrapolated
    for p in (fired, tiled):
        full = run_full("JACOBI", p.strategy, 64)
        assert (p.l1_misses, p.l2_misses, p.refs) == \
            (full.misses(0), full.misses(1), full.demand_refs)


def test_run_point_extrapolate_fallback_not_flagged():
    # Ineligible by construction: the tiled schedule. A budget routes
    # the point around the memo, so it is simulated here.
    r = run_point("JACOBI", "GcdPad", 64, CFG,
                  policy=PointPolicy(budget=PointBudget()))
    assert not r.extrapolated


def test_sweep_option_marks_points(tmp_path):
    # A journaled sweep records the flag per point, and a resume
    # serves the same flags back from the journal.
    opts = SweepOptions(checkpoint=tmp_path / "x.jsonl")
    pts = sweep("JACOBI", ["Orig", "GcdPad"], [64], CFG, options=opts)
    assert pts["Orig"][0].extrapolated
    assert not pts["GcdPad"][0].extrapolated
    assert sweep("JACOBI", ["Orig", "GcdPad"], [64], CFG,
                 options=opts) == pts


def test_extrapolated_point_is_one_engine_run():
    # The plane filter feeds one CacheHierarchy.run; it never starts
    # a run per plane.
    with metrics.collect() as reg:
        _, report = run_extrapolated("JACOBI", "Orig", 64)
    assert report.fired
    assert reg.counter_total("repro.cache.engine_runs") == 1


def test_metrics_classify_instead_of_extrapolating():
    """Under ``--metrics`` classification takes precedence: an eligible
    point is simulated in full (reason ``classifiers``) and its 3C
    counts sum to its misses."""
    clear_cache()  # a memo hit would simulate (and classify) nothing
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
    clear_cache()
    plain = run_point("JACOBI", "Orig", 64, CFG)
    assert plain.extrapolated
    assert (p.l1_misses, p.l2_misses) == (plain.l1_misses, plain.l2_misses)
