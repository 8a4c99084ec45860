"""Perf-smoke tests for the sweep benchmark harness.

Run by the CI perf-smoke job (not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_sweep_perf.py -q

These are sanity gates, not regression thresholds: timings on shared CI
runners are too noisy to assert against absolute numbers, so the
timings are archived (``BENCH_sweep.json``) and the assertions here
check structure, positivity, and — the one thing that must never
regress — that the chunk-streamed fast path stays bit-for-bit equal to
the monolithic simulation with the cache disabled.
"""

from __future__ import annotations

import json

import pytest

from repro.cache.params import CacheParams
from repro.experiments.config import ExperimentConfig
from repro.experiments.options import PointPolicy
from repro.experiments.runner import run_point
from repro.perf.bench import (_point_key, bench_assoc_speedup, bench_point,
                              bench_sweep, write_bench)
from repro.perfmodel.machine import ULTRASPARC2_360

_STAGES = ("trace_seconds", "l1_seconds", "l2_seconds",
           "end_to_end_seconds")


@pytest.fixture
def tiny_config() -> ExperimentConfig:
    return ExperimentConfig(
        l1=CacheParams(size_bytes=2048, line_bytes=32, assoc=1, name="L1"),
        l2=CacheParams(size_bytes=65536, line_bytes=64, assoc=1, name="L2"),
        machine=ULTRASPARC2_360, nk=8)


def test_bench_point_shape_and_positivity(tiny_config):
    pt = bench_point("JACOBI", "GcdPad", 48, tiny_config, repeats=1)
    assert pt["kernel"] == "JACOBI" and pt["n"] == 48
    assert pt["addresses"] > 0
    for stage in _STAGES:
        assert pt[stage] > 0.0, stage
    assert pt["addresses_per_second"] > 0.0


def test_stage_times_nest_sensibly(tiny_config):
    # Each stage strictly contains the previous one's work, so with
    # best-of smoothing the ordering should hold even on noisy runners;
    # allow generous slop rather than flake.
    pt = bench_point("RESID", "Orig", 48, tiny_config, repeats=3)
    assert pt["l2_seconds"] > 0.5 * pt["l1_seconds"]
    assert pt["end_to_end_seconds"] > 0.5 * pt["l2_seconds"]


def test_bench_sweep_report_roundtrips(tiny_config, tmp_path):
    report = bench_sweep(kernels=("JACOBI", "RESID"), strategies=("Orig",),
                         sizes=(40,), cfg=tiny_config, repeats=1)
    assert report["v"] == 1 and len(report["points"]) == 2
    assert {p["kernel"] for p in report["points"]} == {"JACOBI", "RESID"}
    out = write_bench(report, tmp_path / "BENCH_sweep.json")
    assert json.loads(out.read_text()) == report


def test_bench_point_assoc_geometry(tiny_config):
    pt = bench_point("JACOBI", "Orig", 40, tiny_config, repeats=1, assoc=2)
    assert pt["assoc"] == 2
    for stage in _STAGES:
        assert pt[stage] > 0.0, stage
    # Reports written before the assoc field existed must keep matching
    # their direct-mapped successors.
    legacy = {"kernel": "JACOBI", "strategy": "Orig", "n": 40, "nk": 8}
    assert _point_key(legacy) == _point_key({**legacy, "assoc": 1})
    assert _point_key(legacy) != _point_key(pt)


@pytest.mark.parametrize("assoc,floor", [(2, 2.0), (4, 1.5), (8, 1.5)])
def test_assoc_sweep_beats_scalar_reference(assoc, floor):
    """The vectorized associative engines must run an ``assoc``-way
    geometry sweep at >= ``floor`` x the scalar exact-LRU reference.

    Measured on a 2-vCPU host (JACOBI Orig N=64, NK=11): 2-way
    (``TwoWayCache``) 12-13x, 4- and 8-way (``AssocScanCache``)
    2.5-3.1x, where a merge-count for every run head ran at 0.8-1.0x.
    The floors leave room for runner noise while still catching a
    fallback to the scalar path or a k-way verdict that costs as much
    as the reference again.
    """
    res = bench_assoc_speedup("JACOBI", "Orig", 64, assoc=assoc, repeats=2)
    assert res["addresses"] > 0
    assert res["speedup"] >= floor, res


def test_disabled_cache_path_differential(tiny_config):
    """Chunk-streamed simulation must stay exact with no point cache.

    This is the perf job's regression gate: if chunking ever changed
    simulated numbers, the fast path would be fast and wrong.
    """
    for kernel in ("JACOBI", "RESID"):
        for strategy in ("Orig", "GcdPad"):
            mono = run_point(kernel, strategy, 48, tiny_config,
                             policy=PointPolicy(chunk_size=0))
            for chunk in (64, 1024, 100_000):
                chunked = run_point(kernel, strategy, 48, tiny_config,
                                    policy=PointPolicy(chunk_size=chunk))
                assert chunked == mono, (kernel, strategy, chunk)


def test_warm_store_integrity_overhead_within_noise(tiny_config, tmp_path):
    """Checksums + locking must not de-throne the warm store path.

    The integrity layer (CRC verification on every hit, advisory locks
    around journal/eviction mutations) rides the persistence hot path.
    Sanity gate in the spirit of this file: a warm, store-served sweep
    must still beat re-simulating by a wide margin, and per-hit latency
    stays bounded in absolute terms generous enough for shared runners.
    """
    import time

    from repro.experiments.options import SweepOptions
    from repro.experiments.runner import config_fingerprint, sweep
    from repro.perf.store import PointStore
    from repro.resilience import faults

    cache = tmp_path / "cache"
    opts = SweepOptions(point_cache=cache)
    grid = ("JACOBI", ["Orig", "GcdPad"], [48, 64])

    t0 = time.perf_counter()
    cold = sweep(*grid, tiny_config, options=opts)
    cold_s = time.perf_counter() - t0

    inj = faults.FaultInjector()
    t0 = time.perf_counter()
    with faults.inject(inj):
        warm = sweep(*grid, tiny_config, options=opts)
    warm_s = time.perf_counter() - t0

    assert inj.calls("simulate") == 0  # everything served from the store
    assert warm == cold                # and served *exactly*
    # Checksummed+locked warm serving must stay far below simulation.
    assert warm_s < 0.5 * cold_s, (warm_s, cold_s)

    # Absolute per-hit bound: parse + CRC verify + mtime touch. 5 ms is
    # ~100x the typical cost — a failure here means the integrity layer
    # grew a real per-hit penalty, not runner noise.
    store = PointStore(cache)
    fp = config_fingerprint(tiny_config)
    key = ("JACOBI", "Orig", 48)
    best = min(
        _timed_gets(store, fp, key, repeats=100) for _ in range(3))
    assert best / 100 < 0.005, f"warm get averaged {best / 100:.6f}s"


def _timed_gets(store, fp, key, repeats):
    import time

    t0 = time.perf_counter()
    for _ in range(repeats):
        assert store.get(fp, key) is not None
    return time.perf_counter() - t0
