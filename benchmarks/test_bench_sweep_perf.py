"""Perf-smoke gates: simulation speed and fast-path exactness.

Run by the CI perf-smoke job (not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_sweep_perf.py -q

Timings on shared CI runners are too noisy for absolute thresholds, so
the speed gates are ratios measured in one process (the vectorized
associative engines against the scalar exact-LRU reference, a warm
store against re-simulation) with generous floors. The one thing that
must never regress is exactness: the chunk-streamed fast path stays bit
for bit equal to the monolithic simulation with the cache disabled.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cache.factory import build_simulator
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.params import CacheParams
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.selector import select
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_point
from repro.kernels import Jacobi3D
from repro.perf.timing import best_of
from repro.perfmodel.machine import ULTRASPARC2_360


@pytest.fixture
def tiny_config() -> ExperimentConfig:
    return ExperimentConfig(
        l1=CacheParams(size_bytes=2048, line_bytes=32, assoc=1, name="L1"),
        l2=CacheParams(size_bytes=65536, line_bytes=64, assoc=1, name="L2"),
        machine=ULTRASPARC2_360, nk=8)


def _assoc_speedup(assoc: int, n: int = 96, repeats: int = 3) -> float:
    """Scalar-reference seconds over engine seconds at ``assoc`` ways.

    Materializes one JACOBI Orig trace at NK = 11 under the paper's
    caches with its L1 re-shaped to ``assoc`` ways (same capacity and
    line size), then runs the full L1+L2 hierarchy over it two ways:
    through :meth:`CacheHierarchy.run`, the engine driving the simulators
    :func:`build_simulator` picks, and chunk by chunk with a scalar
    :class:`SetAssociativeCache` L1, the exact-LRU reference the
    engines are differentially tested against. Trace generation is
    identical on both sides and excluded, so the ratio isolates
    simulation cost.
    """
    base = ExperimentConfig(nk=11)  # the depth the floors were set at
    cfg = replace(base, l1=replace(base.l1, assoc=assoc))
    kern = Jacobi3D(n, cfg.nk, elem_bytes=cfg.elem_bytes)
    meta = kern.meta
    sel = select("Orig", cfg.cs, n, n, mi=meta.mi, mj=meta.mj, atd=meta.atd)
    chunks = [chunk.addresses for chunk in kern.trace(
        sel, inter_pad_cache=cfg.cs if cfg.inter_pad else None,
        structured=True)]
    assert sum(c.size for c in chunks) > 0

    def engine():
        CacheHierarchy(cfg.levels).run(chunks)

    def reference():
        levels = [SetAssociativeCache(cfg.l1),
                  *(build_simulator(p) for p in cfg.levels[1:])]
        for addrs in chunks:
            for lvl in levels:
                addrs = addrs[lvl.access(addrs)]

    engine_s = best_of(engine, repeats)
    return best_of(reference, repeats) / engine_s


@pytest.mark.parametrize("assoc,floor", [(2, 2.0), (4, 1.5), (8, 1.5)])
def test_assoc_sweep_beats_scalar_reference(assoc, floor):
    """The vectorized associative engines must run an ``assoc``-way
    geometry sweep at >= ``floor`` x the scalar exact-LRU reference.

    Measured with :func:`_assoc_speedup` on a shared 2-vCPU host
    (JACOBI Orig N=96, NK=11, best of 3, about 1 s per call): 2-way
    (``TwoWayCache``) 10.8-13.4x over 8 runs, 4-way 1.65-3.36x and
    8-way 1.75-3.10x (``AssocScanCache``) over 16, where a merge-count
    for every run head ran at 0.8-1.0x. At N=64, best of 2, the engine
    side took only 10-16 ms and 8 runs read 4-way 1.76-2.59x and 8-way
    1.54-3.23x. The floors leave room for runner noise while still
    catching a fallback to the scalar path or a k-way verdict that
    costs as much as the reference again.
    """
    speedup = _assoc_speedup(assoc)
    assert speedup >= floor, f"{assoc}-way speedup {speedup:.2f}x"


def test_disabled_cache_path_differential(tiny_config, monkeypatch):
    """Chunk-streamed simulation must stay exact with no point cache.

    This is the perf job's regression gate: if chunking ever changed
    simulated numbers, the fast path would be fast and wrong. The
    generator reads its bound at call time, so patching
    ``DEFAULT_CHUNK_ADDRESSES`` (``0`` = unbounded) re-chunks every
    trace of a point: those costed from segment templates (untiled and
    tiled), RESID GcdPad's, which the segment filter simulates segment
    by segment with only the I shifts of its padded U eligible and, at
    NK = 8, no template matching, and RESID GcdPadNT's, which its mixed
    plane strides keep on one full simulation.
    """
    bound = "repro.trace.generator.DEFAULT_CHUNK_ADDRESSES"
    for kernel, strategy, extrapolated in (
            ("JACOBI", "Orig", True), ("JACOBI", "GcdPad", True),
            ("RESID", "Orig", True), ("RESID", "GcdPad", False),
            ("RESID", "GcdPadNT", False)):
        monkeypatch.setattr(bound, 0)
        mono = run_point(kernel, strategy, 48, tiny_config)
        assert mono.extrapolated == extrapolated, mono
        for chunk in (64, 1024, 100_000):
            monkeypatch.setattr(bound, chunk)
            chunked = run_point(kernel, strategy, 48, tiny_config)
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
