"""Paper-density differential of the segment-template acceleration.

Run by the CI perf-smoke job (not part of the tier-1 suite)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_extrapolation.py -q

Every kernel x figure strategy at the paper's caches (16K L1 / 2M L2,
direct-mapped), NK = 30 and N in {250, 256, 310}, plus the K-tiled
WolfLam3 schedule: the point simulated through
:func:`~repro.experiments.extrapolate.simulate_extrapolated` must equal
the full simulation of its trace bit for bit. N = 250 and 310 are
2 mod 4 (a plane is whole L1 lines but not whole L2 lines), N = 256 is
Euc3D's 1x1-tile fallback for every kernel, and RESID's and PSINV's
GcdPadNT have mixed plane strides. The associativity lattice's default
grid runs the same check on its 2- and 4-way L1s: JACOBI Orig, GcdPad
and Pad with 32- and 64-byte lines at the paper's L1 capacity and L2,
N in {218, 226} (at N = 226 templates cost only about 44% of Pad's
references, so its simulated segments are checked too).
"""

from __future__ import annotations

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.params import CacheParams
from repro.core.selector import select
from repro.experiments.config import ExperimentConfig
from repro.experiments.extrapolate import simulate_extrapolated
from repro.experiments.runner import _schedule_for
from repro.kernels import KERNELS
from repro.kernels.base import Schedule

NK = 30
SIZES = (250, 256, 310)
STRATEGIES = ("Orig", "Tile", "Euc3D", "GcdPad", "Pad", "GcdPadNT")


def _stats(st):
    return (st.reads, st.writes,
            [(name, s.accesses, s.misses) for name, s in st.levels])


def _differential(kernel, strategy, n, levels=None):
    """Check the point bit for bit against full simulation on
    ``levels`` (the paper's caches by default); return its selection,
    schedule and report."""
    cfg = ExperimentConfig()
    levels = levels or cfg.levels
    kern = KERNELS[kernel](n, NK, elem_bytes=cfg.elem_bytes)
    meta = kern.meta
    sel = select(strategy, cfg.cs, n, n, mi=meta.mi, mj=meta.mj,
                 atd=meta.atd)
    schedule = _schedule_for(strategy, kernel, sel)
    stats, report = simulate_extrapolated(kern, sel, schedule,
                                          CacheHierarchy(levels))
    full = CacheHierarchy(levels).run(
        kern.trace(sel, schedule, structured=True))
    assert _stats(stats) == _stats(full)
    if len({s.di for s in kern.specs(sel.di_p, sel.dj_p).values()}) == 1:
        # Uniform strides: templates carry most of every point.
        assert report.fired
    return sel, schedule, report


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_paper_density_point_is_bit_identical(kernel, strategy, n):
    _differential(kernel, strategy, n)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kernel", ["JACOBI", "RESID", "PSINV"])
def test_paper_density_wolf_lam_3loop_is_bit_identical(kernel, n):
    # 12-deep K tiles: NK - 2 = 28 ends every tile column on a short one.
    sel, schedule, _ = _differential(kernel, "WolfLam3", n)
    assert schedule is Schedule.TILED_3LOOP and sel.array_tile.tk == 12


@pytest.mark.parametrize("n", (218, 226))
@pytest.mark.parametrize("line", (32, 64))
@pytest.mark.parametrize("ways", (2, 4))
@pytest.mark.parametrize("strategy", ("Orig", "GcdPad", "Pad"))
def test_lattice_associative_cell_is_bit_identical(strategy, ways, line, n):
    # The lattice keeps the L1 capacity, so every cell runs the tiles
    # selected for the paper's L1.
    cfg = ExperimentConfig()
    l1 = CacheParams(cfg.l1.size_bytes, line, ways, f"L1/{ways}w/{line}B")
    _differential("JACOBI", strategy, n, [l1, cfg.l2])
