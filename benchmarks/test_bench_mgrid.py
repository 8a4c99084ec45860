"""Section 4.6: MGRID application improvement from tiling finest RESID.

The paper reports 6% total-time improvement at the 130^3 reference size
(noting the kernel's modest 6.8% untiled L1 miss rate there). The model
runs the real V-cycle structure and simulates RESID per level at the
reference 130^3.
"""

from repro.experiments.mgrid_app import format_mgrid_app, mgrid_app

from conftest import emit


def test_mgrid_application(benchmark, out_dir, cfg):
    # Always the reference class (130^3): the experiment is about the
    # real input size, and coarser grids leave tiling no headroom.
    res = benchmark.pedantic(
        lambda: mgrid_app(finest_level=7, cfg=cfg),
        rounds=1, iterations=1)
    emit(out_dir, "mgrid_application", format_mgrid_app(res))

    assert res.finest_n == 130
    assert res.improvement_pct > 0
    # App-level gain is much smaller than kernel-level (paper: 6% vs 27%).
    assert res.improvement_pct < 20.0
    assert 0.2 < res.resid_share < 0.9


def test_mgrid_solver_wallclock(benchmark):
    """Wall-clock of the real numpy V-cycle solver (33^3, 2 cycles)."""
    import numpy as np

    from repro.multigrid import GridHierarchy, MGSolver

    h = GridHierarchy(finest_level=5)
    rng = np.random.default_rng(0)
    v = np.zeros((33, 33, 33))
    v[1:-1, 1:-1, 1:-1] = rng.standard_normal((31, 31, 31))

    def solve():
        _, rep = MGSolver(h).solve(v, iterations=2)
        return rep

    rep = benchmark(solve)
    assert rep.residual_norms[-1] < rep.residual_norms[0]
