"""Figures 14-19: per-size miss-rate and MFlops series per kernel.

Each kernel gets its miss-rate figure (14/16/18) and MFlops figure
(15/17/19), rendered as the paper's three graph groups. The assertions
pin the paper's qualitative claims: GcdPad/Pad are stabler than
Tile/Euc3D across sizes, and never worse than Orig on average.
"""

import pytest

from repro.experiments.figures import figure_series, format_figure
from repro.experiments.options import SweepOptions

from conftest import emit

FIGURES = {
    "JACOBI": ("fig14_jacobi_missrates", "fig15_jacobi_mflops"),
    "REDBLACK": ("fig16_redblack_missrates", "fig17_redblack_mflops"),
    "RESID": ("fig18_resid_missrates", "fig19_resid_mflops"),
}


@pytest.mark.parametrize("kernel", list(FIGURES))
def test_kernel_figures(benchmark, out_dir, cfg, point_store, kernel):
    options = SweepOptions(point_cache=point_store)
    data = benchmark.pedantic(
        lambda: figure_series(kernel, cfg=cfg, options=options),
        rounds=1, iterations=1)
    miss_name, mflops_name = FIGURES[kernel]
    miss_txt = (format_figure(data, "l1_rate", "L1 miss rate (%)")
                + "\n\n" + format_figure(data, "l2_rate", "L2 miss rate (%)"))
    emit(out_dir, miss_name, miss_txt)
    emit(out_dir, mflops_name, format_figure(data, "mflops", "MFlops"))

    l1 = data.series("l1_rate")
    mflops = data.series("mflops")

    def spread(xs):
        return max(xs) - min(xs)

    def mean(xs):
        return sum(xs) / len(xs)

    # Stability: padded transformations vary far less across sizes.
    assert spread(l1["GcdPad"]) < spread(l1["Orig"])
    assert spread(l1["Pad"]) < spread(l1["Orig"])
    # Average wins for the padded transformations.
    assert mean(mflops["GcdPad"]) > mean(mflops["Orig"])
    assert mean(l1["GcdPad"]) < mean(l1["Orig"])
