"""Figures 20-21: RESID at larger problem sizes (N = 400..700, 450 MHz).

The paper's robustness check: tiling keeps working as problem sizes
grow ("should remain effective even as problem sizes grow
exponentially"). Sizes straddle the L2 group-reuse boundary (N = 362),
so Orig pays L2 misses everywhere in this range while tiled versions
keep L2 rates flat. The bench runs ``large_resid_series`` as it
stands: N = 400..700 step 10 under the 450 MHz preset.
"""

from repro.experiments.figures import format_figure, large_resid_series

from conftest import emit


def test_large_resid(benchmark, out_dir):
    data = benchmark.pedantic(large_resid_series, rounds=1, iterations=1)
    emit(out_dir, "fig20_resid_large_missrates",
         format_figure(data, "l1_rate", "L1 miss rate (%)")
         + "\n\n" + format_figure(data, "l2_rate", "L2 miss rate (%)"))
    emit(out_dir, "fig21_resid_large_mflops",
         format_figure(data, "mflops", "MFlops (450MHz model)"))

    l2 = data.series("l2_rate")
    mflops = data.series("mflops")
    # Beyond the 362 boundary Orig loses L2 group reuse at every size;
    # padded tiling holds L2 rates down and performance up.
    mean = lambda xs: sum(xs) / len(xs)
    assert mean(l2["GcdPad"]) <= mean(l2["Orig"])
    assert mean(mflops["GcdPad"]) > mean(mflops["Orig"])
