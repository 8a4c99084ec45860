"""Table 3: average improvements for 3 kernels x 5 transformations.

The headline experiment: JACOBI / REDBLACK / RESID, each under Tile,
Euc3D, GcdPad, Pad, GcdPadNT, swept over problem sizes and averaged.
Expected shape (paper values in EXPERIMENTS.md): padded tiling
(GcdPad/Pad) beats unpadded (Tile/Euc3D); padding alone (GcdPadNT) is a
small win; REDBLACK gains most; RESID least.
"""

from repro.experiments.options import SweepOptions
from repro.experiments.table3 import format_table3, table3
from repro.experiments.transforms_table import format_table2

from conftest import emit


def test_table3(benchmark, out_dir, cfg, point_store):
    options = SweepOptions(point_cache=point_store)
    res = benchmark.pedantic(lambda: table3(cfg=cfg, options=options),
                             rounds=1, iterations=1)
    emit(out_dir, "table2", format_table2())
    emit(out_dir, "table3", format_table3(res))

    by_kernel = {s.kernel: s for s in res.summaries}
    # Padded tiling beats Orig on average, for every kernel.
    for kernel, s in by_kernel.items():
        for strat in ("GcdPad", "Pad"):
            assert s.improvements[strat][0] > 0, (kernel, strat)
    # REDBLACK gains most (spatial + temporal reuse), as in the paper.
    gcd_gains = {k: s.improvements["GcdPad"][0] for k, s in by_kernel.items()}
    assert gcd_gains["REDBLACK"] == max(gcd_gains.values())
