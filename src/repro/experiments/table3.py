"""Table 3: average performance and miss-rate improvements, N = 200..400.

Improvement conventions follow Section 4.3 exactly:

* ``% perf`` — mean over problem sizes of the per-size percentage MFlops
  improvement over Orig;
* ``L1/L2 miss rate`` — the *difference* of average miss rates in
  percentage points ("a drop in the average miss rate from 10 to 8 is an
  improvement of 2%, not 20%").
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from repro.experiments.config import ExperimentConfig, default_sizes
from repro.experiments.options import SweepOptions
from repro.experiments.report import format_table, provenance_note
from repro.experiments.runner import (
    PointResult,
    _resolve_journal,
    open_store,
    sweep,
)
from repro.experiments.transforms_table import PAPER_STRATEGIES

__all__ = ["KernelSummary", "Table3Result", "table3", "format_table3"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class KernelSummary:
    """One kernel's Table 3 block."""

    kernel: str
    orig_l1: float
    orig_l2: float
    # per strategy: (perf %, L1 pp, L2 pp)
    improvements: dict[str, tuple[float, float, float]]


@dataclass(frozen=True)
class Table3Result:
    sizes: list[int]
    summaries: list[KernelSummary]
    points: dict[str, dict[str, list[PointResult]]]  # kernel -> strat -> pts


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def summarize(kernel: str, results: dict[str, list[PointResult]]
              ) -> KernelSummary:
    orig = results["Orig"]
    orig_l1 = _mean(p.l1_rate for p in orig)
    orig_l2 = _mean(p.l2_rate for p in orig)
    improvements: dict[str, tuple[float, float, float]] = {}
    for strat, pts in results.items():
        if strat == "Orig":
            continue
        perf = _mean(100.0 * (p.mflops - o.mflops) / o.mflops
                     for p, o in zip(pts, orig))
        l1 = orig_l1 - _mean(p.l1_rate for p in pts)
        l2 = orig_l2 - _mean(p.l2_rate for p in pts)
        improvements[strat] = (perf, l1, l2)
    return KernelSummary(kernel=kernel, orig_l1=orig_l1, orig_l2=orig_l2,
                         improvements=improvements)


def table3(kernels: tuple[str, ...] = ("JACOBI", "REDBLACK", "RESID"),
           strategies: tuple[str, ...] = PAPER_STRATEGIES,
           sizes: list[int] | None = None,
           cfg: ExperimentConfig | None = None, *,
           options: SweepOptions | None = None) -> Table3Result:
    """Table 3 sweep; execution choices travel in ``options``.

    All kernels share one checkpoint journal and one point store
    (points are keyed by kernel/strategy/size), so a resumed or warm
    ``table3`` re-simulates only what no previous run had finished.
    See :class:`~repro.experiments.options.SweepOptions` for the full
    menu (budgets, parallel workers, point cache).
    """
    options = options or SweepOptions()
    cfg = cfg or ExperimentConfig()
    sizes = sizes or default_sizes()
    # Resolve the journal and store once so every kernel's sweep shares
    # the same open resources (and the fingerprint check runs once).
    options = replace(
        options,
        checkpoint=_resolve_journal(options.checkpoint, cfg),
        point_cache=open_store(options.point_cache))
    points: dict[str, dict[str, list[PointResult]]] = {}
    summaries = []
    for ki, kernel in enumerate(kernels, start=1):
        log.info("table3: sweeping %s (%d/%d), %d strategies x %d sizes",
                 kernel, ki, len(kernels), 1 + len(strategies), len(sizes))
        res = sweep(kernel, ["Orig", *strategies], sizes, cfg,
                    options=options)
        points[kernel] = res
        summaries.append(summarize(kernel, res))
    return Table3Result(sizes=sizes, summaries=summaries, points=points)


def format_table3(res: Table3Result) -> str:
    strategies = list(res.summaries[0].improvements)
    headers = ["Kernel", "Orig L1%", "Orig L2%", "Metric", *strategies]
    rows = []
    for s in res.summaries:
        for mi, metric in enumerate(("% perf", "L1 pp", "L2 pp")):
            rows.append([
                s.kernel if mi == 0 else "",
                f"{s.orig_l1:.1f}" if mi == 0 else "",
                f"{s.orig_l2:.1f}" if mi == 0 else "",
                metric,
                *(f"{s.improvements[t][mi]:+.1f}" for t in strategies),
            ])
    title = (f"Table 3: average improvements over Orig, "
             f"N = {res.sizes[0]}..{res.sizes[-1]} "
             f"({len(res.sizes)} sizes, NK = interior planes per config)")
    out = format_table(headers, rows, title=title)
    note = provenance_note(p for k in res.points.values()
                           for series in k.values() for p in series)
    return out + "\n" + note if note else out
