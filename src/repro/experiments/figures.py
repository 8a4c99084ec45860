"""Figures 14-21: per-size miss-rate and MFlops series.

Each kernel gets two figures (miss rates, MFlops), each figure three
graphs comparing strategy groups against Orig — exactly the paper's
arrangement:

* graph 1: Tile and Euc3D (irregular, conflict-prone);
* graph 2: GcdPad and Pad (stable);
* graph 3: GcdPadNT (padding without tiling).

Figures 20-21 are the same series for RESID at N = 400..700 on the
450 MHz machine preset.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.experiments.config import ExperimentConfig, default_sizes
from repro.experiments.options import SweepOptions
from repro.experiments.report import format_series, provenance_note
from repro.experiments.runner import PointResult, sweep
from repro.perfmodel.machine import ULTRASPARC2_450

__all__ = ["FigureData", "figure_series", "large_resid_series",
           "format_figure", "GRAPH_GROUPS"]

log = logging.getLogger(__name__)

GRAPH_GROUPS: tuple[tuple[str, ...], ...] = (
    ("Orig", "Tile", "Euc3D"),
    ("Orig", "GcdPad", "Pad"),
    ("Orig", "GcdPadNT"),
)


@dataclass(frozen=True)
class FigureData:
    """All series needed for one kernel's pair of figures."""

    kernel: str
    sizes: list[int]
    points: dict[str, list[PointResult]]  # strategy -> per-size results

    def series(self, metric: str) -> dict[str, list[float]]:
        return {s: [getattr(p, metric) for p in pts]
                for s, pts in self.points.items()}


def figure_series(kernel: str, sizes: list[int] | None = None,
                  cfg: ExperimentConfig | None = None, *,
                  options: SweepOptions | None = None) -> FigureData:
    """Miss-rate and MFlops series for Figures 14-19.

    Execution choices (checkpointing, budgets, parallel workers, the
    persistent point cache) travel in ``options`` — see
    :class:`~repro.experiments.options.SweepOptions`.
    """
    cfg = cfg or ExperimentConfig()
    sizes = sizes or default_sizes()
    strategies = ["Orig", "Tile", "Euc3D", "GcdPad", "Pad", "GcdPadNT"]
    log.info("figures: sweeping %s, %d strategies x %d sizes",
             kernel, len(strategies), len(sizes))
    return FigureData(kernel=kernel, sizes=sizes,
                      points=sweep(kernel, strategies, sizes, cfg,
                                   options=options))


def large_resid_series(sizes: list[int] | None = None,
                       cfg: ExperimentConfig | None = None, *,
                       options: SweepOptions | None = None) -> FigureData:
    """Figures 20-21: RESID at N = 400..700, 450 MHz preset."""
    if cfg is None:
        cfg = ExperimentConfig(machine=ULTRASPARC2_450)
    sizes = sizes or default_sizes(400, 700)
    return figure_series("RESID", sizes, cfg, options=options)


def format_figure(data: FigureData, metric: str, label: str) -> str:
    """Render one figure's three graphs as aligned series tables."""
    all_series = data.series(metric)
    parts = []
    for gi, group in enumerate(GRAPH_GROUPS, start=1):
        sel = {s: all_series[s] for s in group if s in all_series}
        parts.append(format_series(
            f"{data.kernel} {label} — graph {gi} ({' vs '.join(group)})",
            "N", data.sizes, sel))
    note = provenance_note(p for pts in data.points.values() for p in pts)
    if note:
        parts.append(note)
    return "\n\n".join(parts)
