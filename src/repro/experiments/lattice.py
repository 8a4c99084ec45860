"""The associativity lattice: when does padding stop mattering?

The paper derives its conflict-avoidance strategies (Euc3D, GcdPad,
Pad) entirely in a direct-mapped world — the UltraSparc2's caches were
direct-mapped, so every self- and cross-interference miss they remove
is a *conflict* miss. Modern caches buy conflict tolerance with
associativity instead. This experiment puts both on one lattice:
strategy × associativity {1, 2, 4} × line size, at fixed problem size,
holding capacity constant (so tile selection — which only sees L1
capacity — picks the same tiles everywhere, and only the cache's
conflict behaviour varies across a row).

The interesting readout is the **padding gap**: the Orig miss rate
minus the best padded strategy's, per geometry. Where the gap collapses
to (near) zero, associativity already absorbs the conflicts padding
was invented to avoid — that boundary is the answer to "when does
padding stop mattering?", in the spirit of the cache-associativity-
lattices work this column of the roadmap is grounded in.

Points run through the ordinary :func:`~repro.experiments.runner.run_point`
pipeline, one :class:`~repro.experiments.config.ExperimentConfig` per
geometry, so the persistent point store caches cells across runs
(every geometry has its own config fingerprint). Checkpoint journals
are deliberately *not* used here: a journal binds to exactly one
fingerprint, and the lattice spans one per geometry.
"""

from __future__ import annotations

import csv
import io
import logging
import pathlib
from dataclasses import dataclass, replace

from repro.cache.params import CacheParams
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.options import SweepOptions
from repro.experiments.report import format_table, provenance_note
from repro.experiments.runner import PointResult, open_store, run_point
from repro.obs import events
from repro.resilience.atomic import atomic_write_text

__all__ = ["LatticeData", "run_lattice", "format_lattice",
           "lattice_to_csv", "write_lattice_csv",
           "DEFAULT_ASSOCS", "DEFAULT_LINES", "DEFAULT_STRATEGIES"]

log = logging.getLogger(__name__)

DEFAULT_ASSOCS: tuple[int, ...] = (1, 2, 4)
DEFAULT_LINES: tuple[int, ...] = (32, 64)
DEFAULT_STRATEGIES: tuple[str, ...] = ("Orig", "GcdPad", "Pad")

_CSV_COLUMNS = ("kernel", "strategy", "n", "nk", "assoc", "line_bytes",
                "l1_rate", "l2_rate", "l1_misses", "l2_misses", "refs",
                "mflops", "seconds", "degraded", "extrapolated")


@dataclass(frozen=True)
class LatticeData:
    """One kernel's strategy × associativity × line-size lattice."""

    kernel: str
    n: int
    strategies: tuple[str, ...]
    assocs: tuple[int, ...]
    line_sizes: tuple[int, ...]
    #: ``(strategy, assoc, line_bytes) -> PointResult``; insertion order
    #: is line-major then strategy-major (the sweep order).
    cells: dict[tuple[str, int, int], PointResult]

    def cell(self, strategy: str, assoc: int, line_bytes: int) -> PointResult:
        return self.cells[(strategy, assoc, line_bytes)]

    def padding_gap(self, assoc: int, line_bytes: int,
                    metric: str = "l1_rate") -> float:
        """Orig minus the best padded strategy, for one geometry.

        Positive = padding still buys something at this associativity;
        ~0 = the cache already absorbs the conflicts.
        """
        padded = [s for s in self.strategies if s != "Orig"]
        if "Orig" not in self.strategies or not padded:
            raise ConfigurationError(
                "padding_gap needs Orig plus at least one padded strategy")
        orig = getattr(self.cell("Orig", assoc, line_bytes), metric)
        best = min(getattr(self.cell(s, assoc, line_bytes), metric)
                   for s in padded)
        return orig - best


def _lattice_l1(base: CacheParams, assoc: int, line_bytes: int) -> CacheParams:
    """The lattice L1 for one cell: same capacity, new geometry."""
    if base.size_bytes % (line_bytes * assoc):
        raise ConfigurationError(
            f"L1 size {base.size_bytes} is not divisible by "
            f"{line_bytes}B lines x {assoc} ways")
    return CacheParams(size_bytes=base.size_bytes, line_bytes=line_bytes,
                       assoc=assoc, name=f"L1/{assoc}w/{line_bytes}B")


def run_lattice(kernel: str, n: int,
                strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
                assocs: tuple[int, ...] = DEFAULT_ASSOCS,
                line_sizes: tuple[int, ...] = DEFAULT_LINES,
                cfg: ExperimentConfig | None = None, *,
                options: SweepOptions | None = None) -> LatticeData:
    """Sweep the lattice for one kernel at one problem size.

    ``cfg`` supplies the base geometry (L1 capacity, L2, machine);
    every cell replaces the L1 with its lattice geometry via
    ``dataclasses.replace``, so fingerprints — and therefore point-store
    entries — are per-geometry. ``options`` carries the execution
    choices that make sense per-cell (store, budget or point timeout),
    projected through :meth:`SweepOptions.point_policy` exactly as a
    serial sweep's are; ``checkpoint`` is ignored (see module
    docstring). Every cell is simulated unless the store holds it.
    Cells run the segment templates like any exact point, whatever
    their associativity.
    """
    cfg = cfg or ExperimentConfig()
    options = options or SweepOptions()
    if options.checkpoint is not None:
        log.warning("lattice sweeps span one fingerprint per geometry; "
                    "ignoring --checkpoint %s", options.checkpoint)
    policy = options.point_policy(store=open_store(options.point_cache))
    cells: dict[tuple[str, int, int], PointResult] = {}
    with events.span("lattice", kernel=kernel, n=n,
                     cells=len(strategies) * len(assocs) * len(line_sizes)):
        for line in line_sizes:
            for assoc in assocs:
                cell_cfg = replace(cfg, l1=_lattice_l1(cfg.l1, assoc, line))
                for strat in strategies:
                    cells[(strat, assoc, line)] = run_point(
                        kernel, strat, n, cell_cfg, policy=policy)
    return LatticeData(kernel=kernel, n=n, strategies=tuple(strategies),
                       assocs=tuple(assocs), line_sizes=tuple(line_sizes),
                       cells=cells)


def format_lattice(data: LatticeData, metric: str = "l1_rate",
                   label: str = "L1 miss rate", *,
                   gap: bool = True) -> str:
    """Render the lattice: one table per line size, plus the gap table.

    ``gap=False`` drops the padding-gap table — it is defined for
    lower-is-better metrics (miss rates), not for MFlops.
    """
    parts = []
    for line in data.line_sizes:
        rows = []
        for strat in data.strategies:
            rows.append([strat,
                         *(getattr(data.cell(strat, a, line), metric)
                           for a in data.assocs)])
        parts.append(format_table(
            ["Strategy", *(f"{a}-way" for a in data.assocs)], rows,
            title=(f"{data.kernel} N={data.n} {label} — "
                   f"{line}B lines")))
    if gap and "Orig" in data.strategies and len(data.strategies) > 1:
        rows = [[f"{line}B",
                 *(f"{data.padding_gap(a, line, metric):.4f}"
                   for a in data.assocs)]
                for line in data.line_sizes]
        parts.append(format_table(
            ["Line", *(f"{a}-way" for a in data.assocs)], rows,
            title=f"Padding gap (Orig - best padded, {label})"))
    note = provenance_note(data.cells.values())
    if note:
        parts.append(note)
    return "\n\n".join(parts)


def _rows(data: LatticeData) -> list[list]:
    out = []
    for (strat, assoc, line), p in data.cells.items():
        out.append([p.kernel, strat, p.n, p.nk, assoc, line,
                    f"{p.l1_rate:.6f}", f"{p.l2_rate:.6f}",
                    p.l1_misses, p.l2_misses, p.refs,
                    f"{p.mflops:.6f}", f"{p.seconds:.9f}",
                    int(p.degraded), int(p.extrapolated)])
    return out


def lattice_to_csv(data: LatticeData) -> str:
    """Render the lattice as CSV (header + one row per cell)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_COLUMNS)
    for row in _rows(data):
        w.writerow(row)
    return buf.getvalue()


def write_lattice_csv(data: LatticeData,
                      path: str | pathlib.Path) -> pathlib.Path:
    """Write the lattice CSV atomically; returns the resolved path."""
    return atomic_write_text(path, lattice_to_csv(data))
