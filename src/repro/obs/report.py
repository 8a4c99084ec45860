"""Render a run summary from a ``--log-json`` event file.

``repro obs-report run.jsonl [--metrics metrics.json]`` answers the
questions an experimenter asks after (or during) a sweep:

* where did the time go? (slowest simulated points, per-phase totals)
* how fast was the simulator? (addresses simulated per second)
* what kind of misses dominate? (cold/conflict/capacity per level,
  from the metrics snapshot)
* did the run degrade? (retries, budget degradations, checkpoint
  resumes/recoveries — the resilience timeline)

The reader is deliberately tolerant of a *trailing* malformed line —
the artifact a killed run can leave on non-atomic filesystems — and
strict about anything else, mirroring the checkpoint journal's
recovery contract.
"""

from __future__ import annotations

import json
import logging
import pathlib
from dataclasses import dataclass, field

from repro.errors import ExperimentError

__all__ = ["RunSummary", "read_events", "read_metrics", "summarize",
           "format_report", "obs_report"]

log = logging.getLogger(__name__)


def read_events(path: str | pathlib.Path) -> list[dict]:
    """Parse a JSONL event file written by ``--log-json``.

    A malformed trailing line is dropped (killed-run artifact); a
    malformed interior line raises
    :class:`~repro.errors.ExperimentError`.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise ExperimentError(f"no such event file: {path}")
    raw = [ln for ln in path.read_text().splitlines() if ln.strip()]
    events: list[dict] = []
    for i, line in enumerate(raw):
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict) or "kind" not in obj:
                raise ValueError("not an event record")
        except ValueError as exc:
            if i == len(raw) - 1:
                log.warning("%s: dropping malformed trailing line %d (%s)",
                            path, i + 1, exc)
                break
            raise ExperimentError(
                f"{path} is corrupt at line {i + 1} "
                f"(not the trailing line): {exc}") from None
        events.append(obj)
    if not events:
        # Empty, or its only line was truncated damage: either way
        # there is nothing to report on, and exit 2 beats a blank page.
        raise ExperimentError(
            f"{path} contains no event records (empty or fully truncated)")
    return events


def read_metrics(path: str | pathlib.Path) -> dict:
    """Parse a ``--metrics`` JSON snapshot."""
    path = pathlib.Path(path)
    if not path.exists():
        raise ExperimentError(f"no such metrics file: {path}")
    try:
        obj = json.loads(path.read_text())
    except ValueError as exc:
        raise ExperimentError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or "counters" not in obj:
        raise ExperimentError(f"{path} is not a metrics snapshot")
    return obj


@dataclass
class RunSummary:
    """Everything :func:`format_report` renders."""

    command: str = "?"
    n_events: int = 0
    wall_s: float | None = None
    points: int = 0
    degraded: int = 0
    journal_hits: int = 0
    simulations: int = 0
    sim_seconds: float = 0.0
    sim_refs: int = 0
    retries: int = 0
    checkpoint_resumed: int = 0
    checkpoint_recovered: int = 0
    #: supervised-pool lifecycle (parallel sweeps only).
    worker_attempts: int = 0
    pool_retries: int = 0
    quarantined: int = 0
    #: record integrity (``integrity_quarantine`` events +
    #: ``repro.integrity.*`` counters from the metrics snapshot).
    integrity_quarantined: int = 0
    crc_failures: int = 0
    #: K-plane extrapolation (``extrapolate`` events).
    extrapolation_fired: int = 0
    extrapolation_fallback: int = 0
    extrapolation_planes_skipped: int = 0
    #: ``CacheHierarchy.run`` calls, from the metrics snapshot.
    engine_runs: int = 0
    #: per-level engine coverage: level name -> {mode: runs}, from the
    #: ``repro.cache.engine_level_mode`` counter (the metrics face of
    #: ``CacheHierarchy.engine_support()``).
    engine_levels: dict[str, dict[str, int]] = field(default_factory=dict)
    #: partition strategy -> invocation count (metrics snapshot).
    partitions: dict[str, int] = field(default_factory=dict)
    #: (kernel, strategy, n, dur_s, refs) of the slowest simulations.
    slowest: list[tuple] = field(default_factory=list)
    #: p50/p90/p95 over every ``simulate`` span duration.
    sim_percentiles: dict[str, float] = field(default_factory=dict)
    #: span name -> peak tracemalloc KiB (only when profiled).
    mem_peaks: dict[str, float] = field(default_factory=dict)
    #: level -> {cls: count} from the metrics snapshot.
    miss_classes: dict[str, dict[str, int]] = field(default_factory=dict)
    #: level -> {array: count} from the metrics snapshot.
    miss_arrays: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def refs_per_second(self) -> float:
        return self.sim_refs / self.sim_seconds if self.sim_seconds else 0.0


def summarize(events: list[dict], metrics: dict | None = None,
              top: int = 5) -> RunSummary:
    """Fold an event stream (and optional metrics snapshot) into a summary."""
    s = RunSummary(n_events=len(events))
    sims: list[tuple] = []
    for ev in events:
        kind = ev.get("kind")
        if kind == "span_end":
            name = ev.get("name")
            dur = float(ev.get("dur_s", 0.0))
            if name == "run":
                s.wall_s = dur
                s.command = str(ev.get("command", s.command))
            elif name == "point":
                if ev.get("supervised"):
                    # A pool task's launch→terminal umbrella span; the
                    # supervisor's plain ``point`` event stays the one
                    # canonical count for that point.
                    pass
                else:
                    s.points += 1
                    if ev.get("degraded"):
                        s.degraded += 1
                    if ev.get("source") == "journal":
                        s.journal_hits += 1
            elif name == "simulate":
                s.simulations += 1
                refs = int(ev.get("refs", 0))
                s.sim_seconds += dur
                s.sim_refs += refs
                sims.append((ev.get("kernel", "?"), ev.get("strategy", "?"),
                             ev.get("n", "?"), dur, refs))
            peak = ev.get("mem_peak_kb")
            if peak is not None and name is not None:
                s.mem_peaks[name] = max(s.mem_peaks.get(name, 0.0),
                                        float(peak))
        elif kind == "span_start" and ev.get("name") == "run":
            s.command = str(ev.get("command", s.command))
        elif kind == "point":
            # Parallel sweeps emit points as plain events (the worker's
            # span lives in a child process and never reaches this bus).
            s.points += 1
            if ev.get("degraded"):
                s.degraded += 1
            if ev.get("source") == "journal":
                s.journal_hits += 1
        elif kind == "retry":
            s.retries += 1
        elif kind == "degraded":
            pass  # the point span_end carries the degraded flag
        elif kind == "checkpoint_resume":
            s.checkpoint_resumed += int(ev.get("points", 0))
        elif kind == "checkpoint_recovered":
            s.checkpoint_recovered += 1
        elif kind == "extrapolate":
            if ev.get("fired"):
                s.extrapolation_fired += 1
                s.extrapolation_planes_skipped += int(
                    ev.get("planes_skipped", 0))
            else:
                s.extrapolation_fallback += 1
        elif kind == "worker_exit":
            s.worker_attempts += 1
        elif kind == "point_retry":
            s.pool_retries += 1
        elif kind == "quarantine":
            s.quarantined += 1
        elif kind == "integrity_quarantine":
            s.integrity_quarantined += 1
    s.slowest = sorted(sims, key=lambda t: -t[3])[:top]
    if sims:
        from repro.obs.metrics import percentile

        durs = [t[3] for t in sims]
        s.sim_percentiles = {q: percentile(durs, p)
                             for q, p in (("p50", 50), ("p90", 90),
                                          ("p95", 95))}

    if metrics:
        for row in metrics.get("counters", []):
            labels = row.get("labels", {})
            name = row.get("name")
            if name == "repro.cache.engine_runs":
                s.engine_runs += int(row.get("value", 0))
            elif name == "repro.cache.partition":
                strat = labels.get("strategy", "?")
                s.partitions[strat] = (s.partitions.get(strat, 0)
                                       + int(row.get("value", 0)))
            elif name == "repro.cache.engine_level_mode":
                lvl = labels.get("level", "?")
                mode = labels.get("mode", "?")
                by = s.engine_levels.setdefault(lvl, {})
                by[mode] = by.get(mode, 0) + int(row.get("value", 0))
            elif name == "repro.integrity.crc_failures":
                s.crc_failures += int(row.get("value", 0))
            if row.get("name") == "repro.sim.miss_class":
                lvl = labels.get("level", "?")
                s.miss_classes.setdefault(lvl, {})[labels.get("cls", "?")] = \
                    int(row.get("value", 0))
            elif row.get("name") == "repro.sim.miss_array":
                lvl = labels.get("level", "?")
                s.miss_arrays.setdefault(lvl, {})[labels.get("array", "?")] = \
                    int(row.get("value", 0))
    return s


def format_report(s: RunSummary) -> str:
    """Render the summary as the ``obs-report`` plain-text output."""
    from repro.experiments.report import format_table

    parts: list[str] = []
    head = [f"run: {s.command}", f"events: {s.n_events}"]
    if s.wall_s is not None:
        head.append(f"wall: {s.wall_s:.2f}s")
    parts.append("  ".join(head))

    parts.append(
        f"points: {s.points} ({s.simulations} exact simulations, "
        f"{s.journal_hits} from journal, {s.degraded} degraded)")
    if s.sim_seconds:
        parts.append(
            f"throughput: {s.sim_refs} refs in {s.sim_seconds:.2f}s "
            f"simulate time = {s.refs_per_second:,.0f} addrs/s")
    if s.retries or s.checkpoint_resumed or s.checkpoint_recovered:
        parts.append(
            f"resilience: {s.retries} retries, "
            f"{s.checkpoint_resumed} points resumed from checkpoint, "
            f"{s.checkpoint_recovered} journal recoveries")
    if s.worker_attempts or s.pool_retries or s.quarantined:
        parts.append(
            f"pool: {s.worker_attempts} worker attempts, "
            f"{s.pool_retries} point retries, "
            f"{s.quarantined} quarantined to the analytic model")
    if s.integrity_quarantined or s.crc_failures:
        parts.append(
            f"integrity: {s.crc_failures} checksum failures, "
            f"{s.integrity_quarantined} artifacts quarantined "
            f"(inspect .quarantine/, then `repro fsck`)")
    if s.engine_runs or s.partitions:
        parts_str = ", ".join(f"{n} {strat}"
                              for strat, n in sorted(s.partitions.items()))
        line = f"cache engine: {s.engine_runs} runs"
        if parts_str:
            line += f", partitions [{parts_str}]"
        parts.append(line)
    if s.engine_levels:
        per = "; ".join(
            f"{lvl} [" + ", ".join(f"{n} {m}"
                                   for m, n in sorted(by.items())) + "]"
            for lvl, by in sorted(s.engine_levels.items()))
        parts.append(f"engine support: {per}")
    if s.extrapolation_fired or s.extrapolation_fallback:
        parts.append(
            f"extrapolation: {s.extrapolation_fired} points fired "
            f"({s.extrapolation_planes_skipped} planes skipped), "
            f"{s.extrapolation_fallback} fell back to full simulation")

    if s.slowest:
        rows = [[k, st, n, f"{dur:.3f}", refs]
                for k, st, n, dur, refs in s.slowest]
        parts.append("")
        parts.append(format_table(
            ["Kernel", "Strategy", "N", "seconds", "refs"], rows,
            title="Slowest simulated points"))
    if s.sim_percentiles:
        parts.append(
            "simulate durations: "
            + "  ".join(f"{q} {v:.3f}s"
                        for q, v in s.sim_percentiles.items()))

    if s.miss_classes:
        from repro.cache.classify import MISS_CLASSES

        rows = []
        for lvl in sorted(s.miss_classes):
            by = s.miss_classes[lvl]
            total = sum(by.values())
            rows.append([lvl,
                         *(by.get(c, 0) for c in MISS_CLASSES),
                         total])
        parts.append("")
        parts.append(format_table(
            ["Level", *MISS_CLASSES, "total"], rows,
            title="Miss classification (all simulated points)"))

    if s.miss_arrays:
        rows = [[lvl, arr, cnt]
                for lvl in sorted(s.miss_arrays)
                for arr, cnt in sorted(s.miss_arrays[lvl].items())]
        parts.append("")
        parts.append(format_table(["Level", "Array", "misses"], rows,
                                  title="Misses by array"))

    if s.mem_peaks:
        rows = [[name, f"{kb:.1f}"]
                for name, kb in sorted(s.mem_peaks.items(),
                                       key=lambda kv: -kv[1])]
        parts.append("")
        parts.append(format_table(["Span", "peak KiB"], rows,
                                  title="Peak traced memory per phase"))
    return "\n".join(parts)


def obs_report(events_path: str | pathlib.Path,
               metrics_path: str | pathlib.Path | None = None,
               top: int = 5) -> str:
    """End-to-end: read files, summarize, render.

    ``events_path`` may also be a ledgered run directory (or a ledger
    directory — its latest run is picked): the run's own
    ``events.jsonl`` / ``metrics.json`` are used, so any historical
    run renders with one argument.
    """
    events_path = pathlib.Path(events_path)
    if events_path.is_dir():
        from repro.obs.ledger import resolve_run

        run = resolve_run(events_path)
        events_path = run / "events.jsonl"
        if metrics_path is None and (run / "metrics.json").exists():
            metrics_path = run / "metrics.json"
    events = read_events(events_path)
    metrics = read_metrics(metrics_path) if metrics_path else None
    return format_report(summarize(events, metrics, top=top))
