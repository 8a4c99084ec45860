"""The run ledger: one durable manifest per CLI invocation.

A ``--run-dir LEDGER`` invocation creates ``LEDGER/<run_id>/`` and
keeps everything the run produced in one place::

    LEDGER/<run_id>/
        manifest.json   # what ran, when, outcome, metrics digest (CRC'd)
        events.jsonl    # the merged event trace (unless --log-json set)
        metrics.json    # metrics snapshot (unless --metrics set)
        status.json     # live progress, final outcome (CRC'd)
        shards/         # transient per-worker shards (merged, removed)

The manifest is written at session start (``outcome: "running"``) and
finalized on exit with the outcome, wall time, a config fingerprint,
artifact paths (journal / point store / CSV / trace),
and a final metrics digest including ``repro.sim.point_seconds``
percentiles. Writes are atomic and CRC-stamped with
:mod:`repro.resilience.integrity` — a manifest that fails its checksum
is surfaced as damaged, never silently trusted.

``repro runs list|show|gc`` and ``repro obs-report <run dir>`` read
the ledger back; ``repro watch`` follows ``status.json``.
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
import shutil
import time
from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.resilience.atomic import atomic_write_text
from repro.resilience.integrity import attach_crc, verify_crc

__all__ = [
    "MANIFEST_NAME",
    "STATUS_NAME",
    "RunPaths",
    "run_paths",
    "start_run",
    "finalize_run",
    "read_manifest",
    "resolve_run",
    "list_runs",
    "gc_runs",
    "metrics_digest",
    "format_runs",
    "format_manifest",
]

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
STATUS_NAME = "status.json"
_MANIFEST_VERSION = 1


@dataclass(frozen=True)
class RunPaths:
    """Everything a ledgered run writes, rooted at ``root``."""

    root: pathlib.Path

    @property
    def manifest(self) -> pathlib.Path:
        return self.root / MANIFEST_NAME

    @property
    def events(self) -> pathlib.Path:
        return self.root / "events.jsonl"

    @property
    def metrics(self) -> pathlib.Path:
        return self.root / "metrics.json"

    @property
    def status(self) -> pathlib.Path:
        return self.root / STATUS_NAME

    @property
    def shards(self) -> pathlib.Path:
        return self.root / "shards"


def run_paths(ledger_dir, run_id: str) -> RunPaths:
    return RunPaths(pathlib.Path(ledger_dir) / run_id)


def _write_manifest(path: pathlib.Path, manifest: dict) -> None:
    atomic_write_text(path, json.dumps(attach_crc(manifest), indent=2,
                                       sort_keys=True, default=repr) + "\n")


def start_run(ledger_dir, *, run_id: str, trace_id: str,
              command: str | None, argv: list[str] | None) -> RunPaths:
    """Create the run directory and its ``running`` manifest."""
    paths = run_paths(ledger_dir, run_id)
    paths.root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "v": _MANIFEST_VERSION,
        "run_id": run_id,
        "trace_id": trace_id,
        "command": command or "?",
        "argv": list(argv) if argv is not None else None,
        "started": time.time(),
        "started_iso": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "pid": os.getpid(),
        "outcome": "running",
    }
    _write_manifest(paths.manifest, manifest)
    return paths


def finalize_run(root, *, outcome: str,
                 fingerprint: str | None = None,
                 metrics: dict | None = None,
                 artifacts: dict | None = None) -> dict:
    """Seal the manifest with the outcome and final digests.

    Also stamps the final outcome into ``status.json`` so a watcher
    sees the run end even if no sweep ever published progress.
    """
    root = pathlib.Path(root)
    manifest = read_manifest(root, strict=False)
    now = time.time()
    manifest.update({
        "outcome": outcome,
        "finished": now,
        "finished_iso": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "wall_s": round(now - manifest.get("started", now), 3),
    })
    if fingerprint is not None:
        manifest["fingerprint"] = fingerprint
    if metrics is not None:
        manifest["metrics"] = metrics
    if artifacts:
        manifest["artifacts"] = {k: str(v) for k, v in artifacts.items()
                                 if v is not None}
    _write_manifest(root / MANIFEST_NAME, manifest)

    status_path = root / STATUS_NAME
    try:
        status = json.loads(status_path.read_text()) \
            if status_path.exists() else {}
    except (OSError, ValueError):
        status = {}
    if not isinstance(status, dict):
        status = {}
    status.update({"v": 1, "run_id": manifest.get("run_id"),
                   "outcome": outcome, "ts": now})
    atomic_write_text(status_path,
                      json.dumps(attach_crc(status), sort_keys=True) + "\n")
    return manifest


def read_manifest(run_root, *, strict: bool = True) -> dict:
    """Load and checksum a run manifest.

    A missing/unparseable manifest raises
    :class:`~repro.errors.ExperimentError`. A CRC mismatch sets
    ``integrity: "crc mismatch"`` on the returned dict (and raises
    nothing — a damaged manifest should still be inspectable); pass
    ``strict=False`` to also tolerate missing files (returns ``{}``).
    """
    path = pathlib.Path(run_root) / MANIFEST_NAME
    if not path.exists():
        if not strict:
            return {}
        raise ExperimentError(f"no run manifest at {path}")
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:
        if not strict:
            return {}
        raise ExperimentError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        if not strict:
            return {}
        raise ExperimentError(f"{path} is not a run manifest")
    if not verify_crc(manifest):
        log.warning("%s failed its checksum; treating as damaged", path)
        manifest["integrity"] = "crc mismatch"
    return manifest


def resolve_run(target, ledger_dir=None) -> pathlib.Path:
    """A run directory from a path or a run id within ``ledger_dir``.

    Accepts: a run directory itself (contains ``manifest.json``), a
    ledger directory (resolves to its most recent run), or — with
    ``ledger_dir`` — a bare run id.
    """
    p = pathlib.Path(target)
    if (p / MANIFEST_NAME).exists():
        return p
    if ledger_dir is not None:
        candidate = pathlib.Path(ledger_dir) / str(target)
        if (candidate / MANIFEST_NAME).exists():
            return candidate
    if p.is_dir():
        runs = sorted(d for d in p.iterdir()
                      if (d / MANIFEST_NAME).exists())
        if runs:
            return runs[-1]
        raise ExperimentError(f"{p} contains no runs (no */manifest.json)")
    raise ExperimentError(
        f"no such run: {target!r} (expected a run directory, a ledger "
        f"directory, or a run id under --run-dir)")


def list_runs(ledger_dir) -> list[dict]:
    """Manifests of every run under the ledger, oldest first.

    Run ids sort by start time by construction; unreadable manifests
    appear with ``outcome: "unreadable"`` rather than vanishing.
    """
    ledger = pathlib.Path(ledger_dir)
    if not ledger.is_dir():
        raise ExperimentError(f"no such run ledger: {ledger}")
    rows = []
    for d in sorted(p for p in ledger.iterdir() if p.is_dir()):
        if not (d / MANIFEST_NAME).exists():
            continue
        try:
            rows.append(read_manifest(d))
        except ExperimentError:
            rows.append({"run_id": d.name, "outcome": "unreadable"})
    return rows


def gc_runs(ledger_dir, keep: int = 20) -> list[str]:
    """Remove the oldest runs beyond the newest ``keep``; return ids."""
    if keep < 0:
        raise ExperimentError(f"gc keep count must be >= 0, got {keep}")
    ledger = pathlib.Path(ledger_dir)
    if not ledger.is_dir():
        raise ExperimentError(f"no such run ledger: {ledger}")
    runs = sorted(d for d in ledger.iterdir()
                  if d.is_dir() and (d / MANIFEST_NAME).exists())
    victims = runs[:max(0, len(runs) - keep)] if keep else runs
    removed = []
    for d in victims:
        shutil.rmtree(d, ignore_errors=True)
        removed.append(d.name)
    return removed


def metrics_digest(snapshot: dict) -> dict:
    """The manifest's final-metrics digest from a registry snapshot."""
    digest: dict = {}
    points = sum(int(c.get("value", 0))
                 for c in snapshot.get("counters", [])
                 if c.get("name") == "repro.runner.points")
    if points:
        digest["points"] = points
    for row in snapshot.get("histograms", []):
        if row.get("name") == "repro.sim.point_seconds":
            digest["point_seconds"] = {
                k: row.get(k) for k in ("count", "p50", "p90", "p95", "max")}
    for row in snapshot.get("gauges", []):
        if row.get("name") == "repro.sim.addresses_per_second":
            digest["addresses_per_second"] = row.get("value")
    return digest


# ----------------------------------------------------------------------
# rendering (``repro runs list|show``)
# ----------------------------------------------------------------------

def format_runs(rows: list[dict]) -> str:
    """The ``repro runs list`` table."""
    from repro.experiments.report import format_table

    if not rows:
        return "no runs in the ledger"
    table = []
    for m in rows:
        wall = m.get("wall_s")
        table.append([
            m.get("run_id", "?"),
            m.get("outcome", "?"),
            m.get("started_iso", "?"),
            f"{wall:.1f}" if isinstance(wall, (int, float)) else "-",
            str(m.get("metrics", {}).get("points", "-")),
            m.get("command", "?"),
        ])
    return format_table(
        ["run id", "outcome", "started", "wall s", "points", "command"],
        table, title="Runs")


def format_manifest(m: dict) -> str:
    """The ``repro runs show`` rendering of one manifest."""
    lines = [f"run      : {m.get('run_id', '?')}"]
    if m.get("integrity"):
        lines.append(f"INTEGRITY: {m['integrity']} — do not trust "
                     f"this manifest's contents")
    lines += [
        f"command  : {m.get('command', '?')}",
        f"outcome  : {m.get('outcome', '?')}",
        f"started  : {m.get('started_iso', '?')}",
    ]
    if m.get("wall_s") is not None:
        lines.append(f"wall     : {m['wall_s']:.2f}s")
    if m.get("fingerprint"):
        lines.append(f"config   : {m['fingerprint']}")
    if m.get("trace_id"):
        lines.append(f"trace    : {m['trace_id']}")
    metrics = m.get("metrics") or {}
    if metrics.get("points"):
        lines.append(f"points   : {metrics['points']}")
    ps = metrics.get("point_seconds")
    if ps and ps.get("count"):
        def fmt(v):
            return f"{v:.3f}s" if isinstance(v, (int, float)) else "-"

        lines.append(
            f"simulate : {ps['count']} points, p50 {fmt(ps.get('p50'))}  "
            f"p90 {fmt(ps.get('p90'))}  p95 {fmt(ps.get('p95'))}  "
            f"max {fmt(ps.get('max'))}")
    if metrics.get("addresses_per_second"):
        lines.append(f"speed    : {metrics['addresses_per_second']:,.0f} "
                     f"addrs/s")
    arts = m.get("artifacts") or {}
    for name in sorted(arts):
        lines.append(f"artifact : {name} = {arts[name]}")
    return "\n".join(lines)
