"""Live sweep telemetry: an atomically published ``status.json``.

The supervisor (or the serial sweep loop) owns a
:class:`StatusPublisher`; every completed point and every pool tick
updates it, and it republishes — rate-limited, via
:func:`~repro.resilience.atomic.atomic_write_text` with a CRC — the
run's current shape::

    {"v": 1, "run_id": ..., "kernel": ..., "ts": ...,
     "total": 18, "done": 7, "degraded": 0, "quarantined": 1,
     "points_per_s": 3.4,        # EWMA of completion rate
     "eta_s": 3.2,               # (total - done) / points_per_s
     "workers": [{"pid": ..., "key": [...], "attempt": 1,
                  "since_s": 0.4}, ...],
     "outcome": "running",       # finalized by the run ledger
     "crc": "..."}

Readers: ``repro watch <run>`` (tails the file until the outcome turns
terminal) and the ``--progress`` stderr line (the publisher itself
echoes). Atomic replace means a reader never sees a torn file; the CRC
catches the non-atomic-copy case, mirroring the rest of the
persistence layer.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys
import time

from repro.errors import ExperimentError
from repro.resilience.atomic import atomic_write_text
from repro.resilience.integrity import attach_crc, verify_crc

__all__ = ["StatusPublisher", "read_status", "format_status", "watch"]

#: EWMA smoothing for the completion rate: ~the last dozen points
#: dominate, so the ETA tracks current (not historical) throughput.
_EWMA_ALPHA = 0.15


class StatusPublisher:
    """Single-writer live progress for one sweep."""

    def __init__(self, path=None, *, total: int,
                 run_id: str | None = None,
                 kernel: str | None = None, progress: bool = False,
                 interval: float = 0.5):
        self.path = pathlib.Path(path) if path else None
        self.total = total
        self.run_id = run_id
        self.kernel = kernel
        self.progress = progress
        self.interval = interval
        self.done = 0
        self.degraded = 0
        self.quarantined = 0
        self._workers: list[dict] = []
        self._rate: float | None = None
        self._last_point = time.monotonic()
        self._last_publish = -math.inf

    @classmethod
    def for_run(cls, ctx, *, total: int,
                kernel: str | None = None) -> "StatusPublisher | None":
        """A publisher for the active run context, or ``None``.

        There is nothing to publish without a ledger ``status.json``
        or ``--progress``.
        """
        if ctx is None or (ctx.status_path is None and not ctx.progress):
            return None
        return cls(ctx.status_path, total=total, run_id=ctx.run_id,
                   kernel=kernel, progress=ctx.progress)

    # ------------------------------------------------------------------
    def point_done(self, *, degraded: bool = False,
                   quarantined: bool = False) -> None:
        """One point reached a terminal state (any source)."""
        now = time.monotonic()
        self.done += 1
        if degraded:
            self.degraded += 1
        if quarantined:
            self.quarantined += 1
        dt = now - self._last_point
        self._last_point = now
        if dt > 0:
            inst = 1.0 / dt
            self._rate = (inst if self._rate is None
                          else _EWMA_ALPHA * inst
                          + (1 - _EWMA_ALPHA) * self._rate)
        self.publish()

    def pool_tick(self, running: list[dict],
                  pending: int | None = None) -> None:
        """Supervisor loop callback: refresh per-worker state."""
        self._workers = running
        self.publish()

    def finish(self) -> None:
        """Flush the final counts (outcome is sealed by the ledger)."""
        self._workers = []
        self.publish(force=True)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "v": 1,
            "run_id": self.run_id,
            "kernel": self.kernel,
            "ts": time.time(),
            "total": self.total,
            "done": self.done,
            "degraded": self.degraded,
            "quarantined": self.quarantined,
            "points_per_s": round(self._rate, 3) if self._rate else None,
            "eta_s": (round((self.total - self.done) / self._rate, 1)
                      if self._rate and self.done < self.total else None),
            "workers": self._workers,
            "outcome": "running",
        }

    def publish(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_publish < self.interval:
            return
        self._last_publish = now
        snap = self.snapshot()
        if self.path is not None:
            atomic_write_text(self.path,
                              json.dumps(attach_crc(snap), sort_keys=True)
                              + "\n")
        if self.progress:
            sys.stderr.write(format_status(snap) + "\n")


# ----------------------------------------------------------------------
# readers (``repro watch``)
# ----------------------------------------------------------------------

def read_status(path) -> dict:
    """Load a ``status.json``; CRC failures are flagged, not fatal."""
    p = pathlib.Path(path)
    if not p.exists():
        raise ExperimentError(f"no status file at {p}")
    try:
        status = json.loads(p.read_text())
    except ValueError as exc:
        raise ExperimentError(f"{p} is not valid JSON: {exc}") from None
    if not isinstance(status, dict):
        raise ExperimentError(f"{p} is not a status snapshot")
    if not verify_crc(status):
        status["integrity"] = "crc mismatch"
    return status


def format_status(st: dict) -> str:
    """One human line of progress."""
    bits = []
    if st.get("run_id"):
        bits.append(f"[{st['run_id']}]")
    if st.get("kernel"):
        bits.append(str(st["kernel"]))
    total = st.get("total")
    done = st.get("done", 0)
    line = f"{done}/{total if total is not None else '?'} points"
    extras = []
    if st.get("degraded"):
        extras.append(f"{st['degraded']} degraded")
    if st.get("quarantined"):
        extras.append(f"{st['quarantined']} quarantined")
    if extras:
        line += f" ({', '.join(extras)})"
    bits.append(line)
    if st.get("points_per_s"):
        bits.append(f"{st['points_per_s']:.1f} pts/s")
    if st.get("eta_s") is not None:
        bits.append(f"eta {st['eta_s']:.0f}s")
    workers = st.get("workers") or []
    if workers:
        bits.append(f"{len(workers)} worker(s) busy")
    outcome = st.get("outcome")
    if outcome and outcome != "running":
        bits.append(f"-> {outcome}")
    if st.get("integrity"):
        bits.append(f"[{st['integrity']}]")
    return "  ".join(bits)


def watch(run_dir, *, interval: float = 1.0, once: bool = False,
          stream=None, timeout: float | None = None) -> int:
    """Follow a run's ``status.json`` until its outcome is terminal.

    ``run_dir`` is a run directory (``.../LEDGER/<run_id>``). Prints
    one line whenever the status changes; returns 0 when the run
    ended ``ok``, 1 otherwise (errored/interrupted/timed out).
    """
    from repro.obs.ledger import read_manifest

    out = stream or sys.stdout
    run_dir = pathlib.Path(run_dir)
    deadline = time.monotonic() + timeout if timeout is not None else None
    last = None
    while True:
        manifest = read_manifest(run_dir, strict=False)
        try:
            st = read_status(run_dir / "status.json")
        except ExperimentError:
            # The run hasn't published yet: synthesize from the manifest.
            st = {"run_id": manifest.get("run_id", run_dir.name),
                  "done": 0, "total": None,
                  "outcome": manifest.get("outcome", "?")}
        # The ledger's finalize seals the manifest last, so it wins.
        outcome = manifest.get("outcome") or st.get("outcome")
        if outcome not in (None, st.get("outcome")):
            st["outcome"] = outcome
        line = format_status(st)
        if line != last:
            print(line, file=out)
            last = line
        if outcome not in (None, "?", "running"):
            return 0 if outcome == "ok" else 1
        if once:
            return 0
        if deadline is not None and time.monotonic() >= deadline:
            print("watch: timed out waiting for the run to finish",
                  file=out)
            return 1
        time.sleep(interval)
