"""Run identity and cross-process trace propagation.

A :class:`RunContext` names one CLI invocation: a ``run_id`` (ledger
key, also exported as ``REPRO_RUN_ID``), a ``trace_id``, and the
``node`` writing records (``sup`` for the supervisor process,
``w<pid>`` for a pool worker). The active context is installed by
:func:`repro.obs.session` via :func:`activate` and stamped onto every
event record by the bus.

The pool boundary used to be an observability wall: workers called
``obs.reset_in_child()`` and every worker-side span and counter was
discarded. Instead, the supervisor now builds a :func:`worker_spec`
per attempt (carried in the spawn payload, so it works under ``fork``
and ``spawn`` alike) and the worker:

* installs its own bus over a private JSONL *shard* under the run's
  shard directory — never the supervisor's event file;
* anchors its top-level spans under the supervisor's point span
  (``parent_span_id``) and inherits the span-path prefix, so merged
  records read exactly like serial ones;
* collects metrics into a private registry and snapshots it next to
  the shard on finalize.

The worker flushes the shard *before* sending its result over the
pipe, so by the time the supervisor acts on an outcome the shard is
durable. After the pool loop the supervisor calls
:func:`merge_worker_shards`: shard records are appended verbatim to
the run's sink (their own ``seq``/``node`` preserved — causal order
comes from span ids, not sequence numbers) and worker metric
snapshots are folded into the live registry. A SIGKILLed attempt
leaves a partial or absent shard; both are tolerated.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import pathlib
import secrets
import time
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "RunContext",
    "RUN_ID_ENV",
    "new_run_id",
    "new_context",
    "current",
    "activate",
    "worker_spec",
    "init_worker",
    "finalize_worker",
    "merge_worker_shards",
]

log = logging.getLogger(__name__)

RUN_ID_ENV = "REPRO_RUN_ID"


@dataclass(frozen=True)
class RunContext:
    """Identity and propagation endpoints of one instrumented run."""

    run_id: str
    trace_id: str
    node: str = "sup"
    #: Directory for per-worker JSONL shards; ``None`` disables
    #: cross-process propagation (workers reset to a null bus).
    shard_dir: pathlib.Path | None = None
    #: Where the live ``status.json`` is published (run ledger only).
    status_path: pathlib.Path | None = None
    #: Echo a progress line to stderr while sweeping (``--progress``).
    progress: bool = False


def new_run_id() -> str:
    """Sortable-by-start-time, collision-safe run id."""
    return (time.strftime("%Y%m%d-%H%M%S", time.localtime())
            + "-" + secrets.token_hex(3))


def new_context(*, shard_dir=None, status_path=None,
                progress: bool = False) -> RunContext:
    return RunContext(
        run_id=new_run_id(),
        trace_id=secrets.token_hex(8),
        node="sup",
        shard_dir=pathlib.Path(shard_dir) if shard_dir else None,
        status_path=pathlib.Path(status_path) if status_path else None,
        progress=progress)


_CURRENT: RunContext | None = None


def current() -> RunContext | None:
    """The active run's context, or ``None`` outside a session."""
    return _CURRENT


@contextlib.contextmanager
def activate(ctx: RunContext) -> Iterator[RunContext]:
    """Install ``ctx`` (and export ``REPRO_RUN_ID``) for a ``with`` block."""
    global _CURRENT
    prev, prev_env = _CURRENT, os.environ.get(RUN_ID_ENV)
    _CURRENT = ctx
    os.environ[RUN_ID_ENV] = ctx.run_id
    try:
        yield ctx
    finally:
        _CURRENT = prev
        if prev_env is None:
            os.environ.pop(RUN_ID_ENV, None)
        else:
            os.environ[RUN_ID_ENV] = prev_env


# ----------------------------------------------------------------------
# supervisor side: building specs and merging shards
# ----------------------------------------------------------------------

_SHARD_SEQ = 0


def worker_spec(parent_span_id: str | None = None,
                label: str = "") -> dict | None:
    """Spawn payload that carries this run's tracing into a worker.

    ``None`` (no propagation — the worker resets to a null bus) when
    there is no active context, no shard directory, or the bus is
    disabled. Each call allocates a unique shard filename, so retried
    attempts never clobber one another's partial output.
    """
    from repro.obs import events, metrics

    ctx = current()
    bus = events.get_bus()
    if ctx is None or ctx.shard_dir is None or not bus.enabled:
        return None
    global _SHARD_SEQ
    _SHARD_SEQ += 1
    ctx.shard_dir.mkdir(parents=True, exist_ok=True)
    name = f"{_SHARD_SEQ:04d}{('-' + label) if label else ''}"
    shard = ctx.shard_dir / f"{name}.jsonl"
    return {
        "run_id": ctx.run_id,
        "trace_id": ctx.trace_id,
        "shard": str(shard),
        "metrics_shard": str(ctx.shard_dir / f"{name}.metrics.json"),
        "parent_span_id": parent_span_id,
        "span_prefix": list(bus._stack),
        "profile": bus.profile,
        "metrics": metrics.enabled(),
    }


def _read_shard(path: pathlib.Path) -> list[dict]:
    """Shard records, tolerating a killed writer's trailing damage."""
    records: list[dict] = []
    try:
        raw = path.read_text()
    except OSError:
        return records
    lines = [ln for ln in raw.splitlines() if ln.strip()]
    for i, line in enumerate(lines):
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict) or "kind" not in obj:
                raise ValueError("not an event record")
        except ValueError as exc:
            log.warning("worker shard %s: dropping malformed line %d (%s)",
                        path, i + 1, exc)
            if i == len(lines) - 1:
                break
            continue
        records.append(obj)
    return records


def merge_worker_shards(remove: bool = True) -> int:
    """Fold worker shards into the supervisor's trace and registry.

    Records are appended to the live sink verbatim (worker ``seq`` /
    ``node`` intact — causality lives in the span ids), ordered by
    wall-clock timestamp across shards; ``*.metrics.json`` snapshots
    are merged into the installed registry. Returns the number of
    event records merged. No-op without an active context/shard dir.
    """
    from repro.obs import events, metrics

    ctx = current()
    if ctx is None or ctx.shard_dir is None or not ctx.shard_dir.is_dir():
        return 0
    bus = events.get_bus()
    shards = sorted(ctx.shard_dir.glob("*.jsonl"))
    records: list[dict] = []
    for shard in shards:
        records.extend(_read_shard(shard))
    records.sort(key=lambda r: r.get("ts", 0.0))
    if bus.enabled:
        for rec in records:
            bus.sink.write(rec)
    snaps = sorted(ctx.shard_dir.glob("*.metrics.json"))
    reg = metrics.registry()
    merged_snaps = 0
    for snap_path in snaps:
        try:
            snap = json.loads(snap_path.read_text())
        except (OSError, ValueError) as exc:
            log.warning("worker metrics %s unreadable (%s); skipped",
                        snap_path, exc)
            continue
        if reg is not None:
            reg.merge(snap)
        merged_snaps += 1
    if records or merged_snaps:
        events.emit("shards_merged", shards=len(shards),
                    records=len(records), metric_snapshots=merged_snaps)
    if remove:
        for p in (*shards, *snaps):
            with contextlib.suppress(OSError):
                p.unlink()
        with contextlib.suppress(OSError):
            ctx.shard_dir.rmdir()
    return len(records)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

_WORKER_SPEC: dict | None = None
_FINALIZED = False


def init_worker(spec: dict | None, collect_metrics: bool = False) -> None:
    """Install worker-local observability from a :func:`worker_spec`.

    With ``spec=None`` this is exactly ``obs.reset_in_child()`` — the
    inherited bus/registry are replaced by disabled ones (and any
    inherited sink atexit hooks disarmed) — except that
    ``collect_metrics`` installs a fresh registry: a supervisor that
    collects metrics without a shard directory gets the worker's
    snapshot back over the result pipe. With a spec, the worker gets
    its own bus over the shard file, parented and prefixed under the
    supervisor's point span, plus a fresh registry when the supervisor
    collects metrics.
    """
    global _WORKER_SPEC, _FINALIZED
    from repro.obs import events, metrics
    from repro.obs.events import EventBus, JsonlSink

    events.disarm_inherited_sinks()
    _WORKER_SPEC, _FINALIZED = spec, False
    if spec is None:
        events._BUS = EventBus()
        metrics._REGISTRY = (metrics.MetricsRegistry()
                             if collect_metrics else None)
        return
    ctx = RunContext(run_id=spec["run_id"], trace_id=spec["trace_id"],
                     node=f"w{os.getpid()}")
    global _CURRENT
    _CURRENT = ctx
    events._BUS = EventBus(JsonlSink(spec["shard"]),
                           profile=spec.get("profile", False),
                           context=ctx,
                           parent_span_id=spec.get("parent_span_id"),
                           span_prefix=spec.get("span_prefix"))
    metrics._REGISTRY = (metrics.MetricsRegistry()
                         if spec.get("metrics") else None)


def finalize_worker() -> None:
    """Flush the worker's shard and snapshot its metrics (idempotent).

    Called by the pool worker *before* it sends its terminal message:
    once the supervisor sees an outcome, the shard is already durable,
    so the post-pool merge never races a still-writing child.
    """
    global _FINALIZED
    if _FINALIZED or _WORKER_SPEC is None:
        return
    _FINALIZED = True
    from repro.obs import events, metrics

    try:
        reg = metrics.registry()
        if reg is not None:
            reg.write(_WORKER_SPEC["metrics_shard"])
        events.get_bus().close()
    except Exception as exc:  # pragma: no cover - never block the result
        log.warning("worker observability finalize failed: %s", exc)
