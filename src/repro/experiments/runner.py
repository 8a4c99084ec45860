"""Simulate one (kernel, strategy, N) configuration end to end.

Pipeline per point:

1. tile selection (:func:`repro.core.selector.select`) against the L1
   capacity, using the kernel's stencil metadata;
2. array layout with the selected pads;
3. exact reference trace of the selected schedule, streamed in bounded
   address chunks (``chunk_size``) so peak memory is O(chunk), not
   O(trace);
4. two-level direct-mapped simulation (write-around), with steady-state
   K planes costed in closed form wherever that is provably exact
   (:mod:`repro.experiments.extrapolate`);
5. analytic performance prediction from the miss counts.

Every point runs through one entry point::

    run_point(kernel, strategy, n, cfg, policy=PointPolicy(...))

where the :class:`~repro.experiments.options.PointPolicy` names the
machinery the point may use — nothing (the memoized exact fast path),
the analytic miss model, a retry/degrade budget, a checkpoint journal,
a persistent point store, a trace chunk bound — and sweeps carry the
same choices in one frozen :class:`~repro.experiments.options.SweepOptions`.

Caching is layered; a point is served by the first layer that has it:

* **journal** — this sweep's fingerprinted JSONL checkpoint
  (:mod:`repro.resilience.checkpoint`): crash/resume within one sweep;
* **store** — the persistent, content-addressed point cache
  (:mod:`repro.perf.store`): reuse across runs and across processes,
  keyed by :func:`config_fingerprint` + point key;
* **memo** — the in-process ``lru_cache`` (plain points only; bounded
  by ``REPRO_POINT_CACHE`` entries, default 4096), letting Table 3 and
  the per-figure benches share sweeps within a session; inspect it with
  :func:`cache_info`.

One scheduler, :func:`_run_points`, serves every sweep and every
``run_point`` with a journal or store. It looks each point up
(journal, then store), runs the misses on one of two executors and
records every result once. The pooled executor runs points in
supervised child processes with crash isolation and quarantine
(:mod:`repro.resilience.pool`); the in-process executor runs them in
order as ``run_point`` calls. Both write the same journal format under
the same fingerprint, so either resumes the other. Budgeted points
retry transient failures with backoff and **degrade** to the
analytical miss model (``degraded=True``) on exhaustion. Degraded
points are journaled but never written to the point store — a
stand-in must not outlive the incident that caused it.

Durable sweeps (journal and/or store) additionally get **graceful
draining** (:mod:`repro.resilience.signals`): the first SIGINT/SIGTERM
lets in-flight points finish and journal, then raises
:class:`~repro.errors.SweepInterrupted` (CLI exit 130) with the journal
cleanly resumable; a second signal aborts immediately. Journal and
store are checksummed and lock-protected (see
:mod:`repro.resilience.checkpoint`, :mod:`repro.perf.store`), so
concurrent sweeps may share both.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from typing import Mapping

from repro.cache.classify import MissClassifier
from repro.cache.hierarchy import CacheHierarchy
from repro.core.missmodel import tiled_miss_rate, untiled_miss_rate
from repro.core.selector import select
from repro.errors import (
    BudgetExceededError,
    CheckpointError,
    ExperimentError,
    RetryableError,
    SweepInterrupted,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.extrapolate import simulate_extrapolated
from repro.experiments.options import PointPolicy, SweepOptions
from repro.ir.stencil import JACOBI_3D, REDBLACK_6PT, RESID_27PT
from repro.kernels import KERNELS, Schedule
from repro.obs import events, metrics
from repro.perf.store import PointStore, StoreInfo
from repro.perfmodel.model import RunCounts, predict
from repro.resilience import (
    CheckpointJournal,
    Deadline,
    PointBudget,
    fingerprint,
    run_with_retries,
)
from repro.resilience import faults
from repro.resilience.signals import DrainState, graceful_drain
from repro.types import SelectionResult

__all__ = ["PointResult", "RunnerCacheInfo", "run_point", "sweep",
           "open_journal", "open_store", "config_fingerprint",
           "clear_cache", "cache_info"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PointResult:
    """Simulated outcome of one configuration."""

    kernel: str
    strategy: str
    n: int
    nk: int
    l1_rate: float          # global miss rate (misses / all refs), %
    l2_rate: float
    l1_misses: int
    l2_misses: int
    refs: int
    mflops: float
    seconds: float
    tile: tuple[int, int] | None
    di_p: int
    dj_p: int
    #: True when the point came from the analytical miss model (budget
    #: exceeded / retries exhausted) rather than exact trace simulation.
    degraded: bool = False
    #: True when steady-state K-plane extrapolation skipped at least
    #: one plane (:mod:`repro.experiments.extrapolate`; the statistics
    #: are still exact). False for points simulated in full, whatever
    #: the reason (tiled, classified, no steady state, ...).
    extrapolated: bool = False

    @property
    def padded(self) -> bool:
        return self.di_p > self.n or self.dj_p > self.n


def _kernel_cls(kernel_name: str):
    try:
        return KERNELS[kernel_name]
    except KeyError:
        raise ExperimentError(
            f"unknown kernel {kernel_name!r}; valid: {sorted(KERNELS)}"
        ) from None


def _schedule_for(strategy: str, kernel: str,
                  sel: SelectionResult) -> Schedule:
    if not sel.tiled:
        return Schedule.UNTILED
    if strategy == "WolfLam3" and kernel != "REDBLACK":
        return Schedule.TILED_3LOOP
    return Schedule.TILED


def _tile_count(kernel, sel: SelectionResult, schedule: Schedule) -> int:
    if not sel.tiled:
        return 1
    ti, tj = sel.tile.ti, sel.tile.tj
    start = 1 if kernel.meta.name == "REDBLACK" else 2
    span = kernel.n - start
    tiles = math.ceil(span / ti) * math.ceil(span / tj)
    if schedule is Schedule.TILED_3LOOP and sel.array_tile is not None:
        tiles *= math.ceil((kernel.nk - 2) / max(1, sel.array_tile.tk))
    return max(1, tiles)


def _record_sim_metrics(hier: CacheHierarchy, stats, seconds: float) -> None:
    """Per-level access/miss counters plus the 3C classification."""
    metrics.observe("repro.sim.point_seconds", seconds)
    for (name, st), cls in zip(stats.levels, hier.classifiers):
        metrics.inc("repro.sim.accesses", st.accesses, level=name)
        metrics.inc("repro.sim.misses", st.misses, level=name)
        if cls is None:
            continue
        for c, cnt in cls.counts.items():
            if cnt:
                metrics.inc("repro.sim.miss_class", cnt, level=name, cls=c)
        for arr, cnt in cls.by_array.items():
            if cnt:
                metrics.inc("repro.sim.miss_array", cnt, level=name, array=arr)


def _simulate_exact(kernel_name: str, strategy: str, n: int,
                    cfg: ExperimentConfig,
                    budget: PointBudget | None = None,
                    chunk_size: int | None = None,
                    clock=time.monotonic) -> PointResult:
    """One exact trace simulation, optionally under a budget's deadline.

    The point runs through
    :func:`~repro.experiments.extrapolate.simulate_extrapolated`: planes
    proven shift-equivalent are costed in closed form instead of
    simulated, and every point the proof does not cover (tiled, a
    non-direct-mapped level, mixed plane strides, classified) is
    simulated in full; the statistics are identical either way.
    ``chunk_size`` bounds the addresses materialized per trace chunk
    (``None`` = the generator's default bound, ``0`` = unbounded); the
    statistics are bit-for-bit identical for every value.

    While a metrics registry is live (``--metrics``) the levels carry
    shadow miss classifiers, and classification takes precedence: the
    point is simulated in full (reason ``classifiers``).
    """
    faults.tick("simulate")
    kern = _kernel_cls(kernel_name)(n, cfg.nk, elem_bytes=cfg.elem_bytes)
    meta = kern.meta
    sel = select(strategy, cfg.cs, n, n, mi=meta.mi, mj=meta.mj, atd=meta.atd)
    schedule = _schedule_for(strategy, kernel_name, sel)

    deadline = (Deadline(budget, clock)
                if budget is not None and budget.bounded else None)
    hier = CacheHierarchy(cfg.levels)
    inter_pad = cfg.cs if cfg.inter_pad else None
    if metrics.enabled():
        # Shadow-LRU miss classification is a Python-loop cost, so it is
        # attached only when a registry is collecting (``--metrics``).
        specs = kern.specs(sel.di_p, sel.dj_p, inter_pad_cache=inter_pad)
        ranges = [(s.name, s.base * s.elem_bytes, s.end * s.elem_bytes)
                  for s in specs.values()]
        hier.attach_classifiers(
            [MissClassifier(p, ranges) for p in cfg.levels])

    def on_chunk(chunk) -> None:
        faults.tick("chunk")
        if deadline is not None:
            deadline.check(len(chunk))

    t0 = time.perf_counter()
    with events.span("simulate", kernel=kernel_name, strategy=strategy,
                     n=n) as sp:
        stats, xrep = simulate_extrapolated(
            kern, sel, schedule, hier, inter_pad=inter_pad,
            chunk_size=chunk_size, on_chunk=on_chunk)
        sp["extrapolated"] = xrep.fired
        events.emit("extrapolate", kernel=kernel_name, strategy=strategy,
                    n=n, fired=xrep.fired, period=xrep.period,
                    planes_simulated=xrep.planes_simulated,
                    planes_skipped=xrep.planes_skipped, reason=xrep.reason)
        sp["refs"] = stats.demand_refs
    if metrics.enabled():
        metrics.inc("repro.cache.extrapolation",
                    outcome="fired" if xrep.fired else "fallback",
                    reason=xrep.reason or "none")
        if xrep.planes_skipped:
            metrics.inc("repro.cache.extrapolation_planes_skipped",
                        xrep.planes_skipped)
        _record_sim_metrics(hier, stats, time.perf_counter() - t0)

    l1_rate = stats.global_miss_rate(0, include_writes=cfg.include_writes)
    l2_rate = stats.global_miss_rate(1, include_writes=cfg.include_writes)

    counts = RunCounts(
        iterations=kern.interior_points(),
        flops=kern.sweep_flops(),
        refs=kern.sweep_refs(),
        l1_misses=stats.misses(0),
        l2_misses=stats.misses(1),
        tiles=_tile_count(kern, sel, schedule),
    )
    perf = predict(counts, cfg.machine)

    return PointResult(
        kernel=kernel_name, strategy=strategy, n=n, nk=cfg.nk,
        l1_rate=100.0 * l1_rate, l2_rate=100.0 * l2_rate,
        l1_misses=stats.misses(0), l2_misses=stats.misses(1),
        refs=stats.demand_refs, mflops=perf.mflops, seconds=perf.seconds,
        tile=sel.tile.as_tuple() if sel.tile else None,
        di_p=sel.di_p, dj_p=sel.dj_p,
        extrapolated=xrep.fired,
    )


def _cache_size() -> int | None:
    """Memo bound from ``REPRO_POINT_CACHE`` (<= 0 means unbounded)."""
    try:
        size = int(os.environ.get("REPRO_POINT_CACHE", "4096"))
    except ValueError:
        size = 4096
    return size if size > 0 else None


@lru_cache(maxsize=_cache_size())
def _run_point_cached(kernel_name: str, strategy: str, n: int,
                      cfg: ExperimentConfig) -> PointResult:
    return _simulate_exact(kernel_name, strategy, n, cfg)


# ----------------------------------------------------------------------
# analytic degradation
# ----------------------------------------------------------------------

#: Read-stencil pattern feeding the analytic model, per kernel.
_STENCILS = {
    "JACOBI": JACOBI_3D,
    "REDBLACK": REDBLACK_6PT,
    "RESID": RESID_27PT,
    "PSINV": RESID_27PT,
}


def _analytic_point(kernel: str, strategy: str, n: int,
                    cfg: ExperimentConfig) -> PointResult:
    """Estimate one configuration from the analytical miss model.

    The capacity-only model of :mod:`repro.core.missmodel` stands in
    for exact simulation when a point's budget ran out: untiled
    schedules use the group-reuse/wrap condition on the *padded* column
    stride, tiled schedules the Section 2.3 cost-per-line bound. The
    result is marked ``degraded=True``; it tracks simulation within
    ~15% at benign sizes and under-predicts conflict pathologies
    (which is exactly the information an exact run would have added).
    """
    kern = _kernel_cls(kernel)(n, cfg.nk, elem_bytes=cfg.elem_bytes)
    meta = kern.meta
    sel = select(strategy, cfg.cs, n, n, mi=meta.mi, mj=meta.mj, atd=meta.atd)
    schedule = _schedule_for(strategy, kernel, sel)
    try:
        stencil = _STENCILS[kernel]
    except KeyError:
        raise ExperimentError(
            f"no analytic stencil model for kernel {kernel!r}; "
            f"valid: {sorted(_STENCILS)}") from None

    refs_per_iter = meta.reads + meta.writes
    refs = kern.sweep_refs()

    def rate_at(params) -> float:
        line = params.line_elements()
        capacity = params.capacity_elements(cfg.elem_bytes)
        if sel.tiled:
            pred = tiled_miss_rate(sel.tile.ti, sel.tile.tj, meta.mi,
                                   meta.mj, line, refs_per_iter)
        else:
            pred = untiled_miss_rate(stencil.offsets, sel.di_p, capacity,
                                     line, refs_per_iter)
        return min(1.0, pred.miss_rate)

    l1_rate = rate_at(cfg.l1)
    l2_rate = min(rate_at(cfg.l2), l1_rate)
    l1_misses = round(l1_rate * refs)
    l2_misses = round(l2_rate * refs)

    counts = RunCounts(
        iterations=kern.interior_points(),
        flops=kern.sweep_flops(),
        refs=refs,
        l1_misses=l1_misses,
        l2_misses=l2_misses,
        tiles=_tile_count(kern, sel, schedule),
    )
    perf = predict(counts, cfg.machine)

    return PointResult(
        kernel=kernel, strategy=strategy, n=n, nk=cfg.nk,
        l1_rate=100.0 * l1_rate, l2_rate=100.0 * l2_rate,
        l1_misses=l1_misses, l2_misses=l2_misses,
        refs=refs, mflops=perf.mflops, seconds=perf.seconds,
        tile=sel.tile.as_tuple() if sel.tile else None,
        di_p=sel.di_p, dj_p=sel.dj_p,
        degraded=True,
    )


# ----------------------------------------------------------------------
# fingerprints, journals, stores
# ----------------------------------------------------------------------

def config_fingerprint(cfg: ExperimentConfig) -> str:
    """Fingerprint of everything that affects a point's numbers."""
    import repro

    return fingerprint({
        "repro": repro.__version__,
        "config": asdict(cfg),
    })


def open_journal(path, cfg: ExperimentConfig | None = None, *,
                 force: bool = False) -> CheckpointJournal:
    """Open/create a checkpoint journal bound to ``cfg``'s fingerprint.

    Raises :class:`~repro.errors.CheckpointError` when ``path`` holds a
    journal written under a different configuration; ``force`` (the
    CLI's ``--resume-force``) adopts such a journal with a warning.
    """
    return CheckpointJournal.open(
        path, config_fingerprint(cfg or ExperimentConfig()), force=force)


def open_store(point_cache) -> PointStore | None:
    """Coerce ``point_cache`` (path / PointStore / None) to a store."""
    if point_cache is None or isinstance(point_cache, PointStore):
        return point_cache
    return PointStore(point_cache)


def _resolve_journal(checkpoint, cfg: ExperimentConfig, *,
                     force: bool) -> CheckpointJournal | None:
    if checkpoint is None or isinstance(checkpoint, CheckpointJournal):
        return checkpoint
    return open_journal(checkpoint, cfg, force=force)


# ----------------------------------------------------------------------
# payload round-tripping
# ----------------------------------------------------------------------

def _point_to_payload(p: PointResult) -> dict:
    return asdict(p)


def _point_from_payload(payload: dict) -> PointResult:
    d = dict(payload)
    if d.get("tile") is not None:
        d["tile"] = tuple(d["tile"])
    try:
        return PointResult(**d)
    except TypeError as exc:
        raise CheckpointError(
            f"checkpoint record does not match PointResult: {exc}"
        ) from None


#: PointResult fields that must round-trip as real numbers / integers.
_FLOAT_FIELDS = ("l1_rate", "l2_rate", "mflops", "seconds")
_INT_FIELDS = ("n", "nk", "l1_misses", "l2_misses", "refs", "di_p", "dj_p")


def _check_payload(key, payload) -> PointResult:
    """Round-trip + type validation of a point payload for ``key``.

    Worker payloads (and journal/store records) are only trusted after
    they reconstruct into a :class:`PointResult` whose identity matches
    the task key and whose fields carry the right types — a truncated or
    type-mangled payload from a dying worker raises
    :class:`~repro.errors.CheckpointError` and is treated as a failed
    attempt, never journaled.
    """
    if not isinstance(payload, Mapping):
        raise CheckpointError(
            f"point payload for {key!r} is {type(payload).__name__}, "
            f"not a mapping")
    expected = set(PointResult.__dataclass_fields__)
    got = set(payload)
    # 'extrapolated' is the one field older journals/stores legitimately
    # lack (it was added after they were written); it defaults to False,
    # which is also what those records meant.
    if got - expected or (expected - got) - {"extrapolated"}:
        # asdict always emits every field, so any other difference means
        # a truncated or garbage-extended payload (defaults would other-
        # wise mask a missing 'degraded').
        missing, extra = sorted(expected - got), sorted(got - expected)
        raise CheckpointError(
            f"point payload for {key!r} has wrong fields "
            f"(missing {missing}, unexpected {extra})")
    result = _point_from_payload(payload)
    if (result.kernel, result.strategy, result.n) != tuple(key):
        raise CheckpointError(
            f"point payload identity "
            f"{(result.kernel, result.strategy, result.n)!r} does not "
            f"match its key {tuple(key)!r}")
    for name in _FLOAT_FIELDS:
        v = getattr(result, name)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise CheckpointError(
                f"point payload field {name!r} is "
                f"{type(v).__name__}, expected a number")
    for name in _INT_FIELDS:
        v = getattr(result, name)
        if isinstance(v, bool) or not isinstance(v, int):
            raise CheckpointError(
                f"point payload field {name!r} is "
                f"{type(v).__name__}, expected an int")
    if not isinstance(result.degraded, bool):
        raise CheckpointError("point payload field 'degraded' must be a bool")
    if not isinstance(result.extrapolated, bool):
        raise CheckpointError(
            "point payload field 'extrapolated' must be a bool")
    tile = result.tile
    if tile is not None and (len(tile) != 2 or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in tile)):
        raise CheckpointError(
            f"point payload field 'tile' is {tile!r}, expected None "
            f"or two ints")
    return result


def _store_lookup(store: PointStore, fingerprint_: str,
                  key: tuple) -> PointResult | None:
    """Validated store hit, or ``None`` (invalid entries read as misses).

    An entry that parses and checksums but fails :func:`_check_payload`
    (wrong identity, mangled field types) is *semantically* poisoned:
    it must be quarantined, not merely skipped — a skipped entry stays
    on disk and re-reads as a miss forever (a degraded re-simulation is
    never stored, so nothing ever overwrites it), poisoning every
    future consumer.
    """
    payload = store.get(fingerprint_, key)
    if payload is None:
        return None
    try:
        return _check_payload(key, payload)
    except CheckpointError as exc:
        log.warning("quarantining invalid point-cache entry for %r (%s)",
                    key, exc)
        store.discard(fingerprint_, key,
                      reason=f"failed payload validation: {exc}")
        return None


# ----------------------------------------------------------------------
# the point entry and the sweep scheduler
# ----------------------------------------------------------------------

def _compute_point(kernel: str, strategy: str, n: int,
                   cfg: ExperimentConfig,
                   budget: PointBudget | None,
                   chunk_size: int | None = None) -> PointResult:
    """Exact simulation under ``budget``, degrading to the model.

    A non-plain point's computation, in the calling process
    (:func:`run_point`) or in a pool worker (:func:`_pool_point_task`):
    retryable failures retry with backoff; budget exhaustion (or
    exhausted retries) degrades to the analytic miss model with
    ``degraded=True``.
    """
    budget = budget or PointBudget()
    clock = faults.active_clock()
    try:
        return run_with_retries(
            lambda: _simulate_exact(kernel, strategy, n, cfg,
                                    budget=budget, chunk_size=chunk_size,
                                    clock=clock),
            budget, sleep=faults.active_sleep())
    except (BudgetExceededError, RetryableError) as exc:
        log.warning("point %s/%s/N=%d degraded to the analytic model "
                    "(%s: %s)", kernel, strategy, n,
                    type(exc).__name__, exc)
        events.emit("degraded", kernel=kernel, strategy=strategy, n=n,
                    reason=type(exc).__name__)
        metrics.inc("repro.resilience.degraded")
        return _analytic_point(kernel, strategy, n, cfg)


def run_point(kernel: str, strategy: str, n: int,
              cfg: ExperimentConfig | None = None, *,
              policy: PointPolicy | None = None) -> PointResult:
    """Simulate one configuration under ``policy``.

    A policy with a journal and/or store is a one-point sweep through
    :func:`_run_points`: the point is served from the first cache layer
    that has it (journal, then store), otherwise computed here and
    recorded back. Every other policy computes the point in this
    process as one ``point`` span: the default policy on the memoized
    exact fast path, ``analytic=True`` from the miss model, and a
    budget or chunk bound by exact simulation around the memo. See
    :class:`~repro.experiments.options.PointPolicy`.
    """
    cfg = cfg or ExperimentConfig()
    policy = policy or PointPolicy()
    if not policy.analytic and (policy.journal is not None
                                or policy.store is not None):
        key = (kernel, strategy, n)
        return _run_points([key], cfg, policy)[key]
    with events.span("point", kernel=kernel, strategy=strategy, n=n) as sp:
        if policy.plain:
            result = _run_point_cached(kernel, strategy, n, cfg)
        elif policy.analytic:
            result = _analytic_point(kernel, strategy, n, cfg)
            sp["source"] = "analytic"
        else:
            result = _compute_point(kernel, strategy, n, cfg, policy.budget,
                                    policy.chunk_size)
        sp["degraded"] = result.degraded
        metrics.inc("repro.runner.points",
                    mode="analytic" if result.degraded else "exact")
    return result


def _pool_point_task(args) -> dict:
    """Worker-side pool entry: compute one point, return its payload.

    ``args`` are :func:`_compute_point`'s positional arguments. Runs in
    a child process (crash/OOM/hang isolation); must stay a
    module-level function so ``spawn`` platforms can pickle it. The
    supervisor round-trips the payload through :func:`_check_payload`
    before trusting it.
    """
    return _point_to_payload(_compute_point(*args))


def _run_points(keys: list[tuple], cfg: ExperimentConfig,
                policy: PointPolicy, *, workers: int = 1,
                point_timeout: float | None = None,
                drain: DrainState | None = None,
                status=None) -> dict[tuple, PointResult]:
    """The sweep scheduler: serve, compute and record ``keys`` under ``cfg``.

    1. **Lookup** — the journal, then the store; a store hit is promoted
       into the journal. Every hit passes :func:`_check_payload`.
    2. **Execute** the misses. With ``workers > 1`` they go to the
       supervised pool (:func:`~repro.resilience.pool.run_supervised`):
       a crashed, hung or ``point_timeout``-exceeding worker is
       SIGKILLed and retried, and finally quarantined to the analytic
       model. Otherwise each is one :func:`run_point` in this process,
       in submission order (never served by the memo when a journal or
       store is in use); an exception propagates once every earlier
       point is recorded.
    3. **Record** each result once: journal, then store (never a
       degraded point), then a status tick. A point from the journal,
       the store or the pool also gets its ``repro.runner.points``
       count and one ``point`` event here; an in-process point already
       has both from its ``run_point`` span. Workers never touch the
       journal or the store: this process is their single writer.
    4. **Drain** — points a requested ``drain`` skipped raise one
       :class:`~repro.errors.SweepInterrupted`; every completed point
       is already journaled, so the sweep resumes from the checkpoint.
    """
    journal, store = policy.journal, policy.store
    fp = config_fingerprint(cfg) if store is not None else None
    results: dict[tuple, PointResult] = {}

    def record(key: tuple, result: PointResult, source: str | None) -> None:
        results[key] = result
        cached = source in ("journal", "store")
        payload = _point_to_payload(result)
        if journal is not None and source != "journal":
            journal.record(key, payload)
        if store is not None and not cached and not result.degraded:
            store.put(fp, key, payload)
        if source is not None:
            metrics.inc("repro.runner.points", mode=(
                source if cached else "analytic" if result.degraded
                else "exact"))
            events.emit("point", kernel=key[0], strategy=key[1], n=key[2],
                        degraded=result.degraded, source=source)
        if status is not None:
            status.point_done(degraded=result.degraded,
                              quarantined=source == "quarantine")

    misses = []
    for key in keys:
        payload = journal.get(key) if journal is not None else None
        if payload is not None:
            record(key, _check_payload(key, payload), "journal")
            continue
        hit = _store_lookup(store, fp, key) if store is not None else None
        if hit is not None:
            record(key, hit, "store")
        else:
            misses.append(key)

    skipped = 0
    if workers > 1 and misses:
        from repro.resilience.pool import PoolPolicy, run_supervised

        retry = policy.budget or PointBudget()
        log.info("parallel sweep %s: %d points across %d workers "
                 "(timeout %s)", misses[0][0], len(misses), workers,
                 f"{point_timeout}s" if point_timeout else "none")
        args = (cfg, policy.budget, policy.chunk_size)
        outcomes = run_supervised(
            _pool_point_task, [(key, (*key, *args)) for key in misses],
            PoolPolicy(workers=workers, point_timeout=point_timeout,
                       max_retries=retry.max_retries,
                       backoff_seconds=retry.backoff_seconds),
            validate=_check_payload,
            fallback=lambda key, _: _point_to_payload(
                _analytic_point(*key, cfg)),
            on_result=lambda key, payload, quarantined: record(
                key, _check_payload(key, payload),
                "quarantine" if quarantined else "worker"),
            drain=drain, observer=status)
        skipped = sum(1 for o in outcomes if o.skipped)
    else:
        # A durable point is simulated, never served by the memo: an
        # explicit (default) budget routes run_point around it.
        durable = journal is not None or store is not None
        local = replace(policy, journal=None, store=None,
                        budget=policy.budget or (PointBudget() if durable
                                                 else None))
        for i, key in enumerate(misses):
            if drain is not None and drain.requested:
                skipped = len(misses) - i
                break
            record(key, run_point(*key, cfg, policy=local), None)
    if skipped:
        raise SweepInterrupted(
            f"sweep drained after {drain.signal_name()}: "
            f"{len(results)} point(s) completed and journaled, "
            f"{skipped} skipped (resume from the checkpoint)",
            signum=drain.signum, completed=len(results), skipped=skipped)
    return results


def sweep(kernel: str, strategies: list[str], sizes: list[int],
          cfg: ExperimentConfig | None = None, *,
          options: SweepOptions | None = None
          ) -> dict[str, list[PointResult]]:
    """Run a full (strategy x size) sweep for one kernel.

    All execution choices travel in one frozen
    :class:`~repro.experiments.options.SweepOptions`:

    * ``checkpoint``/``resume_force`` — completed points are journaled
      and skipped on resume;
    * ``budget``/``point_timeout`` — over-budget points degrade to the
      analytic model;
    * ``point_cache`` — points are served from / recorded to the
      persistent store, shared across runs and processes;
    * ``parallel`` — points fan out to supervised worker processes
      (:mod:`repro.resilience.pool`): a crashed, hung, or timed-out
      worker is SIGKILLed, retried, and finally quarantined to the
      analytic model;
    * ``chunk_size`` — trace memory bound (results are bit-for-bit
      independent of it).

    The points go through one scheduler (:func:`_run_points`), which
    looks them up, records them and drains, with two executors for the
    misses: the supervised pool when ``parallel > 1`` and the platform
    has one, otherwise one :func:`run_point` per point in this process,
    where ``point_timeout`` becomes a per-point wall budget. With
    default options that is the memoized fast path. Durable sweeps (a
    journal and/or store) never read the memo, and drain gracefully on
    SIGINT/SIGTERM: in-flight points finish and journal, then the sweep
    raises :class:`~repro.errors.SweepInterrupted` — resumable, exit
    code 130 at the CLI. Other sweeps keep ordinary Ctrl-C behaviour.
    """
    from repro.obs import context as obs_context
    from repro.obs.status import StatusPublisher

    options = options or SweepOptions()
    cfg = cfg or ExperimentConfig()
    log.debug("sweep %s: %d strategies x %d sizes", kernel,
              len(strategies), len(sizes))
    status = StatusPublisher.for_run(obs_context.current(),
                                     total=len(strategies) * len(sizes),
                                     kernel=kernel)
    with events.span("sweep", kernel=kernel, strategies=len(strategies),
                     sizes=len(sizes), parallel=options.parallel):
        workers = options.parallel
        if workers > 1:
            from repro.resilience import pool

            if not pool.available():
                log.warning("multiprocessing unavailable on this platform; "
                            "running the sweep serially")
                workers = 1
        journal = _resolve_journal(options.checkpoint, cfg,
                                   force=options.resume_force)
        store = open_store(options.point_cache)
        policy = options.point_policy(journal, store)
        if workers > 1:
            # The pool enforces point_timeout by SIGKILL; workers keep
            # only the sweep's own budget.
            policy = replace(policy, budget=options.budget)
        drain_cm = (graceful_drain()
                    if journal is not None or store is not None
                    else contextlib.nullcontext(None))
        with drain_cm as drain:
            results = _run_points(
                [(kernel, s, n) for s in strategies for n in sizes], cfg,
                policy, workers=workers, point_timeout=options.point_timeout,
                drain=drain, status=status)
        if status is not None:
            status.finish()
        return {s: [results[(kernel, s, n)] for n in sizes]
                for s in strategies}


# ----------------------------------------------------------------------
# cache administration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunnerCacheInfo:
    """Combined view of the in-process memo and the persistent store.

    The first four fields mirror ``functools.lru_cache.cache_info()``
    so existing consumers (``repro.obs``, tests) keep working; ``store``
    is present only when a persistent store was passed to
    :func:`cache_info`.
    """

    hits: int
    misses: int
    maxsize: int | None
    currsize: int
    store: StoreInfo | None = None


def clear_cache(store=None) -> int:
    """Drop memoized results; with ``store``, empty the persistent one.

    Returns the number of persistent entries removed (0 without a
    store). After a clear, nothing is served stale: the next
    :func:`run_point` re-simulates and re-populates both layers.
    """
    _run_point_cached.cache_clear()
    resolved = open_store(store)
    return resolved.clear() if resolved is not None else 0


def cache_info(store=None) -> RunnerCacheInfo:
    """Memo statistics, plus the persistent store's when one is given."""
    memo = _run_point_cached.cache_info()
    resolved = open_store(store)
    return RunnerCacheInfo(
        hits=memo.hits, misses=memo.misses, maxsize=memo.maxsize,
        currsize=memo.currsize,
        store=resolved.info() if resolved is not None else None)
