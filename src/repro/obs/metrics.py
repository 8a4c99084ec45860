"""Process-local metrics registry: counters, gauges, histograms.

Collection is opt-in: the module-level registry is ``None`` until a CLI
session (``--metrics PATH``) or a test installs one via
:func:`collect`, and every recording helper starts with one ``None``
check — instrumentation left in hot paths is near-free when disabled.

Metric names are a **stable interface** (reports and CI parse them):

=====================================  ==========  =========================
name                                   type        labels
=====================================  ==========  =========================
``repro.trace.chunks``                 counter     —
``repro.trace.addresses``              counter     —
``repro.trace.chunk_splits``           counter     —
``repro.sim.accesses``                 counter     ``level``
``repro.sim.misses``                   counter     ``level``
``repro.sim.miss_class``               counter     ``level``, ``cls`` in
                                                   cold|conflict|capacity
``repro.sim.miss_array``               counter     ``level``, ``array``
``repro.sim.point_seconds``            histogram   —
``repro.sim.addresses_per_second``     gauge       —
``repro.select.calls``                 counter     ``strategy``
``repro.select.euc3d.candidates``      counter     —
``repro.select.euc3d.rejected``        counter     ``reason`` in
                                                   degenerate|cost
``repro.select.gcdpad.calls``          counter     —
``repro.select.pad.searched``          counter     —
``repro.runner.points``                counter     ``mode`` in exact|
                                                   analytic|journal|store
``repro.resilience.retries``           counter     —
``repro.resilience.degraded``          counter     —
``repro.resilience.checkpoint.*``      counter     resumed_points, records,
                                                   recovered,
                                                   orphans_removed
``repro.pool.workers``                 gauge       —
``repro.pool.attempts``                counter     ``outcome`` in ok|crash|
                                                   timeout|hang|corrupt|
                                                   error
``repro.pool.retries``                 counter     —
``repro.pool.quarantined``             counter     —
``repro.perf.point_cache_hits``        counter     —
``repro.perf.point_cache_misses``      counter     —
``repro.perf.point_cache_puts``        counter     —
``repro.perf.point_cache_evictions``   counter     —
``repro.cache.engine_runs``            counter     —
``repro.cache.engine_level_mode``      counter     ``level``, ``mode`` in
                                                   per_level|assoc_scan
``repro.cache.batches``                counter     —
``repro.cache.partition``              counter     ``strategy`` in
                                                   counting|argsort
``repro.cache.extrapolation``          counter     ``outcome`` in fired|
                                                   fallback; ``reason``
``repro.cache.extrapolation_refs_skipped``  counter  — (demand references
                                                   costed from segment
                                                   templates)
=====================================  ==========  =========================

``repro.sim.miss_class`` and ``repro.sim.miss_array`` are recorded
only for points classified under ``--classify``; there, per-level
``cold + conflict + capacity`` miss counts sum exactly to
``repro.sim.misses`` for the same level (see
:mod:`repro.cache.classify`); tests and the acceptance harness rely on
that identity.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "enabled",
    "collect",
    "inc",
    "set_gauge",
    "observe",
    "percentile",
]

_LabelKey = tuple[tuple[str, str], ...]

#: Per-histogram bound on retained samples (first-N; runs here observe
#: far fewer values than this, so percentiles are exact in practice).
SAMPLE_CAP = 1024


def percentile(values, q: float) -> float | None:
    """Nearest-rank percentile of ``values`` (``q`` in 0..100).

    ``None`` on an empty input. Nearest-rank (not interpolated) so the
    result is always a value that actually occurred.
    """
    vals = sorted(values)
    if not vals:
        return None
    if q <= 0:
        return vals[0]
    import math

    rank = math.ceil(q / 100.0 * len(vals))
    return vals[min(len(vals), max(1, rank)) - 1]


@dataclass
class Counter:
    """A monotonically increasing integer."""

    value: int = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


@dataclass
class Gauge:
    """A point-in-time number (last write wins)."""

    value: float = 0.0

    def set(self, v: float) -> None:
        self.value = v


@dataclass
class Histogram:
    """A lightweight summary: count / total / min / max / percentiles.

    Observed values are retained (up to :data:`SAMPLE_CAP`) so
    :meth:`percentile` / :meth:`summary` can report p50/p90/p95; beyond
    the cap the summary fields stay exact and percentiles describe the
    first ``SAMPLE_CAP`` observations.
    """

    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None
    samples: list = field(default_factory=list)

    def observe(self, v: float) -> None:
        self.count += 1
        self.total += v
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)
        if len(self.samples) < SAMPLE_CAP:
            self.samples.append(v)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile over the retained samples."""
        return percentile(self.samples, q)

    def summary(self) -> dict:
        """The report-ready digest: count/mean/p50/p90/p95/max."""
        return {
            "count": self.count,
            "mean": round(self.mean, 6),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p95": self.percentile(95),
            "max": self.max,
        }

    def merge(self, other: "dict | Histogram") -> None:
        """Fold another histogram (or its snapshot row) into this one."""
        if isinstance(other, Histogram):
            count, total = other.count, other.total
            lo, hi, samples = other.min, other.max, other.samples
        else:
            count, total = int(other.get("count", 0)), other.get("total", 0.0)
            lo, hi = other.get("min"), other.get("max")
            samples = other.get("samples", [])
        self.count += count
        self.total += total
        if lo is not None:
            self.min = lo if self.min is None else min(self.min, lo)
        if hi is not None:
            self.max = hi if self.max is None else max(self.max, hi)
        room = SAMPLE_CAP - len(self.samples)
        if room > 0:
            self.samples.extend(samples[:room])


def _key(name: str, labels: dict) -> tuple[str, _LabelKey]:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create store of labelled metrics, JSON-serializable."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, _LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, _LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, _LabelKey], Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        k = _key(name, labels)
        c = self._counters.get(k)
        if c is None:
            c = self._counters[k] = Counter()
        return c

    def gauge(self, name: str, **labels) -> Gauge:
        k = _key(name, labels)
        g = self._gauges.get(k)
        if g is None:
            g = self._gauges[k] = Gauge()
        return g

    def histogram(self, name: str, **labels) -> Histogram:
        k = _key(name, labels)
        h = self._histograms.get(k)
        if h is None:
            h = self._histograms[k] = Histogram()
        return h

    # ------------------------------------------------------------------
    def counter_total(self, name: str, **labels) -> int:
        """Sum of a counter over all label sets matching ``labels``.

        Matching is subset-based: ``counter_total("x", level="L1")``
        sums every ``x`` counter whose labels include ``level=L1``.
        """
        want = set(_key(name, labels)[1])
        return sum(c.value for (n, lk), c in self._counters.items()
                   if n == name and want <= set(lk))

    def snapshot(self) -> dict:
        """Stable JSON-serializable view of every metric.

        Histogram rows carry the summary fields plus ``p50/p90/p95``
        and the retained ``samples`` (bounded by :data:`SAMPLE_CAP`) so
        snapshots from worker processes merge losslessly.
        """

        def rows(store, fields):
            out = []
            for (name, lk) in sorted(store):
                m = store[(name, lk)]
                out.append({"name": name, "labels": dict(lk),
                            **{f: getattr(m, f) for f in fields}})
            return out

        hists = rows(self._histograms, ("count", "total", "min", "max"))
        for row, (name, lk) in zip(hists, sorted(self._histograms)):
            h = self._histograms[(name, lk)]
            row["p50"] = h.percentile(50)
            row["p90"] = h.percentile(90)
            row["p95"] = h.percentile(95)
            row["samples"] = [round(v, 6) for v in h.samples]
        return {
            "v": 1,
            "counters": rows(self._counters, ("value",)),
            "gauges": rows(self._gauges, ("value",)),
            "histograms": hists,
        }

    def merge(self, snap: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add; histograms merge their summaries and samples;
        gauges are skipped (point-in-time values are only meaningful on
        the node that set them). Used to absorb pool-worker metric
        shards into the supervisor's registry.
        """
        for row in snap.get("counters", []):
            self.counter(row["name"], **row.get("labels", {})).inc(
                int(row.get("value", 0)))
        for row in snap.get("histograms", []):
            self.histogram(row["name"], **row.get("labels", {})).merge(row)

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=False)

    def write(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the snapshot as JSON, atomically."""
        from repro.resilience.atomic import atomic_write_text

        return atomic_write_text(path, self.to_json() + "\n")


#: Installed registry; ``None`` means collection is disabled.
_REGISTRY: MetricsRegistry | None = None


def registry() -> MetricsRegistry | None:
    """The installed registry, or ``None`` when collection is off."""
    return _REGISTRY


def enabled() -> bool:
    return _REGISTRY is not None


@contextlib.contextmanager
def collect(reg: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Install a registry (a fresh one by default) for a ``with`` block."""
    global _REGISTRY
    prev = _REGISTRY
    _REGISTRY = reg if reg is not None else MetricsRegistry()
    try:
        yield _REGISTRY
    finally:
        _REGISTRY = prev


def inc(name: str, n: int = 1, **labels) -> None:
    """Increment a counter on the installed registry (no-op when off)."""
    r = _REGISTRY
    if r is not None:
        r.counter(name, **labels).inc(n)


def set_gauge(name: str, value: float, **labels) -> None:
    r = _REGISTRY
    if r is not None:
        r.gauge(name, **labels).set(value)


def observe(name: str, value: float, **labels) -> None:
    r = _REGISTRY
    if r is not None:
        r.histogram(name, **labels).observe(value)
