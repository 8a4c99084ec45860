"""Layer-boundary spans for the traced run, installed from outside ``src/``.

:class:`Tracer` replaces the public functions each layer exposes with
wrappers that record one span per call: ``(name, start, end, parent,
point)``. The replaced attributes are the ones the runner resolves at
call time (module globals and class attributes), so the program runs
unmodified. Spans stay in memory and are written out once the run ends;
:func:`layer_times` turns them into per-layer self times (a span's
duration minus its direct children's).

Span names are ``<layer>.<what>``. ``experiments.point`` only groups a
point's spans: its own self time is runner overhead and is counted in
``experiments.other_s`` with everything outside any span.
"""

from __future__ import annotations

import json
import os
import time

#: The span that groups one point's layer spans; its self time is not
#: a layer's.
POINT_SPAN = "experiments.point"

CACHE_MODES = ("single_sort", "per_level", "assoc_scan", "legacy")
CACHE_RUN_MODES = ("intervals", "demand", "materialize")


class Tracer:
    """Records spans around the layer entry points while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []     # (name, start, end, parent, point)
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._point = None
        self._patches: list[tuple] = []  # (owner, attr, original)

    # -- spans ---------------------------------------------------------
    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._point])
        self._stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name: str, fn, *args, **kwargs):
        idx = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(idx)

    # -- patching ------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def _plain(self, owner, attr: str, name: str) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                return self.call(name, original, *args, **kwargs)
            return wrapper
        self._patch(owner, attr, make)

    def install(self) -> None:
        """Wrap every layer boundary the figure and table paths cross."""
        from repro.cache.hierarchy import CacheHierarchy
        from repro.experiments import lattice, runner
        from repro.kernels.base import StencilKernel
        from repro.obs import context
        from repro.perf.store import PointStore
        from repro.resilience import pool
        from repro.resilience.checkpoint import CheckpointJournal

        self._plain(runner, "select", "core.select")
        self._plain(runner, "predict", "perfmodel.predict")
        for module in (runner, lattice):
            self._patch(module, "run_point", self._point_wrapper)
        self._patch(StencilKernel, "trace", self._trace_wrapper)
        self._patch(CacheHierarchy, "run", self._run_wrapper)
        self._patch(PointStore, "get", self._store_get_wrapper)
        self._plain(PointStore, "put", "perf.store.put")
        self._plain(CheckpointJournal, "get", "resilience.journal.get")
        self._plain(CheckpointJournal, "record", "resilience.journal.record")
        self._patch(pool, "run_supervised", self._pool_wrapper)
        self._plain(context, "merge_worker_shards", "obs.merge")
        # Pool workers are forked from this process; they run unwrapped.
        os.register_at_fork(after_in_child=self.uninstall)

    def uninstall(self) -> bool:
        """Restore every wrapped attribute; True when all are originals."""
        restored = True
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
            now = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            restored = restored and now is original
        self._patches.clear()
        return restored

    # -- wrappers that also count --------------------------------------
    def _point_wrapper(self, original):
        def run_point(kernel, strategy, n, cfg=None, **kwargs):
            geometry = (f"{cfg.l1.assoc}w/{cfg.l1.line_bytes}B"
                        if cfg is not None else "1w/32B")
            outer = self._point
            self._point = f"{kernel}/{strategy}/{n}/{geometry}"
            try:
                return self.call(POINT_SPAN, original, kernel,
                                 strategy, n, cfg, **kwargs)
            finally:
                self._point = outer
        return run_point

    def _trace_wrapper(self, original):
        def trace(kernel, *args, **kwargs):
            chunks = self.call("kernels.trace_setup", original, kernel,
                               *args, **kwargs)
            return _TracedChunks(self, chunks)
        return trace

    def _run_wrapper(self, original):
        def run(hier, chunks, *args, **kwargs):
            support = hier.engine_support()
            for level in support.levels:
                self.count(f"cache.mode.{level.mode}")
                self.count(f"cache.run_mode.{level.run_mode}")
            stats = self.call("cache.run", original, hier, chunks,
                              *args, **kwargs)
            for i, (_, st) in enumerate(stats.levels[:2], start=1):
                self.count(f"cache.l{i}.accesses", st.accesses)
                self.count(f"cache.l{i}.misses", st.misses)
            return stats
        return run

    def _store_get_wrapper(self, original):
        def get(store, *args, **kwargs):
            payload = self.call("perf.store.get", original, store,
                                *args, **kwargs)
            self.count("perf.store.hits", payload is not None)
            return payload
        return get

    def _pool_wrapper(self, original):
        def run_supervised(*args, **kwargs):
            outcomes = self.call("resilience.pool", original,
                                 *args, **kwargs)
            for o in outcomes:
                self.count("resilience.pool.attempts", o.attempts)
                self.count("resilience.pool.retries", max(0, o.attempts - 1))
                self.count("resilience.pool.quarantined", o.quarantined)
            return outcomes
        return run_supervised

    def dump(self, path) -> None:
        """Write the spans (one JSON list per line) and the counts."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"counts": self.counts}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _TracedChunks:
    """The trace iterator, with a ``trace.gen`` span around each next()."""

    def __init__(self, tracer: Tracer, chunks) -> None:
        self._tracer = tracer
        self._chunks = iter(chunks)

    def __iter__(self):
        return self

    def __next__(self):
        t = self._tracer
        idx = t._begin("trace.gen")
        try:
            chunk = next(self._chunks)
            n = chunk.n_addresses
            runs = getattr(chunk, "n_runs", None)
            t.count("trace.chunks")
            t.count("trace.addresses", n)
            t.count("trace.stored", n if runs is None else runs)
            t.count("trace.run_chunks", runs is not None)
            return chunk
        finally:
            t._end(idx)


def load(path) -> tuple[dict, list[tuple]]:
    """Read back a :meth:`Tracer.dump` file."""
    with open(path) as fh:
        counts = json.loads(fh.readline())["counts"]
        spans = [tuple(json.loads(line)) for line in fh]
    return counts, spans


def layer_times(spans) -> tuple[dict[str, float], dict[str, float]]:
    """(self seconds per span name, duration per point id).

    Self time is a span's duration minus its direct children's
    durations. Point durations come from the :data:`POINT_SPAN` spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    points: dict[str, float] = {}
    for i, (name, start, end, _, point) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        if name == POINT_SPAN:
            points[point] = points.get(point, 0.0) + (end - start)
    return self_s, points
