"""Tests for 3C miss classification (cold / conflict / capacity)."""

import numpy as np
import pytest

from repro.cache.classify import MISS_CLASSES, MissClassifier
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.params import CacheParams
from repro.errors import ConfigurationError


def tiny_params(size_bytes=256, line_bytes=16, assoc=1, name="L1"):
    return CacheParams(size_bytes=size_bytes, line_bytes=line_bytes,
                       assoc=assoc, name=name)


def classify_stream(params, addrs):
    """Run one level + classifier over a stream; return (stats, classifier)."""
    h = CacheHierarchy([params])
    cls = MissClassifier(params)
    h.attach_classifiers([cls])
    h.access(np.asarray(addrs, dtype=np.int64))
    return h.stats().levels[0][1], cls


class TestClassification:
    def test_first_touches_are_cold(self):
        st, cls = classify_stream(tiny_params(), [0, 16, 32])
        assert cls.counts == {"cold": 3, "conflict": 0, "capacity": 0}
        assert cls.total == st.misses == 3

    def test_conflict_when_shadow_hits(self):
        # 0 and 256 alias in a 256B direct-mapped cache but both fit a
        # fully associative cache of the same capacity (16 lines).
        p = tiny_params()
        st, cls = classify_stream(p, [0, 256, 0, 256, 0, 256])
        assert st.misses == 6
        assert cls.counts["cold"] == 2
        assert cls.counts["conflict"] == 4
        assert cls.counts["capacity"] == 0

    def test_capacity_when_working_set_overflows(self):
        # Cycle through 2x the capacity in LRU order: after the cold
        # pass every miss also misses in the fully associative shadow.
        p = tiny_params()
        lines = p.num_lines
        stream = list(range(0, 2 * lines * 16, 16)) * 3
        addrs = [a for a in stream]
        st, cls = classify_stream(p, addrs)
        assert cls.counts["cold"] == 2 * lines
        assert cls.counts["capacity"] == st.misses - 2 * lines
        assert cls.counts["conflict"] == 0

    def test_identity_holds_for_random_streams(self, rng):
        p = tiny_params()
        addrs = rng.integers(0, 4096, size=2000) * 8
        st, cls = classify_stream(p, addrs)
        assert cls.total == st.misses
        assert sum(cls.counts.values()) == st.misses
        assert set(cls.counts) == set(MISS_CLASSES)


class TestKernelIdentity:
    """The acceptance identity on real kernel traces, both levels."""

    @pytest.mark.parametrize("kernel", ["JACOBI", "RESID"])
    @pytest.mark.parametrize("strategy", ["Orig", "GcdPad"])
    def test_class_totals_equal_level_misses(self, kernel, strategy,
                                             tiny_config):
        from repro.core.selector import select
        from repro.kernels import KERNELS

        n = 12
        kern = KERNELS[kernel](n, tiny_config.nk)
        meta = kern.meta
        sel = select(strategy, tiny_config.cs, n, n,
                     mi=meta.mi, mj=meta.mj, atd=meta.atd)
        specs = kern.specs(sel.di_p, sel.dj_p)
        ranges = [(s.name, s.base * s.elem_bytes, s.end * s.elem_bytes)
                  for s in specs.values()]
        h = CacheHierarchy(tiny_config.levels)
        classifiers = [MissClassifier(p, ranges)
                       for p in tiny_config.levels]
        h.attach_classifiers(classifiers)
        for addrs, w in kern.trace(sel):
            h.access(addrs, w)
        stats = h.stats()
        for (name, st), cls in zip(stats.levels, classifiers):
            assert cls.total == st.misses, name
            # Every miss address falls inside some kernel array.
            assert sum(cls.by_array.values()) == st.misses, name


def _classified(levels, ranges=None):
    h = CacheHierarchy(levels)
    h.attach_classifiers([MissClassifier(p, ranges) for p in levels])
    return h


def _class_counts(h):
    return [(cls.counts, cls.by_array) for cls in h.classifiers]


class TestEngineMatchesAccessLoop:
    """Classifiers on the engine (``run``) see exactly the stream the
    per-chunk ``access()`` loop feeds them: same 3C and per-array
    counts, for flat and run-compressed traces alike."""

    @pytest.mark.parametrize("kernel", ["JACOBI", "RESID"])
    @pytest.mark.parametrize("strategy", ["Orig", "GcdPad"])
    @pytest.mark.parametrize("form", ["flat", "runs"])
    def test_kernel_trace(self, kernel, strategy, form, tiny_config,
                          monkeypatch):
        import repro.trace.runs as runs_mod
        from repro.core.selector import select
        from repro.experiments.runner import _schedule_for
        from repro.kernels import KERNELS
        from repro.obs import metrics

        # Let the small grid emit real run chunks.
        monkeypatch.setattr(runs_mod, "MIN_CHUNK_ADDRESSES", 0)
        n = 24
        kern = KERNELS[kernel](n, tiny_config.nk)
        meta = kern.meta
        sel = select(strategy, tiny_config.cs, n, n,
                     mi=meta.mi, mj=meta.mj, atd=meta.atd)
        schedule = _schedule_for(strategy, kernel, sel)
        ranges = [(s.name, s.base * s.elem_bytes, s.end * s.elem_bytes)
                  for s in kern.specs(sel.di_p, sel.dj_p).values()]

        ref = _classified(tiny_config.levels, ranges)
        for addrs, w in kern.trace(sel, schedule):
            ref.access(addrs, w)
        eng = _classified(tiny_config.levels, ranges)
        with metrics.collect() as reg:
            stats = eng.run(kern.trace(sel, schedule, structured=True,
                                       trace_form=form))

        assert _class_counts(eng) == _class_counts(ref)
        for (name, st), cls in zip(stats.levels, eng.classifiers):
            assert cls.total == st.misses, name
        assert stats.levels == ref.stats().levels
        if form == "runs":
            # The classified L1 materialized real run windows.
            assert reg.counter_total("repro.cache.run_windows",
                                     outcome="classified") > 0

    def test_random_stream_with_mid_stream_invalidate(self, rng):
        levels = [tiny_params(512, 16, 1, "L1"),
                  tiny_params(4096, 32, 2, "L2")]
        addrs = rng.integers(0, 1 << 14, size=40_000) * 4
        cuts = np.sort(rng.integers(0, addrs.size, size=9))
        chunks = np.split(addrs, cuts)
        half = len(chunks) // 2

        ref = _classified(levels)
        for i, chunk in enumerate(chunks):
            if i == half:
                ref.invalidate()
            ref.access(chunk)
        eng = _classified(levels)

        def stream():
            # Invalidate while the engine is live: it must flush its
            # buffered windows (and their classification) first.
            for i, chunk in enumerate(chunks):
                if i == half:
                    eng.invalidate()
                yield chunk

        eng.run(stream())

        assert _class_counts(eng) == _class_counts(ref)
        assert eng.stats().levels == ref.stats().levels
        for (_, st), cls in zip(eng.stats().levels, eng.classifiers):
            assert cls.total == st.misses


class TestResetSemantics:
    def test_invalidate_keeps_seen_and_counts(self):
        p = tiny_params()
        cls = MissClassifier(p)
        h = CacheHierarchy([p])
        h.attach_classifiers([cls])
        h.access(np.array([0, 16]))
        h.invalidate()
        # Re-fetch after the flush: a miss, but not a cold one.
        h.access(np.array([0]))
        st = h.stats().levels[0][1]
        assert st.misses == 3
        assert cls.total == 3
        assert cls.counts["cold"] == 2

    def test_reset_forgets_everything(self):
        cls = MissClassifier(tiny_params())
        cls.classify(np.array([0, 16]), np.array([True, True]))
        cls.reset()
        assert cls.total == 0
        cls.classify(np.array([0]), np.array([True]))
        assert cls.counts["cold"] == 1  # cold again: history gone

    def test_hierarchy_reset_resets_classifiers(self):
        p = tiny_params()
        cls = MissClassifier(p)
        h = CacheHierarchy([p])
        h.attach_classifiers([cls])
        h.access(np.array([0]))
        h.reset()
        assert cls.total == 0

    def test_attach_validates_length(self):
        h = CacheHierarchy([tiny_params()])
        with pytest.raises(ConfigurationError):
            h.attach_classifiers([None, None])


class TestArrayAttribution:
    def test_misses_bucketed_by_range(self):
        p = tiny_params()
        arrays = [("A", 0, 1024), ("B", 1024, 2048)]
        cls = MissClassifier(p, arrays)
        addrs = np.array([0, 1024, 512, 1536])
        cls.classify(addrs, np.array([True, True, False, True]))
        assert cls.by_array == {"A": 1, "B": 2}

    def test_out_of_range_addresses_unattributed(self):
        cls = MissClassifier(tiny_params(), [("A", 0, 64)])
        cls.classify(np.array([0, 4096]), np.array([True, True]))
        assert cls.by_array == {"A": 1}
        assert cls.total == 2  # classification itself still counts both
