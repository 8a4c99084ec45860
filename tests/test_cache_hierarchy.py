"""Tests for the multi-level hierarchy and write policies."""

import numpy as np
import pytest

from repro.cache.hierarchy import CacheHierarchy, WritePolicy
from repro.cache.params import CacheParams
from repro.errors import ConfigurationError


def levels():
    return [CacheParams(size_bytes=256, line_bytes=16, assoc=1, name="L1"),
            CacheParams(size_bytes=1024, line_bytes=16, assoc=1, name="L2")]


class TestFiltering:
    def test_l2_sees_only_l1_misses(self):
        h = CacheHierarchy(levels())
        h.access(np.array([0, 0, 16, 0, 16]))
        st = h.stats()
        assert st.levels[0][1].accesses == 5
        assert st.levels[0][1].misses == 2
        assert st.levels[1][1].accesses == 2  # only the L1 misses

    def test_l2_captures_l1_conflicts(self):
        # 0 and 256 conflict in the 256B L1 but not in the 1KB L2.
        h = CacheHierarchy(levels())
        h.access(np.array([0, 256, 0, 256, 0, 256]))
        st = h.stats()
        assert st.levels[0][1].misses == 6
        assert st.levels[1][1].misses == 2  # cold only

    def test_miss_mask_is_l1(self):
        h = CacheHierarchy(levels())
        miss = h.access(np.array([0, 0, 256]))
        assert miss.tolist() == [True, False, True]


class TestWritePolicies:
    def test_write_around_skips_caches(self):
        h = CacheHierarchy(levels(), WritePolicy.WRITE_AROUND)
        addrs = np.array([0, 0, 0])
        w = np.array([True, True, True])
        h.access(addrs, w)
        st = h.stats()
        assert st.writes == 3 and st.reads == 0
        assert st.levels[0][1].accesses == 0

    def test_write_allocate_treats_writes_as_reads(self):
        h = CacheHierarchy(levels(), WritePolicy.WRITE_ALLOCATE)
        addrs = np.array([0, 0])
        w = np.array([True, False])
        h.access(addrs, w)
        st = h.stats()
        assert st.levels[0][1].accesses == 2
        assert st.levels[0][1].misses == 1  # write allocated, read hits

    def test_write_around_reads_still_cached(self):
        h = CacheHierarchy(levels(), WritePolicy.WRITE_AROUND)
        addrs = np.array([0, 0, 0, 0])
        w = np.array([False, True, False, True])
        h.access(addrs, w)
        st = h.stats()
        assert st.levels[0][1].accesses == 2
        assert st.levels[0][1].misses == 1

    def test_mask_shape_mismatch(self):
        h = CacheHierarchy(levels())
        with pytest.raises(ConfigurationError):
            h.access(np.array([0, 1]), np.array([True]))


class TestStats:
    def test_global_vs_local_rates(self):
        h = CacheHierarchy(levels())
        addrs = np.array([0, 0, 0, 256])
        w = np.array([False, False, True, False])
        h.access(addrs, w)
        st = h.stats()
        # L1: 3 reads, 2 misses (0 cold, 256 conflict).
        assert st.local_miss_rate(0) == pytest.approx(2 / 3)
        assert st.global_miss_rate(0) == pytest.approx(2 / 4)
        assert st.global_miss_rate(0, include_writes=False) == pytest.approx(2 / 3)

    def test_run_consumes_mixed_chunks(self):
        h = CacheHierarchy(levels())
        st = h.run([np.array([0, 16]),
                    (np.array([0, 16]), np.array([False, True]))])
        assert st.demand_refs == 4 and st.writes == 1

    def test_summary_mentions_levels(self):
        h = CacheHierarchy(levels())
        h.access(np.array([0]))
        assert "L1" in h.stats().summary()

    def test_requires_levels(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchy([])

    def test_reset(self):
        h = CacheHierarchy(levels())
        h.access(np.array([0, 16, 32]))
        h.reset()
        st = h.stats()
        assert st.demand_refs == 0
        assert st.levels[0][1].accesses == 0


class TestStreaming:
    def test_one_chunk_alive_at_a_time(self):
        """``run`` and the trace generator drop each chunk before the
        next is built: when the next iteration chunk is pulled, no
        earlier ``TraceChunk`` or read matrix is alive."""
        import weakref

        from repro.cache.base import BATCH_TARGET
        from repro.layout.array import allocate
        from repro.trace.enumerators import untiled_3d
        from repro.trace.generator import Ref, trace_chunks

        n, nk = 64, 6
        specs = allocate([("B", n, n, nk), ("A", n, n, nk)])
        refs = [Ref(specs["B"], di, dj, 0)
                for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1), (0, 0))]
        refs.append(Ref(specs["A"], 0, 0, 0, is_write=True))
        # Each plane's reads fill an L1 window, so the engine buffers
        # nothing across chunks.
        assert (n - 2) ** 2 * 5 >= BATCH_TARGET
        alive = []

        def planes():
            for plane in untiled_3d(n, nk):
                assert [r() for r in alive] == [None] * len(alive)
                yield plane

        def record(chunks):
            for chunk in chunks:
                alive.extend((weakref.ref(chunk),
                              weakref.ref(chunk.read_matrix)))
                yield chunk
                del chunk

        hier = CacheHierarchy(levels())
        stats = hier.run(record(trace_chunks(planes(), refs,
                                             max_addresses=0,
                                             structured=True)))
        assert len(alive) == 2 * (nk - 2)
        assert stats.reads == 5 * (n - 2) ** 2 * (nk - 2)


class TestInvalidate:
    """Regression tests for the reset-vs-invalidate stats trap.

    A level's bare ``reset()`` mid-stream used to silently drop its
    accumulated statistics from the hierarchy's totals while the
    hierarchy kept counting references — denominators no longer matched
    numerators. ``CacheHierarchy.invalidate`` is the explicit,
    stats-preserving way to model a mid-stream cold restart.
    """

    def test_invalidate_preserves_stats(self):
        h = CacheHierarchy(levels())
        h.access(np.array([0, 0, 16]))
        before = h.stats()
        h.invalidate()
        mid = h.stats()
        assert mid.levels[0][1].accesses == before.levels[0][1].accesses
        assert mid.levels[0][1].misses == before.levels[0][1].misses
        # Contents are gone: a re-access of a previously hot line misses.
        h.access(np.array([0]))
        after = h.stats()
        assert after.levels[0][1].accesses == 4
        assert after.levels[0][1].misses == before.levels[0][1].misses + 1
        assert after.demand_refs == 4  # denominator still matches

    def test_invalidate_single_level(self):
        h = CacheHierarchy(levels())
        h.access(np.array([0, 0]))
        h.invalidate(level=0)
        h.access(np.array([0]))  # misses L1 (flushed), hits L2 (kept)
        st = h.stats()
        assert st.levels[0][1].misses == 2
        assert st.levels[1][1].accesses == 2
        assert st.levels[1][1].misses == 1

    def test_bare_level_reset_is_the_documented_trap(self):
        # The behaviour the explicit API exists to avoid: resetting a
        # *level* zeroes its stats while hierarchy counters keep going.
        h = CacheHierarchy(levels())
        h.access(np.array([0, 0, 16]))
        h._levels[0].reset()
        st = h.stats()
        assert st.demand_refs == 3
        assert st.levels[0][1].accesses == 0  # mismatch, by design of reset

    def test_hierarchy_reset_also_clears_carry(self):
        h = CacheHierarchy(levels())
        h.access(np.array([0, 16]))
        h.invalidate()
        h.reset()
        st = h.stats()
        assert st.demand_refs == 0
        assert st.levels[0][1].accesses == 0
        assert st.levels[0][1].misses == 0
