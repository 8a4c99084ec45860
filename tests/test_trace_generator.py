"""Tests for the address-trace generator."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.layout.array import allocate
from repro.trace.enumerators import untiled_3d
from repro.trace.generator import Ref, count_refs, kernel_refs, trace_chunks


class TestRefs:
    def test_kernel_refs_order(self):
        specs = allocate([("B", 5, 5, 5), ("A", 5, 5, 5)])
        refs = kernel_refs(specs,
                           reads=[("B", -1, 0, 0), ("B", 1, 0, 0)],
                           writes=[("A", 0, 0, 0)])
        assert [r.is_write for r in refs] == [False, False, True]
        assert refs[0].array.name == "B"

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            kernel_refs({}, reads=[])

    def test_count_refs(self):
        specs = allocate([("A", 5, 5, 5)])
        refs = kernel_refs(specs, reads=[("A", 0, 0, 0)] * 3,
                           writes=[("A", 0, 0, 0)])
        assert count_refs(refs) == (3, 1)


class TestTraceChunks:
    def test_interleaving_and_addresses(self):
        specs = allocate([("B", 4, 4, 4), ("A", 4, 4, 4)])
        refs = [Ref(specs["B"], -1, 0, 0), Ref(specs["B"], 1, 0, 0),
                Ref(specs["A"], 0, 0, 0, is_write=True)]
        chunks = list(trace_chunks(untiled_3d(4, 4), refs))
        addrs, w = chunks[0]
        # First iteration is (I=2, J=2, K=2) 1-based -> (1,1,1) 0-based.
        b = specs["B"]
        a = specs["A"]
        assert addrs[0] == b.addr(0, 1, 1) * 8
        assert addrs[1] == b.addr(2, 1, 1) * 8
        assert addrs[2] == a.addr(1, 1, 1) * 8
        assert w.tolist()[:3] == [False, False, True]

    def test_write_mask_periodic(self):
        specs = allocate([("A", 5, 5, 5)])
        refs = [Ref(specs["A"], 0, 0, 0), Ref(specs["A"], 0, 0, 0,
                                              is_write=True)]
        for addrs, w in trace_chunks(untiled_3d(5, 5), refs):
            assert w.reshape(-1, 2)[:, 0].sum() == 0
            assert w.reshape(-1, 2)[:, 1].all()

    def test_byte_addresses_scale_with_elem_size(self):
        specs4 = allocate([("A", 4, 4, 4)], elem_bytes=4)
        refs = [Ref(specs4["A"], 0, 0, 0, is_write=True)]
        addrs, _ = next(iter(trace_chunks(untiled_3d(4, 4), refs)))
        assert addrs[0] == specs4["A"].addr(1, 1, 1) * 4

    def test_requires_refs(self):
        with pytest.raises(TraceError):
            list(trace_chunks(untiled_3d(4, 4), []))

    def test_skips_empty_chunks(self):
        specs = allocate([("A", 9, 9, 4)])
        refs = [Ref(specs["A"], 0, 0, 0, is_write=True)]

        def chunks():
            empty = np.empty(0, dtype=np.int64)
            yield empty, empty, empty
            yield (np.array([2]), np.array([2]), np.array([2]))

        out = list(trace_chunks(chunks(), refs))
        assert len(out) == 1


class TestTraceChunk:
    def _first(self, writes_at, structured=True):
        specs = allocate([("A", 6, 6, 6)])
        refs = [Ref(specs["A"], d, 0, 0, is_write=d in writes_at)
                for d in (-1, 0, 1)]
        return next(iter(trace_chunks(untiled_3d(6, 6), refs,
                                      structured=structured)))

    def test_read_addresses_are_a_view_of_the_read_matrix(self):
        chunk = self._first(writes_at=(1,))
        reads = chunk.read_addresses
        assert np.shares_memory(reads, chunk.read_matrix)
        assert chunk.read_matrix.flags.c_contiguous
        writes = np.tile(chunk.wmask_row, chunk.n_iters)
        assert np.array_equal(reads, chunk.addresses[~writes])
        assert len(chunk) == chunk.n_addresses == reads.size + chunk.writes

    def test_interleaving_follows_program_order(self):
        # A write between two reads: the structured chunk's interleaved
        # stream and the pair form both put it in its program position.
        mid = self._first(writes_at=(0,))
        addrs, w = self._first(writes_at=(0,), structured=False)
        flat = self._first(writes_at=())
        assert np.array_equal(mid.addresses, flat.addresses)
        assert np.array_equal(addrs, flat.addresses)
        assert w.reshape(-1, 3).tolist() == \
            [[False, True, False]] * mid.n_iters
        assert np.array_equal(mid.read_addresses,
                              flat.addresses.reshape(-1, 3)[:, [0, 2]]
                              .reshape(-1))

    def test_write_around_run_builds_no_write_address(self):
        # A write-around hierarchy only counts writes; the write matrix
        # is built for write-allocate callers alone.
        from dataclasses import replace

        from repro.cache.hierarchy import CacheHierarchy, WritePolicy
        from repro.cache.params import CacheParams

        def unbuilt():
            raise AssertionError("write addresses built")

        specs = allocate([("A", 6, 6, 6)])
        refs = [Ref(specs["A"], d, 0, 0, is_write=d == 1)
                for d in (-1, 0, 1)]
        chunks = [replace(c, write_matrix=unbuilt) for c in
                  trace_chunks(untiled_3d(6, 6), refs, structured=True)]
        levels = [CacheParams(256, 32, 1, "L1")]
        stats = CacheHierarchy(levels).run(iter(chunks))
        assert stats.writes == sum(c.n_iters for c in chunks)
        with pytest.raises(AssertionError, match="write addresses built"):
            CacheHierarchy(levels, WritePolicy.WRITE_ALLOCATE).run(
                iter(chunks))
