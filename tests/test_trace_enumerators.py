"""Tests for the vectorized iteration enumerators.

Each fast enumerator is checked against a straightforward scalar
re-implementation of the paper's Fortran loops (Figures 3, 6, 12), in
exact order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.trace import enumerators as en


def flatten(chunks):
    out = []
    for i, j, k in chunks:
        out.extend(zip(i.tolist(), j.tolist(), k.tolist()))
    return out


# ---------------------------------------------------------------------------
# scalar references (direct transliterations of the paper's Fortran)
# ---------------------------------------------------------------------------

def scalar_untiled(n, nk):
    return [(i, j, k)
            for k in range(2, nk)
            for j in range(2, n)
            for i in range(2, n)]


def scalar_tiled_tiles(n, ti, tj, nk):
    """Per-tile point lists, each keyed by its tile row."""
    tiles = []
    for jj in range(2, n, tj):
        for ii in range(2, n, ti):
            out = []
            for k in range(2, nk):
                for j in range(jj, min(jj + tj - 1, n - 1) + 1):
                    for i in range(ii, min(ii + ti - 1, n - 1) + 1):
                        out.append((i, j, k))
            tiles.append((jj, out))
    return tiles


def scalar_tiled3_tiles(n, ti, tj, tk, nk):
    tiles = []
    for kk in range(2, nk, tk):
        for jj in range(2, n, tj):
            for ii in range(2, n, ti):
                out = []
                for k in range(kk, min(kk + tk - 1, nk - 1) + 1):
                    for j in range(jj, min(jj + tj - 1, n - 1) + 1):
                        for i in range(ii, min(ii + ti - 1, n - 1) + 1):
                            out.append((i, j, k))
                tiles.append(((kk, jj), out))
    return tiles


def scalar_rb_naive(n, nk):
    out = []
    for odd in (0, 1):
        for k in range(2, nk):
            for j in range(2, n):
                for i in range(2 + (k + j + odd) % 2, n, 2):
                    out.append((i, j, k))
    return out


def scalar_rb_fused(n, nk):
    out = []
    for kk in range(1, nk):
        for k in (kk + 1, kk):
            if not (2 <= k <= nk - 1):
                continue
            for j in range(2, n):
                for i in range(2 + (kk + j + 1) % 2, n, 2):
                    out.append((i, j, k))
    return out


def scalar_rb_tiled_tiles(n, ti, tj, nk):
    tiles = []
    for jj in range(1, n, tj):
        for ii in range(1, n, ti):
            out = []
            for kk in range(1, nk):
                for k in (kk + 1, kk):
                    if not (2 <= k <= nk - 1):
                        continue
                    for j in range(max(jj + k - kk, 2),
                                   min(jj + k - kk + tj - 1, n - 1) + 1):
                        istart = ii + k - kk
                        istart = istart + (kk + j + istart + 1) % 2
                        if istart == 1:
                            istart = 3
                        for i in range(istart,
                                       min(ii + k - kk + ti - 1, n - 1) + 1,
                                       2):
                            out.append((i, j, k))
            tiles.append((jj, out))
    return tiles


# ---------------------------------------------------------------------------
# tile batching: chunks must cut only between whole tiles
# ---------------------------------------------------------------------------

def chunk_tiles(chunks, tiles):
    """Tile indices per chunk; fails unless chunks cut only between tiles.

    Empty tiles have no iterations and belong to no chunk.
    """
    tiles = [t for t in tiles if t[1]]
    groups, t = [], 0
    for i, j, k in chunks:
        points = list(zip(i.tolist(), j.tolist(), k.tolist()))
        group = []
        while points:
            size = len(tiles[t][1])
            assert points[:size] == tiles[t][1]
            points = points[size:]
            group.append(t)
            t += 1
        groups.append(group)
    assert t == len(tiles)
    return groups, tiles


def assert_batched(chunks, tiles, limit):
    """Multi-tile chunks stay within ``limit`` iterations and one tile
    row; a tile of at least ``limit`` iterations is a chunk alone."""
    groups, tiles = chunk_tiles(chunks, tiles)
    for group in groups:
        assert group                    # no empty chunk
        if len(group) > 1:
            assert sum(len(tiles[t][1]) for t in group) <= limit
            assert len({tiles[t][0] for t in group}) == 1
    alone = {g[0] for g in groups if len(g) == 1}
    assert all(t in alone for t, (_, points) in enumerate(tiles)
               if len(points) >= limit)


#: The real constant, every tile alone, and a size that cuts tile rows
#: mid-row and next to their edge tiles.
BATCHES = [en.TILE_BATCH_ITERATIONS, 1, 37]


# ---------------------------------------------------------------------------

class TestAgainstScalar:
    @given(n=st.integers(3, 14), nk=st.integers(3, 10))
    @settings(max_examples=20, deadline=None)
    def test_untiled(self, n, nk):
        assert flatten(en.untiled_3d(n, nk)) == scalar_untiled(n, nk)

    @pytest.mark.parametrize("batch", BATCHES)
    @given(n=st.integers(3, 14), nk=st.integers(3, 9),
           ti=st.integers(1, 6), tj=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_tiled(self, batch, n, nk, ti, tj):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(en, "TILE_BATCH_ITERATIONS", batch)
            chunks = list(en.tiled_3d(n, ti, tj, nk))
        assert_batched(chunks, scalar_tiled_tiles(n, ti, tj, nk), batch)

    @pytest.mark.parametrize("batch", BATCHES)
    @given(n=st.integers(3, 12), nk=st.integers(3, 9),
           ti=st.integers(1, 5), tj=st.integers(1, 5), tk=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_tiled3(self, batch, n, nk, ti, tj, tk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(en, "TILE_BATCH_ITERATIONS", batch)
            chunks = list(en.tiled_3loop(n, ti, tj, tk, nk))
        assert_batched(chunks, scalar_tiled3_tiles(n, ti, tj, tk, nk),
                       batch)

    @given(n=st.integers(3, 14), nk=st.integers(3, 10))
    @settings(max_examples=20, deadline=None)
    def test_rb_naive(self, n, nk):
        assert flatten(en.redblack_naive(n, nk)) == scalar_rb_naive(n, nk)

    @given(n=st.integers(3, 14), nk=st.integers(3, 10))
    @settings(max_examples=20, deadline=None)
    def test_rb_fused(self, n, nk):
        assert flatten(en.redblack_fused(n, nk)) == scalar_rb_fused(n, nk)

    @pytest.mark.parametrize("batch", BATCHES)
    @given(n=st.integers(3, 13), nk=st.integers(3, 9),
           ti=st.integers(1, 6), tj=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_rb_tiled(self, batch, n, nk, ti, tj):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(en, "TILE_BATCH_ITERATIONS", batch)
            chunks = list(en.redblack_tiled(n, ti, tj, nk))
        assert_batched(chunks, scalar_rb_tiled_tiles(n, ti, tj, nk), batch)


class TestTileBatching:
    """Tiled schedules yield consecutive tiles of a row as one chunk."""

    @pytest.mark.parametrize("enum", [en.tiled_3d, en.redblack_tiled])
    def test_unit_tiles_yield_o_n_chunks(self, enum):
        """1x1 tiles (Euc3D's fallback) give about one chunk per tile
        row at N = 64, not one per tile (over 3800 of them)."""
        assert sum(1 for _ in enum(64, 1, 1, 30)) <= 2 * 64

    @pytest.mark.parametrize("enum, scalar", [
        (en.tiled_3d, scalar_tiled_tiles),
        (en.redblack_tiled, scalar_rb_tiled_tiles)])
    def test_large_tiles_are_chunks_alone(self, enum, scalar):
        """At the real constant, the regular 20x20 tiles of N = 64, NK =
        30 (over 5000 iterations each) stay one chunk per tile."""
        limit = en.TILE_BATCH_ITERATIONS
        tiles = scalar(64, 20, 20, 30)
        assert sum(len(points) >= limit for _, points in tiles) >= 9
        assert_batched(list(enum(64, 20, 20, 30)), tiles, limit)


class TestCoverage:
    @given(n=st.integers(4, 12), nk=st.integers(4, 9),
           ti=st.integers(1, 5), tj=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_tiled_covers_untiled(self, n, nk, ti, tj):
        assert (sorted(flatten(en.tiled_3d(n, ti, tj, nk))) ==
                sorted(flatten(en.untiled_3d(n, nk))))

    @given(n=st.integers(4, 12), nk=st.integers(4, 9),
           ti=st.integers(1, 5), tj=st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_rb_schedules_cover_same_points(self, n, nk, ti, tj):
        naive = sorted(flatten(en.redblack_naive(n, nk)))
        fused = sorted(flatten(en.redblack_fused(n, nk)))
        tiled = sorted(flatten(en.redblack_tiled(n, ti, tj, nk)))
        assert naive == fused == tiled
        # Every interior point exactly once.
        assert len(naive) == (n - 2) ** 2 * (nk - 2)
        assert len(set(naive)) == len(naive)

    def test_red_before_black_per_plane(self):
        """In the naive schedule all red of a plane precede its black."""
        pts = flatten(en.redblack_naive(8, 6))
        first_black = {}
        last_red = {}
        for t, (i, j, k) in enumerate(pts):
            if (i + j + k) % 2 == 0:
                last_red[k] = t
            else:
                first_black.setdefault(k, t)
        for k, t_red in last_red.items():
            assert t_red < first_black[k]


class TestValidation:
    def test_size_checks(self):
        with pytest.raises(TraceError):
            list(en.untiled_3d(2))
        with pytest.raises(TraceError):
            list(en.tiled_3d(10, 0, 3))
        with pytest.raises(TraceError):
            list(en.redblack_tiled(10, 3, 0))
        with pytest.raises(TraceError):
            list(en.tiled_3loop(10, 1, 1, 0))

    def test_chunks_are_int64(self):
        for i, j, k in en.tiled_3d(8, 3, 3, 6):
            assert i.dtype == np.int64 and j.dtype == np.int64
            assert k.dtype == np.int64
