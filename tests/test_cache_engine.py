"""Differential tests of the batched hierarchy engine.

The engine's contract is *bit-for-bit* equality: whatever path a
stream takes — the per-chunk ``CacheHierarchy.access()`` loop or the
batched engine behind ``run()``, counting or argsort partition, any
chunk split — the resulting :class:`HierarchyStats` must be identical,
and identical to the scalar :class:`SetAssociativeCache` ground truth.
These tests hold every pairing to that, over randomized streams that
mix uniform-random, strided-sweep, and hot-set phases so both
miss-heavy and hit-heavy regimes are exercised across window
boundaries (streams are sized past ``BATCH_TARGET`` on purpose), and
over real kernel traces at direct-mapped, 64-byte-line and associative
L1 geometries.
"""

import numpy as np
import pytest

from repro.cache import (
    BATCH_TARGET,
    CacheHierarchy,
    CacheParams,
    SetAssociativeCache,
    WritePolicy,
    counting_available,
    partition,
)
from repro.obs import metrics

# Geometry zoo: name -> level params. Small caches so random streams
# actually collide; each exercises a distinct simulator or geometry.
GEOMETRIES = {
    # paper-shaped: 32B L1 lines, 64B L2 lines -> per_level mode
    "paper_mixed_lines": (CacheParams(4 * 1024, 32, 1, "L1"),
                          CacheParams(64 * 1024, 64, 1, "L2")),
    # equal line sizes, S1 <= S2: L1's set index is the low bits of L2's
    "equal_lines_shared": (CacheParams(4 * 1024, 64, 1, "L1"),
                           CacheParams(64 * 1024, 64, 1, "L2")),
    # one level only
    "single_level": (CacheParams(2 * 1024, 32, 1, "L1"),),
    # 2-way L2 -> TwoWayCache level behind access_grouped
    "two_way_l2": (CacheParams(4 * 1024, 32, 1, "L1"),
                   CacheParams(32 * 1024, 32, 2, "L2")),
    # num_sets == 2**15: the int16 narrowing boundary (max key 32767)
    "set_count_boundary": (CacheParams(1 * 1024, 32, 1, "L1"),
                           CacheParams((1 << 15) * 32, 32, 1, "L2")),
    # 4-way L2 -> AssocScanCache level behind access_grouped
    "four_way_l2": (CacheParams(4 * 1024, 32, 1, "L1"),
                    CacheParams(16 * 1024, 32, 4, "L2")),
    # fully-associative (TLB-shaped) L1 over a direct-mapped L2
    "fully_assoc_l1": (CacheParams(2 * 1024, 32, 64, "TLB"),
                       CacheParams(64 * 1024, 32, 1, "L2")),
}


# Kernel-trace geometries: the paper's L1 and L2 (std), a tiny
# hierarchy every plane overflows (micro), 64-byte L1 lines (wide64),
# associative L1s (assoc2 with 64-byte lines, assoc4), and a lone L1.
KERNEL_GEOMETRIES = {
    "std":    (CacheParams(16384, 32, 1, "L1"),
               CacheParams(1 << 20, 64, 1, "L2")),
    "micro":  (CacheParams(512, 32, 1, "L1"),
               CacheParams(4096, 32, 1, "L2")),
    "wide64": (CacheParams(16384, 64, 1, "L1"),
               CacheParams(1 << 20, 64, 1, "L2")),
    "assoc2": (CacheParams(16384, 64, 2, "L1"),
               CacheParams(1 << 20, 64, 1, "L2")),
    "assoc4": (CacheParams(16384, 32, 4, "L1"),
               CacheParams(1 << 20, 64, 4, "L2")),
    "l1only": (CacheParams(16384, 32, 1, "L1"),),
}

KERNEL_STRATEGIES = [(k, s) for k in ("JACOBI", "RESID", "REDBLACK", "PSINV")
                     for s in ("Orig", "GcdPad")]


def mixed_stream(rng, n, line_bytes, span_lines):
    """Random byte addresses with hot-set, strided, and uniform phases."""
    parts = []
    remaining = n
    while remaining > 0:
        seg = int(rng.integers(200, 4000))
        seg = min(seg, remaining)
        kind = rng.integers(0, 3)
        if kind == 0:      # uniform-random lines (miss-heavy)
            lines = rng.integers(0, span_lines, size=seg)
        elif kind == 1:    # sequential sweep (spatial locality)
            start = int(rng.integers(0, span_lines))
            lines = (start + np.arange(seg)) % span_lines
        else:              # hot set (hit-heavy, temporal locality)
            hot = rng.integers(0, span_lines, size=max(4, seg // 64))
            lines = rng.choice(hot, size=seg)
        offs = rng.integers(0, line_bytes, size=seg)
        parts.append(lines.astype(np.int64) * line_bytes + offs)
        remaining -= seg
    return np.concatenate(parts)


def random_chunks(rng, stream, with_writes):
    """Split a stream at random boundaries into (addrs, wmask) chunks."""
    cuts = np.sort(rng.integers(0, stream.size,
                                size=int(rng.integers(2, 9))))
    chunks = []
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, stream.size]):
        addrs = stream[lo:hi]
        w = (rng.random(addrs.size) < 0.25) if with_writes else None
        chunks.append((addrs, w))
    return chunks


def ground_truth(params, chunks, write_policy):
    """Scalar LRU reference: demand-filtered SetAssociativeCache stack."""
    sims = [SetAssociativeCache(p) for p in params]
    reads = writes = 0
    for addrs, w in chunks:
        addrs = np.asarray(addrs, dtype=np.int64)
        if w is None:
            reads += addrs.size
            cur = addrs
        else:
            nw = int(np.count_nonzero(w))
            writes += nw
            reads += addrs.size - nw
            cur = addrs[~w] if write_policy is WritePolicy.WRITE_AROUND \
                else addrs
        for sim in sims:
            if cur.size == 0:
                break
            cur = cur[sim.access(cur)]
    return sims, reads, writes


def assert_matches_ground_truth(stats, sims, reads, writes):
    assert stats.reads == reads
    assert stats.writes == writes
    for (_, st), sim in zip(stats.levels, sims):
        assert st.accesses == sim.stats.accesses
        assert st.misses == sim.stats.misses


def assert_same_stats(a, b):
    assert a.reads == b.reads and a.writes == b.writes
    for (na, sa), (nb, sb) in zip(a.levels, b.levels):
        assert (na, sa.accesses, sa.misses) == (nb, sb.accesses, sb.misses)


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("policy", list(WritePolicy))
def test_engine_matches_scalar_ground_truth(geometry, policy):
    params = GEOMETRIES[geometry]
    rng = np.random.default_rng(hash((geometry, policy.value)) % (1 << 32))
    span = 4 * max(p.num_lines for p in params)
    stream = mixed_stream(rng, BATCH_TARGET + 7919, params[0].line_bytes,
                          span)
    chunks = random_chunks(rng, stream, with_writes=True)

    hier = CacheHierarchy(list(params), write_policy=policy)
    stats = hier.run(iter(chunks))
    assert_matches_ground_truth(
        stats, *ground_truth(params, chunks, policy))


@pytest.mark.parametrize("kernel,strategy", KERNEL_STRATEGIES)
@pytest.mark.parametrize("geometry", KERNEL_GEOMETRIES)
def test_kernel_trace_matches_scalar_ground_truth(geometry, kernel,
                                                  strategy):
    """Real stencil traces (tiled and untiled, unit and stride-2 rows)
    through the engine equal the scalar reference at every geometry."""
    from repro.core.selector import select
    from repro.experiments.runner import _schedule_for
    from repro.kernels import KERNELS

    params = KERNEL_GEOMETRIES[geometry]
    kern = KERNELS[kernel](40, 10)
    sel = select(strategy, params[0].capacity_elements(8), 40, 40,
                 mi=kern.meta.mi, mj=kern.meta.mj, atd=kern.meta.atd)
    schedule = _schedule_for(strategy, kernel, sel)

    hier = CacheHierarchy(list(params))
    stats = hier.run(kern.trace(sel, schedule, structured=True))
    assert_matches_ground_truth(
        stats, *ground_truth(params, kern.trace(sel, schedule),
                             WritePolicy.WRITE_AROUND))


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_engine_matches_legacy_access_loop(geometry):
    params = GEOMETRIES[geometry]
    rng = np.random.default_rng(hash(geometry) % (1 << 32))
    stream = mixed_stream(rng, BATCH_TARGET + 311, params[0].line_bytes,
                          3 * max(p.num_lines for p in params))
    chunks = random_chunks(rng, stream, with_writes=True)

    engine_hier = CacheHierarchy(list(params))
    engine_stats = engine_hier.run(iter(chunks))

    legacy_hier = CacheHierarchy(list(params))
    for addrs, w in chunks:
        legacy_hier.access(addrs, w)
    assert_same_stats(engine_stats, legacy_hier.stats())


def assert_partitioned_with(reg, strategy):
    """Every partition in ``reg`` used the forced ``strategy``.

    Without scipy a forced ``"counting"`` falls back to argsort, so it
    is only checked where :func:`counting_available` holds.
    """
    if strategy == "counting" and not counting_available():
        return
    other = "argsort" if strategy == "counting" else "counting"
    assert reg.counter_total("repro.cache.partition", strategy=strategy) > 0
    assert reg.counter_total("repro.cache.partition", strategy=other) == 0


@pytest.mark.parametrize("geometry", ["paper_mixed_lines",
                                      "equal_lines_shared",
                                      "set_count_boundary"])
def test_partition_strategies_give_identical_stats(geometry):
    params = GEOMETRIES[geometry]
    rng = np.random.default_rng(hash(geometry) % (1 << 31))
    stream = mixed_stream(rng, BATCH_TARGET + 1009, params[0].line_bytes,
                          3 * max(p.num_lines for p in params))

    by_strategy = {}
    for strategy in ("counting", "argsort"):
        hier = CacheHierarchy(list(params))
        with metrics.collect() as reg:
            by_strategy[strategy] = hier.run(
                iter([(stream, None)]), partition_strategy=strategy)
        assert_partitioned_with(reg, strategy)
    assert_same_stats(by_strategy["counting"], by_strategy["argsort"])


def test_partition_permutation_identical_to_stable_argsort():
    rng = np.random.default_rng(7)
    # 2**15 keys is the int16-narrowing boundary (max key 32767).
    for num_keys in (512, 1 << 15):
        keys = rng.integers(0, num_keys, size=50_000)
        expect_order = np.argsort(keys, kind="stable")
        expect_bp = np.r_[0, np.cumsum(np.bincount(keys,
                                                   minlength=num_keys))]
        for strategy in ("counting", "argsort"):
            with metrics.collect() as reg:
                order, bp = partition(keys, num_keys, strategy)
            assert_partitioned_with(reg, strategy)
            np.testing.assert_array_equal(order, expect_order)
            np.testing.assert_array_equal(bp, expect_bp)


def test_partition_rejects_unknown_strategy():
    with pytest.raises(ValueError, match="unknown partition strategy"):
        partition(np.zeros(4, dtype=np.int64), 16, "quantum")


def test_partition_empty_input():
    for strategy in ("counting", "argsort"):
        order, bp = partition(np.empty(0, dtype=np.int64), 8, strategy)
        assert order.size == 0
        np.testing.assert_array_equal(bp, np.zeros(9, dtype=np.int64))


def test_chunk_split_invariance():
    """Any re-chunking of the same read stream gives identical stats."""
    params = GEOMETRIES["paper_mixed_lines"]
    rng = np.random.default_rng(13)
    stream = mixed_stream(rng, 2 * BATCH_TARGET + 137,
                          params[0].line_bytes, 3000)

    whole = CacheHierarchy(list(params)).run(iter([(stream, None)]))
    for seed in range(3):
        srng = np.random.default_rng(seed)
        chunks = random_chunks(srng, stream, with_writes=False)
        split = CacheHierarchy(list(params)).run(iter(chunks))
        assert_same_stats(whole, split)


def test_mid_stream_invalidate_between_runs():
    """invalidate() drops contents, keeps stats — engine path included."""
    params = GEOMETRIES["equal_lines_shared"]
    rng = np.random.default_rng(29)
    a = mixed_stream(rng, BATCH_TARGET + 41, params[0].line_bytes, 2000)
    b = mixed_stream(rng, BATCH_TARGET + 43, params[0].line_bytes, 2000)

    hier = CacheHierarchy(list(params))
    hier.run(iter([(a, None)]))
    hier.invalidate()
    stats = hier.run(iter([(b, None)]))

    sims = [SetAssociativeCache(p) for p in params]
    reads = 0
    for part in (a, b):
        cur = part
        reads += part.size
        for sim in sims:
            if cur.size == 0:
                break
            cur = cur[sim.access(cur)]
        if part is a:
            for sim in sims:
                sim.invalidate()
    assert_matches_ground_truth(stats, sims, reads, 0)


def test_two_way_state_carries_across_chunks():
    """A 2-way level keeps exact LRU state across engine windows."""
    params = GEOMETRIES["two_way_l2"]
    rng = np.random.default_rng(31)
    # Hot set sized between one and two ways per set so LRU order matters.
    stream = mixed_stream(rng, 3 * BATCH_TARGET, params[0].line_bytes,
                          int(1.5 * params[1].num_lines))
    chunks = random_chunks(rng, stream, with_writes=False)

    stats = CacheHierarchy(list(params)).run(iter(chunks))
    assert_matches_ground_truth(
        stats, *ground_truth(params, chunks, WritePolicy.WRITE_AROUND))


def test_counting_strategy_available_matches_scipy():
    try:
        from scipy.sparse import _sparsetools  # noqa: F401
        assert counting_available()
    except ImportError:
        assert not counting_available()
