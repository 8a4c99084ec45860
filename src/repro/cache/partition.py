"""Stable set-index partitioning: the sort under every cache simulator.

Every vectorized simulator in this package reduces to the same
primitive: group a chunk's accesses by set index while preserving
program order inside each group. The original implementation used
``np.argsort(kind="stable")`` — an O(n log n) comparison/radix sort —
even though the key space is tiny (512 sets for the paper's L1, 32768
for its L2). A *counting sort* does the same job in O(n + num_sets):
count keys, prefix-sum the counts into group boundaries, scatter each
element's position into its group. As a bonus the boundaries come out
for free, replacing the sorted-key adjacent-compare + ``flatnonzero``
segment discovery the simulators used to pay for.

numpy has no vectorized *stable* counting-sort scatter (the per-key
running offset is an inherently sequential scan), but scipy ships one:
``coo_tocsr`` — COO→CSR conversion *is* exactly "counting-sort rows,
carrying column/data along". Feeding it the set indices as rows and
positions as data yields the stable permutation and the CSR ``indptr``
is the group-boundary prefix sum. :func:`partition` uses it when scipy
is importable and falls back to the original stable argsort (plus one
``bincount`` for the boundaries) otherwise — both strategies return
**bit-for-bit identical** results (the differential tests in
``tests/test_cache_engine.py`` prove it), so the choice is purely a
speed knob.
"""

from __future__ import annotations

import numpy as np

from repro.obs import metrics

try:  # scipy is optional; the argsort fallback is always available.
    from scipy.sparse import _sparsetools as _sparsetools
    _HAVE_COUNTING = hasattr(_sparsetools, "coo_tocsr")
except Exception:  # pragma: no cover - import-environment dependent
    _sparsetools = None
    _HAVE_COUNTING = False

__all__ = ["partition", "default_strategy", "counting_available",
           "PARTITION_STRATEGIES"]

#: Valid ``strategy`` values for :func:`partition`.
PARTITION_STRATEGIES = ("counting", "argsort")

#: scipy's sparsetools are compiled for 32-bit indices first; stay well
#: inside them (chunked traces are ~2^20 addresses anyway).
_COUNTING_MAX = (1 << 31) - 1


def counting_available() -> bool:
    """Whether the scipy counting-sort kernel can be used."""
    return _HAVE_COUNTING


def default_strategy() -> str:
    """The strategy :func:`partition` picks when none is forced."""
    return "counting" if _HAVE_COUNTING else "argsort"


def _narrow_for_argsort(keys: np.ndarray, num_keys: int) -> np.ndarray:
    """Narrowest dtype holding ``[0, num_keys)`` — numpy's radix path.

    ``num_keys == 2**15`` still fits int16 (max key 32767).
    """
    if num_keys <= (1 << 15):
        dtype = np.int16
    elif num_keys <= (1 << 31):
        dtype = np.int32
    else:  # pragma: no cover - absurd geometry
        dtype = np.int64
    return keys if keys.dtype == dtype else keys.astype(dtype)


def partition(keys: np.ndarray, num_keys: int,
              strategy: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Stable partition of ``keys`` (integers in ``[0, num_keys)``).

    Returns ``(order, bp)``:

    * ``order`` — the stable sorting permutation, identical to
      ``np.argsort(keys, kind="stable")``, as ``np.intp`` (the fastest
      fancy-index dtype);
    * ``bp`` — int64 group boundaries, ``len == num_keys + 1`` with
      ``bp[0] == 0`` and ``bp[-1] == len(keys)``: group ``k`` occupies
      ``order[bp[k]:bp[k + 1]]``. Empty groups are empty slices.

    ``strategy`` forces ``"counting"`` (scipy ``coo_tocsr``) or
    ``"argsort"`` (the pre-engine stable sort); ``None`` picks
    :func:`default_strategy`. A forced ``"counting"`` quietly falls
    back to ``"argsort"`` when scipy is unavailable or the input
    exceeds 32-bit indexing — results are identical either way.
    """
    if strategy is None:
        strategy = default_strategy()
    elif strategy not in PARTITION_STRATEGIES:
        raise ValueError(
            f"unknown partition strategy {strategy!r}; "
            f"valid: {PARTITION_STRATEGIES}")
    n = keys.size
    if strategy == "counting" and (
            not _HAVE_COUNTING or n > _COUNTING_MAX
            or num_keys > _COUNTING_MAX):
        strategy = "argsort"

    if n == 0:
        return (np.empty(0, dtype=np.intp),
                np.zeros(num_keys + 1, dtype=np.int64))

    if strategy == "counting":
        k32 = keys if keys.dtype == np.int32 else keys.astype(np.int32)
        pos = np.arange(n, dtype=np.int32)
        bp32 = np.zeros(num_keys + 1, dtype=np.int32)
        order32 = np.empty(n, dtype=np.int32)
        scratch = np.empty(n, dtype=np.int32)
        # COO->CSR with rows = keys, data = positions: the CSR column/
        # data arrays come out as the stable permutation and indptr as
        # the boundary prefix sum. ``pos`` is passed as both Aj and Ax
        # (read-only inputs may alias); only one output is kept.
        _sparsetools.coo_tocsr(num_keys, n, n, k32, pos, pos,
                               bp32, order32, scratch)
        metrics.inc("repro.cache.partition", strategy="counting")
        return order32.astype(np.intp), bp32.astype(np.int64)

    narrow = _narrow_for_argsort(keys, num_keys)
    order = np.argsort(narrow, kind="stable")
    counts = np.bincount(narrow, minlength=num_keys)
    bp = np.empty(num_keys + 1, dtype=np.int64)
    bp[0] = 0
    np.cumsum(counts, out=bp[1:])
    metrics.inc("repro.cache.partition", strategy="argsort")
    return order, bp
