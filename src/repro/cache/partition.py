"""Stable set-index partitioning: the sort under every cache simulator.

Every vectorized simulator in this package reduces to the same
primitive: group a window's accesses by set index while preserving
program order inside each group. :func:`partition` returns the stable
permutation together with the *occupied* sets and their group bounds,
both read off the sorted keys in O(window): a window's cost never
grows with the cache's set count, so a small window at a 32,768-set L2
costs what it costs at a 512-set L1.

Two strategies produce the permutation, **bit-for-bit identical**
(the differential tests in ``tests/test_cache_engine.py`` prove it):

* ``"argsort"`` — numpy's stable argsort of the keys narrowed to the
  smallest integer type holding them; up to 2**15 keys that is a radix
  sort, linear in the window;
* ``"counting"`` — scipy's ``coo_tocsr``: COO->CSR conversion *is*
  "counting-sort rows, carrying column/data along", so feeding it the
  set indices as rows and positions as data yields the stable
  permutation. Its row-pointer array is O(num_keys), so it is picked
  only for windows large against the key count (or keys too wide for
  the radix path) and only when scipy is importable.
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


def default_strategy(n: int, num_keys: int) -> str:
    """The strategy :func:`partition` picks for ``n`` keys when none is
    forced: counting only where its O(``num_keys``) row pointers are
    amortized (``n >= 2 * num_keys``) or the keys are too wide for the
    radix argsort."""
    if _HAVE_COUNTING and (n >= 2 * num_keys or num_keys > (1 << 15)):
        return "counting"
    return "argsort"


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


def partition(keys: np.ndarray, num_keys: int, strategy: str | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable partition of ``keys`` (integers in ``[0, num_keys)``).

    Returns ``(order, occ, bounds)``:

    * ``order`` — the stable sorting permutation, identical to
      ``np.argsort(keys, kind="stable")``, as ``np.intp`` (the fastest
      fancy-index dtype);
    * ``occ`` — the occupied keys, ascending, as ``np.intp``;
    * ``bounds`` — int64 group bounds, ``len == len(occ) + 1`` with
      ``bounds[0] == 0`` and ``bounds[-1] == len(keys)``: key ``occ[g]``
      occupies ``order[bounds[g]:bounds[g + 1]]``.

    ``occ`` and ``bounds`` cost O(``len(keys)``) whatever ``num_keys``
    is: they are read off the sorted keys, or off the counting path's
    row pointers when those are no longer than the window. ``strategy``
    forces ``"counting"`` (scipy ``coo_tocsr``) or ``"argsort"``;
    ``None`` picks :func:`default_strategy`. A forced ``"counting"``
    quietly falls back to ``"argsort"`` when scipy is unavailable or the
    input exceeds 32-bit indexing — results are identical either way.
    """
    n = keys.size
    if strategy is None:
        strategy = default_strategy(n, num_keys)
    elif strategy not in PARTITION_STRATEGIES:
        raise ValueError(
            f"unknown partition strategy {strategy!r}; "
            f"valid: {PARTITION_STRATEGIES}")
    if strategy == "counting" and (
            not _HAVE_COUNTING or n > _COUNTING_MAX
            or num_keys > _COUNTING_MAX):
        strategy = "argsort"

    if n == 0:
        return (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
                np.zeros(1, dtype=np.int64))
    metrics.inc("repro.cache.partition", strategy=strategy)

    if strategy == "counting":
        k = keys if keys.dtype == np.int32 else keys.astype(np.int32)
        pos = np.arange(n, dtype=np.int32)
        indptr = np.zeros(num_keys + 1, dtype=np.int32)
        order32 = np.empty(n, dtype=np.int32)
        scratch = np.empty(n, dtype=np.int32)
        # COO->CSR with rows = keys, data = positions: the CSR column/
        # data arrays come out as the stable permutation and indptr as
        # the group-bound prefix sum. ``pos`` is passed as both Aj and
        # Ax (read-only inputs may alias); only one output is kept.
        _sparsetools.coo_tocsr(num_keys, n, n, k, pos, pos,
                               indptr, order32, scratch)
        order = order32.astype(np.intp)
        if num_keys <= n:
            occ = np.flatnonzero(indptr[1:] > indptr[:-1])
            bounds = np.empty(occ.size + 1, dtype=np.int64)
            bounds[:-1] = indptr[occ]
            bounds[-1] = n
            return order, occ, bounds
    else:
        k = _narrow_for_argsort(keys, num_keys)
        order = np.argsort(k, kind="stable")
    ks = k[order]
    cuts = np.flatnonzero(ks[1:] != ks[:-1])
    bounds = np.empty(cuts.size + 2, dtype=np.int64)
    bounds[0] = 0
    np.add(cuts, 1, out=bounds[1:-1])
    bounds[-1] = n
    return order, ks[bounds[:-1]].astype(np.intp), bounds
