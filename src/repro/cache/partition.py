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
           "PARTITION_STRATEGIES", "run_line_intervals"]

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


# ----------------------------------------------------------------------
# closed-form decomposition of affine runs (no address expansion)
# ----------------------------------------------------------------------

def run_line_intervals(bases: np.ndarray, strides: np.ndarray,
                       counts: np.ndarray, line_shift: int
                       ) -> tuple[np.ndarray, ...]:
    """Per-cache-line intervals of affine runs, in closed form.

    Run ``(g, c)`` touches ``bases[g, c] + t * strides[g]`` for
    ``t = 0 .. counts[g] - 1``. With a positive stride no larger than
    the line size (``1 << line_shift``), the run's line ids are the
    consecutive integers ``bases[g,c] >> line_shift`` through
    ``last >> line_shift``, and the iterations touching line ``L``
    form the contiguous interval ``ceil((L << line_shift - base) /
    stride) <= t < ceil(((L+1) << line_shift - base) / stride)`` —
    all computed with integer vector arithmetic, never expanding an
    address. (Set indices are the low bits of the line ids, so the
    same decomposition *is* the per-set sub-run decomposition; their
    periodicity in ``t`` is what makes the closed form possible.)

    Returns ``(run, q, line, p)``, one row per interval in
    ``(run, line)`` order, where ``run = g * n_refs + c`` indexes the
    flattened runs (int32), ``q`` is the interval's ordinal within its
    run (int32), ``line`` the absolute line id (int64), and ``p`` the
    interleaved-stream position of the interval's first access
    (``segment_offset + t_first * n_refs + c``), unique per interval
    (int32 — the caller bounds windows below 2**31 positions).

    For power-of-two strides (the overwhelmingly common case: unit or
    constant element-count steps of power-of-two element sizes) the
    interval start times are *affine in q*: with ``s = 2**sh`` and
    ``A = (lo << line_shift) - base + s - 1``, interval ``q >= 1``
    starts at ``t = (A >> sh) + (q << (line_shift - sh))`` exactly,
    because ``q << line_shift`` is a multiple of ``2**sh`` and floors
    distribute over it. That removes every per-interval division (and
    the per-interval shift): ``p`` is one multiply-add off two tiny
    per-run tables, with the ``q == 0`` entries (which start at
    ``t = 0`` by definition) patched by a per-run scatter.

    A zero stride is only valid for ``counts[g] == 1`` runs (a single
    interval). The caller gates eligibility (``0 < stride <=
    line_bytes``, or ``stride == 0`` with a single iteration); this
    function assumes it.
    """
    nseg, nrefs = bases.shape
    lo2 = bases >> line_shift
    hi2 = (bases + (counts[:, None] - 1) * strides[:, None]) >> line_shift
    m = (hi2 - lo2 + 1).reshape(-1)          # intervals per run
    total = int(m.sum())
    nruns = nseg * nrefs
    run = np.repeat(np.arange(nruns, dtype=np.int32), m)
    cum = np.zeros(nruns + 1, dtype=np.int32)
    np.cumsum(m, out=cum[1:])
    # Everything per-run lives on the (tiny) run axis; the per-interval
    # arrays are built from it with int32 gathers and arithmetic.
    rr = np.arange(nruns)
    g_run = rr // nrefs
    s_run = np.maximum(strides, 1)[g_run]    # stride 0 => single interval
    q = np.arange(total, dtype=np.int32)
    q -= cum[run]
    line = lo2.reshape(-1)[run]
    line += q
    off = np.zeros(nseg + 1, dtype=np.int64)
    np.cumsum(counts * nrefs, out=off[1:])
    pc_run = (off[g_run] + rr - g_run * nrefs).astype(np.int32)
    if bool(np.all(s_run & (s_run - 1) == 0)):
        sh_run = np.round(np.log2(s_run)).astype(np.int64)
        a_run = ((lo2.reshape(-1) << line_shift) - bases.reshape(-1)
                 + s_run - 1)
        t0_run = a_run >> sh_run
        step_run = (nrefs << (line_shift - sh_run)).astype(np.int32)
        p0_run = (t0_run * nrefs + pc_run).astype(np.int32)
        p = q * step_run[run]
        p += p0_run[run]
    else:  # rare: one true ceil-division pass
        x = line << line_shift
        x -= bases.reshape(-1)[run]
        sv = s_run[run]
        t = (x + sv - 1) // sv
        np.maximum(t, 0, out=t)
        p = (t * nrefs + pc_run[run].astype(np.int64)).astype(np.int32)
    p[cum[:-1]] = pc_run                      # q == 0 starts at t = 0
    return run, q, line, p
