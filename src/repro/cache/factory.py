"""The one place where cache geometry picks a simulator.

Every internal call site that needs a level simulator for a
:class:`~repro.cache.params.CacheParams` — hierarchy construction
(:class:`repro.cache.hierarchy.CacheHierarchy`), TLB modeling
(:func:`repro.cache.tlb.build_tlb`) — routes through
:func:`build_simulator`, so the geometry→implementation policy lives
here and nowhere else. Every choice is a
:class:`~repro.cache.base.CacheLevel` — ``set_index`` +
``access_grouped``, the one contract the hierarchy engine drives, plus
the LRU stacks on which every level records and costs the first-touch
templates of exact acceleration:

* ``assoc == 1`` — :class:`~repro.cache.direct_mapped.DirectMappedCache`,
  the partitioned segmented scan (fastest; it costs templates with one
  tag compare per set);
* ``assoc == 2`` — :class:`~repro.cache.two_way.TwoWayCache`, the
  run-head-compression specialization (cheaper than the general scan
  for exactly two ways);
* anything else, fully associative included —
  :class:`~repro.cache.assoc_scan.AssocScanCache`, the vectorized exact
  LRU stack-distance scan.

The scalar :class:`~repro.cache.set_assoc.SetAssociativeCache` is never
chosen: it remains the ground-truth reference the fast paths are
differentially tested against.
"""

from __future__ import annotations

from repro.cache.assoc_scan import AssocScanCache
from repro.cache.base import CacheLevel
from repro.cache.direct_mapped import DirectMappedCache
from repro.cache.params import CacheParams
from repro.cache.two_way import TwoWayCache

__all__ = ["build_simulator"]


def build_simulator(params: CacheParams) -> CacheLevel:
    """Pick the fastest exact simulator able to model ``params``."""
    if params.is_direct_mapped:
        return DirectMappedCache(params)
    if params.assoc == 2:
        return TwoWayCache(params)
    return AssocScanCache(params)
