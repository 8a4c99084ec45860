"""Miss classification: cold vs. conflict vs. capacity (the "3 Cs").

The paper's central argument is *which kind* of miss tiling and padding
remove (Sections 2-3): conflict misses inside the array tile are what
Euc3D/GcdPad/Pad defeat, capacity misses are what tiling itself
addresses, and cold misses are the floor no transformation touches.
The aggregate hit/miss counters of :class:`~repro.cache.base.CacheStats`
cannot make that distinction; this module can, using the standard
shadow-simulation definition:

* **cold** — first-ever access to the line (would miss at any size and
  associativity);
* **capacity** — a non-cold miss that *also* misses in a fully
  associative LRU cache of the same capacity (the working set plainly
  does not fit);
* **conflict** — a non-cold miss that *hits* in the fully associative
  shadow: only the mapping, not the capacity, is at fault — exactly
  the misses :mod:`repro.core.conflict` predicts and the padding
  strategies remove.

By construction ``cold + conflict + capacity`` equals the simulated
level's ``CacheStats.misses`` over the same access stream; tests and
the metrics contract rely on that identity.

The shadow simulation is a per-access Python loop (fully associative
LRU does not vectorize the way direct-mapped simulation does), so
classification is opt-in — the experiment runner attaches classifiers
only when the point policy asks for them (``--classify``, which needs
``--metrics`` or ``--run-dir`` to record into). Collecting metrics
alone attaches none.

Classifiers ride the same engine as every other run:
:class:`~repro.cache.engine.HierarchyEngine` hands each level's
classifier every window of that level's input in stream order with
its program-order miss mask, and the classification is split-invariant,
so the counts equal those of the per-chunk
:meth:`CacheHierarchy.access <repro.cache.hierarchy.CacheHierarchy.access>`
loop. Classification is incompatible with
segment templates (:mod:`repro.experiments.extrapolate`) — skipped
segments are never simulated, so their misses could not be classified.
Classification takes precedence: a classified point is simulated in
full (extrapolation reason ``classifiers``), so under ``--classify``
``repro.sim.miss_class`` always sums to ``repro.sim.misses``.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.cache.params import CacheParams

__all__ = ["MISS_CLASSES", "MissClassifier"]

MISS_CLASSES = ("cold", "conflict", "capacity")


class MissClassifier:
    """Classifies one cache level's misses via a shadow LRU simulation.

    Feed it exactly the access stream the level saw (the hierarchy does
    this when classifiers are attached): :meth:`classify` takes the
    chunk of byte addresses and the level's miss mask for that chunk.

    Optionally attributes misses to arrays by address range
    (``arrays`` is a list of ``(name, lo_byte, hi_byte)`` with
    half-open, non-overlapping, sorted ranges).
    """

    def __init__(self, params: CacheParams,
                 arrays: list[tuple[str, int, int]] | None = None):
        self.params = params
        self._line_shift = int(params.line_bytes).bit_length() - 1
        self._capacity = params.num_lines
        self._shadow: OrderedDict[int, None] = OrderedDict()
        self._seen: set[int] = set()
        self.counts: dict[str, int] = {c: 0 for c in MISS_CLASSES}
        self._array_names: list[str] = []
        self._array_bounds: np.ndarray | None = None
        if arrays:
            arrays = sorted(arrays, key=lambda a: a[1])
            self._array_names = [a[0] for a in arrays]
            # Flat boundary list [lo0, hi0, lo1, hi1, ...]; searchsorted
            # puts an address at an odd index iff it falls in a range.
            self._array_bounds = np.asarray(
                [b for a in arrays for b in (a[1], a[2])], dtype=np.int64)
        self.by_array: dict[str, int] = {n: 0 for n in self._array_names}

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        """Misses classified so far (== the level's misses)."""
        return sum(self.counts.values())

    def classify(self, byte_addrs: np.ndarray, miss_mask: np.ndarray) -> None:
        """Account one chunk: the level's input stream and miss mask."""
        byte_addrs = np.asarray(byte_addrs, dtype=np.int64)
        if byte_addrs.size == 0:
            return
        lines = (byte_addrs >> self._line_shift).tolist()
        missed = np.asarray(miss_mask, dtype=bool).tolist()

        shadow = self._shadow
        seen = self._seen
        capacity = self._capacity
        counts = self.counts
        for line, miss in zip(lines, missed):
            in_shadow = line in shadow
            if in_shadow:
                shadow.move_to_end(line)
            else:
                shadow[line] = None
                if len(shadow) > capacity:
                    shadow.popitem(last=False)
            if miss:
                if line not in seen:
                    counts["cold"] += 1
                elif in_shadow:
                    counts["conflict"] += 1
                else:
                    counts["capacity"] += 1
            seen.add(line)

        if self._array_bounds is not None:
            self._attribute(byte_addrs[np.asarray(miss_mask, dtype=bool)])

    def _attribute(self, miss_addrs: np.ndarray) -> None:
        """Bucket miss addresses into registered array ranges."""
        if miss_addrs.size == 0:
            return
        slots = np.searchsorted(self._array_bounds, miss_addrs, side="right")
        inside = (slots % 2) == 1
        for slot, n in zip(*np.unique(slots[inside], return_counts=True)):
            self.by_array[self._array_names[int(slot) // 2]] += int(n)

    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Mirror a cache invalidation: forget shadow *contents* only.

        ``seen`` lines and accumulated counts survive — a re-fetch after
        an invalidation is not a cold miss.
        """
        self._shadow.clear()

    def reset(self) -> None:
        """Forget everything, including counts (a fresh classifier)."""
        self._shadow.clear()
        self._seen.clear()
        self.counts = {c: 0 for c in MISS_CLASSES}
        self.by_array = {n: 0 for n in self._array_names}
