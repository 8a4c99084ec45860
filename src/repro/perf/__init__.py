"""Performance layer: the persistent point store and timing helpers.

Two pieces sitting beside (not inside) the experiment harness:

* :mod:`~repro.perf.store` — a content-addressed, on-disk **point
  store**: simulated :class:`~repro.experiments.runner.PointResult`
  payloads keyed by the run's ``config_fingerprint`` plus the point
  key, written atomically (:mod:`repro.resilience.atomic`) and evicted
  LRU under a byte budget (``REPRO_POINT_CACHE_BYTES``). Repeated
  ``table3``/``figures`` invocations — and the parallel pool's
  supervisor — skip already-simulated points across processes and
  across runs.
* :mod:`~repro.perf.timing` — the one copy of the monotonic-clock
  boilerplate shared by the perf-smoke gates (``benchmarks/``), so
  timing conventions (perf_counter, best-of-N) cannot drift between
  them.

The benchmark of record is ``perfbench/run.py``, outside the package.
"""

from repro.perf.store import PointStore, StoreInfo
from repro.perf.timing import Stopwatch, best_of, time_call

__all__ = ["PointStore", "StoreInfo", "Stopwatch", "best_of", "time_call"]
