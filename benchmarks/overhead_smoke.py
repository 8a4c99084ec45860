"""Overhead smoke check: disabled instrumentation must be near-free.

Run as a script (CI does):

    PYTHONPATH=src python benchmarks/overhead_smoke.py

Two assertions, both deliberately generous so the check is robust on
loaded shared runners while still catching a real regression:

1. **Micro**: the disabled fast path of ``events.emit`` /
   ``metrics.inc`` costs well under a microsecond per call on any
   modern machine; we assert < 10 us/call.
2. **Macro**: one exact simulation with all instrumentation disabled
   finishes within an absolute wall-clock budget
   (``OVERHEAD_BUDGET_SECONDS``, default 60 — the uninstrumented seed
   ran the same point in well under 10s, so a hooks-gone-hot
   regression anywhere near the <5% overhead contract trips this).

Exits non-zero with a message on failure.
"""

from __future__ import annotations

import os
import sys

from repro.obs import events, metrics
from repro.perf.timing import Stopwatch, best_of


def micro() -> float:
    n = 200_000
    with Stopwatch() as sw:
        for _ in range(n):
            events.emit("never", x=1)
            metrics.inc("repro.never")
    per_call = sw.seconds / (2 * n)
    print(f"micro: disabled hook cost {per_call * 1e9:.0f} ns/call")
    assert per_call < 10e-6, f"disabled hook too slow: {per_call * 1e6:.1f} us"
    return per_call


def macro() -> None:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_point

    budget = float(os.environ.get("OVERHEAD_BUDGET_SECONDS", "60"))
    cfg = ExperimentConfig()

    def one_run() -> None:
        run_point("JACOBI", "GcdPad", 64, cfg)

    one_run()  # warm imports and lru caches off the clock
    instrumented_off = best_of(one_run, 3)
    print(f"macro: instrumented-off exact point took "
          f"{instrumented_off:.2f}s (budget {budget:.0f}s)")
    assert instrumented_off < budget, (
        f"instrumented-off runtime {instrumented_off:.1f}s exceeds "
        f"budget {budget:.0f}s")


def main() -> int:
    try:
        micro()
        macro()
    except AssertionError as exc:
        print(f"overhead smoke FAILED: {exc}", file=sys.stderr)
        return 1
    print("overhead smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
