"""Overhead smoke check: instrumentation must be near-free, off or on.

Run as a script (CI does):

    PYTHONPATH=src python benchmarks/overhead_smoke.py

Three assertions:

1. **Micro**: the disabled fast path of ``events.emit`` /
   ``metrics.inc`` costs well under a microsecond per call on any
   modern machine; we assert < 10 us/call.
2. **Macro**: one point simulated in full (RESID GcdPadNT, N = 200,
   NK = 11, whose mixed plane strides keep it off the segment
   templates) runs with the real disabled hooks and with
   ``metrics.inc``, ``metrics.observe``, ``events.emit`` and
   ``events.span`` replaced by bare no-ops, in :data:`PAIRS`
   back-to-back pairs (alternating which runs first). The median
   pair's hooked / bare ratio of process CPU time may be at most
   :data:`MAX_RATIO`. Both runs do the same simulation, so the ratio
   is the hooks' cost alone, whatever the machine's speed; CPU time
   leaves out the time the process waits for a busy host's cores, and
   pairing and the median leave out slow stretches of the host.
3. **Enabled**: one point costed from segment templates (RESID Pad,
   N = 200, NK = 30) runs plain and under a live ``MetricsRegistry``
   and ``EventBus(MemorySink())``, in :data:`PAIRS` alternating pairs
   of process CPU time. Both runs must report ``extrapolated`` —
   collecting metrics must not switch the point to a different
   simulation (3C classification is ``--classify``'s, not
   ``--metrics``') — and the median enabled / plain ratio may be at
   most :data:`MAX_ENABLED_RATIO`.

Exits non-zero with a message on failure.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time

from repro.obs import events, metrics
from repro.obs.events import EventBus, MemorySink
from repro.obs.metrics import MetricsRegistry
from repro.perf.timing import Stopwatch

#: Pairs the macro and enabled checks time (the median ratio counts).
PAIRS = 21
#: Largest hooked / bare CPU-time ratio the macro check accepts.
MAX_RATIO = 1.15
#: Largest enabled / plain CPU-time ratio the enabled check accepts.
MAX_ENABLED_RATIO = 1.2


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


def _bare(*args, **kwargs) -> None:
    return None


def _bare_span(*args, **kwargs) -> contextlib.nullcontext:
    return contextlib.nullcontext({})


#: The hooks the macro check replaces, and their bare stand-ins.
_STUBS = ((metrics, "inc", _bare), (metrics, "observe", _bare),
          (events, "emit", _bare), (events, "span", _bare_span))


def _cpu_seconds(fn) -> float:
    """Process CPU seconds of one ``fn()``."""
    t0 = time.process_time()
    fn()
    return time.process_time() - t0


def _bare_hooks(fn) -> float:
    """CPU seconds of one ``fn()`` with every hook in :data:`_STUBS`
    bare."""
    real = [(mod, name, getattr(mod, name)) for mod, name, _ in _STUBS]
    for mod, name, stub in _STUBS:
        setattr(mod, name, stub)
    try:
        return _cpu_seconds(fn)
    finally:
        for mod, name, fn_ in real:
            setattr(mod, name, fn_)


def _observed(fn) -> float:
    """CPU seconds of one ``fn()`` under a live registry and event
    bus."""
    with metrics.collect(MetricsRegistry()), \
            events.use(EventBus(MemorySink())):
        return _cpu_seconds(fn)


def _paired(measured, baseline) -> tuple[list[float], list[float]]:
    """:data:`PAIRS` back-to-back ``(measured(), baseline())`` CPU-time
    pairs, alternating which runs first; returns (ratios, measured)."""
    ratios, times = [], []
    for i in range(PAIRS):
        if i % 2:
            base = baseline()
            times.append(measured())
        else:
            times.append(measured())
            base = baseline()
        ratios.append(times[-1] / base)
    return ratios, times


def macro() -> float:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_point

    assert not metrics.enabled(), "a metrics registry is live"
    cfg = ExperimentConfig(nk=11)  # the depth the limit was set at

    def one_run() -> None:
        p = run_point("RESID", "GcdPadNT", 200, cfg)
        assert not p.extrapolated, "the point must be simulated in full"

    # Warm imports and caches off the clock, counting the hook calls.
    calls = 0
    real_inc = metrics.inc

    def counting_inc(*args, **kwargs):
        nonlocal calls
        calls += 1
        real_inc(*args, **kwargs)

    metrics.inc = counting_inc
    try:
        one_run()
    finally:
        metrics.inc = real_inc
    assert calls, "the point makes no hook calls"
    ratios, hooked = _paired(lambda: _cpu_seconds(one_run),
                             lambda: _bare_hooks(one_run))
    ratio = statistics.median(ratios)
    print(f"macro: full-simulation point ({calls} metrics.inc calls), "
          f"{statistics.median(hooked):.3f} CPU s with disabled hooks; "
          f"hooked / bare no-ops over {PAIRS} pairs: median {ratio:.3f} "
          f"(range {min(ratios):.3f}-{max(ratios):.3f}, limit {MAX_RATIO})")
    assert ratio <= MAX_RATIO, (
        f"disabled hooks cost {ratio:.2f}x a bare run (limit {MAX_RATIO})")
    return ratio


def enabled() -> float:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_point

    assert not metrics.enabled(), "a metrics registry is live"
    cfg = ExperimentConfig()

    def one_run() -> None:
        p = run_point("RESID", "Pad", 200, cfg)
        assert p.extrapolated, (
            "the point must be costed from templates, observed or not")

    # Warm imports and caches off the clock, and check both paths.
    one_run()
    _observed(one_run)
    ratios, observed = _paired(lambda: _observed(one_run),
                               lambda: _cpu_seconds(one_run))
    ratio = statistics.median(ratios)
    print(f"enabled: template-costed point, "
          f"{statistics.median(observed):.3f} CPU s under a live registry "
          f"and event bus; enabled / plain over {PAIRS} pairs: median "
          f"{ratio:.3f} (range {min(ratios):.3f}-{max(ratios):.3f}, "
          f"limit {MAX_ENABLED_RATIO})")
    assert ratio <= MAX_ENABLED_RATIO, (
        f"enabled instrumentation costs {ratio:.2f}x a plain run "
        f"(limit {MAX_ENABLED_RATIO})")
    return ratio


def main() -> int:
    try:
        micro()
        macro()
        enabled()
    except AssertionError as exc:
        print(f"overhead smoke FAILED: {exc}", file=sys.stderr)
        return 1
    print("overhead smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
