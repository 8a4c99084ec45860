"""Shared wall-clock timing helpers for benchmarks.

Every timing in ``benchmarks/`` (``overhead_smoke.py``, the
associative speed gates of ``test_bench_sweep_perf.py``, ad-hoc
scripts) needs the same three lines of monotonic-clock boilerplate;
this module is the single copy. All timings use
:func:`time.perf_counter` — monotonic, highest available resolution,
immune to wall-clock adjustments.
"""

from __future__ import annotations

import time
from typing import Any, Callable, TypeVar

__all__ = ["Stopwatch", "best_of", "time_call"]

T = TypeVar("T")


class Stopwatch:
    """Context manager measuring the elapsed wall-clock of its block.

    >>> with Stopwatch() as sw:
    ...     work()
    >>> sw.seconds  # doctest: +SKIP
    0.0123
    """

    seconds: float

    def __init__(self) -> None:
        self.seconds = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0


def time_call(fn: Callable[[], T]) -> tuple[T, float]:
    """Run ``fn()`` once; return ``(result, seconds)``."""
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def best_of(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Fastest of ``repeats`` timed runs of ``fn()``, in seconds.

    The minimum — not the mean — is the robust statistic on a loaded
    shared machine: external interference only ever adds time.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    return min(time_call(fn)[1] for _ in range(repeats))
