"""Per-point execution budgets and bounded retry with backoff.

A :class:`PointBudget` bounds what one experiment point may cost:

* ``wall_seconds`` — a deadline for the exact trace simulation; the
  simulation loop checks it between trace chunks and raises
  :class:`repro.errors.BudgetExceededError` when crossed;
* ``max_refs`` — a trace-length bound (references simulated), the
  deterministic twin of the wall clock for reproducible tests and for
  machines whose speed you do not know in advance;
* ``max_retries``/``backoff_seconds`` — how many times a
  :class:`repro.errors.RetryableError` is retried, sleeping
  ``backoff * 2**attempt`` between attempts.

Budget exhaustion is deliberately *not* retryable: re-running the same
exact simulation would exceed the same budget, so callers degrade to
the analytic miss model instead (see
``run_point(..., policy=PointPolicy(budget=...))``).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.errors import BudgetExceededError, ConfigurationError, RetryableError

__all__ = ["PointBudget", "Deadline", "run_with_retries"]

T = TypeVar("T")

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PointBudget:
    """Resource bounds for simulating one (kernel, strategy, N) point.

    Frozen (hashable) so budgeted results can be memoized. ``None``
    disables the corresponding bound; the default budget is unbounded
    with two retries. ``max_refs`` counts references *simulated*, not
    the point's trace length: planes the steady-state extrapolation
    skips cost nothing, so an extrapolated point can stay exact under a
    bound its full trace would exceed.
    """

    wall_seconds: float | None = None
    max_refs: int | None = None
    max_retries: int = 2
    backoff_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.wall_seconds is not None and self.wall_seconds <= 0:
            raise ConfigurationError(
                f"wall_seconds must be positive, got {self.wall_seconds}")
        if self.max_refs is not None and self.max_refs <= 0:
            raise ConfigurationError(
                f"max_refs must be positive, got {self.max_refs}")
        if self.max_retries < 0 or self.backoff_seconds < 0:
            raise ConfigurationError(
                f"retries/backoff must be non-negative: {self}")

    @property
    def bounded(self) -> bool:
        """Whether any execution bound (wall or trace length) is set."""
        return self.wall_seconds is not None or self.max_refs is not None


class Deadline:
    """A budget instantiated against a clock, checked cheaply in loops."""

    def __init__(self, budget: PointBudget,
                 clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._expires = (None if budget.wall_seconds is None
                         else clock() + budget.wall_seconds)
        self._max_refs = budget.max_refs
        self.refs_seen = 0

    def check(self, new_refs: int = 0) -> None:
        """Account ``new_refs`` simulated references; raise if over budget."""
        self.refs_seen += new_refs
        if self._max_refs is not None and self.refs_seen > self._max_refs:
            raise BudgetExceededError(
                f"trace budget exceeded: {self.refs_seen} refs simulated "
                f"> max_refs {self._max_refs}")
        if self._expires is not None and self._clock() > self._expires:
            raise BudgetExceededError(
                f"wall-clock budget exceeded after {self.refs_seen} refs")


def run_with_retries(fn: Callable[[], T], budget: PointBudget,
                     sleep: Callable[[float], None] = time.sleep) -> T:
    """Call ``fn`` with the budget's retry policy.

    :class:`RetryableError` triggers up to ``max_retries`` re-attempts
    with exponential backoff; the last one is re-raised when the policy
    is exhausted. Everything else — including
    :class:`BudgetExceededError` — propagates immediately.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except RetryableError as exc:
            if attempt >= budget.max_retries:
                raise
            # Lazy import: obs depends on resilience.atomic, so the
            # reverse edge must not exist at module import time.
            from repro.obs import events, metrics

            log.warning("retryable failure (attempt %d/%d): %s",
                        attempt + 1, budget.max_retries, exc)
            events.emit("retry", attempt=attempt + 1,
                        max_retries=budget.max_retries,
                        error=type(exc).__name__)
            metrics.inc("repro.resilience.retries")
            if budget.backoff_seconds:
                sleep(budget.backoff_seconds * (2 ** attempt))
            attempt += 1
