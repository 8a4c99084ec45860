"""Typed option bundles for the experiment harness.

Every execution choice of a sweep or a point travels in one of two
frozen dataclasses:

* :class:`SweepOptions` — everything a *sweep* may carry: resilience
  (checkpoint journal, per-point budget), parallelism (worker count,
  hard point timeout), and reuse (persistent point cache). Passed as
  one ``options=`` argument.
* :class:`PointPolicy` — everything *one point's* execution may carry,
  passed to ``run_point(..., policy=)``.

Both are frozen (hashable, safe to share across threads and to ship to
worker processes) and validate in ``__post_init__`` so a bad value
fails at construction, where the typo is, not deep inside a sweep.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.resilience import PointBudget

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.store import PointStore
    from repro.resilience import CheckpointJournal

__all__ = ["SweepOptions", "PointPolicy"]


@dataclass(frozen=True)
class SweepOptions:
    """Execution options for one sweep (``sweep``/``table3``/``figures``).

    ==================  ====================================================
    field               meaning
    ==================  ====================================================
    ``checkpoint``      journal path or open ``CheckpointJournal``;
                        completed points are recorded and skipped on resume
    ``budget``          per-point :class:`~repro.resilience.PointBudget`;
                        over-budget points degrade to the analytic model
    ``parallel``        worker-process count (1 = serial)
    ``point_timeout``   hard per-point wall clock, seconds (SIGKILL under
                        ``parallel``; an in-process wall budget serially)
    ``point_cache``     persistent point store — a directory path or an
                        open :class:`~repro.perf.store.PointStore`; points
                        are reused across processes and across runs
    ``classify``        3C-classify every exact point's misses
                        (:mod:`repro.cache.classify`) into the live
                        metrics registry; such points are simulated in
                        full
    ==================  ====================================================

    Every unclassified exact point runs the segment-template
    acceleration (:mod:`repro.experiments.extrapolate`) over trace
    chunks of the generator's one bound; neither is an option, since
    neither changes a statistic. A live metrics registry or event bus
    changes only what is recorded, never what is simulated.
    """

    checkpoint: "str | os.PathLike | CheckpointJournal | None" = None
    budget: PointBudget | None = None
    parallel: int = 1
    point_timeout: float | None = None
    point_cache: "str | os.PathLike | PointStore | None" = None
    classify: bool = False

    def __post_init__(self) -> None:
        if self.parallel < 1:
            raise ConfigurationError(
                f"parallel must be >= 1, got {self.parallel}")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ConfigurationError(
                f"point_timeout must be positive, got {self.point_timeout}")

    def point_policy(self, journal=None, store=None) -> "PointPolicy":
        """The per-point policy this sweep implies in-process.

        ``journal``/``store`` are the *opened* resources resolved from
        :attr:`checkpoint`/:attr:`point_cache` by the runner. In-process
        there is no supervisor to SIGKILL an over-time point, so without
        a ``budget`` the ``point_timeout`` becomes a wall budget (a
        pooled sweep keeps :attr:`budget` and hands ``point_timeout`` to
        the supervisor instead).
        """
        budget = self.budget
        if budget is None and self.point_timeout is not None:
            budget = PointBudget(wall_seconds=self.point_timeout)
        return PointPolicy(budget=budget, journal=journal, store=store,
                           classify=self.classify)


@dataclass(frozen=True)
class PointPolicy:
    """How one point may be computed (``run_point(..., policy=)``).

    ==============  ========================================================
    field           meaning
    ==============  ========================================================
    ``analytic``    skip exact simulation; return the analytical miss-model
                    estimate (``degraded=True``)
    ``budget``      retry/degrade bounds for the exact simulation
    ``journal``     open checkpoint journal consulted before simulating and
                    recorded to after
    ``store``       open persistent point store, likewise
    ``classify``    attach shadow miss classifiers to the exact simulation;
                    the point is then simulated in full (extrapolation
                    reason ``classifiers``) and, under a live registry,
                    records ``repro.sim.miss_class``/``miss_array``
    ==============  ========================================================

    The default policy simulates the point exactly under the default
    budget (unbounded, two retries); the journal and the store are the
    only caches of points.
    """

    analytic: bool = False
    budget: PointBudget | None = None
    journal: "CheckpointJournal | None" = None
    store: "PointStore | None" = None
    classify: bool = False

    def __post_init__(self) -> None:
        if self.analytic and (self.budget is not None or self.classify):
            raise ConfigurationError(
                "an analytic policy simulates nothing: a budget or "
                "classification does not apply")
