"""Typed option bundles for the experiment harness.

Every execution choice of a sweep or a point travels in one of two
frozen dataclasses:

* :class:`SweepOptions` — everything a *sweep* may carry: resilience
  (checkpoint journal, per-point budget), parallelism (worker count,
  hard point timeout), and performance (persistent point cache, trace
  chunk size). Passed as one ``options=`` argument.
* :class:`PointPolicy` — everything *one point's* execution may carry,
  passed to ``run_point(..., policy=)``. Its :attr:`~PointPolicy.plain`
  decides whether the in-process memo may serve the point.

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
    ``resume_force``    adopt a checkpoint whose config fingerprint does
                        not match this run
    ``point_cache``     persistent point store — a directory path or an
                        open :class:`~repro.perf.store.PointStore`; points
                        are reused across processes and across runs
    ``chunk_size``      addresses per simulated trace chunk (``None`` =
                        the generator default, ``0`` = unbounded)
    ==================  ====================================================

    Every exact point runs the steady-state K-plane extrapolation
    (:mod:`repro.experiments.extrapolate`); it is not an option, since
    it is exact.
    """

    checkpoint: "str | os.PathLike | CheckpointJournal | None" = None
    budget: PointBudget | None = None
    parallel: int = 1
    point_timeout: float | None = None
    resume_force: bool = False
    point_cache: "str | os.PathLike | PointStore | None" = None
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if self.parallel < 1:
            raise ConfigurationError(
                f"parallel must be >= 1, got {self.parallel}")
        if self.point_timeout is not None and self.point_timeout <= 0:
            raise ConfigurationError(
                f"point_timeout must be positive, got {self.point_timeout}")
        _check_chunk_size(self.chunk_size)

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
        return PointPolicy(budget=budget, journal=journal,
                           store=store, chunk_size=self.chunk_size)


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
    ``chunk_size``  addresses per trace chunk (``None`` = default bound,
                    ``0`` = unbounded); affects memory/timing only — the
                    simulated statistics are bit-for-bit independent of it
    ==============  ========================================================

    The default policy (all fields default) is the memoized exact fast
    path. Any non-default field routes around the in-process memo: the
    journal and store are then the caches of record.
    """

    analytic: bool = False
    budget: PointBudget | None = None
    journal: "CheckpointJournal | None" = None
    store: "PointStore | None" = None
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        _check_chunk_size(self.chunk_size)
        if self.analytic and (self.budget is not None
                              or self.chunk_size is not None):
            raise ConfigurationError(
                "an analytic policy simulates nothing: budget/chunk_size "
                "do not apply")

    @property
    def plain(self) -> bool:
        """True when the memoized exact fast path may serve this point."""
        return (not self.analytic and self.budget is None
                and self.journal is None and self.store is None
                and self.chunk_size is None)


def _check_chunk_size(chunk_size: int | None) -> None:
    if chunk_size is not None and chunk_size < 0:
        raise ConfigurationError(
            f"chunk_size must be >= 0 (0 = unbounded), got {chunk_size}")
