"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing configuration mistakes from algorithmic dead ends.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigurationError(ReproError):
    """A parameter combination is invalid (e.g. non power-of-two cache)."""


class CacheGeometryError(ConfigurationError):
    """Cache geometry is inconsistent (size, line size, associativity)."""


class LayoutError(ConfigurationError):
    """An array layout or padding specification is invalid."""


class TransformError(ReproError):
    """A loop transformation cannot be applied to the given nest."""


class IllegalTransformError(TransformError):
    """The transformation would violate a data dependence."""


class TileSelectionError(ReproError):
    """No admissible tile size exists for the given constraints."""


class TraceError(ReproError):
    """A reference trace could not be generated or consumed."""


class ExperimentError(ReproError):
    """An experiment harness was misconfigured or produced no data."""


class RetryableError(ReproError):
    """A transient failure; the operation may succeed if retried.

    Raised (or injected) for failures that are plausibly environmental —
    an interrupted trace generation, a flaky I/O layer — as opposed to
    deterministic configuration errors, which retrying cannot fix.
    """


class BudgetExceededError(ReproError):
    """A per-point execution budget (wall clock or trace length) ran out.

    Not retryable by definition: re-running the same exact simulation
    would exceed the same budget. Callers degrade to the analytic model
    instead (see :mod:`repro.experiments.runner`).
    """


class StorageError(ReproError):
    """A durable write or read failed at the filesystem level (ENOSPC,
    EIO, a failed fsync). The atomic writer guarantees the *old* artifact
    is intact when this is raised — the failure is surfaced, never a torn
    file."""


class IntegrityError(ReproError):
    """A durable record failed its integrity check (checksum mismatch,
    truncated or type-mangled content). The damaged artifact is
    quarantined, never served; ``repro fsck`` reports and repairs."""


class FsckError(ReproError):
    """``repro fsck`` was pointed at something that is neither a
    checkpoint journal file nor a point-store directory."""


class LockError(StorageError):
    """An advisory file lock could not be acquired (timeout on a lock
    held by a live process, or an unbreakable stale lock)."""


class SweepInterrupted(ExperimentError):
    """A sweep drained gracefully after SIGINT/SIGTERM: in-flight points
    finished and were journaled, pending points were skipped. The
    journal is resumable; the CLI maps this to exit code 130."""

    def __init__(self, message: str, *, signum: int | None = None,
                 completed: int = 0, skipped: int = 0):
        super().__init__(message)
        self.signum = signum
        self.completed = completed
        self.skipped = skipped


class CheckpointError(ExperimentError):
    """A checkpoint journal is unusable: missing header, corrupted
    beyond the recoverable trailing line, written by a newer format
    version, written under a different configuration fingerprint than
    the resuming run's, or once adopted across configurations (its
    header carries ``adopted_from``)."""


class PoolError(ExperimentError):
    """The supervised worker pool was misused (duplicate task keys,
    unusable platform) — distinct from worker *failures*, which are
    retried and quarantined rather than raised."""


class ConvergenceError(ReproError):
    """An iterative solver failed to reach its convergence target."""
