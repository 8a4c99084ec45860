"""Checkpoint journal: restartable progress for long experiment sweeps.

A journal is a JSONL file. The first line is a header carrying the
journal format version and a *configuration fingerprint* (a stable hash
of everything that affects the numbers — cache geometry, machine model,
K extent, package version); every following line records one completed
unit of work as a versioned ``(key, payload)`` pair. A resuming run
re-opens the journal, verifies the fingerprint, and skips keys that are
already recorded — so a crash, OOM kill, or Ctrl-C mid-sweep loses at
most the point in flight.

Durability contract:

* every mutation rewrites the whole journal to a temp file and
  ``os.replace``s it into place (:mod:`repro.resilience.atomic`, which
  also fsyncs the directory), so the file on disk is always a valid
  prefix of the run; orphaned ``*.tmp`` files left by killed writers
  are swept on open (under the journal lock, so a live writer's temp
  file is never mistaken for an orphan);
* every header and point record carries a **CRC32C-style checksum**
  (:mod:`repro.resilience.integrity`) over its canonical JSON body; a
  record whose checksum does not match is *never silently served*;
* a *trailing* damaged line (the classic kill-during-write artifact on
  filesystems without atomic rename, or a truncated copy) is
  recoverable: it is dropped with a :class:`CheckpointWarning` and the
  corresponding point is simply re-run;
* a damaged line in the *middle* — malformed JSON or a checksum
  mismatch — a missing/invalid header, or a fingerprint mismatch raise
  :class:`repro.errors.CheckpointError`: silently mixing or dropping
  results would corrupt the science. ``repro fsck --repair`` inspects
  and quarantines damage explicitly. Nothing overrides a fingerprint
  mismatch. A header that carries ``adopted_from`` (a journal an older
  build adopted across configurations, keeping the fingerprint it held
  before) is refused too, since its records were computed under
  another configuration; ``repro fsck --repair`` keeps that mark.

Schema versioning: the header carries ``version`` and every point
record a ``v`` (both currently 3). Version 1 (PR 1) lacked per-record
``v``; version 2 (PR 3) lacked checksums. Both migrate losslessly —
the journal is rewritten at the current version on open, atomically
(a crash mid-migration leaves the old journal intact). Journals or
records from a *newer* format are refused rather than guessed at.

Concurrency: a journal may now have **multiple writers across
processes**. Every mutation happens under an advisory file lock
(:mod:`repro.resilience.locking`, the ``<journal>.lock`` sidecar) as a
read-merge-write: the on-disk records are re-read, merged with this
process's view, and the union is written back — so two sweeps resuming
the same journal never drop each other's points. Within one process the
supervised pool (:mod:`repro.resilience.pool`) additionally funnels all
worker results through the supervisor, which owns the journal object.

The journal is payload-agnostic (keys are tuples of JSON scalars,
payloads JSON-serializable dicts); the experiment runner layers
``PointResult`` (de)serialization on top.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pathlib
import warnings
from typing import Any, Iterable, Mapping

from repro.errors import CheckpointError
from repro.resilience import faults
from repro.resilience.atomic import atomic_write_text, cleanup_orphan_tmp
from repro.resilience.integrity import attach_crc, verify_crc
from repro.resilience.locking import FileLock

__all__ = ["CheckpointJournal", "CheckpointWarning", "fingerprint"]

#: Journal format: header ``version`` and per-record ``v``. Version 1
#: (PR 1) lacked the per-record ``v`` field; version 2 (PR 3) lacked
#: checksums. Both are read and migrated.
_FORMAT_VERSION = 3

#: First version whose records carry a ``crc`` checksum.
_CRC_VERSION = 3

log = logging.getLogger(__name__)


class CheckpointWarning(UserWarning):
    """A journal needed (successful) recovery — e.g. a truncated tail."""


def fingerprint(payload: Mapping[str, Any]) -> str:
    """Stable hex digest of a JSON-serializable configuration payload.

    Key order does not matter; non-JSON values are stringified (their
    ``repr`` participates in the hash, which is what frozen dataclass
    configs want).
    """
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _crc_ok(obj: dict) -> bool:
    """Record-level integrity: v3+ records must carry a matching crc.

    Pre-checksum formats carry nothing to verify, and records claiming
    a version *newer* than this build must be refused as such (by
    :func:`_records_from_lines`), not misdiagnosed as corrupt — a
    future format may well checksum differently.
    """
    rv = obj.get("v", obj.get("version", 1))
    if not isinstance(rv, int) or rv < _CRC_VERSION or rv > _FORMAT_VERSION:
        return True
    return verify_crc(obj)


def _parse_lines(path: pathlib.Path) -> list[dict]:
    """Parse journal lines, recovering from a damaged trailing line.

    Rejects (with :class:`CheckpointError`) malformed JSON or checksum
    mismatches anywhere but the last line; the fault-injectable read
    path surfaces disk read errors as :class:`CheckpointError` too.
    """
    if faults.io_check("read", path) is not None:
        raise CheckpointError(
            f"checkpoint {path} could not be read (injected EIO)")
    try:
        raw = path.read_text().splitlines()
    except OSError as exc:
        raise CheckpointError(
            f"checkpoint {path} could not be read ({exc})") from exc
    # Trailing blank lines are not corruption, just ignore them.
    while raw and not raw[-1].strip():
        raw.pop()
    parsed: list[dict] = []
    for i, line in enumerate(raw):
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict) or "kind" not in obj:
                raise ValueError("not a journal record")
            if not _crc_ok(obj):
                raise ValueError("checksum mismatch")
        except ValueError as exc:
            # Lazy import: obs depends on resilience.atomic, so the
            # reverse edge must not exist at module import time.
            from repro.obs import events, metrics

            if "checksum" in str(exc):
                metrics.inc("repro.integrity.crc_failures",
                            artifact="journal")
            if i == len(raw) - 1:
                warnings.warn(
                    f"checkpoint {path}: dropping damaged trailing line "
                    f"{i + 1} ({exc}); the interrupted point will be re-run",
                    CheckpointWarning, stacklevel=3)
                events.emit("checkpoint_recovered", path=str(path),
                            line=i + 1, reason=str(exc))
                break
            raise CheckpointError(
                f"checkpoint {path} is corrupt at line {i + 1} "
                f"(not the trailing line, cannot recover): {exc}; "
                f"run `repro fsck {path} --repair` to quarantine the "
                f"damage") from None
        parsed.append(obj)
    return parsed


def _records_from_lines(path: pathlib.Path,
                        lines: list[dict]) -> tuple[dict, dict[tuple, dict],
                                                    bool]:
    """Validate parsed lines into (header, records, needs_migration)."""
    header = lines[0]
    if header.get("kind") != "header":
        raise CheckpointError(
            f"checkpoint {path} has no header line; not a journal "
            f"(or written by an incompatible version)")
    if header.get("adopted_from") is not None:
        raise CheckpointError(
            f"checkpoint {path} was adopted from configuration "
            f"{header['adopted_from']!r}, so its points were computed "
            f"under another configuration; refusing to serve them — "
            f"delete the file to start a fresh sweep")
    version = header.get("version")
    if not isinstance(version, int) or version < 1:
        raise CheckpointError(
            f"checkpoint {path} has an invalid format version "
            f"{version!r}")
    if version > _FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} was written by a newer repro "
            f"(journal format v{version}; this build reads up to "
            f"v{_FORMAT_VERSION}) — upgrade to resume it")
    migrate = version < _FORMAT_VERSION
    records: dict[tuple, dict] = {}
    for rec in lines[1:]:
        if rec.get("kind") != "point" or "key" not in rec:
            raise CheckpointError(
                f"checkpoint {path}: unexpected record kind "
                f"{rec.get('kind')!r}")
        rv = rec.get("v", 1)  # v-less records are the PR 1 format
        if not isinstance(rv, int) or rv < 1:
            raise CheckpointError(
                f"checkpoint {path}: invalid record version {rv!r}")
        if rv > _FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {path}: record version v{rv} is newer "
                f"than this build reads (v{_FORMAT_VERSION})")
        if rv < _FORMAT_VERSION:
            migrate = True
        records[tuple(rec["key"])] = rec.get("payload", {})
    return header, records, migrate


class CheckpointJournal:
    """Append-only journal of completed work units, keyed and fingerprinted.

    Use :meth:`open` — the constructor is internal.
    """

    def __init__(self, path: pathlib.Path, fp: str,
                 records: dict[tuple, dict]):
        self._path = path
        self._fingerprint = fp
        self._records = records
        self._lock = FileLock(path.with_name(path.name + ".lock"))
        #: (st_mtime_ns, st_size) of the file as this process last wrote
        #: or read it — lets ``record()`` skip the merge re-parse when no
        #: other writer has touched the journal in between.
        self._seen_stat: tuple[int, int] | None = None

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str | pathlib.Path, fp: str) -> "CheckpointJournal":
        """Open (resuming) or create a journal bound to fingerprint ``fp``.

        Raises :class:`CheckpointError` if an existing journal was
        written under a different fingerprint, carries an
        ``adopted_from`` mark, comes from a newer format version, or is
        unrecoverably corrupt. Runs under the journal's file lock, so
        concurrent opens/writers never interleave; orphaned temp files
        from killed writers are removed.
        """
        path = pathlib.Path(path)
        journal = cls(path, fp, {})
        with journal._lock:
            journal._open_locked()
        return journal

    def _open_locked(self) -> None:
        from repro.obs import events, metrics

        path = self._path
        orphans = cleanup_orphan_tmp(path)
        if orphans:
            log.info("checkpoint %s: removed %d orphaned temp file(s) "
                     "left by a killed writer", path, len(orphans))
            events.emit("checkpoint_orphans_removed", path=str(path),
                        count=len(orphans))
            metrics.inc("repro.resilience.checkpoint.orphans_removed",
                        len(orphans))
        if not path.exists():
            self._flush()
            return

        lines = _parse_lines(path)
        if not lines:
            # Recovered down to nothing (e.g. truncated header): start over.
            self._flush()
            return
        header, records, migrate = _records_from_lines(path, lines)
        theirs = header.get("fingerprint")
        if theirs != self._fingerprint:
            raise CheckpointError(
                f"checkpoint {path} was written under a different "
                f"configuration: journal fingerprint {theirs!r} vs "
                f"this run's {self._fingerprint!r}; refusing to mix "
                f"results — delete the file or match the original "
                f"configuration")
        self._records = records
        if migrate:
            log.info("checkpoint %s: rewriting at journal format v%d",
                     path, _FORMAT_VERSION)
            self._flush()
        else:
            self._note_stat()
        if records:
            log.info("resuming from checkpoint %s: %d points already done",
                     path, len(records))
            events.emit("checkpoint_resume", path=str(path),
                        points=len(records))
            metrics.inc("repro.resilience.checkpoint.resumed_points",
                        len(records))

    # ------------------------------------------------------------------
    @property
    def path(self) -> pathlib.Path:
        return self._path

    @property
    def fingerprint(self) -> str:
        return self._fingerprint

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: Iterable) -> bool:
        return tuple(key) in self._records

    def get(self, key: Iterable) -> dict | None:
        """Recorded payload for ``key``, or None if not yet journaled."""
        return self._records.get(tuple(key))

    def keys(self) -> list[tuple]:
        return list(self._records)

    def record(self, key: Iterable, payload: Mapping[str, Any]) -> None:
        """Journal one completed unit of work (atomically durable).

        Runs as a read-merge-write under the journal's file lock:
        records another process flushed since our last look are adopted
        before the union is written back, so concurrent sweeps sharing
        one journal never lose each other's points.
        """
        from repro.obs import metrics

        fault = faults.supervisor_check("record")
        if fault is not None and fault.before:
            faults.fire_supervisor(fault)
        self._records[tuple(key)] = dict(payload)
        with self._lock:
            self._merge_from_disk()
            self._flush()
        metrics.inc("repro.resilience.checkpoint.records")
        if fault is not None and not fault.before:
            faults.fire_supervisor(fault)

    # ------------------------------------------------------------------
    def _note_stat(self) -> None:
        try:
            st = os.stat(self._path)
            self._seen_stat = (st.st_mtime_ns, st.st_size)
        except OSError:  # pragma: no cover - racing unlink
            self._seen_stat = None

    def _merge_from_disk(self) -> None:
        """Adopt records flushed by other processes (lock held).

        Our in-memory record wins on a key both sides have — payloads
        for a given key are deterministic, so the difference can only
        be formatting. A concurrent writer under a *different*
        fingerprint is a configuration error, not mergeable data.
        """
        try:
            st = os.stat(self._path)
        except OSError:
            return  # journal vanished (or first flush): nothing to merge
        if self._seen_stat == (st.st_mtime_ns, st.st_size):
            return  # nobody else wrote since we last looked
        lines = _parse_lines(self._path)
        if not lines:
            return
        header, theirs, _ = _records_from_lines(self._path, lines)
        if header.get("fingerprint") != self._fingerprint:
            raise CheckpointError(
                f"checkpoint {self._path} was rewritten under a different "
                f"fingerprint ({header.get('fingerprint')!r}) while this "
                f"run (fingerprint {self._fingerprint!r}) held it open; "
                f"refusing to mix results")
        merged = 0
        for key, payload in theirs.items():
            if key not in self._records:
                self._records[key] = payload
                merged += 1
        if merged:
            from repro.obs import events, metrics

            log.info("checkpoint %s: merged %d point(s) recorded by a "
                     "concurrent writer", self._path, merged)
            events.emit("checkpoint_merged", path=str(self._path),
                        points=merged)
            metrics.inc("repro.resilience.checkpoint.merged_points", merged)

    def _flush(self) -> None:
        header = {"kind": "header", "version": _FORMAT_VERSION,
                  "fingerprint": self._fingerprint}
        lines = [json.dumps(attach_crc(header))]
        for key, payload in self._records.items():
            lines.append(json.dumps(attach_crc(
                {"kind": "point", "v": _FORMAT_VERSION,
                 "key": list(key), "payload": payload})))
        atomic_write_text(self._path, "\n".join(lines) + "\n")
        self._note_stat()
