"""``repro fsck``: verify (and optionally repair) durable artifacts.

Checkpoint journals and point stores carry per-record checksums
(:mod:`repro.resilience.integrity`); the readers quarantine damage
lazily as they trip over it. ``fsck`` is the eager counterpart: walk
an artifact end to end, report the integrity status of every record,
and — with ``--repair`` — quarantine what is damaged so subsequent
runs see a clean artifact. The CLI maps a damaged artifact to a
nonzero exit code, which is what lets CI gate on "the chaos run left
no corruption behind".

Verification is read-only and lock-free (atomic writers guarantee a
reader sees whole files). Repair takes the artifact's advisory lock —
it rewrites the journal / moves store entries, and must not interleave
with a live sweep's own rewrite.
"""

from __future__ import annotations

import json
import logging
import pathlib
from dataclasses import dataclass, field

from repro.errors import FsckError
from repro.resilience import checkpoint as _ckpt
from repro.resilience.atomic import atomic_write_text
from repro.resilience.integrity import (QUARANTINE_DIR, attach_crc,
                                        quarantine_file, verify_crc)
from repro.resilience.locking import FileLock

__all__ = ["FsckFinding", "FsckReport", "fsck_path", "fsck_journal",
           "fsck_store", "fsck_run", "fsck_ledger"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FsckFinding:
    """One record's verdict: where, what state, and why."""

    where: str          # "line 7" / entry path relative to the store root
    status: str         # ok | legacy | damaged | repaired | orphan | adopted
    detail: str = ""

    @property
    def bad(self) -> bool:
        return self.status in ("damaged", "repaired", "orphan", "adopted")


@dataclass
class FsckReport:
    """Everything ``repro fsck`` learned about one artifact."""

    target: str
    kind: str  # "journal" | "store" | "run" | "ledger"
    findings: list[FsckFinding] = field(default_factory=list)
    repaired: bool = False
    #: Fatal structural problem (unreadable, no header, ...), if any.
    fatal: str | None = None

    def add(self, where: str, status: str, detail: str = "") -> None:
        self.findings.append(FsckFinding(where, status, detail))

    @property
    def ok(self) -> bool:
        return self.fatal is None and not any(f.bad for f in self.findings)

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.status] = out.get(f.status, 0) + 1
        return out

    def render(self, *, verbose: bool = False) -> str:
        lines = [f"fsck {self.kind} {self.target}"]
        if self.fatal:
            lines.append(f"  FATAL: {self.fatal}")
        for f in self.findings:
            if not verbose and f.status == "ok":
                continue
            detail = f" ({f.detail})" if f.detail else ""
            lines.append(f"  {f.status:>8}  {f.where}{detail}")
        counts = ", ".join(f"{n} {s}" for s, n in sorted(self.counts.items()))
        verdict = "clean" if self.ok else (
            "repaired" if self.repaired else "DAMAGED")
        lines.append(f"  {verdict}: {counts or 'empty artifact'}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
def fsck_path(path: str | pathlib.Path, *, repair: bool = False,
              ) -> FsckReport:
    """Dispatch on artifact shape.

    A file is a checkpoint journal. A directory holding a
    ``manifest.json`` is one ledgered run; a directory whose children
    hold them is a run ledger (every run is checked); anything else
    directory-shaped is a point store.
    """
    path = pathlib.Path(path)
    if path.is_dir():
        from repro.obs.ledger import MANIFEST_NAME

        if (path / MANIFEST_NAME).is_file():
            return fsck_run(path, repair=repair)
        if any((d / MANIFEST_NAME).is_file() for d in path.iterdir()
               if d.is_dir()):
            return fsck_ledger(path, repair=repair)
        return fsck_store(path, repair=repair)
    if path.is_file():
        return fsck_journal(path, repair=repair)
    raise FsckError(f"{path}: no such journal file, store directory, "
                    f"run directory or run ledger")


# ----------------------------------------------------------------------
def fsck_journal(path: str | pathlib.Path, *,
                 repair: bool = False) -> FsckReport:
    """Verify every record of a checkpoint journal; optionally repair.

    Repair quarantines the original file (provenance preserved) and
    rewrites the journal, at the current format version, from exactly
    the records that verified — under the journal's lock so a live
    writer cannot interleave.
    """
    path = pathlib.Path(path)
    report = FsckReport(target=str(path), kind="journal")
    try:
        raw = path.read_text().splitlines()
    except OSError as exc:
        report.fatal = f"unreadable: {exc}"
        return report
    while raw and not raw[-1].strip():
        raw.pop()

    good: list[dict] = []
    header: dict | None = None
    for i, line in enumerate(raw):
        where = f"line {i + 1}"
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict) or "kind" not in obj:
                raise ValueError("not a journal record")
        except ValueError as exc:
            report.add(where, "damaged", f"unparseable: {exc}")
            continue
        if i == 0:
            if obj.get("kind") != "header":
                report.fatal = "first line is not a journal header"
                report.add(where, "damaged", "missing header")
                continue
            header = obj
            version = obj.get("version")
            if not isinstance(version, int) or version < 1:
                report.fatal = f"invalid format version {version!r}"
                report.add(where, "damaged", report.fatal)
            elif version > _ckpt._FORMAT_VERSION:
                report.fatal = (f"journal format v{version} is newer than "
                                f"this build (v{_ckpt._FORMAT_VERSION})")
                report.add(where, "damaged", report.fatal)
            elif version < _ckpt._CRC_VERSION:
                report.add(where, "legacy",
                           f"v{version} header (pre-checksum)")
            elif not verify_crc(obj):
                report.fatal = "header checksum mismatch"
                report.add(where, "damaged", report.fatal)
            elif obj.get("adopted_from") is not None:
                # Every open refuses it; a repair keeps the mark, so
                # this stays a finding before and after --repair.
                report.add(where, "adopted",
                           f"header adopted from configuration "
                           f"{obj['adopted_from']!r}; the journal cannot "
                           f"be resumed")
            else:
                report.add(where, "ok", "header")
            continue
        if obj.get("kind") != "point" or "key" not in obj:
            report.add(where, "damaged",
                       f"unexpected record kind {obj.get('kind')!r}")
            continue
        rv = obj.get("v", 1)
        if not isinstance(rv, int) or rv < 1 or rv > _ckpt._FORMAT_VERSION:
            report.add(where, "damaged", f"invalid record version {rv!r}")
            continue
        if rv >= _ckpt._CRC_VERSION and not verify_crc(obj):
            report.add(where, "damaged", "checksum mismatch")
            continue
        status = "ok" if rv >= _ckpt._CRC_VERSION else "legacy"
        report.add(where, status, f"key={obj['key']!r}")
        good.append(obj)

    if report.fatal and header is None:
        # Nothing trustworthy to rebuild from; repair would fabricate a
        # journal. Quarantine-only is still possible by hand.
        return report

    damaged = [f for f in report.findings if f.status == "damaged"]
    if repair and damaged:
        _repair_journal(path, header or {}, good, report)
    for tmp in path.parent.glob(path.name + ".*.tmp"):
        report.add(tmp.name, "orphan", "temp file from a killed writer")
        if repair:
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - racing writer
                pass
    return report


def _repair_journal(path: pathlib.Path, header: dict, good: list[dict],
                    report: FsckReport) -> None:
    with FileLock(path.with_name(path.name + ".lock")):
        quarantine_file(path, reason="fsck --repair: journal contained "
                        "damaged records", artifact="journal",
                        root=path.parent)
        head = {"kind": "header", "version": _ckpt._FORMAT_VERSION,
                "fingerprint": header.get("fingerprint")}
        if header.get("adopted_from") is not None:
            # Keep the adoption mark: the journal stays refused on open.
            head["adopted_from"] = header["adopted_from"]
        lines = [json.dumps(attach_crc(head))]
        for rec in good:
            lines.append(json.dumps(attach_crc(
                {"kind": "point", "v": _ckpt._FORMAT_VERSION,
                 "key": rec["key"], "payload": rec.get("payload", {})})))
        atomic_write_text(path, "\n".join(lines) + "\n")
    report.repaired = True
    for i, f in enumerate(report.findings):
        if f.status == "damaged" and not report.fatal:
            report.findings[i] = FsckFinding(f.where, "repaired", f.detail)
    log.info("fsck repaired %s: %d good record(s) kept, damage quarantined",
             path, len(good))


# ----------------------------------------------------------------------
def fsck_store(root: str | pathlib.Path, *,
               repair: bool = False) -> FsckReport:
    """Verify every entry of a point store; optionally quarantine damage."""
    root = pathlib.Path(root)
    report = FsckReport(target=str(root), kind="store")
    if not root.is_dir():
        report.fatal = "not a directory"
        return report
    quarantined = 0
    for sub in sorted(root.iterdir()):
        if not sub.is_dir() or sub.name.startswith("."):
            continue
        for p in sorted(sub.glob("*.json")):
            where = str(p.relative_to(root))
            status, detail = _check_store_entry(p)
            if status == "damaged" and repair:
                quarantine_file(p, reason=f"fsck --repair: {detail}",
                                artifact="store", root=root)
                status = "repaired"
                quarantined += 1
            report.add(where, status, detail)
        for tmp in sub.glob("*.tmp"):
            report.add(str(tmp.relative_to(root)), "orphan",
                       "temp file from a killed writer")
            if repair:
                try:
                    tmp.unlink()
                except OSError:  # pragma: no cover - racing writer
                    pass
    qdir = root / QUARANTINE_DIR
    if qdir.is_dir():
        held = sum(1 for q in qdir.iterdir()
                   if q.is_file() and not q.name.endswith(".meta.json"))
        if held:
            report.add(QUARANTINE_DIR, "ok",
                       f"{held} previously quarantined artifact(s) held")
    if quarantined:
        report.repaired = True
    return report


def _check_store_entry(path: pathlib.Path) -> tuple[str, str]:
    from repro.perf import store as _store

    try:
        entry = json.loads(path.read_text())
        if not isinstance(entry, dict):
            raise ValueError("not a JSON object")
    except OSError as exc:
        return "damaged", f"unreadable: {exc}"
    except ValueError as exc:
        return "damaged", f"unparseable: {exc}"
    v = entry.get("v")
    if v not in (1, _store._ENTRY_VERSION):
        return "damaged", f"unsupported entry version {v!r}"
    if not isinstance(entry.get("key"), list) \
            or not isinstance(entry.get("payload"), dict):
        return "damaged", "malformed entry (key/payload)"
    if v >= _store._ENTRY_VERSION and not verify_crc(entry):
        return "damaged", "checksum mismatch"
    if v < _store._ENTRY_VERSION:
        return "legacy", f"v{v} entry (pre-checksum; upgraded on next hit)"
    return "ok", f"key={entry['key']!r}"


# ----------------------------------------------------------------------
def fsck_run(run_dir: str | pathlib.Path, *,
             repair: bool = False) -> FsckReport:
    """Verify one ledgered run directory (``.../LEDGER/<run_id>``).

    Checks the CRC'd ``manifest.json`` and ``status.json``, flags
    leftover worker shards (``shards/`` is transient: merged into the
    run trace and removed — anything still there came from a killed
    run) and stray ``.tmp`` files as ``orphan``. ``--repair``
    quarantines damaged files (provenance preserved) and removes the
    orphans.
    """
    from repro.obs.ledger import MANIFEST_NAME, STATUS_NAME

    run_dir = pathlib.Path(run_dir)
    report = FsckReport(target=str(run_dir), kind="run")
    if not run_dir.is_dir():
        report.fatal = "not a directory"
        return report

    for name in (MANIFEST_NAME, STATUS_NAME):
        path = run_dir / name
        if not path.is_file():
            if name == MANIFEST_NAME:
                report.fatal = f"no {name}"
                report.add(name, "damaged", "missing")
            continue
        status, detail = _check_crc_json(path)
        if status == "damaged" and repair:
            quarantine_file(path, reason=f"fsck --repair: {detail}",
                            artifact="run", root=run_dir)
            report.repaired = True
            status = "repaired"
        report.add(name, status, detail)

    shards = run_dir / "shards"
    if shards.is_dir():
        leftover = sorted(p for p in shards.iterdir() if p.is_file())
        for p in leftover:
            report.add(str(p.relative_to(run_dir)), "orphan",
                       "unmerged worker shard from a killed run")
            if repair:
                quarantine_file(p, reason="fsck --repair: unmerged "
                                "worker shard", artifact="shard",
                                root=run_dir)
                report.repaired = True
        if repair and not any(shards.iterdir()):
            try:
                shards.rmdir()
            except OSError:  # pragma: no cover - racing writer
                pass
    for tmp in run_dir.glob("*.tmp"):
        report.add(tmp.name, "orphan", "temp file from a killed writer")
        if repair:
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - racing writer
                pass
    qdir = run_dir / QUARANTINE_DIR
    if qdir.is_dir():
        held = sum(1 for q in qdir.iterdir()
                   if q.is_file() and not q.name.endswith(".meta.json"))
        if held:
            report.add(QUARANTINE_DIR, "ok",
                       f"{held} previously quarantined artifact(s) held")
    return report


def fsck_ledger(ledger_dir: str | pathlib.Path, *,
                repair: bool = False) -> FsckReport:
    """Verify every run of a ``--run-dir`` ledger in one report."""
    from repro.obs.ledger import MANIFEST_NAME

    ledger_dir = pathlib.Path(ledger_dir)
    report = FsckReport(target=str(ledger_dir), kind="ledger")
    runs = sorted(d for d in ledger_dir.iterdir()
                  if d.is_dir() and (d / MANIFEST_NAME).is_file())
    if not runs:
        report.fatal = "no ledgered runs (no <run_id>/manifest.json)"
        return report
    for run in runs:
        sub = fsck_run(run, repair=repair)
        prefix = run.name
        if sub.fatal:
            report.add(prefix, "damaged", sub.fatal)
        for f in sub.findings:
            report.add(f"{prefix}/{f.where}", f.status, f.detail)
        report.repaired = report.repaired or sub.repaired
    return report


def _check_crc_json(path: pathlib.Path) -> tuple[str, str]:
    """Verdict for one CRC'd JSON artifact (manifest/status)."""
    try:
        obj = json.loads(path.read_text())
        if not isinstance(obj, dict):
            raise ValueError("not a JSON object")
    except OSError as exc:
        return "damaged", f"unreadable: {exc}"
    except ValueError as exc:
        return "damaged", f"unparseable: {exc}"
    if "crc" not in obj:
        return "legacy", "no checksum attached"
    if not verify_crc(obj):
        return "damaged", "checksum mismatch"
    detail = ", ".join(
        f"{k}={obj[k]!r}" for k in ("run_id", "outcome") if k in obj)
    return "ok", detail
