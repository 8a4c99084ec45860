"""Unit tests for the resilience primitives (journal, budget, faults)."""

import json

import pytest

from repro.errors import (
    BudgetExceededError,
    CheckpointError,
    ConfigurationError,
    RetryableError,
    StorageError,
)
from repro.resilience import (
    CheckpointJournal,
    CheckpointWarning,
    Deadline,
    PointBudget,
    atomic_write_text,
    fingerprint,
    run_with_retries,
    verify_crc,
)
from repro.resilience import faults

from tests.helpers import mark_adopted


class TestAtomicWrite:
    def test_creates_parents_and_writes(self, tmp_path):
        p = atomic_write_text(tmp_path / "a" / "b" / "f.txt", "hello")
        assert p.read_text() == "hello"

    def test_replaces_existing(self, tmp_path):
        p = tmp_path / "f.txt"
        atomic_write_text(p, "old")
        atomic_write_text(p, "new")
        assert p.read_text() == "new"

    def test_no_temp_leftovers(self, tmp_path):
        atomic_write_text(tmp_path / "f.txt", "x")
        assert [f.name for f in tmp_path.iterdir()] == ["f.txt"]


class TestFingerprint:
    def test_key_order_irrelevant(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_value_sensitive(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_non_json_values_stringified(self):
        assert fingerprint({"x": object}) == fingerprint({"x": object})


class TestJournal:
    FP = "cafe" * 16

    def test_create_and_record(self, tmp_path):
        j = CheckpointJournal.open(tmp_path / "j.jsonl", self.FP)
        assert len(j) == 0 and j.get(("K", "S", 1)) is None
        j.record(("K", "S", 1), {"value": 42})
        assert ("K", "S", 1) in j
        assert j.get(("K", "S", 1)) == {"value": 42}

    def test_reopen_resumes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = CheckpointJournal.open(path, self.FP)
        j.record(("K", "S", 1), {"value": 1})
        j.record(("K", "S", 2), {"value": 2})
        j2 = CheckpointJournal.open(path, self.FP)
        assert len(j2) == 2 and j2.get(("K", "S", 2)) == {"value": 2}

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CheckpointJournal.open(path, self.FP).record(("K",), {})
        with pytest.raises(CheckpointError, match="different configuration"):
            CheckpointJournal.open(path, "beef" * 16)

    def test_file_is_valid_jsonl_with_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = CheckpointJournal.open(path, self.FP)
        j.record(("K", 1), {"v": 1})
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        assert lines[0]["fingerprint"] == self.FP
        crc = lines[1].pop("crc")
        assert isinstance(crc, str) and len(crc) == 8
        assert lines[1] == {"kind": "point", "v": 3, "key": ["K", 1],
                            "payload": {"v": 1}}

    def test_corrupt_trailing_line_recovered(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = CheckpointJournal.open(path, self.FP)
        j.record(("K", 1), {"v": 1})
        j.record(("K", 2), {"v": 2})
        faults.corrupt_journal(path, "truncate")
        with pytest.warns(CheckpointWarning, match="trailing line"):
            j2 = CheckpointJournal.open(path, self.FP)
        assert j2.get(("K", 1)) == {"v": 1}
        assert j2.get(("K", 2)) is None  # the truncated point re-runs

    def test_appended_garbage_recovered(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CheckpointJournal.open(path, self.FP).record(("K", 1), {"v": 1})
        faults.corrupt_journal(path, "garbage")
        with pytest.warns(CheckpointWarning):
            j2 = CheckpointJournal.open(path, self.FP)
        assert len(j2) == 1

    def test_corrupt_middle_line_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = CheckpointJournal.open(path, self.FP)
        j.record(("K", 1), {"v": 1})
        j.record(("K", 2), {"v": 2})
        lines = path.read_text().splitlines()
        lines[1] = "garbage{"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt at line 2"):
            CheckpointJournal.open(path, self.FP)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        j = CheckpointJournal.open(path, self.FP)
        j.record(("K", 1), {"v": 1})
        faults.corrupt_journal(path, "header")
        with pytest.raises(CheckpointError):
            CheckpointJournal.open(path, self.FP)

    def test_not_a_journal_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"kind": "whatever"}) + "\n"
                        + json.dumps({"kind": "point", "key": [1]}) + "\n")
        with pytest.raises(CheckpointError, match="no header"):
            CheckpointJournal.open(path, self.FP)


class TestJournalVersioning:
    FP = "cafe" * 16

    def _write_v1(self, path):
        """A journal exactly as PR 1 wrote it: no per-record ``v``."""
        path.write_text(
            json.dumps({"kind": "header", "version": 1,
                        "fingerprint": self.FP}) + "\n"
            + json.dumps({"kind": "point", "key": ["K", 1],
                          "payload": {"x": 1}}) + "\n")

    def test_v1_journal_migrates_on_open(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._write_v1(path)
        j = CheckpointJournal.open(path, self.FP)
        assert j.get(("K", 1)) == {"x": 1}
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["version"] == 3
        assert all(rec["v"] == 3 and "crc" in rec for rec in lines[1:])

    def test_vless_record_under_v2_header_migrates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "version": 2,
                        "fingerprint": self.FP}) + "\n"
            + json.dumps({"kind": "point", "key": ["K", 1],
                          "payload": {"x": 1}}) + "\n")
        j = CheckpointJournal.open(path, self.FP)
        assert j.get(("K", 1)) == {"x": 1}
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[1]["v"] == 3

    def _write_v2(self, path, n=3):
        """A journal exactly as PR 4 wrote it: v2, no checksums."""
        lines = [json.dumps({"kind": "header", "version": 2,
                             "fingerprint": self.FP})]
        for i in range(n):
            lines.append(json.dumps({"kind": "point", "v": 2,
                                     "key": ["K", i],
                                     "payload": {"x": i,
                                                 "nested": {"f": 1.5}}}))
        path.write_text("\n".join(lines) + "\n")

    def test_v2_journal_round_trips_to_v3(self, tmp_path):
        """Lossless v2 -> v3: same payloads, now checksummed."""
        path = tmp_path / "j.jsonl"
        self._write_v2(path)
        j = CheckpointJournal.open(path, self.FP)
        for i in range(3):
            assert j.get(("K", i)) == {"x": i, "nested": {"f": 1.5}}
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["version"] == 3 and verify_crc(lines[0])
        assert all(rec["v"] == 3 and verify_crc(rec) for rec in lines[1:])
        # A second open is a plain resume, not another migration.
        j2 = CheckpointJournal.open(path, self.FP)
        assert j2.get(("K", 2)) == {"x": 2, "nested": {"f": 1.5}}

    def test_v1_journal_round_trips_and_extends(self, tmp_path):
        """v1 -> v3 keeps old records usable next to newly written ones."""
        path = tmp_path / "j.jsonl"
        self._write_v1(path)
        j = CheckpointJournal.open(path, self.FP)
        j.record(("K", 2), {"x": 2})
        j2 = CheckpointJournal.open(path, self.FP)
        assert j2.get(("K", 1)) == {"x": 1}
        assert j2.get(("K", 2)) == {"x": 2}
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert all(verify_crc(rec) for rec in lines)

    @pytest.mark.parametrize("writer", ["_write_v1", "_write_v2"])
    def test_migration_is_atomic_under_torn_write(self, tmp_path, writer):
        """A crash mid-migration leaves the old journal byte-intact."""
        path = tmp_path / "j.jsonl"
        getattr(self, writer)(path)
        before = path.read_bytes()
        with faults.inject_io(f"torn_write:{path.name}"):
            with pytest.raises(StorageError):
                CheckpointJournal.open(path, self.FP)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("j.jsonl.*.tmp"))
        # The next, unfaulted open migrates cleanly.
        j = CheckpointJournal.open(path, self.FP)
        assert j.get(("K", 1)) is not None
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["version"] == 3

    def test_newer_header_version_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"kind": "header", "version": 99,
                                    "fingerprint": self.FP}) + "\n")
        with pytest.raises(CheckpointError, match="newer repro"):
            CheckpointJournal.open(path, self.FP)

    def test_newer_record_version_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps({"kind": "header", "version": 2,
                        "fingerprint": self.FP}) + "\n"
            + json.dumps({"kind": "point", "v": 99, "key": ["K", 1],
                          "payload": {}}) + "\n")
        with pytest.raises(CheckpointError, match="newer"):
            CheckpointJournal.open(path, self.FP)

    def test_invalid_header_version_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"kind": "header", "version": "two",
                                    "fingerprint": self.FP}) + "\n")
        with pytest.raises(CheckpointError, match="invalid format version"):
            CheckpointJournal.open(path, self.FP)

    def test_mismatch_error_names_both_fingerprints(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CheckpointJournal.open(path, self.FP).record(("K",), {})
        other = "beef" * 16
        before = path.read_text()
        with pytest.raises(CheckpointError) as ei:
            CheckpointJournal.open(path, other)
        msg = str(ei.value)
        assert self.FP in msg and other in msg
        # There is no override to offer, and the journal is untouched.
        assert "resume-force" not in msg
        assert path.read_text() == before
        with pytest.raises(TypeError):
            CheckpointJournal.open(path, other, force=True)

    def test_adopted_journal_is_refused(self, tmp_path):
        # A journal an earlier build adopted across configurations holds
        # another configuration's points under the new fingerprint.
        path = tmp_path / "j.jsonl"
        CheckpointJournal.open(path, self.FP).record(("K", 1), {"x": 1})
        other = "beef" * 16
        assert mark_adopted(path, other) == self.FP
        before = path.read_text()
        for fp in (other, self.FP):
            with pytest.raises(CheckpointError, match="adopted from"):
                CheckpointJournal.open(path, fp)
        assert path.read_text() == before
        assert not hasattr(CheckpointJournal, "adopted_from")

    def test_orphan_tmp_swept_on_open(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CheckpointJournal.open(path, self.FP).record(("K", 1), {"x": 1})
        orphan = tmp_path / "j.jsonl.12345.tmp"
        orphan.write_text("half-written garbage")
        j = CheckpointJournal.open(path, self.FP)
        assert not orphan.exists()
        assert j.get(("K", 1)) == {"x": 1}

    def test_orphan_sweep_ignores_other_files(self, tmp_path):
        path = tmp_path / "j.jsonl"
        bystander = tmp_path / "other.jsonl.1.tmp"
        bystander.write_text("not ours")
        CheckpointJournal.open(path, self.FP)
        assert bystander.exists()


class TestWorkerFaultPlan:
    def test_empty_when_unset(self, monkeypatch):
        monkeypatch.delenv(faults.WORKER_FAULT_ENV, raising=False)
        assert faults.worker_fault_plan() == {}

    def test_parses_entries_and_modifier(self):
        plan = faults.worker_fault_plan("kill:1, hang:3:all; corrupt:7")
        assert plan[1] == faults.WorkerFault("kill", 1, False)
        assert plan[3] == faults.WorkerFault("hang", 3, True)
        assert plan[7] == faults.WorkerFault("corrupt", 7, False)

    def test_reads_environment(self, monkeypatch):
        monkeypatch.setenv(faults.WORKER_FAULT_ENV, "kill:2")
        assert faults.worker_fault_plan() == {
            2: faults.WorkerFault("kill", 2, False)}

    @pytest.mark.parametrize("spec", [
        "explode:1", "kill", "kill:zero", "kill:0", "kill:1:always"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            faults.worker_fault_plan(spec)

    def test_corrupt_payload_truncates_and_mangles(self):
        bad = faults.corrupt_payload({"a": 1, "b": 2.5, "c": 3})
        assert "a" not in bad               # truncated
        assert isinstance(bad["c"], str)    # type-mangled
        assert bad["__corrupt__"] is True

    def test_reset_in_child_uninstalls_injector(self):
        inj = faults.FaultInjector()
        with faults.inject(inj):
            faults.reset_in_child()
            faults.tick("site")
        assert inj.calls("site") == 0


class TestBudget:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PointBudget(wall_seconds=0)
        with pytest.raises(ConfigurationError):
            PointBudget(max_refs=-1)
        with pytest.raises(ConfigurationError):
            PointBudget(max_retries=-1)

    def test_bounded_property(self):
        assert not PointBudget().bounded
        assert PointBudget(wall_seconds=1).bounded
        assert PointBudget(max_refs=10).bounded

    def test_hashable_for_memoization(self):
        assert hash(PointBudget(wall_seconds=1.0)) is not None

    def test_deadline_wall_clock(self):
        clock = faults.FakeClock()
        d = Deadline(PointBudget(wall_seconds=10), clock)
        d.check(100)
        clock.advance(11)
        with pytest.raises(BudgetExceededError, match="wall-clock"):
            d.check(1)

    def test_deadline_trace_length(self):
        d = Deadline(PointBudget(max_refs=100), faults.FakeClock())
        d.check(60)
        with pytest.raises(BudgetExceededError, match="trace budget"):
            d.check(60)


class TestRetries:
    def test_success_after_transient_failures(self):
        calls = {"n": 0}
        naps = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RetryableError("transient")
            return "ok"

        out = run_with_retries(flaky, PointBudget(max_retries=2,
                                                  backoff_seconds=0.1),
                               sleep=naps.append)
        assert out == "ok" and calls["n"] == 3
        assert naps == [0.1, 0.2]  # exponential backoff

    def test_exhaustion_reraises(self):
        def always():
            raise RetryableError("still down")

        with pytest.raises(RetryableError):
            run_with_retries(always, PointBudget(max_retries=1),
                             sleep=lambda s: None)

    def test_non_retryable_propagates_immediately(self):
        calls = {"n": 0}

        def crash():
            calls["n"] += 1
            raise RuntimeError("hard crash")

        with pytest.raises(RuntimeError):
            run_with_retries(crash, PointBudget(max_retries=5),
                             sleep=lambda s: None)
        assert calls["n"] == 1

    def test_budget_exceeded_not_retried(self):
        calls = {"n": 0}

        def over():
            calls["n"] += 1
            raise BudgetExceededError("out of time")

        with pytest.raises(BudgetExceededError):
            run_with_retries(over, PointBudget(max_retries=5),
                             sleep=lambda s: None)
        assert calls["n"] == 1


class TestFaultInjector:
    def test_fails_on_exact_call_index(self):
        inj = faults.FaultInjector().fail_on("site", 3, RetryableError("x"))
        inj.tick("site")
        inj.tick("site")
        with pytest.raises(RetryableError):
            inj.tick("site")
        assert inj.calls("site") == 3
        inj.tick("site")  # 4th call is clean again

    def test_sites_are_independent(self):
        inj = faults.FaultInjector().fail_on("a", 1, RuntimeError("x"))
        inj.tick("b")
        assert inj.calls("a") == 0 and inj.calls("b") == 1

    def test_advance_requires_clock(self):
        with pytest.raises(ConfigurationError):
            faults.FaultInjector().advance_on("s", 1, 5.0)

    def test_advance_fires_before_exception(self):
        clock = faults.FakeClock()
        inj = faults.FaultInjector(clock=clock)
        inj.advance_on("s", 2, 100.0)
        inj.tick("s")
        assert clock() == 0.0
        inj.tick("s")
        assert clock() == 100.0

    def test_inject_installs_and_restores(self):
        inj = faults.FaultInjector(clock=faults.FakeClock())
        assert faults.active_clock() is not inj.clock
        with faults.inject(inj):
            assert faults.active_clock() is inj.clock
            faults.tick("anything")
        assert inj.calls("anything") == 1
        assert faults.active_clock() is not inj.clock
        faults.tick("anything")  # no-op after uninstall
        assert inj.calls("anything") == 1

    def test_active_sleep_advances_fake_clock(self):
        clock = faults.FakeClock()
        with faults.inject(faults.FaultInjector(clock=clock)):
            faults.active_sleep()(2.5)
        assert clock() == 2.5

    def test_corrupt_unknown_mode(self, tmp_path):
        p = tmp_path / "f"
        p.write_text("x\n")
        with pytest.raises(ConfigurationError):
            faults.corrupt_journal(p, "melt")
