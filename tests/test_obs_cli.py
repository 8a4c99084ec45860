"""End-to-end CLI tests for the observability flags and obs-report."""

import json

import pytest

from repro.cli import main
from repro.obs.report import (format_report, read_events, read_metrics,
                              summarize)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One instrumented, classified tiny table3 run, read by every test
    that asks; yields (events_path, metrics_path)."""
    tmp_path = tmp_path_factory.mktemp("instrumented")
    ev = tmp_path / "run.jsonl"
    mx = tmp_path / "metrics.json"
    rc = main(["table3", "--n", "8", "--classify",
               "--log-json", str(ev), "--metrics", str(mx), "--profile"])
    assert rc == 0
    return ev, mx


class TestInstrumentedRun:
    def test_event_file_covers_the_pipeline(self, artifacts):
        ev, _ = artifacts
        events = read_events(ev)
        assert all(e["v"] == 1 for e in events)
        ends = {}
        for e in events:
            if e["kind"] == "span_end":
                ends[e["name"]] = ends.get(e["name"], 0) + 1
        assert ends["run"] == 1
        assert ends["sweep"] == 3          # one per kernel
        assert ends["point"] == 18         # 3 kernels x 6 strategies
        assert ends["simulate"] == ends["point"]  # nothing memoized
        sim = next(e for e in events
                   if e["kind"] == "span_end" and e["name"] == "simulate")
        assert sim["span"] == "run/sweep/point"
        assert sim["refs"] > 0 and sim["dur_s"] > 0
        assert "mem_peak_kb" in sim  # --profile was on

    def test_miss_class_sums_equal_misses(self, artifacts):
        _, mx = artifacts
        snap = read_metrics(mx)
        misses, classified = {}, {}
        for c in snap["counters"]:
            lvl = c["labels"].get("level")
            if c["name"] == "repro.sim.misses":
                misses[lvl] = c["value"]
            elif c["name"] == "repro.sim.miss_class":
                classified[lvl] = classified.get(lvl, 0) + c["value"]
        assert misses and misses == classified

    def test_runner_modes_counted(self, artifacts):
        _, mx = artifacts
        snap = read_metrics(mx)
        points = sum(c["value"] for c in snap["counters"]
                     if c["name"] == "repro.runner.points")
        assert points == 18

    def test_obs_report_renders(self, artifacts, capsys):
        ev, mx = artifacts
        rc = main(["obs-report", str(ev), "--metrics", str(mx)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "points: 18 (18 exact simulations" in out
        assert "Slowest simulated points" in out
        assert "Miss classification" in out
        assert "Misses by array" in out
        assert "Peak traced memory per phase" in out

    def test_summarize_totals(self, artifacts):
        ev, mx = artifacts
        s = summarize(read_events(ev), read_metrics(mx))
        assert s.points == 18 and s.simulations == 18
        assert s.degraded == 0 and s.wall_s is not None
        assert s.sim_refs > 0 and s.refs_per_second > 0
        assert set(s.miss_classes) == {"L1", "L2"}


class TestObservationKeepsTheRun:
    """Observing a run records it without changing it: only
    ``--classify`` takes points off the segment templates."""

    @pytest.fixture(scope="class")
    def plain_csv(self, tmp_path_factory):
        csv = tmp_path_factory.mktemp("plain") / "points.csv"
        assert main(["table3", "--n", "40", "--csv", str(csv)]) == 0
        return csv.read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--metrics", "{tmp}/metrics.json"],
        ["--run-dir", "{tmp}/ledger"],
        ["--run-dir", "{tmp}/ledger", "--parallel", "2"],
    ], ids=["metrics", "run-dir", "run-dir-parallel"])
    def test_observed_csv_is_the_plain_csv(self, plain_csv, tmp_path,
                                           flags):
        csv = tmp_path / "points.csv"
        assert main(["table3", "--n", "40", "--csv", str(csv),
                     *(f.format(tmp=tmp_path) for f in flags)]) == 0
        assert csv.read_bytes() == plain_csv
        extrapolated = [line.rsplit(b",", 1)[1]
                        for line in plain_csv.splitlines()[1:]]
        assert b"1" in extrapolated  # templates ran in both

    def test_obs_report_without_classify(self, tmp_path, capsys):
        ev, mx = tmp_path / "run.jsonl", tmp_path / "metrics.json"
        assert main(["table3", "--n", "8", "--log-json", str(ev),
                     "--metrics", str(mx)]) == 0
        capsys.readouterr()
        assert main(["obs-report", str(ev), "--metrics", str(mx)]) == 0
        out = capsys.readouterr().out
        assert "points: 18 (18 exact simulations" in out
        assert "Miss classification" not in out
        assert "Misses by array" not in out
        s = summarize(read_events(ev), read_metrics(mx))
        assert not s.miss_classes and not s.miss_arrays
        assert s.extrapolation_refs_skipped > 0
        assert (f"of references costed from templates "
                f"({s.extrapolation_refs_skipped} of "
                f"{s.extrapolation_refs})") in out


class TestUsageErrors:
    def test_profile_requires_log_json(self):
        assert main(["table3", "--n", "8", "--profile"]) == 2

    @pytest.mark.parametrize("argv", [
        ["table3", "--n", "8", "--classify"],
        ["simulate", "--n", "8", "--classify", "--log-json", "x.jsonl"],
        ["figures", "--n", "8", "--classify"],
        ["lattice", "--n", "8", "--classify"],
    ], ids=["table3", "simulate-log-json", "figures", "lattice"])
    def test_classify_requires_metrics_or_run_dir(self, argv, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert "--classify" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # refused before any work

    def test_obs_report_missing_file(self, tmp_path):
        assert main(["obs-report", str(tmp_path / "none.jsonl")]) == 2

    def test_obs_report_bad_top(self, tmp_path):
        ev = tmp_path / "run.jsonl"
        ev.write_text('{"kind": "x"}\n')
        assert main(["obs-report", str(ev), "--top", "0"]) == 2

    def test_obs_report_corrupt_interior(self, tmp_path):
        ev = tmp_path / "run.jsonl"
        ev.write_text('garbage\n{"kind": "x"}\n')
        assert main(["obs-report", str(ev)]) == 2


class TestQuietRun:
    def test_without_flags_no_artifacts_and_stdout_clean(self, tmp_path,
                                                         capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["simulate", "--kernel", "JACOBI", "--strategy", "Orig",
                   "--n", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "L1 miss rate" in out
        assert not list(tmp_path.iterdir())  # no stray artifact files

    def test_checkpoint_resume_event(self, tmp_path):
        ev1 = tmp_path / "r1.jsonl"
        ck = tmp_path / "ck.jsonl"
        assert main(["table3", "--n", "8", "--checkpoint", str(ck),
                     "--log-json", str(ev1)]) == 0
        ev2 = tmp_path / "r2.jsonl"
        assert main(["table3", "--n", "8", "--checkpoint", str(ck),
                     "--resume", "--log-json", str(ev2)]) == 0
        events = read_events(ev2)
        resumes = [e for e in events if e["kind"] == "checkpoint_resume"]
        assert resumes and resumes[0]["points"] == 18
        s = summarize(events)
        assert s.journal_hits == 18 and s.simulations == 0


class TestIntegrityLine:
    """summarize/format_report surface the repro.integrity.* signals."""

    def test_summarize_counts_quarantines_and_crc_failures(self):
        events = [{"kind": "integrity_quarantine", "artifact": "store",
                   "reason": "payload validation"},
                  {"kind": "integrity_quarantine", "artifact": "journal",
                   "reason": "crc mismatch"}]
        metrics = {"counters": [
            {"name": "repro.integrity.crc_failures",
             "labels": {"artifact": "journal"}, "value": 3},
            {"name": "repro.integrity.crc_failures",
             "labels": {"artifact": "store"}, "value": 1},
        ]}
        s = summarize(events, metrics)
        assert s.integrity_quarantined == 2
        assert s.crc_failures == 4
        out = format_report(s)
        assert ("integrity: 4 checksum failures, "
                "2 artifacts quarantined") in out
        assert "repro fsck" in out

    def test_clean_run_renders_no_integrity_line(self, artifacts, capsys):
        ev, mx = artifacts
        s = summarize(read_events(ev), read_metrics(mx))
        assert s.integrity_quarantined == 0 and s.crc_failures == 0
        assert "integrity:" not in format_report(s)


class TestEngineSupportLine:
    """The per-level engine modes reach the obs-report rendering."""

    def test_summarize_collects_level_modes(self):
        metrics = {"counters": [
            {"name": "repro.cache.engine_level_mode",
             "labels": {"level": "L1", "mode": "per_level"}, "value": 3},
            {"name": "repro.cache.engine_level_mode",
             "labels": {"level": "L2", "mode": "per_level"}, "value": 4},
            {"name": "repro.cache.engine_level_mode",
             "labels": {"level": "L1", "mode": "assoc_scan"}, "value": 1},
            {"name": "repro.cache.engine_runs", "labels": {}, "value": 4},
        ]}
        s = summarize([], metrics)
        assert s.engine_levels == {
            "L1": {"per_level": 3, "assoc_scan": 1},
            "L2": {"per_level": 4}}
        assert s.engine_runs == 4
        out = format_report(s)
        assert "engine support: L1 [1 assoc_scan, 3 per_level]; " \
               "L2 [4 per_level]" in out
        assert "cache engine: 4 runs" in out

    def test_clean_slate_renders_no_support_line(self):
        assert "engine support:" not in format_report(summarize([]))


def test_events_are_json_serializable_all_the_way(tmp_path):
    """No repr-fallback records in a normal run (schema stays parseable)."""
    ev = tmp_path / "run.jsonl"
    assert main(["simulate", "--kernel", "RESID", "--strategy", "Pad",
                 "--n", "8", "--log-json", str(ev)]) == 0
    for line in ev.read_text().splitlines():
        rec = json.loads(line)
        assert isinstance(rec, dict) and "kind" in rec


class TestEmptyAndTruncatedEvents:
    def test_empty_events_file_exits_2(self, tmp_path, capsys):
        ev = tmp_path / "empty.jsonl"
        ev.write_text("")
        assert main(["obs-report", str(ev)]) == 2
        err = capsys.readouterr().err
        assert "repro: error:" in err and "no event records" in err

    def test_fully_truncated_events_file_exits_2(self, tmp_path):
        ev = tmp_path / "torn.jsonl"
        ev.write_text('{"kind": "span_start", "na')  # one torn line
        assert main(["obs-report", str(ev)]) == 2


class TestRunDir:
    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        """One ledgered tiny table3 run, read by every test that asks;
        yields the run directory."""
        tmp_path = tmp_path_factory.mktemp("ledgered")
        led = tmp_path / "ledger"
        csv = tmp_path / "points.csv"
        rc = main(["table3", "--n", "8", "--run-dir", str(led),
                   "--classify", "--csv", str(csv)])
        assert rc == 0
        (run,) = led.iterdir()
        return run

    def test_run_dir_lays_out_the_standard_artifacts(self, run):
        assert (run / "manifest.json").is_file()
        assert (run / "events.jsonl").is_file()
        assert (run / "metrics.json").is_file()
        assert (run / "status.json").is_file()
        s = summarize(read_events(run / "events.jsonl"),
                      read_metrics(run / "metrics.json"))
        assert s.points == 18

    def test_manifest_records_outcome_metrics_and_artifacts(self, run):
        from repro.obs import ledger

        m = ledger.read_manifest(run)
        assert m["outcome"] == "ok"
        assert m["argv"][0] == "table3"
        assert m["metrics"]["points"] == 18
        assert m["metrics"]["point_seconds"]["p95"] > 0
        assert m["artifacts"]["csv"].endswith("points.csv")
        assert m["artifacts"]["events"].endswith("events.jsonl")

    def test_obs_report_accepts_a_run_dir(self, run, capsys):
        assert main(["obs-report", str(run)]) == 0
        out = capsys.readouterr().out
        assert "points: 18" in out
        assert "Miss classification" in out  # metrics.json auto-adopted

    def test_runs_show_renders_percentiles(self, run, capsys):
        led = str(run.parent)
        assert main(["runs", "show", "--run-dir", led]) == 0
        out = capsys.readouterr().out
        assert "outcome  : ok" in out
        assert "p95" in out and "points   : 18" in out

    def test_run_context_event_lands_in_trace(self, run):
        from repro.obs import ledger

        events = read_events(run / "events.jsonl")
        (rc_event,) = [e for e in events if e["kind"] == "run_context"]
        assert rc_event["run_id"] == ledger.read_manifest(run)["run_id"]
        assert rc_event["argv"][0] == "table3"

    def test_error_outcome_is_ledgered(self, tmp_path, tiny_config):
        led = tmp_path / "ledger"
        # Usage errors fail before the session: no run is created.
        rc = main(["simulate", "--kernel", "JACOBI", "--strategy", "Orig",
                   "--n", "-3", "--run-dir", str(led)])
        assert rc == 2
        assert not led.exists() or not list(led.iterdir())

        # A journal from a different configuration fails *inside* the
        # session: the manifest must record the error outcome.
        from repro.experiments.runner import sweep as run_sweep
        from repro.experiments.options import SweepOptions

        ck = tmp_path / "ck.jsonl"
        run_sweep("JACOBI", ["Orig"], [8], tiny_config,
                  options=SweepOptions(checkpoint=ck))
        rc = main(["figures", "--kernel", "JACOBI", "--n", "8",
                   "--checkpoint", str(ck), "--run-dir", str(led)])
        assert rc == 2
        from repro.obs import ledger

        (run,) = led.iterdir()
        assert ledger.read_manifest(run)["outcome"] == \
            "error:CheckpointError"


class TestProgressFlag:
    def test_progress_line_on_stderr(self, tmp_path, capsys):
        rc = main(["figures", "--kernel", "JACOBI", "--n", "8",
                   "--progress"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "/6 points" in err  # six strategies, one size
