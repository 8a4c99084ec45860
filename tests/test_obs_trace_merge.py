"""Differential test: a parallel run's merged trace is complete.

The load-bearing property mirrors the result-level differential test in
``test_resilience_parallel_sweep``: with ``--parallel`` and injected
worker kills, the supervisor must still deliver ONE causally linked
trace in which every grid point is accounted for exactly once —
supervised point spans open and close once each, worker spans parent
under them, and nothing from a killed attempt corrupts the file.
"""

import json

import pytest

from repro.cli import main
from repro.obs.report import read_events, summarize
from repro.resilience import faults
from repro.resilience.pool import available

pytestmark = pytest.mark.skipif(
    not available(), reason="multiprocessing unavailable")

POINTS = 18  # table3 --n 8: 3 kernels x 6 strategies


@pytest.fixture
def merged_run(tmp_path, monkeypatch):
    """A parallel table3 run under injected kills; yields the run dir."""
    # kill:1:all quarantines one point; kill:3 forces a plain retry.
    monkeypatch.setenv(faults.WORKER_FAULT_ENV, "kill:1:all, kill:3")
    led = tmp_path / "ledger"
    assert main(["table3", "--n", "8", "--parallel", "4",
                 "--run-dir", str(led)]) == 0
    (run,) = led.iterdir()
    return run


class TestMergedTrace:
    def test_single_trace_every_point_exactly_once(self, merged_run):
        events = read_events(merged_run / "events.jsonl")

        # One run identity across every record of the merged file.
        assert len({e["run"] for e in events}) == 1

        sup_starts = [e for e in events if e["kind"] == "span_start"
                      and e.get("name") == "point" and e.get("supervised")]
        sup_ends = [e for e in events if e["kind"] == "span_end"
                    and e.get("name") == "point" and e.get("supervised")]
        assert len(sup_starts) == POINTS
        assert len(sup_ends) == POINTS
        # ... and each umbrella span closes the one that opened it.
        assert ({e["span_id"] for e in sup_ends}
                == {e["span_id"] for e in sup_starts})
        # The fault plan re-arms per sweep: table3 runs one sweep per
        # kernel, so kill:1:all quarantines one point in each.
        outcomes = [e["outcome"] for e in sup_ends]
        assert outcomes.count("quarantined") == 3
        assert outcomes.count("ok") == POINTS - 3
        assert any(e["attempts"] > 1 and e["outcome"] == "ok"
                   for e in sup_ends)  # kill:3 retried to success

        # The plain per-point events stay the canonical count.
        points = [e for e in events if e["kind"] == "point"]
        assert len(points) == POINTS

    def test_worker_spans_parent_under_supervisor_points(self, merged_run):
        events = read_events(merged_run / "events.jsonl")
        sup_ids = {e["span_id"] for e in events
                   if e["kind"] == "span_start" and e.get("supervised")}
        worker = [e for e in events
                  if str(e.get("node", "")).startswith("w")]
        assert worker, "no worker records survived the merge"
        tops = [e for e in worker if e["kind"] == "span_start"
                and e["span"] == "run/sweep"]
        assert tops and all(e["parent_id"] in sup_ids for e in tops)
        # Successful attempts: one simulate span per surviving worker run.
        sims = [e for e in worker if e["kind"] == "span_end"
                and e.get("name") == "simulate"]
        assert len(sims) == POINTS - 3  # all but the quarantined points

    def test_summary_and_shards_consumed(self, merged_run):
        events = read_events(merged_run / "events.jsonl")
        s = summarize(events)
        assert s.points == POINTS
        assert s.quarantined == 3 and s.degraded == 3
        assert s.pool_retries >= 1
        merges = [e for e in events if e["kind"] == "shards_merged"]
        assert len(merges) == 3  # one per sweep
        assert not (merged_run / "shards").exists()

    def test_manifest_agrees_with_the_trace(self, merged_run):
        from repro.obs import ledger

        m = ledger.read_manifest(merged_run)
        assert m["outcome"] == "ok" and "integrity" not in m
        assert m["metrics"]["points"] == POINTS
        # status.json reached its terminal publish (the last sweep's
        # publisher owns the file; finalize seals the outcome).
        from repro.obs.status import read_status
        st = read_status(merged_run / "status.json")
        assert st["outcome"] == "ok"
        assert st["quarantined"] == 1  # one kill per sweep

    def test_merged_file_is_clean_jsonl(self, merged_run):
        # No torn shard line may leak into the merged trace.
        for line in (merged_run / "events.jsonl").read_text().splitlines():
            rec = json.loads(line)
            assert isinstance(rec, dict) and "kind" in rec


class TestSerialEquivalence:
    def test_serial_run_dir_has_no_worker_records(self, tmp_path):
        led = tmp_path / "ledger"
        assert main(["table3", "--n", "8", "--run-dir", str(led)]) == 0
        (run,) = led.iterdir()
        events = read_events(run / "events.jsonl")
        assert all(e["node"] == "sup" for e in events)
        s = summarize(events)
        assert s.points == POINTS and s.worker_attempts == 0
        assert not (run / "shards").exists()
