"""Tests for the bench-history trend analysis and its CLI gate."""

import json

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.perf.bench import (bench_trend, format_trend, read_bench_dir,
                              write_bench)


def _report(created, end_to_end, *, fingerprint="abc123", n=96):
    return {
        "v": 1,
        "fingerprint": fingerprint,
        "created": created,
        "points": [{
            "kernel": "JACOBI", "strategy": "Orig", "n": n, "nk": 7,
            "addresses": 1000,
            "trace_seconds": end_to_end / 2,
            "l1_seconds": end_to_end / 2,
            "l2_seconds": end_to_end,
            "end_to_end_seconds": end_to_end,
            "addresses_per_second": 1000 / end_to_end,
        }],
    }


@pytest.fixture
def history(tmp_path):
    """Three stable priors at ~1.0s and a latest 30% slower."""
    for i, secs in enumerate((1.0, 1.05, 0.95, 1.3)):
        write_bench(_report(created=100.0 + i, end_to_end=secs),
                    tmp_path / f"BENCH_{i}.json")
    return tmp_path


class TestReadBenchDir:
    def test_orders_by_created_stamp_not_name(self, tmp_path):
        # File names sort z before a; the created stamps must win.
        write_bench(_report(created=200.0, end_to_end=2.0),
                    tmp_path / "BENCH_a_newest.json")
        write_bench(_report(created=100.0, end_to_end=1.0),
                    tmp_path / "BENCH_z_oldest.json")
        reports = read_bench_dir(tmp_path)
        assert [r["created"] for r in reports] == [100.0, 200.0]
        assert reports[-1]["_path"].endswith("BENCH_a_newest.json")

    def test_pre_stamp_report_falls_back_to_mtime(self, tmp_path):
        rep = _report(created=0, end_to_end=1.0)
        del rep["created"]
        write_bench(rep, tmp_path / "BENCH_old.json")
        (loaded,) = read_bench_dir(tmp_path)
        assert loaded["created"] > 0  # mtime adopted

    def test_errors(self, tmp_path):
        with pytest.raises(ExperimentError, match="no such bench directory"):
            read_bench_dir(tmp_path / "missing")
        with pytest.raises(ExperimentError, match="no bench reports"):
            read_bench_dir(tmp_path)
        (tmp_path / "BENCH_bad.json").write_text("{not json")
        with pytest.raises(ExperimentError):
            read_bench_dir(tmp_path)


class TestTrend:
    def test_latest_vs_median_of_priors(self, history):
        trend = bench_trend(read_bench_dir(history))
        assert trend["reports"] == 4 and trend["fingerprint_stable"]
        (row,) = trend["points"]
        assert row["latest_seconds"] == 1.3
        assert row["median_seconds"] == 1.0  # median(1.0, 1.05, 0.95)
        assert row["history"] == 3
        assert row["regressed_pct"] == 30.0

    def test_single_report_has_no_baseline(self, tmp_path):
        write_bench(_report(created=1.0, end_to_end=1.0),
                    tmp_path / "BENCH_only.json")
        trend = bench_trend(read_bench_dir(tmp_path))
        (row,) = trend["points"]
        assert row["median_seconds"] is None
        assert row["regressed_pct"] is None
        assert "nothing to trend against" in format_trend(trend)

    def test_new_point_without_history(self, tmp_path):
        write_bench(_report(created=1.0, end_to_end=1.0, n=96),
                    tmp_path / "BENCH_0.json")
        write_bench(_report(created=2.0, end_to_end=1.0, n=128),
                    tmp_path / "BENCH_1.json")
        trend = bench_trend(read_bench_dir(tmp_path))
        (row,) = trend["points"]
        assert row["n"] == 128 and row["regressed_pct"] is None

    def test_fingerprint_drift_flagged(self, tmp_path):
        write_bench(_report(created=1.0, end_to_end=1.0),
                    tmp_path / "BENCH_0.json")
        write_bench(_report(created=2.0, end_to_end=1.0, fingerprint="zzz"),
                    tmp_path / "BENCH_1.json")
        trend = bench_trend(read_bench_dir(tmp_path))
        assert not trend["fingerprint_stable"]
        assert "fingerprints drift" in format_trend(trend)

    def test_empty_history_raises(self):
        with pytest.raises(ExperimentError):
            bench_trend([])

    def test_format_gate_verdicts(self, history):
        trend = bench_trend(read_bench_dir(history))
        assert "gate 20%: worst delta +30.0% -> REGRESSION" in \
            format_trend(trend, gate=20.0)
        assert "gate 50%: worst delta +30.0% -> ok" in \
            format_trend(trend, gate=50.0)
        assert not any(ln.startswith("gate")
                       for ln in format_trend(trend).splitlines())


class TestTrendCli:
    def test_gate_exit_codes(self, history, capsys):
        d = str(history)
        assert main(["bench", "trend", d]) == 0
        assert "+30.0%" in capsys.readouterr().out
        assert main(["bench", "trend", d, "--gate", "50"]) == 0
        assert main(["bench", "trend", d, "--gate", "20"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_usage_errors(self, history, tmp_path):
        d = str(history)
        # trend takes a directory only; compare still needs NEW.json
        assert main(["bench", "trend", d, "extra.json"]) == 2
        assert main(["bench", "compare", d]) == 2
        assert main(["bench", "trend", d, "--gate", "0"]) == 2
        assert main(["bench", "compare", d, d, "--gate", "5"]) == 2
        assert main(["bench", "trend", str(tmp_path / "missing")]) == 2

    def test_compare_still_works(self, history, capsys):
        a = str(history / "BENCH_0.json")
        b = str(history / "BENCH_1.json")
        assert main(["bench", "compare", a, b]) == 0
        assert "geomean speedup" in capsys.readouterr().out

    def test_reports_with_trace_form_stamps_need_no_force(self, tmp_path,
                                                          capsys):
        """Reports from when traces had two forms carry ``trace_form``
        stamps, differing across the history; compare and trend read
        them as they are and ignore the stamp."""
        for i, (form, secs) in enumerate((("flat", 1.0), ("runs", 1.1),
                                          (None, 1.2))):
            rep = _report(created=float(i), end_to_end=secs)
            if form is not None:
                rep["trace_form"] = form
                rep["points"][0].update(trace_form=form,
                                        trace_compression=4.0)
            write_bench(rep, tmp_path / f"BENCH_{i}.json")
        assert main(["bench", "compare", str(tmp_path / "BENCH_0.json"),
                     str(tmp_path / "BENCH_1.json")]) == 0
        out = capsys.readouterr().out
        assert "geomean speedup" in out and "trace form" not in out
        assert main(["bench", "trend", str(tmp_path), "--gate", "50"]) == 0
        out = capsys.readouterr().out
        assert "+14.3%" in out and "trace form" not in out
