"""Tests for the metrics registry and its module-level hooks."""

import pytest

from repro.errors import ExperimentError
from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import read_metrics


class TestRegistry:
    def test_counter_get_or_create_by_labels(self):
        reg = MetricsRegistry()
        reg.counter("x", level="L1").inc(2)
        reg.counter("x", level="L1").inc(3)
        reg.counter("x", level="L2").inc(1)
        assert reg.counter("x", level="L1").value == 5
        assert reg.counter("x", level="L2").value == 1

    def test_counter_total_subset_matching(self):
        reg = MetricsRegistry()
        reg.counter("m", level="L1", cls="cold").inc(2)
        reg.counter("m", level="L1", cls="conflict").inc(3)
        reg.counter("m", level="L2", cls="cold").inc(7)
        assert reg.counter_total("m") == 12
        assert reg.counter_total("m", level="L1") == 5
        assert reg.counter_total("m", level="L1", cls="cold") == 2
        assert reg.counter_total("other") == 0

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.0)
        reg.gauge("g").set(4.5)
        assert reg.gauge("g").value == 4.5

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (2.0, 1.0, 3.0):
            h.observe(v)
        assert h.count == 3 and h.total == 6.0
        assert h.min == 1.0 and h.max == 3.0
        assert h.mean == pytest.approx(2.0)

    def test_snapshot_shape_and_write_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c", k="v").inc()
        reg.gauge("g").set(2.0)
        reg.histogram("h").observe(0.5)
        path = tmp_path / "metrics.json"
        reg.write(path)
        snap = read_metrics(path)
        assert snap["v"] == 1
        assert snap["counters"] == [{"name": "c", "labels": {"k": "v"},
                                     "value": 1}]
        assert snap["gauges"][0]["value"] == 2.0
        assert snap["histograms"][0]["count"] == 1

    def test_read_metrics_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2]\n")
        with pytest.raises(ExperimentError):
            read_metrics(path)
        with pytest.raises(ExperimentError):
            read_metrics(tmp_path / "missing.json")


class TestPercentiles:
    def test_nearest_rank(self):
        from repro.obs.metrics import percentile

        vals = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        assert percentile(vals, 50) == 0.5
        assert percentile(vals, 90) == 0.9
        assert percentile(vals, 95) == 1.0
        assert percentile(vals, 0) == 0.1
        assert percentile(vals, 100) == 1.0
        assert percentile([], 50) is None
        assert percentile([7.0], 50) == 7.0

    def test_histogram_summary_and_percentiles(self):
        h = MetricsRegistry().histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(50) == 50.0
        assert h.percentile(95) == 95.0
        s = h.summary()
        assert s["count"] == 100 and s["p50"] == 50.0
        assert s["p90"] == 90.0 and s["max"] == 100.0

    def test_sample_cap_keeps_summary_exact(self):
        from repro.obs.metrics import SAMPLE_CAP

        h = MetricsRegistry().histogram("h")
        for v in range(SAMPLE_CAP + 10):
            h.observe(float(v))
        assert len(h.samples) == SAMPLE_CAP
        assert h.count == SAMPLE_CAP + 10       # exact beyond the cap
        assert h.max == float(SAMPLE_CAP + 9)

    def test_snapshot_rows_carry_percentiles_and_samples(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            reg.histogram("h").observe(v)
        (row,) = reg.snapshot()["histograms"]
        assert row["p50"] == 2.0 and row["p90"] == 3.0
        assert row["samples"] == [1.0, 2.0, 3.0]


class TestMerge:
    def test_counters_add_and_histograms_fold(self):
        worker = MetricsRegistry()
        worker.counter("repro.sim.accesses", level="L1").inc(10)
        worker.histogram("repro.sim.point_seconds").observe(0.5)
        worker.gauge("repro.pool.workers").set(4)

        sup = MetricsRegistry()
        sup.counter("repro.sim.accesses", level="L1").inc(1)
        sup.histogram("repro.sim.point_seconds").observe(0.25)
        sup.merge(worker.snapshot())
        assert sup.counter_total("repro.sim.accesses", level="L1") == 11
        h = sup.histogram("repro.sim.point_seconds")
        assert h.count == 2 and sorted(h.samples) == [0.25, 0.5]
        # Gauges are node-local: never merged.
        assert sup.gauge("repro.pool.workers").value == 0.0


class TestModuleHooks:
    def test_disabled_by_default(self):
        assert not metrics.enabled()
        metrics.inc("repro.nothing")  # must not raise nor create state
        metrics.set_gauge("repro.nothing", 1.0)
        metrics.observe("repro.nothing", 1.0)
        assert metrics.registry() is None

    def test_collect_installs_and_restores(self):
        with metrics.collect() as reg:
            assert metrics.enabled() and metrics.registry() is reg
            metrics.inc("repro.test.counter", 2, level="L1")
            metrics.observe("repro.test.hist", 0.25)
            metrics.set_gauge("repro.test.gauge", 9)
        assert not metrics.enabled()
        assert reg.counter_total("repro.test.counter") == 2
        assert reg.histogram("repro.test.hist").count == 1
        assert reg.gauge("repro.test.gauge").value == 9

    def test_collect_accepts_existing_registry(self):
        reg = MetricsRegistry()
        with metrics.collect(reg):
            metrics.inc("a")
        with metrics.collect(reg):
            metrics.inc("a")
        assert reg.counter_total("a") == 2


class TestInstrumentationHooks:
    """The library-side counters fire when a registry is collecting."""

    def test_select_counters(self):
        from repro.core.selector import select

        with metrics.collect() as reg:
            select("Euc3D", 256, 50, 50)
            select("Pad", 256, 50, 50)
        assert reg.counter_total("repro.select.calls", strategy="Euc3D") == 1
        assert reg.counter_total("repro.select.euc3d.candidates") > 0
        assert reg.counter_total("repro.select.pad.searched") > 0
        assert reg.counter_total("repro.select.gcdpad.calls") > 0
        # rejected <= candidates, labelled by reason only
        rej = reg.counter_total("repro.select.euc3d.rejected")
        assert 0 <= rej <= reg.counter_total("repro.select.euc3d.candidates")

    def test_trace_counters(self, tiny_config):
        from repro.kernels import KERNELS
        from repro.core.selector import select

        kern = KERNELS["JACOBI"](8, tiny_config.nk)
        sel = select("Orig", tiny_config.cs, 8, 8)
        with metrics.collect() as reg:
            total = sum(a.size for a, _ in kern.trace(sel))
        assert reg.counter_total("repro.trace.addresses") == total
        assert reg.counter_total("repro.trace.chunks") > 0
