"""Tests of the benchmark itself (not of the program it measures).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COSTS = json.loads((HERE / "costs.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())
WORKLOADS = sorted(workloads.TARGETS)


def _exact_points(draw: workloads.Draw) -> list[dict]:
    """The points a correct run of ``draw`` returns."""
    out = []
    for key in draw.keys:
        kernel, strategy, n, assoc, line = key.split("/")
        out.append({"kernel": kernel, "strategy": strategy, "n": int(n),
                    "assoc": int(assoc[:-1]), "line": int(line[:-1]),
                    **EXPECTED[key]})
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_draw(workload):
    for seed in range(5):
        assert (workloads.draw(workload, seed, COSTS, EXPECTED)
                == workloads.draw(workload, seed, COSTS, EXPECTED))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seeds_change_sizes(workload):
    draws = [workloads.draw(workload, seed, COSTS, EXPECTED) for seed in range(10)]
    assert len({d.calls for d in draws}) > 1
    if workload == "ledgered":
        assert len({d.warm for d in draws}) > 1


def test_ledgered_cost_is_the_pool_makespan():
    keys = tuple(workloads.point_key(k, s, 40)
                 for k in workloads.LEDGER_KERNELS
                 for s in workloads.LEDGER_STRATEGIES)
    d = workloads.Draw("ledgered", 0, (40,), keys)
    per_kernel = {"JACOBI": [3, 1, 1, 1, 1, 1], "REDBLACK": [1] * 6,
                  "RESID": [2] * 6}
    costs = {"classified/" + workloads.point_key(k, s, 40): c
             for k, cs in per_kernel.items()
             for s, c in zip(workloads.LEDGER_STRATEGIES, cs)}
    # Two workers, one pool per kernel in turn: 4 + 3 + 6 seconds.
    assert workloads.pool_makespan(d, costs) == 13
    warm = (("RESID", "Orig", 40), ("RESID", "Tile", 40))
    assert workloads.pool_makespan(replace(d, warm=warm), costs) == 11


@pytest.mark.parametrize("workload", WORKLOADS)
def test_draws_stay_in_their_classes_and_budget(workload):
    for seed in range(20):
        d = workloads.draw(workload, seed, COSTS, EXPECTED)
        assert set(d.keys) <= set(EXPECTED)
        cost, refs, tolerance = workloads.TARGETS[workload]
        assert abs(d.cost - cost) <= tolerance * cost
        assert abs(d.refs - refs) <= tolerance * refs
        if workload == "figures":
            kernels = sorted(k for k, _ in d.calls)
            assert kernels == sorted(workloads.FIG_KERNELS)
            classes = (workloads.REGULAR_SIZES, workloads.COLLAPSE_SIZES,
                       workloads.BIG_SIZES)
            assert [n for _, n in d.calls][0] in classes[0]
            assert [n for _, n in d.calls][1] in classes[1]
            assert [n for _, n in d.calls][2] in classes[2]
        elif workload == "lattice":
            assert len(d.calls) == 1 and d.calls[0] in workloads.LATTICE_SIZES
        elif workload == "ledgered":
            assert 2 * len(d.warm) == len(d.keys)
            assert set(d.simulated) | {workloads.point_key(*w)
                                       for w in d.warm} == set(d.keys)
            for kernel in workloads.LEDGER_KERNELS:
                # Every kernel's pool gets half of its points.
                assert 2 * sum(w[0] == kernel for w in d.warm) == (
                    len(d.keys) // len(workloads.LEDGER_KERNELS))


def test_exact_points_pass():
    d = workloads.draw("figures", 3, COSTS, EXPECTED)
    assert run.check_points(_exact_points(d), d.keys, EXPECTED) == {}


def test_one_extra_miss_fails_the_point():
    d = workloads.draw("lattice", 1, COSTS, EXPECTED)
    points = _exact_points(d)
    points[5]["l1_misses"] += 1
    failures = run.check_points(points, d.keys, EXPECTED)
    assert list(failures) == [d.keys[5]]
    assert "l1_misses" in failures[d.keys[5]]


def test_missing_and_unrequested_points_fail():
    d = workloads.draw("figures", 0, COSTS, EXPECTED)
    points = _exact_points(d)
    extra = dict(points[0], n=points[0]["n"] + 10)
    failures = run.check_points(points[1:] + [extra], d.keys, EXPECTED)
    assert len(failures) == 2


class _FakeBench:
    """Bench stand-in whose runs return canned points."""

    def __init__(self, draw, points, errors=()):
        self.draw, self.expected, self.points = draw, EXPECTED, points
        self.errors = list(errors)

    def setup_probe(self, name):
        return 0.5

    def build_fixture(self):
        pass

    def repeat(self, name, trace=False):
        failures = run.check_points(self.points, self.draw.keys, EXPECTED)
        return {"wall": 2.0, "setup": 0.5, "peak_rss_mb": 80.0,
                "points": self.points, "errors": self.errors,
                "failures": failures,
                "exact_refs": sum(EXPECTED[k]["refs"]
                                  for k in self.draw.simulated
                                  if k not in failures)}


def test_degraded_point_counts_in_fail_frac():
    d = workloads.draw("ledgered", 2, COSTS, EXPECTED)
    points = _exact_points(d)
    cold = next(i for i, p in enumerate(points)
                if d.keys[i] in d.simulated)
    points[cold]["degraded"] = True
    values, attempted, failed, report = run.timed(_FakeBench(d, points), 0)
    reps = workloads.MIN_REPEATS["ledgered"]
    assert (attempted, failed) == (reps * len(d.keys), reps)
    assert values["exact_frac"] == pytest.approx(1 - 1 / len(d.keys))
    assert any("degraded" in line for line in report)
    # Throughput counts the exact simulated points only.
    lost = EXPECTED[d.keys[cold]]["refs"]
    assert values["refs_per_s"] == pytest.approx((d.refs - lost) / 2.0)


def test_points_of_a_call_that_raised_count_as_failed():
    d = workloads.draw("figures", 4, COSTS, EXPECTED)
    kernel, n = d.calls[0]
    points = [p for p in _exact_points(d)
              if (p["kernel"], p["n"]) != (kernel, n)]
    error = f"figure_series({kernel!r}, [{n}]): RuntimeError('boom')"
    values, attempted, failed, report = run.timed(
        _FakeBench(d, points, [error]), 0)
    per_call = len(workloads.FIG_STRATEGIES)
    assert failed == workloads.MIN_REPEATS["figures"] * per_call
    assert values["exact_frac"] == pytest.approx(1 - per_call / len(d.keys))
    assert f"raised: {error}" in report


def test_child_records_a_call_that_raised_and_carries_on(tmp_path):
    spec = {"workload": "lattice", "kernel": "NOPE", "sizes": [40],
            "result": str(tmp_path / "result.json")}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(HERE / "child.py"), str(path)],
                   env=run.child_env(), check=True, timeout=120)
    res = json.loads((tmp_path / "result.json").read_text())
    assert res["points"] == []
    assert len(res["errors"]) == 1
    assert res["errors"][0].startswith("run_lattice('NOPE', 40): ")


def test_wrappers_removed_and_self_times_add_up(tmp_path):
    from repro.cache.hierarchy import CacheHierarchy
    from repro.cache.params import CacheParams
    from repro.experiments import lattice, runner
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.options import SweepOptions
    from repro.kernels.base import StencilKernel
    from repro.obs import context
    from repro.perf.store import PointStore
    from repro.resilience import pool
    from repro.resilience.checkpoint import CheckpointJournal

    targets = [(runner, "select"), (runner, "predict"), (runner, "run_point"),
               (lattice, "run_point"), (pool, "run_supervised"),
               (context, "merge_worker_shards")]
    classes = [(StencilKernel, "trace"), (CacheHierarchy, "run"),
               (PointStore, "get"), (PointStore, "put"),
               (CheckpointJournal, "get"), (CheckpointJournal, "record")]
    before = ([getattr(m, a) for m, a in targets]
              + [c.__dict__[a] for c, a in classes])

    cfg = ExperimentConfig(
        l1=CacheParams(size_bytes=2048, line_bytes=32, assoc=1, name="L1"),
        l2=CacheParams(size_bytes=65536, line_bytes=64, assoc=1, name="L2"),
        nk=8)
    t = tracer.Tracer()
    t.install()
    try:
        import time

        t0 = time.perf_counter()
        runner.sweep("JACOBI", ["Orig", "GcdPad"], [24, 32], cfg)
        lattice.run_lattice("JACOBI", 40, cfg=cfg, assocs=(1, 2))
        runner.sweep("JACOBI", ["Orig"], [16], cfg, options=SweepOptions(
            checkpoint=tmp_path / "journal.jsonl",
            point_cache=tmp_path / "store"))
        wall = time.perf_counter() - t0
    finally:
        assert t.uninstall()
    after = ([getattr(m, a) for m, a in targets]
             + [c.__dict__[a] for c, a in classes])
    assert all(x is y for x, y in zip(before, after))

    path = tmp_path / "spans.jsonl"
    t.dump(path)
    counts, spans = tracer.load(path)
    self_s, point_s = tracer.layer_times(spans)
    assert len(point_s) == 4 + 3 * 2 * 2 + 1
    names = {span[0] for span in spans}
    assert set(run.SELF_TIMES) - names == {"resilience.pool",
                                               "obs.merge"}
    assert counts["cache.l1.accesses"] > 0 and counts["trace.chunks"] > 0
    total = sum(self_s.values())
    outermost = sum(end - start for _, start, end, parent, _ in spans
                    if parent is None)
    assert total == pytest.approx(outermost)
    assert outermost <= wall


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures",
         "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
