"""The repository benchmark: seeded paper-density workloads, checked exactly.

    python3 perfbench/run.py --workload figures|lattice|ledgered \
        --seed N --seconds S --trace 0|1

Draws the workload's point list from the seed (``workloads.py``) and
runs it through the entry points a user calls, each timed run in a
fresh interpreter (``child.py``) with ``REPRO_FULL=1``. Every point's
statistics are compared bit for bit with ``expected.json``.

``--trace 0`` repeats the timed run while the next repeat is expected
to end within ``--seconds`` (at least ``workloads.MIN_REPEATS`` times)
and reports the end-to-end metrics (medians over the repeats). ``--trace 1``
makes one untraced and one traced run (``tracer.py``) of the same draw
and reports the per-layer metrics and the tracing overhead. The last line
of standard output is one JSON object; everything before it is a
human-readable report. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (("wall_s", "s"), ("refs_per_s", "refs/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("exact_frac", "ratio"))

#: Set-up-only interpreters started per timed run, besides one per repeat.
SETUP_PROBES = 3
#: Entries of other configurations in the ledgered store fixture.
UNREAD_ENTRIES = 300
#: A child interpreter that runs longer than this has hung (and the
#: benchmark still ends within 180 s).
CHILD_TIMEOUT_S = 120.0
STAT_FIELDS = ("refs", "l1_misses", "l2_misses", "tile", "di_p", "dj_p",
               "degraded")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {
        "core.select_s": "s", "core.select_calls": "count",
        "kernels.trace_setup_s": "s",
        "trace.gen_s": "s", "trace.chunks": "count",
        "trace.addresses": "count", "trace.stored": "count",
        "trace.compression": "ratio", "trace.run_chunk_frac": "ratio",
        "trace.ns_per_address": "ns",
        "cache.run_s": "s", "cache.ns_per_access": "ns",
        "cache.l1.accesses": "count", "cache.l1.misses": "count",
        "cache.l2.accesses": "count", "cache.l2.misses": "count",
    }
    units.update({f"cache.mode.{m}": "count" for m in tracer.CACHE_MODES})
    units.update({f"cache.run_mode.{m}": "count"
                  for m in tracer.CACHE_RUN_MODES})
    units.update({
        "perfmodel.predict_s": "s",
        "experiments.points": "count", "experiments.point_p50_s": "s",
        "experiments.point_tail_s": "s", "experiments.point_tail_pct": "%",
        "experiments.other_s": "s", "experiments.traced_wall_s": "s",
        "perf.store.get_s": "s", "perf.store.gets": "count",
        "perf.store.hit_frac": "ratio", "perf.store.put_s": "s",
        "perf.store.puts": "count",
        "resilience.journal.get_s": "s", "resilience.journal.record_s": "s",
        "resilience.journal.records": "count",
        "resilience.pool.wall_s": "s", "resilience.pool.self_s": "s",
        "resilience.pool.busy_frac": "ratio",
        "resilience.pool.attempts": "count",
        "resilience.pool.retries": "count",
        "resilience.pool.quarantined": "count",
        "obs.sim_point_s": "s", "obs.merge_s": "s",
        "tracing_overhead_frac": "ratio",
    })
    return units


#: Per-layer metrics that are self times; with ``experiments.other_s``
#: they add up to ``experiments.traced_wall_s``.
SELF_TIMES = {
    "core.select": "core.select_s",
    "kernels.trace_setup": "kernels.trace_setup_s",
    "trace.gen": "trace.gen_s", "cache.run": "cache.run_s",
    "perfmodel.predict": "perfmodel.predict_s",
    "perf.store.get": "perf.store.get_s",
    "perf.store.put": "perf.store.put_s",
    "resilience.journal.get": "resilience.journal.get_s",
    "resilience.journal.record": "resilience.journal.record_s",
    "resilience.pool": "resilience.pool.self_s",
    "obs.merge": "obs.merge_s",
}


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------

def check_points(points: list[dict], keys, expected: dict) -> dict[str, str]:
    """Why each failed point failed, by key; empty when every point is exact.

    A point fails if it is missing (its call raised, or it was never
    returned), duplicated or unexpected, degraded to the analytic model
    (which also covers quarantined pool points), or differs from
    ``expected`` in any checked statistic.
    """
    got: dict[str, dict] = {}
    failed: dict[str, list[str]] = {}
    for p in points:
        key = workloads.point_key(p["kernel"], p["strategy"], p["n"],
                                  p["assoc"], p["line"])
        if key in got:
            failed.setdefault(key, []).append("returned twice")
        got[key] = p
    wanted = set(keys)
    for key in got:
        if key not in wanted:
            failed.setdefault(key, []).append("not requested")
    for key in keys:
        p = got.get(key)
        if p is None:
            failed.setdefault(key, []).append("missing")
            continue
        want = expected[key]
        bad = [f"{f} {p[f]} != {want[f]}" for f in STAT_FIELDS
               if p[f] != want[f]]
        if p["degraded"]:
            bad.insert(0, "degraded to the analytic model")
        failed.setdefault(key, []).extend(bad)
    return {key: ", ".join(why) for key, why in failed.items() if why}


def failure_lines(res: dict) -> list[str]:
    """Report lines of one repeat: the calls that raised, the failed points."""
    return ([f"raised: {err}" for err in res["errors"]]
            + [f"{key}: {why}" for key, why in res["failures"].items()])


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """(percentile, value): the highest percentile with >= 10 points beyond.

    With fewer than 20 samples no percentile above the median has ten
    points beyond it, and the median is reported.
    """
    vals = sorted(samples)
    n = len(vals)
    q = (100 * (n - 10)) // n if n >= 20 else 50
    return q, _nearest_rank(vals, q)


def _nearest_rank(vals: list[float], q: float) -> float:
    if not vals:
        return 0.0
    rank = max(1, math.ceil(q / 100 * len(vals)))
    return vals[min(rank, len(vals)) - 1]


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------

def child_env() -> dict[str, str]:
    """The environment of every program process: paper density, no knobs.

    Bytecode is always cached, so that after the first set-up probe the
    imports cost what they cost a user who has run the program before,
    whatever the caller's ``PYTHONDONTWRITEBYTECODE``.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["REPRO_FULL"] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of ``proc``'s process group; wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Bench:
    """Runs one draw: set-up probes, fixture, timed and traced repeats."""

    def __init__(self, draw: workloads.Draw, expected: dict,
                 work: pathlib.Path) -> None:
        self.draw = draw
        self.expected = expected
        self.work = work
        self.env = child_env()
        self.fixture: pathlib.Path | None = None

    def _python(self, script: str, spec: dict, name: str) -> float:
        """Run ``script`` on ``spec``; returns the monotonic start time."""
        path = self.work / f"{name}.spec.json"
        path.write_text(json.dumps(spec))
        log = self.work / f"{name}.log"
        start = time.monotonic()
        with open(log, "w") as err:
            # Its own session, so the pool workers it forks can be
            # stopped with it.
            proc = subprocess.Popen(
                [sys.executable, str(HERE / script), str(path)],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
                start_new_session=True)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = None
            finally:
                _stop_group(proc)
        if code is None:
            raise BenchError(f"{name}: timed out")
        if code != 0:
            tail = log.read_text()[-2000:]
            raise BenchError(f"{name}: exit {code}\n{tail}")
        return start

    def _spec(self, name: str, **extra) -> dict:
        d = self.draw
        spec = {"workload": d.workload,
                "result": str(self.work / f"{name}.result.json"), **extra}
        if d.workload == "figures":
            spec["calls"] = [[k, [n]] for k, n in d.calls]
        elif d.workload == "lattice":
            spec["kernel"] = workloads.LATTICE_KERNEL
            spec["sizes"] = list(d.calls)
        else:
            run = self.work / name
            spec.update(store=str(run / "store"),
                        checkpoint=str(run / "journal.jsonl"),
                        run_dir=str(run / "runs"), csv=str(run / "points.csv"))
            spec["argv"] = ["table3", "--full", "-q",
                            *(a for n in d.calls for a in ("--n", str(n))),
                            "--run-dir", spec["run_dir"],
                            "--checkpoint", spec["checkpoint"],
                            "--point-cache", spec["store"],
                            "--parallel", str(workloads.LEDGER_WORKERS),
                            "--csv", spec["csv"]]
        return spec

    def setup_probe(self, name: str) -> float:
        spec = self._spec(name, setup_only=True)
        start = self._python("child.py", spec, name)
        return json.loads(pathlib.Path(spec["result"]).read_text())[
            "ready"] - start

    def build_fixture(self) -> None:
        if not self.draw.warm:
            return
        self.fixture = self.work / "fixture-store"
        self._python("fixture.py", {
            "store": str(self.fixture),
            "warm": [list(w) for w in self.draw.warm],
            "unread": UNREAD_ENTRIES}, "fixture")

    def repeat(self, name: str, trace: bool = False) -> dict:
        """One cold run in a fresh interpreter, checked against expected."""
        spec = self._spec(name, trace=trace,
                          spans=str(self.work / f"{name}.spans.jsonl"))
        if self.draw.workload == "ledgered":
            (self.work / name).mkdir()
            shutil.copytree(self.fixture, spec["store"])
        start = self._python("child.py", spec, name)
        res = json.loads(pathlib.Path(spec["result"]).read_text())
        res["setup"] = res["ready"] - start
        res["failures"] = check_points(res["points"], self.draw.keys,
                                       self.expected)
        # Throughput counts only the points this run simulated and got
        # exactly right: a point that degraded to the analytic model
        # must not make the run look faster.
        res["exact_refs"] = sum(self.expected[key]["refs"]
                                for key in self.draw.simulated
                                if key not in res["failures"])
        res["spec"] = spec
        return res


def timed(bench: Bench, seconds: float) -> tuple[dict, int, int, list]:
    """Repeat cold timed runs for ``seconds``; end-to-end medians."""
    bench.setup_probe("warmup")  # compiles bytecode; not measured
    setups = [bench.setup_probe(f"setup{i}") for i in range(SETUP_PROBES)]
    bench.build_fixture()
    at_least = workloads.MIN_REPEATS[bench.draw.workload]
    reps: list[dict] = []
    t0 = time.monotonic()
    while True:
        reps.append(bench.repeat(f"rep{len(reps)}"))
        spent = time.monotonic() - t0
        if (len(reps) >= at_least
                and spent + spent / len(reps) > seconds):
            break
    setups += [r["setup"] for r in reps]
    attempted = len(bench.draw.keys) * len(reps)
    failed = sum(len(r["failures"]) for r in reps)
    values = {
        "wall_s": statistics.median(r["wall"] for r in reps),
        "refs_per_s": statistics.median(r["exact_refs"] / r["wall"]
                                        for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "exact_frac": (attempted - failed) / attempted,
    }
    report = [f"repeats: {len(reps)} (walls "
              + ", ".join(f"{r['wall']:.3f}" for r in reps) + " s)",
              f"setup samples: {len(setups)} (median "
              f"{values['setup_s']:.3f} s, range {min(setups):.3f}"
              f"-{max(setups):.3f} s)",
              f"fail_frac: {failed / attempted:.4f} "
              f"({failed} of {attempted} points)"]
    return values, attempted, failed, report + [
        line for r in reps for line in failure_lines(r)]


def _ledger_metrics(spec: dict) -> dict:
    """The run's own metrics.json (ledgered: the pool workers' numbers)."""
    found = sorted(pathlib.Path(spec["run_dir"]).glob("*/metrics.json"))
    if not found:
        raise BenchError("ledgered run left no metrics.json")
    return json.loads(found[-1].read_text())


def _counter(snap: dict, name: str, **labels) -> int:
    return sum(row["value"] for row in snap.get("counters", [])
               if row["name"] == name
               and all(row["labels"].get(k) == v for k, v in labels.items()))


def layer_metrics(res: dict, untraced_wall: float) -> tuple[dict, list]:
    """Per-layer metrics of one traced repeat."""
    counts, spans = tracer.load(res["spec"]["spans"])
    self_s, point_s = tracer.layer_times(spans)
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for name, start, end, _, _ in spans:
        totals[name] = totals.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
    wall = res["wall"]
    m = {metric: self_s.get(span, 0.0) for span, metric in SELF_TIMES.items()}
    m["experiments.other_s"] = wall - sum(m.values())
    m["experiments.traced_wall_s"] = wall
    c = dict(counts)
    point_samples = list(point_s.values())
    sim_point_s = 0.0
    if res["spec"]["workload"] == "ledgered":
        snap = _ledger_metrics(res["spec"])
        hist = [row for row in snap.get("histograms", [])
                if row["name"] == "repro.sim.point_seconds"]
        point_samples = [v for row in hist for v in row["samples"]]
        sim_point_s = sum(row["total"] for row in hist)
        for i, level in ((1, "L1"), (2, "L2")):
            c[f"cache.l{i}.accesses"] = _counter(
                snap, "repro.sim.accesses", level=level)
            c[f"cache.l{i}.misses"] = _counter(
                snap, "repro.sim.misses", level=level)
        for mode in tracer.CACHE_MODES:
            c[f"cache.mode.{mode}"] = _counter(
                snap, "repro.cache.engine_level_mode", mode=mode)
        addresses = _counter(snap, "repro.trace.addresses")
        run_addresses = _counter(snap, "repro.trace.run_addresses")
        c["trace.chunks"] = _counter(snap, "repro.trace.chunks")
        c["trace.addresses"] = addresses
        c["trace.run_chunks"] = _counter(snap, "repro.trace.run_chunks")
        c["trace.stored"] = (addresses - run_addresses
                             + _counter(snap, "repro.trace.runs"))
    addresses = c.get("trace.addresses", 0)
    accesses = c.get("cache.l1.accesses", 0)
    gets = calls.get("perf.store.get", 0)
    pool_wall = totals.get("resilience.pool", 0.0)
    pct, tail = tail_percentile(point_samples)
    m.update({
        "core.select_calls": calls.get("core.select", 0),
        "trace.chunks": c.get("trace.chunks", 0),
        "trace.addresses": addresses,
        "trace.stored": c.get("trace.stored", 0),
        "trace.compression": (addresses / c["trace.stored"]
                              if c.get("trace.stored") else 0.0),
        "trace.run_chunk_frac": (c.get("trace.run_chunks", 0)
                                 / c["trace.chunks"]
                                 if c.get("trace.chunks") else 0.0),
        "trace.ns_per_address": (m["trace.gen_s"] * 1e9 / addresses
                                 if addresses and m["trace.gen_s"] else 0.0),
        "cache.ns_per_access": (m["cache.run_s"] * 1e9 / accesses
                                if accesses and m["cache.run_s"] else 0.0),
        "experiments.points": len(res["points"]),
        "experiments.point_p50_s": _nearest_rank(sorted(point_samples), 50),
        "experiments.point_tail_s": tail,
        "experiments.point_tail_pct": pct,
        "perf.store.gets": gets,
        "perf.store.hit_frac": (c.get("perf.store.hits", 0) / gets
                                if gets else 0.0),
        "perf.store.puts": calls.get("perf.store.put", 0),
        "resilience.journal.records": calls.get("resilience.journal.record",
                                                0),
        "resilience.pool.wall_s": pool_wall,
        "resilience.pool.busy_frac": (
            sim_point_s / (workloads.LEDGER_WORKERS * pool_wall)
            if pool_wall else 0.0),
        "obs.sim_point_s": sim_point_s,
        "tracing_overhead_frac": wall / untraced_wall - 1,
    })
    for name in ("cache.l1.accesses", "cache.l1.misses", "cache.l2.accesses",
                 "cache.l2.misses", "resilience.pool.attempts",
                 "resilience.pool.retries", "resilience.pool.quarantined",
                 *(f"cache.mode.{x}" for x in tracer.CACHE_MODES),
                 *(f"cache.run_mode.{x}" for x in tracer.CACHE_RUN_MODES)):
        m[name] = c.get(name, 0)
    report = [f"traced wall {wall:.4f} s = "
              f"{sum(m[v] for v in SELF_TIMES.values()):.4f} s layer self "
              f"times + {m['experiments.other_s']:.4f} s other",
              f"point tail: p{pct} of {len(point_samples)} point times",
              f"wrappers removed: {res['wrappers_removed']}"]
    unknown = sorted(k for k in counts if k.startswith("cache.")
                     and k not in m)
    if unknown:
        report.append("unlisted engine modes: " + ", ".join(unknown))
    return m, report


def traced(bench: Bench) -> tuple[dict, int, int, list]:
    """One untraced and one traced cold run; per-layer metrics."""
    bench.setup_probe("warmup")
    bench.build_fixture()
    plain = bench.repeat("untraced")
    res = bench.repeat("traced", trace=True)
    values, report = layer_metrics(res, plain["wall"])
    failures = failure_lines(plain) + failure_lines(res)
    failed = len(plain["failures"]) + len(res["failures"])
    if res["points"] != plain["points"]:
        failures.append("traced point results differ from untraced ones")
        failed += 1
    if not res["wrappers_removed"]:
        failures.append("a tracing wrapper was left installed")
        failed += 1
    attempted = 2 * len(bench.draw.keys)
    return values, attempted, failed, report + failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.TARGETS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program to measure under {ROOT / 'src'}")
        expected = json.loads((HERE / "expected.json").read_text())
        costs = json.loads((HERE / "costs.json").read_text())
        draw = workloads.draw(args.workload, args.seed, costs, expected)
        work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            bench = Bench(draw, expected, work)
            if args.trace:
                values, attempted, failed, report = traced(bench)
                units = per_layer_units()
            else:
                values, attempted, failed, report = timed(bench, args.seconds)
                units = dict(END_TO_END)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                work.parent.rmdir()  # only when no other run is using it
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"workload {draw.workload}, seed {draw.seed}: {draw.calls}"
          + (f", {len(draw.warm)} warm" if draw.warm else "")
          + f", {len(draw.keys)} points, recorded cost {draw.cost:.2f} s, "
          f"{draw.refs} simulated refs")
    for line in report:
        print("  " + line)
    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
