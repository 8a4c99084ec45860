"""Write ``expected.json`` and ``costs.json`` for the benchmark.

Simulates every point the workload generators can draw (see
``workloads.universe``) through the public API at paper density
(``REPRO_FULL=1``, NK = 30) and records, per point, the statistics the
benchmark checks bit for bit, plus the host seconds each unit took
(the generators balance their draws with those).

    PYTHONPATH=src python3 perfbench/make_expected.py
    PYTHONPATH=src python3 perfbench/make_expected.py --retime
    PYTHONPATH=src python3 perfbench/make_expected.py --crosscheck

``--retime`` re-times only the ``ledgered`` and ``lattice`` units and
rewrites their entries (the figures entries stay as they are).

``--crosscheck`` re-simulates a fixed sample of the expected points two
independent ways and compares them with ``expected.json``: through the
flat (materialized) trace form, and through the scalar exact-LRU
``SetAssociativeCache`` reference fed the flat read stream.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib
import statistics
import sys
import time

os.environ["REPRO_FULL"] = "1"

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Worker processes that simulate the figures and ledgered units.
#: ``costs.json`` records each figures unit's host seconds while this
#: many share the host, and the draws are balanced on those costs:
#: another value re-times every unit and changes every seed's draw.
JOBS = 2
#: Timings of each ``ledgered`` and ``lattice`` unit; ``costs.json``
#: records the median. Their draws are balanced within 2.5% of their
#: targets, finer than one timing on a shared host resolves.
TIMINGS = 3
#: Units timed at once, per workload timed ``TIMINGS`` times: a ledgered
#: run's pool has two workers, and a lattice run is serial.
RETIMED_JOBS = {"ledgered": 2, "lattice": 1}


def stats_of(point) -> dict:
    """The checked statistics of one ``PointResult``."""
    return {"refs": point.refs, "l1_misses": point.l1_misses,
            "l2_misses": point.l2_misses,
            "tile": list(point.tile) if point.tile else None,
            "di_p": point.di_p, "dj_p": point.dj_p,
            "degraded": point.degraded}


def _figure_unit(args):
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_point

    kernel, strategy, n = args
    t0 = time.perf_counter()
    p = run_point(kernel, strategy, n, ExperimentConfig())
    cost = time.perf_counter() - t0
    key = workloads.point_key(kernel, strategy, n)
    return {"expected": {key: stats_of(p)}, "costs": {key: cost}}


def _ledger_unit(args):
    """One small point's statistics; ``median_costs`` times it."""
    return {"expected": _figure_unit(args)["expected"], "costs": {}}


def _timed_ledger(args):
    """One ``ledgered`` point with metrics on (3C classification)."""
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.options import PointPolicy
    from repro.experiments.runner import run_point
    from repro.obs import metrics
    from repro.obs.metrics import MetricsRegistry
    from repro.resilience import PointBudget

    key = workloads.point_key(*args)
    t0 = time.perf_counter()
    with metrics.collect(MetricsRegistry()):
        p = run_point(*args, ExperimentConfig(),
                      policy=PointPolicy(budget=PointBudget()))
    return "classified/" + key, time.perf_counter() - t0, {key: stats_of(p)}


def _timed_lattice(n):
    from repro.experiments.lattice import run_lattice

    t0 = time.perf_counter()
    data = run_lattice(workloads.LATTICE_KERNEL, n)
    seconds = time.perf_counter() - t0
    return f"lattice/{n}", seconds, {
        workloads.point_key(workloads.LATTICE_KERNEL, s, n, a, line):
        stats_of(p) for (s, a, line), p in data.cells.items()}


def _timed_unit(unit):
    kind, args = unit
    return {"ledgered": _timed_ledger, "lattice": _timed_lattice}[kind](args)


def median_costs(expected: dict) -> dict:
    """Median seconds of every ``ledgered`` and ``lattice`` unit.

    Each timing runs in a process forked for that one unit from a
    parent that has only imported the program, as the supervised pool
    runs a ledgered point, so no selection or trace cache carries over
    from another unit; ``RETIMED_JOBS`` run at once. Every unit is
    timed ``TIMINGS`` times, one round of a workload's units after
    another, and the median is kept. Lattice cells missing from
    ``expected`` are added; every other result must equal ``expected``
    (a ledgered point's statistics with classification on must equal
    the plain run's).
    """
    from repro.experiments import lattice, runner  # noqa: F401  (pre-fork)

    times: dict = {}
    ctx = multiprocessing.get_context("fork")
    for kind, jobs in RETIMED_JOBS.items():
        units = [(kind, args) for args in workloads.universe()[kind]]
        with ctx.Pool(jobs, maxtasksperchild=1) as pool:
            for name, seconds, stats in pool.imap_unordered(
                    _timed_unit, units * TIMINGS):
                for key, value in stats.items():
                    if expected.setdefault(key, value) != value:
                        raise SystemExit(f"{key}: statistics differ "
                                         "between runs")
                times.setdefault(name, []).append(seconds)
    return {name: statistics.median(ts) for name, ts in times.items()}


def _run_unit(unit):
    kind, args = unit
    fn = {"figures": _figure_unit, "ledgered": _ledger_unit}[kind]
    return fn(args)


def generate() -> None:
    units = [(kind, args) for kind in ("figures", "ledgered")
             for args in workloads.universe()[kind]]
    # Slow units first, so the pool does not end on one long straggler.
    slow = set(workloads.COLLAPSE_SIZES) | set(workloads.BIG_SIZES)
    units.sort(key=lambda u: not (u[0] == "figures" and u[1][2] in slow))
    expected: dict = {}
    costs: dict = {}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(JOBS) as pool:
        for i, res in enumerate(pool.imap_unordered(_run_unit, units), 1):
            expected.update(res["expected"])
            costs.update(res["costs"])
            if i % 25 == 0 or i == len(units):
                print(f"{i}/{len(units)} units", file=sys.stderr)
    costs.update(median_costs(expected))
    write_tables(expected, costs)


def retime() -> None:
    """Time the ``ledgered`` and ``lattice`` units again; rewrite them.

    The figures entries stay. The lattice statistics are made again, so
    a lattice size added to the universe gets its entries.
    """
    universe = workloads.universe()
    figures = {workloads.point_key(*u) for u in universe["figures"]}
    keep = figures | {workloads.point_key(*u) for u in universe["ledgered"]}
    expected = {k: v for k, v in json.loads(
                    (HERE / "expected.json").read_text()).items()
                if k in keep}
    costs = {k: v for k, v in json.loads(
                 (HERE / "costs.json").read_text()).items()
             if k in figures}
    costs.update(median_costs(expected))
    write_tables(expected, costs)


def write_tables(expected: dict, costs: dict) -> None:
    costs = {k: round(v, 4) for k, v in costs.items()}
    for name, table in (("expected.json", expected), ("costs.json", costs)):
        (HERE / name).write_text(dump_table(table))


def dump_table(table: dict) -> str:
    """JSON with one sorted entry per line (small, reviewable diffs)."""
    return "{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(table[k], separators=(', ', ': '))}"
        for k in sorted(table)) + "\n}\n"


#: Points re-simulated by --crosscheck: small ledgered points of every
#: kernel, one paper-size figures point, and associative lattice cells.
CROSSCHECK_SAMPLE = (
    ("JACOBI", "GcdPad", 40, 1, 32), ("REDBLACK", "Pad", 56, 1, 32),
    ("RESID", "Euc3D", 48, 1, 32), ("RESID", "GcdPadNT", 64, 1, 32),
    ("JACOBI", "Euc3D", 200, 1, 32), ("JACOBI", "Orig", 222, 2, 32),
    ("JACOBI", "GcdPad", 222, 4, 64),
)


def _cell_config(assoc: int, line: int):
    from dataclasses import replace

    from repro.cache.params import CacheParams
    from repro.experiments.config import ExperimentConfig

    cfg = ExperimentConfig()
    l1 = CacheParams(size_bytes=cfg.l1.size_bytes, line_bytes=line,
                     assoc=assoc, name="L1")
    return replace(cfg, l1=l1)


def _scalar_reference(kernel: str, strategy: str, n: int, cfg) -> dict:
    """refs and per-level misses from the scalar exact-LRU simulators."""
    from repro.cache.set_assoc import SetAssociativeCache
    from repro.core.selector import select
    from repro.experiments.runner import _schedule_for
    from repro.kernels import KERNELS

    kern = KERNELS[kernel](n, cfg.nk, elem_bytes=cfg.elem_bytes)
    meta = kern.meta
    sel = select(strategy, cfg.cs, n, n, mi=meta.mi, mj=meta.mj,
                 atd=meta.atd)
    levels = [SetAssociativeCache(p) for p in cfg.levels]
    refs = 0
    for chunk in kern.trace(sel, _schedule_for(strategy, kernel, sel),
                            structured=True):
        refs += chunk.n_addresses
        cur = chunk.read_addresses  # write-around: writes bypass caches
        for lvl in levels:
            cur = cur[lvl.access(cur)]
    return {"refs": refs, "l1_misses": levels[0].stats.misses,
            "l2_misses": levels[1].stats.misses}


def crosscheck() -> int:
    from repro.experiments.options import PointPolicy
    from repro.experiments.runner import run_point

    expected = json.loads((HERE / "expected.json").read_text())
    bad = 0
    for kernel, strategy, n, assoc, line in CROSSCHECK_SAMPLE:
        key = workloads.point_key(kernel, strategy, n, assoc, line)
        want = expected[key]
        cfg = _cell_config(assoc, line)
        flat = stats_of(run_point(kernel, strategy, n, cfg,
                                  policy=PointPolicy(trace_form="flat")))
        scalar = _scalar_reference(kernel, strategy, n, cfg)
        flat_ok = flat == want
        scalar_ok = all(scalar[f] == want[f] for f in scalar)
        bad += not (flat_ok and scalar_ok)
        print(f"{key}: flat {'ok' if flat_ok else flat}, "
              f"scalar {'ok' if scalar_ok else scalar}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--crosscheck", action="store_true")
    ap.add_argument("--retime", action="store_true")
    args = ap.parse_args(argv)
    if args.crosscheck:
        return crosscheck()
    if args.retime:
        retime()
    else:
        generate()
    return 0


if __name__ == "__main__":
    sys.exit(main())
