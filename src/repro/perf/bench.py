"""Sweep benchmark harness: where does a simulated point's time go?

Times the three stages of one point — reference-trace generation,
L1-only simulation, and the full L1+L2 hierarchy — plus the end-to-end
point (selection + layout + trace + simulation + prediction), and
writes the result as ``BENCH_sweep.json`` so the repo's performance
trajectory is data, not anecdote::

    PYTHONPATH=src python -m repro.perf.bench --out BENCH_sweep.json

Timings use :mod:`repro.perf.timing` (perf_counter, best-of-N — the
minimum, because external interference only ever adds time). Stage
timings exclude the memo and any persistent store: every run is a cold
simulation. The JSON layout:

* ``points[*].trace_seconds`` — generate and consume the address trace;
* ``points[*].l1_seconds`` — trace + L1-only simulation;
* ``points[*].l2_seconds`` — trace + full hierarchy (L1 and L2);
* ``points[*].end_to_end_seconds`` — the whole point, exactly what a
  cold ``run_point`` pays;
* ``points[*].addresses`` / ``addresses_per_second`` — trace length and
  end-to-end throughput;
* ``points[*].assoc`` — the L1 associativity benched (``--assoc``
  widens the grid to same-capacity associative geometries; reports
  from before the field default to 1 when compared).

Comparisons read only the fields above, so reports from older versions
that carry fields this one no longer writes still compare and trend.

``--assoc-speedup A`` additionally times an A-way sweep against the
scalar exact-LRU reference (:func:`bench_assoc_speedup`) and prints
the ratio; ``benchmarks/test_bench_sweep_perf.py`` gates it at >= 2x
for 2-way and >= 1.5x for 4- and 8-way.

CI runs this on a small grid and archives the artifact; compare two
files with a glance at ``addresses_per_second``.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import platform
import sys
import time
from typing import Sequence

from repro.cache.hierarchy import CacheHierarchy
from repro.perf.timing import best_of

__all__ = ["bench_point", "bench_sweep", "bench_assoc_speedup",
           "write_bench", "read_bench",
           "compare_benchmarks", "format_compare", "read_bench_dir",
           "bench_trend", "format_trend", "main"]

_SCHEMA_VERSION = 1

#: Default CI-friendly grid: both the cheap 7-point kernel and the
#: 27-point one the paper stresses at scale, tiled and untiled.
DEFAULT_KERNELS = ("JACOBI", "RESID")
DEFAULT_STRATEGIES = ("Orig", "GcdPad")


def _point_pipeline(kernel: str, strategy: str, n: int, cfg):
    """(trace_fn, l1_fn, l2_fn, end_fn, addresses_fn) for one point.

    ``addresses_fn`` reports the trace length *counted during the timed
    ``trace_fn`` runs* — the trace is never drained an extra time just
    to count it (it used to be, which charged every benched point one
    unmeasured full generation). The L1-only stage drives a
    single-level hierarchy, so every stage flows through the engine
    entry points the real runner uses.
    """
    from repro.core.selector import select
    from repro.experiments.runner import _schedule_for, _simulate_exact
    from repro.kernels import KERNELS

    kern = KERNELS[kernel](n, cfg.nk, elem_bytes=cfg.elem_bytes)
    meta = kern.meta
    sel = select(strategy, cfg.cs, n, n, mi=meta.mi, mj=meta.mj,
                 atd=meta.atd)
    schedule = _schedule_for(strategy, kernel, sel)
    inter_pad = cfg.cs if cfg.inter_pad else None

    def chunks():
        return kern.trace(sel, schedule, inter_pad_cache=inter_pad,
                          structured=True)

    counted = {"addresses": 0}

    def trace_only():
        counted["addresses"] = sum(len(chunk) for chunk in chunks())

    def addresses_fn() -> int:
        if not counted["addresses"]:  # trace_fn not timed yet
            trace_only()
        return counted["addresses"]

    def l1_only():
        CacheHierarchy([cfg.l1]).run(chunks())

    def full_hierarchy():
        CacheHierarchy(cfg.levels).run(chunks())

    def end_to_end():
        _simulate_exact(kernel, strategy, n, cfg)

    return trace_only, l1_only, full_hierarchy, end_to_end, addresses_fn


def _assoc_cfg(cfg, assoc: int):
    """``cfg`` with its L1 re-shaped to ``assoc`` ways, same capacity."""
    from dataclasses import replace

    from repro.cache.params import CacheParams

    if assoc == 1:
        return cfg
    l1 = cfg.l1
    return replace(cfg, l1=CacheParams(
        size_bytes=l1.size_bytes, line_bytes=l1.line_bytes, assoc=assoc,
        name=f"{l1.name}/{assoc}w"))


def bench_point(kernel: str, strategy: str, n: int, cfg=None, *,
                repeats: int = 3, assoc: int = 1) -> dict:
    """Stage timings for one (kernel, strategy, N[, assoc]) point.

    ``assoc > 1`` re-shapes the L1 to that many ways (same capacity and
    line size), exercising the vectorized associative engine path.
    """
    from repro.experiments.config import ExperimentConfig

    cfg = _assoc_cfg(cfg or ExperimentConfig(), assoc)
    trace_fn, l1_fn, l2_fn, end_fn, addresses_fn = _point_pipeline(
        kernel, strategy, n, cfg)
    trace_seconds = best_of(trace_fn, repeats)
    addresses = addresses_fn()
    end_seconds = best_of(end_fn, repeats)
    return {
        "kernel": kernel,
        "strategy": strategy,
        "n": n,
        "nk": cfg.nk,
        "assoc": assoc,
        "addresses": addresses,
        "trace_seconds": trace_seconds,
        "l1_seconds": best_of(l1_fn, repeats),
        "l2_seconds": best_of(l2_fn, repeats),
        "end_to_end_seconds": end_seconds,
        "addresses_per_second": addresses / end_seconds if end_seconds else 0.0,
    }


def bench_sweep(kernels: Sequence[str] = DEFAULT_KERNELS,
                strategies: Sequence[str] = DEFAULT_STRATEGIES,
                sizes: Sequence[int] = (96,),
                cfg=None, *, repeats: int = 3,
                assocs: Sequence[int] = (1,)) -> dict:
    """Bench every (kernel, strategy, N, assoc) point; return the report."""
    import numpy

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import config_fingerprint

    cfg = cfg or ExperimentConfig()
    points = [bench_point(k, s, n, cfg, repeats=repeats, assoc=a)
              for k in kernels for s in strategies for n in sizes
              for a in assocs]
    return {
        "v": _SCHEMA_VERSION,
        "fingerprint": config_fingerprint(cfg),
        "created": time.time(),
        "repeats": repeats,
        "host": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
        },
        "points": points,
    }


def bench_assoc_speedup(kernel: str = "JACOBI", strategy: str = "Orig",
                        n: int = 96, cfg=None, *, assoc: int = 2,
                        repeats: int = 2) -> dict:
    """Vectorized associative engine vs the scalar exact-LRU reference.

    Materializes one point's trace, then times the full L1+L2 hierarchy
    over it two ways: through :meth:`CacheHierarchy.run` (the batched
    engine driving the vectorized simulators that
    :func:`repro.cache.build_simulator` picks for the ``assoc``-way L1),
    and chunk-by-chunk with a scalar
    :class:`~repro.cache.set_assoc.SetAssociativeCache` L1 — the
    exact-LRU reference the vectorized path is differentially tested
    against. Trace generation is identical on both sides and excluded,
    so ``speedup`` isolates simulation cost.
    """
    from repro.cache.factory import build_simulator
    from repro.cache.set_assoc import SetAssociativeCache
    from repro.core.selector import select
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import _schedule_for
    from repro.kernels import KERNELS

    cfg = _assoc_cfg(cfg or ExperimentConfig(), assoc)
    kern = KERNELS[kernel](n, cfg.nk, elem_bytes=cfg.elem_bytes)
    meta = kern.meta
    sel = select(strategy, cfg.cs, n, n, mi=meta.mi, mj=meta.mj,
                 atd=meta.atd)
    schedule = _schedule_for(strategy, kernel, sel)
    inter_pad = cfg.cs if cfg.inter_pad else None
    chunks = [chunk.addresses
              for chunk in kern.trace(sel, schedule,
                                      inter_pad_cache=inter_pad,
                                      structured=True)]
    addresses = sum(int(c.size) for c in chunks)

    def fast():
        CacheHierarchy(cfg.levels).run(chunks)

    def reference():
        levels = [SetAssociativeCache(cfg.l1),
                  *(build_simulator(p) for p in cfg.levels[1:])]
        for addrs in chunks:
            cur = addrs
            for lvl in levels:
                miss = lvl.access(cur)
                cur = cur[miss]

    fast_s = best_of(fast, repeats)
    ref_s = best_of(reference, repeats)
    return {
        "kernel": kernel, "strategy": strategy, "n": n, "nk": cfg.nk,
        "assoc": assoc, "addresses": addresses,
        "fast_seconds": fast_s, "reference_seconds": ref_s,
        "speedup": (ref_s / fast_s) if fast_s > 0 else None,
    }


def write_bench(report: dict, path) -> pathlib.Path:
    """Write a bench report as stable, diff-friendly JSON."""
    out = pathlib.Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return out


# ----------------------------------------------------------------------
# report comparison (``repro bench compare OLD.json NEW.json``)
# ----------------------------------------------------------------------

def read_bench(path) -> dict:
    """Load a bench report, validating just enough to compare it."""
    from repro.errors import ExperimentError

    p = pathlib.Path(path)
    if not p.exists():
        raise ExperimentError(f"no such bench report: {p}")
    try:
        report = json.loads(p.read_text())
    except ValueError as exc:
        raise ExperimentError(f"{p}: not valid JSON ({exc})") from None
    if not isinstance(report, dict) or not isinstance(
            report.get("points"), list):
        raise ExperimentError(
            f"{p}: not a bench report (missing 'points' list)")
    return report


def _point_key(pt: dict) -> tuple:
    # assoc defaults to 1 so reports written before the field existed
    # still match their direct-mapped successors.
    return (pt.get("kernel"), pt.get("strategy"), pt.get("n"),
            pt.get("nk"), pt.get("assoc", 1))


def compare_benchmarks(old: dict, new: dict) -> dict:
    """Per-point speedups of ``new`` over ``old`` (matched by identity).

    Points are matched on (kernel, strategy, n, nk); unmatched points
    are listed, not dropped silently. ``fingerprint_match`` /
    ``host_match`` flag whether the runs simulated the same
    configuration on the same platform — a fingerprint mismatch means
    the workloads differ and the speedups are not meaningful (the CLI
    refuses such comparisons without ``--force``); a host mismatch
    merely calibrates expectations.
    """
    old_pts = {_point_key(p): p for p in old["points"]}
    new_pts = {_point_key(p): p for p in new["points"]}
    common = [k for k in old_pts if k in new_pts]
    rows = []
    for key in common:
        o, nw = old_pts[key], new_pts[key]
        o_rate = float(o.get("addresses_per_second") or 0.0)
        n_rate = float(nw.get("addresses_per_second") or 0.0)
        rows.append({
            "kernel": key[0], "strategy": key[1], "n": key[2],
            "nk": key[3], "assoc": key[4],
            "old_addresses_per_second": o_rate,
            "new_addresses_per_second": n_rate,
            "speedup": (n_rate / o_rate) if o_rate > 0 else None,
        })
    speedups = [r["speedup"] for r in rows if r["speedup"]]
    geomean = (math.exp(sum(math.log(s) for s in speedups)
                        / len(speedups)) if speedups else None)
    return {
        "fingerprint_match": old.get("fingerprint") == new.get("fingerprint"),
        "host_match": old.get("host") == new.get("host"),
        "old_fingerprint": old.get("fingerprint"),
        "new_fingerprint": new.get("fingerprint"),
        "points": rows,
        "only_old": sorted(k for k in old_pts if k not in new_pts),
        "only_new": sorted(k for k in new_pts if k not in old_pts),
        "geomean_speedup": geomean,
    }


def format_compare(cmp: dict) -> str:
    """Human-readable rendering of a :func:`compare_benchmarks` result."""
    lines = []
    if not cmp["fingerprint_match"]:
        lines.append("WARNING: config fingerprints differ "
                     f"({cmp['old_fingerprint']} vs "
                     f"{cmp['new_fingerprint']}) — different workloads, "
                     "speedups are not meaningful")
    if not cmp["host_match"]:
        lines.append("note: host platforms differ (python/numpy/machine)")
    lines.append(f"{'kernel':8s} {'strategy':8s} {'N':>4s} {'A':>2s}  "
                 f"{'old addr/s':>12s}  {'new addr/s':>12s}  {'speedup':>8s}")
    for r in sorted(cmp["points"],
                    key=lambda r: (r["kernel"], r["strategy"], r["n"],
                                   r.get("assoc", 1))):
        spd = f"{r['speedup']:.2f}x" if r["speedup"] else "n/a"
        lines.append(f"{r['kernel']:8s} {r['strategy']:8s} {r['n']:>4d} "
                     f"{r.get('assoc', 1):>2d}  "
                     f"{r['old_addresses_per_second']:>12.3e}  "
                     f"{r['new_addresses_per_second']:>12.3e}  {spd:>8s}")
    for label, keys in (("only in OLD", cmp["only_old"]),
                        ("only in NEW", cmp["only_new"])):
        for k in keys:
            lines.append(f"{label}: {k[0]}/{k[1]} N={k[2]} NK={k[3]} "
                         f"A={k[4] if len(k) > 4 else 1}")
    if cmp["geomean_speedup"]:
        lines.append(f"geomean speedup: {cmp['geomean_speedup']:.2f}x "
                     f"over {len(cmp['points'])} common point(s)")
    elif not cmp["points"]:
        lines.append("no common points to compare")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# trend over a history of reports (``repro bench trend DIR [--gate]``)
# ----------------------------------------------------------------------

def read_bench_dir(directory, pattern: str = "BENCH_*.json") -> list[dict]:
    """Every bench report under ``directory``, oldest first.

    Ordered by each report's ``created`` stamp (falling back to file
    mtime for pre-stamp reports), so the last element is the newest
    run — the one :func:`bench_trend` judges.
    """
    from repro.errors import ExperimentError

    d = pathlib.Path(directory)
    if not d.is_dir():
        raise ExperimentError(f"no such bench directory: {d}")
    paths = sorted(d.glob(pattern))
    if not paths:
        raise ExperimentError(
            f"{d} contains no bench reports (pattern {pattern!r})")
    reports = []
    for p in paths:
        report = read_bench(p)
        report.setdefault("created", p.stat().st_mtime)
        report["_path"] = str(p)
        reports.append(report)
    reports.sort(key=lambda r: r["created"])
    return reports


def bench_trend(reports: list[dict]) -> dict:
    """Judge the newest report against the median of its predecessors.

    Per point (matched on kernel/strategy/n/nk): the latest
    ``end_to_end_seconds`` vs the median over all prior reports that
    have that point. ``regressed_pct`` is positive when the latest run
    is *slower* than the median (the robust baseline — one historical
    outlier cannot move it much); ``None`` with fewer than two reports
    or no history for the point.
    """
    from statistics import median

    from repro.errors import ExperimentError

    if not reports:
        raise ExperimentError("bench trend needs at least one report")
    latest, priors = reports[-1], reports[:-1]
    history: dict[tuple, list[float]] = {}
    for rep in priors:
        for pt in rep["points"]:
            secs = pt.get("end_to_end_seconds")
            if isinstance(secs, (int, float)) and secs > 0:
                history.setdefault(_point_key(pt), []).append(float(secs))
    rows = []
    for pt in latest["points"]:
        key = _point_key(pt)
        secs = float(pt.get("end_to_end_seconds") or 0.0)
        base = median(history[key]) if key in history else None
        rows.append({
            "kernel": key[0], "strategy": key[1], "n": key[2], "nk": key[3],
            "assoc": key[4],
            "latest_seconds": secs,
            "median_seconds": base,
            "history": len(history.get(key, [])),
            "regressed_pct": (round((secs - base) / base * 100.0, 1)
                              if base and secs else None),
        })
    fingerprints = {r.get("fingerprint") for r in reports}
    return {
        "reports": len(reports),
        "latest_path": latest.get("_path"),
        "fingerprint_stable": len(fingerprints) == 1,
        "points": rows,
    }


def format_trend(trend: dict, gate: float | None = None) -> str:
    """Human-readable rendering of a :func:`bench_trend` result."""
    lines = []
    if trend["reports"] < 2:
        lines.append("note: only one report in the history — nothing to "
                     "trend against yet")
    if not trend["fingerprint_stable"]:
        lines.append("WARNING: config fingerprints drift across the "
                     "history — deltas mix workload and perf changes")
    lines.append(f"trend over {trend['reports']} report(s); "
                 f"latest: {trend.get('latest_path') or '?'}")
    lines.append(f"{'kernel':8s} {'strategy':8s} {'N':>4s} {'A':>2s}  "
                 f"{'latest s':>9s}  {'median s':>9s}  {'hist':>4s}  "
                 f"{'delta':>8s}")
    worst = None
    for r in sorted(trend["points"],
                    key=lambda r: (r["kernel"], r["strategy"], r["n"],
                                   r.get("assoc", 1))):
        base = (f"{r['median_seconds']:.3f}"
                if r["median_seconds"] is not None else "-")
        pct = r["regressed_pct"]
        delta = f"{pct:+.1f}%" if pct is not None else "n/a"
        if pct is not None and (worst is None or pct > worst):
            worst = pct
        lines.append(f"{r['kernel']:8s} {r['strategy']:8s} {r['n']:>4d} "
                     f"{r.get('assoc', 1):>2d}  "
                     f"{r['latest_seconds']:>9.3f}  {base:>9s}  "
                     f"{r['history']:>4d}  {delta:>8s}")
    if gate is not None and worst is not None:
        verdict = ("REGRESSION" if worst > gate else "ok")
        lines.append(f"gate {gate:.0f}%: worst delta {worst:+.1f}% "
                     f"-> {verdict}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m repro.perf.bench",
        description="Time trace generation, cache simulation, and "
                    "end-to-end points; write BENCH_sweep.json.")
    p.add_argument("--kernel", action="append", metavar="NAME",
                   help=f"kernel(s) to bench (repeatable; default "
                        f"{', '.join(DEFAULT_KERNELS)})")
    p.add_argument("--strategy", action="append", metavar="NAME",
                   help=f"strategy(ies) to bench (repeatable; default "
                        f"{', '.join(DEFAULT_STRATEGIES)})")
    p.add_argument("--n", type=int, action="append", metavar="N",
                   help="problem size(s) to bench (repeatable; default 96)")
    p.add_argument("--assoc", type=int, action="append", metavar="A",
                   help="L1 associativities to bench (repeatable; "
                        "default 1 = the paper's direct-mapped geometry)")
    p.add_argument("--assoc-speedup", type=int, metavar="A", default=None,
                   help="also time an A-way sweep against the scalar "
                        "exact-LRU reference and print the speedup")
    p.add_argument("--repeats", type=int, default=3,
                   help="best-of repeats per timing (default 3)")
    p.add_argument("--out", metavar="PATH", default="BENCH_sweep.json",
                   help="output path (default BENCH_sweep.json)")
    p.add_argument("--run-dir", metavar="DIR",
                   help="record this bench invocation in a run ledger "
                        "(manifest + outcome; the report path is "
                        "registered as an artifact)")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error(f"--repeats must be >= 1, got {args.repeats}")
    for a in (args.assoc or ()):
        if a < 1:
            p.error(f"--assoc must be >= 1, got {a}")
    if args.assoc_speedup is not None and args.assoc_speedup < 2:
        p.error("--assoc-speedup needs an associative geometry (A >= 2)")

    from repro import obs

    argv_list = list(argv if argv is not None else sys.argv[1:])
    with obs.session(command="perf.bench " + " ".join(argv_list),
                     run_dir=args.run_dir, argv=argv_list) as ses:
        report = bench_sweep(
            kernels=tuple(args.kernel or DEFAULT_KERNELS),
            strategies=tuple(args.strategy or DEFAULT_STRATEGIES),
            sizes=tuple(args.n or (96,)),
            repeats=args.repeats,
            assocs=tuple(args.assoc or (1,)))
        speedup = None
        if args.assoc_speedup is not None:
            speedup = bench_assoc_speedup(
                kernel=(args.kernel or DEFAULT_KERNELS)[0],
                strategy=(args.strategy or DEFAULT_STRATEGIES)[0],
                n=(args.n or (96,))[0],
                assoc=args.assoc_speedup, repeats=args.repeats)
        out = write_bench(report, args.out)
        ses.artifacts["bench"] = str(out)
    for pt in report["points"]:
        print(f"{pt['kernel']:8s} {pt['strategy']:8s} N={pt['n']:<4d} "
              f"{pt['assoc']}w "
              f"trace {pt['trace_seconds']:.3f}s  "
              f"L1 {pt['l1_seconds']:.3f}s  "
              f"L1+L2 {pt['l2_seconds']:.3f}s  "
              f"end-to-end {pt['end_to_end_seconds']:.3f}s  "
              f"({pt['addresses_per_second']:.2e} addr/s)")
    if speedup is not None:
        print(f"assoc speedup: {speedup['kernel']}/{speedup['strategy']} "
              f"N={speedup['n']} {speedup['assoc']}-way  "
              f"engine {speedup['fast_seconds']:.3f}s  "
              f"scalar reference {speedup['reference_seconds']:.3f}s  "
              f"-> {speedup['speedup']:.2f}x")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
