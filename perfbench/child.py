"""One timed run of one workload, in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

``run.py`` writes the spec and reads back ``spec["result"]``: the
monotonic time at which set-up finished, the wall time of the run, the
peak resident memory of this process and of its largest child, the
point statistics, the entry-point calls that raised (their points are
missing, so they count as failed), and (with ``spec["trace"]``) where
the spans went.

Set-up is what a user pays before the first point: ``import repro``,
the workload's entry-module imports, and building its config and
options. A spec with ``setup_only`` stops there.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import resource
import sys
import time
import traceback

#: The modules each workload's entry point lives in.
ENTRY_MODULES = {"figures": ("repro.experiments.figures",),
                 "lattice": ("repro.experiments.lattice",),
                 "ledgered": ("repro.cli", "repro.experiments.table3")}


def _point(p, assoc: int = 1, line: int = 32) -> dict:
    return {"kernel": p.kernel, "strategy": p.strategy, "n": p.n,
            "assoc": assoc, "line": line, "refs": p.refs,
            "l1_misses": p.l1_misses, "l2_misses": p.l2_misses,
            "tile": list(p.tile) if p.tile else None,
            "di_p": p.di_p, "dj_p": p.dj_p, "degraded": p.degraded}


def _raised(call: str, exc: BaseException) -> str:
    """One report line for a call that raised: what, and where."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{call}: {exc!r} at {frame.filename}:{frame.lineno}"


def _figures(spec: dict, cfg, errors: list[str]) -> list[dict]:
    from repro.experiments.figures import figure_series

    points = []
    for kernel, sizes in spec["calls"]:
        try:
            data = figure_series(kernel, sizes, cfg)
        except Exception as exc:
            errors.append(_raised(f"figure_series({kernel!r}, {sizes})",
                                  exc))
            continue
        points += [_point(p) for pts in data.points.values() for p in pts]
    return points


def _lattice(spec: dict, cfg, errors: list[str]) -> list[dict]:
    from repro.experiments.lattice import run_lattice

    points = []
    for n in spec["sizes"]:
        try:
            data = run_lattice(spec["kernel"], n)
        except Exception as exc:
            errors.append(_raised(f"run_lattice({spec['kernel']!r}, {n})",
                                  exc))
            continue
        points += [_point(p, assoc, line)
                   for (_, assoc, line), p in data.cells.items()]
    return points


def _table3(spec: dict, cfg, errors: list[str]) -> list[dict]:
    from repro import cli
    from repro.errors import ExperimentError
    from repro.experiments.export import read_points_csv

    with open(os.devnull, "w") as null:
        stdout, sys.stdout = sys.stdout, null
        try:
            code = cli.main(spec["argv"])
        except Exception as exc:
            errors.append(_raised("repro table3", exc))
            code = None
        finally:
            sys.stdout = stdout
    if code not in (0, None):
        errors.append(f"repro table3 exited {code}")
    try:
        rows = read_points_csv(spec["csv"])
    except ExperimentError as exc:
        errors.append(f"repro table3 --csv: {exc}")
        return []
    return [{"kernel": row["kernel"], "strategy": row["strategy"],
             "n": row["n"], "assoc": 1, "line": 32, "refs": row["refs"],
             "l1_misses": row["l1_misses"], "l2_misses": row["l2_misses"],
             "tile": ([row["ti"], row["tj"]] if row["ti"] is not None
                      else None),
             "di_p": row["di_p"], "dj_p": row["dj_p"],
             "degraded": row["degraded"]}
            for row in rows]


#: The timed part of each workload: its entry-point calls, then their
#: points. A call that raises is recorded and its points are missing.
RUNS = {"figures": _figures, "lattice": _lattice, "ledgered": _table3}


def main(spec_path: str) -> int:
    spec = json.loads(pathlib.Path(spec_path).read_text())
    workload = spec["workload"]

    import repro  # noqa: F401  (set-up: the package import itself)
    from repro.experiments.config import ExperimentConfig
    from repro.obs import metrics

    for module in ENTRY_MODULES[workload]:
        importlib.import_module(module)
    cfg = ExperimentConfig()
    if workload == "ledgered":
        from repro import cli
        from repro.experiments.options import SweepOptions

        args = cli.build_parser().parse_args(spec["argv"])
        SweepOptions(checkpoint=spec["checkpoint"], parallel=args.parallel,
                     point_cache=spec["store"])
    ready = time.monotonic()

    result: dict = {"ready": ready}
    if not spec.get("setup_only"):
        # Run hygiene: without REPRO_FULL the config clamps NK to 11,
        # and a live metrics registry would switch the figure and
        # lattice points to 3C classification.
        if cfg.nk != 30:
            raise SystemExit(f"NK is {cfg.nk}, not 30: REPRO_FULL unset")
        if metrics.enabled():
            raise SystemExit("a metrics registry is live before the run")
        tracer = None
        if spec.get("trace"):
            sys.path.insert(0, str(pathlib.Path(__file__).parent))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        errors: list[str] = []
        t0 = time.perf_counter()
        try:
            points = RUNS[workload](spec, cfg, errors)
        finally:
            result["wall"] = time.perf_counter() - t0
            if tracer is not None:
                result["wrappers_removed"] = tracer.uninstall()
        if tracer is not None:
            tracer.dump(spec["spans"])
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result["peak_rss_mb"] = peak_kb / 1024.0
        result["points"] = points
        result["errors"] = errors
    pathlib.Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
