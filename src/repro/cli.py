"""Command-line interface: ``python -m repro <command> ...``.

Exposes the library's main entry points without writing any Python:

    python -m repro select --strategy GcdPad --n 300
    python -m repro simulate --kernel JACOBI --strategy Pad --n 250
    python -m repro table1
    python -m repro table3 [--full] [--checkpoint PATH] [--budget SEC]
    python -m repro figures --kernel REDBLACK [--full] [--checkpoint PATH]
    python -m repro lattice --kernel JACOBI --n 300 [--assoc 1 --assoc 2]
    python -m repro fig22
    python -m repro mgrid [--level 7]
    python -m repro section1
    python -m repro cache info --point-cache DIR
    python -m repro fsck PATH [--repair]
    python -m repro bench compare OLD.json NEW.json
    python -m repro bench trend BENCH_DIR [--gate PCT]
    python -m repro obs-report run.jsonl [--metrics metrics.json]
    python -m repro runs list|show|gc --run-dir DIR
    python -m repro watch RUN_DIR [--once]

``--full`` switches to the paper's sweep density (equivalent to setting
``REPRO_FULL=1``). The sweep commands (``table3``, ``figures``) accept
``--checkpoint PATH`` to journal completed points and resume after an
interruption, ``--resume`` to insist the journal already exists,
``--resume-force`` to adopt a journal whose config fingerprint does not
match this run, and ``--budget SECONDS`` to cap each point's exact
simulation (over-budget points degrade to the analytic miss model and
are flagged in the output). ``--parallel N`` fans sweep points out to N
supervised worker processes — a crashed, hung, or over-
``--point-timeout`` worker is SIGKILLed, retried, and finally
quarantined to the analytic model, so the sweep always completes with a
full result set. Usage errors exit with code 2 and a one-line message.

Performance (``simulate``, ``table3``, ``figures``): ``--point-cache
DIR`` keeps a persistent, content-addressed store of simulated points —
repeated runs (and the parallel pool) skip anything any previous run
already finished; ``repro cache info|clear --point-cache DIR`` inspects
or empties it. Journals and store entries are checksummed; ``repro
fsck PATH`` verifies one artifact (a journal file, a store directory,
a ``--run-dir`` ledger or one of its run directories) record by record
and exits nonzero on damage — ``--repair`` quarantines the damaged
records so the artifact is clean again.

Sweeps carrying a checkpoint or point cache drain gracefully on
SIGINT/SIGTERM: in-flight points finish and journal, the command exits
130, and re-running resumes from the journal. ``--chunk-size N`` bounds
the addresses materialized per trace chunk (0 = unbounded; results are
bit-for-bit identical either way). Every exact point runs exact
steady-state K-plane extrapolation: untiled points stop simulating once
their per-plane statistics provably repeat (shift-equivalent cache
tags) and the rest is costed in closed form — identical miss counts,
flagged per point (``simulate`` prints ``[extrapolated]``); ineligible
points, and every point under ``--metrics`` (3C classification must see
every access), are simulated in full.

Observability (every command, flags go after the subcommand name):
``--log-json PATH`` records the run's structured event timeline as
JSONL, ``--metrics PATH`` snapshots the metrics registry as JSON,
``--profile`` adds per-phase tracemalloc peaks to span-end events
(requires ``--log-json``), and ``-v``/``-q`` raise/lower stderr log
verbosity. ``repro obs-report`` summarizes the artifacts afterwards.
Tables and figures always go to stdout; diagnostics go to stderr.

Run ledger: ``--run-dir DIR`` records the invocation under
``DIR/<run_id>/`` — a CRC'd manifest (argv, config fingerprint,
outcome, wall time, final metrics digest), the merged event trace
(supervised pool workers trace into per-worker shards that are merged
into one causally-linked timeline), the metrics snapshot, and a live
``status.json`` that ``repro watch`` follows and ``--progress`` echoes
to stderr. ``repro runs list|show|gc --run-dir DIR`` manages the
ledger; ``repro obs-report DIR`` renders any historical run.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]

log = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    # Shared observability/verbosity flags, attached to every subcommand
    # (so they may be given after the subcommand name, where users type
    # them).
    logopts = argparse.ArgumentParser(add_help=False)
    logopts.add_argument("-v", "--verbose", action="count", default=0,
                         help="more stderr diagnostics (repeatable)")
    logopts.add_argument("-q", "--quiet", action="count", default=0,
                         help="less stderr diagnostics (repeatable)")
    obsopts = argparse.ArgumentParser(add_help=False, parents=[logopts])
    g = obsopts.add_argument_group("observability")
    g.add_argument("--log-json", metavar="PATH",
                   help="write the run's structured event timeline "
                        "(nested timed spans, retries, checkpoint "
                        "resumes) to PATH as JSONL")
    g.add_argument("--metrics", metavar="PATH",
                   help="write a metrics snapshot (miss classification, "
                        "search effort, throughput) to PATH as JSON; "
                        "also enables the shadow miss classifier")
    g.add_argument("--profile", action="store_true",
                   help="attach per-phase tracemalloc peak memory to "
                        "span-end events (requires --log-json or "
                        "--run-dir)")
    g.add_argument("--run-dir", metavar="DIR",
                   help="record this invocation in a run ledger: "
                        "DIR/<run_id>/ gets a CRC'd manifest (argv, "
                        "outcome, metrics digest), the merged event "
                        "trace, the metrics snapshot, and a live "
                        "status.json; inspect with `repro runs` / "
                        "`repro watch` / `repro obs-report DIR`")
    g.add_argument("--progress", action="store_true",
                   help="print a live progress line (done/total, "
                        "throughput, ETA) to stderr while sweeping")

    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Rivera & Tseng, 'Tiling Optimizations "
                    "for 3D Scientific Computations' (SC'00)")
    sub = p.add_subparsers(dest="command", required=True)

    def add_full(sp):
        sp.add_argument("--full", action="store_true",
                        help="paper-density sweeps (sets REPRO_FULL=1)")

    def add_resilience(sp):
        sp.add_argument("--checkpoint", metavar="PATH",
                        help="journal completed points to PATH (JSONL); "
                             "re-running with the same PATH resumes, "
                             "skipping journaled points")
        sp.add_argument("--resume", action="store_true",
                        help="require that --checkpoint already exists "
                             "(guards against typos silently starting "
                             "a fresh sweep)")
        sp.add_argument("--resume-force", action="store_true",
                        help="adopt a --checkpoint journal even when its "
                             "config fingerprint does not match this run "
                             "(its points are trusted as-is)")
        sp.add_argument("--budget", type=float, metavar="SECONDS",
                        help="per-point wall-clock budget; over-budget "
                             "points degrade to the analytic miss model "
                             "and are marked degraded")
        sp.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="run sweep points in N supervised worker "
                             "processes (default 1 = serial); failing "
                             "points are retried, then quarantined to "
                             "the analytic model")
        sp.add_argument("--point-timeout", type=float, metavar="SECONDS",
                        help="hard per-point wall clock: with --parallel "
                             "the worker is SIGKILLed on expiry; "
                             "serially it acts as a wall budget")

    def add_perf(sp):
        sp.add_argument("--point-cache", metavar="DIR",
                        help="persistent point store: simulated points "
                             "are reused across runs and processes "
                             "(size-bounded, LRU; see "
                             "REPRO_POINT_CACHE_BYTES)")
        sp.add_argument("--chunk-size", type=int, metavar="N",
                        help="addresses per simulated trace chunk "
                             "(bounds memory; 0 = unbounded; default: "
                             "a ~1M-address bound)")

    sp = sub.add_parser("select", help="run one tile-selection strategy",
                        parents=[obsopts])
    sp.add_argument("--strategy", default="GcdPad")
    sp.add_argument("--n", type=int, required=True,
                    help="array extent (DI = DJ = N)")
    sp.add_argument("--cs", type=int, default=2048,
                    help="cache capacity in elements (default 16K of f64)")
    sp.add_argument("--mi", type=int, default=2)
    sp.add_argument("--mj", type=int, default=2)
    sp.add_argument("--atd", type=int, default=3)

    sp = sub.add_parser("simulate", help="simulate one kernel configuration",
                        parents=[obsopts])
    sp.add_argument("--kernel", default="JACOBI",
                    choices=["JACOBI", "REDBLACK", "RESID"])
    sp.add_argument("--strategy", default="GcdPad")
    sp.add_argument("--n", type=int, required=True)
    add_full(sp)
    add_perf(sp)

    sp = sub.add_parser("table1", help="Table 1: tile enumeration",
                        parents=[obsopts])

    sp = sub.add_parser("table3", help="Table 3: average improvements",
                        parents=[obsopts])
    sp.add_argument("--csv", metavar="PATH",
                    help="also dump all simulated points as CSV")
    sp.add_argument("--n", type=int, action="append", metavar="N",
                    help="problem size(s) to sweep (repeatable); "
                         "default: the standard N grid")
    add_full(sp)
    add_resilience(sp)
    add_perf(sp)

    sp = sub.add_parser("figures", help="Figures 14-19 series for a kernel",
                        parents=[obsopts])
    sp.add_argument("--kernel", default="JACOBI",
                    choices=["JACOBI", "REDBLACK", "RESID"])
    sp.add_argument("--csv", metavar="PATH",
                    help="also dump the series points as CSV")
    sp.add_argument("--n", type=int, action="append", metavar="N",
                    help="problem size(s) to sweep (repeatable); "
                         "default: the standard N grid")
    add_full(sp)
    add_resilience(sp)
    add_perf(sp)

    sp = sub.add_parser("lattice",
                        help="associativity lattice: strategy x assoc x "
                             "line size at one N (when does padding "
                             "stop mattering?)",
                        parents=[obsopts])
    sp.add_argument("--kernel", default="JACOBI",
                    choices=["JACOBI", "REDBLACK", "RESID"])
    sp.add_argument("--n", type=int, default=300,
                    help="problem size (default 300, the conflict-prone "
                         "regime)")
    sp.add_argument("--strategy", action="append", metavar="NAME",
                    help="strategy to include (repeatable; default: "
                         "Orig, GcdPad, Pad)")
    sp.add_argument("--assoc", type=int, action="append", metavar="A",
                    help="associativity to include (repeatable; "
                         "default: 1, 2, 4)")
    sp.add_argument("--line", type=int, action="append", metavar="BYTES",
                    help="L1 line size to include (repeatable; "
                         "default: 32, 64)")
    sp.add_argument("--csv", metavar="PATH",
                    help="also dump every lattice cell as CSV")
    sp.add_argument("--budget", type=float, metavar="SECONDS",
                    help="per-point wall-clock budget; over-budget "
                         "points degrade to the analytic miss model")
    sp.add_argument("--point-timeout", type=float, metavar="SECONDS",
                    help="per-point wall clock, enforced as a budget "
                         "(lattice cells run serially)")
    add_full(sp)
    add_perf(sp)

    sp = sub.add_parser("fig22", help="Figure 22: padding memory overhead",
                        parents=[obsopts])
    add_full(sp)

    sp = sub.add_parser("mgrid", help="Section 4.6: MGRID application study",
                        parents=[obsopts])
    sp.add_argument("--level", type=int, default=7,
                    help="finest grid level (7 -> 130^3 reference class)")

    sp = sub.add_parser("section1", help="Section 1: capacity thresholds",
                        parents=[obsopts])

    sp = sub.add_parser("bench",
                        help="compare bench reports or trend a history "
                             "of them",
                        parents=[logopts])
    sp.add_argument("action", choices=["compare", "trend"],
                    help="compare: per-point speedup of NEW over OLD; "
                         "trend: latest report in a directory vs the "
                         "median of its predecessors")
    sp.add_argument("old", metavar="OLD.json|DIR",
                    help="baseline bench report (compare) or a "
                         "directory of BENCH_*.json reports (trend)")
    sp.add_argument("new", metavar="NEW.json", nargs="?",
                    help="fresh bench report to compare against OLD "
                         "(compare only)")
    sp.add_argument("--force", action="store_true",
                    help="compare even when the reports' config "
                         "fingerprints differ (different workloads; "
                         "speedups are then not meaningful)")
    sp.add_argument("--gate", type=float, metavar="PCT",
                    help="trend only: exit 1 when any point's latest "
                         "time regresses more than PCT%% against the "
                         "median of prior reports")

    sp = sub.add_parser("cache", help="inspect/empty a --point-cache store",
                        parents=[logopts])
    sp.add_argument("action", choices=["info", "clear"],
                    help="info: entry/byte/config counts; "
                         "clear: remove every cached point")
    sp.add_argument("--point-cache", metavar="DIR", required=True,
                    help="the store directory to operate on")

    sp = sub.add_parser("fsck",
                        help="verify/repair a checkpoint journal, "
                             "point store, or run ledger",
                        parents=[logopts])
    sp.add_argument("target", metavar="PATH",
                    help="a checkpoint journal file, a --point-cache "
                         "store directory, a --run-dir ledger, or one "
                         "run directory inside it")
    sp.add_argument("--repair", action="store_true",
                    help="quarantine damaged records (with provenance "
                         "sidecars) and rewrite the artifact from the "
                         "records that verified")
    sp.add_argument("--show-ok", action="store_true",
                    help="list healthy records too, not just problems")

    sp = sub.add_parser("obs-report",
                        help="summarize a --log-json event file or a "
                             "ledgered run",
                        parents=[logopts])
    sp.add_argument("events", metavar="EVENTS_JSONL|RUN_DIR",
                    help="event file written by --log-json, or a "
                         "--run-dir run directory (its events + "
                         "metrics are used)")
    sp.add_argument("--metrics", metavar="PATH",
                    help="metrics snapshot written by --metrics "
                         "(adds miss-classification tables)")
    sp.add_argument("--top", type=int, default=5,
                    help="how many slowest points to list (default 5)")

    sp = sub.add_parser("runs",
                        help="list/show/gc the runs in a --run-dir ledger",
                        parents=[logopts])
    sp.add_argument("action", choices=["list", "show", "gc"],
                    help="list: one row per run; show: one run's "
                         "manifest; gc: drop the oldest runs")
    sp.add_argument("run", nargs="?", metavar="RUN_ID",
                    help="run id (or run directory) for `show`; "
                         "default: the latest run")
    sp.add_argument("--run-dir", metavar="DIR", required=True,
                    help="the run ledger directory")
    sp.add_argument("--keep", type=int, default=20, metavar="N",
                    help="gc: how many newest runs to keep (default 20)")

    sp = sub.add_parser("watch",
                        help="follow a run's live status until it ends",
                        parents=[logopts])
    sp.add_argument("run", metavar="RUN_DIR",
                    help="a run directory (or a ledger directory: its "
                         "latest run)")
    sp.add_argument("--interval", type=float, default=1.0,
                    metavar="SECONDS",
                    help="poll interval (default 1s)")
    sp.add_argument("--once", action="store_true",
                    help="print the current status once and exit")
    sp.add_argument("--timeout", type=float, metavar="SECONDS",
                    help="give up (exit 1) if the run has not ended "
                         "after SECONDS")
    return p


def _apply_full(args) -> None:
    if getattr(args, "full", False):
        os.environ["REPRO_FULL"] = "1"


def _validate(args) -> None:
    """Reject bad inputs with one-line errors before any work starts.

    Raises :class:`~repro.errors.ReproError`; :func:`main` converts
    that into a one-line stderr message and exit code 2 (argparse's own
    convention for usage errors) instead of a traceback.
    """
    from repro.errors import ConfigurationError, ExperimentError

    n = getattr(args, "n", None)
    if n is not None:
        sizes = n if isinstance(n, list) else [n]
        for size in sizes:
            if size <= 0:
                raise ConfigurationError(
                    f"--n must be positive, got {size}")
    if getattr(args, "profile", False) \
            and not getattr(args, "log_json", None) \
            and not getattr(args, "run_dir", None):
        raise ConfigurationError(
            "--profile records memory peaks on span-end events; "
            "it requires --log-json PATH or --run-dir DIR")
    if args.command == "obs-report" and args.top <= 0:
        raise ConfigurationError(f"--top must be positive, got {args.top}")
    if args.command == "mgrid" and not 2 <= args.level <= 10:
        raise ConfigurationError(
            f"--level must be in 2..10 (grid 5^3 .. 1025^3), "
            f"got {args.level}")
    if args.command in ("select", "simulate"):
        from repro.core.selector import STRATEGIES

        if args.strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {args.strategy!r}; "
                f"valid: {', '.join(sorted(STRATEGIES))}")
    if args.command == "lattice":
        from repro.core.selector import STRATEGIES

        for strat in args.strategy or []:
            if strat not in STRATEGIES:
                raise ConfigurationError(
                    f"unknown strategy {strat!r}; "
                    f"valid: {', '.join(sorted(STRATEGIES))}")
        for a in args.assoc or []:
            if a < 1:
                raise ConfigurationError(f"--assoc must be >= 1, got {a}")
        for line in args.line or []:
            if line < 8 or line & (line - 1):
                raise ConfigurationError(
                    f"--line must be a power of two >= 8 bytes, got {line}")
    if getattr(args, "resume", False):
        if not getattr(args, "checkpoint", None):
            raise ExperimentError("--resume requires --checkpoint PATH")
        import pathlib

        if not pathlib.Path(args.checkpoint).exists():
            raise ExperimentError(
                f"--resume: checkpoint {args.checkpoint} does not exist; "
                f"drop --resume to start a fresh journaled sweep")
    if getattr(args, "resume_force", False) and not getattr(
            args, "checkpoint", None):
        raise ExperimentError("--resume-force requires --checkpoint PATH")
    if getattr(args, "budget", None) is not None and args.budget <= 0:
        raise ConfigurationError(
            f"--budget must be positive seconds, got {args.budget}")
    if getattr(args, "parallel", 1) < 1:
        raise ConfigurationError(
            f"--parallel must be >= 1, got {args.parallel}")
    if getattr(args, "point_timeout", None) is not None \
            and args.point_timeout <= 0:
        raise ConfigurationError(
            f"--point-timeout must be positive seconds, "
            f"got {args.point_timeout}")
    if getattr(args, "chunk_size", None) is not None and args.chunk_size < 0:
        raise ConfigurationError(
            f"--chunk-size must be >= 0 (0 = unbounded), "
            f"got {args.chunk_size}")
    if args.command == "bench":
        if args.action == "compare" and not args.new:
            raise ConfigurationError(
                "bench compare needs two reports: OLD.json NEW.json")
        if args.action == "trend" and args.new:
            raise ConfigurationError(
                "bench trend takes one directory of BENCH_*.json reports")
        if args.gate is not None:
            if args.action != "trend":
                raise ConfigurationError("--gate applies to bench trend only")
            if args.gate <= 0:
                raise ConfigurationError(
                    f"--gate must be a positive percentage, got {args.gate}")
    if args.command == "runs":
        if args.keep < 0:
            raise ConfigurationError(
                f"--keep must be >= 0, got {args.keep}")
    if args.command == "watch":
        if args.interval <= 0:
            raise ConfigurationError(
                f"--interval must be positive, got {args.interval}")
        if args.timeout is not None and args.timeout <= 0:
            raise ConfigurationError(
                f"--timeout must be positive, got {args.timeout}")


def _sweep_options(args):
    """The SweepOptions for table3()/figure_series() from CLI flags."""
    from repro.experiments.options import SweepOptions

    budget = None
    if getattr(args, "budget", None):
        from repro.resilience import PointBudget

        budget = PointBudget(wall_seconds=args.budget)
    return SweepOptions(
        checkpoint=getattr(args, "checkpoint", None) or None,
        budget=budget,
        parallel=getattr(args, "parallel", 1),
        point_timeout=getattr(args, "point_timeout", None),
        resume_force=getattr(args, "resume_force", False),
        point_cache=getattr(args, "point_cache", None) or None,
        chunk_size=getattr(args, "chunk_size", None))


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly, the
        # Unix way (also silence the interpreter-shutdown flush).
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except Exception as exc:
        from repro.errors import ReproError, SweepInterrupted

        if isinstance(exc, SweepInterrupted):
            # Graceful drain: everything finished is journaled, the
            # sweep is resumable; 130 is the conventional
            # died-on-SIGINT code schedulers and shells expect.
            print(f"repro: interrupted: {exc}", file=sys.stderr)
            return 130
        if not isinstance(exc, ReproError):
            raise
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


def _run(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _apply_full(args)
    _validate(args)

    if args.command == "obs-report":
        from repro.obs import setup_cli_logging
        from repro.obs.report import obs_report

        setup_cli_logging(args.verbose, args.quiet)
        print(obs_report(args.events, args.metrics, top=args.top))
        return 0

    if args.command == "runs":
        from repro.obs import setup_cli_logging

        setup_cli_logging(args.verbose, args.quiet)
        return _runs(args)

    if args.command == "watch":
        from repro.obs import setup_cli_logging
        from repro.obs.ledger import resolve_run
        from repro.obs.status import watch

        setup_cli_logging(args.verbose, args.quiet)
        return watch(resolve_run(args.run), interval=args.interval,
                     once=args.once, timeout=args.timeout)

    from repro import obs

    full_argv = list(argv if argv is not None else sys.argv[1:])
    cmd = " ".join(full_argv)
    with obs.session(log_json=getattr(args, "log_json", None),
                     metrics_path=getattr(args, "metrics", None),
                     profile=getattr(args, "profile", False),
                     verbose=getattr(args, "verbose", 0),
                     quiet=getattr(args, "quiet", 0),
                     command=cmd or args.command,
                     run_dir=getattr(args, "run_dir", None),
                     argv=full_argv,
                     progress=getattr(args, "progress", False)) as ses:
        for name in ("checkpoint", "point_cache", "csv"):
            value = getattr(args, name, None)
            if value:
                ses.artifacts[name] = str(value)
        return _dispatch(args)


def _runs(args) -> int:
    """``repro runs list|show|gc`` against one ledger directory."""
    from repro.obs import ledger

    if args.action == "list":
        print(ledger.format_runs(ledger.list_runs(args.run_dir)))
        return 0
    if args.action == "show":
        run = ledger.resolve_run(args.run or args.run_dir,
                                 ledger_dir=args.run_dir)
        manifest = ledger.read_manifest(run)
        print(ledger.format_manifest(manifest))
        return 1 if manifest.get("integrity") else 0
    removed = ledger.gc_runs(args.run_dir, keep=args.keep)
    print(f"removed {len(removed)} run(s), kept the newest {args.keep}")
    for run_id in removed:
        log.info("gc: removed run %s", run_id)
    return 0


def _dispatch(args) -> int:
    # Imports happen after REPRO_FULL is set so configs pick it up.
    if args.command == "select":
        from repro.core.selector import select

        r = select(args.strategy, args.cs, args.n, args.n,
                   mi=args.mi, mj=args.mj, atd=args.atd)
        tile = f"{r.tile.ti} x {r.tile.tj}" if r.tile else "(untiled)"
        print(f"strategy : {r.strategy}")
        print(f"tile     : {tile}")
        print(f"dims     : {r.di_p} x {r.dj_p} "
              f"(pad {r.di_p - args.n}, {r.dj_p - args.n})")
        if r.tile:
            print(f"cost     : {r.cost:.4f}")

    elif args.command == "simulate":
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.options import PointPolicy
        from repro.experiments.runner import open_store, run_point

        policy = None
        if args.point_cache or args.chunk_size is not None:
            policy = PointPolicy(store=open_store(args.point_cache or None),
                                 chunk_size=args.chunk_size)
        p = run_point(args.kernel, args.strategy, args.n, ExperimentConfig(),
                      policy=policy)
        marker = " [extrapolated]" if p.extrapolated else ""
        print(f"{args.kernel} / {args.strategy} at N={args.n} "
              f"(NK={p.nk}):{marker}")
        print(f"  tile        : {p.tile or '(untiled)'}  "
              f"dims {p.di_p} x {p.dj_p}")
        print(f"  L1 miss rate: {p.l1_rate:.2f}%")
        print(f"  L2 miss rate: {p.l2_rate:.2f}%")
        print(f"  modeled perf: {p.mflops:.1f} MFlops")

    elif args.command == "table1":
        from repro.experiments.table1 import format_table1, table1

        print(format_table1(table1()))

    elif args.command == "table3":
        from repro.experiments.table3 import format_table3, table3

        res = table3(sizes=args.n, options=_sweep_options(args))
        print(format_table3(res))
        if args.csv:
            from repro.experiments.export import write_points_csv

            pts = [p for k in res.points.values()
                   for series in k.values() for p in series]
            path = write_points_csv(pts, args.csv)
            log.info("wrote %d points to %s", len(pts), path)

    elif args.command == "figures":
        from repro.experiments.figures import figure_series, format_figure

        data = figure_series(args.kernel, sizes=args.n,
                             options=_sweep_options(args))
        print(format_figure(data, "l1_rate", "L1 miss rate (%)"))
        print()
        print(format_figure(data, "mflops", "MFlops"))
        if args.csv:
            from repro.experiments.export import write_points_csv

            pts = [p for series in data.points.values() for p in series]
            path = write_points_csv(pts, args.csv)
            log.info("wrote %d points to %s", len(pts), path)

    elif args.command == "lattice":
        from repro.experiments.lattice import (
            DEFAULT_ASSOCS,
            DEFAULT_LINES,
            DEFAULT_STRATEGIES,
            format_lattice,
            run_lattice,
            write_lattice_csv,
        )

        data = run_lattice(
            args.kernel, args.n,
            strategies=tuple(args.strategy or DEFAULT_STRATEGIES),
            assocs=tuple(args.assoc or DEFAULT_ASSOCS),
            line_sizes=tuple(args.line or DEFAULT_LINES),
            options=_sweep_options(args))
        print(format_lattice(data, "l1_rate", "L1 miss rate (%)"))
        print()
        print(format_lattice(data, "mflops", "MFlops", gap=False))
        if args.csv:
            path = write_lattice_csv(data, args.csv)
            log.info("wrote %d lattice cells to %s", len(data.cells), path)

    elif args.command == "fig22":
        from repro.experiments.fig22 import fig22, format_fig22

        print(format_fig22(fig22()))

    elif args.command == "mgrid":
        from repro.experiments.mgrid_app import format_mgrid_app, mgrid_app

        print(format_mgrid_app(mgrid_app(finest_level=args.level)))

    elif args.command == "bench":
        from repro.errors import ExperimentError
        from repro.perf.bench import (
            bench_trend,
            compare_benchmarks,
            format_compare,
            format_trend,
            read_bench,
            read_bench_dir,
        )

        if args.action == "trend":
            trend = bench_trend(read_bench_dir(args.old))
            print(format_trend(trend, gate=args.gate))
            if args.gate is not None and any(
                    row["regressed_pct"] is not None
                    and row["regressed_pct"] > args.gate
                    for row in trend["points"]):
                return 1
            return 0
        cmp = compare_benchmarks(read_bench(args.old), read_bench(args.new))
        if not cmp["fingerprint_match"] and not args.force:
            raise ExperimentError(
                f"config fingerprints differ ({cmp['old_fingerprint']} vs "
                f"{cmp['new_fingerprint']}): the reports benched "
                f"different workloads; pass --force to compare anyway")
        print(format_compare(cmp))

    elif args.command == "fsck":
        from repro.resilience.fsck import fsck_path

        report = fsck_path(args.target, repair=args.repair)
        print(report.render(verbose=args.show_ok))
        return 0 if report.ok else 1

    elif args.command == "cache":
        from repro.experiments.runner import cache_info, clear_cache

        if args.action == "info":
            print(cache_info(args.point_cache).store.summary())
        else:
            removed = clear_cache(args.point_cache)
            print(f"removed {removed} cached point(s) from "
                  f"{args.point_cache}")

    elif args.command == "section1":
        from repro.experiments.section1 import (
            section1_thresholds,
            verify_boundary_2d,
            verify_boundary_3d,
        )

        th = section1_thresholds()
        print("Analytic thresholds (Section 1):")
        print(f"  2D Jacobi, 16K L1: reuse preserved to N = {th.max_2d_l1}")
        print(f"  3D Jacobi, 16K L1: reuse preserved to N = {th.max_3d_l1}")
        print(f"  3D Jacobi,  2M L2: reuse preserved to N = {th.max_3d_l2}")
        print("Simulated trailing-reference hit rates:")
        for label, rates in (("2D", verify_boundary_2d()),
                             ("3D", verify_boundary_3d())):
            row = "  ".join(f"N={n}: {r:.2f}" for n, r in sorted(rates.items()))
            print(f"  {label}: {row}")

    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
