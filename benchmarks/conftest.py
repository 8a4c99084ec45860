"""Benchmark fixtures: output directory and shared configuration.

Run with ``pytest benchmarks/ --benchmark-only``. Each benchmark both
times its experiment (single round — the work is a deterministic
simulation, not a microbenchmark) and writes the regenerated
table/figure to ``benchmarks/out/`` and stdout. Every sweep runs at
the paper's density: N step 10, K extent 30.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.config import ExperimentConfig
from repro.perf.store import PointStore
from repro.resilience.atomic import atomic_write_text

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def out_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(scope="session")
def cfg() -> ExperimentConfig:
    """The paper's configuration (16K L1 / 2M L2, 360 MHz)."""
    return ExperimentConfig()


@pytest.fixture(scope="session")
def point_store(tmp_path_factory) -> PointStore:
    """One point store for the session's Table 3 and figure sweeps.

    Nothing is memoized in process, so the figure benches would
    otherwise re-simulate every point the Table 3 bench already ran.
    Pass it as ``SweepOptions(point_cache=point_store)``.
    """
    return PointStore(tmp_path_factory.mktemp("points"))


def emit(out_dir: pathlib.Path, name: str, text: str) -> None:
    """Write a rendered experiment to disk (atomically) and stdout.

    Atomic replace means an interrupted benchmark run leaves either the
    previous table or the new one in ``benchmarks/out/`` — never a
    truncated artifact.
    """
    atomic_write_text(out_dir / f"{name}.txt", text + "\n")
    print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}")
