"""Tests for the associativity lattice experiment."""

import csv
import io

import pytest

from repro.cache.params import CacheParams
from repro.errors import ConfigurationError
from repro.experiments.lattice import (
    _lattice_l1,
    format_lattice,
    lattice_to_csv,
    run_lattice,
    write_lattice_csv,
)


@pytest.fixture(scope="module")
def lattice_data(tiny_l1_module, tiny_config_module):
    """One small real lattice, shared across the module's tests."""
    return run_lattice("JACOBI", 40, strategies=("Orig", "GcdPad"),
                       assocs=(1, 2), line_sizes=(32,),
                       cfg=tiny_config_module)


@pytest.fixture(scope="module")
def tiny_l1_module():
    return CacheParams(size_bytes=2048, line_bytes=32, assoc=1, name="L1")


@pytest.fixture(scope="module")
def tiny_config_module(tiny_l1_module):
    from repro.experiments.config import ExperimentConfig
    from repro.perfmodel.machine import ULTRASPARC2_360

    return ExperimentConfig(
        l1=tiny_l1_module,
        l2=CacheParams(size_bytes=65536, line_bytes=64, assoc=1, name="L2"),
        machine=ULTRASPARC2_360, nk=8)


class TestGeometry:
    def test_lattice_l1_same_capacity_new_shape(self, tiny_l1_module):
        p = _lattice_l1(tiny_l1_module, 4, 64)
        assert p.size_bytes == tiny_l1_module.size_bytes
        assert (p.line_bytes, p.assoc) == (64, 4)
        assert p.name == "L1/4w/64B"

    def test_lattice_l1_rejects_indivisible(self, tiny_l1_module):
        with pytest.raises(ConfigurationError, match="not divisible"):
            _lattice_l1(tiny_l1_module, 3, 32)


class TestRunLattice:
    def test_grid_shape(self, lattice_data):
        d = lattice_data
        assert d.kernel == "JACOBI" and d.n == 40
        assert set(d.cells) == {(s, a, l)
                                for s in ("Orig", "GcdPad")
                                for a in (1, 2) for l in (32,)}
        for p in d.cells.values():
            assert p.refs > 0 and p.mflops > 0

    def test_tile_selection_constant_across_geometries(self, lattice_data):
        """Capacity is held constant, so every cell picks the same tiles
        for a given strategy — only conflict behaviour varies."""
        for strat in lattice_data.strategies:
            nks = {lattice_data.cell(strat, a, 32).nk
                   for a in lattice_data.assocs}
            assert len(nks) == 1

    def test_associativity_never_hurts_orig(self, lattice_data):
        """2-way LRU absorbs conflicts a direct-mapped L1 pays for."""
        dm = lattice_data.cell("Orig", 1, 32).l1_rate
        two = lattice_data.cell("Orig", 2, 32).l1_rate
        assert two <= dm + 1e-9

    def test_padding_gap(self, lattice_data):
        d = lattice_data
        gap = d.padding_gap(1, 32)
        expect = (d.cell("Orig", 1, 32).l1_rate
                  - d.cell("GcdPad", 1, 32).l1_rate)
        assert gap == pytest.approx(expect)

    def test_padding_gap_requires_orig_and_padded(self, lattice_data):
        from dataclasses import replace

        orig_only = replace(lattice_data, strategies=("Orig",))
        with pytest.raises(ConfigurationError, match="padding_gap"):
            orig_only.padding_gap(1, 32)


class TestRendering:
    def test_format_tables_and_gap(self, lattice_data):
        out = format_lattice(lattice_data, "l1_rate", "L1 miss rate")
        assert "JACOBI N=40 L1 miss rate — 32B lines" in out
        assert "1-way" in out and "2-way" in out
        assert "Padding gap" in out

    def test_gap_false_drops_gap_table(self, lattice_data):
        out = format_lattice(lattice_data, "mflops", "MFlops", gap=False)
        assert "Padding gap" not in out

    def test_csv_roundtrip(self, lattice_data, tmp_path):
        text = lattice_to_csv(lattice_data)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(lattice_data.cells)
        assert {(r["strategy"], int(r["assoc"]), int(r["line_bytes"]))
                for r in rows} == set(lattice_data.cells)
        for r in rows:
            assert float(r["l1_rate"]) >= 0.0
        path = write_lattice_csv(lattice_data, tmp_path / "lat.csv")
        assert path.read_text() == text


class TestOptions:
    def test_checkpoint_is_ignored_with_warning(self, tiny_config_module,
                                                tmp_path):
        import logging

        from repro.experiments.options import SweepOptions

        # A handler directly on the emitting logger: the CLI logging
        # setup may have disabled propagation on the "repro" tree, so
        # caplog's root-level handler cannot be relied on here.
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        lat_log = logging.getLogger("repro.experiments.lattice")
        lat_log.addHandler(handler)
        try:
            opts = SweepOptions(checkpoint=tmp_path / "ck.jsonl")
            run_lattice("JACOBI", 32, strategies=("Orig", "GcdPad"),
                        assocs=(1,), line_sizes=(32,),
                        cfg=tiny_config_module, options=opts)
        finally:
            lat_log.removeHandler(handler)
        assert any("ignoring --checkpoint" in r.getMessage()
                   for r in records)
        assert not (tmp_path / "ck.jsonl").exists()

    def _captured_policies(self, monkeypatch, cfg, options):
        import repro.experiments.lattice as lattice_mod

        seen = []
        real = lattice_mod.run_point

        def spy(*args, policy=None, **kwargs):
            seen.append(policy)
            return real(*args, policy=policy, **kwargs)

        monkeypatch.setattr(lattice_mod, "run_point", spy)
        run_lattice("JACOBI", 32, strategies=("Orig",), assocs=(1,),
                    line_sizes=(32,), cfg=cfg, options=options)
        assert seen
        return seen

    def test_point_timeout_reaches_run_point(self, monkeypatch,
                                             tiny_config_module):
        from repro.experiments.options import SweepOptions
        from repro.resilience import PointBudget

        for pol in self._captured_policies(
                monkeypatch, tiny_config_module,
                SweepOptions(point_timeout=30.0)):
            assert pol.budget == PointBudget(wall_seconds=30.0)

    def test_default_options_keep_the_memoized_path(self, monkeypatch,
                                                    tiny_config_module):
        for pol in self._captured_policies(monkeypatch,
                                           tiny_config_module, None):
            assert pol.plain
