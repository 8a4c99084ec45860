"""Coverage for small utilities not exercised elsewhere."""

import numpy as np
import pytest

from repro.cache.base import CacheStats
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    ExperimentError,
    IllegalTransformError,
    ReproError,
    TileSelectionError,
    TraceError,
    TransformError,
)
from repro.layout.array import ArraySpec


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        ConfigurationError, ConvergenceError, ExperimentError,
        IllegalTransformError, TileSelectionError, TraceError,
        TransformError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_illegal_transform_is_transform_error(self):
        assert issubclass(IllegalTransformError, TransformError)


class TestCacheStats:
    def test_counters(self):
        st = CacheStats(accesses=10, misses=3)
        assert st.hits == 7
        assert st.miss_rate == pytest.approx(0.3)

    def test_empty_rate(self):
        assert CacheStats().miss_rate == 0.0

    def test_merge_and_copy(self):
        a = CacheStats(10, 3)
        b = a.copy()
        b.merge(CacheStats(5, 5))
        assert (b.accesses, b.misses) == (15, 8)
        assert (a.accesses, a.misses) == (10, 3)  # copy isolated


class TestArraySpecBytes:
    def test_byte_addr(self):
        spec = ArraySpec("A", di=10, dj=10, dk=2, base=100, elem_bytes=4)
        assert spec.byte_addr(1, 2, 1) == (100 + 1 + 20 + 100) * 4


class TestReportEdges:
    def test_table_mixed_types(self):
        from repro.experiments.report import format_table

        out = format_table(["a"], [[None]], title=None)
        assert "None" in out

    def test_series_alignment(self):
        from repro.experiments.report import format_series

        out = format_series("t", "x", [1], {"a": [1.0], "b": [2.0]})
        assert out.splitlines()[1].split() == ["x", "a", "b"]


class TestPerfPresetsImmutable:
    def test_frozen(self):
        from repro.perfmodel import ULTRASPARC2_360

        with pytest.raises(Exception):
            ULTRASPARC2_360.clock_hz = 1  # type: ignore[misc]
