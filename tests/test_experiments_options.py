"""Tests of the unified sweep/point option API.

Covers the :class:`SweepOptions` / :class:`PointPolicy` contracts
(frozen, validated at construction, the exact field sets), that options
thread through to sweeps, and that the legacy entry points, keyword
forms and deleted execution options are genuinely *gone*: the shims
must not quietly come back, and a stale call site must fail loudly,
not silently diverge.
"""

import dataclasses

import pytest

import repro.experiments as experiments
import repro.experiments.options as options_mod
import repro.experiments.runner as runner_mod
from repro.errors import ConfigurationError
from repro.experiments.figures import figure_series
from repro.experiments.options import PointPolicy, SweepOptions
from repro.experiments.runner import run_point, sweep
from repro.experiments.table3 import table3
from repro.resilience import PointBudget


class TestSweepOptions:
    def test_frozen_and_hashable(self):
        opts = SweepOptions(parallel=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.parallel = 4
        assert hash(opts) == hash(SweepOptions(parallel=2))

    @pytest.mark.parametrize("bad", [
        dict(parallel=0), dict(parallel=-3),
        dict(point_timeout=0), dict(point_timeout=-1.0),
    ])
    def test_bad_values_fail_at_construction(self, bad):
        with pytest.raises(ConfigurationError):
            SweepOptions(**bad)

    def test_point_policy_projection(self):
        opts = SweepOptions(budget=PointBudget(max_refs=10),
                            checkpoint="c.jsonl", point_cache="dir",
                            parallel=2)
        pol = opts.point_policy(journal="J", store="S")
        assert pol == PointPolicy(budget=opts.budget, journal="J",
                                  store="S")
        # Serially, point_timeout becomes a wall budget — unless an
        # explicit budget already bounds the point.
        pol = SweepOptions(point_timeout=2.5).point_policy()
        assert pol == PointPolicy(budget=PointBudget(wall_seconds=2.5))
        pol = SweepOptions(budget=PointBudget(max_refs=10),
                           point_timeout=2.5).point_policy()
        assert pol.budget == PointBudget(max_refs=10)
        assert SweepOptions().point_policy() == PointPolicy()
        assert SweepOptions(classify=True).point_policy() == \
            PointPolicy(classify=True)


class TestPointPolicy:
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PointPolicy().analytic = True

    def test_analytic_excludes_simulation_knobs(self):
        with pytest.raises(ConfigurationError, match="analytic"):
            PointPolicy(analytic=True, budget=PointBudget())
        with pytest.raises(ConfigurationError, match="analytic"):
            PointPolicy(analytic=True, classify=True)


class TestLegacyAPIRemoved:
    """The PR-4 deprecation shims completed their cycle: verify removal.

    These assertions are load-bearing — if a refactor resurrects a shim
    (e.g. via a stale ``__all__`` or a re-export), old call sites would
    silently bypass the options API again.
    """

    def test_shim_functions_are_gone(self):
        for name in ("run_point_analytic", "run_point_resilient"):
            assert not hasattr(runner_mod, name)
            assert not hasattr(experiments, name)
            assert name not in runner_mod.__all__
            assert name not in experiments.__all__

    def test_simulation_path_knobs_are_gone(self):
        # Extrapolation over flat traces is the one exact path: there
        # is no knob to turn it off or to pick another trace form.
        sweep_fields = {f.name for f in dataclasses.fields(SweepOptions)}
        policy_fields = {f.name for f in dataclasses.fields(PointPolicy)}
        assert not {"extrapolate", "trace_form"} & sweep_fields
        assert not {"extrapolate", "trace_form"} & policy_fields
        with pytest.raises(TypeError):
            SweepOptions(extrapolate=True)
        with pytest.raises(TypeError):
            PointPolicy(trace_form="flat")

    def test_execution_option_knobs_are_gone(self):
        # No in-process memo, no per-call chunk bound, no journal
        # adoption: each option set nothing a statistic depends on.
        sweep_fields = {f.name for f in dataclasses.fields(SweepOptions)}
        policy_fields = {f.name for f in dataclasses.fields(PointPolicy)}
        # ``classify`` is the one option since: 3C classification is
        # its own request, not a side effect of collecting metrics.
        assert sweep_fields == {"checkpoint", "budget", "parallel",
                                "point_timeout", "point_cache", "classify"}
        assert policy_fields == {"analytic", "budget", "journal", "store",
                                 "classify"}
        assert not hasattr(PointPolicy, "plain")
        for name in ("chunk_size", "resume_force"):
            with pytest.raises(TypeError):
                SweepOptions(**{name: 1})
            with pytest.raises(TypeError):
                PointPolicy(**{name: 1})
        for name in ("_run_point_cached", "RunnerCacheInfo", "cache_info",
                     "clear_cache"):
            assert not hasattr(runner_mod, name)

    def test_merge_helper_is_gone(self):
        assert not hasattr(options_mod, "merge_deprecated_kwargs")
        assert not hasattr(options_mod, "_LEGACY_SWEEP_KWARGS")
        assert "merge_deprecated_kwargs" not in options_mod.__all__

    @pytest.mark.parametrize("kwargs", [
        dict(checkpoint="c.jsonl"), dict(budget=None), dict(parallel=2),
        dict(point_timeout=1.0), dict(resume_force=True),
        dict(chunk=64),  # never-valid keywords fail identically
    ])
    def test_sweep_rejects_legacy_kwargs(self, tiny_config, kwargs):
        with pytest.raises(TypeError, match="unexpected keyword"):
            sweep("JACOBI", ["Orig"], [40], tiny_config, **kwargs)

    def test_table3_rejects_legacy_kwargs(self, tmp_path, tiny_config):
        with pytest.raises(TypeError, match="unexpected keyword"):
            table3(kernels=("JACOBI",), strategies=("GcdPad",),
                   sizes=[40], cfg=tiny_config,
                   checkpoint=tmp_path / "t3.jsonl")

    def test_figure_series_rejects_legacy_kwargs(self, tmp_path,
                                                 tiny_config):
        with pytest.raises(TypeError, match="unexpected keyword"):
            figure_series("JACOBI", sizes=[40], cfg=tiny_config,
                          checkpoint=tmp_path / "f.jsonl")

    def test_replacement_path_works(self, tiny_config):
        # The replacements the shim warnings pointed at, still live.
        analytic = run_point("JACOBI", "GcdPad", 40, tiny_config,
                             policy=PointPolicy(analytic=True))
        assert analytic.degraded
        budgeted = run_point("JACOBI", "Orig", 40, tiny_config,
                             policy=PointPolicy(
                                 budget=PointBudget(max_refs=10)))
        assert budgeted.degraded  # 10 refs can't finish an exact point


class TestOptionsThreadThrough:
    def test_table3_shares_store_across_kernels(self, tmp_path,
                                                tiny_config):
        from repro.resilience import faults

        opts = SweepOptions(point_cache=tmp_path / "c")
        kwargs = dict(kernels=("JACOBI", "RESID"), strategies=("Orig",),
                      sizes=[40], cfg=tiny_config)
        first = table3(options=opts, **kwargs)
        inj = faults.FaultInjector()
        with faults.inject(inj):
            second = table3(options=opts, **kwargs)
        assert inj.calls("simulate") == 0
        assert second.summaries == first.summaries
