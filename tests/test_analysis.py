"""Tests for the experiment runner and figure rendering."""

import pytest

from repro.analysis.experiment import AVERAGE, FigureRunner
from repro.api.session import Session
from repro.analysis.report import (render_figure_series, render_ipc_figure,
                                   render_sizing_figure, render_two_series)
from repro.core.policy import CommitPolicy


@pytest.fixture(scope="module")
def runner():
    # Two small benchmarks with a modest budget keep the suite fast while
    # still exercising every figure pipeline end to end.
    return FigureRunner(Session(cache=False),
                        benchmarks=["namd", "povray"], instructions=3000)


class TestRunnerCaching:
    def test_run_is_cached(self, runner):
        first = runner.run("namd", CommitPolicy.BASELINE)
        second = runner.run("namd", CommitPolicy.BASELINE)
        assert first is second


class TestFigureSeries:
    def test_shadow_sizing_series(self, runner):
        series = runner.shadow_sizing("shadow_dcache", CommitPolicy.WFC)
        assert set(series) == {"namd", "povray", AVERAGE}
        assert all(v >= 0 for v in series.values())

    def test_sizing_wfb_not_larger_than_wfc(self, runner):
        """The paper's Figures 6-9 show WFB needing at most the WFC
        sizes (state is released earlier under WFB)."""
        for structure in ("shadow_dcache", "shadow_icache",
                          "shadow_itlb", "shadow_dtlb"):
            wfc = runner.shadow_sizing(structure, CommitPolicy.WFC)
            wfb = runner.shadow_sizing(structure, CommitPolicy.WFB)
            for name in ("namd", "povray"):
                assert wfb[name] <= wfc[name] + 2  # small jitter allowed

    def test_normalized_ipc_near_one(self, runner):
        series = runner.normalized_ipc(CommitPolicy.WFC)
        for name, value in series.items():
            assert 0.7 < value < 1.3, f"{name} normalized IPC {value}"

    def test_miss_rate_series_bounded(self, runner):
        for policy in (CommitPolicy.BASELINE, CommitPolicy.WFC):
            for series in (runner.dcache_miss_rates(policy),
                           runner.icache_miss_rates(policy)):
                assert all(0.0 <= v <= 1.0 for v in series.values())

    def test_shadow_hit_fractions_bounded(self, runner):
        for series in (runner.shadow_dcache_hits(),
                       runner.shadow_icache_hits()):
            assert all(0.0 <= v <= 1.0 for v in series.values())

    def test_commit_rates_bounded(self, runner):
        for structure in ("shadow_dcache", "shadow_icache"):
            series = runner.shadow_commit_rates(structure)
            assert all(0.0 <= v <= 1.0 for v in series.values())

    def test_average_row_present(self, runner):
        series = runner.dcache_miss_rates(CommitPolicy.BASELINE)
        values = [v for k, v in series.items() if k != AVERAGE]
        assert series[AVERAGE] == pytest.approx(sum(values) / len(values))


class TestRendering:
    def test_render_figure_series(self):
        text = render_figure_series("Fig X", {"a": 0.5, "b": 1.0})
        assert "Fig X" in text and "a" in text and "#" in text

    def test_render_empty_series(self):
        assert "(empty)" in render_figure_series("T", {})

    def test_render_sizing(self):
        text = render_sizing_figure("7", "shadow d-cache",
                                    {"mcf": 25.0}, {"mcf": 20.0})
        assert "Figure 7" in text and "mcf" in text

    def test_render_ipc(self):
        text = render_ipc_figure({"mcf": 1.03})
        assert "+3.0%" in text.replace("+ ", "+")

    def test_render_two_series(self):
        text = render_two_series("T", "WFC", {"mcf": 0.1},
                                 "baseline", {"mcf": 0.2})
        assert "WFC" in text and "baseline" in text
