"""Smoke tests: every example script runs and prints what it promises.

The examples are part of the public deliverable; these tests import each
one as a module and execute its ``main()`` with output captured, so a
broken example fails CI rather than a reader's first session.
"""

import importlib.util
import sys
from pathlib import Path

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples.{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestQuickstart:
    def test_runs_and_computes_sum(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "sum          = 36" in out
        assert "[baseline]" in out and "[wfc]" in out


class TestTsaDemo:
    def test_shows_both_outcomes(self, capsys):
        load_example("tsa_demo").main()
        out = capsys.readouterr().out
        assert "channel WORKS" in out
        assert "carries no information" in out


class TestMeltdownWalkthrough:
    def test_narrates_all_policies(self, capsys):
        load_example("meltdown_walkthrough").main()
        out = capsys.readouterr().out
        assert out.count("SECRET LEAKED") == 2   # baseline + WFB
        assert "leak closed" in out              # WFC


class TestLeakString:
    def test_full_leak_on_baseline_only(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["leak_string.py", "Hi"])
        load_example("leak_string").main()
        out = capsys.readouterr().out
        assert "FULL LEAK" in out
        assert "no leak" in out


class TestAnomalyDetection:
    def test_alarm_only_for_burst(self, capsys):
        load_example("anomaly_detection").main()
        out = capsys.readouterr().out
        benign, burst = out.split("TSA-style burst")
        assert "attack suspected: False" in benign
        assert "attack suspected: True" in burst


class TestWorkloadStudy:
    def test_prints_figures(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["workload_study.py", "namd"])
        load_example("workload_study").main()
        out = capsys.readouterr().out
        assert "Figure 11" in out and "Figure 7" in out


class TestSweepAblation:
    def test_prints_full_grid(self, capsys):
        load_example("sweep_ablation").main()
        out = capsys.readouterr().out
        # 2 benchmarks x 2 policies x 3 ROB variants
        assert out.count("IPC=") == 12
        assert "rob224" in out and "wfc" in out


class TestShadowSizingSweep:
    def test_prints_sizing_table(self, capsys):
        load_example("shadow_sizing_sweep").main()
        out = capsys.readouterr().out
        assert "p99.99 shadow occupancy" in out
        # 2 benchmarks x 3 sizing modes
        for sizing in ("secure", "p9999", "tiny"):
            assert out.count(sizing) >= 2


class TestSampledRun:
    def test_compares_sampled_to_full(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv",
                            ["sampled_run.py", "mcf", "100000"])
        load_example("sampled_run").main()
        out = capsys.readouterr().out
        assert "4/4 windows measured" in out
        assert "stitched IPC" in out
        assert "error)" in out and "less wall-clock" in out


class TestSecurityMatrixExample:
    def test_matrix_prints(self, capsys):
        load_example("security_matrix").main()
        out = capsys.readouterr().out
        assert "meltdown" in out and "spectre_v1" in out
