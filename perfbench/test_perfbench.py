"""The benchmark's own checks: span arithmetic and wrapper hygiene."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import loads  # noqa: E402
import passrun  # noqa: E402


def _synthetic_tree(tracer, now):
    """outer(1 s, inner, inner, 3 s); inner(2 s, leaf, 0.5 s); leaf(1 s)."""
    def leaf():
        now[0] += 1.0

    def inner():
        now[0] += 2.0
        wrapped_leaf()
        now[0] += 0.5

    def outer():
        now[0] += 1.0
        wrapped_inner()
        wrapped_inner()
        now[0] += 3.0

    wrapped_leaf = tracer.wrap("core.set_cycle", leaf)
    wrapped_inner = tracer.wrap("pipeline.run", inner, record=True)
    return tracer.wrap("exec.execute_job", outer, record=True)


def test_self_time_is_duration_minus_wrapped_children():
    now = [10.0]
    tracer = layers.Tracer(clock=lambda: now[0], job=lambda: 7)
    _synthetic_tree(tracer, now)()

    assert tracer.totals["core.set_cycle"] == [2, 2.0, 2.0]
    assert tracer.totals["pipeline.run"] == [2, 5.0, 7.0]
    assert tracer.totals["exec.execute_job"] == [1, 4.0, 11.0]
    assert tracer.layer_self_s() == 11.0
    metrics = layers.layer_metrics(tracer, wall_s=12.0)
    assert metrics["trace.other.self_s"] == 1.0
    assert metrics["pipeline.run.self_s"] == 5.0
    # Only kept spans are recorded; inner spans name the outer as parent.
    records = sorted(tracer.records)
    assert [(r[1], r[4], r[5]) for r in records] == [
        ("exec.execute_job", -1, 7), ("pipeline.run", 0, 7),
        ("pipeline.run", 0, 7)]
    assert (records[0][2], records[0][3]) == (10.0, 21.0)


def test_self_time_survives_an_exception():
    now = [0.0]
    tracer = layers.Tracer(clock=lambda: now[0])

    def boom():
        now[0] += 2.0
        raise ValueError("job failed")

    wrapped = tracer.wrap("attacks.run", boom, record=True)
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.totals["attacks.run"] == [1, 2.0, 2.0]
    assert tracer._stack == []


def test_install_wraps_caller_bindings_and_uninstall_restores():
    import repro.sample.driver as driver
    import repro.sample.plan as plan
    import repro.workloads.suite as suite
    from repro.pipeline.core import Core

    original_scan = plan.scan_checkpoints
    assert layers.wrapped_bindings() == []
    installation = layers.install(layers.Tracer())
    try:
        assert installation.missing == []
        wrapped = layers.wrapped_bindings()
        for name in ("repro.sample.driver.scan_checkpoints",
                     "repro.sample.plan.scan_checkpoints",
                     "repro.workloads.suite.generate_program",
                     "repro.exec.executor.execute_job",
                     "repro.pipeline.core.Core.run",
                     "repro.sample.checkpoint.Checkpoint.capture"):
            assert name in wrapped, name
        assert driver.scan_checkpoints is not original_scan
    finally:
        installation.uninstall()
    assert layers.wrapped_bindings() == []
    assert driver.scan_checkpoints is original_scan
    assert plan.scan_checkpoints is original_scan
    assert not hasattr(Core.run, "__wrapped__")
    assert suite.generate_program.__module__ == "repro.workloads.generator"


def test_untraced_pass_runs_with_no_wrapper(monkeypatch):
    seen = {}

    def run(inputs, clock):
        seen[inputs] = layers.wrapped_bindings()
        clock.done()
        return loads.Outcome(attempted=1, records=[inputs])

    monkeypatch.setitem(loads.WORKLOADS, "probe", (lambda seed: seed, run))
    untraced = passrun.run_pass("probe", 0, 0.0, "pass")
    traced = passrun.run_pass("probe", 1, 0.0, "trace")

    assert seen[0] == [] and untraced["wrapped"] == 0
    assert seen[1] and traced["wrapped"] == len(seen[1])
    assert layers.wrapped_bindings() == []
    assert traced["layers"]["exec.execute_job.calls"] == 0
    assert len(untraced["latencies_ms"]) == 1


def test_reference_kernel_time_is_charged_to_no_job():
    import gc

    import reference

    now = [0.0]

    def kernel():
        now[0] += 5.0

    clock = loads.JobClock(lambda: now[0], between=kernel, every=1.0)
    for t in (0.5, 1.5, 7.0):   # the kernel runs after the 1.5-s mark
        now[0] = t
        clock.done()
    assert clock.latencies == [0.5, 1.0, 0.5]
    assert gc.isenabled() and reference.time_kernel() > 0
    assert gc.isenabled()


def test_secret_is_42_at_seed_zero_and_never_a_blind_value():
    assert loads.secret_for(0) == loads.DEFAULT_SECRET
    drawn = {loads.secret_for(seed) for seed in range(1, 400)}
    assert drawn <= set(range(1, 256))
    assert not drawn & loads.SPECTRE_V1_PP_BLIND_SECRETS
    assert loads.secret_for(5) == loads.secret_for(5)


def test_benchmark_json_names_what_the_benchmark_prints():
    import json

    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(loads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    printed = set(layers.layer_metrics(layers.Tracer(), 1.0))
    printed |= {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == printed
    for metric in spec["per_layer"]:
        assert metric["unit"] == run._layer_unit(metric["name"])
