"""Tests for repro.sample: checkpoints, plans, window jobs, stitching.

The load-bearing properties of sampled simulation:

* a checkpoint dumped on one backend restores bit-exactly on the other
  (resumed execution equals straight-line execution);
* checkpoints survive pickling across ``ProcessPoolExecutor`` process
  boundaries with a stable digest;
* window selection is deterministic and anchored at slice 0;
* sample jobs are content-hashed like every other kind, so a repeated
  sampled run is all cache hits.
"""

import dataclasses
import gc
import hashlib
import json
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.api.session import Session
from repro.core.policy import CommitPolicy
from repro.errors import ConfigError
from repro.exec import Executor
from repro.exec.job import SAMPLE
from repro.machine import Machine
from repro.sample import (CHECKPOINT_SCHEMA_VERSION, Checkpoint, SamplePlan,
                          run_sample, sample_jobs, scan_checkpoints)
from repro.sample import checkpoint as checkpoint_module
from repro.sample import driver
from repro.sample.plan import resolve_workload
from repro.spec import MachineSpec

# Small slices: every simulation here exercises the checkpoint/stitch
# machinery, not the micro-architecture.
INTERVAL = 1_500
TOTAL = 3_000
PLAN = SamplePlan(interval=INTERVAL, warmup=200, windows=2, window=400)

BACKENDS = ("cycle", "fast")


def _end_state(machine, result, *, instructions, faults):
    """Architectural end-of-run state as a cold checkpoint (for digests)."""
    return Checkpoint.capture(machine, instructions=instructions,
                              next_pc=result.next_pc,
                              registers=result.registers,
                              faults=faults, warm=False)


def _straight_line(workload, budget, backend="fast"):
    """Run ``budget`` instructions from scratch; return the end state."""
    machine = Machine.from_spec(policy=CommitPolicy.BASELINE,
                                backend=backend)
    workload.apply_memory_image(machine)
    result = machine.run(workload.program, max_instructions=budget)
    assert result.halted_reason == "budget"
    return _end_state(machine, result, instructions=budget,
                      faults=len(result.fault_events))


def _resume(workload, checkpoint, budget, backend):
    """Restore ``checkpoint`` and run ``budget`` more instructions."""
    machine = Machine.from_spec(policy=CommitPolicy.BASELINE,
                                backend=backend)
    checkpoint.apply(machine)
    result = machine.run(workload.program, max_instructions=budget,
                         start_pc=checkpoint.next_pc,
                         initial_registers=dict(
                             enumerate(checkpoint.registers)))
    assert result.halted_reason == "budget"
    return _end_state(machine, result,
                      instructions=checkpoint.instructions + budget,
                      faults=checkpoint.faults + len(result.fault_events))


def _resume_in_child(checkpoint, benchmark, budget, backend):
    """ProcessPool entry: restore a pickled checkpoint in a fresh process."""
    workload = resolve_workload(benchmark)
    end = _resume(workload, checkpoint, budget, backend)
    return checkpoint.digest(), end.digest()


class TestSamplePlan:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SamplePlan(interval=0)
        with pytest.raises(ConfigError):
            SamplePlan(windows=0)
        with pytest.raises(ConfigError):
            SamplePlan(interval=1_000, warmup=600, windows=2, window=500)

    def test_full_coverage_when_windows_cover_every_slice(self):
        plan = SamplePlan(interval=1_000, warmup=100, windows=8, window=200)
        assert plan.select_windows(3_000) == (0, 1, 2)

    def test_selection_is_anchored_and_stratified(self):
        plan = SamplePlan(interval=1_000, warmup=100, windows=4,
                          window=200, seed=7)
        chosen = plan.select_windows(20_000)
        assert len(chosen) == 4
        assert chosen[0] == 0
        assert list(chosen) == sorted(set(chosen))
        assert all(1 <= index < 20 for index in chosen[1:])
        # One pick per stratum of the remaining 19 slices.
        rest, strata = 19, 3
        for stratum, index in enumerate(chosen[1:]):
            assert 1 + stratum * rest // strata <= index
            assert index < 1 + (stratum + 1) * rest // strata

    def test_selection_is_deterministic_per_seed(self):
        plan = SamplePlan(interval=1_000, warmup=100, windows=3,
                          window=200, seed=3)
        assert plan.select_windows(30_000) == plan.select_windows(30_000)
        other = dataclasses.replace(plan, seed=4)
        assert other.select_windows(30_000) != plan.select_windows(30_000)

    def test_anchor_window_spans_its_whole_slice(self):
        assert PLAN.window_span(0, TOTAL) == (0, INTERVAL)
        assert PLAN.window_span(0, INTERVAL // 2) == (0, INTERVAL // 2)
        assert PLAN.window_span(1, TOTAL) == (PLAN.warmup, PLAN.window)

    def test_params_round_trip(self):
        assert SamplePlan.from_params(PLAN.to_params()) == PLAN


class TestCheckpointValue:
    @pytest.fixture(scope="class")
    def checkpoint(self):
        return scan_checkpoints("namd", PLAN, [1], warm=True)[1]

    def test_dict_round_trip_preserves_digest(self, checkpoint):
        wire = json.loads(json.dumps(checkpoint.to_dict()))
        assert wire["checkpoint_schema"] == CHECKPOINT_SCHEMA_VERSION
        restored = Checkpoint.from_dict(wire)
        assert restored.digest() == checkpoint.digest()
        assert restored.next_pc == checkpoint.next_pc
        assert restored.registers == checkpoint.registers

    def test_unknown_schema_rejected(self, checkpoint):
        wire = checkpoint.to_dict()
        wire["checkpoint_schema"] = CHECKPOINT_SCHEMA_VERSION + 1
        with pytest.raises(ConfigError):
            Checkpoint.from_dict(wire)

    def test_digest_tracks_content(self, checkpoint):
        registers = list(checkpoint.registers)
        registers[3] ^= 1
        twin = dataclasses.replace(checkpoint,
                                   registers=tuple(registers))
        assert twin.digest() != checkpoint.digest()

    def test_cold_scan_drops_warm_state(self):
        cold = scan_checkpoints("namd", PLAN, [1], warm=False)[1]
        assert cold.warm is None
        warm = scan_checkpoints("namd", PLAN, [1], warm=True)[1]
        assert warm.warm is not None
        # Warm state is micro-architectural only: same committed state.
        assert dataclasses.replace(warm, warm=None).digest() == cold.digest()

    @pytest.mark.parametrize("batch", [1, 3, None])
    def test_digest_hashes_the_canonical_json(self, checkpoint, batch,
                                              monkeypatch):
        # The digest streams the canonical JSON of the wire form into the
        # hash batch by batch; any batch size gives the same text.
        if batch is not None:
            monkeypatch.setattr(checkpoint_module, "_DIGEST_BATCH", batch)
        tage = MachineSpec().derive(predictor="tage")
        for value in (checkpoint,
                      scan_checkpoints("namd", PLAN, [0, 1], warm=False)[1],
                      scan_checkpoints("namd", PLAN, [0])[0],
                      scan_checkpoints("namd", PLAN, [1], spec=tage)[1]):
            canonical = json.dumps(value.to_dict(), sort_keys=True,
                                   separators=(",", ":"))
            assert value.digest() == hashlib.sha256(
                canonical.encode("utf-8")).hexdigest()

    def test_initial_checkpoint_is_start_of_program(self):
        workload = resolve_workload("namd")
        checkpoint = scan_checkpoints(workload, PLAN, [0])[0]
        assert checkpoint.instructions == 0
        assert checkpoint.next_pc == workload.program.code_base
        assert checkpoint.warm is None


# Digests of the slice-1 warm checkpoint, pinned when checkpoints were
# still held as tuples: the packed form hashes the same canonical JSON.
PINNED_DIGESTS = {
    ("namd", "baseline"):
        "e479cd392a97670a72241a712989dad6b1968983102e76c9a27ef05c0d87088d",
    ("namd", "wfc"):
        "fadbb0a5d405fe00b4d605758858a575079b1b8b0ae33fedab9817d288452555",
    ("mcf", "baseline"):
        "eefbcf789292ab1bb4bc548a702dae4ecaea819e3b586429eb53061c8a2ab8b8",
    ("mcf", "wfc"):
        "a6d9281a7d18f758f8dedce8cb605a5334818bdad5d9b3b0c4cde042c1510e5c",
}


class TestPackedCheckpoint:
    @pytest.mark.parametrize(("name", "policy"), sorted(PINNED_DIGESTS))
    def test_digest_is_pinned(self, name, policy):
        checkpoint = scan_checkpoints(name, PLAN, [1], warm=True,
                                      policy=CommitPolicy(policy))[1]
        assert checkpoint.digest() == PINNED_DIGESTS[name, policy]

    @pytest.fixture(scope="class")
    def mcf_wfc(self):
        """A WFC machine stopped after 20,000 mcf instructions."""
        workload = resolve_workload("mcf")
        machine = Machine.from_spec(policy=CommitPolicy.WFC,
                                    backend="fast")
        workload.apply_memory_image(machine)
        result = machine.run(workload.program, max_instructions=20_000)
        assert result.halted_reason == "budget"
        return machine, result

    def _capture(self, machine, result):
        return Checkpoint.capture(machine, instructions=result.instructions,
                                  next_pc=result.next_pc,
                                  registers=result.registers,
                                  faults=len(result.fault_events))

    def test_warm_checkpoint_is_held_packed(self, mcf_wfc):
        gc.collect()
        tracemalloc.start()
        try:
            checkpoint = self._capture(*mcf_wfc)
            # A full collection also empties the interpreter's free
            # lists, so only what the checkpoint retains is counted.
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= 320_000, retained
        assert hash(checkpoint) == hash(dataclasses.replace(checkpoint))

    def test_digest_streams_in_bounded_memory(self, mcf_wfc):
        checkpoint = self._capture(*mcf_wfc)

        def traced_peak(fn):
            gc.collect()
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        streamed = traced_peak(checkpoint.digest)
        whole = traced_peak(lambda: json.dumps(
            checkpoint.to_dict(), sort_keys=True, separators=(",", ":")))
        assert streamed * 4 < whole, (streamed, whole)

    def test_restore_rejects_over_full_cache_sets(self, mcf_wfc):
        # Same 64 L1D sets as the default, but 4-way instead of 8-way.
        checkpoint = self._capture(*mcf_wfc)
        spec = MachineSpec().derive(**{"hierarchy.l1d.size_bytes": 16 * 1024,
                                       "hierarchy.l1d.associativity": 4})
        machine = Machine.from_spec(spec, policy=CommitPolicy.WFC,
                                    backend="fast")
        with pytest.raises(ConfigError, match=r"L1D: snapshot set \d+ holds"):
            checkpoint.apply(machine)

    def test_restore_rejects_over_full_tlb(self, mcf_wfc):
        # The warm dTLB holds 64 entries; this machine's holds 16.
        checkpoint = self._capture(*mcf_wfc)
        spec = MachineSpec().derive(**{"hierarchy.dtlb.entries": 16})
        machine = Machine.from_spec(spec, policy=CommitPolicy.WFC,
                                    backend="fast")
        with pytest.raises(ConfigError, match=r"dTLB: snapshot holds 64"):
            checkpoint.apply(machine)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_restore_captures_back_equal(self, mcf_wfc, backend):
        # Every set's LRU order, TLB order and page permissions survive
        # an apply onto a fresh machine of the same spec.
        checkpoint = self._capture(*mcf_wfc)
        machine = Machine.from_spec(policy=CommitPolicy.WFC,
                                    backend=backend)
        checkpoint.apply(machine)
        again = Checkpoint.capture(machine,
                                   instructions=checkpoint.instructions,
                                   next_pc=checkpoint.next_pc,
                                   registers=checkpoint.registers,
                                   faults=checkpoint.faults)
        assert again == checkpoint
        assert again.digest() == checkpoint.digest()


class TestCheckpointRestore:
    """Dump on the fast backend, restore anywhere, equal straight-line."""

    @pytest.fixture(scope="class")
    def workload(self):
        return resolve_workload("namd")

    @pytest.fixture(scope="class")
    def checkpoint(self, workload):
        return scan_checkpoints(workload, PLAN, [1], warm=True)[1]

    @pytest.fixture(scope="class")
    def straight(self, workload):
        return _straight_line(workload, 2 * INTERVAL)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resumed_run_equals_straight_line(self, workload, checkpoint,
                                              straight, backend):
        resumed = _resume(workload, checkpoint, INTERVAL, backend)
        assert resumed.digest() == straight.digest()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_checkpoint_survives_process_pool(self, workload, checkpoint,
                                              straight, backend):
        with ProcessPoolExecutor(max_workers=1) as pool:
            child_digest, child_end = pool.submit(
                _resume_in_child, checkpoint, "namd", INTERVAL,
                backend).result()
        # Digest is stable across process boundaries...
        assert child_digest == checkpoint.digest()
        # ...and the pickled checkpoint resumes to the same state.
        assert child_end == straight.digest()


class TestSampledRun:
    def test_job_fanout_is_deterministic(self):
        first = sample_jobs("namd", CommitPolicy.WFC, PLAN, TOTAL)
        second = sample_jobs("namd", CommitPolicy.WFC, PLAN, TOTAL)
        assert [job.key() for job in first] == [job.key() for job in second]
        assert all(job.kind == SAMPLE for job in first)
        # Jobs carry plan coordinates, never checkpoint blobs.
        assert all("window_index" in job.params for job in first)
        assert all(len(json.dumps(job.params)) < 1_000 for job in first)

    def test_stitched_report_sanity(self):
        report = run_sample(Executor(), "namd", CommitPolicy.BASELINE,
                            plan=PLAN, total_instructions=TOTAL)
        assert report.ok
        assert report.num_intervals == TOTAL // INTERVAL
        assert report.measured_windows == len(report.windows) == 2
        assert report.windows[0].index == 0
        # Anchor window measures its whole slice.
        assert report.windows[0].instructions == INTERVAL
        assert report.stitched_ipc > 0
        assert 0 < report.coverage <= 1
        assert report.estimated_counters["cycles"] == report.stitched_cycles
        payload = report.to_dict()
        assert payload["stitched_ipc"] == report.stitched_ipc
        assert len(payload["windows"]) == 2

    def test_repeated_run_is_all_cache_hits(self, tmp_path):
        session = Session(cache=True, cache_dir=str(tmp_path))
        kwargs = dict(policy=CommitPolicy.BASELINE, instructions=TOTAL,
                      interval=INTERVAL, warmup=PLAN.warmup,
                      windows=PLAN.windows, window=PLAN.window)
        first = session.sample("namd", **kwargs)
        assert first.cached_windows == 0
        assert session.cache_stats["hits"] == 0

        second = session.sample("namd", **kwargs)
        assert second.cached_windows == len(second.windows)
        assert all(w.from_cache for w in second.windows)
        # Every job was answered by the store: zero re-executions.
        assert session.cache_stats["hits"] == len(second.windows)
        assert second.stitched_ipc == first.stitched_ipc

    def test_window_takes_its_checkpoint_from_the_memo(self, monkeypatch):
        scans = []

        def counting_scan(*args, **kwargs):
            scans.append(args[2])
            return scan_checkpoints(*args, **kwargs)

        monkeypatch.setattr(driver, "scan_checkpoints", counting_scan)
        monkeypatch.setattr(driver, "_SCAN_MEMO", {})
        first, second = sample_jobs("namd", CommitPolicy.BASELINE, PLAN,
                                    TOTAL)
        measured = driver.run_sample_job(first)
        # One scan serves both windows; the first took its checkpoint.
        assert len(scans) == 1
        assert [sorted(c) for c in driver._SCAN_MEMO.values()] == [[1]]
        driver.run_sample_job(second)
        assert len(scans) == 1
        assert driver._SCAN_MEMO == {}
        # A slice already taken is scanned again, to the same checkpoint.
        again = driver.run_sample_job(first)
        assert len(scans) == 2
        assert again.details == measured.details

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_windows_measure_on_either_backend(self, backend):
        report = run_sample(Executor(), "namd", CommitPolicy.BASELINE,
                            plan=PLAN, total_instructions=TOTAL,
                            backend=backend)
        assert report.ok
        assert report.backend == backend

