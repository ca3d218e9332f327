"""Tests for the synthetic workload suite."""

import pytest

from repro.core.policy import CommitPolicy
from repro.errors import ConfigError
from repro.workloads import (SUITE_PROFILES, generate_program,
                             profile_by_name, run_workload, suite_names)
from repro.workloads.generator import WorkloadProgram
from repro.workloads.profiles import WorkloadProfile


class TestProfiles:
    def test_suite_has_21_paper_benchmarks_plus_gcc_order(self):
        names = suite_names()
        assert len(names) == 22
        assert names[0] == "perlbench"
        assert names[-1] == "gcc"
        assert "mcf" in names and "lbm" in names

    def test_lookup_by_name(self):
        assert profile_by_name("mcf").name == "mcf"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            profile_by_name("doom")

    def test_profiles_validated(self):
        with pytest.raises(ConfigError):
            WorkloadProfile("bad", working_set_kb=0,
                            pointer_chase_fraction=0, branch_fraction=0,
                            branch_entropy=0, code_kb=8, store_fraction=0,
                            seed=1)
        with pytest.raises(ConfigError):
            WorkloadProfile("bad", working_set_kb=8,
                            pointer_chase_fraction=1.5, branch_fraction=0,
                            branch_entropy=0, code_kb=8, store_fraction=0,
                            seed=1)

    def test_profiles_span_behaviours(self):
        sizes = [p.working_set_kb for p in SUITE_PROFILES]
        assert max(sizes) >= 16 * min(sizes)   # memory-bound vs resident
        chases = [p.pointer_chase_fraction for p in SUITE_PROFILES]
        assert max(chases) > 0.3 and min(chases) == 0.0


class TestGenerator:
    def test_deterministic(self):
        a = generate_program(profile_by_name("x264"))
        b = generate_program(profile_by_name("x264"))
        assert len(a.program) == len(b.program)
        assert [str(i) for i in a.program] == [str(i) for i in b.program]
        assert a.chase_writes == b.chase_writes

    def test_different_profiles_differ(self):
        a = generate_program(profile_by_name("mcf"))
        b = generate_program(profile_by_name("lbm"))
        assert [str(i) for i in a.program] != [str(i) for i in b.program]

    def test_code_footprint_scales_with_profile(self):
        small = generate_program(profile_by_name("lbm"))
        large = generate_program(profile_by_name("gcc"))
        assert large.program.code_bytes > small.program.code_bytes

    def test_chase_cycle_is_single_permutation(self):
        workload = generate_program(profile_by_name("mcf"))
        targets = dict(workload.chase_writes)
        start = workload.data_base
        seen = set()
        node = start
        for _ in range(len(targets)):
            assert node in targets, "chase chain left the table"
            assert node not in seen, "chase cycle shorter than the table"
            seen.add(node)
            node = targets[node]
        assert node == start, "chase pointers do not form one cycle"

    def test_chase_targets_inside_working_set(self):
        workload = generate_program(profile_by_name("omnetpp"))
        lo = workload.data_base
        hi = workload.data_base + workload.data_bytes
        for addr, value in workload.chase_writes:
            assert lo <= addr < hi
            assert lo <= value < hi


class TestRunWorkload:
    def test_run_produces_metrics(self):
        run = run_workload("namd", CommitPolicy.BASELINE,
                           instructions=2000)
        assert run.instructions >= 2000
        assert 0 < run.ipc < 6
        assert 0 <= run.dcache_read_miss_rate <= 1
        assert 0 <= run.icache_miss_rate <= 1

    def test_shadow_metrics_only_under_safespec(self):
        base = run_workload("namd", CommitPolicy.BASELINE,
                            instructions=1000)
        assert base.shadow_occupancy == {}
        wfc = run_workload("namd", CommitPolicy.WFC, instructions=1000)
        assert "shadow_dcache" in wfc.shadow_occupancy
        assert wfc.shadow_size_percentile("shadow_dcache") >= 0

    def test_accepts_profile_and_program_inputs(self):
        profile = profile_by_name("povray")
        run1 = run_workload(profile, instructions=500)
        workload = generate_program(profile)
        assert isinstance(workload, WorkloadProgram)
        run2 = run_workload(workload, instructions=500)
        assert run1.target == run2.target == "povray"

    def test_same_workload_same_cycles(self):
        a = run_workload("nab", CommitPolicy.BASELINE, instructions=1500)
        b = run_workload("nab", CommitPolicy.BASELINE, instructions=1500)
        assert a.cycles == b.cycles
