"""Tests for the pipeline tracer."""

import hashlib

import pytest

from repro import CommitPolicy, Machine, ProgramBuilder
from repro.core.detector import ShadowAnomalyDetector
from repro.errors import ConfigError
from repro.pipeline.trace import PipelineTracer


def traced_run(build, tracer=None, **machine_kwargs):
    machine = Machine(**machine_kwargs)
    machine.map_user_range(0x20000, 4096)
    b = ProgramBuilder()
    build(b)
    tracer = (tracer or PipelineTracer()).attach(machine)
    result = machine.run(b.build())
    tracer.detach()
    return tracer, result


def simple_program(b):
    b.li("r1", 0x20000)
    b.load("r2", "r1", 0)
    b.alu("add", "r3", "r2", imm=1)
    b.halt()


class TestLifecycle:
    def test_every_committed_uop_has_full_lifecycle(self):
        tracer, result = traced_run(simple_program)
        commits = tracer.filter(kind="commit")
        assert len(commits) == result.instructions
        first = commits[0].seq
        kinds = [e.kind for e in tracer.lifetime(first)]
        assert kinds == ["fetch", "dispatch", "issue", "commit"]

    def test_cycle_order_monotone_per_uop(self):
        tracer, _ = traced_run(simple_program)
        for seq in {e.seq for e in tracer.events}:
            cycles = [e.cycle for e in tracer.lifetime(seq)]
            assert cycles == sorted(cycles)

    def test_fault_event_recorded(self):
        def build(b):
            b.li("r1", 0xDEAD0000)
            b.load("r2", "r1", 0)
            b.halt()
        tracer, _ = traced_run(build)
        faults = tracer.filter(kind="fault")
        assert len(faults) == 1
        assert "unmapped" in faults[0].text

    def test_squash_events_on_mispredict(self):
        def build(b):
            b.li("r1", 0x20000)
            b.load("r2", "r1", 0)            # cold miss delays the branch
            b.branch("eq", "r2", "r0", "out")  # 0 == 0: taken; predicted NT
            b.li("r3", 1)
            b.label("out")
            b.halt()
        tracer, _ = traced_run(build)
        assert tracer.filter(kind="squash")


def mispredicting_loop(b):
    """Twelve iterations over several i-cache lines, each with a load,
    a store and a branch that alternates direction."""
    b.li("r1", 0x20000)
    b.li("r6", 0)
    b.li("r7", 12)
    b.label("loop")
    b.alu("and", "r3", "r6", imm=1)
    b.alu("shl", "r4", "r6", imm=3)
    b.add("r4", "r1", "r4")
    b.load("r2", "r4", 0)
    b.branch("eq", "r3", "r0", "even")
    b.alu("add", "r5", "r5", "r2")
    b.label("even")
    b.store("r4", "r6", 0)
    b.alu("add", "r6", "r6", imm=1)
    b.branch("lt", "r6", "r7", "loop")
    b.halt()


class TestEventContract:
    """The core reports every pipeline event to its observer once, in
    the order the events happen."""

    # The stream of ``mispredicting_loop`` as recorded when the tracer
    # still wrapped the core's stage methods: (cycles, the first 16 hex
    # digits of the sha256 of the ``str(event)`` lines).
    PINNED_STREAMS = {
        CommitPolicy.BASELINE: (1885, "b643c17e9c10ad15"),
        CommitPolicy.WFB: (2171, "6da57b1d0a64bcc6"),
        CommitPolicy.WFC: (2171, "6da57b1d0a64bcc6"),
    }
    PINNED_COUNTS = {"fetch": 247, "dispatch": 127, "issue": 106,
                     "commit": 106, "squash": 141}

    @pytest.mark.parametrize("policy", [CommitPolicy.BASELINE,
                                        CommitPolicy.WFB, CommitPolicy.WFC])
    def test_pinned_event_stream(self, policy):
        tracer, result = traced_run(mispredicting_loop, policy=policy)
        counts = {}
        for event in tracer.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        assert counts == self.PINNED_COUNTS
        assert len(tracer.events) == 727
        text = "\n".join(str(event) for event in tracer.events)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert (result.cycles, digest) == self.PINNED_STREAMS[policy]

    @pytest.mark.parametrize("policy", [CommitPolicy.BASELINE,
                                        CommitPolicy.WFB, CommitPolicy.WFC])
    def test_committed_and_squashed_lifecycles(self, policy):
        tracer, result = traced_run(mispredicting_loop, policy=policy)
        assert result.halted_reason == "halt"
        assert result.counters["mispredicts"] > 0
        assert result.counters["dcache_read_accesses"] > 0
        events = {}
        for event in tracer.events:
            events.setdefault(event.seq, []).append(event)
        committed = {e.seq for e in tracer.filter(kind="commit")}
        assert len(committed) == result.instructions
        squashed = set(events) - committed
        assert len(squashed) == result.counters["squashed"] > 0
        for seq, lifetime in events.items():
            kinds = [e.kind for e in lifetime]
            if seq in committed:
                assert kinds == ["fetch", "dispatch", "issue", "commit"]
            else:
                assert kinds[0] == "fetch" and kinds[-1] == "squash"
                assert kinds.count("squash") == 1
                assert "commit" not in kinds
            cycles = [e.cycle for e in lifetime]
            assert cycles == sorted(cycles)


class TestFiltering:
    def test_kind_whitelist(self):
        tracer, _ = traced_run(simple_program,
                               tracer=PipelineTracer(kinds=["commit"]))
        assert {e.kind for e in tracer.events} == {"commit"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            PipelineTracer(kinds=["retire"])

    def test_writeback_kind_rejected(self):
        # Writeback is not a reported event: a filter on it would
        # silently record nothing.
        with pytest.raises(ConfigError):
            PipelineTracer(kinds=["writeback"])

    def test_max_events_cap(self):
        tracer, _ = traced_run(simple_program,
                               tracer=PipelineTracer(max_events=2))
        assert len(tracer.events) == 2


class TestAttachDetach:
    def test_double_attach_rejected(self):
        tracer = PipelineTracer().attach(Machine())
        with pytest.raises(ConfigError):
            tracer.attach(Machine())

    def test_detach_clears_the_observer_slot(self):
        machine = Machine()
        tracer = PipelineTracer().attach(machine)
        assert machine.observer is tracer
        tracer.detach()
        assert machine.observer is None
        # The slot is free again for the next subscriber.
        PipelineTracer().attach(machine).detach()

    def test_second_observer_on_taken_slot_rejected(self):
        machine = Machine(policy=CommitPolicy.WFC)
        tracer = PipelineTracer().attach(machine)
        with pytest.raises(ConfigError):
            PipelineTracer().attach(machine)
        with pytest.raises(ConfigError):
            ShadowAnomalyDetector().attach(machine)
        assert machine.observer is tracer

    def test_fast_backend_rejected(self):
        machine = Machine(backend="fast")
        with pytest.raises(ConfigError, match="fast"):
            PipelineTracer().attach(machine)
        assert machine.observer is None

    def test_detach_without_attach_rejected(self):
        with pytest.raises(ConfigError):
            PipelineTracer().detach()


class TestRendering:
    def test_timeline_renders(self):
        tracer, _ = traced_run(simple_program)
        text = tracer.render_timeline(limit=5)
        assert "cycle" in text and "commit" in text or "fetch" in text

    def test_timeline_truncation_note(self):
        tracer, _ = traced_run(simple_program)
        text = tracer.render_timeline(limit=1)
        assert "more events" in text
