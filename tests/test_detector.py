"""Tests for the shadow-occupancy anomaly detector (paper §VII)."""

import pytest

from repro import CommitPolicy, Machine, ProgramBuilder
from repro.core.detector import (DEFAULT_THRESHOLDS, ShadowAnomalyDetector)
from repro.core.shadow import FullPolicy
from repro.errors import ConfigError
from repro.pipeline.trace import PipelineTracer


class TestConfiguration:
    def test_default_thresholds_cover_all_structures(self):
        assert set(DEFAULT_THRESHOLDS) == {
            "shadow_dcache", "shadow_icache", "shadow_itlb", "shadow_dtlb"}

    def test_unknown_structure_rejected(self):
        with pytest.raises(ConfigError):
            ShadowAnomalyDetector({"shadow_l4": 10})

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigError):
            ShadowAnomalyDetector({"shadow_dcache": 0})

    def test_double_attach_rejected(self):
        machine = Machine(policy=CommitPolicy.WFC)
        detector = ShadowAnomalyDetector().attach(machine)
        with pytest.raises(ConfigError):
            detector.attach(Machine(policy=CommitPolicy.WFC))
        detector.detach()

    def test_second_observer_on_taken_slot_rejected(self):
        machine = Machine(policy=CommitPolicy.WFC)
        detector = ShadowAnomalyDetector().attach(machine)
        with pytest.raises(ConfigError):
            ShadowAnomalyDetector().attach(machine)
        with pytest.raises(ConfigError):
            PipelineTracer().attach(machine)
        assert machine.observer is detector

    def test_detach_clears_the_observer_slot(self):
        machine = Machine(policy=CommitPolicy.WFC)
        detector = ShadowAnomalyDetector().attach(machine)
        assert machine.observer is detector
        detector.detach()
        assert machine.observer is None

    def test_fast_backend_rejected(self):
        # The fast backend reports no cycles: a detector on it would
        # read zero occupancy and never alarm.
        machine = Machine(policy=CommitPolicy.WFC, backend="fast")
        with pytest.raises(ConfigError, match="fast"):
            ShadowAnomalyDetector().attach(machine)
        assert machine.observer is None

    def test_baseline_machine_rejected(self):
        machine = Machine(policy=CommitPolicy.BASELINE)
        with pytest.raises(ConfigError, match="BASELINE"):
            ShadowAnomalyDetector().attach(machine)
        assert machine.observer is None

    def test_detach_without_attach_rejected(self):
        with pytest.raises(ConfigError):
            ShadowAnomalyDetector().detach()


class TestDetection:
    def test_benign_program_raises_no_alarm(self):
        machine = Machine(policy=CommitPolicy.WFC)
        machine.map_user_range(0x20000, 4096)
        detector = ShadowAnomalyDetector().attach(machine)
        b = ProgramBuilder()
        b.li("r1", 0x20000)
        for offset in range(0, 256, 64):
            b.load("r2", "r1", offset)
        b.halt()
        machine.run(b.build())
        report = detector.detach()
        assert not report.attack_suspected
        assert report.peak_occupancy["shadow_dcache"] >= 1

    @staticmethod
    def _burst(policy):
        """16 independent cold loads to distinct pages, in flight
        together, watched at a ``shadow_dcache`` threshold of 4."""
        machine = Machine(policy=policy)
        machine.map_user_range(0x100000, 1 << 20)
        detector = ShadowAnomalyDetector(
            {"shadow_dcache": 4}).attach(machine)
        b = ProgramBuilder()
        b.li("r1", 0x100000)
        for i in range(16):
            b.load("r2", "r1", i * 4096)
        b.halt()
        machine.run(b.build())
        return detector.detach()

    def test_burst_past_threshold_alarms(self):
        report = self._burst(CommitPolicy.WFC)
        assert report.attack_suspected
        assert "shadow_dcache" in str(report.events[0])
        # Pinned from the detector that hooked the engine's cycle tick.
        assert [(e.cycle, e.structure, e.occupancy)
                for e in report.events] == [(959, "shadow_dcache", 7),
                                            (1146, "shadow_dcache", 6)]
        assert report.peak_occupancy == {
            "shadow_dcache": 13, "shadow_icache": 3,
            "shadow_itlb": 1, "shadow_dtlb": 11}

    def test_burst_under_wfb_stays_at_threshold(self):
        # Under WFB the loads have no older branch: they are promoted at
        # dispatch, so their fills never enter the shadow dcache.
        report = self._burst(CommitPolicy.WFB)
        assert not report.attack_suspected
        assert report.peak_occupancy["shadow_dcache"] == 4

    def test_debounce_one_event_per_excursion(self):
        machine = Machine(policy=CommitPolicy.WFC)
        machine.map_user_range(0x100000, 1 << 20)
        detector = ShadowAnomalyDetector(
            {"shadow_dcache": 2}).attach(machine)
        b = ProgramBuilder()
        b.li("r1", 0x100000)
        for i in range(12):
            b.load("r2", "r1", i * 4096)
        b.halt()
        machine.run(b.build())
        report = detector.detach()
        dcache_events = [e for e in report.events
                         if e.structure == "shadow_dcache"]
        # a single long excursion -> a small number of de-bounced events
        assert 1 <= len(dcache_events) <= 3


class TestDetectsTsaTrojan:
    def test_tsa_trojan_trips_the_detector(self):
        """The TSA Trojan must fill a shadow structure to capacity inside
        one window — the exact anomaly the paper suggests detecting."""
        from repro.attacks import tsa
        from repro.attacks.gadgets import AttackLayout

        layout = AttackLayout()
        machine = tsa._setup(CommitPolicy.WFC, 1,
                             tsa._undersized(CommitPolicy.WFC,
                                             FullPolicy.DROP),
                             "cycle", layout)
        detector = ShadowAnomalyDetector({"shadow_dtlb": 3})
        detector.attach(machine)
        result = tsa._transmit(machine, layout, 1)
        report = detector.detach()
        assert result.leaked == 1
        assert report.events, \
            "the trojan's shadow-dTLB burst should trip the detector"
