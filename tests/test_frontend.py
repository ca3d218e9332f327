"""Unit tests for the BTB and direction predictors."""

import pytest

from repro.errors import ConfigError
from repro.frontend.btb import BTBConfig, BranchTargetBuffer
from repro.frontend.predictors import BimodalPredictor, GsharePredictor
from repro.frontend.rsb import ReturnStackBuffer, RSBConfig


class TestBTB:
    def test_cold_lookup_misses(self):
        assert BranchTargetBuffer().predict_target(0x1000) is None

    def test_update_then_predict(self):
        btb = BranchTargetBuffer()
        btb.update(0x1000, 0x2000)
        assert btb.predict_target(0x1000) == 0x2000

    def test_untagged_aliasing(self):
        """The Spectre v2 poisoning mechanism: two PCs that share an
        index share the entry."""
        btb = BranchTargetBuffer()
        period = btb.config.entries << btb.config.shift
        pc_victim = 0x1000
        pc_attacker = 0x1000 + period
        assert btb.aliases(pc_victim, pc_attacker)
        btb.update(pc_attacker, 0xBAD0)
        assert btb.predict_target(pc_victim) == 0xBAD0

    def test_non_aliasing_pcs_do_not_collide(self):
        btb = BranchTargetBuffer()
        btb.update(0x1000, 0x2000)
        assert btb.predict_target(0x1010) is None

    def test_flush(self):
        btb = BranchTargetBuffer()
        btb.update(0x1000, 0x2000)
        btb.flush()
        assert btb.predict_target(0x1000) is None

    def test_config_consistency_enforced(self):
        with pytest.raises(ConfigError):
            BTBConfig(entries=100, index_bits=9)


class TestBimodal:
    def test_initial_prediction_not_taken(self):
        assert not BimodalPredictor().predict(0x1000)

    def test_training_to_taken(self):
        pred = BimodalPredictor()
        for _ in range(3):
            pred.update(0x1000, taken=True, predicted=False)
        assert pred.predict(0x1000)

    def test_hysteresis(self):
        pred = BimodalPredictor()
        for _ in range(4):
            pred.update(0x1000, taken=True, predicted=False)
        pred.update(0x1000, taken=False, predicted=True)
        assert pred.predict(0x1000)  # one not-taken does not flip it

    def test_misprediction_rate(self):
        pred = BimodalPredictor()
        pred.predict(0x1000)
        pred.update(0x1000, taken=True, predicted=False)
        pred.predict(0x1000)
        pred.update(0x1000, taken=False, predicted=False)
        assert pred.misprediction_rate() == pytest.approx(0.5)

    def test_entries_power_of_two(self):
        with pytest.raises(ConfigError):
            BimodalPredictor(entries=1000)

    def test_flush_resets(self):
        pred = BimodalPredictor()
        for _ in range(3):
            pred.update(0x1000, True, False)
        pred.flush()
        assert not pred.predict(0x1000)


class TestGshare:
    def test_history_affects_index(self):
        pred = GsharePredictor(entries=64, history_bits=6)
        # Train PC under one history pattern to taken.
        for _ in range(4):
            pred.update(0x40, taken=True, predicted=False)
        # Predictions exist and training changed behaviour for this path.
        assert isinstance(pred.predict(0x40), bool)

    def test_rejects_bad_history(self):
        with pytest.raises(ConfigError):
            GsharePredictor(history_bits=0)

    def test_flush(self):
        pred = GsharePredictor()
        for _ in range(4):
            pred.update(0x1000, True, False)
        pred.flush()
        assert not pred.predict(0x1000)


class TestRSB:
    def test_lifo_order(self):
        rsb = ReturnStackBuffer()
        rsb.push(1)
        rsb.push(2)
        assert rsb.pop() == 2
        assert rsb.pop() == 1

    def test_empty_pop_returns_zero(self):
        assert ReturnStackBuffer().pop() == 0

    def test_overflow_drops_oldest(self):
        rsb = ReturnStackBuffer(RSBConfig(depth=2))
        rsb.push(1)
        rsb.push(2)
        rsb.push(3)
        assert len(rsb) == 2
        assert rsb.pop() == 3
        assert rsb.pop() == 2

    def test_depth_validated(self):
        with pytest.raises(ConfigError):
            RSBConfig(depth=0)
