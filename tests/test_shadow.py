"""Unit tests for the shadow structures."""

import pytest

from repro.core.shadow import FullPolicy, ShadowStructure
from repro.errors import ConfigError


def make(capacity=4, policy=FullPolicy.DROP):
    return ShadowStructure("test", capacity, policy)


class TestFill:
    def test_fill_and_lookup(self):
        shadow = make()
        entry = shadow.fill(0x1000, owner_seq=1, payload=None)
        assert entry is not None
        assert shadow.lookup(0x1000) is entry

    def test_lookup_miss(self):
        assert make().lookup(0x1000) is None

    def test_newest_entry_wins_on_duplicate_key(self):
        shadow = make()
        shadow.fill(0x1000, 1, None)
        second = shadow.fill(0x1000, 2, None)
        assert shadow.lookup(0x1000) is second

    def test_occupancy_counts_entries_not_keys(self):
        shadow = make()
        shadow.fill(0x1000, 1, None)
        shadow.fill(0x1000, 2, None)
        assert shadow.occupancy() == 2

    def test_capacity_validated(self):
        with pytest.raises(ConfigError):
            make(capacity=0)


class TestFullPolicies:
    def test_drop_discards_when_full(self):
        shadow = make(capacity=2, policy=FullPolicy.DROP)
        assert shadow.fill(1, 1, None)
        assert shadow.fill(2, 2, None)
        assert shadow.fill(3, 3, None) is None
        assert shadow.stats.counter("drops").value == 1
        assert shadow.occupancy() == 2

    def test_block_counts_blocks(self):
        shadow = make(capacity=1, policy=FullPolicy.BLOCK)
        shadow.fill(1, 1, None)
        assert shadow.fill(2, 2, None) is None
        assert shadow.stats.counter("blocks").value == 1

    def test_has_space(self):
        shadow = make(capacity=1)
        assert shadow.has_space()
        shadow.fill(1, 1, None)
        assert not shadow.has_space()
        assert shadow.full


class TestCommitAnnul:
    def test_release_committed_removes_entry(self):
        shadow = make()
        entry = shadow.fill(1, 1, None)
        shadow.release_committed(entry)
        assert shadow.lookup(1) is None
        assert shadow.commit_count == 1

    def test_annul_removes_entry(self):
        shadow = make()
        entry = shadow.fill(1, 1, None)
        shadow.annul(entry)
        assert shadow.lookup(1) is None
        assert shadow.annul_count == 1

    def test_double_remove_is_idempotent(self):
        shadow = make()
        entry = shadow.fill(1, 1, None)
        shadow.annul(entry)
        shadow.annul(entry)
        assert shadow.occupancy() == 0

    def test_commit_rate(self):
        shadow = make()
        kept = shadow.fill(1, 1, None)
        dropped = shadow.fill(2, 2, None)
        shadow.release_committed(kept)
        shadow.annul(dropped)
        assert shadow.commit_rate() == pytest.approx(0.5)

    def test_commit_rate_empty(self):
        assert make().commit_rate() == 0.0

    def test_remove_one_of_two_same_key(self):
        shadow = make()
        first = shadow.fill(1, 1, None)
        second = shadow.fill(1, 2, None)
        shadow.annul(second)
        assert shadow.lookup(1) is first


class TestOccupancySampling:
    def test_sampling_records_histogram(self):
        shadow = make()
        shadow.sample_occupancy()
        shadow.fill(1, 1, None)
        shadow.sample_occupancy()
        hist = shadow.occupancy_histogram
        assert hist.total == 2
        assert hist.max == 1

    def test_bulk_sample_equals_single_samples(self):
        bulk, single = make(), make()
        for shadow in (bulk, single):
            shadow.fill(1, 1, None)
        # k samples at one occupancy, then across an occupancy change.
        bulk.sample_occupancy(count=5)
        for _ in range(5):
            single.sample_occupancy()
        for shadow in (bulk, single):
            shadow.fill(2, 2, None)
        bulk.sample_occupancy(count=3)
        bulk.sample_occupancy(count=2)
        for _ in range(5):
            single.sample_occupancy()
        assert list(bulk.occupancy_histogram.items()) == [(1, 5), (2, 5)]
        assert list(bulk.occupancy_histogram.items()) == \
            list(single.occupancy_histogram.items())

    def test_snapshot(self):
        shadow = make()
        shadow.fill(1, 10, None)
        shadow.fill(2, 20, None)
        assert sorted(shadow.entries_snapshot()) == [(1, 10), (2, 20)]
