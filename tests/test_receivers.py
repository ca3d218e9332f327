"""The receivers' per-page scan path and the cached warm-up programs.

A receiver times a whole probe array in one :meth:`Machine.probe_latencies`
call, which resolves each page's translation (TLB hit or page walk) once.
That is exact because a probe never perturbs state: every scan here must
equal the per-slot ``probe_latency`` / ``probe_fetch_latency`` readings
and leave the TLBs and caches as it found them.
"""

import pytest

from repro import CommitPolicy, Machine
from repro.attacks import gadgets
from repro.attacks.channels import FlushReloadChannel, PrimeProbeChannel
from repro.attacks.gadgets import warm_lines
from repro.memory.paging import PAGE_SHIFT, PrivilegeLevel

PROBE = 0x20_0000          # 256 slots x 64 B: four pages
CODE = 0x70_000            # warm_lines' default code base
UNMAPPED = 0x90_0000


def _scanned_machine(policy):
    """A machine whose 256-slot probe array is partly dTLB-resident.

    Pages 0 and 2 of the array are warmed (TLB entry plus a few lines),
    pages 1 and 3 are mapped but cold.
    """
    machine = Machine(policy=policy)
    machine.map_user_range(PROBE, 256 * 64)
    machine.map_user_range(CODE, 4 * 4096)
    warm_lines(machine, [PROBE + 5 * 64, PROBE + 9 * 64,
                         PROBE + 2 * 4096 + 3 * 64])
    dtlb = machine.hierarchy.dtlb
    resident = [dtlb.contains((PROBE >> PAGE_SHIFT) + page)
                for page in range(4)]
    assert resident == [True, False, True, False]
    return machine


def _state(machine):
    hier = machine.hierarchy
    levels = (hier.l1i, hier.l1d, hier.l2, hier.l3, hier.itlb, hier.dtlb)
    return ([level.snapshot() for level in levels],
            [(level.hits, level.misses) for level in levels])


POLICIES = [CommitPolicy.BASELINE, CommitPolicy.WFC]


@pytest.mark.parametrize("policy", POLICIES, ids=["baseline", "wfc"])
class TestScans:
    def test_data_scan_equals_per_slot_probes(self, policy):
        machine = _scanned_machine(policy)
        channel = FlushReloadChannel(machine, PROBE)
        addresses = [channel.slot_address(s) for s in range(256)]
        before = _state(machine)
        outcome = channel.probe()
        assert _state(machine) == before
        assert outcome.latencies == [machine.probe_latency(a)
                                     for a in addresses]
        # Both TLB outcomes and several hit levels appear in the scan.
        assert len(set(outcome.latencies)) >= 3
        assert outcome.hot_slots == [5, 9, 131]

    def test_fetch_scan_equals_per_slot_probes(self, policy):
        machine = _scanned_machine(policy)
        channel = FlushReloadChannel(machine, CODE, stride=64, side="i")
        addresses = [channel.slot_address(s) for s in range(256)]
        itlb = machine.hierarchy.itlb
        assert itlb.contains(CODE >> PAGE_SHIFT)
        assert not itlb.contains((CODE >> PAGE_SHIFT) + 1)
        before = _state(machine)
        outcome = channel.probe()
        assert _state(machine) == before
        assert outcome.latencies == [machine.probe_fetch_latency(a)
                                     for a in addresses]
        # The warm-up program's seven instructions span two lines.
        assert outcome.hot_slots == [0, 1]

    def test_unmapped_addresses_cost_memory_latency(self, policy):
        machine = _scanned_machine(policy)
        addresses = [PROBE, UNMAPPED, UNMAPPED + 64, PROBE + 4096]
        memory = machine.hierarchy.config.memory_latency
        for side, single in (("d", machine.probe_latency),
                             ("i", machine.probe_fetch_latency)):
            scan = machine.probe_latencies(addresses, side=side)
            assert scan == [single(a) for a in addresses]
            assert scan[1:3] == [memory, memory]

    def test_prime_probe_scan_equals_per_line_probes(self, policy):
        machine = Machine(policy=policy)
        channel = PrimeProbeChannel(machine)
        channel.prime()
        # Committed accesses to three sets from another region evict
        # one prime line in each.
        victim = 0x50_0000
        machine.map_user_range(victim, 4096)
        warm_lines(machine, [victim + s * 64 for s in (3, 17, 40)],
                   code_base=0x76_000)
        before = _state(machine)
        evicted = channel._evicted_sets()
        assert _state(machine) == before
        reference = {s for s in range(channel.num_sets)
                     if any(machine.probe_latency(channel.line_address(s, w))
                            > channel.threshold
                            for w in range(channel.ways))}
        assert evicted == reference
        assert {3, 17, 40} <= evicted


class _Recorder:
    """Stands in for a machine: records the programs it is asked to run."""

    def __init__(self):
        self.programs = []

    def run(self, program, privilege):
        self.programs.append(program)


class TestWarmLinesMemo:
    def test_equal_keys_share_one_program(self):
        machine = _Recorder()
        warm_lines(machine, [0x1000, 0x2000], code_base=0x7A_000)
        warm_lines(machine, iter([0x1000, 0x2000]), code_base=0x7A_000,
                   privilege=PrivilegeLevel.SUPERVISOR)
        first, second = machine.programs
        assert first is second
        assert first.code_base == 0x7A_000 and len(first) == 5

    @pytest.mark.parametrize("change", [
        dict(addresses=[0x1000, 0x3000]),
        dict(addresses=[0x2000, 0x1000]),
        dict(code_base=0x7B_000),
        dict(serialized=True),
    ], ids=["addresses", "order", "code_base", "serialized"])
    def test_any_key_field_builds_a_new_program(self, change):
        machine = _Recorder()
        key = dict(addresses=[0x1000, 0x2000], code_base=0x7A_000,
                   serialized=False)
        warm_lines(machine, **key)
        warm_lines(machine, **{**key, **change})
        first, second = machine.programs
        assert first is not second
        assert first.instructions != second.instructions \
            or first.code_base != second.code_base

    def test_memo_is_bounded(self):
        machine = _Recorder()
        for index in range(40):
            warm_lines(machine, [0x1000 + 64 * index], code_base=0x7C_000)
        info = gadgets._warm_program.cache_info()
        assert info.maxsize == 16
        assert info.currsize <= 16
        # The oldest key was evicted: asking again builds anew.
        warm_lines(machine, [0x1000], code_base=0x7C_000)
        assert machine.programs[-1] is not machine.programs[0]
