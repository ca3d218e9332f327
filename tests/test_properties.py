"""Property-based tests (hypothesis) on core data structures/invariants."""

from hypothesis import given, settings, strategies as st

from repro_testlib import DATA_BASE, POLICIES, make_user_machine
from repro import ProgramBuilder
from repro.core.shadow import FullPolicy, ShadowStructure
from repro.isa.instructions import Instruction, Opcode
from repro.isa.registers import to_unsigned
from repro.memory.cache import Cache, CacheConfig
from repro.memory.dram import MainMemory
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.paging import PagePermissions, PageTable, Translation
from repro.memory.tlb import TLB, TLBConfig
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core
from repro.pipeline.lsq import BLOCKED, LoadStoreQueue
from repro.pipeline.uop import DynUop, UopState
from repro.statistics import Histogram

addresses = st.integers(min_value=0, max_value=1 << 30)
words = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestCacheProperties:
    @given(st.lists(addresses, max_size=200))
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = Cache(CacheConfig("p", 4096, 4, 64, 1))
        for addr in addrs:
            cache.fill(addr)
        assert cache.occupancy() <= cache.config.num_lines
        for cache_set in cache.snapshot():
            assert len(cache_set) <= cache.config.associativity

    @given(st.lists(addresses, min_size=1, max_size=100))
    def test_last_filled_line_always_present(self, addrs):
        cache = Cache(CacheConfig("p", 4096, 4, 64, 1))
        for addr in addrs:
            cache.fill(addr)
        assert cache.contains(addrs[-1])

    @given(st.lists(addresses, max_size=100), addresses)
    def test_flushed_line_absent(self, addrs, victim):
        hierarchy = MemoryHierarchy(page_table=PageTable())
        for addr in addrs:
            hierarchy.install_line("d", addr)
        hierarchy.clflush(victim)
        for cache in (hierarchy.l1d, hierarchy.l2, hierarchy.l3):
            assert not cache.contains(victim)

    @given(st.lists(addresses, max_size=100),
           st.lists(addresses, max_size=100))
    def test_contains_is_pure(self, addrs, others):
        cache = Cache(CacheConfig("p", 4096, 4, 64, 1))
        for addr in addrs:
            cache.fill(addr)
        before = cache.snapshot()
        for addr in addrs + others:
            cache.contains(addr)
        assert cache.snapshot() == before


class TestTlbProperties:
    @given(st.lists(st.integers(0, 4096), max_size=200))
    def test_occupancy_bounded(self, vpns):
        tlb = TLB(TLBConfig("p", 16))
        for vpn in vpns:
            tlb.fill(Translation(vpn, vpn, PagePermissions()))
        assert tlb.occupancy() <= 16

    @given(st.lists(st.integers(0, 64), min_size=1, max_size=64))
    def test_most_recent_fill_present(self, vpns):
        tlb = TLB(TLBConfig("p", 8))
        for vpn in vpns:
            tlb.fill(Translation(vpn, vpn, PagePermissions()))
        assert tlb.contains(vpns[-1])


class TestShadowProperties:
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 20)),
                    max_size=200))
    def test_entry_accounting_balances(self, fills):
        """fills == resident + committed + annulled, always."""
        shadow = ShadowStructure("p", 8, FullPolicy.DROP)
        entries = []
        for i, (key, owner) in enumerate(fills):
            entry = shadow.fill(key, owner, None)
            if entry is not None:
                entries.append(entry)
            # retire roughly half of what is resident
            if len(entries) > 4:
                victim = entries.pop(0)
                if victim.owner_seq % 2:
                    shadow.release_committed(victim)
                else:
                    shadow.annul(victim)
        accepted = shadow.stats.counter("fills").value
        retired = shadow.commit_count + shadow.annul_count
        assert accepted == shadow.occupancy() + retired
        assert shadow.occupancy() <= shadow.capacity

    @given(st.integers(1, 64),
           st.lists(st.integers(0, 30), min_size=1, max_size=100))
    def test_never_exceeds_capacity(self, capacity, keys):
        shadow = ShadowStructure("p", capacity, FullPolicy.DROP)
        for i, key in enumerate(keys):
            shadow.fill(key, i, None)
        assert shadow.occupancy() <= capacity


class TestHistogramProperties:
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=300))
    def test_percentile_monotone(self, values):
        h = Histogram("p")
        for v in values:
            h.record(v)
        fractions = [0.1, 0.5, 0.9, 0.99, 1.0]
        results = [h.percentile(f) for f in fractions]
        assert results == sorted(results)
        assert results[-1] == max(values)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=300))
    def test_percentile_within_observed_range(self, values):
        h = Histogram("p")
        for v in values:
            h.record(v)
        assert min(values) <= h.percentile(0.5) <= max(values)

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=100),
           st.lists(st.integers(0, 100), min_size=1, max_size=100))
    def test_merge_preserves_total(self, first, second):
        a, b = Histogram("a"), Histogram("b")
        for v in first:
            a.record(v)
        for v in second:
            b.record(v)
        a.merge(b)
        assert a.total == len(first) + len(second)


class TestRegisterArithmeticProperties:
    @given(words, words)
    def test_addition_wraps_like_hardware(self, a, b):
        assert to_unsigned(a + b) == (a + b) % (1 << 64)


class TestMemoryProperties:
    @given(st.dictionaries(
        st.integers(0, 1 << 20).map(lambda a: a * 8), words, max_size=50))
    def test_word_store_load_roundtrip(self, writes):
        mem = MainMemory()
        for addr, value in writes.items():
            mem.write_word(addr, value)
        for addr, value in writes.items():
            assert mem.read_word(addr) == value

    @given(st.integers(0, 1 << 20), words)
    def test_word_equals_byte_composition(self, addr, value):
        mem = MainMemory()
        mem.write_word(addr, value)
        composed = sum(mem.read_byte(addr + i) << (8 * i)
                       for i in range(8))
        assert composed == value

    # Word writes at every byte offset of a four-word window, mixed with
    # byte writes, against a byte-at-a-time reference: the bytes, the
    # words at every offset, the footprint and the written-byte masks
    # (insertion order included) must agree after every step.
    @given(st.lists(st.one_of(
        st.tuples(st.just("word"), st.integers(0, 24), words),
        st.tuples(st.just("byte"), st.integers(0, 31),
                  st.integers(0, 255))), min_size=1, max_size=20))
    def test_unaligned_words_match_byte_reference(self, writes):
        base = 0x1000
        mem = MainMemory()
        ref_bytes, ref_written = {}, {}
        for kind, offset, value in writes:
            if kind == "word":
                mem.write_word(base + offset, value)
                stored = [(offset + i, (value >> (8 * i)) & 0xFF)
                          for i in range(8)]
            else:
                mem.write_byte(base + offset, value)
                stored = [(offset, value)]
            for byte_offset, byte in stored:
                paddr = base + byte_offset
                ref_bytes[paddr] = byte
                ref_written[paddr >> 3] = (ref_written.get(paddr >> 3, 0)
                                           | 1 << (paddr & 7))
            window = range(base - 8, base + 40)
            assert [mem.read_byte(a) for a in window] == \
                [ref_bytes.get(a, 0) for a in window]
            assert [mem.read_word(a) for a in window[:-7]] == \
                [sum(ref_bytes.get(a + i, 0) << (8 * i) for i in range(8))
                 for a in window[:-7]]
            assert mem.footprint() == len(ref_bytes)
            assert list(mem._written.items()) == list(ref_written.items())
            assert list(mem._words) == list(ref_written)


def _forward_from_store(lsq, load):
    """The store-to-load forwarding scan as a second pass once
    ``older_store_blocks`` has let the load through: the value of the
    youngest older store to the same word, or None."""
    best = None
    for store in lsq._stores:
        if store.seq >= load.seq or store.state is UopState.SQUASHED:
            continue
        if store.vaddr is None or load.vaddr is None:
            continue
        if store.vaddr == load.vaddr:
            if best is None or store.seq > best.seq:
                best = store
    if best is None or best.store_value is None:
        return None
    return best.store_value


# Older and younger stores around one load: resolved or not, squashed
# or not, to the load's word, partly over it or clear of it, with a
# value of 0, of None (not yet executed) or any word.
_store_queues = st.tuples(
    st.lists(st.tuples(
        st.sampled_from([None, 0x100, 0x100, 0x100 - 4, 0x100 + 1,
                         0x100 - 8, 0x100 + 8, 0x140]),
        st.sampled_from([UopState.DISPATCHED, UopState.ISSUED,
                         UopState.DONE, UopState.SQUASHED]),
        st.one_of(st.none(), st.just(0), words)), max_size=8),
    st.integers(0, 8), st.booleans())


class TestStoreQueueProperties:
    @settings(max_examples=300)
    @given(_store_queues)
    def test_one_pass_equals_block_then_forward(self, queue):
        stores, load_at, mem_dep_speculation = queue
        lsq = LoadStoreQueue(8, 8, mem_dep_speculation=mem_dep_speculation)
        load = DynUop(load_at, Instruction(Opcode.LOAD, rd=1, rs1=2),
                      0x1000, 0)
        load.vaddr = 0x100
        seqs = [seq for seq in range(len(stores) + 1) if seq != load_at]
        for seq, (vaddr, state, value) in zip(seqs, stores):
            store = DynUop(seq, Instruction(Opcode.STORE, rs1=2, rs2=3),
                           0x1000, 0)
            store.vaddr, store.state, store.store_value = vaddr, state, value
            lsq._stores.append(store)
        expected = (BLOCKED if lsq.older_store_blocks(load)
                    else _forward_from_store(lsq, load))
        assert lsq.forward_or_block(load) == expected


def _queue_order_program(ops):
    """Loads, stores whose address hangs on a load (partly overlapping
    a loaded word when ``skew`` is set) and branches on loaded data."""
    b = ProgramBuilder()
    b.li("r1", DATA_BASE)
    b.li("r2", 0)
    for n, (kind, slot, skew) in enumerate(ops):
        if kind == "load":
            b.load("r2", "r1", slot * 8)
        elif kind == "store":
            b.alu("and", "r5", "r2", imm=0x38)
            b.add("r5", "r5", "r1")
            b.store("r5", "r2", slot * 8 + skew)
        else:
            b.alu("and", "r3", "r2", imm=1 << skew)
            b.branch("eq", "r3", "r0", f"skip{n}")
            b.load("r2", "r1", slot * 8)
            b.label(f"skip{n}")
    b.halt()
    return b.build()


class TestQueueOrderProperties:
    """The store-queue scans stop at the first store that is not older
    than the load, which holds only while both queues are in program
    (seq) order: dispatch appends, commit deletes the head, and a squash
    drops a suffix."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["load", "store", "branch"]),
                              st.integers(0, 7), st.integers(0, 3)),
                    min_size=1, max_size=16),
           st.lists(words, min_size=8, max_size=8),
           st.sampled_from(POLICIES), st.booleans())
    def test_queues_stay_in_seq_order(self, ops, data, policy,
                                      mem_dep_speculation):
        machine = make_user_machine(policy=policy)
        for slot, value in enumerate(data):
            machine.write_word(DATA_BASE + slot * 8, value)
        program = _queue_order_program(ops)
        machine.page_table.map_range(program.code_base, program.code_bytes)
        events = []

        def check(kind, _cycle, _uop):
            events.append(kind)
            for queue in (core.lsq._loads, core.lsq._stores):
                seqs = [uop.seq for uop in queue]
                assert seqs == sorted(set(seqs))

        core = Core(program, machine.hierarchy,
                    config=CoreConfig(
                        mem_dep_speculation=mem_dep_speculation),
                    predictor=machine.predictor, btb=machine.btb,
                    rsb=machine.rsb, engine=machine.engine, observer=check)
        assert core.run().halted_reason == "halt"
        assert "dispatch" in events and "commit" in events
