"""Load and store queues with store-to-load forwarding.

The store queue implements the paper's TSO note (Section IV-B): "the cache
is not updated until the store commits, making stores robust to
speculation attacks" — store *data* only reaches the memory system at
commit.  Store *address translation* still happens at execute and is
speculative state (a dTLB fill) that SafeSpec shadows.

Disambiguation is conservative by default: a load may not issue while
any older store's address is unknown; once all older store addresses
are known the youngest *exactly* matching store forwards its data, and
a partially overlapping store stalls the load until it drains (the
memory system merges the bytes — forwarding an unshifted word would be
wrong).  With ``mem_dep_speculation`` enabled, loads bypass unresolved
older stores instead, and :meth:`conflicting_load` lets the core detect
the memory-order violation when the store address finally resolves —
the Spectre v4 (speculative store bypass) surface.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.pipeline.uop import DONE, ISSUED, SQUASHED, DynUop


class LoadStoreQueue:
    """Combined LDQ/STQ bookkeeping (separately bounded)."""

    __slots__ = ("ldq_capacity", "stq_capacity", "_word_bytes",
                 "_loads", "_stores", "_mem_dep_speculation")

    def __init__(self, ldq_entries: int, stq_entries: int,
                 word_bytes: int = 8,
                 mem_dep_speculation: bool = False) -> None:
        self.ldq_capacity = ldq_entries
        self.stq_capacity = stq_entries
        self._word_bytes = word_bytes
        self._mem_dep_speculation = mem_dep_speculation
        self._loads: List[DynUop] = []
        self._stores: List[DynUop] = []

    # -- occupancy ---------------------------------------------------------

    @property
    def ldq_full(self) -> bool:
        return len(self._loads) >= self.ldq_capacity

    @property
    def stq_full(self) -> bool:
        return len(self._stores) >= self.stq_capacity

    def load_count(self) -> int:
        return len(self._loads)

    # -- insertion / removal -------------------------------------------------

    def add_load(self, uop: DynUop) -> None:
        self._loads.append(uop)

    def add_store(self, uop: DynUop) -> None:
        self._stores.append(uop)

    def remove(self, uop: DynUop) -> None:
        """Remove a committed or squashed micro-op from its queue."""
        if uop.is_load:
            if uop in self._loads:
                self._loads.remove(uop)
        elif uop in self._stores:
            self._stores.remove(uop)

    def drop_squashed(self) -> None:
        """Purge every squashed entry (called after a pipeline squash)."""
        self._loads = [u for u in self._loads
                       if u.state is not SQUASHED]
        self._stores = [u for u in self._stores
                        if u.state is not SQUASHED]

    # -- disambiguation ---------------------------------------------------

    def _overlaps(self, addr_a: int, addr_b: int) -> bool:
        """Whether two word accesses overlap."""
        return abs(addr_a - addr_b) < self._word_bytes

    def older_store_blocks(self, load: DynUop) -> bool:
        """True while an older store makes the load unissueable.

        Conservative mode: any older store with an unresolved address
        blocks.  With memory-dependence speculation, unresolved
        addresses do *not* block (the load bypasses; a conflict is
        caught later by :meth:`conflicting_load`).  In both modes a
        *partially* overlapping resolved store blocks until it drains:
        word forwarding cannot shift/merge bytes, only the memory
        system can.
        """
        if not self._stores:
            return False
        load_seq = load.seq
        load_vaddr = load.vaddr
        for store in self._stores:
            if store.seq >= load_seq:
                continue
            if store.state is SQUASHED:
                continue
            if store.vaddr is None:
                if not self._mem_dep_speculation:
                    return True
                continue
            if (load_vaddr is not None and store.vaddr != load_vaddr
                    and self._overlaps(store.vaddr, load_vaddr)):
                return True
        return False

    def forward_from_store(self, load: DynUop) -> Optional[Tuple[int, DynUop]]:
        """Value forwarded by the youngest older store to the *same* word.

        Returns ``(value, store)`` or ``None``.  Only an exact word
        match forwards; partial overlaps never reach here (the load is
        stalled by :meth:`older_store_blocks` until the store drains).
        """
        if not self._stores:
            return None
        best: Optional[DynUop] = None
        for store in self._stores:
            if store.seq >= load.seq or store.state is SQUASHED:
                continue
            if store.vaddr is None or load.vaddr is None:
                continue
            if store.vaddr == load.vaddr:
                if best is None or store.seq > best.seq:
                    best = store
        if best is None or best.store_value is None:
            return None
        return best.store_value, best

    def conflicting_load(self, store: DynUop) -> Optional[DynUop]:
        """Oldest younger load that already read past this store.

        Called when a store's address resolves under memory-dependence
        speculation: any younger load that has issued (or finished)
        against an overlapping address consumed stale data and must be
        squashed and replayed.
        """
        if store.vaddr is None:
            return None
        victim: Optional[DynUop] = None
        for load in self._loads:
            if load.seq <= store.seq:
                continue
            if load.state is not ISSUED and \
                    load.state is not DONE:
                continue
            if load.vaddr is None:
                continue
            if self._overlaps(store.vaddr, load.vaddr):
                if victim is None or load.seq < victim.seq:
                    victim = load
        return victim
