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

Both queues hold their micro-ops in program order: the core appends at
dispatch, deletes the head at commit and drops squashed entries, which
are always a suffix.  So a scan for the stores older than a load stops
at the first store that is not older: :meth:`older_store_blocks` at
issue, and at execute, once the load's address is known, the single
pass of :meth:`forward_or_block`, which either blocks the load or
names the value it forwards.
"""

from __future__ import annotations

from typing import List, Optional

from repro.pipeline.uop import DONE, ISSUED, SQUASHED, DynUop

# What :meth:`LoadStoreQueue.forward_or_block` returns for a load that
# an older store blocks.
BLOCKED = object()


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

    def drop_squashed(self) -> None:
        """Purge every squashed entry (called after a pipeline squash).

        In place: the core binds both lists for a stage."""
        self._loads[:] = [u for u in self._loads
                          if u.state is not SQUASHED]
        self._stores[:] = [u for u in self._stores
                           if u.state is not SQUASHED]

    # -- disambiguation ---------------------------------------------------

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
        load_seq = load.seq
        load_vaddr = load.vaddr
        for store in self._stores:
            if store.seq >= load_seq:
                break
            if store.state is SQUASHED:
                continue
            vaddr = store.vaddr
            if vaddr is None:
                if not self._mem_dep_speculation:
                    return True
            elif (load_vaddr is not None and vaddr != load_vaddr
                    and abs(vaddr - load_vaddr) < self._word_bytes):
                return True
        return False

    def forward_or_block(self, load: DynUop) -> object:
        """One pass over the older stores of a load whose address is
        known: :data:`BLOCKED` when one of them makes it unissueable
        (as :meth:`older_store_blocks` decides), else the value of the
        youngest one that writes the *same* word, or ``None`` when no
        such store has its value (the load reads memory).

        Only an exact word match forwards; a partial overlap blocks.
        """
        load_seq = load.seq
        load_vaddr = load.vaddr
        word_bytes = self._word_bytes
        best: Optional[DynUop] = None
        for store in self._stores:
            if store.seq >= load_seq:
                break
            if store.state is SQUASHED:
                continue
            vaddr = store.vaddr
            if vaddr is None:
                if not self._mem_dep_speculation:
                    return BLOCKED
            elif vaddr == load_vaddr:
                best = store
            elif abs(vaddr - load_vaddr) < word_bytes:
                return BLOCKED
        return None if best is None else best.store_value

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
            if abs(store.vaddr - load.vaddr) < self._word_bytes:
                if victim is None or load.seq < victim.seq:
                    victim = load
        return victim
