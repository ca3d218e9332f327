"""Virtual memory: page tables, permissions, and privilege levels.

The model is deliberately flat (a single-level mapping of virtual page
number to physical page number plus permission bits) but preserves the one
property the Meltdown attack depends on: a *supervisor* page can be walked
and translated by user code — the permission violation is only detected
when the faulting load reaches commit (property P1 in the paper).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigError

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
_OFFSET_MASK = PAGE_SIZE - 1


class PrivilegeLevel(enum.IntEnum):
    """Execution privilege of the running code."""

    USER = 0
    SUPERVISOR = 1


@dataclass(frozen=True)
class PagePermissions:
    """Permission bits attached to one page mapping."""

    readable: bool = True
    writable: bool = True
    executable: bool = True
    supervisor_only: bool = False

    def allows(self, *, write: bool, execute: bool,
               privilege: PrivilegeLevel) -> bool:
        """Whether an access of the given kind is architecturally legal."""
        if self.supervisor_only and privilege != PrivilegeLevel.SUPERVISOR:
            return False
        if execute:
            return self.executable
        if write:
            return self.writable
        return self.readable


@dataclass(frozen=True)
class Translation:
    """Result of a successful page walk."""

    vpn: int
    ppn: int
    permissions: PagePermissions

    def physical(self, vaddr: int) -> int:
        """Translate a virtual address inside this page."""
        return (self.ppn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))


class PageTable:
    """A flat virtual -> physical page mapping with permission bits.

    ``walk_levels`` controls the page-walk latency charged by the memory
    hierarchy (each level costs one dependent memory access).
    """

    def __init__(self, walk_levels: int = 4) -> None:
        if walk_levels < 1:
            raise ConfigError(f"walk_levels must be >= 1, got {walk_levels}")
        self.walk_levels = walk_levels
        self._entries: Dict[int, Translation] = {}

    def map_page(self, vpn: int, ppn: Optional[int] = None,
                 permissions: Optional[PagePermissions] = None) -> Translation:
        """Install a mapping for virtual page ``vpn``.

        ``ppn`` defaults to an identity mapping; ``permissions`` default to
        full user access.  Returns the installed :class:`Translation`.
        """
        if vpn < 0:
            raise ConfigError(f"virtual page number must be >= 0, got {vpn}")
        entry = Translation(
            vpn=vpn,
            ppn=vpn if ppn is None else ppn,
            permissions=permissions or PagePermissions(),
        )
        self._entries[vpn] = entry
        return entry

    def map_range(self, start_vaddr: int, size: int,
                  permissions: Optional[PagePermissions] = None) -> None:
        """Identity-map every page overlapping [start_vaddr, start_vaddr+size)."""
        if size <= 0:
            raise ConfigError(f"size must be > 0, got {size}")
        first = start_vaddr >> PAGE_SHIFT
        last = (start_vaddr + size - 1) >> PAGE_SHIFT
        for vpn in range(first, last + 1):
            self.map_page(vpn, permissions=permissions)

    def lookup(self, vaddr: int) -> Optional[Translation]:
        """Return the translation covering ``vaddr`` or ``None`` if unmapped.

        Note: *no* permission check happens here.  Translations for
        supervisor pages are returned to user-mode walkers; legality is
        evaluated separately (and, in the pipeline, only at commit).
        """
        return self._entries.get(vaddr >> PAGE_SHIFT)

    def physical_addresses(self, vaddrs: Iterable[int]) -> List[int]:
        """The physical address of each of ``vaddrs``, looking each page
        up once.

        Raises ``KeyError`` naming the first unmapped address.
        """
        pages: Dict[int, int] = {}
        entries = self._entries
        out = []
        for vaddr in vaddrs:
            vpn = vaddr >> PAGE_SHIFT
            base = pages.get(vpn)
            if base is None:
                entry = entries.get(vpn)
                if entry is None:
                    raise KeyError(f"vaddr {vaddr:#x} is not mapped")
                base = pages[vpn] = entry.ppn << PAGE_SHIFT
            out.append(base | (vaddr & _OFFSET_MASK))
        return out

    def snapshot(self) -> "tuple[Translation, ...]":
        """All installed translations, sorted by VPN (checkpoint dump)."""
        return tuple(self._entries[vpn] for vpn in sorted(self._entries))


class MappedWords:
    """Word access by virtual address, straight to backing memory.

    Mixed into :class:`~repro.machine.Machine` and
    :class:`~repro.verify.oracle.ReferenceOracle`, which both provide a
    ``page_table`` and a ``memory``.  These accesses are for setup and
    result inspection: they bypass caches and TLBs entirely.  The bulk
    forms translate each page once; they raise ``KeyError`` on an
    unmapped address before touching memory.
    """

    def write_word(self, vaddr: int, value: int) -> None:
        """Write one word (test/attack setup)."""
        self.write_words(((vaddr, value),))

    def read_word(self, vaddr: int) -> int:
        """Read one word (result inspection)."""
        return self.read_words((vaddr,))[0]

    def write_words(self, words: Iterable[Tuple[int, int]]) -> None:
        """Write every ``(vaddr, value)`` pair, in order."""
        words = list(words)
        paddrs = self.page_table.physical_addresses(
            [vaddr for vaddr, _ in words])
        write = self.memory.write_word
        for paddr, (_, value) in zip(paddrs, words):
            write(paddr, value)

    def read_words(self, vaddrs: Iterable[int]) -> List[int]:
        """The word at each of ``vaddrs``."""
        read = self.memory.read_word
        return [read(paddr)
                for paddr in self.page_table.physical_addresses(vaddrs)]
