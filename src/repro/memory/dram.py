"""Main memory: a sparse byte-addressable backing store with fixed latency.

Word accesses use a fixed 8-byte little-endian word size — wide enough for
the pointer and secret values the attack PoCs move around, and irrelevant
to timing (timing is per-access, not per-byte).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Mapping

from repro.errors import ConfigError

WORD_BYTES = 8


class MainMemory:
    """Sparse physical memory.

    Reads of never-written locations return 0, like zero-filled pages.
    ``latency`` is the access cost charged by the hierarchy on an LLC miss
    (191 cycles in the paper's Table II).

    Storage is word-granular (one dict entry per aligned 8-byte word)
    because the simulators overwhelmingly issue aligned word accesses;
    the byte API is preserved on top of it.  A per-word written-byte
    mask keeps :meth:`footprint` byte-exact.
    """

    def __init__(self, latency: int = 191) -> None:
        if latency < 1:
            raise ConfigError(f"memory latency must be >= 1, got {latency}")
        self.latency = latency
        self._words: Dict[int, int] = {}
        self._written: Dict[int, int] = {}   # word index -> byte bitmask

    def read_byte(self, paddr: int) -> int:
        return (self._words.get(paddr >> 3, 0) >> ((paddr & 7) * 8)) & 0xFF

    def write_byte(self, paddr: int, value: int) -> None:
        index, shift = paddr >> 3, (paddr & 7) * 8
        current = self._words.get(index, 0)
        self._words[index] = ((current & ~(0xFF << shift))
                              | ((value & 0xFF) << shift))
        self._written[index] = self._written.get(index, 0) | (1 << (paddr & 7))

    def read_word(self, paddr: int) -> int:
        """Read a little-endian 8-byte word."""
        if paddr & 7 == 0:
            return self._words.get(paddr >> 3, 0)
        value = 0
        for i in range(WORD_BYTES):
            value |= self.read_byte(paddr + i) << (8 * i)
        return value

    def write_word(self, paddr: int, value: int) -> None:
        """Write a little-endian 8-byte word (value taken modulo 2**64)."""
        value &= (1 << (8 * WORD_BYTES)) - 1
        if paddr & 7 == 0:
            self._words[paddr >> 3] = value
            self._written[paddr >> 3] = 0xFF
            return
        for i in range(WORD_BYTES):
            self.write_byte(paddr + i, (value >> (8 * i)) & 0xFF)

    def footprint(self) -> int:
        """Number of distinct bytes ever written."""
        return sum(mask.bit_count() for mask in self._written.values())

    # -- checkpointing ----------------------------------------------------

    def snapshot(self) -> "tuple[Mapping[int, int], Mapping[int, int]]":
        """``(words, written)``: read-only live views of the backing store.

        Both are keyed by aligned word index (``paddr >> 3``); ``written``
        holds the per-word written-byte masks that keep :meth:`footprint`
        byte-exact across a restore.  Callers copy what they keep.
        """
        return MappingProxyType(self._words), MappingProxyType(self._written)

    def restore(self, words: Dict[int, int], written: Dict[int, int]) -> None:
        """Replace the backing store; the memory takes both dicts over."""
        self._words = words
        self._written = written
