"""Main memory: a sparse byte-addressable backing store with fixed latency.

Word accesses use a fixed 8-byte little-endian word size — wide enough for
the pointer and secret values the attack PoCs move around, and irrelevant
to timing (timing is per-access, not per-byte).
"""

from __future__ import annotations

from itertools import repeat
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence

from repro.errors import ConfigError

WORD_BYTES = 8
_WORD_MASK = (1 << (8 * WORD_BYTES)) - 1


class MainMemory:
    """Sparse physical memory.

    Reads of never-written locations return 0, like zero-filled pages.
    ``latency`` is the access cost charged by the hierarchy on an LLC miss
    (191 cycles in the paper's Table II).

    Storage is word-granular (one dict entry per aligned 8-byte word)
    because the simulators overwhelmingly issue aligned word accesses.
    A word at a non-zero byte offset spans two stored words and is read
    or written as both, under byte masks; the byte API sits on the same
    store.  A per-word written-byte mask keeps :meth:`footprint`
    byte-exact.  :meth:`write_block`/:meth:`read_block` move a run of
    aligned words in one dict operation each (memory images).
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
        index, offset = paddr >> 3, paddr & 7
        if not offset:
            return self._words.get(index, 0)
        shift = offset * 8
        get = self._words.get
        return ((get(index, 0) >> shift)
                | (get(index + 1, 0) << (64 - shift))) & _WORD_MASK

    def write_word(self, paddr: int, value: int) -> None:
        """Write a little-endian 8-byte word (value taken modulo 2**64)."""
        value &= _WORD_MASK
        index, offset = paddr >> 3, paddr & 7
        words, written = self._words, self._written
        if not offset:
            words[index] = value
            written[index] = 0xFF
            return
        # Bytes offset..7 of word ``index``, then bytes 0..offset-1 of
        # the next word: low word first, so new words enter both dicts
        # in address order.
        shift = offset * 8
        low = (1 << shift) - 1
        words[index] = (words.get(index, 0) & low) \
            | ((value << shift) & _WORD_MASK)
        written[index] = written.get(index, 0) | (0xFF & (0xFF << offset))
        words[index + 1] = (words.get(index + 1, 0) & ~low) \
            | (value >> (64 - shift))
        written[index + 1] = written.get(index + 1, 0) | ((1 << offset) - 1)

    def write_block(self, paddr: int, values: Sequence[int]) -> None:
        """Write the words ``values`` (each in ``0 .. 2**64-1``) to
        consecutive words from the word-aligned ``paddr``, like one
        :meth:`write_word` per word in address order."""
        index = _word_index(paddr)
        indices = range(index, index + len(values))
        self._words.update(zip(indices, values))
        self._written.update(dict.fromkeys(indices, 0xFF))

    def read_block(self, paddr: int, count: int) -> List[int]:
        """The ``count`` consecutive words from the word-aligned
        ``paddr``."""
        index = _word_index(paddr)
        return list(map(self._words.get, range(index, index + count),
                        repeat(0)))

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


def _word_index(paddr: int) -> int:
    if paddr & 7:
        raise ConfigError(f"block address {paddr:#x} is not word-aligned")
    return paddr >> 3
