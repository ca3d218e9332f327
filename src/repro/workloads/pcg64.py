"""numpy's ``default_rng(seed)`` stream in pure Python.

The workload generator draws its programs from
``numpy.random.default_rng(seed)``, i.e. ``Generator(PCG64(
SeedSequence(seed)))``.  This module reproduces that stream bit for bit
for the four calls the generator makes -- :meth:`PCG64.random`,
:meth:`PCG64.integers`, :meth:`PCG64.choice` and
:meth:`PCG64.permutation` -- so every suite program stays what it was
while the simulator needs no numpy at run time.  Keeping the stream
here also pins it: numpy's compatibility policy (NEP 19) freezes its
bit generators' output, but not the algorithms of ``Generator``'s
methods.

The algorithms:

* **Seeding** -- numpy's ``SeedSequence``: the seed's 32-bit words are
  hashed into a 4-word pool, and ``generate_state(4, uint64)`` gives
  PCG64's initial state (words 0-1) and stream (words 2-3).
* **Output** -- PCG64 (O'Neill, 2014): a 128-bit LCG whose draw steps
  the state and returns the XSL-RR permutation of the new state.
* **Bounded integers** -- Lemire's multiply-and-reject method (ACM
  TOMACS 2019), on 32-bit draws for ranges up to 2**32.  A 32-bit draw
  spends one half of a 64-bit draw and keeps the other half for the
  next 32-bit draw, as numpy's ``has_uint32`` buffer does.
* **Permutations** -- a Fisher-Yates shuffle that picks each index by
  masked rejection on 32-bit draws (numpy's ``random_interval``).
"""

from __future__ import annotations

from typing import List, Sequence, TypeVar

T = TypeVar("T")

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 1.0 / (1 << 53)

# SeedSequence's hash constants and pool size.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _seed_words(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")
    entropy = [seed & _MASK32]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    halves = []
    for i in range(2 * 4):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        halves.append(value ^ (value >> _XSHIFT))
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """The ``numpy.random.default_rng(seed)`` stream, for four calls.

    Integers come back as Python ints and :meth:`permutation` returns
    a list.  Arguments are checked only as far as the generator's uses
    need: ``integers`` requires ``low < high`` within 64 bits.
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uint32")

    def __init__(self, seed: int) -> None:
        words = _seed_words(seed)
        init_state = words[0] << 64 | words[1]
        init_seq = words[2] << 64 | words[3]
        self._inc = (init_seq << 1 | 1) & _MASK128
        # numpy's pcg64_set_seed: step from 0 (giving ``inc``), add the
        # initial state, step again.
        state = (self._inc + init_state) & _MASK128
        self._state = (state * _PCG_MULTIPLIER + self._inc) & _MASK128
        self._has_uint32 = False
        self._uint32 = 0

    def _next64(self) -> int:
        state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        self._state = state
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = False
            return self._uint32
        word = self._next64()
        self._has_uint32 = True
        self._uint32 = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits of a 64-bit draw."""
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high)."""
        span = high - 1 - low          # numpy's inclusive ``rng``
        if span < 0 or span > _MASK64:
            raise ValueError(f"integers({low}, {high}): empty or too wide")
        if span == 0:
            return low                 # no draw, as numpy
        # numpy takes a raw draw when the range fills the word, since its
        # fixed-width bound would overflow; with Python ints Lemire's
        # method returns that same draw.
        if span <= _MASK32:
            return low + self._lemire32(span + 1)
        return low + self._lemire64(span + 1)

    def choice(self, items: Sequence[T]) -> T:
        """One element of ``items``, drawn uniformly."""
        return items[self.integers(0, len(items))]

    def permutation(self, n: int) -> List[int]:
        """A random ordering of ``range(n)``, for ``n <= 2**32``.

        Fisher-Yates from the top: index ``i`` swaps with a 32-bit draw
        masked to ``i``'s bit length and rejected above ``i``.  The
        draws are :meth:`_next32`'s, inlined: the chase cycle's shuffle
        (up to 2047 swaps per program) makes most of the generator's
        32-bit draws."""
        order = list(range(n))
        next64 = self._next64
        has_uint32, uint32 = self._has_uint32, self._uint32
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                if has_uint32:
                    has_uint32 = False
                    j = uint32 & mask
                else:
                    word = next64()
                    has_uint32 = True
                    uint32 = word >> 32
                    j = word & mask
                if j <= i:
                    break
            order[i], order[j] = order[j], order[i]
        self._has_uint32, self._uint32 = has_uint32, uint32
        return order

    def _lemire32(self, bound: int) -> int:
        product = self._next32() * bound
        if (product & _MASK32) < bound:
            threshold = (1 << 32) % bound
            while (product & _MASK32) < threshold:
                product = self._next32() * bound
        return product >> 32

    def _lemire64(self, bound: int) -> int:
        product = self._next64() * bound
        if (product & _MASK64) < bound:
            threshold = (1 << 64) % bound
            while (product & _MASK64) < threshold:
                product = self._next64() * bound
        return product >> 64
