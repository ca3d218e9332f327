"""Direction predictors (the return stack buffer lives in ``rsb.py``).

Four direction predictors are provided:

* :class:`BimodalPredictor` — per-PC 2-bit saturating counters.
* :class:`GsharePredictor` — global-history XOR PC indexed counters.
* :class:`TAGEPredictor` — bimodal base plus partially-tagged tables
  indexed by geometrically increasing history lengths.
* :class:`PerceptronPredictor` — per-PC weight vectors dotted with the
  global history (Jiménez & Lin).

All are *trainable from any context* (no tagging, no privilege
separation), deliberately preserving the mistraining surface Spectre
variant 1 relies on.  SafeSpec "makes no assumptions on the branch
predictor behavior" (paper Section I) — the attacks are free to mistrain.

Each predictor class registers itself with
:data:`repro.api.registry.PREDICTORS`;
:class:`~repro.machine.Machine` dispatches on the registered name, so a
new predictor is one decorated class here and nothing else.
"""

from __future__ import annotations

from typing import List

from repro.api.registry import register_predictor
from repro.errors import ConfigError
from repro.statistics import StatRegistry

_TAKEN_THRESHOLD = 2  # 2-bit counter: 0,1 predict not-taken; 2,3 taken
_COUNTER_MAX = 3


@register_predictor("bimodal")
class BimodalPredictor:
    """A table of 2-bit saturating counters indexed by PC bits."""

    def __init__(self, entries: int = 4096, shift: int = 4) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ConfigError(f"entries must be a power of two, got {entries}")
        self._entries = entries
        self._shift = shift
        self._counters: List[int] = [1] * entries  # weakly not-taken
        self.stats = StatRegistry("bimodal")
        self._predictions = self.stats.counter("predictions")
        self._mispredictions = self.stats.counter("mispredictions")

    def _index(self, pc: int) -> int:
        return (pc >> self._shift) & (self._entries - 1)

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        self._predictions.increment()
        return self._counters[self._index(pc)] >= _TAKEN_THRESHOLD

    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        """Train with the resolved outcome (callable from any context)."""
        if taken != predicted:
            self._mispredictions.increment()
        index = self._index(pc)
        counter = self._counters[index]
        if taken:
            self._counters[index] = min(counter + 1, _COUNTER_MAX)
        else:
            self._counters[index] = max(counter - 1, 0)

    def misprediction_rate(self) -> float:
        total = self._predictions.value
        return self._mispredictions.value / total if total else 0.0

    def flush(self) -> None:
        self._counters = [1] * self._entries

    def snapshot(self) -> dict:
        """Trained state for checkpointing (statistics excluded)."""
        return {"counters": list(self._counters)}

    def restore(self, state: dict) -> None:
        counters = state["counters"]
        if len(counters) != self._entries:
            raise ConfigError(
                f"bimodal snapshot has {len(counters)} counters, "
                f"table has {self._entries}")
        self._counters = list(counters)


@register_predictor("gshare")
class GsharePredictor:
    """Global-history predictor: counters indexed by (history XOR pc)."""

    def __init__(self, entries: int = 4096, history_bits: int = 12,
                 shift: int = 4) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ConfigError(f"entries must be a power of two, got {entries}")
        if not 1 <= history_bits <= 32:
            raise ConfigError(f"history_bits out of range: {history_bits}")
        self._entries = entries
        self._history_bits = history_bits
        self._shift = shift
        self._history = 0
        self._counters: List[int] = [1] * entries
        self.stats = StatRegistry("gshare")
        self._predictions = self.stats.counter("predictions")
        self._mispredictions = self.stats.counter("mispredictions")

    def _index(self, pc: int) -> int:
        history = self._history & ((1 << self._history_bits) - 1)
        return ((pc >> self._shift) ^ history) & (self._entries - 1)

    def predict(self, pc: int) -> bool:
        self._predictions.increment()
        return self._counters[self._index(pc)] >= _TAKEN_THRESHOLD

    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        if taken != predicted:
            self._mispredictions.increment()
        index = self._index(pc)
        counter = self._counters[index]
        if taken:
            self._counters[index] = min(counter + 1, _COUNTER_MAX)
        else:
            self._counters[index] = max(counter - 1, 0)
        self._history = ((self._history << 1) | int(taken)) & (
            (1 << self._history_bits) - 1)

    def misprediction_rate(self) -> float:
        total = self._predictions.value
        return self._mispredictions.value / total if total else 0.0

    def flush(self) -> None:
        self._counters = [1] * self._entries
        self._history = 0

    def snapshot(self) -> dict:
        """Trained state for checkpointing (statistics excluded)."""
        return {"counters": list(self._counters), "history": self._history}

    def restore(self, state: dict) -> None:
        counters = state["counters"]
        if len(counters) != self._entries:
            raise ConfigError(
                f"gshare snapshot has {len(counters)} counters, "
                f"table has {self._entries}")
        self._counters = list(counters)
        self._history = int(state.get("history", 0))


@register_predictor("tage")
class TAGEPredictor:
    """A small TAGE: bimodal base table plus partially-tagged tables.

    Each tagged table is indexed by the PC hashed with a geometrically
    longer slice of global history; the longest-history tag match
    provides the prediction, falling back to the base bimodal table.
    Allocation on mispredict steals an entry with a clear useful bit.
    """

    _HISTORIES = (8, 16, 32)

    def __init__(self, base_entries: int = 4096, table_entries: int = 1024,
                 tag_bits: int = 10, shift: int = 4) -> None:
        for entries in (base_entries, table_entries):
            if entries <= 0 or entries & (entries - 1):
                raise ConfigError(
                    f"entries must be a power of two, got {entries}")
        self._base_entries = base_entries
        self._table_entries = table_entries
        self._tag_bits = tag_bits
        self._shift = shift
        self._history = 0
        self._base: List[int] = [1] * base_entries
        # Per tagged table: parallel lists of (counter, tag, useful).
        self._counters = [[1] * table_entries for _ in self._HISTORIES]
        self._tags = [[-1] * table_entries for _ in self._HISTORIES]
        self._useful = [[0] * table_entries for _ in self._HISTORIES]
        self.stats = StatRegistry("tage")
        self._predictions = self.stats.counter("predictions")
        self._mispredictions = self.stats.counter("mispredictions")

    def _fold(self, bits: int, width: int) -> int:
        history = self._history & ((1 << bits) - 1)
        folded = 0
        while history:
            folded ^= history & ((1 << width) - 1)
            history >>= width
        return folded

    def _index(self, pc: int, table: int) -> int:
        bits = self._HISTORIES[table]
        width = self._table_entries.bit_length() - 1
        return ((pc >> self._shift) ^ self._fold(bits, width)) & (
            self._table_entries - 1)

    def _tag(self, pc: int, table: int) -> int:
        bits = self._HISTORIES[table]
        return ((pc >> self._shift) ^ self._fold(bits, self._tag_bits)
                ^ (table + 1)) & ((1 << self._tag_bits) - 1)

    def _provider(self, pc: int):
        """Longest-history tag hit: ``(table, index)`` or None."""
        for table in range(len(self._HISTORIES) - 1, -1, -1):
            index = self._index(pc, table)
            if self._tags[table][index] == self._tag(pc, table):
                return table, index
        return None

    def predict(self, pc: int) -> bool:
        self._predictions.increment()
        provider = self._provider(pc)
        if provider is not None:
            table, index = provider
            return self._counters[table][index] >= _TAKEN_THRESHOLD
        base = (pc >> self._shift) & (self._base_entries - 1)
        return self._base[base] >= _TAKEN_THRESHOLD

    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        if taken != predicted:
            self._mispredictions.increment()
        provider = self._provider(pc)
        if provider is not None:
            table, index = provider
            counter = self._counters[table][index]
            self._counters[table][index] = (
                min(counter + 1, _COUNTER_MAX) if taken
                else max(counter - 1, 0))
            if (counter >= _TAKEN_THRESHOLD) == taken:
                self._useful[table][index] = min(
                    self._useful[table][index] + 1, _COUNTER_MAX)
        else:
            base = (pc >> self._shift) & (self._base_entries - 1)
            counter = self._base[base]
            self._base[base] = (min(counter + 1, _COUNTER_MAX) if taken
                                else max(counter - 1, 0))
        if taken != predicted:
            self._allocate(pc, taken,
                           provider[0] if provider is not None else -1)
        self._history = ((self._history << 1) | int(taken)) & (
            (1 << self._HISTORIES[-1]) - 1)

    def _allocate(self, pc: int, taken: bool, above: int) -> None:
        """Claim an entry in a longer-history table after a mispredict."""
        for table in range(above + 1, len(self._HISTORIES)):
            index = self._index(pc, table)
            if self._useful[table][index] == 0:
                self._tags[table][index] = self._tag(pc, table)
                self._counters[table][index] = 2 if taken else 1
                return
            self._useful[table][index] -= 1  # age the survivor

    def misprediction_rate(self) -> float:
        total = self._predictions.value
        return self._mispredictions.value / total if total else 0.0

    def flush(self) -> None:
        self._history = 0
        self._base = [1] * self._base_entries
        self._counters = [[1] * self._table_entries for _ in self._HISTORIES]
        self._tags = [[-1] * self._table_entries for _ in self._HISTORIES]
        self._useful = [[0] * self._table_entries for _ in self._HISTORIES]

    def snapshot(self) -> dict:
        """Trained state for checkpointing (statistics excluded)."""
        return {
            "history": self._history,
            "base": list(self._base),
            "counters": [list(table) for table in self._counters],
            "tags": [list(table) for table in self._tags],
            "useful": [list(table) for table in self._useful],
        }

    def restore(self, state: dict) -> None:
        base = state["base"]
        if len(base) != self._base_entries:
            raise ConfigError(
                f"tage snapshot has {len(base)} base counters, "
                f"table has {self._base_entries}")
        self._history = int(state.get("history", 0))
        self._base = list(base)
        self._counters = [list(table) for table in state["counters"]]
        self._tags = [list(table) for table in state["tags"]]
        self._useful = [list(table) for table in state["useful"]]


@register_predictor("perceptron")
class PerceptronPredictor:
    """Per-PC perceptrons dotted with the global branch history."""

    def __init__(self, entries: int = 1024, history_bits: int = 16,
                 shift: int = 4) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ConfigError(f"entries must be a power of two, got {entries}")
        if not 1 <= history_bits <= 64:
            raise ConfigError(f"history_bits out of range: {history_bits}")
        self._entries = entries
        self._history_bits = history_bits
        self._shift = shift
        # Training threshold from Jiménez & Lin: theta = 1.93h + 14.
        self._theta = int(1.93 * history_bits + 14)
        self._limit = (1 << 7) - 1  # 8-bit signed weights
        self._history = 0  # bit i set = i-th most recent branch taken
        # weights[i] = [bias, w_1 .. w_h]
        self._weights: List[List[int]] = [
            [0] * (history_bits + 1) for _ in range(entries)]
        self.stats = StatRegistry("perceptron")
        self._predictions = self.stats.counter("predictions")
        self._mispredictions = self.stats.counter("mispredictions")

    def _index(self, pc: int) -> int:
        return (pc >> self._shift) & (self._entries - 1)

    def _output(self, pc: int) -> int:
        weights = self._weights[self._index(pc)]
        history = self._history
        total = weights[0]
        for i in range(1, self._history_bits + 1):
            total += weights[i] if history & 1 else -weights[i]
            history >>= 1
        return total

    def predict(self, pc: int) -> bool:
        self._predictions.increment()
        return self._output(pc) >= 0

    def update(self, pc: int, taken: bool, predicted: bool) -> None:
        if taken != predicted:
            self._mispredictions.increment()
        output = self._output(pc)
        if (output >= 0) != taken or abs(output) <= self._theta:
            weights = self._weights[self._index(pc)]
            limit = self._limit
            sign = 1 if taken else -1
            weights[0] = max(-limit, min(limit, weights[0] + sign))
            history = self._history
            for i in range(1, self._history_bits + 1):
                step = sign if history & 1 else -sign
                weights[i] = max(-limit, min(limit, weights[i] + step))
                history >>= 1
        self._history = ((self._history << 1) | int(taken)) & (
            (1 << self._history_bits) - 1)

    def misprediction_rate(self) -> float:
        total = self._predictions.value
        return self._mispredictions.value / total if total else 0.0

    def flush(self) -> None:
        self._history = 0
        self._weights = [[0] * (self._history_bits + 1)
                         for _ in range(self._entries)]

    def snapshot(self) -> dict:
        """Trained state for checkpointing (statistics excluded)."""
        return {"history": self._history,
                "weights": [list(row) for row in self._weights]}

    def restore(self, state: dict) -> None:
        weights = state["weights"]
        if len(weights) != self._entries:
            raise ConfigError(
                f"perceptron snapshot has {len(weights)} rows, "
                f"table has {self._entries}")
        self._history = int(state.get("history", 0))
        self._weights = [list(row) for row in weights]
