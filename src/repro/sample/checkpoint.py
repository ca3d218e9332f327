"""Architectural checkpoints: freeze committed machine state, resume later.

A :class:`Checkpoint` is the value at the heart of sampled simulation
(SimPoint-style): the fast backend streams through a long program,
freezes the committed architectural state at interval boundaries, and a
detailed (or fast) machine later *restores* any checkpoint and measures
just the window that follows it.  Because both backends retire the same
architectural state instruction-for-instruction (the PR 5/6 differential
harness holds them to it), a checkpoint taken on one backend restores
bit-exactly onto the other.

Contract:

* **Committed state only.**  Registers, memory image, page mappings,
  fault/retire counters, and the resume PC.  In-flight speculative state
  never survives a budget stop (the core squashes it), so it never needs
  to be captured.
* **Warm micro-architectural state is optional.**  Predictor counters,
  BTB targets, TLB and cache contents make a restored machine *warm* —
  closer to the state a straight-line run would have — but do not affect
  architectural results.  ``warm=False`` drops them for smaller values.
* **Stable identity.**  :meth:`Checkpoint.digest` hashes the canonical
  JSON form (the :class:`~repro.spec.MachineSpec` idiom), so equal
  checkpoints hash identically across processes and platforms.  The
  text is streamed into the hash in bounded pieces, straight from the
  packed fields: the wire form is never built to digest it.
* **Packed.**  Memory words, written masks, page mappings and warm
  TLB/cache contents are held as immutable ``bytes`` of unsigned 64-bit
  words, not as Python tuples; :meth:`Checkpoint.to_dict` unpacks them
  into the same wire form (and digest) as ever.
* **Pickle-safe.**  Checkpoints cross ``ProcessPoolExecutor`` process
  boundaries; everything stored is plain ints/tuples/dicts/bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from array import array
from itertools import chain, compress, islice, repeat
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Tuple)

from repro.errors import ConfigError, SampleError
from repro.isa.registers import NUM_REGISTERS
from repro.memory.paging import PagePermissions, Translation

CHECKPOINT_SCHEMA_VERSION = 1

# Rows (or sparse cache sets) written into the digest per hash update.
_DIGEST_BATCH = 4096

# Cache levels / TLBs captured by a warm checkpoint, in a fixed order so
# the serialized form (and therefore the digest) is deterministic.
_CACHE_LEVELS = ("l1i", "l1d", "l2", "l3")
_TLBS = ("itlb", "dtlb")


# The page permissions of each of the 16 bit patterns, shared by every
# translation a checkpoint restores, and each one's bits.
_PERMISSIONS = tuple(PagePermissions(readable=bool(bits & 1),
                                     writable=bool(bits & 2),
                                     executable=bool(bits & 4),
                                     supervisor_only=bool(bits & 8))
                     for bits in range(16))
_PERMISSION_BITS = {perms: bits for bits, perms in enumerate(_PERMISSIONS)}


def _translations(packed: bytes) -> List[Translation]:
    """The translations of a :func:`_pack_translations` value."""
    flat = array("Q", packed).tolist()
    return list(map(Translation, flat[0::3], flat[1::3],
                    map(_PERMISSIONS.__getitem__, flat[2::3])))


def _pack(rows: Iterable[Iterable[int]]) -> bytes:
    """Integer rows flattened into packed unsigned 64-bit words."""
    return array("Q", chain.from_iterable(rows)).tobytes()


def _rows(packed: bytes, width: int) -> List[List[int]]:
    """The ``width``-integer rows of a :func:`_pack` value."""
    flat = array("Q", packed).tolist()
    return [flat[at:at + width] for at in range(0, len(flat), width)]


def _pack_mapping(mapping: Mapping[int, int]) -> bytes:
    """An int -> int mapping as packed key-sorted ``(key, value)`` pairs."""
    keys = sorted(mapping)
    words = array("Q", keys) * 2
    words[0::2] = array("Q", keys)
    words[1::2] = array("Q", map(mapping.__getitem__, keys))
    return words.tobytes()


def _unpack_mapping(packed: bytes) -> Dict[int, int]:
    flat = array("Q", packed)
    return dict(zip(flat[0::2], flat[1::2]))


def _pack_translations(translations: Iterable[Translation]) -> bytes:
    """Translations as packed ``(vpn, ppn, permission_bits)`` triples."""
    return _pack((t.vpn, t.ppn, _PERMISSION_BITS[t.permissions])
                 for t in translations)


def _pack_sets(indices: List[int], sets: List[Iterable[int]]) -> bytes:
    """Sparse cache sets packed as their count ``n``, the ``n`` set
    indices, the ``n`` line counts, then every set's lines LRU-first."""
    words = array("Q", [len(indices)])
    words.extend(indices)
    words.extend(map(len, sets))
    words.extend(chain.from_iterable(sets))
    return words.tobytes()


def _pack_cache(cache_sets: Mapping[int, Iterable[int]]) -> bytes:
    """A cache's non-empty sets (set index -> lines LRU-first), packed
    straight from the live sets by :func:`_pack_sets`."""
    indices = sorted(compress(cache_sets, cache_sets.values()))
    return _pack_sets(indices, list(map(cache_sets.__getitem__, indices)))


def _unpack_sets(packed: bytes) -> Tuple[memoryview, memoryview,
                                         memoryview]:
    """The set indices, line counts and lines of a :func:`_pack_sets`
    value, as ``Q`` views of ``packed``."""
    flat = memoryview(packed).cast("Q")
    n = flat[0] if len(flat) else 0
    return flat[1:1 + n], flat[1 + n:1 + 2 * n], flat[1 + 2 * n:]


def _set_lines(counts: Iterable[int],
               lines: Iterable[int]) -> Iterator[Iterator[int]]:
    """Each set's lines: ``lines`` cut into runs of ``counts``, each run
    read lazily (consume one before taking the next)."""
    return map(islice, repeat(iter(lines)), counts)


def _sparse_sets(packed: bytes) -> List[List[Any]]:
    """The ``[set_index, [line addresses LRU-first]]`` pairs of
    :func:`_pack_sets` (the wire form)."""
    indices, counts, lines = _unpack_sets(packed)
    return [[index, list(run)] for index, run in zip(
        indices.tolist(), _set_lines(counts, lines.tolist()))]


def _canonical(value: Any) -> str:
    """``value``'s canonical JSON text (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _joined(pieces: Iterable[str]) -> Iterator[str]:
    """The text of a JSON list whose items come as comma-joined runs."""
    yield "["
    for n, piece in enumerate(pieces):
        yield "," + piece if n else piece
    yield "]"


def _rows_text(packed: bytes, width: int) -> Iterator[str]:
    """:func:`_canonical` of ``_rows(packed, width)``, written a bounded
    batch of rows at a time."""
    flat = memoryview(packed).cast("Q")
    row = "[" + ",".join(("%d",) * width) + "]"
    step = _DIGEST_BATCH * width
    return _joined(",".join((row,) * (len(batch) // width)) % tuple(batch)
                   for batch in (flat[at:at + step]
                                 for at in range(0, len(flat), step)))


def _sets_text(packed: bytes) -> Iterator[str]:
    """:func:`_canonical` of ``_sparse_sets(packed)``, written a bounded
    batch of sets at a time: each batch is one format string, the
    batch's set indices written into it and one ``%d`` per line."""
    indices, counts, lines = _unpack_sets(packed)
    fields: Dict[int, str] = {}     # set size -> its lines' fields

    def batches() -> Iterator[str]:
        end = 0
        for at in range(0, len(indices), _DIGEST_BATCH):
            sizes = counts[at:at + _DIGEST_BATCH].tolist()
            for size in set(sizes).difference(fields):
                fields[size] = ",".join(("%d",) * size)
            start, end = end, end + sum(sizes)
            yield ",".join(map(
                "[{},[{}]]".format, indices[at:at + _DIGEST_BATCH].tolist(),
                map(fields.__getitem__, sizes))) % tuple(lines[start:end])

    return _joined(batches())


def _text_chunks(value: Any) -> Iterator[str]:
    """:func:`_canonical` of ``value`` in pieces, where a packed field
    stands as the iterator of its text (:func:`_rows_text`,
    :func:`_sets_text`)."""
    if isinstance(value, Iterator):
        yield from value
    elif isinstance(value, dict) and all(isinstance(key, str)
                                         for key in value):
        yield "{"
        for n, key in enumerate(sorted(value)):
            yield ("," if n else "") + _canonical(key) + ":"
            yield from _text_chunks(value[key])
        yield "}"
    else:
        yield _canonical(value)


def _convert_warm(warm: Dict[str, Any], tlbs: Callable[[Any], Any],
                  caches: Callable[[Any], Any]) -> Dict[str, Any]:
    """``warm`` with each TLB's and cache's contents mapped through
    ``tlbs`` / ``caches`` (packing or unpacking them)."""
    out = dict(warm)
    if "tlbs" in warm:
        out["tlbs"] = {name: tlbs(value)
                       for name, value in warm["tlbs"].items()}
    if "caches" in warm:
        out["caches"] = {name: caches(value)
                         for name, value in warm["caches"].items()}
    return out


@dataclasses.dataclass(frozen=True)
class Checkpoint:
    """Committed architectural state at one point of one program's run.

    Attributes:
        instructions: committed instructions when the checkpoint was taken
            (0 for the synthetic start-of-program checkpoint).
        next_pc: architectural PC of the next instruction to retire.
        registers: the 16 architectural register values.
        memory: packed sorted ``(word_index, value)`` pairs of the
            physical memory image (word index = ``paddr >> 3``).
        written: packed sorted ``(word_index, byte_mask)`` pairs
            preserving the byte-exact footprint accounting.
        pages: packed sorted ``(vpn, ppn, permission_bits)`` mappings.
        faults: architectural faults retired so far.
        warm: optional micro-architectural warm state (predictor/BTB
            state; packed TLB and cache contents); ``None`` for
            architectural-only checkpoints.
    """

    instructions: int
    next_pc: int
    registers: Tuple[int, ...]
    memory: bytes
    written: bytes
    pages: bytes
    faults: int = 0
    warm: Optional[Dict[str, Any]] = dataclasses.field(
        default=None, hash=False)

    def __post_init__(self) -> None:
        if len(self.registers) != NUM_REGISTERS:
            raise ConfigError(
                f"checkpoint has {len(self.registers)} registers, "
                f"the ISA has {NUM_REGISTERS}")
        if self.instructions < 0 or self.faults < 0:
            raise ConfigError("checkpoint counters must be >= 0")

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------

    @classmethod
    def capture(cls, machine, *, instructions: int, next_pc: int,
                registers: Tuple[int, ...], faults: int = 0,
                warm: bool = True) -> "Checkpoint":
        """Freeze ``machine``'s committed state.

        ``next_pc`` and ``registers`` come from the budget-stopped
        :class:`~repro.pipeline.core.RunResult` (the machine itself holds
        no architectural register file between runs); memory, page table
        and warm structures are read off the machine.
        """
        words, written = machine.hierarchy.memory.snapshot()
        return cls(
            instructions=instructions,
            next_pc=next_pc,
            registers=tuple(registers),
            memory=_pack_mapping(words),
            written=_pack_mapping(written),
            pages=_pack_translations(machine.page_table.snapshot()),
            faults=faults,
            warm=cls._capture_warm(machine) if warm else None,
        )

    @classmethod
    def initial(cls, machine, program) -> "Checkpoint":
        """The synthetic checkpoint *before* the first instruction.

        Taken after workload setup (memory image applied, pages mapped)
        but before execution: zero registers, zero counters, resume at
        the program start.  Cold micro-architecture by definition.
        """
        return cls.capture(machine, instructions=0,
                           next_pc=program.code_base,
                           registers=(0,) * NUM_REGISTERS, warm=False)

    @staticmethod
    def _capture_warm(machine) -> Dict[str, Any]:
        warm: Dict[str, Any] = {}
        predictor = machine.predictor
        if hasattr(predictor, "snapshot"):
            warm["predictor"] = predictor.snapshot()
        warm["btb"] = sorted(machine.btb.snapshot().items())
        if machine.btb.history:
            warm["btb_history"] = machine.btb.history
        rsb_state = machine.rsb.snapshot()
        if rsb_state["stack"]:
            warm["rsb"] = rsb_state
        warm["tlbs"] = {
            name: _pack_translations(
                getattr(machine.hierarchy, name).snapshot())
            for name in _TLBS
        }
        # Caches are stored sparsely: only non-empty sets, LRU-first,
        # packed from the live sets.
        warm["caches"] = {
            name: _pack_cache(getattr(machine.hierarchy, name)._sets)
            for name in _CACHE_LEVELS
        }
        return warm

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------

    def apply(self, machine) -> None:
        """Load this checkpoint onto ``machine`` (built to the same spec).

        After this call ``machine.run(program, start_pc=ckpt.next_pc,
        initial_registers=dict(enumerate(ckpt.registers)))`` continues
        exactly where the checkpointed run stopped, on either backend.
        """
        machine.page_table.map_translations(_translations(self.pages))
        machine.hierarchy.memory.restore(_unpack_mapping(self.memory),
                                         _unpack_mapping(self.written))
        if self.warm is not None:
            self._apply_warm(machine)

    def _apply_warm(self, machine) -> None:
        warm = self.warm
        predictor_state = warm.get("predictor")
        if predictor_state is not None and hasattr(machine.predictor,
                                                   "restore"):
            machine.predictor.restore(predictor_state)
        machine.btb.restore(dict(warm.get("btb", ())))
        machine.btb.restore_history(int(warm.get("btb_history", 0)))
        machine.rsb.restore(warm.get("rsb", {"stack": []}))
        for name, packed in warm.get("tlbs", {}).items():
            if name not in _TLBS:
                raise SampleError(f"unknown TLB in checkpoint: {name!r}")
            getattr(machine.hierarchy, name).restore(
                tuple(_translations(packed)))
        for name, packed in warm.get("caches", {}).items():
            if name not in _CACHE_LEVELS:
                raise SampleError(f"unknown cache in checkpoint: {name!r}")
            indices, counts, lines = _unpack_sets(packed)
            getattr(machine.hierarchy, name).restore(
                indices.tolist(), _set_lines(counts, lines))

    # ------------------------------------------------------------------
    # serialization / identity
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """This checkpoint as nested JSON-representable primitives."""
        return self._wire_form(_rows, _sparse_sets)

    def _wire_form(self, rows: Callable[[bytes, int], Any],
                   sets: Callable[[bytes], Any]) -> Dict[str, Any]:
        """The wire form, with each packed field of rows mapped through
        ``rows(packed, width)`` and each packed cache through
        ``sets(packed)``."""
        return {
            "checkpoint_schema": CHECKPOINT_SCHEMA_VERSION,
            "instructions": self.instructions,
            "next_pc": self.next_pc,
            "registers": list(self.registers),
            "memory": rows(self.memory, 2),
            "written": rows(self.written, 2),
            "pages": rows(self.pages, 3),
            "faults": self.faults,
            "warm": None if self.warm is None else _convert_warm(
                self.warm, lambda packed: rows(packed, 3), sets),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Checkpoint":
        schema = payload.get("checkpoint_schema")
        if schema != CHECKPOINT_SCHEMA_VERSION:
            raise ConfigError(
                f"unsupported checkpoint schema {schema!r} "
                f"(this build reads v{CHECKPOINT_SCHEMA_VERSION})")
        return cls(
            instructions=payload["instructions"],
            next_pc=payload["next_pc"],
            registers=tuple(payload["registers"]),
            memory=_pack((i, v) for i, v in payload["memory"]),
            written=_pack((i, m) for i, m in payload["written"]),
            pages=_pack((v, p, b) for v, p, b in payload["pages"]),
            faults=payload.get("faults", 0),
            warm=None if payload.get("warm") is None else _convert_warm(
                payload["warm"],
                lambda rows: _pack((v, p, b) for v, p, b in rows),
                lambda sets: _pack_sets([index for index, _ in sets],
                                        [lines for _, lines in sets])),
        )

    def digest(self) -> str:
        """Stable content hash (hex SHA-256) of the canonical JSON form:
        ``json.dumps(self.to_dict(), sort_keys=True, separators=(",",
        ":"))``, streamed into the hash from the packed fields.

        Identical across processes, interpreter restarts and platforms
        for equal checkpoints — the property the sampling cache relies on.
        """
        sha = hashlib.sha256()
        for chunk in _text_chunks(self._wire_form(_rows_text, _sets_text)):
            sha.update(chunk.encode("utf-8"))
        return sha.hexdigest()

    def short_digest(self) -> str:
        """The first 12 hex chars of :meth:`digest` (display use)."""
        return self.digest()[:12]

    def describe(self) -> str:
        warm = "warm" if self.warm is not None else "cold"
        return (f"checkpoint@{self.instructions} pc={self.next_pc:#x} "
                f"{warm} [{self.short_digest()}]")
