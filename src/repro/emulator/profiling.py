"""Profiling: opcode histograms and memory-reference traces.

The paper's modified POSE "track[s] and output[s] statistical execution
information such as opcodes and memory references ... we treated each
executed opcode as an index into an array, and incremented the
respective array element" (§2.4.2).  The profiler here does exactly
that, plus per-region reference accounting (RAM vs flash — the split
Table 1 reports) and an optional full reference trace for the cache
study.

Hot-path design: when tracing, each reference is stored as **one**
packed integer ``addr | (kind | region << 4) << 32`` appended to a
plain Python list.  That list and the pre-packed uint64 blocks of the
vectorized fill paths (:meth:`Profiler.bulk_references`) drain, in
order, into one staging buffer, and a chunk is sealed only when the
buffer holds exactly :data:`TRACE_CHUNK` tokens — so every consumer
(the trace sink, the out-of-core cache kernels, checkpoints) sees the
same fixed grain.  Sealed chunks are read-only and never change, which
lets checkpoints hold them by reference.  The flat per-(kind, region)
counters are *derived*: each sealed chunk's kind histogram is added
once, and readers add the unsealed tail's on the fly — one
``list.append`` per reference instead of an array increment plus two
array appends.  With tracing disabled the per-call counter array is
kept (there is nothing to derive from).
"""

from __future__ import annotations

from array import array
from typing import Dict, List, NamedTuple, Tuple, Union

import numpy as np

from ..device.memmap import (
    KIND_FETCH,
    KIND_READ,
    KIND_WRITE,
    REGION_CARD,
    REGION_FLASH,
    REGION_HW,
    REGION_RAM,
)

#: CPU cycles per reference, by region (§4.2: "The Dragonball
#: MC68VZ328 requires one cycle for RAM accesses and three cycles for
#: flash accesses").
T_RAM_CYCLES = 1
T_FLASH_CYCLES = 3

#: Tokens per sealed trace chunk — every chunk but the last of a
#: finished replay holds exactly this many.  The pending-token list is
#: also drained into the staging buffer once it reaches this length
#: (a floor, not an exact size: the block core appends in batches).
TRACE_CHUNK = 65536

_MASK32 = 0xFFFFFFFF


def ref_mask_bit(kind: int, region: int) -> int:
    """The ``reference_pcs`` bitmask bit for a (kind, region) pair.

    Only data kinds are tracked: bit ``(kind - 1) * 4 + region`` with
    kind ∈ {READ, WRITE} and region ∈ {RAM, FLASH, HW, CARD} — eight
    bits total, reads in the low nibble, writes in the high nibble.
    """
    return 1 << (((kind - 1) << 2) | region)


class Profiler:
    """Accumulates opcode counts and memory references.

    Attach with :meth:`repro.emulator.pose.Emulator.start_profiling`;
    the memory map feeds one call per bus-width reference and the CPU
    feeds one call per executed opcode.
    """

    def __init__(self, trace_references: bool = True,
                 track_reference_pcs: bool = False):
        self.trace_references = trace_references
        #: When enabled (and the per-address opcode hook is wired),
        #: every non-fetch reference is attributed to the pc of the
        #: instruction that caused it: ``reference_pcs[pc]`` is a
        #: bitmask of observed ``ref_mask_bit(kind, region)`` bits.
        #: The static region classifier cross-checks its per-insn
        #: predictions against this (see ``analysis.static.audit``).
        self.track_reference_pcs = track_reference_pcs
        self.reference_pcs: Dict[int, int] = {}
        self._current_pc = -1
        self.opcode_counts: array = array("Q", bytes(8 * 0x10000))
        #: Flat reference counters indexed ``kind | region << 4``, kept
        #: per-call only when tracing is off; with tracing on the same
        #: numbers are derived from the trace chunks (the trace and the
        #: counters are one-to-one by construction).
        self._counts: array = array("Q", bytes(8 * 256))
        #: Packed pending references; drained into the staging buffer.
        #: The list object's identity is stable for the process
        #: lifetime — fast paths bind ``_pending.append`` directly.
        self._pending: List[int] = []
        #: The staging buffer: ``_stage[:_fill]`` holds the unsealed
        #: tokens that precede ``_pending`` in stream order.  It is
        #: sealed into ``_chunks`` when full.
        self._stage = np.empty(TRACE_CHUNK, dtype=np.uint64)
        self._fill = 0
        #: Sealed read-only chunks of exactly ``TRACE_CHUNK`` tokens
        #: (only ``flush_trace_sink`` seals a short last one), and the
        #: per-kind histogram summed over them.
        self._chunks: List[np.ndarray] = []
        self._chunk_counts = np.zeros(256, dtype=np.uint64)
        self.instructions = 0
        #: pc -> opcode word for every executed instruction address,
        #: filled only when the per-address hook is wired (see
        #: :meth:`repro.emulator.pose.Emulator.start_profiling`).  The
        #: static analyzer cross-checks this against its CFG: a pc the
        #: walker never discovered is a decoder or walker bug.
        self.opcode_addresses: Dict[int, int] = {}
        #: Optional streaming trace sink (a PTRC ``ContainerWriter``):
        #: every sealed chunk is appended to it during replay.  With
        #: ``spill`` the chunks are *not* kept in RAM afterwards — the
        #: container on disk becomes the only copy, and the in-RAM
        #: trace accessors refuse to run (see ``attach_trace_sink``).
        self._trace_sink = None
        self._trace_spill = False
        self._spilled_tokens = 0
        if trace_references and not track_reference_pcs:
            # Shadow the general methods with specialised closures:
            # this is the replay hot path (one append per reference).
            self.reference, self.reference_pair = (  # type: ignore[method-assign]
                self._make_fast_reference())

    # -- hooks ---------------------------------------------------------
    def reference(self, addr: int, kind: int, region: int) -> None:
        kb = kind | (region << 4)
        if self.trace_references:
            self._pending.append((addr & _MASK32) | (kb << 32))
            if len(self._pending) >= TRACE_CHUNK:
                self._stage_pending()
        else:
            self._counts[kb] += 1
        if self.track_reference_pcs and kind != KIND_FETCH \
                and self._current_pc >= 0:
            # Opcode-word fetches happen *before* the per-pc hook runs
            # and are excluded by the kind test above, so everything
            # recorded here is a data reference of ``_current_pc``.
            self.reference_pcs[self._current_pc] = \
                self.reference_pcs.get(self._current_pc, 0) \
                | ref_mask_bit(kind, region)

    def reference_pair(self, addr: int, kind: int, region: int) -> None:
        """The two consecutive bus-width references of one 32-bit
        access, exactly as two :meth:`reference` calls would record
        them (the bus folds them into one call on its hot paths)."""
        self.reference(addr, kind, region)
        self.reference(addr + 2, kind, region)

    def _make_fast_reference(self):
        """The tracing hot path as a closure over locals.  Semantics are
        identical to the general method for this configuration
        (``trace_references=True``, ``track_reference_pcs=False``)."""
        pending = self._pending
        append = pending.append
        flush = self._stage_pending

        def reference(addr: int, kind: int, region: int) -> None:
            append((addr & _MASK32) | ((kind | (region << 4)) << 32))
            if len(pending) >= TRACE_CHUNK:
                flush()

        def reference_pair(addr: int, kind: int, region: int) -> None:
            # Identical to two reference() calls: the drain may come
            # one token later, which the staging buffer hides.
            kb = (kind | (region << 4)) << 32
            append((addr & _MASK32) | kb)
            append(((addr + 2) & _MASK32) | kb)
            if len(pending) >= TRACE_CHUNK:
                flush()

        return reference, reference_pair

    def bulk_references(self, chunk: Union[np.ndarray, List[int]]) -> None:
        """Append a pre-packed token block wholesale (the fused replay
        core's vectorized fills and the trap layer's RAM byte runs).
        Equivalent to one :meth:`reference` call per element: a list
        (a short run) joins the pending tokens, a uint64 array joins
        the same staging buffer behind them.  Callers guarantee the
        tracing configuration (the fused dispatch gate and
        ``TracedAccess._ram_run`` check it)."""
        if type(chunk) is list:
            pending = self._pending
            pending.extend(chunk)
            if len(pending) >= TRACE_CHUNK:
                self._stage_pending()
            return
        self._stage_pending()
        self._stage_tokens(chunk)

    def _stage_pending(self) -> None:
        pending = self._pending
        if pending:
            tokens = np.array(pending, dtype=np.uint64)
            del pending[:]
            self._stage_tokens(tokens)

    def _stage_tokens(self, tokens: np.ndarray) -> None:
        """Copy ``tokens`` into the staging buffer, sealing it each
        time it fills."""
        pos, n = 0, len(tokens)
        while pos < n:
            stage, fill = self._stage, self._fill
            take = min(len(stage) - fill, n - pos)
            stage[fill:fill + take] = tokens[pos:pos + take]
            self._fill = fill = fill + take
            pos += take
            if fill == len(stage):
                self._seal(stage)
                self._stage = np.empty(TRACE_CHUNK, dtype=np.uint64)
                self._fill = 0

    def _seal(self, chunk: np.ndarray) -> None:
        """Seal ``chunk`` into the trace: push it to the sink, add its
        kind histogram, and keep it read-only unless spilling."""
        sink = self._trace_sink
        if sink is not None:
            sink.append_tokens(chunk)
        self._chunk_counts += _kind_histogram(chunk)
        if sink is not None and self._trace_spill:
            self._spilled_tokens += len(chunk)
            return
        chunk.flags.writeable = False
        self._chunks.append(chunk)

    def _tail(self) -> np.ndarray:
        """A private copy of the unsealed tokens (staged, then
        pending), in stream order; nothing is sealed."""
        staged = self._stage[:self._fill]
        if not self._pending:
            return staged.copy()
        return np.concatenate(
            (staged, np.array(self._pending, dtype=np.uint64)))

    # -- streaming access ----------------------------------------------
    def attach_trace_sink(self, sink, spill: bool = False) -> None:
        """Stream the trace into ``sink`` (a PTRC ``ContainerWriter``)
        as it is recorded.  Chunks already sealed are pushed first and
        the unsealed tail follows as it seals, so the sink always holds
        the whole trace from reference zero.

        With ``spill`` the profiler stops keeping chunks in RAM — the
        replay runs in bounded memory however long the session is, and
        the container becomes the only copy of the trace (the in-RAM
        accessors :meth:`chunks`/:meth:`reference_trace`/
        :meth:`trace_snapshot` then raise; resilient replays keep
        ``spill=False`` because their checkpoints hold the in-RAM
        trace).
        """
        if not self.trace_references:
            raise RuntimeError(
                "profiler was created with trace_references=False")
        for chunk in self._chunks:
            sink.append_tokens(chunk)
        self._trace_sink = sink
        self._trace_spill = spill
        if spill:
            self._spilled_tokens += sum(len(c) for c in self._chunks)
            self._chunks = []

    def flush_trace_sink(self) -> None:
        """Seal the unsealed tail as a short last chunk, pushing it
        through to the attached sink.  Call once after the replay
        finishes and before closing the container — it is the only
        place a chunk shorter than :data:`TRACE_CHUNK` is sealed."""
        tail = self._tail()
        del self._pending[:]
        self._fill = 0
        if len(tail):
            self._seal(tail)

    def _require_in_ram(self) -> None:
        if self._trace_spill:
            raise RuntimeError(
                "the trace was spilled to its container sink "
                "(attach_trace_sink(spill=True)); re-open the PTRC "
                "container to read it")

    def chunks(self):
        """Iterate the packed uint64 trace chunk by chunk, without
        concatenating (the streaming counterpart of
        :meth:`reference_trace` — peak memory stays one chunk).  The
        sealed chunks come first, then a copy of the unsealed tail."""
        self._require_in_ram()
        yield from tuple(self._chunks)
        tail = self._tail()
        if len(tail):
            yield tail

    def cache_chunks(self):
        """``(addresses, writes)`` pairs per chunk for the out-of-core
        cache kernels, hardware references dropped."""
        from ..traces.container import cache_chunks
        return cache_chunks(self.chunks())

    @property
    def trace_tokens(self) -> int:
        """Total recorded references (including spilled chunks)."""
        return int(self._counts_snapshot().sum())

    def counts_dict(self, memory_only: bool = False) -> Dict[str, int]:
        """``ReferenceTrace.counts()`` without materializing the trace
        (derived from the flat counters).  ``memory_only`` excludes
        hardware references from the kind totals, matching
        ``reference_trace().memory_only().counts()``."""
        return kind_totals(self._counts_snapshot(), memory_only)

    def _counts_snapshot(self) -> np.ndarray:
        """The 256 flat counters as a uint64 array (derived from the
        trace when tracing, the per-call array otherwise)."""
        if not self.trace_references:
            return np.frombuffer(self._counts, dtype=np.uint64)
        return self._chunk_counts + _kind_histogram(self._tail())

    def opcode(self, op: int) -> None:
        self.opcode_counts[op] += 1
        self.instructions += 1

    def opcode_at(self, pc: int, op: int) -> None:
        """Per-address variant of :meth:`opcode` for the static/dynamic
        cross-check; ``pc`` is the address of the opcode word itself."""
        self.opcode_counts[op] += 1
        self.instructions += 1
        self.opcode_addresses[pc] = op
        self._current_pc = pc

    def detach_pc(self) -> None:
        """Stop attributing references to the last opcode (wired to the
        CPU's ``interrupt_hook``: an interrupt's exception-frame pushes
        belong to no instruction)."""
        self._current_pc = -1

    # -- aggregate statistics ---------------------------------------------
    @property
    def counts(self) -> Dict[tuple, int]:
        """The reference counters as the historical ``(kind, region) ->
        count`` mapping (derived from the flat array; zero entries are
        omitted, as the dict-based implementation never created them)."""
        return {(i & 0x0F, i >> 4): int(n)
                for i, n in enumerate(self._counts_snapshot()) if n}

    @property
    def ram_refs(self) -> int:
        return self.counts_dict()["ram"]

    @property
    def flash_refs(self) -> int:
        return self.counts_dict()["flash"]

    @property
    def hw_refs(self) -> int:
        return self.counts_dict()["hw"]

    @property
    def card_refs(self) -> int:
        return self.counts_dict()["card"]

    @property
    def total_refs(self) -> int:
        return int(self._counts_snapshot().sum())

    @property
    def fetch_refs(self) -> int:
        return self.counts_dict()["fetch"]

    @property
    def read_refs(self) -> int:
        return self.counts_dict()["read"]

    @property
    def write_refs(self) -> int:
        return self.counts_dict()["write"]

    def average_memory_cycles(self) -> float:
        """Equation 3: average effective memory access time without a
        cache, in cycles per reference."""
        totals = self.counts_dict()
        ram = totals["ram"] + totals["hw"]  # registers behave like RAM
        flash = totals["flash"] + totals["card"]
        total = ram + flash
        if total == 0:
            return 0.0
        return (ram * T_RAM_CYCLES + flash * T_FLASH_CYCLES) / total

    # -- the reference trace -------------------------------------------------
    def _packed_trace(self) -> np.ndarray:
        """All trace entries as one packed uint64 array (materializes;
        streaming consumers should iterate :meth:`chunks` instead)."""
        parts = tuple(self.chunks())
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty(0, np.uint64)

    def reference_trace(self) -> "ReferenceTrace":
        if not self.trace_references:
            raise RuntimeError("profiler was created with trace_references=False")
        packed = self._packed_trace()
        return ReferenceTrace(
            addresses=(packed & np.uint64(_MASK32)).astype(np.uint32),
            kinds=(packed >> np.uint64(32)).astype(np.uint8),
        )

    # -- checkpoint capture/restore -------------------------------------
    # The resilience checkpoints hold the profiler's counts as a section
    # and its trace as a :class:`TraceSnapshot`.
    def counts_bytes(self) -> bytes:
        """The flat counters as 256 native uint64 values (the
        ``prof_counts`` checkpoint section)."""
        if not self.trace_references:
            return self._counts.tobytes()
        return self._counts_snapshot().tobytes()

    def restore_counts(self, blob: bytes) -> None:
        if self.trace_references:
            # Derived from the trace, which the checkpoint restores.
            return
        self._counts = array("Q")
        self._counts.frombytes(blob)

    def trace_snapshot(self) -> "TraceSnapshot":
        """The trace recorded so far, by reference: the sealed chunks
        are shared (they never change), only the tail is copied."""
        self._require_in_ram()
        return TraceSnapshot(tuple(self._chunks), self._tail())

    def restore_snapshot(self, snapshot: "TraceSnapshot") -> None:
        """Reinstate a :meth:`trace_snapshot`: its chunks become the
        sealed trace again and its tail is re-staged (the tail may
        exceed one chunk — staged plus pending tokens — so staging it
        seals any full chunk at the grain, as the recording would)."""
        del self._pending[:]
        self._chunks = list(snapshot.chunks)
        self._chunk_counts = np.zeros(256, dtype=np.uint64)
        for chunk in self._chunks:
            self._chunk_counts += _kind_histogram(chunk)
        self._stage = np.empty(TRACE_CHUNK, dtype=np.uint64)
        self._fill = 0
        self._stage_tokens(snapshot.tail)

    # -- opcode statistics -----------------------------------------------------
    def top_opcodes(self, n: int = 10) -> list[tuple[int, int]]:
        """The ``n`` most-executed opcode words as (opcode, count)."""
        counts = np.frombuffer(self.opcode_counts, dtype=np.uint64)
        n = min(n, counts.size)
        if n <= 0:
            return []
        # Partition out the top-n slice, then sort only that slice —
        # O(N + n log n) instead of a full 65536-entry argsort.
        top = np.argpartition(counts, counts.size - n)[counts.size - n:]
        order = top[np.argsort(counts[top])][::-1]
        return [(int(op), int(counts[op])) for op in order if counts[op]]

    def top_traps(self, n: int = 10) -> list[tuple[int, int]]:
        """The ``n`` most-executed A-line trap numbers as
        (trap, count).  The opcode histogram's 0xA000-0xAFFF rows are
        folded by ``op & 0x1FF`` — the trap-number decode both
        dispatch paths share."""
        counts = np.frombuffer(self.opcode_counts,
                               dtype=np.uint64)[0xA000:0xB000]
        by_trap = counts.reshape(8, 512).sum(axis=0)
        n = min(n, by_trap.size)
        if n <= 0:
            return []
        top = np.argpartition(by_trap, by_trap.size - n)[by_trap.size - n:]
        order = top[np.argsort(by_trap[top])][::-1]
        return [(int(t), int(by_trap[t])) for t in order if by_trap[t]]

    def opcode_histogram(self) -> np.ndarray:
        return np.frombuffer(self.opcode_counts, dtype=np.uint64).copy()


def _kind_histogram(tokens: np.ndarray) -> np.ndarray:
    """Per-``kind | region << 4`` token counts as 256 uint64 values."""
    kinds = (tokens >> np.uint64(32)).astype(np.uint8)
    return np.bincount(kinds, minlength=256).astype(np.uint64)


def kind_totals(histogram: np.ndarray,
                memory_only: bool = False) -> Dict[str, int]:
    """The ``ram``/``flash``/``hw``/``card`` region and ``fetch``/
    ``read``/``write`` kind totals of a 256-bin ``kind | region << 4``
    histogram.  ``memory_only`` leaves out the hardware-register
    references, as :meth:`ReferenceTrace.memory_only` does."""
    if memory_only:
        histogram = histogram.copy()
        histogram[REGION_HW << 4:(REGION_HW + 1) << 4] = 0
    out = {name: int(histogram[region << 4:(region + 1) << 4].sum())
           for region, name in [(REGION_RAM, "ram"), (REGION_FLASH, "flash"),
                                (REGION_HW, "hw"), (REGION_CARD, "card")]}
    for kind, name in [(KIND_FETCH, "fetch"), (KIND_READ, "read"),
                       (KIND_WRITE, "write")]:
        out[name] = int(histogram[kind::16].sum())
    return out


class TraceSnapshot(NamedTuple):
    """A profiler's trace at one instant (:meth:`Profiler.
    trace_snapshot`): the sealed chunks, shared by reference, and a
    private copy of the unsealed tail."""

    chunks: Tuple[np.ndarray, ...]
    tail: np.ndarray


class ReferenceTrace:
    """A memory-reference trace as parallel numpy arrays.

    ``kinds`` packs the access kind in the low nibble and the region in
    the high nibble; helpers below unpack.
    """

    def __init__(self, addresses: np.ndarray, kinds: np.ndarray):
        self.addresses = addresses
        self.kinds = kinds

    def __len__(self) -> int:
        return len(self.addresses)

    @property
    def kind(self) -> np.ndarray:
        return self.kinds & 0x0F

    @property
    def region(self) -> np.ndarray:
        return self.kinds >> 4

    @property
    def is_write(self) -> np.ndarray:
        return (self.kinds & 0x0F) == KIND_WRITE

    def memory_only(self) -> "ReferenceTrace":
        """Drop hardware-register references (not cacheable)."""
        mask = self.region != REGION_HW
        return ReferenceTrace(self.addresses[mask], self.kinds[mask])

    def counts(self) -> dict:
        # Chunked so the histogram never needs the whole kinds array
        # widened at once on views of very large traces.
        histogram = np.zeros(256, dtype=np.int64)
        for _addrs, kinds in self.chunks():
            histogram += np.bincount(kinds, minlength=256)
        return kind_totals(histogram)

    # -- streaming access ----------------------------------------------
    def chunks(self, chunk_tokens: int = TRACE_CHUNK):
        """Iterate ``(addresses, kinds)`` view pairs in windows of
        ``chunk_tokens`` references — no copies, so consumers that
        stream (PTRC writers, the out-of-core kernels) never double
        the trace's memory footprint."""
        n = len(self.addresses)
        for start in range(0, n, chunk_tokens):
            yield (self.addresses[start:start + chunk_tokens],
                   self.kinds[start:start + chunk_tokens])
