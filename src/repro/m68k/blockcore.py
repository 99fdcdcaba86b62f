"""Replay execution cores: simple stepping and predecoded superblocks.

The paper pays a per-instruction cost for forcing the real ROM trap
dispatcher (§2.4.2); this module amortizes the *host-side* share of
that cost the way Shade's trace-generating translation cache and
Embra's fast machine simulation do: instruction runs are decoded
**once** into flat lists of ``(pc, next_pc, fetch_token, opcode,
handler)`` entries keyed by entry pc, then executed in a tight loop
with no per-step 65536-entry table dispatch and no bus fetch for the
opcode word.

Beyond the straight-line blocks of the first fast core, runs are now
chained into **superblocks**: decoding follows unconditional branches
(``bra``/``jmp`` with a static target) into their target and falls
through conditional branches, so one block covers whole loop bodies
and if/else joins.  Hot superblocks are additionally compiled into
**fused bodies** (see :mod:`repro.m68k.fuse`): one generated Python
function per block that inlines operand address arithmetic and the
RAM/flash access arms, folds dead flag computations, batches the
per-instruction cycle/reference/histogram updates into per-block
constants.

Decoding and fusing are paid once per *process*, not once per core:
collection and every replay build a new core over the same ROM, so
templates and generated bodies live in a module-level translation
cache (``_STORE``), Shade's translation cache shared across runs.  An
entry is keyed on (region, entry pc, backing geometry) and holds the
decoded block, the code bytes the decode read and the fused body's
source (:class:`repro.m68k.fuse.FusedCode`).
``_build`` binds a fresh per-core block to an entry whose bytes still
match memory and decodes afresh otherwise; fusion still happens at
``fuse_threshold`` runs, binding the cached source when there is one.
Entries hold no core, memory map, profiler, watch or block, so a
finished replay's machine stays collectable.  Counters, validity,
page watches, invalidation, the tracer epoch and the trap table stay
per core.

Two cores implement the same contract —
``run_until_cycles(limit)`` with the exact semantics of
:meth:`repro.m68k.cpu.CPU.step` iterated under the device scheduler's
cycle budget — and are selectable per device (``PalmDevice(core=...)``,
``palm-repro replay --core={fast,simple}``):

* :class:`SimpleCore` — the original per-instruction stepping loop.
* :class:`BlockCore` — the predecoded superblock cache.

Bit-exactness is the design constraint, not an afterthought.  Blocks
are *self-verifying*: before executing an entry the interpreted loop
checks that ``cpu.pc`` equals the entry's predecoded address, so a
taken branch, an exception, or even a mispredicted instruction length
only ever breaks out of the block (costing a rebuild) and can never
execute the wrong instruction.  Fused bodies eliminate those per-insn
checks *structurally*: control only reaches instruction ``k+1`` when
instruction ``k`` statically falls through to it, every escape path
(fault, taken branch, cycle budget, invalidation, non-RAM/flash
access) synchronizes ``pc``/``cycles``/the executed-instruction count
before leaving, and anything the generated code cannot prove safe
falls back to the original specialized handler mid-block.

Invalidation: guest code lives in RAM (installed hacks, the overhead
thunk) as well as flash, so every RAM store — from the guest bus *or*
from host-side helpers (``HostAccess``) — is checked against a set of
watched 256-byte pages (:class:`CodeWatch`, installed as the
``FlatMemory.watch`` / ``MemoryMap.ram_watch`` hook); a hit marks every
block overlapping the page invalid, which the executor (interpreted or
fused: the generated write arms perform the same page check) notices
before the next instruction of a running block.  A superblock watches
every page any of its chained instructions touches, so a write into
the *middle* of a chain unlinks the whole superblock.  Bulk loads
(checkpoint restore, flash re-image) drop the whole cache.

A-line/F-line words terminate decoding (they have no handler), but a
block records the terminating word as its *tail*: after the block's
instructions complete, the core dispatches the trap directly —
through a per-trap-number fast table
(:meth:`repro.palmos.syscalls.SysCalls.aline_fast_table`) when the
kernel runs without a sanitizer — instead of falling back to a full
``step()`` and the generic A-line lookup.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .cpu import CPU
from .decoder import resolve
from .disasm import K_BRANCH, K_CONDBRANCH, K_NORMAL, decode_insn

_MASK32 = 0xFFFFFFFF

#: Invalidation granularity: 256-byte pages.
PAGE_SHIFT = 8

#: Longest run predecoded into one superblock.
MAX_BLOCK_INSNS = 64

#: A block is compiled into a fused body once it has been dispatched
#: this many times (cold blocks stay interpreted; compilation costs a
#: few milliseconds each).
FUSE_THRESHOLD = 8

# Lazily-resolved collaborators (imported on first use to keep this
# module importable from low-level code without dragging the emulator
# package in at import time).
_Profiler: Any = None
_TRACE_CHUNK = 0
_build_fused: Any = None

#: ``_Template.fused`` before the block was first offered to the fuser.
_UNSET: Any = object()


def _resolve_profiler() -> Any:
    global _Profiler, _TRACE_CHUNK
    if _Profiler is None:
        from ..emulator.profiling import TRACE_CHUNK, Profiler
        _Profiler = Profiler
        _TRACE_CHUNK = TRACE_CHUNK
    return _Profiler


def _resolve_fuser() -> Any:
    global _build_fused
    if _build_fused is None:
        from .fuse import build_fused
        _build_fused = build_fused
    return _build_fused


class SimpleCore:
    """The original stepping loop (one ``CPU.step()`` per instruction)."""

    name = "simple"

    def __init__(self, cpu: CPU, mem: Any = None):
        self.cpu = cpu

    def detach(self) -> None:
        pass

    def run_until_cycles(self, limit: int) -> None:
        cpu = self.cpu
        step = cpu.step
        while True:
            while cpu.cycles < limit and not cpu.stopped:
                step()
            if cpu.cycles >= limit:
                return
            # Stopped: a serviceable pending interrupt wakes the CPU
            # (interrupt service happens inside step()).
            level = cpu.pending_irq
            if level and (level > cpu.imask or level == 7):
                step()
                continue
            return


class CodeWatch:
    """The write watch a :class:`BlockCore` installs on guest memory.

    ``pages`` is consulted inline by the RAM write fast paths (both the
    bus arms and the generated fused write arms); `hit` and `bulk`
    route into the core's invalidation.
    """

    __slots__ = ("pages", "_core")

    def __init__(self, core: "BlockCore"):
        self.pages: Set[int] = set()
        self._core = core

    def hit(self, addr: int) -> None:
        self._core.invalidate_page(addr >> PAGE_SHIFT)

    def bulk(self) -> None:
        self._core.flush()


class _Template:
    """One translation-cache entry: a decoded superblock, core-free.

    Everything here is a pure function of the code bytes the decode
    read (``reads``) and the backing geometry in the store key, so any
    core whose memory holds the same bytes may bind it.  It holds no
    core, memory map, profiler, watch or :class:`_Block` — a finished
    replay's machine stays collectable while its blocks stay cached.
    ``fused`` holds the block's generated body
    (:class:`repro.m68k.fuse.FusedCode`), ``None`` when the generator
    found it unfusable, or ``_UNSET`` before it was tried.
    """

    __slots__ = ("region", "entries", "tail", "pages", "tok_prefix",
                 "op_counts", "reads", "fused")

    def __init__(self, region: int, entries: List[tuple],
                 spans: List[Tuple[int, int]],
                 tail: Optional[Tuple[int, int, int, int]],
                 reads: Tuple[Tuple[int, bytes], ...]):
        self.region = region
        self.entries = entries
        #: Terminating A-line/F-line word: (pc, opcode, fetch_token,
        #: opcode group), dispatched inline after the entries complete.
        self.tail = tail
        pages: Set[int] = set()
        for start, stop in spans:
            pages.update(range(start >> PAGE_SHIFT,
                               ((stop - 1) >> PAGE_SHIFT) + 1))
        if tail is not None:
            pages.add(tail[0] >> PAGE_SHIFT)
            pages.add((tail[0] + 1) >> PAGE_SHIFT)
        self.pages = tuple(sorted(pages))
        #: ``tok_prefix[k]`` = fetch references emitted by the first
        #: ``k`` instructions (opcode + extension words); used for the
        #: ``--hot`` per-block reference accounting.
        prefix = [0]
        for start, stop in spans:
            prefix.append(prefix[-1] + ((stop - start) >> 1))
        self.tok_prefix = tuple(prefix)
        # The block's opcode histogram, pre-aggregated: a full block
        # run (the overwhelmingly common case) bumps one counter per
        # *distinct* opcode instead of one per instruction.  The
        # histogram is order-insensitive, so batching is unobservable.
        agg: Dict[int, int] = {}
        for entry in entries:
            op = entry[3]
            agg[op] = agg.get(op, 0) + 1
        self.op_counts = tuple(agg.items())
        #: ``(offset into the backing store, bytes)`` of every run the
        #: decode read, the terminating word included.
        self.reads = reads
        self.fused: Any = _UNSET

    def matches(self, data: bytearray) -> bool:
        """Whether ``data`` still holds the bytes this block decoded."""
        for off, blob in self.reads:
            if data[off:off + len(blob)] != blob:
                return False
        return True


#: The process-wide translation cache: (region, entry pc, ram base,
#: ram limit, flash base, flash limit) -> :class:`_Template`.  An
#: entry is re-validated against the backing bytes on every lookup
#: and replaced when they differ, so it never needs evicting for
#: correctness; it is bounded by the distinct block entries of the
#: images a process runs.
_STORE: Dict[tuple, _Template] = {}


def _decode(pc: int, region: int, base: int, limit: int,
            data: bytearray) -> Optional[_Template]:
    """Predecode the superblock entered at ``pc`` from ``data`` (the
    backing store of ``region``, mapped at ``base`` up to ``limit``);
    None when its first word is neither decodable nor an A/F-line
    trap."""
    size = len(data)

    def fetch(a: int) -> int:
        off = a - base
        if 0 <= off and off + 1 < size:
            return (data[off] << 8) | data[off + 1]
        return 0

    entries: List[tuple] = []
    spans: List[Tuple[int, int]] = []
    seen: Set[int] = set()
    tail: Optional[Tuple[int, int, int, int]] = None
    # The word that ended decoding, when one was read and is not
    # part of the spans (a trap or illegal word, or an instruction
    # running past the limit).
    stop_read: Optional[Tuple[int, int]] = None
    addr = pc
    while len(entries) < MAX_BLOCK_INSNS:
        if addr in seen or addr < base or addr + 1 >= limit:
            break
        off = addr - base
        op = (data[off] << 8) | data[off + 1]
        # Resolved before the snapshot: entries never hold an
        # unbuilt slot.
        handler = resolve(op)
        if handler is None:
            stop_read = (addr, addr + 2)
            group = op >> 12
            if group in (0xA, 0xF):
                # A-line / F-line: record as the block's tail and
                # dispatch it inline after the entries complete.
                tail = (addr, op, addr | (region << 36), group)
            # Genuine illegal words keep the stepping fallback,
            # which owns the exception plumbing.
            break
        insn = decode_insn(fetch, addr)
        if insn.end > limit:
            stop_read = (addr, limit)
            break
        # The fetch reference the stepping loop would emit for this
        # opcode word, packed for the profiler's trace buffer.
        token = addr | (region << 36)
        entries.append((addr, (addr + 2) & _MASK32, token, op, handler))
        seen.add(addr)
        spans.append((addr, insn.end))
        kind = insn.kind
        if kind == K_NORMAL:
            addr = insn.end
        elif kind == K_BRANCH and insn.target is not None \
                and not insn.indirect and not insn.target & 1:
            # Chain through the unconditional branch when the
            # target stays in the same backing region.
            addr = insn.target
        elif kind == K_CONDBRANCH:
            if insn.target == pc:
                # Backedge to the block entry: end the block here so
                # the whole loop body fuses into a while-loop.
                break
            # Otherwise chain the fallthrough; a taken branch exits
            # the block.
            addr = insn.end
        else:
            # Calls, returns, stop, trap #n: terminal — control
            # continues at a pc only execution knows.
            break
    if not entries and tail is None:
        return None
    runs = sorted(spans + [stop_read] if stop_read else spans)
    merged: List[List[int]] = []
    for start, stop in runs:
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], stop)
        else:
            merged.append([start, stop])
    reads = tuple((start - base, bytes(data[start - base:stop - base]))
                  for start, stop in merged)
    return _Template(region, entries, spans, tail, reads)


class _Block:
    """One predecoded superblock, bound to one core: the shared
    :class:`_Template` plus this core's validity and counters."""

    __slots__ = ("pc", "tpl", "entries", "valid", "pages", "region",
                 "op_counts", "tail", "tok_prefix", "tok_total", "runs",
                 "insns_executed", "fetch_refs", "fused", "fuse_epoch",
                 "prov")

    def __init__(self, pc: int, tpl: _Template):
        self.pc = pc
        self.tpl = tpl
        self.entries = tpl.entries
        self.valid = True
        self.pages = tpl.pages
        self.region = tpl.region
        self.tail = tpl.tail
        self.tok_prefix = tpl.tok_prefix
        self.tok_total = tpl.tok_prefix[-1]
        self.op_counts = tpl.op_counts
        # Hotness / observability counters.
        self.runs = 0
        self.insns_executed = 0
        self.fetch_refs = 0
        #: Generated fused body: None until built, False when the block
        #: cannot be fused (no entries), else ``f(cpu, limit, ex)``.
        self.fused: Any = None
        self.fuse_epoch = -1
        #: :class:`repro.m68k.fuse.FuseProvenance` once fused (entry
        #: pc, insn count, generated-source hash, ...).
        self.prov: Any = None


class BlockCore:
    """Predecoded superblock interpreter (the ``fast`` replay core)."""

    name = "fast"

    def __init__(self, cpu: CPU, mem: Any):
        self.cpu = cpu
        self.mem = mem
        self.blocks: Dict[int, _Block] = {}
        self._page_blocks: Dict[int, List[_Block]] = {}
        self.watch = CodeWatch(self)
        mem.ram.watch = self.watch
        mem.flash.watch = self.watch  # bulk re-images drop the cache
        mem.ram_watch = self.watch
        #: Counters for the bench harness / debugging.
        self.blocks_built = 0
        self.invalidations = 0
        self.fused_built = 0
        #: Of those, blocks and fused bodies bound from the process-wide
        #: translation cache instead of decoded or generated afresh.
        self.blocks_bound = 0
        self.fused_bound = 0
        #: Dispatch count before a block is compiled to a fused body.
        self.fuse_threshold = FUSE_THRESHOLD
        #: Debug hook: called with the block right after a fused body
        #: is built (``replay --validate-codegen`` installs the
        #: translation validator here; see repro.analysis.transval).
        self.fuse_validator: Optional[Callable[[Any], None]] = None
        #: Counters of dead blocks, folded in on invalidation so the
        #: ``--hot`` report survives block churn:
        #: pc -> [runs, insns_executed, fetch_refs, invalidations].
        self.pc_stats: Dict[int, List[int]] = {}
        # Fused bodies close over the profiler's pending-trace list;
        # when the tracer changes between runs the epoch advances and
        # stale bodies are lazily recompiled.
        self._fuse_tracer: Any = None
        self._fuse_epoch = 0
        self._ex: List[int] = [0]
        # Per-run A-line fast-dispatch table (see _resolve_trap_table).
        self._trap_table_for: Any = None
        self._trap_table: Optional[List[Any]] = None

    def detach(self) -> None:
        """Uninstall the watch (switching cores on a live device)."""
        self.flush()
        mem = self.mem
        if mem.ram.watch is self.watch:
            mem.ram.watch = None
        if mem.flash.watch is self.watch:
            mem.flash.watch = None
        if getattr(mem, "ram_watch", None) is self.watch:
            mem.ram_watch = None

    # -- invalidation ---------------------------------------------------
    def flush(self) -> None:
        """Drop every predecoded block (bulk memory replacement)."""
        for blocks in self._page_blocks.values():
            for block in blocks:
                block.valid = False
        for block in self.blocks.values():
            block.valid = False
            self._fold_stats(block, 0)
        self.blocks.clear()
        self._page_blocks.clear()
        self.watch.pages.clear()

    def invalidate_page(self, page: int) -> None:
        """A write landed in a watched page: kill its blocks."""
        blocks = self._page_blocks.pop(page, None)
        self.watch.pages.discard(page)
        if blocks:
            self.invalidations += 1
            for block in blocks:
                if block.valid:
                    block.valid = False
                    self._fold_stats(block, 1)
                    self.blocks.pop(block.pc, None)

    def _fold_stats(self, block: _Block, invalidated: int) -> None:
        if not (block.runs or invalidated):
            return
        st = self.pc_stats.get(block.pc)
        if st is None:
            st = self.pc_stats[block.pc] = [0, 0, 0, 0]
        st[0] += block.runs
        st[1] += block.insns_executed
        st[2] += block.fetch_refs
        st[3] += invalidated
        block.runs = block.insns_executed = block.fetch_refs = 0

    # -- observability --------------------------------------------------
    def hot_blocks(self, n: int = 10) -> List[Dict[str, Any]]:
        """The ``n`` hottest superblocks by fetch references, merging
        live blocks with the folded counters of invalidated ones.
        Fused blocks carry their provenance identity (insn count,
        generated-source hash) so the ``--hot`` report
        and the translation validator name blocks the same way."""
        agg: Dict[int, List[int]] = {
            pc: list(st) for pc, st in self.pc_stats.items()}
        for pc, block in self.blocks.items():
            st = agg.setdefault(pc, [0, 0, 0, 0])
            st[0] += block.runs
            st[1] += block.insns_executed
            st[2] += block.fetch_refs
        rows = sorted(agg.items(), key=lambda kv: (-kv[1][2], kv[0]))[:n]
        out: List[Dict[str, Any]] = []
        for pc, st in rows:
            info: Dict[str, Any] = {
                "pc": pc, "runs": st[0], "insns": st[1],
                "fetch_refs": st[2], "invalidations": st[3]}
            live = self.blocks.get(pc)
            prov = live.prov if live is not None else None
            if prov is not None:
                info["fused_insns"] = prov.insn_count
                info["source_hash"] = prov.source_hash[:12]
                if prov.loop:
                    info["loop"] = 1
            out.append(info)
        return out

    # -- block construction ---------------------------------------------
    def _build(self, pc: int) -> Optional[_Block]:
        """Bind the superblock entered at ``pc`` from the translation
        cache, decoding it only when the cache has no entry whose bytes
        still match memory; None when the pc is not block-eligible
        (odd, outside RAM/flash, or its first word is neither decodable
        nor an A/F-line trap) — the caller single-steps instead."""
        if pc & 1:
            return None
        mem = self.mem
        if pc < mem.ram_limit:
            backing, region, limit = mem.ram, 0, mem.ram_limit
        elif mem.flash.base <= pc < mem.flash_limit:
            backing, region, limit = mem.flash, 1, mem.flash_limit
        else:
            return None
        data = backing.data
        key = (region, pc, mem.ram.base, mem.ram_limit, mem.flash.base,
               mem.flash_limit)
        tpl = _STORE.get(key)
        if tpl is not None and tpl.matches(data):
            self.blocks_bound += 1
        else:
            tpl = _decode(pc, region, backing.base, limit, data)
            if tpl is None:
                return None
            _STORE[key] = tpl
        block = _Block(pc, tpl)
        self.blocks[pc] = block
        if region == 0:
            # Only RAM pages need write watching; flash is
            # write-protected during replay and bulk loads flush.
            for page in block.pages:
                self._page_blocks.setdefault(page, []).append(block)
                self.watch.pages.add(page)
        self.blocks_built += 1
        return block

    # -- trap fast path --------------------------------------------------
    def _resolve_trap_table(self) -> Optional[List[Any]]:
        """Per-run A-line dispatch table.  When the installed A-line
        handler is a Palm OS kernel running *without* a sanitizer, the
        per-trap-number table from ``SysCalls.aline_fast_table()``
        preserves its semantics exactly while skipping the generic
        lookup; any other configuration (sanitizer brackets, custom
        handlers) keeps the handler call.  The cache key includes the
        kernel's sanitizer so attaching one mid-session (the handler
        object itself never changes) drops the fast table — its
        closures would bypass the kernel_enter/kernel_exit brackets."""
        handler = self.cpu.aline_handler
        owner = getattr(handler, "__self__", None)
        sanitizer = getattr(owner, "sanitizer", "absent")
        key = (handler, sanitizer)
        if key == self._trap_table_for:
            return self._trap_table
        table: Optional[List[Any]] = None
        syscalls = getattr(owner, "syscalls", None)
        if (syscalls is not None
                and sanitizer is None
                and getattr(handler, "__func__", None)
                is getattr(type(owner), "_on_aline", None)):
            fast = getattr(syscalls, "aline_fast_table", None)
            if fast is not None:
                table = fast()
        self._trap_table_for = key
        self._trap_table = table
        return table

    # -- execution ------------------------------------------------------
    def run_until_cycles(self, limit: int) -> None:
        """Exact-semantics equivalent of the stepping loop: per
        instruction, the pending-interrupt gate, the stopped gate and
        the cycle budget are evaluated in ``CPU.step()`` order."""
        cpu = self.cpu
        mem = self.mem
        step = cpu.step
        blocks = self.blocks

        # Per-run fast-path selection (hooks and tracer only change
        # between scheduler runs, never inside one).
        tracer = mem.tracer
        fast_append = None     # profiler trace append for fetch tokens
        emit = None            # generic tracer.reference fallback
        profiler = None
        if tracer is not None:
            P = _resolve_profiler()
            if type(tracer) is P and tracer.trace_references:
                profiler = tracer
                fast_append = tracer._pending.append
            else:
                emit = tracer.reference
        hook = cpu.opcode_hook
        opcounts = None
        if (hook is not None and tracer is not None
                and type(tracer) is _resolve_profiler()
                and getattr(hook, "__self__", None) is tracer
                and getattr(hook, "__func__", None)
                is _resolve_profiler().opcode):
            # The standard histogram hook, inlined: count the opcode
            # here and batch the instruction totals per block run.
            opcounts = tracer.opcode_counts
            hook = None
        # Fused bodies bake the profiler's trace list and the batched
        # histogram contract in; they are only dispatched under the
        # exact configuration they were generated for.
        fuse_ok = (fast_append is not None and opcounts is not None
                   and mem.san is None
                   and not tracer.track_reference_pcs)
        if fuse_ok and self._fuse_tracer is not tracer:
            self._fuse_tracer = tracer
            self._fuse_epoch += 1
        fuse_epoch = self._fuse_epoch
        trap_table = self._resolve_trap_table()
        ex = self._ex

        while True:
            if cpu.cycles >= limit:
                return
            irq = cpu.pending_irq
            if irq and (irq > cpu.imask or irq == 7):
                step()          # services the interrupt, step-identically
                continue
            if cpu.stopped:
                return
            block = blocks.get(cpu.pc)
            if block is None or not block.valid:
                block = self._build(cpu.pc)
                if block is None:
                    step()      # not block-eligible: illegal word, MMIO
                    continue
            entries = block.entries
            block.runs += 1
            executed = 0
            fused = None
            if fuse_ok and entries:
                fused = block.fused
                if fused is not None and fused is not False \
                        and block.fuse_epoch != fuse_epoch:
                    fused = block.fused = None
                if fused is None and block.runs >= self.fuse_threshold:
                    fused = block.fused = _resolve_fuser()(self, block)
                    block.fuse_epoch = fuse_epoch
                    if fused is not False:
                        self.fused_built += 1
                        if self.fuse_validator is not None:
                            self.fuse_validator(block)
            if fused is not None and fused is not False:
                ex[0] = 0
                try:
                    fused(cpu, limit, ex)
                finally:
                    executed = ex[0]
                    if executed:
                        cpu.instructions += executed
                        tracer.instructions += executed
                        ne = len(entries)
                        if executed == ne:
                            for op, cnt in block.op_counts:
                                opcounts[op] += cnt
                            refs = block.tok_total
                        elif executed > ne:
                            # A fused loop body ran q full iterations
                            # plus a prefix of r entries.
                            q, r = divmod(executed, ne)
                            for op, cnt in block.op_counts:
                                opcounts[op] += cnt * q
                            for i in range(r):
                                opcounts[entries[i][3]] += 1
                            refs = q * block.tok_total + block.tok_prefix[r]
                        else:
                            for i in range(executed):
                                opcounts[entries[i][3]] += 1
                            refs = block.tok_prefix[executed]
                        block.insns_executed += executed
                        block.fetch_refs += refs
                    if profiler is not None \
                            and len(profiler._pending) >= _TRACE_CHUNK:
                        profiler._stage_pending()
            else:
                try:
                    if fast_append is not None and opcounts is not None:
                        # The replay-profiling hot loop: one list append
                        # per fetch; opcode counts batched in the finally.
                        for pc, nxt, token, op, handler in entries:
                            if cpu.cycles >= limit or cpu.pc != pc \
                                    or not block.valid:
                                break
                            irq = cpu.pending_irq
                            if irq and (irq > cpu.imask or irq == 7):
                                break
                            fast_append(token)
                            cpu.pc = nxt
                            cpu.cycles += 4
                            executed += 1
                            handler(cpu)
                    else:
                        region = block.region
                        for pc, nxt, token, op, handler in entries:
                            if cpu.cycles >= limit or cpu.pc != pc \
                                    or not block.valid:
                                break
                            irq = cpu.pending_irq
                            if irq and (irq > cpu.imask or irq == 7):
                                break
                            if fast_append is not None:
                                fast_append(token)
                            elif emit is not None:
                                emit(pc, 0, region)
                            cpu.pc = nxt
                            cpu.cycles += 4
                            executed += 1
                            if hook is not None:
                                hook(op)
                            handler(cpu)
                finally:
                    # Batched bookkeeping survives guest faults raised by
                    # a handler mid-block (the faulting instruction
                    # counts, exactly as in step()).
                    if executed:
                        cpu.instructions += executed
                        block.insns_executed += executed
                        block.fetch_refs += block.tok_prefix[executed]
                        if opcounts is not None:
                            tracer.instructions += executed
                            if executed == len(entries):
                                for op, cnt in block.op_counts:
                                    opcounts[op] += cnt
                            else:
                                for i in range(executed):
                                    opcounts[entries[i][3]] += 1
                    if profiler is not None \
                            and len(profiler._pending) >= _TRACE_CHUNK:
                        profiler._stage_pending()

            # -- trap tail: the A/F-line word the block decoded up to.
            tail = block.tail
            if tail is not None and block.valid and cpu.pc == tail[0] \
                    and cpu.cycles < limit and not cpu.stopped:
                irq = cpu.pending_irq
                if irq and (irq > cpu.imask or irq == 7):
                    continue
                tpc, top, ttoken, tgroup = tail
                # Replicates CPU.step() for a handler-less word: fetch
                # reference, pc/cycle/instruction bookkeeping, opcode
                # hook, then the A/F-line dispatch of CPU._illegal().
                if fast_append is not None:
                    fast_append(ttoken)
                elif emit is not None:
                    emit(tpc, 0, block.region)
                cpu.pc = (tpc + 2) & _MASK32
                cpu.cycles += 4
                cpu.instructions += 1
                if opcounts is not None:
                    opcounts[top] += 1
                    tracer.instructions += 1
                elif hook is not None:
                    hook(top)
                if tgroup == 0xA:
                    if trap_table is not None:
                        fn = trap_table[top & 0x1FF]
                        handled = fn is not None and fn(cpu, top)
                    else:
                        ah = cpu.aline_handler
                        handled = ah is not None and ah(cpu, top)
                    if not handled:
                        cpu.pc = tpc
                        cpu.exception(10)       # VEC_LINE_A
                else:
                    fh = cpu.fline_handler
                    if not (fh is not None and fh(cpu, top)):
                        cpu.pc = tpc
                        cpu.exception(11)       # VEC_LINE_F
