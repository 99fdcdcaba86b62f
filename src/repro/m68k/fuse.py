"""Fused whole-block code generation for the superblock replay core.

:func:`build_fused` compiles one hot superblock (see
:mod:`repro.m68k.blockcore`) into a single Python function
``f(cpu, limit, ex)`` that executes the whole instruction run with:

* operand address arithmetic and the RAM/flash bus arms inlined
  (token append, write-watch page check, alignment check, byte
  loads/stores) instead of per-insn closure + bus-method calls;
* profiler fetch tokens batched: statically-known tokens accumulate in
  a codegen-time list and are flushed as one ``append``/``extend``
  ahead of the next dynamic trace append or bus call;
* flag computations deferred: each instruction records its flag
  updates as pending statements over per-insn temporaries, and a flag
  is only materialized when something reads it (a condition code, a
  handler call, an escape path) — consecutive overwrites fold away;
* cycle accounting batched into per-segment constants against a local
  ``cyc`` snapshot, with a per-instruction budget gate preserving the
  stepping loop's exact scheduling boundaries;
* PR-4 dataflow region facts (``BlockCore.load_facts``) eliding the
  region dispatch for proven RAM/flash accesses.

Bit-exactness contract: every exit path — budget gate, taken branch,
alignment fault, watch hit, non-RAM/flash access, handler call —
synchronizes ``cpu.pc``, ``cpu.cycles``, the executed-instruction
count ``ex[0]``, all pending flags and all pending trace tokens before
control can observe them.  Anything the generator cannot prove it
reproduces exactly raises :class:`_Unfusable` and the block stays on
the interpreted tuple path (``build_fused`` returns ``False``).

Loops whose backedge targets the block entry compile into a ``while``
body (the backedge folds cycles/instruction counts and re-enters
without leaving the function); the caller reconstructs per-iteration
histogram/reference totals from ``ex[0]``.

Generation and binding are separate.  :class:`_Fuser` reads only the
block's code bytes, the memory geometry and the region facts, and
produces a core-free :class:`FusedCode` that the translation cache
(:mod:`repro.m68k.blockcore`) keeps per block template and facts key,
together with the unfusable verdicts.  :func:`build_fused` binds such
a body to one core — its trace list, write watch, memory arms and
block — and attaches a fresh :class:`FuseProvenance`, so a cached body
looks to the validator and the ``--hot`` report exactly like a freshly
generated one.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .disasm import Insn, K_BRANCH, K_CONDBRANCH, decode_insn
from .errors import AddressError
from .instructions import COND_EXPRS, M32, MASKS, MSBS, _shift, _specialize

__all__ = ["FuseProvenance", "FusedCode", "build_fused"]

SIZE_BY_BITS = {0: 1, 1: 2, 2: 4}

#: Per-size register-merge inverse masks.
_INV = {1: 0xFFFFFF00, 2: 0xFFFF0000, 4: 0}

#: Flags read by each condition code (indexed like ``COND_EXPRS``).
_CC_READS: Tuple[Tuple[str, ...], ...] = (
    (), (),
    ("c", "z"), ("c", "z"),
    ("c",), ("c",),
    ("z",), ("z",),
    ("v",), ("v",),
    ("n",), ("n",),
    ("n", "v"), ("n", "v"),
    ("n", "z", "v"), ("n", "z", "v"),
)

_FLAG_ORDER = ("x", "n", "z", "v", "c")

_BR = {1: "br1", 2: "br2", 4: "br4"}
_BW = {1: "bw1", 2: "bw2", 4: "bw4"}

#: Packed profiler token kind bits (``(kind | region << 4) << 32``).
_KB_READ = {0: 0x1 << 32, 1: 0x11 << 32}
_KB_WRITE = 0x2 << 32

Addr = Union[int, str]

_ST2 = struct.Struct(">H")
_ST4 = struct.Struct(">I")


class _Unfusable(Exception):
    """The block contains something the generator cannot prove it
    reproduces bit-exactly; it stays interpreted forever."""


class FuseProvenance:
    """Stable identity + audit record for one fused superblock.

    Attached to the block as ``block.prov`` by :meth:`_Fuser.build`:
    the translation validator (:mod:`repro.analysis.transval`)
    re-specializes ``source`` into an instrumented harness and proves
    it equivalent to the per-insn reference semantics, and the elision
    auditor re-derives the proof obligation behind every entry in
    ``elisions``.  ``source_hash`` gives validator findings and the
    ``--hot`` report a shared block identity that survives re-fusing
    and binding from the translation cache.  ``env`` belongs to one
    bind (it holds the core's trace list, watch and block).
    """

    __slots__ = ("pc", "region", "loop", "bulk", "insn_count", "elisions",
                 "source", "source_hash", "entries", "spans", "code",
                 "ram_base", "ram_limit", "flash_base", "flash_limit",
                 "pages", "env")

    def __init__(self, pc: int, region: int, loop: bool, bulk: bool,
                 elisions: List[Tuple[int, str, int]], source: str,
                 entries: List[tuple], spans: List[Tuple[int, int]],
                 code: List[Tuple[int, bytes]],
                 ram_base: int, ram_limit: int,
                 flash_base: int, flash_limit: int,
                 pages: Tuple[int, ...], env: Dict[str, Any]) -> None:
        self.pc = pc
        self.region = region
        self.loop = loop
        self.bulk = bulk
        self.insn_count = len(entries)
        #: ``(insn addr, "read"|"write", proven region)`` for every
        #: region-dispatch elision the generator performed on the
        #: strength of a PR-4 dataflow fact.
        self.elisions = elisions
        self.source = source
        self.source_hash = hashlib.sha256(source.encode()).hexdigest()
        self.entries = entries
        self.spans = spans
        #: ``(start, bytes)`` image of every instruction span — the
        #: validator loads these into its harness memory so the real
        #: handlers fetch the same extension words the generator baked
        #: into the source.
        self.code = code
        self.ram_base = ram_base
        self.ram_limit = ram_limit
        self.flash_base = flash_base
        self.flash_limit = flash_limit
        self.pages = pages
        #: The generation environment (held for the validator, which
        #: reuses the read-only bulk constants ``tdyn``/``tval``).
        self.env = env


class FusedCode:
    """A generated body, free of any core: what the translation cache
    (``_Template.fused`` in :mod:`repro.m68k.blockcore`) keeps so a
    later core binds the block without generating it again.

    ``handlers`` lists the instruction indices whose specialized
    handler the body calls (its ``h{k}`` names); ``tdyn``/``tval`` are
    the read-only token constants of a vectorized fill prelude, or
    ``None`` without one.
    """

    __slots__ = ("source", "loop", "bulk", "elisions", "handlers",
                 "tdyn", "tval", "spans", "code")

    def __init__(self, source: str, loop: bool, bulk: bool,
                 elisions: List[Tuple[int, str, int]],
                 handlers: Tuple[int, ...], tdyn: Any, tval: Any,
                 spans: List[Tuple[int, int]],
                 code: List[Tuple[int, bytes]]) -> None:
        self.source = source
        self.loop = loop
        self.bulk = bulk
        self.elisions = elisions
        self.handlers = handlers
        self.tdyn = tdyn
        self.tval = tval
        self.spans = spans
        self.code = code


def build_fused(core: Any, block: Any) -> Any:
    """Bind ``block``'s fused body for ``core``, or ``False`` when
    unfusable.

    The body (or the unfusable verdict) is generated once per
    translation-cache entry and region-facts key; every later call
    binds the cached source to this core's environment, which
    ``instructions._CODE_CACHE`` makes an ``exec`` of an
    already-compiled code object.
    """
    tpl = block.tpl
    key: tuple = ()
    if block.region == 1 and core.facts:
        facts = core.facts
        key = tuple(facts.get(entry[0]) for entry in block.entries)
        if all(fact is None for fact in key):
            key = ()
    if key in tpl.fused:
        fc = tpl.fused[key]
        if fc is None:
            return False
        core.fused_bound += 1
    else:
        try:
            fc = _Fuser(core.mem, block,
                        core.facts if key else {}).build()
        except _Unfusable:
            fc = None
        tpl.fused[key] = fc
        if fc is None:
            return False
    return _bind(core, block, fc)


def _bind(core: Any, block: Any, fc: FusedCode) -> Any:
    """Specialize ``fc`` for ``core``: its trace list, write watch,
    memory arms and this block, plus the handlers the body calls."""
    mem = core.mem
    tracer = core._fuse_tracer
    env: Dict[str, Any] = {
        "append": tracer._pending.append,
        "extend": tracer._pending.extend,
        "wpages": core.watch.pages,
        "whit": core.watch.hit,
        "block": block,
        "AddressError": AddressError,
        "_shift": _shift,
        "br1": mem.read8, "br2": mem.read16, "br4": mem.read32,
        "bw1": mem.write8, "bw2": mem.write16, "bw4": mem.write32,
        "ram": mem._ram_data,
        "flash": mem._flash_data,
        "pk2": _ST2.pack_into, "pk4": _ST4.pack_into,
        "up2": _ST2.unpack_from, "up4": _ST4.unpack_from,
    }
    entries = block.entries
    for k in fc.handlers:
        env[f"h{k}"] = entries[k][4]
    if fc.bulk:
        env["np"] = np
        env["bulk"] = tracer.bulk_references
        env["wdis"] = core.watch.pages.isdisjoint
        env["tdyn"] = fc.tdyn
        env["tval"] = fc.tval
    block.prov = FuseProvenance(
        block.pc, block.region, fc.loop, fc.bulk, fc.elisions, fc.source,
        entries, fc.spans, fc.code, mem._ram_base, mem.ram_limit,
        mem._flash_base, mem.flash_limit, tuple(block.pages), env)
    return _specialize(fc.source, env, name=f"<fused:{block.pc:#x}>")


def _sxb(expr: str) -> str:
    return f"((({expr}) ^ 0x80) - 0x80)"


def _sxw(expr: str) -> str:
    return f"((({expr}) ^ 0x8000) - 0x8000)"


def _sext(value: int, size: int) -> int:
    """Codegen-time sext32 (unsigned 32-bit result)."""
    mask = MASKS[size]
    value &= mask
    if value & MSBS[size]:
        value |= ~mask & M32
    return value


def _lit(v: Addr) -> str:
    return f"{v:#x}" if isinstance(v, int) else v


class _Fuser:
    """Single-use code generator for one superblock.

    Generation reads only the block's code bytes, the memory geometry
    and ``facts``, never a core: its :class:`FusedCode` is valid for
    every core whose memory holds the same bytes.
    """

    def __init__(self, mem: Any, block: Any,
                 facts: Dict[int, Tuple[Optional[int], Optional[int]]],
                 ) -> None:
        self.mem = mem
        self.block = block
        self.region: int = block.region
        self.entries: List[tuple] = block.entries
        self.N = len(self.entries)
        self.ram_base: int = mem._ram_base
        self.ram_limit: int = mem.ram_limit
        self.flash_base: int = mem._flash_base
        self.flash_limit: int = mem.flash_limit
        #: Region facts are consulted only for flash-resident code
        #: (immutable during replay; SMC in RAM could invalidate them);
        #: the caller passes none for RAM blocks.
        self.facts = facts
        #: Instruction indices whose handler the body calls (``h{k}``).
        self.handlers: List[int] = []
        #: Token constants of the vectorized fill prelude.
        self.tdyn: Any = None
        self.tval: Any = None
        self.lines: List[str] = []
        #: Region-dispatch elisions performed on dataflow facts,
        #: recorded for the provenance/audit trail.
        self.elisions: List[Tuple[int, str, int]] = []
        self.level = 1
        #: Statically-known trace tokens awaiting one batched append.
        self.pend: List[int] = []
        #: Pending (deferred) flag-update statements, flag -> stmt.
        #: Statements reference only literals and per-insn temps, so
        #: they stay valid at any later emission site.
        self.flags: Dict[str, str] = {}
        #: Cycles accumulated since ``cyc`` last matched ``cpu.cycles``.
        self.S = 0
        self.loop = False
        self.k = 0            # current instruction index
        self.addr = 0         # current instruction address
        self.exts = 0         # extension words consumed so far
        self.sl_init = False  # ``sl = 0`` emitted for this insn
        self.sl_used = False  # any arm may set ``sl = 1``
        self._fetch: Callable[[int], int] = lambda a: 0
        #: Vectorized fill-loop prelude (see :meth:`_detect_bulk`).
        self.bulk_info: Optional[Dict[str, Any]] = None
        self.bulk_at = 0      # prelude insertion index into ``lines``
        self.bulk_S = 0       # cycles of one full loop iteration

    # -- low-level emission ---------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append("    " * self.level + line)

    def push(self) -> None:
        self.level += 1

    def pop(self) -> None:
        self.level -= 1

    def _exe(self, count: int) -> str:
        """Expression for ``ex[0]`` after ``count`` insns this pass."""
        if not self.loop:
            return str(count)
        return f"n + {count}" if count else "n"

    def _tok(self, at: int) -> int:
        return (at & M32) | (self.region << 36)

    def _pend_tok(self, token: int) -> None:
        self.pend.append(token)

    def _pend_copies(self) -> None:
        if len(self.pend) == 1:
            self.emit(f"append({self.pend[0]:#x})")
        elif self.pend:
            toks = ", ".join(f"{t:#x}" for t in self.pend)
            self.emit(f"extend(({toks}))")

    def _flush_pend(self) -> None:
        self._pend_copies()
        self.pend.clear()

    def _flag_copies(self, which: Optional[Tuple[str, ...]] = None) -> None:
        for fl in _FLAG_ORDER:
            stmt = self.flags.get(fl)
            if stmt and (which is None or fl in which):
                self.emit(stmt)

    def _materialize(self, which: Optional[Tuple[str, ...]] = None) -> None:
        self._flag_copies(which)
        if which is None:
            self.flags.clear()
        else:
            for fl in which:
                self.flags.pop(fl, None)

    def _sync_state(self, pc_val: Addr, exe: str) -> None:
        self.emit(f"cpu.pc = {_lit(pc_val)}")
        self.emit(f"cpu.cycles = cyc + {self.S}" if self.S
                  else "cpu.cycles = cyc")
        self.emit(f"ex[0] = {exe}")

    def _escape_return(self, pc_val: Addr, exe: str,
                       ret: str = "return") -> None:
        """Full early-exit block: commit pending flags/tokens (as
        copies — other runtime paths flush the same state later),
        synchronize, leave."""
        self._flag_copies()
        self._pend_copies()
        self._sync_state(pc_val, exe)
        self.emit(ret)

    def _cur_pc(self) -> int:
        return (self.addr + 2 + 2 * self.exts) & M32

    def _gate(self, k: int) -> None:
        """Per-insn cycle-budget gate (the stepping loop re-checks the
        budget before every instruction; scheduling boundaries must
        land on the same instruction)."""
        if k == 0 and not self.loop:
            return  # the dispatcher checked the budget this same cycle
        self.emit(f"if cyc + {self.S} >= limit:" if self.S
                  else "if cyc >= limit:")
        self.push()
        self._escape_return(self.entries[k][0], self._exe(k))
        self.pop()

    def _ensure_sl(self) -> None:
        if not self.sl_init:
            self.emit("sl = 0")
            self.sl_init = True

    # -- extension words -------------------------------------------------
    def _ext16(self) -> int:
        at = self._cur_pc()
        self._pend_tok(self._tok(at))
        self.S += 4
        self.exts += 1
        return self._fetch(at)

    def _ext32(self) -> int:
        hi = self._ext16()
        lo = self._ext16()
        return (hi << 16) | lo

    # -- effective addresses ---------------------------------------------
    def _addr_of(self, k: int, mode: int, reg: int, size: int,
                 hint: str) -> Optional[Addr]:
        """Emit the address computation for modes 2-5/7.0-7.2; returns
        the address as a var name or codegen-time int, or ``None`` for
        the indexed modes (which stay on the handler path)."""
        if mode == 2:
            self.emit(f"{hint} = a[{reg}]")
            return hint
        if mode == 3:
            inc = 2 if (size == 1 and reg == 7) else size
            self.emit(f"{hint} = a[{reg}]")
            self.emit(f"a[{reg}] = ({hint} + {inc}) & {M32:#x}")
            return hint
        if mode == 4:
            dec = 2 if (size == 1 and reg == 7) else size
            self.emit(f"{hint} = (a[{reg}] - {dec}) & {M32:#x}")
            self.emit(f"a[{reg}] = {hint}")
            return hint
        if mode == 5:
            disp = _sext(self._ext16(), 2)
            sd = disp - 0x100000000 if disp & 0x80000000 else disp
            self.emit(f"{hint} = (a[{reg}] + {sd}) & {M32:#x}")
            return hint
        if mode == 7 and reg == 0:
            return _sext(self._ext16(), 2)
        if mode == 7 and reg == 1:
            return self._ext32()
        if mode == 7 and reg == 2:
            base = self._cur_pc()
            return (base + _sext(self._ext16(), 2)) & M32
        return None

    # -- load/store byte lanes -------------------------------------------
    def _off(self, off: Addr, i: int) -> str:
        if isinstance(off, int):
            return f"{off + i:#x}"
        return f"{off} + {i}" if i else off

    def _emit_load(self, v: str, arr: str, off: Addr, size: int) -> None:
        # struct unpack/pack beat explicit byte lanes ~2.5x on the
        # multi-byte sizes; bytes stay direct indexing.
        if size == 1:
            self.emit(f"{v} = {arr}[{self._off(off, 0)}]")
        elif size == 2:
            self.emit(f"{v} = up2({arr}, {_lit(off)})[0]")
        else:
            self.emit(f"{v} = up4({arr}, {_lit(off)})[0]")

    def _emit_store(self, arr: str, off: Addr, size: int, val: str) -> None:
        if size == 1:
            self.emit(f"{arr}[{self._off(off, 0)}] = {val}")
        elif size == 2:
            self.emit(f"pk2({arr}, {_lit(off)}, {val})")
        else:
            self.emit(f"pk4({arr}, {_lit(off)}, {val})")

    # -- memory access arms ----------------------------------------------
    # Each arm reproduces the corresponding ``MemoryMap`` inline path
    # exactly: trace token(s), then (writes) the watch-page check, then
    # the alignment check, then the byte lanes.  Anything outside the
    # narrow in-bounds window falls back to the real bus method with
    # the CPU state fully synchronized first — straddles, hardware
    # registers, flash writes and bus errors then behave identically
    # to the interpreted path, which exits the block after the insn.
    def _align_escape(self, q: Addr, size: int, P: int, exe: str) -> None:
        self.emit(f"if {_lit(q)} & 1:")
        self.push()
        self._flag_copies()
        self._sync_state(P, exe)
        self.emit(f"raise AddressError({_lit(q)}, {size})")
        self.pop()

    def _fallback_read(self, q: Addr, size: int, v: str, P: int,
                       exe: str) -> None:
        self._flag_copies()
        self._sync_state(P, exe)
        self.emit(f"{v} = {_BR[size]}({_lit(q)})")
        self.emit("sl = 1")
        self.sl_used = True

    def _fallback_write(self, q: Addr, size: int, val: str, P: int,
                        exe: str) -> None:
        self._flag_copies()
        self._sync_state(P, exe)
        self.emit(f"{_BW[size]}({_lit(q)}, {val})")
        self.emit("sl = 1")
        self.sl_used = True

    def _emit_toks(self, pref: List[int], dyn: List[str]) -> None:
        """One batched trace append covering the queued static tokens
        plus this access's runtime token expressions."""
        items = [f"{t:#x}" for t in pref] + dyn
        if len(items) == 1:
            self.emit(f"append({items[0]})")
        elif items:
            self.emit(f"extend(({', '.join(items)}))")

    def _ram_read_body(self, k: int, q: Addr, size: int, v: str, P: int,
                      exe: str, static: bool,
                      pref: List[int] = []) -> None:
        kb = _KB_READ[0]
        if static:
            assert isinstance(q, int)
            self._pend_tok(q | kb)
            if size == 4:
                self._pend_tok((q + 2) | kb)
        else:
            dyn = [f"{_lit(q)} | {kb:#x}"]
            if size == 4:
                dyn.append(f"({_lit(q)} + 2) | {kb:#x}")
            self._emit_toks(pref, dyn)
            if size > 1:
                self._align_escape(q, size, P, exe)
        off: Addr = (q - self.ram_base if isinstance(q, int)
                     else (q if self.ram_base == 0
                           else f"{q} - {self.ram_base:#x}"))
        self._emit_load(v, "ram", off, size)

    def _flash_read_body(self, k: int, q: Addr, size: int, v: str, P: int,
                         exe: str, static: bool,
                         pref: List[int] = []) -> None:
        kb = _KB_READ[1]
        if static:
            assert isinstance(q, int)
            self._pend_tok(q | kb)
            if size == 4:
                self._pend_tok((q + 2) | kb)
            self._emit_load(v, "flash", q - self.flash_base, size)
            return
        dyn = [f"{_lit(q)} | {kb:#x}"]
        if size == 4:
            dyn.append(f"({_lit(q)} + 2) | {kb:#x}")
        self._emit_toks(pref, dyn)
        if size > 1:
            self._align_escape(q, size, P, exe)
        self.emit(f"o{k} = {_lit(q)} - {self.flash_base:#x}")
        self._emit_load(v, "flash", f"o{k}", size)

    def _arm_read(self, k: int, q: Addr, size: int, v: str,
                  fact: Optional[int]) -> None:
        self.S += 8 if size == 4 else 4
        P = self._cur_pc()
        exe = self._exe(k + 1)
        if isinstance(q, int):
            if size > 1 and q & 1:
                raise _Unfusable      # static misalignment: stay interpreted
            if q + size <= self.ram_limit:
                self._ram_read_body(k, q, size, v, P, exe, static=True)
                return
            if self.flash_base <= q and q + size <= self.flash_limit:
                self._flash_read_body(k, q, size, v, P, exe, static=True)
                return
            self._ensure_sl()
            self._flush_pend()
            self._fallback_read(q, size, v, P, exe)
            return
        self._ensure_sl()
        pref = self.pend[:]
        self.pend.clear()
        if fact is not None:
            self.elisions.append((self.addr, "read", fact))
        if fact == 0:
            self._ram_read_body(k, q, size, v, P, exe, static=False,
                                pref=pref)
            return
        if fact == 1:
            self._flash_read_body(k, q, size, v, P, exe, static=False,
                                  pref=pref)
            return
        if fact is not None:
            self._emit_toks(pref, [])
            self._fallback_read(q, size, v, P, exe)
            return
        self.emit(f"if {q} <= {self.ram_limit - size:#x}:")
        self.push()
        self._ram_read_body(k, q, size, v, P, exe, static=False, pref=pref)
        self.pop()
        self.emit(f"elif {self.flash_base:#x} <= {q}"
                  f" <= {self.flash_limit - size:#x}:")
        self.push()
        self._flash_read_body(k, q, size, v, P, exe, static=False, pref=pref)
        self.pop()
        self.emit("else:")
        self.push()
        self._emit_toks(pref, [])
        self._fallback_read(q, size, v, P, exe)
        self.pop()

    def _ram_write_body(self, k: int, q: Addr, size: int, val: str, P: int,
                        exe: str, static: bool,
                        pref: List[int] = []) -> None:
        kb = _KB_WRITE
        if static:
            assert isinstance(q, int)
            self._pend_tok(q | kb)
            if size == 4:
                self._pend_tok((q + 2) | kb)
        else:
            dyn = [f"{_lit(q)} | {kb:#x}"]
            if size == 4:
                dyn.append(f"({_lit(q)} + 2) | {kb:#x}")
            self._emit_toks(pref, dyn)
        # Write-watch page check (code invalidation): hits exit the
        # block after this instruction completes.
        if isinstance(q, int):
            p1, p2 = q >> 8, (q + size - 1) >> 8
            if size == 4 and p2 != p1:
                self.emit(f"if {p1:#x} in wpages or {p2:#x} in wpages:")
            else:
                self.emit(f"if {p1:#x} in wpages:")
        elif size == 4:
            self.emit(f"if ({q} >> 8) in wpages"
                      f" or (({q} + 2) >> 8) in wpages:")
        else:
            self.emit(f"if ({q} >> 8) in wpages:")
        self.push()
        self.emit(f"whit({_lit(q)})")
        if size == 4:
            self.emit(f"whit({_lit(q)} + 2)")
        self.emit("sl = 1")
        self.pop()
        self.sl_used = True
        if size > 1 and not static:
            self._align_escape(q, size, P, exe)
        off: Addr = (q - self.ram_base if isinstance(q, int)
                     else (q if self.ram_base == 0
                           else f"{q} - {self.ram_base:#x}"))
        self._emit_store("ram", off, size, val)

    def _arm_write(self, k: int, q: Addr, size: int, val: str,
                   fact: Optional[int]) -> None:
        self.S += 8 if size == 4 else 4
        P = self._cur_pc()
        exe = self._exe(k + 1)
        self._ensure_sl()
        if isinstance(q, int):
            if size > 1 and q & 1:
                raise _Unfusable
            if q + size <= self.ram_limit:
                self._ram_write_body(k, q, size, val, P, exe, static=True)
                return
            self._flush_pend()
            self._fallback_write(q, size, val, P, exe)
            return
        pref = self.pend[:]
        self.pend.clear()
        if fact is not None:
            self.elisions.append((self.addr, "write", fact))
        if fact == 0:
            self._ram_write_body(k, q, size, val, P, exe, static=False,
                                 pref=pref)
            return
        if fact is not None:
            self._emit_toks(pref, [])
            self._fallback_write(q, size, val, P, exe)
            return
        self.emit(f"if {q} <= {self.ram_limit - size:#x}:")
        self.push()
        self._ram_write_body(k, q, size, val, P, exe, static=False, pref=pref)
        self.pop()
        self.emit("else:")
        self.push()
        self._emit_toks(pref, [])
        self._fallback_write(q, size, val, P, exe)
        self.pop()

    # -- pending flag recipes --------------------------------------------
    def _set_flags_logic(self, rv: Addr, size: int) -> None:
        msb = MSBS[size]
        if isinstance(rv, int):
            self.flags["n"] = f"cpu.n = {1 if rv & msb else 0}"
            self.flags["z"] = f"cpu.z = {1 if rv == 0 else 0}"
        else:
            self.flags["n"] = f"cpu.n = 1 if {rv} & {msb:#x} else 0"
            self.flags["z"] = f"cpu.z = 1 if {rv} == 0 else 0"
        self.flags["v"] = "cpu.v = 0"
        self.flags["c"] = "cpu.c = 0"

    def _set_flags_add(self, u: str, s: Addr, t: str, r: str,
                       size: int) -> None:
        mask, msb = MASKS[size], MSBS[size]
        self.flags["c"] = f"cpu.c = 1 if {t} > {mask:#x} else 0"
        self.flags["x"] = f"cpu.x = 1 if {t} > {mask:#x} else 0"
        self.flags["v"] = (f"cpu.v = 1 if (~({u} ^ {_lit(s)}))"
                           f" & ({u} ^ {r}) & {msb:#x} else 0")
        self.flags["n"] = f"cpu.n = 1 if {r} & {msb:#x} else 0"
        self.flags["z"] = f"cpu.z = 1 if {r} == 0 else 0"

    def _set_flags_sub(self, u: str, s: Addr, r: str, size: int,
                       with_x: bool) -> None:
        msb = MSBS[size]
        self.flags["c"] = f"cpu.c = 1 if {_lit(s)} > {u} else 0"
        if with_x:
            self.flags["x"] = f"cpu.x = 1 if {_lit(s)} > {u} else 0"
        self.flags["v"] = (f"cpu.v = 1 if ({u} ^ {_lit(s)})"
                           f" & ({u} ^ {r}) & {msb:#x} else 0")
        self.flags["n"] = f"cpu.n = 1 if {r} & {msb:#x} else 0"
        self.flags["z"] = f"cpu.z = 1 if {r} == 0 else 0"

    # -- instruction families --------------------------------------------
    def _fact(self, insn: Insn) -> Tuple[Optional[int], Optional[int]]:
        fact = self.facts.get(insn.addr) if self.facts else None
        return fact if fact is not None else (None, None)

    def _writeback_d(self, reg: int, r: str, size: int) -> None:
        if size == 4:
            self.emit(f"d[{reg}] = {r}")
        else:
            self.emit(f"d[{reg}] = (d[{reg}] & {_INV[size]:#x}) | {r}")

    def _src_value(self, k: int, mode: int, reg: int, size: int,
                   fact: Optional[int]) -> Optional[Addr]:
        """Emit a source-operand read; returns its value as a var name
        or codegen-time literal (callers pre-check the indexed modes,
        so no tokens/cycles leak before a handler bail-out)."""
        mask = MASKS[size]
        if mode == 0:
            s = f"s{k}"
            self.emit(f"{s} = d[{reg}] & {mask:#x}" if size < 4
                      else f"{s} = d[{reg}]")
            return s
        if mode == 1:
            if size == 1:
                return None
            s = f"s{k}"
            self.emit(f"{s} = a[{reg}] & 0xFFFF" if size == 2
                      else f"{s} = a[{reg}]")
            return s
        if mode == 7 and reg == 4:
            return self._ext32() if size == 4 else (self._ext16() & mask)
        q = self._addr_of(k, mode, reg, size, f"q{k}")
        if q is None:
            return None
        v = f"v{k}"
        self._arm_read(k, q, size, v, fact)
        return v

    def _call_handler(self, k: int, insn: Insn) -> str:
        """Bridge to the specialized per-opcode handler: fully commit
        generated state, call, then re-verify pc/validity/irq exactly
        as the interpreted loop's per-entry checks would."""
        h = f"h{k}"
        self.handlers.append(k)
        self._flush_pend()
        self._materialize()
        self.emit(f"cpu.pc = {(self.addr + 2) & M32:#x}")
        self.emit(f"cpu.cycles = cyc + {self.S}")
        self.emit(f"ex[0] = {self._exe(k + 1)}")
        self.emit(f"{h}(cpu)")
        self.exts = (insn.length - 2) >> 1
        if k + 1 >= self.N:
            return "term"
        nxt = self.entries[k + 1][0]
        self.emit(f"if cpu.pc != {nxt:#x} or not block.valid:")
        self.push()
        self.emit("return")
        self.pop()
        self.emit("irq = cpu.pending_irq")
        self.emit("if irq and (irq > cpu.imask or irq == 7):")
        self.push()
        self.emit("return")
        self.pop()
        self.emit("cyc = cpu.cycles")
        self.S = 0
        return "fall"

    def _moveq(self, k: int, op: int) -> str:
        val = _sext(op & 0xFF, 1)
        self.emit(f"d[{(op >> 9) & 7}] = {val:#x}")
        self._set_flags_logic(val, 4)
        return "fall"

    def _move(self, k: int, insn: Insn, op: int) -> str:
        size = {1: 1, 3: 2, 2: 4}[op >> 12]
        smode, sreg = (op >> 3) & 7, op & 7
        dmode, dreg = (op >> 6) & 7, (op >> 9) & 7
        if smode == 6 or (smode == 7 and sreg == 3) or dmode == 6:
            return self._call_handler(k, insn)
        if (smode == 7 and sreg > 4) or (dmode == 7 and dreg >= 2):
            return self._call_handler(k, insn)   # invalid encodings
        if size == 1 and (smode == 1 or dmode == 1):
            return self._call_handler(k, insn)
        fr, fw = self._fact(insn)
        mask = MASKS[size]
        src: Addr
        if smode == 0:
            src = f"s{k}"
            self.emit(f"{src} = d[{sreg}] & {mask:#x}" if size < 4
                      else f"{src} = d[{sreg}]")
        elif smode == 1:
            src = f"s{k}"
            self.emit(f"{src} = a[{sreg}] & 0xFFFF" if size == 2
                      else f"{src} = a[{sreg}]")
        elif smode == 7 and sreg == 4:
            src = self._ext32() if size == 4 else (self._ext16() & mask)
        else:
            q = self._addr_of(k, smode, sreg, size, f"q{k}")
            if q is None:
                raise _Unfusable
            src = f"v{k}"
            self._arm_read(k, q, size, src, fr)
        if dmode == 0:
            if size == 4:
                self.emit(f"d[{dreg}] = {_lit(src)}")
            else:
                self.emit(f"d[{dreg}] = (d[{dreg}] & {_INV[size]:#x})"
                          f" | {_lit(src)}")
        elif dmode == 1:
            # movea: address-register sign extension, no flags.
            if size == 4:
                self.emit(f"a[{dreg}] = {_lit(src)}")
            elif isinstance(src, int):
                self.emit(f"a[{dreg}] = {_sext(src, 2):#x}")
            else:
                self.emit(f"a[{dreg}] = {_sxw(src)} & {M32:#x}")
            return "fall"
        else:
            p = self._addr_of(k, dmode, dreg, size, f"p{k}")
            if p is None:
                raise _Unfusable
            self._arm_write(k, p, size, _lit(src), fw)
        self._set_flags_logic(src, size)
        return "fall"

    def _backedge(self, copies: bool) -> None:
        """Loop re-entry: commit flags/tokens, fold the iteration's
        cycles and instruction count, go round again.  ``copies`` when
        another runtime path (branch fallthrough) still needs the same
        pending state afterwards."""
        self.bulk_S = self.S
        if copies:
            self._flag_copies()
            self._pend_copies()
        else:
            self._materialize()
            self._flush_pend()
        if self.S:
            self.emit(f"cyc += {self.S}")
        self.emit(f"n += {self.N}")
        self.emit("continue")

    def _branch(self, k: int, insn: Insn, op: int) -> str:
        cc = (op >> 8) & 15
        if cc == 1:                      # bsr: call, always terminal
            return self._call_handler(k, insn)
        if op & 0xFF == 0:
            self._ext16()                # word displacement
        target = (insn.target or 0) & M32
        last = k + 1 >= self.N
        is_backedge = self.loop and last and target == self.block.pc
        if cc == 0:                      # bra
            if is_backedge:
                self._backedge(copies=False)
                return "term"
            if not last and self.entries[k + 1][0] == target:
                return "fall"            # chained: next entry IS the target
            self._materialize()
            self._flush_pend()
            self._sync_state(target, self._exe(self.N))
            self.emit("return")
            return "term"
        self._materialize(_CC_READS[cc])
        self.emit(f"if {COND_EXPRS[cc]}:")
        self.push()
        if is_backedge:
            self._backedge(copies=True)
        else:
            self._escape_return(target, self._exe(k + 1))
        self.pop()
        return "fall"

    def _group5(self, k: int, insn: Insn, op: int) -> str:
        szbits = (op >> 6) & 3
        mode, reg = (op >> 3) & 7, op & 7
        if szbits == 3:
            cc = (op >> 8) & 15
            if mode == 1:                # dbcc
                self._ext16()
                target = (insn.target or 0) & M32
                self._materialize(_CC_READS[cc])
                t = f"t{k}"

                def dec_and_branch() -> None:
                    self.emit(f"{t} = (d[{reg}] - 1) & 0xFFFF")
                    self.emit(f"d[{reg}] = (d[{reg}] & 0xFFFF0000) | {t}")
                    self.emit(f"if {t} != 0xFFFF:")
                    self.push()
                    if (self.loop and k + 1 >= self.N
                            and target == self.block.pc):
                        self._backedge(copies=True)
                    else:
                        self._escape_return(target, self._exe(k + 1))
                    self.pop()

                if cc == 0:              # dbt: never decrements
                    pass
                elif cc == 1:            # dbf/dbra
                    dec_and_branch()
                else:
                    self.emit(f"if not ({COND_EXPRS[cc]}):")
                    self.push()
                    dec_and_branch()
                    self.pop()
                return "fall"
            if mode == 0:                # scc dn
                self._materialize(_CC_READS[cc])
                if cc == 0:
                    self.emit(f"d[{reg}] = (d[{reg}] & 0xFFFFFF00) | 255")
                elif cc == 1:
                    self.emit(f"d[{reg}] = d[{reg}] & 0xFFFFFF00")
                else:
                    self.emit(f"d[{reg}] = (d[{reg}] & 0xFFFFFF00)"
                              f" | (255 if {COND_EXPRS[cc]} else 0)")
                return "fall"
            return self._call_handler(k, insn)
        # addq/subq
        size = SIZE_BY_BITS[szbits]
        mask = MASKS[size]
        data = ((op >> 9) & 7) or 8
        sub = bool(op & 0x0100)
        if mode == 0:
            u, t, r = f"u{k}", f"t{k}", f"r{k}"
            self.emit(f"{u} = d[{reg}] & {mask:#x}" if size < 4
                      else f"{u} = d[{reg}]")
            if sub:
                self.emit(f"{r} = ({u} - {data}) & {mask:#x}")
                self._set_flags_sub(u, data, r, size, with_x=True)
            else:
                self.emit(f"{t} = {u} + {data}")
                self.emit(f"{r} = {t} & {mask:#x}")
                self._set_flags_add(u, data, t, r, size)
            self._writeback_d(reg, r, size)
            return "fall"
        if mode == 1 and size >= 2:      # whole register, no flags
            oper = "-" if sub else "+"
            self.emit(f"a[{reg}] = (a[{reg}] {oper} {data}) & {M32:#x}")
            return "fall"
        return self._call_handler(k, insn)

    def _group0(self, k: int, insn: Insn, op: int) -> str:
        if op & 0x0100:                  # dynamic bit ops / movep
            return self._call_handler(k, insn)
        kind = (op >> 9) & 7
        szbits = (op >> 6) & 3
        mode, reg = (op >> 3) & 7, op & 7
        if kind == 4 or szbits == 3:     # static bit ops
            return self._call_handler(k, insn)
        if mode == 7 and reg == 4:       # to ccr/sr forms
            return self._call_handler(k, insn)
        size = SIZE_BY_BITS[szbits]
        mask = MASKS[size]
        if mode == 0:
            imm = (self._ext32() if size == 4
                   else (self._ext16() & mask))
            u, t, r = f"u{k}", f"t{k}", f"r{k}"
            self.emit(f"{u} = d[{reg}] & {mask:#x}" if size < 4
                      else f"{u} = d[{reg}]")
            if kind == 6:                # cmpi
                self.emit(f"{r} = ({u} - {imm:#x}) & {mask:#x}")
                self._set_flags_sub(u, imm, r, size, with_x=False)
                return "fall"
            if kind in (0, 1, 5):        # ori/andi/eori
                oper = {0: "|", 1: "&", 5: "^"}[kind]
                self.emit(f"{r} = {u} {oper} {imm:#x}")
                self._set_flags_logic(r, size)
            elif kind == 2:              # subi
                self.emit(f"{r} = ({u} - {imm:#x}) & {mask:#x}")
                self._set_flags_sub(u, imm, r, size, with_x=True)
            else:                        # addi
                self.emit(f"{t} = {u} + {imm:#x}")
                self.emit(f"{r} = {t} & {mask:#x}")
                self._set_flags_add(u, imm, t, r, size)
            self._writeback_d(reg, r, size)
            return "fall"
        if kind == 6 and mode != 6 and not (mode == 7 and reg == 3):
            # cmpi to memory: read-only, fusable
            imm = (self._ext32() if size == 4
                   else (self._ext16() & mask))
            fr, _fw = self._fact(insn)
            q = self._addr_of(k, mode, reg, size, f"q{k}")
            if q is None:
                raise _Unfusable
            v, r = f"v{k}", f"r{k}"
            self._arm_read(k, q, size, v, fr)
            self.emit(f"{r} = ({v} - {imm:#x}) & {mask:#x}")
            self._set_flags_sub(v, imm, r, size, with_x=False)
            return "fall"
        return self._call_handler(k, insn)

    def _group4(self, k: int, insn: Insn, op: int) -> str:
        if op == 0x4E71:                 # nop
            return "fall"
        mode, reg = (op >> 3) & 7, op & 7
        if op & 0xF1C0 == 0x41C0:        # lea
            if mode in (3, 4, 6) or (mode == 7 and reg >= 3):
                return self._call_handler(k, insn)
            q = self._addr_of(k, mode, reg, 4, f"q{k}")
            if q is None:
                raise _Unfusable
            self.emit(f"a[{(op >> 9) & 7}] = {_lit(q)}")
            return "fall"
        if op & 0xFFF8 == 0x4840:        # swap
            t = f"t{k}"
            self.emit(f"{t} = ((d[{reg}] >> 16) | (d[{reg}] << 16))"
                      f" & {M32:#x}")
            self.emit(f"d[{reg}] = {t}")
            self._set_flags_logic(t, 4)
            return "fall"
        if op & 0xFFB8 == 0x4880 and mode == 0:  # ext.w / ext.l
            t = f"t{k}"
            if op & 0x0040:
                self.emit(f"{t} = (((d[{reg}] & 0xFFFF) ^ 0x8000)"
                          f" - 0x8000) & {M32:#x}")
                self.emit(f"d[{reg}] = {t}")
                self._set_flags_logic(t, 4)
            else:
                self.emit(f"{t} = (((d[{reg}] & 0xFF) ^ 0x80)"
                          f" - 0x80) & 0xFFFF")
                self.emit(f"d[{reg}] = (d[{reg}] & 0xFFFF0000) | {t}")
                self._set_flags_logic(t, 2)
            return "fall"
        szbits = (op >> 6) & 3
        top = op & 0xFF00
        if szbits == 3 or top not in (0x4A00, 0x4200, 0x4600, 0x4400):
            return self._call_handler(k, insn)
        size = SIZE_BY_BITS[szbits]
        mask = MASKS[size]
        if top == 0x4A00:                # tst
            if mode == 0:
                s = f"s{k}"
                self.emit(f"{s} = d[{reg}] & {mask:#x}" if size < 4
                          else f"{s} = d[{reg}]")
                self._set_flags_logic(s, size)
                return "fall"
            if mode == 6 or (mode == 7 and reg >= 2):
                return self._call_handler(k, insn)
            fr, _fw = self._fact(insn)
            q = self._addr_of(k, mode, reg, size, f"q{k}")
            if q is None:
                raise _Unfusable
            v = f"v{k}"
            self._arm_read(k, q, size, v, fr)
            self._set_flags_logic(v, size)
            return "fall"
        if mode != 0:                    # clr/not/neg to memory: RMW
            return self._call_handler(k, insn)
        u, r = f"u{k}", f"r{k}"
        if top == 0x4200:                # clr
            self.emit(f"d[{reg}] = 0" if size == 4
                      else f"d[{reg}] = d[{reg}] & {_INV[size]:#x}")
            self.flags["n"] = "cpu.n = 0"
            self.flags["z"] = "cpu.z = 1"
            self.flags["v"] = "cpu.v = 0"
            self.flags["c"] = "cpu.c = 0"
            return "fall"
        self.emit(f"{u} = d[{reg}] & {mask:#x}" if size < 4
                  else f"{u} = d[{reg}]")
        if top == 0x4600:                # not
            self.emit(f"{r} = {u} ^ {mask:#x}")
            self._set_flags_logic(r, size)
        else:                            # neg
            self.emit(f"{r} = (-{u}) & {mask:#x}")
            msb = MSBS[size]
            self.flags["c"] = f"cpu.c = 1 if {u} else 0"
            self.flags["x"] = f"cpu.x = 1 if {u} else 0"
            self.flags["v"] = f"cpu.v = 1 if {u} & {r} & {msb:#x} else 0"
            self.flags["n"] = f"cpu.n = 1 if {r} & {msb:#x} else 0"
            self.flags["z"] = f"cpu.z = 1 if {r} == 0 else 0"
        self._writeback_d(reg, r, size)
        return "fall"

    def _arith(self, k: int, insn: Insn, op: int) -> str:
        group = op >> 12
        opmode = (op >> 6) & 7
        dreg = (op >> 9) & 7
        mode, reg = (op >> 3) & 7, op & 7
        fr, _fw = self._fact(insn)
        if opmode in (3, 7):             # adda/suba/cmpa (or mul/div)
            if group in (8, 0xC):
                return self._call_handler(k, insn)
            size = 2 if opmode == 3 else 4
            if mode == 6 or (mode == 7 and reg == 3):
                return self._call_handler(k, insn)
            src = self._src_value(k, mode, reg, size, fr)
            if src is None:
                return self._call_handler(k, insn)
            if group == 0xB:             # cmpa: compare as long
                w: Addr
                if size == 4:
                    w = src
                elif isinstance(src, int):
                    w = _sext(src, 2)
                else:
                    w = f"w{k}"
                    self.emit(f"{w} = {_sxw(src)} & {M32:#x}")
                u, r = f"u{k}", f"r{k}"
                self.emit(f"{u} = a[{dreg}]")
                self.emit(f"{r} = ({u} - {_lit(w)}) & {M32:#x}")
                self._set_flags_sub(u, w, r, 4, with_x=False)
                return "fall"
            oper = "+" if group == 0xD else "-"
            if size == 4:
                sx = _lit(src)
            elif isinstance(src, int):
                sx = f"{_sext(src, 2):#x}"
            else:
                sx = _sxw(src)
            self.emit(f"a[{dreg}] = (a[{dreg}] {oper} {sx}) & {M32:#x}")
            return "fall"
        if opmode < 3:
            size = SIZE_BY_BITS[opmode]
            mask = MASKS[size]
            if mode == 6 or (mode == 7 and reg == 3):
                return self._call_handler(k, insn)
            if group in (8, 0xC) and mode == 1:
                return self._call_handler(k, insn)   # An source illegal
            src = self._src_value(k, mode, reg, size, fr)
            if src is None:
                return self._call_handler(k, insn)
            u, t, r = f"u{k}", f"t{k}", f"r{k}"
            self.emit(f"{u} = d[{dreg}] & {mask:#x}" if size < 4
                      else f"{u} = d[{dreg}]")
            if group == 0xB:             # cmp
                self.emit(f"{r} = ({u} - {_lit(src)}) & {mask:#x}")
                self._set_flags_sub(u, src, r, size, with_x=False)
                return "fall"
            if group in (8, 0xC):        # or / and
                oper = "|" if group == 8 else "&"
                self.emit(f"{r} = {u} {oper} {_lit(src)}")
                self._set_flags_logic(r, size)
            elif group == 0xD:           # add
                self.emit(f"{t} = {u} + {_lit(src)}")
                self.emit(f"{r} = {t} & {mask:#x}")
                self._set_flags_add(u, src, t, r, size)
            else:                        # sub
                self.emit(f"{r} = ({u} - {_lit(src)}) & {mask:#x}")
                self._set_flags_sub(u, src, r, size, with_x=True)
            self._writeback_d(dreg, r, size)
            return "fall"
        if group == 0xB and mode == 0:   # eor dn,dn
            size = SIZE_BY_BITS[opmode - 4]
            mask = MASKS[size]
            u, r = f"u{k}", f"r{k}"
            self.emit(f"{u} = d[{reg}] & {mask:#x}" if size < 4
                      else f"{u} = d[{reg}]")
            self.emit(f"{r} = {u} ^ (d[{dreg}] & {mask:#x})" if size < 4
                      else f"{r} = {u} ^ d[{dreg}]")
            self._writeback_d(reg, r, size)
            self._set_flags_logic(r, size)
            return "fall"
        return self._call_handler(k, insn)

    def _shift_insn(self, k: int, insn: Insn, op: int) -> str:
        szbits = (op >> 6) & 3
        if szbits == 3:                  # memory shifts
            return self._call_handler(k, insn)
        size = SIZE_BY_BITS[szbits]
        mask = MASKS[size]
        reg = op & 7
        kind = (op >> 3) & 3
        left = bool(op & 0x0100)
        if op & 0x20:
            cnt = f"d[{(op >> 9) & 7}] & 63"
        else:
            cnt = str(((op >> 9) & 7) or 8)
        if kind == 2 or (kind != 3 and op & 0x20):
            # rox reads cpu.x; a register count of 0 leaves x untouched,
            # so a pending x must land before the call either way.
            self._materialize(("x",))
        # _shift stores NZVC (and X for kinds 0-2) into cpu directly:
        # drop stale pending recipes so they can't clobber it later.
        for fl in ("n", "z", "v", "c"):
            self.flags.pop(fl, None)
        if kind != 3:
            self.flags.pop("x", None)
        r = f"r{k}"
        val = f"d[{reg}] & {mask:#x}" if size < 4 else f"d[{reg}]"
        self.emit(f"{r} = _shift(cpu, {kind}, {left}, {val}, {cnt}, {size})")
        self._writeback_d(reg, f"({r} & {mask:#x})", size)
        return "fall"

    # -- vectorized fill loops --------------------------------------------
    def _detect_bulk(self, insns: List[Insn]) -> Optional[Dict[str, Any]]:
        """Recognize counted store loops — ``move.w/l dS,(aY)+`` one or
        more times, ``subq.l #1,dZ``, ``bne.s <entry>`` — the shape of
        guest ``memset``/blit inner loops that dominate replay time.

        Iterations of such a loop are summarizable: the data registers
        are loop-invariant, the store addresses advance arithmetically
        and the counter decrements by one, so a run of ``m`` complete
        iterations can be applied as one RAM slice assignment plus one
        pre-packed trace-token block, provided a single runtime check
        shows the whole range is aligned, in RAM, unwatched and within
        the cycle budget.  Anything outside that window falls through
        to the per-iteration body, which remains bit-exact on its own.
        """
        if not self.loop or self.N < 3:
            return None
        br = insns[-1].word
        if (br >> 12) != 6 or ((br >> 8) & 15) != 6 or (br & 0xFF) == 0:
            return None                 # one-word bne only
        sq = insns[-2].word
        if sq & 0xFFF8 != 0x5380:       # subq.l #1,dZ
            return None
        z = sq & 7
        areg: Optional[int] = None
        tpl: List[Tuple[bool, int]] = []
        pats: List[Tuple[int, int]] = []
        nb = 0
        for k, insn in enumerate(insns[:-2]):
            w = insn.word
            size = {3: 2, 2: 4}.get(w >> 12)
            if size is None or (w >> 3) & 7 != 0 or (w >> 6) & 7 != 3:
                return None             # move.w/l dS,(aY)+ only
            sreg = w & 7
            if sreg == z:
                return None             # source must be loop-invariant
            if areg is None:
                areg = (w >> 9) & 7
            elif (w >> 9) & 7 != areg:
                return None
            tpl.append((False, self.entries[k][2]))
            tpl.append((True, nb + _KB_WRITE))
            if size == 4:
                tpl.append((True, nb + 2 + _KB_WRITE))
            pats.append((sreg, size))
            nb += size
        tpl.append((False, self.entries[-2][2]))
        tpl.append((False, self.entries[-1][2]))
        return {"z": z, "areg": areg, "bytes": nb, "tpl": tpl,
                "pats": pats}

    def _splice_bulk(self) -> None:
        """Insert the bulk prelude between ``n = 0`` and ``while 1:``.

        ``bulk_S`` (one full iteration's cycles, captured at the
        backedge) bounds ``m`` so every bulked iteration would have
        cleared all of its per-insn budget gates; the leftover
        iterations (at least one — the loop-exit iteration sets the
        final flags and tokens through the ordinary body) run normally.
        The committed flags are those of the last bulk iteration's
        ``subq.l #1`` (``bne`` taken, since the counter is still > 0).
        """
        info = self.bulk_info
        assert info is not None
        S, N = self.bulk_S, self.N
        tpl = info["tpl"]
        self.tdyn = np.array(
            [1 if dyn else 0 for dyn, _v in tpl], dtype=np.uint64)
        self.tval = np.array([v for _dyn, v in tpl], dtype=np.uint64)
        self.tdyn.flags.writeable = False
        self.tval.flags.writeable = False
        z, ar, nb = info["z"], info["areg"], info["bytes"]
        pat = " + ".join(
            f"(d[{sr}] & 0xFFFF).to_bytes(2, 'big')" if sz == 2
            else f"d[{sr}].to_bytes(4, 'big')"
            for sr, sz in info["pats"])
        off = "" if self.ram_base == 0 else f" - {self.ram_base:#x}"
        body = [
            f"bc = d[{z}]",
            f"bm = (limit - cyc) // {S}",
            "if bm > bc - 1:",
            "    bm = bc - 1",
            f"ba = a[{ar}]",
            f"be = ba + {nb} * bm",
            f"if bm >= 12 and not ba & 1 and {self.ram_base:#x} <= ba"
            f" and be <= {self.ram_limit:#x}"
            " and wdis(range(ba >> 8, ((be - 1) >> 8) + 1)):",
            f"    ram[ba{off}:be{off}] = ({pat}) * bm",
            f"    bulk((np.arange(ba, be, {nb}, dtype=np.uint64)[:, None]"
            " * tdyn + tval).ravel())",
            f"    a[{ar}] = be",
            "    bv = bc - bm",
            f"    d[{z}] = bv",
            "    bu = bv + 1",
            "    cpu.n = bv >> 31",
            "    cpu.z = 0",
            "    cpu.v = 1 if (bu ^ 1) & (bu ^ bv) & 0x80000000 else 0",
            "    cpu.c = 0",
            "    cpu.x = 0",
            f"    cyc += {S} * bm",
            f"    n = bm * {N}",
        ]
        self.lines[self.bulk_at:self.bulk_at] = [
            "    " + ln for ln in body]

    # -- driver -----------------------------------------------------------
    def _emit_insn(self, k: int, insn: Insn) -> str:
        op = insn.word
        group = op >> 12
        if group == 7:
            return self._moveq(k, op)
        if group in (1, 2, 3):
            return self._move(k, insn, op)
        if group == 6:
            return self._branch(k, insn, op)
        if group == 5:
            return self._group5(k, insn, op)
        if group == 0:
            return self._group0(k, insn, op)
        if group == 4:
            return self._group4(k, insn, op)
        if group in (8, 9, 0xB, 0xC, 0xD):
            return self._arith(k, insn, op)
        if group == 0xE:
            return self._shift_insn(k, insn, op)
        return self._call_handler(k, insn)

    def build(self) -> FusedCode:
        mem = self.mem
        backing = mem.ram if self.region == 0 else mem.flash
        data = backing.data
        base = backing.base
        nbytes = len(data)

        def fetch(a: int) -> int:
            off = a - base
            if 0 <= off and off + 1 < nbytes:
                return (data[off] << 8) | data[off + 1]
            return 0

        self._fetch = fetch
        insns: List[Insn] = []
        for (addr, _nxt, _token, op, _handler) in self.entries:
            insn = decode_insn(fetch, addr)
            if insn.addr != addr or insn.word != op:
                raise _Unfusable
            insns.append(insn)
        last = insns[-1]
        self.loop = (last.kind in (K_BRANCH, K_CONDBRANCH)
                     and last.target == self.block.pc)
        self.emit("d = cpu.d")
        self.emit("a = cpu.a")
        self.emit("cyc = cpu.cycles")
        if self.loop:
            self.emit("n = 0")
            self.bulk_info = self._detect_bulk(insns)
            self.bulk_at = len(self.lines)
            self.emit("while 1:")
            self.push()
        status = "fall"
        for k, insn in enumerate(insns):
            self.k = k
            self.addr = insn.addr
            self.exts = 0
            self.sl_init = False
            self.sl_used = False
            self._gate(k)
            self._pend_tok(self.entries[k][2])
            self.S += 4
            status = self._emit_insn(k, insn)
            if status == "fall":
                if 2 + 2 * self.exts != insn.length:
                    raise _Unfusable    # ext accounting disagrees
                if self.sl_used:
                    self.emit("if sl:")
                    self.push()
                    self._escape_return(insn.end & M32, self._exe(k + 1))
                    self.pop()
        if status == "fall":
            self._materialize()
            self._flush_pend()
            self._sync_state(last.end & M32, self._exe(self.N))
            self.emit("return")
        if self.bulk_info is not None and self.bulk_S:
            self._splice_bulk()
        src = "def f(cpu, limit, ex):\n" + "\n".join(self.lines) + "\n"
        spans = [(insn.addr, insn.end) for insn in insns]
        code = [(start, bytes(data[start - base:stop - base]))
                for start, stop in spans]
        return FusedCode(src, self.loop,
                         self.bulk_info is not None and bool(self.bulk_S),
                         self.elisions, tuple(self.handlers),
                         self.tdyn, self.tval, spans, code)
