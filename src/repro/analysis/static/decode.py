"""Structural decoding of single 68000 instructions.

The CFG walker needs more than the disassembler's text: lengths,
control-flow successors, statically-known memory effects and stack
deltas.  :func:`decode_insn` produces an :class:`Insn` carrying all of
that.

Legality is **decoder-driven**: a word is illegal exactly when the
interpreter's dispatch table (:mod:`repro.m68k.decoder`) resolves it
to ``None`` — so the analyzer and the CPU can never disagree about
which words execute.  Asking builds just that word's slot.  The
instruction *length* accounting below mirrors the interpreter's
extension-word fetches; a test sweeps all 65536 words and checks it
against :func:`repro.m68k.disasm.disassemble_one`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ...m68k.decoder import resolve
from ...m68k.disasm import disassemble_one

M32 = 0xFFFFFFFF

# Instruction kinds (control-flow classification).
K_NORMAL = "normal"          # falls through
K_BRANCH = "branch"          # bra / jmp: one successor (maybe unknown)
K_CONDBRANCH = "condbranch"  # bcc / dbcc: target + fallthrough
K_CALL = "call"              # bsr / jsr: fallthrough + call edge
K_RETURN = "return"          # rts / rte / rtr: no successors
K_TRAP = "trap"              # A-line word: falls through (dispatcher resumes)
K_EMUCALL = "emucall"        # F-line word: falls through (host services it)
K_STOP = "stop"              # stop #imm: falls through after an interrupt
K_ILLEGAL = "illegal"        # no handler in the dispatch table
K_EXCEPTION = "exception"    # trap #n / illegal mnemonic: vectors away

def is_legal(op: int) -> bool:
    """True when the interpreter has a handler for this opcode word
    (A-line and F-line words count as legal: the emulator services
    them through its handlers)."""
    group = op >> 12
    if group in (0xA, 0xF):
        return True
    return resolve(op) is not None


@dataclass
class Insn:
    """One decoded instruction with its static effects."""

    addr: int
    word: int
    length: int
    text: str
    kind: str = K_NORMAL
    #: Statically-known control-flow target (branch/call), else None.
    target: Optional[int] = None
    #: True for jmp/jsr through a register or index (unknown target).
    indirect: bool = False
    #: A-line trap index (word & 0xFFF) when kind == K_TRAP.
    trap: Optional[int] = None
    #: F-line payload word (word & 0xFFF) when kind == K_EMUCALL.
    emucall: Optional[int] = None
    #: Statically-known absolute (addr, size) reads / writes.
    reads: List[Tuple[int, int]] = field(default_factory=list)
    writes: List[Tuple[int, int]] = field(default_factory=list)
    #: Net effect on A7 in bytes, or None when not statically known.
    sp_delta: Optional[int] = 0
    #: (frame_register, displacement) for link, register for unlk.
    link: Optional[Tuple[int, int]] = None
    unlk: Optional[int] = None

    @property
    def end(self) -> int:
        return self.addr + self.length

    def falls_through(self) -> bool:
        return self.kind in (K_NORMAL, K_CONDBRANCH, K_CALL, K_TRAP,
                             K_EMUCALL, K_STOP, K_EXCEPTION)


def _signed(value: int, bits: int) -> int:
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


class _Words:
    """Extension-word reader mirroring the interpreter's fetches."""

    def __init__(self, fetch: Callable[[int], int], addr: int):
        self._fetch = fetch
        self.addr = addr

    def u16(self) -> int:
        word = self._fetch(self.addr) & 0xFFFF
        self.addr += 2
        return word

    def u32(self) -> int:
        return (self.u16() << 16) | self.u16()


class _EA:
    """One decoded effective address."""

    __slots__ = ("mode", "reg", "abs_addr", "size")

    def __init__(self, mode: int, reg: int, abs_addr: Optional[int],
                 size: int):
        self.mode = mode
        self.reg = reg
        self.abs_addr = abs_addr  # statically-known address, else None
        self.size = size

    def sp_delta(self) -> int:
        """A7 side effect of evaluating this EA (postinc/predec)."""
        if self.reg != 7:
            return 0
        # On A7 byte-sized postinc/predec still move by 2 (the 68000
        # keeps the stack pointer word-aligned).
        step = max(self.size, 2)
        if self.mode == 3:
            return step
        if self.mode == 4:
            return -step
        return 0


def _read_ea(w: _Words, mode: int, reg: int, size: int) -> _EA:
    """Consume an EA's extension words; return its static address."""
    abs_addr: Optional[int] = None
    if mode == 5:                      # d16(An)
        w.u16()
    elif mode == 6:                    # d8(An,Xn)
        w.u16()
    elif mode == 7:
        if reg == 0:                   # (xxx).w
            abs_addr = _signed(w.u16(), 16) & M32
        elif reg == 1:                 # (xxx).l
            abs_addr = w.u32()
        elif reg == 2:                 # d16(PC)
            base = w.addr
            abs_addr = (base + _signed(w.u16(), 16)) & M32
        elif reg == 3:                 # d8(PC,Xn)
            w.u16()
        elif reg == 4:                 # #imm
            if size == 4:
                w.u32()
            else:
                w.u16()
    return _EA(mode, reg, abs_addr, size)


def _size_of(bits: int) -> int:
    return {0: 1, 1: 2, 2: 4}[bits]


def decode_insn(fetch: Callable[[int], int], addr: int,
                want_text: bool = True) -> Insn:
    """Decode the instruction at ``addr`` into an :class:`Insn`.

    ``fetch`` reads a 16-bit word.  Never raises: illegal words come
    back with ``kind == K_ILLEGAL`` and length 2.  ``want_text=False``
    skips the disassembly rendering (``text`` comes back empty) — the
    block-cache predecoder only needs lengths and kinds, and the text
    formatting dominates decode time.
    """
    w = _Words(fetch, addr)
    op = w.u16()
    group = op >> 12

    if group == 0xA:
        text = disassemble_one(fetch, addr)[0] if want_text else ""
        return Insn(addr, op, 2, text, kind=K_TRAP, trap=op & 0xFFF)
    if group == 0xF:
        text = disassemble_one(fetch, addr)[0] if want_text else ""
        return Insn(addr, op, 2, text, kind=K_EMUCALL, emucall=op & 0xFFF)
    if not is_legal(op):
        return Insn(addr, op, 2, f"dc.w ${op:04x}", kind=K_ILLEGAL)

    insn = Insn(addr, op, 2, "")
    _decode_structure(w, op, insn)
    insn.length = w.addr - addr
    if want_text:
        insn.text, _ = disassemble_one(fetch, addr)
    return insn


def _apply_ea_effects(insn: Insn, ea: _EA, *, read: bool = False,
                      write: bool = False) -> None:
    """Record an EA's static memory accesses and A7 side effects."""
    if ea.abs_addr is not None:
        if read:
            insn.reads.append((ea.abs_addr, ea.size))
        if write:
            insn.writes.append((ea.abs_addr, ea.size))
    if insn.sp_delta is not None:
        insn.sp_delta += ea.sp_delta()


def _decode_structure(w: _Words, op: int, insn: Insn) -> None:
    """Classify ``op`` and account for its extension words.

    Only called for words the dispatch table accepts, so the patterns
    below can assume interpreter-legal encodings.
    """
    group = op >> 12
    mode, reg = (op >> 3) & 7, op & 7
    szbits = (op >> 6) & 3

    # ---- fixed words -------------------------------------------------
    if op in (0x4E75, 0x4E73, 0x4E77):            # rts / rte / rtr
        insn.kind = K_RETURN
        insn.sp_delta = None
        return
    if op in (0x4E70, 0x4E71, 0x4E76):            # reset / nop / trapv
        return
    if op == 0x4AFC:                              # illegal (deliberate)
        insn.kind = K_EXCEPTION
        return
    if op == 0x4E72:                              # stop #imm
        w.u16()
        insn.kind = K_STOP
        return
    if op & 0xFFF0 == 0x4E40:                     # trap #n
        insn.kind = K_EXCEPTION
        return
    if op & 0xFFF8 == 0x4E50:                     # link An,#d
        disp = _signed(w.u16(), 16)
        insn.link = (reg, disp)
        insn.sp_delta = None                      # checker pairs link/unlk
        return
    if op & 0xFFF8 == 0x4E58:                     # unlk An
        insn.unlk = reg
        insn.sp_delta = None                      # checker pairs link/unlk
        return
    if op & 0xFFF0 == 0x4E60:                     # move An,usp / usp,An
        return

    # ---- group 1/2/3: move -------------------------------------------
    if group in (1, 2, 3):
        size = {1: 1, 3: 2, 2: 4}[group]
        src = _read_ea(w, mode, reg, size)
        dmode, dreg = (op >> 6) & 7, (op >> 9) & 7
        dst = _read_ea(w, dmode, dreg, size)
        _apply_ea_effects(insn, src, read=src.mode >= 2)
        _apply_ea_effects(insn, dst, write=dst.mode >= 2)
        if dst.mode == 1 and dreg == 7:           # movea to a7
            insn.sp_delta = None
        return

    # ---- group 0: immediates and bit ops -----------------------------
    if group == 0:
        if op & 0x0100:                           # dynamic bit op / movep
            if mode == 1:                         # movep
                w.u16()
                return
            btype = (op >> 6) & 3
            ea = _read_ea(w, mode, reg, 1)
            _apply_ea_effects(insn, ea, read=ea.mode >= 2,
                              write=btype != 0 and ea.mode >= 2)
            return
        kind = (op >> 9) & 7
        if kind == 4:                             # static bit op
            w.u16()
            btype = (op >> 6) & 3
            ea = _read_ea(w, mode, reg, 1)
            _apply_ea_effects(insn, ea, read=ea.mode >= 2,
                              write=btype != 0 and ea.mode >= 2)
            return
        # ori/andi/subi/addi/eori/cmpi (szbits == 3 is illegal, filtered)
        size = _size_of(szbits)
        if mode == 7 and reg == 4:                # to ccr / sr
            w.u16()
            return
        if size == 4:
            w.u32()
        else:
            w.u16()
        ea = _read_ea(w, mode, reg, size)
        writes = kind != 6 and ea.mode >= 2       # cmpi only reads
        _apply_ea_effects(insn, ea, read=ea.mode >= 2, write=writes)
        return

    # ---- group 4 ------------------------------------------------------
    if group == 4:
        if op & 0xF1C0 == 0x41C0:                 # lea
            areg = (op >> 9) & 7
            start = w.addr
            ea = _read_ea(w, mode, reg, 4)
            if areg == 7:
                if ea.mode == 5 and ea.reg == 7:  # lea d16(a7),a7
                    insn.sp_delta = _signed(_reread16(w, start), 16)
                else:
                    insn.sp_delta = None
            return
        if op & 0xF1C0 == 0x4180:                 # chk (may vector, but
            ea = _read_ea(w, mode, reg, 2)        # normally falls through)
            _apply_ea_effects(insn, ea, read=ea.mode >= 2)
            return
        if op & 0xFFC0 == 0x4E80:                 # jsr
            ea = _read_ea(w, mode, reg, 4)
            insn.kind = K_CALL
            insn.target = ea.abs_addr
            insn.indirect = ea.abs_addr is None
            return
        if op & 0xFFC0 == 0x4EC0:                 # jmp
            ea = _read_ea(w, mode, reg, 4)
            insn.kind = K_BRANCH
            insn.target = ea.abs_addr
            insn.indirect = ea.abs_addr is None
            return
        if op & 0xFFC0 == 0x40C0:                 # move sr,<ea>
            ea = _read_ea(w, mode, reg, 2)
            _apply_ea_effects(insn, ea, write=ea.mode >= 2)
            return
        if op & 0xFFC0 in (0x44C0, 0x46C0):       # move <ea>,ccr / sr
            ea = _read_ea(w, mode, reg, 2)
            _apply_ea_effects(insn, ea, read=ea.mode >= 2)
            return
        if op & 0xFFF8 == 0x4840:                 # swap
            return
        if op & 0xFFC0 == 0x4840:                 # pea
            ea = _read_ea(w, mode, reg, 4)
            if insn.sp_delta is not None:
                insn.sp_delta -= 4
            return
        if op & 0xFFB8 == 0x4880 and mode == 0:   # ext
            return
        if op & 0xFB80 == 0x4880:                 # movem
            to_regs = bool(op & 0x0400)
            size = 4 if op & 0x0040 else 2
            mask = w.u16()
            count = bin(mask).count("1")
            ea = _read_ea(w, mode, reg, size)
            span = count * size
            if ea.abs_addr is not None:
                if to_regs:
                    insn.reads.append((ea.abs_addr, span))
                else:
                    insn.writes.append((ea.abs_addr, span))
            if ea.reg == 7 and ea.mode in (3, 4) and insn.sp_delta is not None:
                insn.sp_delta += span if ea.mode == 3 else -span
            return
        if op & 0xFFC0 == 0x4800:                 # nbcd
            ea = _read_ea(w, mode, reg, 1)
            _apply_ea_effects(insn, ea, read=ea.mode >= 2, write=ea.mode >= 2)
            return
        if op & 0xFFC0 == 0x4AC0:                 # tas
            ea = _read_ea(w, mode, reg, 1)
            _apply_ea_effects(insn, ea, read=ea.mode >= 2, write=ea.mode >= 2)
            return
        # negx / clr / neg / not / tst
        size = _size_of(szbits)
        ea = _read_ea(w, mode, reg, size)
        top = op & 0xFF00
        writes = top != 0x4A00 and ea.mode >= 2   # tst only reads
        reads = top not in (0x4200,) and ea.mode >= 2  # clr only writes
        _apply_ea_effects(insn, ea, read=reads, write=writes)
        return

    # ---- group 5: addq/subq, scc, dbcc -------------------------------
    if group == 5:
        if szbits == 3:
            if mode == 1:                         # dbcc
                target = (w.addr + _signed(w.u16(), 16)) & M32
                insn.kind = K_CONDBRANCH
                insn.target = target
                return
            ea = _read_ea(w, mode, reg, 1)        # scc
            _apply_ea_effects(insn, ea, write=ea.mode >= 2)
            return
        data = ((op >> 9) & 7) or 8
        size = _size_of(szbits)
        ea = _read_ea(w, mode, reg, size)
        _apply_ea_effects(insn, ea, read=ea.mode >= 2, write=ea.mode >= 2)
        if ea.mode == 1 and ea.reg == 7 and insn.sp_delta is not None:
            insn.sp_delta += -data if op & 0x0100 else data
        return

    # ---- group 6: branches -------------------------------------------
    if group == 6:
        cc = (op >> 8) & 15
        disp8 = op & 0xFF
        if disp8:
            target = (w.addr + _signed(disp8, 8)) & M32
        else:
            target = (w.addr + _signed(w.u16(), 16)) & M32
        insn.target = target
        if cc == 0:
            insn.kind = K_BRANCH
        elif cc == 1:
            insn.kind = K_CALL
        else:
            insn.kind = K_CONDBRANCH
        return

    # ---- group 7: moveq ----------------------------------------------
    if group == 7:
        return

    # ---- groups 8/9/B/C/D: two-operand arithmetic --------------------
    if group in (8, 9, 0xB, 0xC, 0xD):
        opmode = (op >> 6) & 7
        if group in (8, 0xC) and opmode in (3, 7):   # mul / div
            ea = _read_ea(w, mode, reg, 2)
            _apply_ea_effects(insn, ea, read=ea.mode >= 2)
            return
        if group == 0xC and op & 0x01F8 in (0x0140, 0x0148, 0x0188) \
                and opmode in (5, 6):                # exg
            return
        if opmode in (3, 7):                         # adda / suba / cmpa
            size = 2 if opmode == 3 else 4
            dreg = (op >> 9) & 7
            ea = _read_ea(w, mode, reg, size)
            _apply_ea_effects(insn, ea, read=ea.mode >= 2)
            if dreg == 7 and group in (9, 0xD):
                if ea.mode == 7 and ea.reg == 4:     # adda/suba #imm,sp
                    imm = _reread_imm(w, size)
                    if insn.sp_delta is not None:
                        insn.sp_delta += imm if group == 0xD else -imm
                else:
                    insn.sp_delta = None
            return
        size = _size_of(opmode & 3)
        if opmode < 3:                               # <ea> op Dn -> Dn
            ea = _read_ea(w, mode, reg, size)
            _apply_ea_effects(insn, ea, read=ea.mode >= 2)
            return
        # Dn op <ea> -> <ea> (or cmpm / addx / subx / eor): all the
        # memory destinations are read-modify-write.
        if group == 0xB and mode == 1:               # cmpm
            return
        if group in (9, 0xD) and mode in (0, 1):     # addx / subx
            return
        ea = _read_ea(w, mode, reg, size)
        _apply_ea_effects(insn, ea, read=ea.mode >= 2, write=ea.mode >= 2)
        return

    # ---- group E: shifts ---------------------------------------------
    if group == 0xE:
        if szbits == 3:                              # memory shift
            ea = _read_ea(w, mode, reg, 2)
            _apply_ea_effects(insn, ea, read=ea.mode >= 2, write=ea.mode >= 2)
        return


def _reread16(w: _Words, at: int) -> int:
    """Re-read an already-consumed extension word (for lea d16(a7),a7)."""
    return w._fetch(at) & 0xFFFF


def _reread_imm(w: _Words, size: int) -> int:
    """Re-read (signed) the immediate the EA reader just consumed."""
    if size == 4:
        hi = w._fetch(w.addr - 4) & 0xFFFF
        lo = w._fetch(w.addr - 2) & 0xFFFF
        return _signed((hi << 16) | lo, 32)
    return _signed(w._fetch(w.addr - 2) & 0xFFFF, 16)
