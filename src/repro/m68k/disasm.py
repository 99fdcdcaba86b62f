"""The 68000 instruction decoder and disassembler.

:func:`decode_insn` reads one opcode word and its extension words into
an :class:`Insn`: its length, control-flow kind and target, the
statically known memory accesses and stack delta the CFG walker and
the dataflow engine need, and its mnemonic and operands.  The block
predecoder and the fuser take lengths and kinds from it, the static
analyzer everything; :func:`disassemble_one` and :func:`disassemble`
return its text, which ``Insn.text`` joins (rendering effective
addresses and register lists) only when it is read.

Legality is **decoder-driven**: a word is illegal exactly when the
interpreter's dispatch table (:mod:`repro.m68k.decoder`) resolves it
to ``None``, so the decoder and the CPU never disagree about which
words execute.  An illegal word decodes as ``dc.w $xxxx`` of length 2.
A-line words decode as ``sys $xxx`` (Palm OS system trap) and F-line
words as ``emucall $xxx`` (emulator callback), matching how this
reproduction uses those opcode spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

from .decoder import resolve

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
K_EXCEPTION = "exception"    # trap #n: vectors away

CONDS = ("t", "f", "hi", "ls", "cc", "cs", "ne", "eq",
         "vc", "vs", "pl", "mi", "ge", "lt", "gt", "le")
DREGS = tuple(f"d{i}" for i in range(8))
AREGS = tuple(f"a{i}" for i in range(8))
_SIZES = (1, 2, 4)           # by size bits
_SUFFIX = {1: "b", 2: "w", 4: "l"}
_BIT_OPS = ("btst", "bchg", "bclr", "bset")
_IMM_OPS = {0: "ori", 1: "andi", 2: "subi", 3: "addi", 5: "eori", 6: "cmpi"}
_UNARY = {0x4000: "negx", 0x4200: "clr", 0x4400: "neg", 0x4600: "not",
          0x4A00: "tst"}
_ARITH = {8: "or", 9: "sub", 0xB: "cmp", 0xC: "and", 0xD: "add"}
_MULDIV = {(8, 3): "divu", (8, 7): "divs", (0xC, 3): "mulu",
           (0xC, 7): "muls"}
_EXG = {0x0140: (DREGS, DREGS), 0x0148: (AREGS, AREGS),
        0x0188: (DREGS, AREGS)}
_SHIFTS = ("as", "ls", "rox", "ro")
_FIXED = {0x4E70: ("reset", K_NORMAL), 0x4E71: ("nop", K_NORMAL),
          0x4E73: ("rte", K_RETURN), 0x4E75: ("rts", K_RETURN),
          0x4E76: ("trapv", K_NORMAL), 0x4E77: ("rtr", K_RETURN)}


def is_legal(op: int) -> bool:
    """True when the interpreter has a handler for this opcode word
    (A-line and F-line words count as legal: the emulator services
    them through its handlers)."""
    return op >> 12 in (0xA, 0xF) or resolve(op) is not None


def _signed(value: int, bits: int) -> int:
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


class _EA:
    """One decoded effective address and its extension words."""

    __slots__ = ("mode", "reg", "size", "ext", "abs_addr")

    def __init__(self, mode: int, reg: int, size: int, ext: int,
                 abs_addr: Optional[int]):
        self.mode = mode
        self.reg = reg
        self.size = size
        self.ext = ext            # the raw extension word(s), else 0
        self.abs_addr = abs_addr  # statically-known address, else None

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

    def __str__(self) -> str:
        mode, reg, ext = self.mode, self.reg, self.ext
        if mode < 5:
            return ("d{}", "a{}", "(a{})", "(a{})+", "-(a{})")[mode].format(reg)
        if mode == 5:
            return f"{_signed(ext, 16)}(a{reg})"
        if mode == 6:
            return _indexed(ext, f"a{reg}")
        if reg == 0:
            return f"${ext:x}.w"
        if reg == 1:
            return f"${ext:x}"
        if reg == 2:
            return f"${self.abs_addr:x}(pc)"
        if reg == 3:
            return _indexed(ext, "pc")
        return f"#${ext & (0xFF if self.size == 1 else M32):x}"


def _indexed(ext: int, base: str) -> str:
    index = f"{'a' if ext & 0x8000 else 'd'}{(ext >> 12) & 7}"
    return (f"{_signed(ext & 0xFF, 8)}({base},{index}"
            f".{'l' if ext & 0x0800 else 'w'})")


class _RegList:
    """A movem register mask, rendered as ``d0-d2/a6``."""

    __slots__ = ("mask",)

    def __init__(self, mask: int, reverse: bool):
        # The predecrement form stores the mask bit-reversed.
        self.mask = int(f"{mask:016b}"[::-1], 2) if reverse else mask

    def __str__(self) -> str:
        mask = self.mask
        names = DREGS + AREGS
        parts: List[str] = []
        i = 0
        while i < 16:
            if mask & (1 << i):
                j = i
                while j + 1 < 16 and mask & (1 << (j + 1)) \
                        and (j + 1) // 8 == i // 8:
                    j += 1
                parts.append(names[i] if i == j else f"{names[i]}-{names[j]}")
                i = j + 1
            else:
                i += 1
        return "/".join(parts) or "(none)"


Operand = Union[str, _EA, _RegList]


@dataclass
class Insn:
    """One decoded instruction with its static effects."""

    addr: int
    word: int
    length: int
    mnemonic: str = ""
    operands: Tuple[Operand, ...] = ()
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

    @property
    def text(self) -> str:
        """The instruction in assembler syntax."""
        if not self.operands:
            return self.mnemonic
        return f"{self.mnemonic} {','.join(map(str, self.operands))}"

    def falls_through(self) -> bool:
        return self.kind in (K_NORMAL, K_CONDBRANCH, K_CALL, K_TRAP,
                             K_EMUCALL, K_STOP, K_EXCEPTION)


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


def _read_ea(w: _Words, mode: int, reg: int, size: int) -> _EA:
    """Consume an EA's extension words; record its static address."""
    ext = 0
    abs_addr: Optional[int] = None
    if mode in (5, 6):                 # d16(An) / d8(An,Xn)
        ext = w.u16()
    elif mode == 7:
        if reg == 0:                   # (xxx).w
            ext = w.u16()
            abs_addr = _signed(ext, 16) & M32
        elif reg == 1:                 # (xxx).l
            ext = abs_addr = w.u32()
        elif reg == 2:                 # d16(PC)
            base = w.addr
            ext = w.u16()
            abs_addr = (base + _signed(ext, 16)) & M32
        elif reg == 3:                 # d8(PC,Xn)
            ext = w.u16()
        elif reg == 4:                 # #imm
            ext = w.u32() if size == 4 else w.u16()
    return _EA(mode, reg, size, ext, abs_addr)


def decode_insn(fetch: Callable[[int], int], addr: int) -> Insn:
    """Decode the instruction at ``addr`` into an :class:`Insn`.

    ``fetch`` reads a 16-bit word.  Never raises: illegal words come
    back as ``dc.w`` with ``kind == K_ILLEGAL`` and length 2.
    """
    w = _Words(fetch, addr)
    op = w.u16()
    group = op >> 12
    if group == 0xA:
        return Insn(addr, op, 2, "sys", (f"${op & 0xFFF:03x}",),
                    kind=K_TRAP, trap=op & 0xFFF)
    if group == 0xF:
        return Insn(addr, op, 2, "emucall", (f"${op & 0xFFF:03x}",),
                    kind=K_EMUCALL, emucall=op & 0xFFF)
    if resolve(op) is None:
        return Insn(addr, op, 2, "dc.w", (f"${op:04x}",), kind=K_ILLEGAL)
    insn = Insn(addr, op, 2)
    _decode(w, op, insn)
    insn.length = w.addr - addr
    return insn


def _effects(insn: Insn, ea: _EA, read: bool = False,
             write: bool = False) -> None:
    """Record an EA's static memory accesses and A7 side effects."""
    if ea.abs_addr is not None:
        if read:
            insn.reads.append((ea.abs_addr, ea.size))
        if write:
            insn.writes.append((ea.abs_addr, ea.size))
    if insn.sp_delta is not None:
        insn.sp_delta += ea.sp_delta()


def _decode(w: _Words, op: int, insn: Insn) -> None:  # noqa: C901 - a decoder is a switch
    """Classify ``op``, name it and account for its extension words.

    Only called for words the dispatch table accepts, so the patterns
    below can assume interpreter-legal encodings.
    """
    group = op >> 12
    mode, reg = (op >> 3) & 7, op & 7
    szbits = (op >> 6) & 3
    dreg = (op >> 9) & 7

    # ---- fixed words and the 0x4E4x-0x4E6x controls ------------------
    if op in _FIXED:
        insn.mnemonic, insn.kind = _FIXED[op]
        if insn.kind == K_RETURN:
            insn.sp_delta = None
        return
    if op == 0x4E72:                              # stop #imm
        insn.mnemonic, insn.operands = "stop", (f"#${w.u16():x}",)
        insn.kind = K_STOP
        return
    if op & 0xFFF0 == 0x4E40:                     # trap #n
        insn.mnemonic, insn.operands = "trap", (f"#{op & 15}",)
        insn.kind = K_EXCEPTION
        return
    if op & 0xFFF8 == 0x4E50:                     # link An,#d
        disp = _signed(w.u16(), 16)
        insn.mnemonic, insn.operands = "link", (AREGS[reg], f"#{disp}")
        insn.link = (reg, disp)
        insn.sp_delta = None                      # checker pairs link/unlk
        return
    if op & 0xFFF8 == 0x4E58:                     # unlk An
        insn.mnemonic, insn.operands = "unlk", (AREGS[reg],)
        insn.unlk = reg
        insn.sp_delta = None                      # checker pairs link/unlk
        return
    if op & 0xFFF0 == 0x4E60:                     # move An,usp / usp,An
        insn.mnemonic = "move"
        insn.operands = (("usp", AREGS[reg]) if op & 8
                         else (AREGS[reg], "usp"))
        return

    # ---- group 1/2/3: move -------------------------------------------
    if group in (1, 2, 3):
        size = (0, 1, 4, 2)[group]
        src = _read_ea(w, mode, reg, size)
        dmode = (op >> 6) & 7
        dst = _read_ea(w, dmode, dreg, size)
        _effects(insn, src, read=True)
        _effects(insn, dst, write=True)
        if dmode == 1 and dreg == 7:              # movea to a7
            insn.sp_delta = None
        insn.mnemonic = ("movea." if dmode == 1 else "move.") + _SUFFIX[size]
        insn.operands = (src, dst)
        return

    # ---- group 0: immediates, bit ops and movep ----------------------
    if group == 0:
        if op & 0x0100:                           # dynamic bit op / movep
            if mode == 1:                         # movep
                mem = f"{_signed(w.u16(), 16)}(a{reg})"
                opmode = (op >> 6) & 7
                insn.mnemonic = "movep." + ("l" if opmode & 1 else "w")
                insn.operands = ((mem, DREGS[dreg]) if opmode < 6
                                 else (DREGS[dreg], mem))
                return
            ea = _read_ea(w, mode, reg, 1)
            _effects(insn, ea, read=True, write=szbits != 0)
            insn.mnemonic, insn.operands = _BIT_OPS[szbits], (DREGS[dreg], ea)
            return
        if dreg == 4:                             # static bit op
            num = w.u16() & 0xFF
            ea = _read_ea(w, mode, reg, 1)
            _effects(insn, ea, read=True, write=szbits != 0)
            insn.mnemonic, insn.operands = _BIT_OPS[szbits], (f"#{num}", ea)
            return
        # ori/andi/subi/addi/eori/cmpi (szbits == 3 is illegal, filtered)
        size = _SIZES[szbits]
        if mode == 7 and reg == 4:                # to ccr / sr
            insn.mnemonic = _IMM_OPS[dreg]
            insn.operands = (f"#${w.u16():x}", "ccr" if size == 1 else "sr")
            return
        imm = w.u32() if size == 4 else w.u16()
        ea = _read_ea(w, mode, reg, size)
        _effects(insn, ea, read=True, write=dreg != 6)  # cmpi only reads
        insn.mnemonic = f"{_IMM_OPS[dreg]}.{_SUFFIX[size]}"
        insn.operands = (f"#${imm:x}", ea)
        return

    # ---- group 4 ------------------------------------------------------
    if group == 4:
        if op & 0xF1C0 == 0x41C0:                 # lea
            ea = _read_ea(w, mode, reg, 4)
            if dreg == 7:                         # lea d16(a7),a7 is known
                insn.sp_delta = (_signed(ea.ext, 16) if mode == 5 and reg == 7
                                 else None)
            insn.mnemonic, insn.operands = "lea", (ea, AREGS[dreg])
            return
        if op & 0xF1C0 == 0x4180:                 # chk (may vector, but
            ea = _read_ea(w, mode, reg, 2)        # normally falls through)
            _effects(insn, ea, read=True)
            insn.mnemonic, insn.operands = "chk", (ea, DREGS[dreg])
            return
        if op & 0xFF80 == 0x4E80:                 # jsr / jmp
            ea = _read_ea(w, mode, reg, 4)
            jmp = op & 0x0040
            insn.kind = K_BRANCH if jmp else K_CALL
            insn.target = ea.abs_addr
            insn.indirect = ea.abs_addr is None
            insn.mnemonic, insn.operands = "jmp" if jmp else "jsr", (ea,)
            return
        if op & 0xFFC0 == 0x40C0:                 # move sr,<ea>
            ea = _read_ea(w, mode, reg, 2)
            _effects(insn, ea, write=True)
            insn.mnemonic, insn.operands = "move", ("sr", ea)
            return
        if op & 0xFFC0 in (0x44C0, 0x46C0):       # move <ea>,ccr / sr
            ea = _read_ea(w, mode, reg, 2)
            _effects(insn, ea, read=True)
            insn.mnemonic = "move"
            insn.operands = (ea, "sr" if op & 0x0200 else "ccr")
            return
        if op & 0xFFF8 == 0x4840:                 # swap
            insn.mnemonic, insn.operands = "swap", (DREGS[reg],)
            return
        if op & 0xFFC0 == 0x4840:                 # pea
            ea = _read_ea(w, mode, reg, 4)
            if insn.sp_delta is not None:
                insn.sp_delta -= 4
            insn.mnemonic, insn.operands = "pea", (ea,)
            return
        if op & 0xFFB8 == 0x4880 and mode == 0:   # ext
            insn.mnemonic = "ext." + ("l" if op & 0x40 else "w")
            insn.operands = (DREGS[reg],)
            return
        if op & 0xFB80 == 0x4880:                 # movem
            to_regs = bool(op & 0x0400)
            size = 4 if op & 0x0040 else 2
            mask = w.u16()
            ea = _read_ea(w, mode, reg, size)
            span = bin(mask).count("1") * size
            if ea.abs_addr is not None:
                accesses = insn.reads if to_regs else insn.writes
                accesses.append((ea.abs_addr, span))
            if reg == 7 and mode in (3, 4) and insn.sp_delta is not None:
                insn.sp_delta += span if mode == 3 else -span
            regs: Operand = _RegList(mask, reverse=not to_regs and mode == 4)
            insn.mnemonic = "movem." + _SUFFIX[size]
            insn.operands = (ea, regs) if to_regs else (regs, ea)
            return
        if op & 0xFFC0 in (0x4800, 0x4AC0):       # nbcd / tas
            ea = _read_ea(w, mode, reg, 1)
            _effects(insn, ea, read=True, write=True)
            insn.mnemonic = "tas" if op & 0x0200 else "nbcd"
            insn.operands = (ea,)
            return
        # negx / clr / neg / not / tst
        size = _SIZES[szbits]
        ea = _read_ea(w, mode, reg, size)
        top = op & 0xFF00
        _effects(insn, ea, read=top != 0x4200,    # clr only writes
                 write=top != 0x4A00)             # tst only reads
        insn.mnemonic = f"{_UNARY[top]}.{_SUFFIX[size]}"
        insn.operands = (ea,)
        return

    # ---- group 5: addq/subq, scc, dbcc -------------------------------
    if group == 5:
        if szbits == 3:
            cc = CONDS[(op >> 8) & 15]
            if mode == 1:                         # dbcc
                target = (w.addr + _signed(w.u16(), 16)) & M32
                insn.kind = K_CONDBRANCH
                insn.target = target
                insn.mnemonic = "db" + cc
                insn.operands = (DREGS[reg], f"${target:x}")
                return
            ea = _read_ea(w, mode, reg, 1)        # scc
            _effects(insn, ea, write=True)
            insn.mnemonic, insn.operands = "s" + cc, (ea,)
            return
        data = dreg or 8
        size = _SIZES[szbits]
        ea = _read_ea(w, mode, reg, size)
        _effects(insn, ea, read=True, write=True)
        if mode == 1 and reg == 7 and insn.sp_delta is not None:
            insn.sp_delta += -data if op & 0x0100 else data
        insn.mnemonic = ("subq." if op & 0x0100 else "addq.") + _SUFFIX[size]
        insn.operands = (f"#{data}", ea)
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
        insn.kind = (K_BRANCH, K_CALL)[cc] if cc < 2 else K_CONDBRANCH
        name = ("bra", "bsr")[cc] if cc < 2 else "b" + CONDS[cc]
        insn.mnemonic = name + ".s" if disp8 else name
        insn.operands = (f"${target:x}",)
        return

    # ---- group 7: moveq ----------------------------------------------
    if group == 7:
        insn.mnemonic = "moveq"
        insn.operands = (f"#{_signed(op & 0xFF, 8)}", DREGS[dreg])
        return

    # ---- groups 8/9/B/C/D: two-operand arithmetic --------------------
    if group in (8, 9, 0xB, 0xC, 0xD):
        opmode = (op >> 6) & 7
        name = _ARITH[group]
        if group in (8, 0xC) and opmode in (3, 7):   # mul / div
            ea = _read_ea(w, mode, reg, 2)
            _effects(insn, ea, read=True)
            insn.mnemonic = _MULDIV[(group, opmode)]
            insn.operands = (ea, DREGS[dreg])
            return
        if group == 0xC and op & 0x01F8 in _EXG:     # exg
            first, second = _EXG[op & 0x01F8]
            insn.mnemonic, insn.operands = "exg", (first[dreg], second[reg])
            return
        if opmode in (3, 7):                         # adda / suba / cmpa
            size = 2 if opmode == 3 else 4
            ea = _read_ea(w, mode, reg, size)
            _effects(insn, ea, read=True)
            if dreg == 7 and group in (9, 0xD):
                if mode == 7 and reg == 4:           # adda/suba #imm,sp
                    imm = _signed(ea.ext, 8 * size)
                    if insn.sp_delta is not None:
                        insn.sp_delta += imm if group == 0xD else -imm
                else:
                    insn.sp_delta = None
            insn.mnemonic = f"{name}a.{_SUFFIX[size]}"
            insn.operands = (ea, AREGS[dreg])
            return
        size = _SIZES[opmode & 3]
        suffix = "." + _SUFFIX[size]
        if opmode < 3:                               # <ea> op Dn -> Dn
            ea = _read_ea(w, mode, reg, size)
            _effects(insn, ea, read=True)
            insn.mnemonic, insn.operands = name + suffix, (ea, DREGS[dreg])
            return
        if group == 0xB and mode == 1:               # cmpm
            insn.mnemonic = "cmpm" + suffix
            insn.operands = (f"(a{reg})+", f"(a{dreg})+")
            return
        if group in (9, 0xD) and mode in (0, 1):     # addx / subx
            insn.mnemonic = ("subx" if group == 9 else "addx") + suffix
            insn.operands = ((DREGS[reg], DREGS[dreg]) if mode == 0
                             else (f"-(a{reg})", f"-(a{dreg})"))
            return
        # Dn op <ea> -> <ea> (and eor): memory destinations are
        # read-modify-write.
        ea = _read_ea(w, mode, reg, size)
        _effects(insn, ea, read=True, write=True)
        insn.mnemonic = ("eor" if group == 0xB else name) + suffix
        insn.operands = (DREGS[dreg], ea)
        return

    # ---- group E: shifts ---------------------------------------------
    direction = "l" if op & 0x0100 else "r"
    if szbits == 3:                                  # memory shift
        ea = _read_ea(w, mode, reg, 2)
        _effects(insn, ea, read=True, write=True)
        insn.mnemonic = _SHIFTS[dreg & 3] + direction
        insn.operands = (ea,)
        return
    insn.mnemonic = f"{_SHIFTS[mode & 3]}{direction}.{_SUFFIX[_SIZES[szbits]]}"
    count = DREGS[dreg] if op & 0x0020 else f"#{dreg or 8}"
    insn.operands = (count, DREGS[reg])


def disassemble_one(fetch: Callable[[int], int], addr: int) -> Tuple[str, int]:
    """Disassemble the instruction at ``addr``.

    ``fetch`` reads a 16-bit word at an address.  Returns the text and
    the instruction length in bytes.  Total: a word the interpreter
    rejects comes back as ``dc.w $xxxx`` with length 2 (the static CFG
    walker depends on every word having a length).
    """
    insn = decode_insn(fetch, addr)
    return insn.text, insn.length


def disassemble(fetch: Callable[[int], int], addr: int, count: int = 16) -> str:
    """Disassemble ``count`` instructions starting at ``addr``."""
    lines = []
    for _ in range(count):
        text, length = disassemble_one(fetch, addr)
        lines.append(f"{addr:08x}  {text}")
        addr += length
    return "\n".join(lines)
