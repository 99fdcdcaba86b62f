"""A two-pass Motorola-syntax assembler for the 68000.

All guest software in this reproduction — the Palm OS ROM routines, the
five activity-log hacks, and the sample applications — is written in
this assembly dialect and assembled to real machine code executed by
:class:`repro.m68k.cpu.CPU`.

Supported syntax (Motorola style)::

    ; comment
    label:  move.l  #value,d0
            lea     table(pc),a0
            move.w  (a0)+,d1
            beq.s   done
            movem.l d0-d3/a0-a2,-(sp)
            dc.w    $A000+TrapIndex     ; Palm OS system trap
            dc.b    "text",0
            even

Directives: ``org``, ``equ`` (``name equ expr`` or ``name = expr``),
``dc.b/w/l``, ``ds.b/w/l``, ``even``, ``align`` — each also accepted
with a leading dot.

Sizing rules are deliberately value-independent so that both passes
produce identical layouts: bare address operands always assemble as
absolute-long, and branches default to word displacements unless
suffixed ``.s``.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import AssemblerError

M32 = 0xFFFFFFFF

CONDITIONS = {
    "t": 0, "f": 1, "hi": 2, "ls": 3, "cc": 4, "hs": 4, "cs": 5, "lo": 5,
    "ne": 6, "eq": 7, "vc": 8, "vs": 9, "pl": 10, "mi": 11, "ge": 12,
    "lt": 13, "gt": 14, "le": 15,
}

SIZE_BITS = {1: 0, 2: 1, 4: 2}


@dataclass
class Operand:
    kind: str
    reg: int = 0
    xreg: int = 0
    xa: bool = False
    xlong: bool = False
    expr: Optional[str] = None
    reglist: int = 0


@dataclass
class Program:
    """The result of assembling a source file."""

    segments: List[Tuple[int, bytes]] = field(default_factory=list)
    symbols: Dict[str, int] = field(default_factory=dict)
    entry: int = 0

    def image(self, base: int, size: int) -> bytearray:
        """Render all segments into one flat image starting at ``base``."""
        out = bytearray(size)
        for addr, blob in self.segments:
            off = addr - base
            if off < 0 or off + len(blob) > size:
                raise AssemblerError(
                    f"segment at {addr:#x} (+{len(blob)}) outside image "
                    f"[{base:#x}, {base + size:#x})"
                )
            out[off:off + len(blob)] = blob
        return out

    @property
    def blob(self) -> bytes:
        """The single contiguous segment (requires exactly one segment)."""
        if len(self.segments) != 1:
            raise AssemblerError(f"program has {len(self.segments)} segments")
        return self.segments[0][1]


# ----------------------------------------------------------------------
# Expression evaluation
# ----------------------------------------------------------------------
_TOKEN_RE = re.compile(
    r"\s*(?:(\$[0-9a-fA-F]+|%[01]+|\d+|'(?:[^'\\]|\\.)')"
    r"|([A-Za-z_.][\w.]*)"
    r"|(<<|>>|[()+\-*/&|^~]))"
)


class _ExprEval:
    """Tiny recursive-descent evaluator for assembler expressions."""

    def __init__(self, text: str, symbols: Dict[str, int], strict: bool):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.symbols = symbols
        self.strict = strict
        self.undefined: List[str] = []

    @staticmethod
    def _tokenize(text: str) -> List[str]:
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                rest = text[pos:].strip()
                if not rest:
                    break
                raise AssemblerError(f"bad expression near {rest!r}")
            tokens.append(m.group(1) or m.group(2) or m.group(3))
            pos = m.end()
        return tokens

    def _peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> str:
        tok = self._peek()
        if tok is None:
            raise AssemblerError("unexpected end of expression")
        self.pos += 1
        return tok

    def evaluate(self) -> int:
        value = self._or()
        if self._peek() is not None:
            raise AssemblerError(f"trailing tokens in expression: {self.tokens[self.pos:]}")
        return value

    def _or(self) -> int:
        v = self._xor()
        while self._peek() == "|":
            self._next()
            v |= self._xor()
        return v

    def _xor(self) -> int:
        v = self._and()
        while self._peek() == "^":
            self._next()
            v ^= self._and()
        return v

    def _and(self) -> int:
        v = self._shift()
        while self._peek() == "&":
            self._next()
            v &= self._shift()
        return v

    def _shift(self) -> int:
        v = self._addsub()
        while self._peek() in ("<<", ">>"):
            op = self._next()
            rhs = self._addsub()
            v = v << rhs if op == "<<" else v >> rhs
        return v

    def _addsub(self) -> int:
        v = self._muldiv()
        while self._peek() in ("+", "-"):
            op = self._next()
            rhs = self._muldiv()
            v = v + rhs if op == "+" else v - rhs
        return v

    def _muldiv(self) -> int:
        v = self._unary()
        while self._peek() in ("*", "/"):
            op = self._next()
            rhs = self._unary()
            v = v * rhs if op == "*" else v // rhs
        return v

    def _unary(self) -> int:
        tok = self._peek()
        if tok == "-":
            self._next()
            return -self._unary()
        if tok == "~":
            self._next()
            return ~self._unary()
        if tok == "+":
            self._next()
            return self._unary()
        return self._atom()

    def _atom(self) -> int:
        tok = self._next()
        if tok == "(":
            v = self._or()
            if self._next() != ")":
                raise AssemblerError("missing ')' in expression")
            return v
        if tok.startswith("$"):
            return int(tok[1:], 16)
        if tok.startswith("%"):
            return int(tok[1:], 2)
        if tok.startswith("'"):
            body = tok[1:-1]
            if body.startswith("\\"):
                body = {"\\n": "\n", "\\t": "\t", "\\0": "\0", "\\\\": "\\"}.get(
                    body, body[1]
                )
            return ord(body)
        if tok[0].isdigit():
            return int(tok, 0) if tok.startswith("0x") else int(tok, 10)
        if tok in self.symbols:
            return self.symbols[tok]
        if self.strict:
            raise AssemblerError(f"undefined symbol {tok!r}")
        self.undefined.append(tok)
        return 0


# ----------------------------------------------------------------------
# Register and operand parsing
# ----------------------------------------------------------------------
_REG_RE = re.compile(r"^(d[0-7]|a[0-7]|sp|pc|sr|ccr|usp)$", re.IGNORECASE)


def _parse_reg(text: str) -> Optional[Tuple[str, int]]:
    m = _REG_RE.match(text.strip())
    if not m:
        return None
    name = m.group(1).lower()
    if name == "sp":
        return ("a", 7)
    if name in ("pc", "sr", "ccr", "usp"):
        return (name, 0)
    return (name[0], int(name[1]))


def _split_top_commas(text: str) -> List[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur).strip())
    return [p for p in parts if p]


def _parse_reglist(text: str) -> Optional[int]:
    """Parse a MOVEM register list like ``d0-d3/a0/a6-sp`` into a mask.

    Mask bit order: bit 0 = D0 ... bit 7 = D7, bit 8 = A0 ... bit 15 = A7.
    """
    mask = 0
    for part in text.split("/"):
        part = part.strip()
        if "-" in part:
            lo_txt, hi_txt = part.split("-", 1)
            lo = _parse_reg(lo_txt)
            hi = _parse_reg(hi_txt)
            if not lo or not hi or lo[0] not in "da" or hi[0] not in "da":
                return None
            lo_bit = lo[1] + (8 if lo[0] == "a" else 0)
            hi_bit = hi[1] + (8 if hi[0] == "a" else 0)
            if hi_bit < lo_bit:
                return None
            for b in range(lo_bit, hi_bit + 1):
                mask |= 1 << b
        else:
            r = _parse_reg(part)
            if not r or r[0] not in "da":
                return None
            mask |= 1 << (r[1] + (8 if r[0] == "a" else 0))
    return mask


_INDEX_RE = re.compile(r"^(d[0-7]|a[0-7]|sp)(\.[wl])?$", re.IGNORECASE)


def parse_operand(text: str) -> Operand:
    text = text.strip()
    if not text:
        raise AssemblerError("empty operand")

    if text.startswith("#"):
        return Operand("imm", expr=text[1:])

    reg = _parse_reg(text)
    if reg:
        kind, num = reg
        if kind == "d":
            return Operand("dreg", reg=num)
        if kind == "a":
            return Operand("areg", reg=num)
        return Operand(kind, reg=0)

    if text.startswith("-(") and text.endswith(")"):
        inner = _parse_reg(text[2:-1])
        if inner and inner[0] == "a":
            return Operand("predec", reg=inner[1])

    if text.endswith(")+"):
        inner = _parse_reg(text[1:-2]) if text.startswith("(") else None
        if inner and inner[0] == "a":
            return Operand("postinc", reg=inner[1])

    if text.endswith(")"):
        open_idx = text.rfind("(")
        if open_idx < 0:
            raise AssemblerError(f"unbalanced parentheses in operand {text!r}")
        outer = text[:open_idx].strip()
        inner = text[open_idx + 1:-1]
        parts = _split_top_commas(inner)
        # Forms: (an) | (d,an) | d(an) | (an,xn) | d(an,xn) | (d,an,xn)
        #        (pc) variants likewise.
        if outer and len(parts) >= 1:
            disp_expr, regs = outer, parts
        elif len(parts) >= 2 and _parse_reg(parts[0]) is None:
            disp_expr, regs = parts[0], parts[1:]
        else:
            disp_expr, regs = "0", parts
        base = _parse_reg(regs[0])
        if base is None:
            raise AssemblerError(f"bad base register in operand {text!r}")
        if len(regs) == 1:
            if base[0] == "a":
                if disp_expr == "0" and not outer:
                    return Operand("ind", reg=base[1])
                return Operand("disp", reg=base[1], expr=disp_expr)
            if base[0] == "pc":
                return Operand("pcdisp", expr=disp_expr)
            raise AssemblerError(f"bad operand {text!r}")
        if len(regs) == 2:
            m = _INDEX_RE.match(regs[1].strip())
            if not m:
                raise AssemblerError(f"bad index register in {text!r}")
            xname = m.group(1).lower()
            if xname == "sp":
                xa, xreg = True, 7
            else:
                xa, xreg = xname[0] == "a", int(xname[1])
            xlong = (m.group(2) or ".w").lower() == ".l"
            if base[0] == "a":
                return Operand("index", reg=base[1], xreg=xreg, xa=xa,
                               xlong=xlong, expr=disp_expr)
            if base[0] == "pc":
                return Operand("pcindex", xreg=xreg, xa=xa, xlong=xlong,
                               expr=disp_expr)
        raise AssemblerError(f"bad operand {text!r}")

    if text.lower().endswith(".w"):
        return Operand("abs_w", expr=text[:-2])
    if text.lower().endswith(".l"):
        return Operand("abs_l", expr=text[:-2])
    # A register list?
    if "/" in text or ("-" in text and _parse_reg(text.split("-")[0]) is not None):
        mask = _parse_reglist(text)
        if mask is not None:
            return Operand("reglist", reglist=mask)
    # Bare expression: absolute long (value-independent sizing).
    return Operand("abs_l", expr=text)


# ----------------------------------------------------------------------
# The assembler
# ----------------------------------------------------------------------
_LABEL_RE = re.compile(r"^([A-Za-z_.][\w.]*):")
_EQU_RE = re.compile(r"^([A-Za-z_.][\w.]*)\s+(?:equ|=)\s+(.+)$", re.IGNORECASE)
_EQU2_RE = re.compile(r"^([A-Za-z_.][\w.]*)\s*=\s*(.+)$")


class Assembler:
    """Two-pass assembler producing a :class:`Program`."""

    def __init__(self, symbols: Optional[Dict[str, int]] = None):
        self.predefined = dict(symbols or {})

    def assemble(self, source: str, origin: int = 0) -> Program:
        symbols = dict(self.predefined)
        # Pass 1 computes label addresses (undefined symbols read as 0 —
        # layout is value-independent by construction).
        self._run_pass(source, origin, symbols, strict=False)
        segments = self._run_pass(source, origin, symbols, strict=True)
        return Program(segments=segments, symbols=symbols, entry=origin)

    # -- per-pass machinery ---------------------------------------------
    def _run_pass(self, source, origin, symbols, strict):
        self.symbols = symbols
        self.strict = strict
        self.pc = origin
        self.segments: List[Tuple[int, bytearray]] = []
        self.cur: bytearray = bytearray()
        self.cur_base = origin
        self.line_no = 0
        for raw in source.splitlines():
            self.line_no += 1
            try:
                self._assemble_line(raw)
            except AssemblerError as exc:
                if exc.line is None:
                    raise AssemblerError(str(exc), self.line_no) from None
                raise
        self._flush_segment()
        return [(base, bytes(blob)) for base, blob in self.segments if blob]

    def _flush_segment(self):
        if self.cur:
            self.segments.append((self.cur_base, self.cur))
        self.cur = bytearray()
        self.cur_base = self.pc

    def _eval(self, expr: str) -> int:
        if expr is None:
            raise AssemblerError("missing expression")
        ev = _ExprEval(expr, self.symbols, self.strict)
        return ev.evaluate()

    # -- emission --------------------------------------------------------
    def _emit_word(self, value: int):
        self.cur += bytes(((value >> 8) & 0xFF, value & 0xFF))
        self.pc += 2

    def _emit_words(self, words):
        for w in words:
            self._emit_word(w)

    def _emit_byte(self, value: int):
        self.cur.append(value & 0xFF)
        self.pc += 1

    # -- line handling ----------------------------------------------------
    def _assemble_line(self, raw: str):
        line = raw.split(";", 1)[0].rstrip()
        if not line.strip():
            return

        m = _LABEL_RE.match(line.strip())
        if m:
            label = m.group(1)
            self.symbols[label] = self.pc
            line = line.strip()[m.end():]
            if not line.strip():
                return

        stripped = line.strip()
        m = _EQU_RE.match(stripped) or _EQU2_RE.match(stripped)
        if m and not _REG_RE.match(m.group(1)):
            self.symbols[m.group(1)] = self._eval(m.group(2)) & M32
            return

        fields = stripped.split(None, 1)
        mnem = fields[0].lower().lstrip(".")
        rest = fields[1].strip() if len(fields) > 1 else ""

        if mnem in ("org",):
            self._flush_segment()
            self.pc = self._eval(rest) & M32
            self.cur_base = self.pc
            return
        if mnem == "even" or (mnem == "align" and not rest):
            if self.pc & 1:
                self._emit_byte(0)
            return
        if mnem == "align":
            n = self._eval(rest)
            while self.pc % n:
                self._emit_byte(0)
            return
        if mnem == "equ":
            raise AssemblerError("equ requires 'name equ expr' form")
        if mnem.startswith("dc"):
            self._directive_dc(mnem, rest)
            return
        if mnem.startswith("ds"):
            size = {"ds.b": 1, "ds.w": 2, "ds.l": 4, "ds": 2}[mnem]
            count = self._eval(rest)
            for _ in range(count * size):
                self._emit_byte(0)
            return

        self._instruction(mnem, rest)

    def _directive_dc(self, mnem: str, rest: str):
        size = {"dc.b": 1, "dc.w": 2, "dc.l": 4, "dc": 2}[mnem]
        for item in _split_top_commas_respecting_strings(rest):
            if item.startswith('"') and item.endswith('"'):
                if size != 1:
                    raise AssemblerError("string data requires dc.b")
                for ch in item[1:-1].encode("latin-1").decode("unicode_escape"):
                    self._emit_byte(ord(ch))
                continue
            value = self._eval(item)
            if size == 1:
                self._emit_byte(value)
            elif size == 2:
                self._emit_word(value & 0xFFFF)
            else:
                self._emit_word((value >> 16) & 0xFFFF)
                self._emit_word(value & 0xFFFF)

    # -- instruction encoding ----------------------------------------------
    def _instruction(self, mnem: str, rest: str):
        size = None
        short_branch = False
        if "." in mnem:
            base_mnem, suffix = mnem.rsplit(".", 1)
            if suffix in ("b", "w", "l", "s"):
                mnem = base_mnem
                if suffix == "s":
                    short_branch = True
                else:
                    size = {"b": 1, "w": 2, "l": 4}[suffix]
        operands = [parse_operand(p) for p in _split_top_commas(rest)] if rest else []
        self._encode(mnem, size, short_branch, operands)

    # EA encoding: returns (mode, reg); appends extension words to `exts`.
    def _ea(self, op: Operand, size: int, exts: List[int], ext_base: int) -> Tuple[int, int]:
        k = op.kind
        if k == "dreg":
            return 0, op.reg
        if k == "areg":
            return 1, op.reg
        if k == "ind":
            return 2, op.reg
        if k == "postinc":
            return 3, op.reg
        if k == "predec":
            return 4, op.reg
        if k == "disp":
            disp = self._eval(op.expr)
            self._check_disp16(disp)
            exts.append(disp & 0xFFFF)
            return 5, op.reg
        if k == "index":
            disp = self._eval(op.expr)
            self._check_disp8(disp)
            exts.append(self._index_ext(op, disp))
            return 6, op.reg
        if k == "abs_w":
            value = self._eval(op.expr)
            exts.append(value & 0xFFFF)
            return 7, 0
        if k == "abs_l":
            value = self._eval(op.expr) & M32
            exts.append(value >> 16)
            exts.append(value & 0xFFFF)
            return 7, 1
        if k == "pcdisp":
            target = self._eval(op.expr)
            disp = target - (ext_base + 2 * len(exts))
            self._check_disp16(disp)
            exts.append(disp & 0xFFFF)
            return 7, 2
        if k == "pcindex":
            target = self._eval(op.expr)
            disp = target - (ext_base + 2 * len(exts))
            self._check_disp8(disp)
            exts.append(self._index_ext(op, disp))
            return 7, 3
        if k == "imm":
            value = self._eval(op.expr)
            if size == 4:
                exts.append((value >> 16) & 0xFFFF)
                exts.append(value & 0xFFFF)
            elif size == 2:
                self._check_range(value, -0x8000, 0xFFFF)
                exts.append(value & 0xFFFF)
            else:
                self._check_range(value, -0x80, 0xFF)
                exts.append(value & 0xFF)
            return 7, 4
        raise AssemblerError(f"operand kind {k!r} not valid here")

    def _index_ext(self, op: Operand, disp: int) -> int:
        ext = (op.xreg << 12) | (disp & 0xFF)
        if op.xa:
            ext |= 0x8000
        if op.xlong:
            ext |= 0x0800
        return ext

    def _check_disp16(self, v: int):
        if self.strict and not (-0x8000 <= v <= 0x7FFF):
            raise AssemblerError(f"displacement {v} out of 16-bit range")

    def _check_disp8(self, v: int):
        if self.strict and not (-0x80 <= v <= 0x7F):
            raise AssemblerError(f"displacement {v} out of 8-bit range")

    def _check_range(self, v: int, lo: int, hi: int):
        if self.strict and not (lo <= v <= hi):
            raise AssemblerError(f"value {v} out of range [{lo}, {hi}]")

    # The main encoder.
    def _encode(self, mnem: str, size, short_branch: bool, ops: List[Operand]):
        here = self.pc  # address of the opcode word

        def finish(opword: int, exts: List[int]):
            self._emit_word(opword)
            self._emit_words(exts)

        # --- no-operand instructions ---
        simple = {"nop": 0x4E71, "rts": 0x4E75, "rte": 0x4E73, "rtr": 0x4E77,
                  "reset": 0x4E70, "illegal": 0x4AFC, "trapv": 0x4E76}
        if mnem in simple:
            finish(simple[mnem], [])
            return

        if mnem == "stop":
            value = self._eval(ops[0].expr) if ops else 0x2700
            finish(0x4E72, [value & 0xFFFF])
            return

        if mnem == "trap":
            finish(0x4E40 | (self._eval(ops[0].expr) & 15), [])
            return

        if mnem == "link":
            disp = self._eval(ops[1].expr)
            finish(0x4E50 | ops[0].reg, [disp & 0xFFFF])
            return
        if mnem == "unlk":
            finish(0x4E58 | ops[0].reg, [])
            return

        # --- branches ---
        if mnem in ("bra", "bsr") or (mnem.startswith("b") and mnem[1:] in CONDITIONS):
            cc = 0 if mnem == "bra" else 1 if mnem == "bsr" else CONDITIONS[mnem[1:]]
            if mnem not in ("bra", "bsr") and cc < 2:
                raise AssemblerError(f"cannot branch on condition {mnem[1:]!r}")
            target = self._eval(ops[0].expr)
            if short_branch:
                disp = target - (here + 2)
                if self.strict and (disp == 0 or not -0x80 <= disp <= 0x7F):
                    raise AssemblerError(f"short branch displacement {disp} invalid")
                finish(0x6000 | (cc << 8) | (disp & 0xFF), [])
            else:
                disp = target - (here + 2)
                self._check_disp16(disp)
                finish(0x6000 | (cc << 8), [disp & 0xFFFF])
            return

        if mnem.startswith("db"):  # dbf/dbra/dbcc...
            tail = mnem[2:]
            cc = 1 if tail in ("ra", "f") else CONDITIONS.get(tail)
            if cc is None:
                raise AssemblerError(f"unknown mnemonic {mnem!r}")
            target = self._eval(ops[1].expr)
            disp = target - (here + 2)
            self._check_disp16(disp)
            finish(0x50C8 | (cc << 8) | ops[0].reg, [disp & 0xFFFF])
            return

        if mnem.startswith("s") and mnem[1:] in CONDITIONS:
            cc = CONDITIONS[mnem[1:]]
            exts: List[int] = []
            mode, reg = self._ea(ops[0], 1, exts, here + 2)
            finish(0x50C0 | (cc << 8) | (mode << 3) | reg, exts)
            return

        # --- moves ---
        if mnem in ("move", "movea"):
            self._encode_move(size, ops, here)
            return
        if mnem == "moveq":
            value = self._eval(ops[0].expr)
            self._check_range(value, -0x80, 0xFF)
            finish(0x7000 | (ops[1].reg << 9) | (value & 0xFF), [])
            return
        if mnem == "movem":
            self._encode_movem(size or 2, ops, here)
            return
        if mnem == "lea":
            exts = []
            mode, reg = self._ea(ops[0], 4, exts, here + 2)
            if ops[1].kind != "areg":
                raise AssemblerError("lea destination must be an address register")
            finish(0x41C0 | (ops[1].reg << 9) | (mode << 3) | reg, exts)
            return
        if mnem == "pea":
            exts = []
            mode, reg = self._ea(ops[0], 4, exts, here + 2)
            finish(0x4840 | (mode << 3) | reg, exts)
            return
        if mnem == "exg":
            a, b = ops
            if a.kind == "dreg" and b.kind == "dreg":
                finish(0xC140 | (a.reg << 9) | b.reg, [])
            elif a.kind == "areg" and b.kind == "areg":
                finish(0xC148 | (a.reg << 9) | b.reg, [])
            elif a.kind == "dreg" and b.kind == "areg":
                finish(0xC188 | (a.reg << 9) | b.reg, [])
            elif a.kind == "areg" and b.kind == "dreg":
                finish(0xC188 | (b.reg << 9) | a.reg, [])
            else:
                raise AssemblerError("exg needs two registers")
            return
        if mnem == "swap":
            finish(0x4840 | ops[0].reg, [])
            return
        if mnem == "ext":
            finish((0x4880 if (size or 2) == 2 else 0x48C0) | ops[0].reg, [])
            return

        # --- jumps ---
        if mnem in ("jmp", "jsr"):
            exts = []
            mode, reg = self._ea(ops[0], 4, exts, here + 2)
            base = 0x4EC0 if mnem == "jmp" else 0x4E80
            finish(base | (mode << 3) | reg, exts)
            return

        # --- single-operand ---
        if mnem in ("clr", "neg", "negx", "not", "tst"):
            sz = size or 2
            base = {"negx": 0x4000, "clr": 0x4200, "neg": 0x4400,
                    "not": 0x4600, "tst": 0x4A00}[mnem]
            exts = []
            mode, reg = self._ea(ops[0], sz, exts, here + 2)
            finish(base | (SIZE_BITS[sz] << 6) | (mode << 3) | reg, exts)
            return

        # --- shifts ---
        if mnem in ("asl", "asr", "lsl", "lsr", "roxl", "roxr", "rol", "ror"):
            kind = {"as": 0, "ls": 1, "rox": 2, "ro": 3}[mnem.rstrip("lr")]
            left = mnem[-1] == "l"
            if len(ops) == 1:  # memory form
                exts = []
                mode, reg = self._ea(ops[0], 2, exts, here + 2)
                word = 0xE0C0 | (kind << 9) | (mode << 3) | reg
                if left:
                    word |= 0x0100
                finish(word, exts)
                return
            sz = size or 2
            src, dst = ops
            if dst.kind != "dreg":
                raise AssemblerError("register shift destination must be Dn")
            word = 0xE000 | (SIZE_BITS[sz] << 6) | (kind << 3) | dst.reg
            if left:
                word |= 0x0100
            if src.kind == "imm":
                cnt = self._eval(src.expr)
                self._check_range(cnt, 1, 8)
                word |= ((cnt & 7) << 9)
            elif src.kind == "dreg":
                word |= 0x0020 | (src.reg << 9)
            else:
                raise AssemblerError("bad shift count operand")
            finish(word, [])
            return

        # --- bit operations ---
        if mnem in ("btst", "bchg", "bclr", "bset"):
            btype = {"btst": 0, "bchg": 1, "bclr": 2, "bset": 3}[mnem]
            src, dst = ops
            exts: List[int] = []
            if src.kind == "imm":
                num = self._eval(src.expr)
                exts.append(num & 0xFF)
                mode, reg = self._ea(dst, 1, exts, here + 2)
                finish(0x0800 | (btype << 6) | (mode << 3) | reg, exts)
            elif src.kind == "dreg":
                mode, reg = self._ea(dst, 1, exts, here + 2)
                finish(0x0100 | (src.reg << 9) | (btype << 6) | (mode << 3) | reg, exts)
            else:
                raise AssemblerError("bit number must be immediate or Dn")
            return

        # --- BCD, TAS, CHK, MOVEP ---
        if mnem in ("abcd", "sbcd"):
            base = 0xC100 if mnem == "abcd" else 0x8100
            src, dst = ops
            if src.kind == "dreg" and dst.kind == "dreg":
                finish(base | (dst.reg << 9) | src.reg, [])
            elif src.kind == "predec" and dst.kind == "predec":
                finish(base | (dst.reg << 9) | 0x0008 | src.reg, [])
            else:
                raise AssemblerError(f"{mnem} operands must both be Dn "
                                     "or -(An)")
            return
        if mnem == "nbcd":
            exts = []
            mode, reg = self._ea(ops[0], 1, exts, here + 2)
            finish(0x4800 | (mode << 3) | reg, exts)
            return
        if mnem == "tas":
            exts = []
            mode, reg = self._ea(ops[0], 1, exts, here + 2)
            finish(0x4AC0 | (mode << 3) | reg, exts)
            return
        if mnem == "chk":
            exts = []
            mode, reg = self._ea(ops[0], 2, exts, here + 2)
            if ops[1].kind != "dreg":
                raise AssemblerError("chk destination must be Dn")
            finish(0x4180 | (ops[1].reg << 9) | (mode << 3) | reg, exts)
            return
        if mnem == "movep":
            src, dst = ops
            sz = size or 2
            if src.kind == "dreg" and dst.kind in ("disp", "ind"):
                to_reg = False
                dreg, mem = src.reg, dst
            elif dst.kind == "dreg" and src.kind in ("disp", "ind"):
                to_reg = True
                dreg, mem = dst.reg, src
            else:
                raise AssemblerError("movep needs Dn and d16(An)")
            opmode = (4 if to_reg else 6) | (1 if sz == 4 else 0)
            disp = self._eval(mem.expr) if mem.expr else 0
            finish((dreg << 9) | (opmode << 6) | 0x0008 | mem.reg,
                   [disp & 0xFFFF])
            return

        # --- mul/div ---
        if mnem in ("mulu", "muls", "divu", "divs"):
            exts = []
            mode, reg = self._ea(ops[0], 2, exts, here + 2)
            if ops[1].kind != "dreg":
                raise AssemblerError(f"{mnem} destination must be Dn")
            base = {"mulu": 0xC0C0, "muls": 0xC1C0, "divu": 0x80C0, "divs": 0x81C0}[mnem]
            finish(base | (ops[1].reg << 9) | (mode << 3) | reg, exts)
            return

        # --- two-operand arithmetic / logic ---
        if mnem in ("add", "adda", "addi", "addq", "addx",
                    "sub", "suba", "subi", "subq", "subx",
                    "cmp", "cmpa", "cmpi", "cmpm",
                    "and", "andi", "or", "ori", "eor", "eori"):
            self._encode_arith(mnem, size, ops, here)
            return

        raise AssemblerError(f"unknown mnemonic {mnem!r}")

    def _encode_move(self, size, ops: List[Operand], here: int):
        src, dst = ops
        sz = size or 2
        # Special registers.
        if dst.kind == "sr":
            exts = []
            mode, reg = self._ea(src, 2, exts, here + 2)
            self._emit_word(0x46C0 | (mode << 3) | reg)
            self._emit_words(exts)
            return
        if dst.kind == "ccr":
            exts = []
            mode, reg = self._ea(src, 2, exts, here + 2)
            self._emit_word(0x44C0 | (mode << 3) | reg)
            self._emit_words(exts)
            return
        if src.kind == "sr":
            exts = []
            mode, reg = self._ea(dst, 2, exts, here + 2)
            self._emit_word(0x40C0 | (mode << 3) | reg)
            self._emit_words(exts)
            return
        if dst.kind == "usp":
            self._emit_word(0x4E60 | src.reg)
            return
        if src.kind == "usp":
            self._emit_word(0x4E68 | dst.reg)
            return

        szbits = {1: 1, 2: 3, 4: 2}[sz]
        exts: List[int] = []
        smode, sreg = self._ea(src, sz, exts, here + 2)
        dmode, dreg = self._ea(dst, sz, exts, here + 2)
        if dst.kind in ("pcdisp", "pcindex", "imm"):
            raise AssemblerError("invalid move destination")
        self._emit_word((szbits << 12) | (dreg << 9) | (dmode << 6)
                        | (smode << 3) | sreg)
        self._emit_words(exts)

    def _encode_movem(self, size: int, ops: List[Operand], here: int):
        if ops[0].kind == "reglist" or (ops[0].kind in ("dreg", "areg")):
            # regs -> memory
            mask = ops[0].reglist if ops[0].kind == "reglist" else (
                1 << (ops[0].reg + (8 if ops[0].kind == "areg" else 0)))
            dst = ops[1]
            exts: List[int] = []
            mode, reg = self._ea(dst, size, exts, here + 4)
            if dst.kind == "predec":
                mask = _reverse16(mask)  # predecrement form: bit 0 means A7
            word = 0x4880 | (mode << 3) | reg
            if size == 4:
                word |= 0x0040
            self._emit_word(word)
            self._emit_word(mask)
            self._emit_words(exts)
        else:
            # memory -> regs
            src = ops[0]
            tgt = ops[1]
            mask = tgt.reglist if tgt.kind == "reglist" else (
                1 << (tgt.reg + (8 if tgt.kind == "areg" else 0)))
            exts = []
            mode, reg = self._ea(src, size, exts, here + 4)
            word = 0x4C80 | (mode << 3) | reg
            if size == 4:
                word |= 0x0040
            self._emit_word(word)
            self._emit_word(mask)
            self._emit_words(exts)

    def _encode_arith(self, mnem: str, size, ops: List[Operand], here: int):
        sz = size or 2
        src, dst = ops
        base_by_group = {"add": 0xD000, "sub": 0x9000, "cmp": 0xB000,
                         "and": 0xC000, "or": 0x8000, "eor": 0xB000}
        immed_by_group = {"add": (0x0600, True), "sub": (0x0400, True),
                          "cmp": (0x0C00, False), "and": (0x0200, False),
                          "or": (0x0000, False), "eor": (0x0A00, False)}

        group = mnem.rstrip("aiqmx") if mnem not in ("and", "or") else mnem
        if mnem in ("andi", "ori", "eori"):
            group = mnem[:-1]
        if mnem in ("addx", "subx"):
            group = mnem[:-1]

        # ANDI/ORI/EORI to CCR or SR.
        if dst.kind in ("ccr", "sr") and group in ("and", "or", "eor"):
            if src.kind != "imm":
                raise AssemblerError(f"{mnem} to {dst.kind} needs an immediate")
            base = {"or": 0x003C, "and": 0x023C, "eor": 0x0A3C}[group]
            if dst.kind == "sr":
                base |= 0x0040
            self._emit_word(base)
            self._emit_word(self._eval(src.expr) & 0xFFFF)
            return

        # ADDQ/SUBQ.
        if mnem in ("addq", "subq"):
            data = self._eval(src.expr)
            self._check_range(data, 1, 8)
            exts: List[int] = []
            mode, reg = self._ea(dst, sz, exts, here + 2)
            word = 0x5000 | ((data & 7) << 9) | (SIZE_BITS[sz] << 6) | (mode << 3) | reg
            if mnem == "subq":
                word |= 0x0100
            self._emit_word(word)
            self._emit_words(exts)
            return

        # ADDX/SUBX.
        if mnem in ("addx", "subx"):
            base = 0xD100 if mnem == "addx" else 0x9100
            if src.kind == "dreg" and dst.kind == "dreg":
                word = base | (dst.reg << 9) | (SIZE_BITS[sz] << 6) | src.reg
            elif src.kind == "predec" and dst.kind == "predec":
                word = base | (dst.reg << 9) | (SIZE_BITS[sz] << 6) | 0x0008 | src.reg
            else:
                raise AssemblerError(f"{mnem} operands must both be Dn or -(An)")
            self._emit_word(word)
            return

        # CMPM (An)+,(An)+.
        if mnem == "cmpm":
            if src.kind != "postinc" or dst.kind != "postinc":
                raise AssemblerError("cmpm operands must be (An)+")
            self._emit_word(0xB108 | (dst.reg << 9) | (SIZE_BITS[sz] << 6) | src.reg)
            return

        # ADDA/SUBA/CMPA (explicit or via address-register destination).
        if mnem in ("adda", "suba", "cmpa") or dst.kind == "areg":
            if dst.kind != "areg":
                raise AssemblerError(f"{mnem} destination must be An")
            group2 = {"adda": "add", "suba": "sub", "cmpa": "cmp"}.get(mnem, group)
            base = base_by_group[group2]
            opmode = 3 if sz == 2 else 7
            if sz == 1:
                raise AssemblerError("byte size invalid with address register")
            exts = []
            mode, reg = self._ea(src, sz, exts, here + 2)
            self._emit_word(base | (dst.reg << 9) | (opmode << 6) | (mode << 3) | reg)
            self._emit_words(exts)
            return

        # Immediate forms (ADDI etc.), chosen explicitly or when src is #imm
        # (except EOR which always uses the register form when src is Dn).
        use_imm = mnem in ("addi", "subi", "cmpi", "andi", "ori", "eori") or (
            src.kind == "imm" and mnem in ("add", "sub", "cmp", "and", "or", "eor"))
        if use_imm and src.kind == "imm":
            base, _ = immed_by_group[group]
            imm = self._eval(src.expr)
            exts = []
            if sz == 4:
                exts += [(imm >> 16) & 0xFFFF, imm & 0xFFFF]
            else:
                exts.append(imm & (0xFF if sz == 1 else 0xFFFF))
            mode, reg = self._ea(dst, sz, exts, here + 2)
            self._emit_word(base | (SIZE_BITS[sz] << 6) | (mode << 3) | reg)
            self._emit_words(exts)
            return

        base = base_by_group[group]
        if group == "eor":
            # EOR only supports Dn -> <ea>.
            if src.kind != "dreg":
                raise AssemblerError("eor source must be Dn or immediate")
            exts = []
            mode, reg = self._ea(dst, sz, exts, here + 2)
            self._emit_word(0xB000 | (src.reg << 9) | ((4 + SIZE_BITS[sz]) << 6)
                            | (mode << 3) | reg)
            self._emit_words(exts)
            return

        if dst.kind == "dreg":
            exts = []
            mode, reg = self._ea(src, sz, exts, here + 2)
            self._emit_word(base | (dst.reg << 9) | (SIZE_BITS[sz] << 6)
                            | (mode << 3) | reg)
            self._emit_words(exts)
            return
        if src.kind == "dreg" and group != "cmp":
            exts = []
            mode, reg = self._ea(dst, sz, exts, here + 2)
            self._emit_word(base | (src.reg << 9) | ((4 + SIZE_BITS[sz]) << 6)
                            | (mode << 3) | reg)
            self._emit_words(exts)
            return
        raise AssemblerError(f"unsupported {mnem} operand combination "
                             f"({src.kind} -> {dst.kind})")


def _reverse16(mask: int) -> int:
    out = 0
    for i in range(16):
        if mask & (1 << i):
            out |= 1 << (15 - i)
    return out


def _split_top_commas_respecting_strings(text: str) -> List[str]:
    parts, cur, in_str = [], [], False
    for ch in text:
        if ch == '"':
            in_str = not in_str
        if ch == "," and not in_str:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur).strip())
    return [p for p in parts if p]


def assemble(source: str, origin: int = 0,
             symbols: Optional[Dict[str, int]] = None) -> Program:
    """Assemble ``source`` at ``origin`` and return the :class:`Program`."""
    return Assembler(symbols).assemble(source, origin)


@functools.lru_cache(maxsize=64)
def _assemble_memo(source: str, origin: int,
                   symbols: Tuple[Tuple[str, int], ...]) -> Program:
    return assemble(source, origin, dict(symbols))


def assemble_cached(source: str, origin: int = 0,
                    symbols: Optional[Dict[str, int]] = None) -> Program:
    """:func:`assemble`, done once per process for each distinct
    ``(source, origin, symbols)``.

    Every call returns a fresh :class:`Program` (new segment list, new
    symbol dict; the segments themselves are immutable), so no caller
    can alter what a later call sees.
    """
    key = tuple(sorted((symbols or {}).items()))
    program = _assemble_memo(source, origin, key)
    return Program(segments=list(program.segments),
                   symbols=dict(program.symbols), entry=program.entry)
