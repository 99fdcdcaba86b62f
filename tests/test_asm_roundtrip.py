"""Property test: assemble → disassemble → reassemble is a fixpoint.

For a broad family of instructions, the assembler's encoding and the
disassembler's rendering must agree: the disassembled length is the
encoded length, and assembling the disassembled text reproduces the
exact bytes.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.m68k.asm import assemble
from repro.m68k.disasm import disassemble_one

ORIGIN = 0x1000

dreg = st.integers(0, 7).map("d{}".format)
areg = st.integers(0, 7).map("a{}".format)
size = st.sampled_from(["b", "w", "l"])
wl_size = st.sampled_from(["w", "l"])
quick = st.integers(1, 8)
disp16 = st.integers(-0x8000, 0x7FFF)


@st.composite
def mem_ea(draw):
    """A memory effective address (no immediates, no Dn/An)."""
    form = draw(st.sampled_from(["ind", "post", "pre", "disp"]))
    a = draw(areg)
    if form == "ind":
        return f"({a})"
    if form == "post":
        return f"({a})+"
    if form == "pre":
        return f"-({a})"
    return f"{draw(disp16)}({a})"


@st.composite
def move_line(draw):
    sz = draw(size)
    src = draw(st.one_of(dreg, mem_ea(),
                         st.integers(0, 0xFF).map("#{}".format)))
    dst = draw(st.one_of(dreg, mem_ea()))
    return f"move.{sz} {src},{dst}"


@st.composite
def arith_line(draw):
    op = draw(st.sampled_from(["add", "sub", "and", "or", "cmp"]))
    sz = draw(size)
    src = draw(st.one_of(dreg, mem_ea()))
    return f"{op}.{sz} {src},{draw(dreg)}"


@st.composite
def quick_line(draw):
    op = draw(st.sampled_from(["addq", "subq"]))
    sz = draw(size)
    dst = draw(st.one_of(dreg, mem_ea()))
    return f"{op}.{sz} #{draw(quick)},{dst}"


@st.composite
def single_op_line(draw):
    op = draw(st.sampled_from(["clr", "not", "neg", "tst"]))
    dst = draw(st.one_of(dreg, mem_ea()))
    return f"{op}.{draw(size)} {dst}"


@st.composite
def shift_line(draw):
    op = draw(st.sampled_from(["lsl", "lsr", "asl", "asr", "rol", "ror"]))
    count = draw(st.one_of(quick.map("#{}".format), dreg))
    return f"{op}.{draw(size)} {count},{draw(dreg)}"


@st.composite
def misc_line(draw):
    return draw(st.sampled_from([
        f"moveq #{draw(st.integers(-128, 127))},{draw(dreg)}",
        f"swap {draw(dreg)}",
        f"exg {draw(dreg)},{draw(dreg)}",
        f"lea {draw(disp16)}({draw(areg)}),{draw(areg)}",
        f"pea ({draw(areg)})",
        f"link {draw(areg)},#{draw(st.integers(-0x8000, 0))}",
        f"unlk {draw(areg)}",
        f"movea.{draw(wl_size)} {draw(areg)},{draw(areg)}",
        "nop",
        "rts",
    ]))


instruction = st.one_of(move_line(), arith_line(), quick_line(),
                        single_op_line(), shift_line(), misc_line())


@settings(max_examples=300, deadline=None)
@given(instruction)
def test_assemble_disassemble_reassemble(line):
    program = assemble("    " + line, origin=ORIGIN)
    blob = bytes(program.blob)

    def fetch(addr):
        off = addr - ORIGIN
        hi = blob[off] if off < len(blob) else 0
        lo = blob[off + 1] if off + 1 < len(blob) else 0
        return (hi << 8) | lo

    text, length = disassemble_one(fetch, ORIGIN)
    assert length == len(blob), (line, text)
    assert not text.startswith("dc.w"), (line, text)

    reassembled = bytes(assemble("    " + text, origin=ORIGIN).blob)
    assert reassembled == blob, (line, text)
