"""Golden digests of the 68000 decoder over every opcode word.

All 65,536 words are decoded at ``ORIGIN`` under two extension-word
patterns: one with every sign bit clear, one with the sign bits (and
the brief-extension index-size bit) set, so negative displacements,
``.l`` index registers and high immediates are all rendered.  Per
opcode group (``word >> 12``) and pattern, one sha256 covers each
word's rendered text and length, and its structure: kind, target,
indirect, trap/emucall, reads, writes, sp_delta, link and unlk.

The committed digests pin the decoder's behaviour for every word the
interpreter accepts; a word it rejects decodes as ``dc.w $xxxx`` of
length 2.  After an intended change to the decoder, regenerate with::

    PYTHONPATH=src python -m tests.test_decode_golden --write
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.m68k.disasm import decode_insn, disassemble_one

GOLDEN = Path(__file__).with_name("decode_golden.json")
ORIGIN = 0x1000
PATTERNS = {
    "clear": (0x1234, 0x5678, 0x0ABC, 0x7DEF, 0x0123),
    "signed": (0x8F95, 0xFEDC, 0x9ABC, 0xF0E1, 0x8001),
}


def group_digests(exts):
    """Sixteen hex digests, one per opcode group, of every word's
    decoding followed by ``exts``."""
    words = [0] + list(exts)

    def fetch(addr):
        return words[(addr - ORIGIN) // 2]

    digests = [hashlib.sha256() for _ in range(16)]
    for op in range(0x10000):
        words[0] = op
        text, length = disassemble_one(fetch, ORIGIN)
        insn = decode_insn(fetch, ORIGIN)
        record = (op, text, length, insn.kind, insn.target, insn.indirect,
                  insn.trap, insn.emucall, insn.reads, insn.writes,
                  insn.sp_delta, insn.link, insn.unlk)
        digests[op >> 12].update(repr(record).encode())
    return [d.hexdigest() for d in digests]


def test_decoder_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    for name, exts in PATTERNS.items():
        got = group_digests(exts)
        moved = [f"{group:X}" for group in range(16)
                 if got[group] != golden[name][group]]
        assert not moved, f"pattern {name!r}: groups {moved} changed"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_decode_golden --write")
    GOLDEN.write_text(json.dumps(
        {name: group_digests(exts) for name, exts in PATTERNS.items()},
        indent=1) + "\n")
