"""Tests for the static analysis subsystem (repro.analysis.static)."""

import pytest

from repro.analysis.static import (Severity, TrapCensus, analyze_image,
                                   analyze_rom, walk)
from repro.m68k.asm import assemble
from repro.m68k.disasm import (K_CALL, K_CONDBRANCH, K_ILLEGAL, K_RETURN,
                               K_TRAP, disassemble_one, is_legal)

ORIGIN = 0x1000


def _fetch_of(blob: bytes, base: int = ORIGIN):
    def fetch(addr: int) -> int:
        off = addr - base
        if 0 <= off + 1 < len(blob) + 1:
            hi = blob[off] if off < len(blob) else 0
            lo = blob[off + 1] if off + 1 < len(blob) else 0
            return (hi << 8) | lo
        return 0
    return fetch


def _analyze(source: str, roots=("start",), **kw):
    program = assemble(source, origin=ORIGIN)
    blob = bytes(program.blob)
    addrs = [program.symbols[r] if isinstance(r, str) else r for r in roots]
    return program, analyze_image(blob, ORIGIN, addrs, **kw)


# ----------------------------------------------------------------------
# Satellite: the disassembler is total
# ----------------------------------------------------------------------
class TestDisassemblerTotality:
    def test_all_65536_words_disassemble(self):
        """Every opcode word disassembles without raising, and renders
        as ``dc.w`` of length 2 exactly when the interpreter rejects it
        (A-line and F-line words render as traps and emucalls)."""
        mem = {}

        def fetch(addr):
            return mem.get(addr, 0)

        for op in range(0x10000):
            mem[0] = op
            text, length = disassemble_one(fetch, 0)
            assert length >= 2, f"op {op:#06x} length {length}"
            if is_legal(op):
                assert not text.startswith("dc.w"), (
                    f"op {op:#06x} is legal but renders as dc.w")
            else:
                assert (text, length) == (f"dc.w ${op:04x}", 2), (
                    f"op {op:#06x} is illegal but renders as {text!r}")

    def test_every_dcw_word_is_interpreter_illegal(self):
        """The disassembler only falls back to dc.w for words the
        interpreter also rejects (A/F-line words excepted: those render
        as traps/emucalls, never dc.w)."""
        mem = {}

        def fetch(addr):
            return mem.get(addr, 0)

        for op in range(0x10000):
            if op >> 12 in (0xA, 0xF):
                continue
            mem[0] = op
            text, _ = disassemble_one(fetch, 0)
            if text.startswith("dc.w") and op != 0x4AFC:
                assert not is_legal(op), (
                    f"op {op:#06x} is legal but renders as dc.w")


# ----------------------------------------------------------------------
# The CFG walker
# ----------------------------------------------------------------------
class TestWalker:
    def test_loop(self):
        program, analysis = _analyze("""
start:  moveq   #5,d0
loop:   subq.l  #1,d0
        bne.s   loop
        rts
""")
        cfg = analysis.cfg
        start = program.symbols["start"]
        loop = program.symbols["loop"]
        assert start in cfg.blocks and loop in cfg.blocks
        loop_block = cfg.blocks[loop]
        assert loop_block.terminator.kind == K_CONDBRANCH
        assert loop in loop_block.succs                  # the back edge
        assert loop_block.end in cfg.blocks              # the exit block
        assert cfg.blocks[loop_block.end].terminator.kind == K_RETURN
        assert cfg.reachable == set(cfg.blocks)
        assert analysis.report.ok

    def test_call_and_return(self):
        program, analysis = _analyze("""
start:  bsr.s   sub
        moveq   #0,d0
        rts
sub:    moveq   #1,d1
        rts
""")
        cfg = analysis.cfg
        sub = program.symbols["sub"]
        start_block = cfg.blocks[program.symbols["start"]]
        assert start_block.terminator.kind == K_CALL
        assert sub in start_block.calls
        assert sub in cfg.function_entries
        assert start_block.end in start_block.succs      # call falls through
        assert analysis.report.ok

    def test_trap_edge_and_census(self):
        program = assemble("""
start:  dc.w    $a001          ; EvtGetEvent
        rts
stub:   rte
""", origin=ORIGIN)
        blob = bytes(program.blob)
        stub = program.symbols["stub"]
        cfg = walk(_fetch_of(blob), [program.symbols["start"]],
                   code_range=(ORIGIN, ORIGIN + len(blob)),
                   trap_targets={1: stub})
        start_block = cfg.blocks[program.symbols["start"]]
        assert start_block.insns[0].kind == K_TRAP
        assert start_block.insns[0].trap == 1
        assert stub in start_block.calls                 # the A-line edge
        assert stub in cfg.reachable
        census = TrapCensus.from_cfg(cfg)
        assert census.names() == {"EvtGetEvent": 1}

    def test_dead_block_reported_via_candidates(self):
        source = """
start:  moveq   #0,d0
        rts
dead:   moveq   #1,d1          ; no edge ever reaches this
        rts
"""
        program = assemble(source, origin=ORIGIN)
        dead = program.symbols["dead"]
        _, analysis = _analyze(source, candidates=[dead])
        assert not analysis.cfg.contains_address(dead)
        findings = analysis.report.at(dead)
        assert any(f.code == "unreachable-code" for f in findings)
        assert analysis.report.ok                        # INFO, not an error

    def test_unterminated_block(self):
        program, analysis = _analyze("start:  moveq   #1,d0\n")
        assert analysis.report.has("unterminated-block")
        assert not analysis.report.ok

    def test_dominators(self):
        program, analysis = _analyze("""
start:  tst.l   d0
        beq.s   other
        moveq   #1,d1
other:  rts
""")
        cfg = analysis.cfg
        dom = cfg.dominators()
        start = program.symbols["start"]
        other = program.symbols["other"]
        # The entry dominates everything; the join point is dominated
        # by the entry but not by the skipped then-branch.
        then_block = [s for s in cfg.blocks if s not in (start, other)][0]
        assert dom[other] == {start, other}
        assert start in dom[then_block]


# ----------------------------------------------------------------------
# Injected defects: the analyzer flags the right addresses
# ----------------------------------------------------------------------
class TestInjectedDefects:
    def test_illegal_opcode_on_reachable_path(self):
        assert not is_legal(0x4E7B)                      # movec: not a 68000 op
        program, analysis = _analyze("""
start:  moveq   #0,d0
bad:    dc.w    $4e7b
""")
        bad = program.symbols["bad"]
        assert not analysis.report.ok
        findings = analysis.report.at(bad)
        assert any(f.code == "illegal-opcode"
                   and f.severity == Severity.ERROR for f in findings)
        assert analysis.cfg.instruction_at(bad).kind == K_ILLEGAL

    def test_flash_window_write(self):
        program, analysis = _analyze("""
start:  move.w  d0,$00200100
        rts
""", flash_range=(0x0020_0000, 0x0030_0000))
        start = program.symbols["start"]
        assert not analysis.report.ok
        findings = analysis.report.at(start)
        assert any(f.code == "flash-write"
                   and f.severity == Severity.ERROR for f in findings)

    def test_unaligned_long_access(self):
        program, analysis = _analyze("""
start:  move.l  $00002001,d0
        rts
""")
        assert analysis.report.has("unaligned-access")
        assert not analysis.report.ok

    def test_stack_imbalanced_subroutine(self):
        program, analysis = _analyze("""
start:  bsr.s   bad
        rts
bad:    move.l  d0,-(sp)       ; pushed, never popped
        rts
""")
        assert not analysis.report.ok
        imbalance = [f for f in analysis.report
                     if f.code == "stack-imbalance"]
        assert imbalance and imbalance[0].severity == Severity.ERROR

    def test_balanced_subroutine_with_link(self):
        program, analysis = _analyze("""
start:  bsr.s   sub
        rts
sub:    link    a6,#-16
        move.l  d0,-(sp)
        move.l  (sp)+,d0
        unlk    a6
        rts
""")
        assert analysis.report.ok


# ----------------------------------------------------------------------
# The shipped ROM
# ----------------------------------------------------------------------
class TestRomAnalysis:
    @pytest.fixture(scope="class")
    def rom(self):
        return analyze_rom()

    def test_no_error_findings(self, rom):
        assert rom.report.ok, rom.report.format()

    def test_all_stubs_reachable(self, rom):
        from repro.palmos.traps import Trap
        for trap in Trap:
            addr = rom.program.symbols[f"stub_{trap.name}"]
            assert addr in rom.cfg.reachable, f"stub_{trap.name} unreachable"

    def test_census_covers_boot_seed(self, rom):
        # rom_boot seeds the RNG through the trap path (SYS_SysRandom).
        assert "SysRandom" in rom.census.names()
        assert "EvtGetEvent" in rom.census.names()

    def test_dynamic_trap_histogram_against_census(self, rom):
        # Every trap in the census resolves to a name, and a synthetic
        # dynamic histogram of the census's own traps cross-checks clean.
        dynamic = {idx: len(sites) for idx, sites in rom.census.sites.items()}
        assert rom.census.compare_dynamic(dynamic).ok
        assert not rom.census.compare_dynamic({0x1FF: 3}).ok


# ----------------------------------------------------------------------
# Satellites: length agreement under random extensions, deterministic
# unreachable-block ordering, and stable report sorting
# ----------------------------------------------------------------------
class TestUnreachableBlockOrdering:
    def _cfg(self, root_order):
        source = """
start:  moveq   #0,d0
        rts
deadb:  moveq   #2,d2
        rts
deada:  moveq   #1,d1
        rts
"""
        program = assemble(source, origin=ORIGIN)
        roots = [program.symbols[name] for name in root_order]
        cfg = walk(_fetch_of(bytes(program.blob)), roots)
        # Narrow the roots after the walk: the orphan blocks stay in
        # cfg.blocks but drop out of the reachable set.
        cfg.roots = (program.symbols["start"],)
        cfg._reachable = None
        return program, cfg

    def test_order_is_sorted_and_insertion_independent(self):
        program, cfg1 = self._cfg(["start", "deadb", "deada"])
        _, cfg2 = self._cfg(["deada", "start", "deadb"])
        dead1 = [b.start for b in cfg1.unreachable_blocks()]
        dead2 = [b.start for b in cfg2.unreachable_blocks()]
        expected = sorted([program.symbols["deadb"],
                           program.symbols["deada"]])
        assert dead1 == expected
        assert dead2 == expected
        # Repeated calls are stable too.
        assert [b.start for b in cfg1.unreachable_blocks()] == dead1


class TestReportOrdering:
    def test_sorted_is_severity_major_address_minor_and_stable(self):
        from repro.analysis.static.findings import Report, Severity

        report = Report()
        report.add(Severity.INFO, "c-info", "one", address=0x10)
        report.add(Severity.ERROR, "a-err", "late error", address=0x200)
        report.add(Severity.WARNING, "b-warn", "no address")
        report.add(Severity.ERROR, "a-err", "early error", address=0x20)
        report.add(Severity.WARNING, "b-warn", "first tie", address=0x40)
        report.add(Severity.WARNING, "b-warn2", "second tie", address=0x40)

        ordered = report.sorted()
        assert [f.severity for f in ordered] == [
            Severity.ERROR, Severity.ERROR,
            Severity.WARNING, Severity.WARNING, Severity.WARNING,
            Severity.INFO]
        # Errors ordered by address; addressless findings sort after
        # addressed ones of the same severity.
        assert [f.address for f in ordered[:2]] == [0x20, 0x200]
        assert [f.address for f in ordered[2:5]] == [0x40, 0x40, None]
        # Equal (severity, address) keeps insertion order: stable sort.
        assert [f.code for f in ordered[2:4]] == ["b-warn", "b-warn2"]
        # format() renders in the same order.
        lines = report.format().splitlines()
        assert lines[0].startswith("error") and "0x00000020" in lines[0]
        # The original findings list is untouched.
        assert report.findings[0].code == "c-info"
