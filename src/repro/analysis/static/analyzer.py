"""The diagnostics engine: CFG checks and whole-ROM analysis.

:func:`run_checks` walks a :class:`~repro.analysis.static.walker.CFG`
and emits typed findings; :func:`analyze_rom` builds the shipped ROM,
walks it from every known entry point (reset vector, trap stubs,
interrupt service routine, application entries) and returns the CFG,
the findings and the static trap census in one :class:`RomAnalysis`.

The checks are deliberately conservative: a finding of severity ERROR
means "this executes wrongly on the emulated CPU" (illegal opcode on a
reachable path, a statically-known write into the write-protected
flash window, a word/long access to an odd address, a branch to an odd
or out-of-range target), not a style opinion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ...m68k.disasm import K_EMUCALL, K_ILLEGAL, K_RETURN, K_TRAP
from ...palmos.traps import (CALL_APP_RETURNED, CALL_BOOT, CALL_DELAY_TRY,
                             CALL_EVT_TRY, CALL_GET_APP, CALL_PANIC, Trap)
from .census import TrapCensus
from .findings import CheckContext, Report, Severity
from .walker import CFG, walk

_KNOWN_EMUCALLS = {int(t) for t in Trap} | {
    CALL_BOOT, CALL_GET_APP, CALL_EVT_TRY, CALL_APP_RETURNED,
    CALL_DELAY_TRY, CALL_PANIC,
}


def run_checks(cfg: CFG, ctx: CheckContext,
               candidates: Sequence[int] = ()) -> Report:
    """Run every CFG diagnostic; returns the findings."""
    report = Report()
    _check_reachable_instructions(cfg, ctx, report)
    _check_structure(cfg, ctx, report)
    for entry in sorted(cfg.function_entries & cfg.reachable):
        _check_stack_balance(cfg, entry, report)
    for addr in candidates:
        if not cfg.contains_address(addr):
            report.add(Severity.INFO, "unreachable-code",
                       "expected code was never discovered by the walker",
                       address=addr)
    insns = len(cfg.insn_map)
    covered = sum(i.length for i in cfg.insn_map.values())
    report.add(Severity.INFO, "coverage",
               f"{len(cfg.blocks)} blocks, {insns} instructions, "
               f"{covered} bytes, {len(cfg.reachable)} reachable blocks")
    return report


def _check_reachable_instructions(cfg: CFG, ctx: CheckContext,
                                  report: Report) -> None:
    flash = ctx.flash_range
    for start in sorted(cfg.reachable):
        for insn in cfg.blocks[start].insns:
            if insn.kind == K_ILLEGAL:
                report.add(Severity.ERROR, "illegal-opcode",
                           f"illegal opcode ${insn.word:04x} on a "
                           f"reachable path", address=insn.addr, block=start)
            if insn.kind == K_TRAP:
                try:
                    Trap(insn.trap)
                except ValueError:
                    report.add(Severity.ERROR, "unknown-trap",
                               f"A-line trap index {insn.trap:#05x} has no "
                               f"Palm OS trap assigned",
                               address=insn.addr, block=start)
            if insn.kind == K_EMUCALL and (insn.emucall >> 1) \
                    not in _KNOWN_EMUCALLS:
                report.add(Severity.WARNING, "unknown-emucall",
                           f"F-line word ${insn.word:04x} is not a known "
                           f"emucall", address=insn.addr, block=start)
            if insn.target is not None and insn.target & 1:
                report.add(Severity.ERROR, "odd-target",
                           f"control transfer to odd address "
                           f"{insn.target:#010x}",
                           address=insn.addr, block=start)
            for addr, size in insn.reads + insn.writes:
                if size >= 2 and addr & 1:
                    report.add(Severity.ERROR, "unaligned-access",
                               f"{size}-byte access to odd address "
                               f"{addr:#010x}", address=insn.addr,
                               block=start)
            if flash is not None:
                for addr, size in insn.writes:
                    if flash[0] <= addr < flash[1]:
                        report.add(Severity.ERROR, "flash-write",
                                   f"statically-known write of {size} "
                                   f"byte(s) into the write-protected "
                                   f"flash window at {addr:#010x}",
                                   address=insn.addr, block=start)


def _check_structure(cfg: CFG, ctx: CheckContext, report: Report) -> None:
    for source, target in cfg.out_of_range_targets:
        report.add(Severity.ERROR, "target-out-of-range",
                   f"control transfer to {target:#010x}, outside the "
                   f"code range {ctx.code_range[0]:#x}..{ctx.code_range[1]:#x}",
                   address=source)
    for block_head in cfg.unterminated:
        report.add(Severity.ERROR, "unterminated-block",
                   "straight-line code runs past the end of the code "
                   "range without a terminator", address=block_head,
                   block=block_head)
    for earlier, entry in cfg.overlaps:
        report.add(Severity.WARNING, "mid-instruction-entry",
                   f"control-flow target lands inside the instruction "
                   f"at {earlier:#010x}", address=entry)


def _check_stack_balance(cfg: CFG, entry: int, report: Report) -> None:
    """Check that every return path of the subroutine at ``entry`` has
    a zero net A7 delta (``link``/``unlk`` pairs cancel exactly).

    Paths with statically-unknown stack effects are skipped rather than
    guessed at; conflicting deltas at a join point are reported as a
    WARNING (a loop that accumulates stack is almost always a bug, but
    the tracker is intentionally simple).
    """
    if entry not in cfg.blocks:
        return
    states: Dict[int, Tuple[int, tuple]] = {entry: (0, ())}
    work = [entry]
    while work:
        start = work.pop()
        delta, frames = states[start]
        known = True
        block = cfg.blocks[start]
        for insn in block.insns:
            if insn.link is not None:
                frames = frames + ((insn.link[0], delta),)
                delta = delta - 4 + insn.link[1]
            elif insn.unlk is not None:
                if frames and frames[-1][0] == insn.unlk:
                    delta = frames[-1][1]
                    frames = frames[:-1]
                else:
                    known = False      # unpaired unlk: give up on path
                    break
            elif insn.kind == K_RETURN:
                if delta != 0:
                    report.add(Severity.ERROR, "stack-imbalance",
                               f"subroutine {entry:#010x} returns with a "
                               f"net stack delta of {delta:+d} bytes",
                               address=insn.addr, block=start)
                known = False          # a return ends the path
                break
            elif insn.sp_delta is None:
                known = False          # unknown effect: give up on path
                break
            else:
                delta += insn.sp_delta
        if not known:
            continue
        for succ in block.succs:
            if succ not in cfg.blocks:
                continue
            if succ in states:
                if states[succ] != (delta, frames):
                    report.add(Severity.WARNING, "stack-varies",
                               f"subroutine {entry:#010x} reaches "
                               f"{succ:#010x} with differing stack "
                               f"depths", address=succ, block=succ)
            else:
                states[succ] = (delta, frames)
                work.append(succ)


@dataclass
class RomAnalysis:
    """Everything :func:`analyze_rom`/:func:`analyze_image` produce."""

    cfg: CFG
    report: Report
    census: TrapCensus
    ctx: CheckContext
    #: The assembled :class:`~repro.m68k.asm.Program` (ROM analyses only).
    program: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.report.ok


def analyze_image(image: bytes, base: int, roots: Iterable[int], *,
                  code_end: Optional[int] = None,
                  trap_targets: Optional[Dict[int, int]] = None,
                  function_entries: Iterable[int] = (),
                  candidates: Sequence[int] = (),
                  flash_range: Optional[Tuple[int, int]] = None
                  ) -> RomAnalysis:
    """Walk and check a raw code image mapped at ``base``.

    ``code_end`` bounds the walk (default: end of the image);
    ``function_entries`` adds known subroutine entries (for the stack
    checker) beyond what ``jsr``/``bsr`` discover — e.g. application
    entries only ever called through a register.
    """
    hi = code_end if code_end is not None else base + len(image)
    ctx = CheckContext(code_range=(base, hi), flash_range=flash_range)

    def fetch(addr: int) -> int:
        off = addr - base
        if 0 <= off + 1 < len(image):
            return (image[off] << 8) | image[off + 1]
        return 0

    cfg = walk(fetch, roots, code_range=(base, hi),
               trap_targets=trap_targets)
    cfg.function_entries.update(
        e for e in function_entries if e in cfg.blocks)
    report = run_checks(cfg, ctx, candidates=candidates)
    return RomAnalysis(cfg, report, TrapCensus.from_cfg(cfg), ctx)


def analyze_rom(apps: Optional[Sequence] = None) -> RomAnalysis:
    """Build the shipped ROM and analyze it end to end.

    ``apps`` defaults to the standard application set the CLI ships.
    Roots are every entry point the hardware or kernel can reach
    directly: the reset vector's initial PC, the trap dispatcher, the
    interrupt service routine, the unimplemented-trap handler, every
    trap stub and every application entry.
    """
    from ...apps import standard_apps
    from ...device import constants as C
    from ...palmos.rom import RomBuilder

    builder = RomBuilder(standard_apps() if apps is None else list(apps))
    program = builder.build()
    origin, code = program.segments[0]
    image = bytes(code)

    reset_pc = int.from_bytes(image[4:8], "big")
    stubs = builder.stub_addresses(program)
    app_entries = [addr for _, addr in builder.app_entries(program)]
    roots = [reset_pc,
             program.symbols["trap_dispatcher"],
             program.symbols["rom_isr"],
             program.symbols["rom_unimplemented"]]
    roots += sorted(set(stubs.values()))
    roots += app_entries

    analysis = analyze_image(
        image, origin, roots,
        trap_targets=stubs,
        # Apps are invoked via jsr (a0); make them subroutine entries
        # for the stack checker even though no static jsr names them.
        function_entries=app_entries,
        flash_range=(C.FLASH_BASE, C.FLASH_BASE + C.FLASH_SIZE))
    analysis.program = program
    return analysis
