"""The seeded defect corpus: one planted guest program per defect class.

Each program is a tiny m68k routine (assembled with
:mod:`repro.m68k.asm`) that allocates through the real ``MemPtrNew``
trap and then commits exactly one memory crime.  The harness runs it on
a booted kernel with the sanitizer attached — the same way
``call_trap`` drives host-built thunks — and checks that the expected
finding appears at the expected address.

Programs publish their allocation pointer to a scratch slot *below*
the sanitized window (``PTR_SLOT``) so the harness can compute exact
expected addresses after the run; allocation addresses are fully
deterministic (same ROM, same boot, same heap walk), which is what lets
``tools/sanitize_baseline.json`` store absolute addresses and CI fail
only on *new* findings.

Every program is also its own elision test bed: a CFG walk plus
constant propagation over the program text feeds
:func:`repro.analysis.sanitizer.elide.compute_elision`, so each run
exercises the static layer, and :func:`differential` asserts the
elided and full-check runs report bit-identical findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...m68k.asm import assemble
from ...palmos.kernel import PalmOS
from ..static.dataflow import analyze_constprop
from ..static.walker import walk
from .core import MemorySanitizer
from .elide import ElisionResult, compute_elision

#: Where corpus programs live: between the frame buffer and the
#: dynamic heap, outside every region the kernel or sanitizer manages.
CODE_AT = 0x14000
#: Scratch slot (below the sanitized window) where programs publish
#: their allocation pointer for the harness.
PTR_SLOT = 0x13FFC
#: RAM size for corpus machines — small keeps the shadow map cheap.
RAM_SIZE = 2 << 20

_EXIT = "        dc.w    $ffff           ; host exit marker"


def _alloc(size: int) -> str:
    return (f"        move.l  #{size},-(sp)\n"
            f"        dc.w    $a020           ; MemPtrNew\n"
            f"        addq.l  #4,sp\n"
            f"        move.l  d0,${PTR_SLOT:x}\n"
            f"        movea.l d0,a0\n")


def _free() -> str:
    return (f"        movea.l ${PTR_SLOT:x},a0\n"
            f"        move.l  a0,-(sp)\n"
            f"        dc.w    $a021           ; MemPtrFree\n"
            f"        addq.l  #4,sp\n")


@dataclass(frozen=True)
class DefectProgram:
    """One corpus entry and its expected finding."""

    name: str
    source: str
    #: Expected finding code, or None for the clean control program.
    code: Optional[str]
    severity: Optional[str] = None
    #: Expected finding address relative to the published pointer.
    addr_offset: int = 0
    description: str = ""


PROGRAMS: Tuple[DefectProgram, ...] = (
    DefectProgram(
        name="oob-read",
        code="san-oob-read", severity="ERROR", addr_offset=32,
        description="reads one byte past a 32-byte allocation",
        source=(f"        org     ${CODE_AT:x}\n"
                + _alloc(32)
                + "        move.b  32(a0),d1       ; one past the end\n"
                + _free() + _EXIT),
    ),
    DefectProgram(
        name="oob-write",
        code="san-oob-write", severity="ERROR", addr_offset=16,
        description="writes one word past a 16-byte allocation",
        source=(f"        org     ${CODE_AT:x}\n"
                + _alloc(16)
                + "        move.w  d1,16(a0)       ; lands in the red zone\n"
                + _free() + _EXIT),
    ),
    DefectProgram(
        name="uaf",
        code="san-uaf", severity="ERROR", addr_offset=0,
        description="reads a chunk after freeing it",
        source=(f"        org     ${CODE_AT:x}\n"
                + _alloc(24)
                + _free()
                + "        movea.l ${:x},a0\n".format(PTR_SLOT)
                + "        move.b  (a0),d1         ; use after free\n"
                + _EXIT),
    ),
    DefectProgram(
        name="double-free",
        code="san-double-free", severity="ERROR", addr_offset=0,
        description="frees the same pointer twice",
        source=(f"        org     ${CODE_AT:x}\n"
                + _alloc(24)
                + _free()
                + _free()
                + _EXIT),
    ),
    DefectProgram(
        name="uninit-read",
        code="san-uninit-read", severity="WARNING", addr_offset=0,
        description="reads a fresh allocation before writing it",
        source=(f"        org     ${CODE_AT:x}\n"
                + _alloc(16)
                + "        move.b  (a0),d1         ; never written\n"
                + _free() + _EXIT),
    ),
    DefectProgram(
        name="leak",
        code="san-leak", severity="WARNING", addr_offset=0,
        description="allocates and exits without freeing",
        source=(f"        org     ${CODE_AT:x}\n"
                + _alloc(40)
                + "        move.b  d1,(a0)         ; touch it, keep it\n"
                + _EXIT),
    ),
    DefectProgram(
        name="clean",
        code=None,
        description="allocates, initialises, reads back, frees",
        source=(f"        org     ${CODE_AT:x}\n"
                + _alloc(16)
                + "        move.l  #$11223344,(a0)\n"
                + "        move.l  (a0),d1\n"
                + _free() + _EXIT),
    ),
)


@dataclass
class ProgramResult:
    """Outcome of one corpus program run."""

    program: DefectProgram
    ptr: int
    findings: List[Tuple[str, str, int]]  # (code, severity, address)
    elision: ElisionResult
    san_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def expected_address(self) -> Optional[int]:
        if self.program.code is None:
            return None
        return self.ptr + self.program.addr_offset

    @property
    def matched(self) -> bool:
        """True when the run shows exactly the planted defect class —
        right code, right severity, right address — and the clean
        program shows nothing."""
        if self.program.code is None:
            return not self.findings
        want = (self.program.code, self.program.severity or "",
                self.expected_address or 0)
        return want in self.findings

    def keys(self) -> Set[Tuple[str, int]]:
        """(code, address) pairs for the baseline gate."""
        return {(code, addr) for code, _sev, addr in self.findings}


def programs_by_name() -> Dict[str, DefectProgram]:
    return {p.name: p for p in PROGRAMS}


def _run_guest(kernel: PalmOS, entry: int, max_ticks: int = 50_000) -> None:
    """Run loaded guest code until its ``dc.w $ffff`` exit marker, the
    same way :meth:`PalmOS.call_trap` drives host-built thunks."""
    cpu = kernel.device.cpu
    saved_pc = cpu.pc
    saved_stopped = cpu.stopped
    done = {"flag": False}
    prev_fline = cpu.fline_handler

    def fline(c: object, op: int) -> bool:
        if op == 0xFFFF:
            done["flag"] = True
            cpu.stopped = True
            return True
        return bool(prev_fline(c, op)) if prev_fline else False

    cpu.fline_handler = fline
    cpu.stopped = False
    cpu.pc = entry
    deadline = kernel.device.tick + max_ticks
    while not done["flag"] and kernel.device.tick < deadline:
        kernel.device.advance(kernel.device.tick + 1)
    cpu.fline_handler = prev_fline
    if not done["flag"]:
        raise RuntimeError("corpus program did not reach its exit marker")
    cpu.pc = saved_pc
    cpu.stopped = saved_stopped


def _program_elision(kernel: PalmOS, start: int, end: int) -> ElisionResult:
    fetch = kernel.host.read16
    cfg = walk(fetch, [start], code_range=(start, end))
    const = analyze_constprop(cfg, fetch)
    return compute_elision(cfg, const,
                           heap_hi=int(kernel.device.mem.ram_limit))


def run_program(program: DefectProgram, *, elide: bool = True,
                ram_size: int = RAM_SIZE) -> ProgramResult:
    """Boot a fresh machine, plant the program, run it sanitized."""
    kernel = PalmOS(ram_size=ram_size)
    kernel.boot()
    blob = assemble(program.source)
    end = CODE_AT
    for addr, data in blob.segments:
        kernel.device.mem.load_ram(addr, data)
        end = max(end, addr + len(data))
    elision = _program_elision(kernel, CODE_AT, end)
    san = MemorySanitizer(
        elide_pcs=elision.safe_pcs if elide else frozenset(),
        attribution=elision.attribution)
    san.attach(kernel)
    try:
        _run_guest(kernel, CODE_AT)
    finally:
        report = san.detach()
    ptr = kernel.host.read32(PTR_SLOT)
    findings = [(f.code, f.severity.name, f.address or 0)
                for f in report.sorted()]
    return ProgramResult(program=program, ptr=ptr, findings=findings,
                         elision=elision, san_stats=san.stats())


def run_corpus(names: Optional[Sequence[str]] = None, *,
               elide: bool = True) -> List[ProgramResult]:
    table = programs_by_name()
    selected = (PROGRAMS if names is None
                else tuple(table[n] for n in names))
    return [run_program(p, elide=elide) for p in selected]


def differential(names: Optional[Sequence[str]] = None) -> List[str]:
    """Run every program with and without elision; the finding sets
    must be bit-identical (the elision proof is sound).  Returns the
    names that diverged (empty == pass)."""
    bad: List[str] = []
    for full, elided in zip(run_corpus(names, elide=False),
                            run_corpus(names, elide=True)):
        if sorted(full.findings) != sorted(elided.findings):
            bad.append(full.program.name)
    return bad


# ----------------------------------------------------------------------
# Baseline gate (same contract as tools/audit_baseline.json)
# ----------------------------------------------------------------------
def baseline_keys(results: Sequence[ProgramResult]) -> Dict[str, List[List[object]]]:
    """JSON-ready mapping: program name -> sorted (code, address)."""
    return {r.program.name: sorted([code, addr] for code, addr in r.keys())
            for r in results}


def new_findings_against(results: Sequence[ProgramResult],
                         baseline: Dict[str, List[List[object]]],
                         ) -> List[Tuple[str, str, int]]:
    """Findings not present in the committed baseline."""
    fresh: List[Tuple[str, str, int]] = []
    for r in results:
        known = {(c, a) for c, a in baseline.get(r.program.name, [])}
        for code, addr in sorted(r.keys()):
            if (code, addr) not in known:
                fresh.append((r.program.name, code, addr))
    return fresh


def missing_classes(results: Sequence[ProgramResult]) -> List[str]:
    """Programs whose planted defect class was *not* detected — the
    other half of the gate (a sanitizer regression must fail CI even
    though it produces no new findings)."""
    return [r.program.name for r in results if not r.matched]
