"""Semantic whole-image audit: dataflow-driven findings and the
static/dynamic region cross-check.

Where :mod:`analyzer` reports *structural* problems (illegal opcodes,
odd targets), this module runs the abstract interpreter from
:mod:`dataflow` over the walked CFG and reports *semantic* ones:

* **untraced nondeterminism** — reachable call sites of
  ``SysRandom`` / ``KeyCurrentState`` / ``TimGetTicks`` whose trap has
  no logging hack installed, so a recorded session cannot replay them
  deterministically (severity follows :data:`NONDET_TRAPS`;
  ``TimGetTicks`` is only a WARNING because the replay clock itself is
  virtualized);
* **self-modifying code** — a store whose propagated constant address
  overlaps a decoded instruction (``code-write``), which would
  invalidate every static result including the CFG itself;
* **semantic flash writes** — constant-pointer stores into the
  write-protected flash window that only dataflow can see (the
  structural ``flash-write`` check covers absolute operands);
* **dead stores** and **widened loops** as INFO-level diagnostics.

It also produces per-instruction **region predictions** (which memory
regions each instruction's data references can touch), checked against
a profiled replay's ``Profiler.reference_pcs`` by
:func:`cross_check_regions` — a dynamic reference from a region the
static analysis excluded is an analyzer bug surfaced as a typed
finding, turning every profiled replay into a test of the dataflow
engine.

Baselines: :func:`repro.analysis.static.findings.baseline_keys` /
:func:`~repro.analysis.static.findings.new_findings_against` implement
the CI gate over the audit's report — the committed
``tools/audit_baseline.json`` freezes the known findings and CI fails
only when a *new* (code, address) pair appears.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from ...m68k.disasm import K_BRANCH, K_CALL, K_NORMAL
from ...palmos.traps import Trap
from .analyzer import rom_roots
from .census import TrapCensus
from .dataflow import (ConstResult, MemOp, TrapSite, analyze_constprop,
                       nondet_reachability)
from .findings import Report, Severity
from .walker import CFG, walk

#: Nondeterminism sources (§3's determinism argument): trap index ->
#: severity when a call site is reachable without a logging hack.
#: ``TimGetTicks`` stays a WARNING: the replay clock is virtualized, so
#: an unhacked call diverges only if the tick interleaving does.
NONDET_TRAPS: Dict[int, Severity] = {
    int(Trap.SysRandom): Severity.ERROR,
    int(Trap.KeyCurrentState): Severity.ERROR,
    int(Trap.TimGetTicks): Severity.WARNING,
}

#: Region codes, mirrored from device.memmap (no import cycle: the
#: analysis layer must not depend on a live device).
REGION_RAM = 0
REGION_FLASH = 1
REGION_HW = 2
REGION_CARD = 3
_REGION_NAMES = {REGION_RAM: "ram", REGION_FLASH: "flash",
                 REGION_HW: "hw", REGION_CARD: "card"}

#: Opcode predicates for instructions that may vector mid-execution
#: (chk, divu/divs, move-to-sr): their exception-frame pushes would be
#: attributed to the instruction itself, so the region cross-check
#: skips them.
def _may_vector(word: int) -> bool:
    return (word & 0xF1C0 == 0x4180          # chk
            or word & 0xF0C0 == 0x80C0       # divu / divs
            or word & 0xFFC0 == 0x46C0)      # move <ea>,sr


def standard_hack_traps() -> FrozenSet[int]:
    """Trap indices the paper's standard logging-hack set covers —
    the static default when no live kernel is available to ask
    (:func:`repro.hacks.manager.installed_hack_traps`)."""
    from ...hacks.logging_hacks import standard_hacks
    return frozenset(int(h.trap) for h in standard_hacks())


@dataclass(frozen=True)
class RegionModel:
    """The address-space geometry the classifier works against.

    A static mirror of :meth:`repro.device.memmap.MemoryMap.region_of`
    for a given RAM/flash size; anything it cannot place returns
    ``None`` (an access there would raise a bus error at runtime)."""

    ram_range: Tuple[int, int]
    flash_range: Tuple[int, int]
    card_range: Tuple[int, int]
    hw_base: int

    @classmethod
    def from_geometry(cls, ram_size: Optional[int] = None,
                      flash_size: Optional[int] = None) -> "RegionModel":
        from ...device import constants as C
        from ...device.memcard import CARD_WINDOW_BASE, CARD_WINDOW_MAX
        ram = ram_size if ram_size is not None else C.RAM_SIZE
        flash = flash_size if flash_size is not None else C.FLASH_SIZE
        return cls(
            ram_range=(C.RAM_BASE, C.RAM_BASE + ram),
            flash_range=(C.FLASH_BASE, C.FLASH_BASE + flash),
            card_range=(CARD_WINDOW_BASE, CARD_WINDOW_BASE + CARD_WINDOW_MAX),
            hw_base=C.HWREG_BASE)

    def classify(self, addr: int, size: int = 1) -> Optional[int]:
        """The region of ``[addr, addr+size)``, or None when unmapped
        or straddling two regions."""
        first = self._point(addr)
        if size > 1 and self._point(addr + size - 1) != first:
            return None
        return first

    def _point(self, addr: int) -> Optional[int]:
        if self.ram_range[0] <= addr < self.ram_range[1]:
            return REGION_RAM
        if self.flash_range[0] <= addr < self.flash_range[1]:
            return REGION_FLASH
        if self.card_range[0] <= addr < self.card_range[1]:
            return REGION_CARD
        if addr >= self.hw_base:
            return REGION_HW
        return None


def _mask_bit(write: bool, region: int) -> int:
    """Same packing as :func:`repro.emulator.profiling.ref_mask_bit`:
    reads in the low nibble, writes in the high nibble."""
    return 1 << (region | (4 if write else 0))


def _sole_region(nibble: int) -> Optional[int]:
    """The single region encoded in a 4-bit kind nibble, or None when
    the nibble is empty or names more than one region."""
    if nibble == 0 or nibble & (nibble - 1):
        return None
    return nibble.bit_length() - 1


def describe_mask(mask: int) -> str:
    """Render a reference bitmask as e.g. ``read:ram+write:hw``."""
    parts = []
    for bit in range(8):
        if mask & (1 << bit):
            kind = "write" if bit >= 4 else "read"
            parts.append(f"{kind}:{_REGION_NAMES[bit & 3]}")
    return "+".join(parts) or "none"


@dataclass(frozen=True)
class RegionPrediction:
    """Predicted data-reference behaviour of one instruction.

    ``mask`` ORs a :func:`_mask_bit` per possible (kind, region);
    ``complete`` promises that *every* dynamic data reference of this
    instruction is covered by ``mask`` (the cross-check only trusts
    complete predictions).  ``refs`` is the per-execution bus-reference
    count when complete."""

    insn: int
    mask: int
    complete: bool
    refs: int


@dataclass
class AuditResult:
    """Everything :func:`audit_image` / :func:`audit_rom` produce."""

    cfg: CFG
    const: ConstResult
    census: TrapCensus
    report: Report
    region_model: RegionModel
    code_range: Tuple[int, int]
    #: function entry -> sorted callee entries (jsr/bsr/trap edges,
    #: including iteratively resolved indirect calls).
    call_graph: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    predictions: Dict[int, RegionPrediction] = field(default_factory=dict)
    nondet_reach: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    hacked_traps: FrozenSet[int] = frozenset()
    #: indirect jsr/jmp site -> constant target the dataflow resolved.
    resolved_indirect: Dict[int, int] = field(default_factory=dict)
    rounds: int = 1
    program: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def trap_sites(self) -> List[TrapSite]:
        return self.const.trap_sites

    def region_facts(self) -> Dict[int, Tuple[Optional[int], Optional[int]]]:
        """Per-instruction proven access regions for the fused replay
        core (:meth:`repro.m68k.blockcore.BlockCore.load_facts`).

        ``pc -> (read_region, write_region)``, each component the single
        region every dynamic data reference of that kind provably hits,
        or ``None`` when unproven (no complete prediction, no reference
        of that kind, or more than one possible region).  Only complete
        predictions participate: an incomplete mask may under-cover the
        dynamic behaviour, and the fused code generator uses a fact to
        drop the region dispatch entirely.
        """
        facts: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
        for pc, p in self.predictions.items():
            if not p.complete or not p.mask:
                continue
            read = _sole_region(p.mask & 0x0F)
            write = _sole_region((p.mask >> 4) & 0x0F)
            if read is not None or write is not None:
                facts[pc] = (read, write)
        return facts

    def to_json(self) -> Dict[str, object]:
        return {
            "version": 1,
            "code_range": list(self.code_range),
            "rounds": self.rounds,
            "findings": [
                {"severity": f.severity.label(), "code": f.code,
                 "message": f.message, "address": f.address}
                for f in self.report],
            "trap_signatures": self.census.signatures(),
            "call_graph": {f"{entry:#x}": [f"{c:#x}" for c in callees]
                           for entry, callees in sorted(
                               self.call_graph.items())},
            "resolved_indirect": {f"{site:#x}": f"{target:#x}"
                                  for site, target in sorted(
                                      self.resolved_indirect.items())},
            "stats": {
                "blocks": len(self.cfg.blocks),
                "instructions": len(self.cfg.insn_map),
                "trap_sites": len(self.trap_sites),
                "complete_predictions": sum(
                    1 for p in self.predictions.values() if p.complete),
                "widened_blocks": len(self.const.widened),
                "errors": len(self.report.errors),
                "warnings": len(self.report.warnings),
            },
        }


# ---------------------------------------------------------------------------
# The audit proper.
# ---------------------------------------------------------------------------

def audit_image(image: bytes, base: int, roots: Iterable[int], *,
                code_end: Optional[int] = None,
                trap_targets: Optional[Dict[int, int]] = None,
                function_entries: Iterable[int] = (),
                region_model: Optional[RegionModel] = None,
                hacked_traps: Optional[Iterable[int]] = None,
                handler_roots: Iterable[int] = (),
                readonly_code: bool = True,
                max_rounds: int = 4) -> AuditResult:
    """Semantically audit a raw code image mapped at ``base``.

    The walk and the constant propagation iterate: every round, any
    ``jsr/jmp (An)`` whose register the dataflow proved constant adds
    a new root, until nothing new resolves (at most ``max_rounds``).
    ``readonly_code=True`` lets constant reads *inside the image* fold
    to image bytes — only sound when the image window is
    write-protected at runtime (flash), so pass False for RAM images.
    ``hacked_traps`` defaults to the standard logging-hack set;
    ``handler_roots`` marks event-handler entry points for the
    nondeterminism-reachability findings.
    """
    hi = code_end if code_end is not None else base + len(image)
    model = region_model or RegionModel.from_geometry()
    hacked = frozenset(hacked_traps if hacked_traps is not None
                       else standard_hack_traps())

    def fetch(addr: int) -> int:
        off = addr - base
        if 0 <= off + 1 < len(image):
            return (image[off] << 8) | image[off + 1]
        return 0

    readonly = ((base, hi),) if readonly_code else ()
    all_roots = list(dict.fromkeys(roots))
    resolved: Dict[int, int] = {}
    rounds = 0
    while True:
        rounds += 1
        cfg = walk(fetch, all_roots, code_range=(base, hi),
                   trap_targets=trap_targets)
        cfg.function_entries.update(
            e for e in function_entries if e in cfg.blocks)
        const = analyze_constprop(cfg, fetch, readonly_ranges=readonly)
        fresh = _resolve_indirect(cfg, const, (base, hi))
        new_targets = {t for s, t in fresh.items() if s not in resolved}
        resolved.update(fresh)
        if rounds >= max_rounds or not (new_targets - set(all_roots)):
            break
        all_roots.extend(sorted(new_targets - set(all_roots)))

    for site, target in resolved.items():
        block = cfg.block_of(site)
        insn = cfg.instruction_at(site)
        if block is not None and insn is not None and target in cfg.blocks:
            if insn.kind == K_CALL and target not in block.calls:
                block.calls.append(target)
                cfg.function_entries.add(target)
            elif insn.kind == K_BRANCH and target not in block.succs:
                block.succs.append(target)
            cfg._reachable = None       # edges changed: recompute lazily

    census = TrapCensus.from_cfg(cfg)
    census.attach_arguments(const.trap_sites)
    reach = nondet_reachability(cfg, NONDET_TRAPS)
    result = AuditResult(
        cfg=cfg, const=const, census=census, report=Report(),
        region_model=model, code_range=(base, hi),
        call_graph=_call_graph(cfg),
        nondet_reach=reach, hacked_traps=hacked,
        resolved_indirect=resolved, rounds=rounds)
    result.predictions = _predict_regions(cfg, const, model)
    _semantic_checks(result, handler_roots)
    return result


def _resolve_indirect(cfg: CFG, const: ConstResult,
                      code_range: Tuple[int, int]) -> Dict[int, int]:
    """Indirect ``jsr/jmp (An)`` sites whose An is a propagated
    constant inside the code range."""
    lo, hi = code_range
    out: Dict[int, int] = {}
    for insn in cfg.instructions():
        if not insn.indirect:
            continue
        word = insn.word
        if word & 0xFF80 != 0x4E80:     # jsr/jmp family only
            continue
        mode, reg = (word >> 3) & 7, word & 7
        if mode != 2:                   # only plain (An) is resolvable
            continue
        state = const.insn_in.get(insn.addr)
        if state is None:
            continue
        target = state.areg(reg)
        if isinstance(target, int) and lo <= target < hi \
                and target % 2 == 0:
            out[insn.addr] = target
    return out


def _call_graph(cfg: CFG) -> Dict[int, Tuple[int, ...]]:
    """Function entry -> sorted callee entries.  A block is attributed
    to every function whose entry reaches it intra-procedurally."""
    entries = sorted((set(cfg.roots) | cfg.function_entries)
                     & set(cfg.blocks))
    graph: Dict[int, Set[int]] = {}
    for entry in entries:
        callees: Set[int] = set()
        seen: Set[int] = set()
        work = [entry]
        while work:
            start = work.pop()
            if start in seen or start not in cfg.blocks:
                continue
            seen.add(start)
            block = cfg.blocks[start]
            callees.update(c for c in block.calls if c in cfg.blocks)
            for succ in block.succs:
                if succ not in seen:
                    work.append(succ)
        graph[entry] = callees
    return {entry: tuple(sorted(c)) for entry, c in graph.items()}


def _predict_regions(cfg: CFG, const: ConstResult,
                     model: RegionModel) -> Dict[int, RegionPrediction]:
    predictions: Dict[int, RegionPrediction] = {}
    for addr, ops in const.mem_ops.items():
        if not ops:
            continue
        mask = 0
        refs = 0
        complete = addr in const.modeled
        for op in ops:
            region = _op_region(op, model)
            if region is None:
                complete = False
                continue
            mask |= _mask_bit(op.write, region)
            refs += op.refs()
        predictions[addr] = RegionPrediction(addr, mask, complete, refs)
    return predictions


def _op_region(op: MemOp, model: RegionModel) -> Optional[int]:
    if op.base == "stack":
        # The stack lives in RAM on every supported geometry: the
        # kernel points the reset A7 into the RAM heap and the audit's
        # symbolic offsets stay within the function frame.
        return REGION_RAM
    if op.base == "const" and op.addr is not None:
        return model.classify(op.addr, op.size)
    return None


def _semantic_checks(result: AuditResult,
                     handler_roots: Iterable[int]) -> None:
    cfg, const, report = result.cfg, result.const, result.report
    model = result.region_model
    reachable_insns = {insn.addr for start in cfg.reachable
                       for insn in cfg.blocks[start].insns}
    insn_starts = sorted(cfg.insn_map)

    # -- writes into decoded code (self-modifying code) ----------------
    for addr in sorted(const.mem_ops):
        if addr not in reachable_insns:
            continue
        insn = cfg.insn_map[addr]
        for op in const.mem_ops[addr]:
            if not op.write or op.base != "const" or op.addr is None:
                continue
            hit = _overlaps_insn(cfg, insn_starts, op.addr, op.size)
            if hit is not None:
                report.add(Severity.ERROR, "code-write",
                           f"store of {op.size} byte(s) to {op.addr:#010x} "
                           f"overlaps the instruction at {hit:#010x} — "
                           f"self-modifying code invalidates the static "
                           f"CFG", address=addr)
            region = model.classify(op.addr, op.size)
            if region == REGION_FLASH \
                    and (op.addr, op.size) not in insn.writes:
                report.add(Severity.ERROR, "semantic-flash-write",
                           f"propagated pointer stores {op.size} byte(s) "
                           f"into write-protected flash at {op.addr:#010x}",
                           address=addr)
            elif region is None:
                report.add(Severity.WARNING, "unmapped-access",
                           f"{op.size}-byte write to {op.addr:#010x} maps "
                           f"to no region (bus error at runtime)",
                           address=addr)
        for op in const.mem_ops[addr]:
            if op.write or op.base != "const" or op.addr is None:
                continue
            if model.classify(op.addr, op.size) is None:
                report.add(Severity.WARNING, "unmapped-access",
                           f"{op.size}-byte read from {op.addr:#010x} maps "
                           f"to no region (bus error at runtime)",
                           address=addr)

    # -- untraced nondeterminism ---------------------------------------
    for site in const.trap_sites:
        severity = NONDET_TRAPS.get(site.trap)
        if severity is None or site.trap in result.hacked_traps:
            continue
        if site.addr not in reachable_insns:
            continue
        name = result.census.name_of(site.trap)
        report.add(severity, "untraced-nondeterminism",
                   f"{name} call site has no logging hack installed: "
                   f"its result cannot be replayed deterministically",
                   address=site.addr)
    for root in sorted(set(handler_roots)):
        reach = result.nondet_reach.get(root)
        if not reach:
            continue
        exposed = sorted(t for t in reach
                         if t not in result.hacked_traps)
        if exposed:
            names = ", ".join(result.census.name_of(t) for t in exposed)
            report.add(Severity.WARNING, "nondet-reachable-from-handler",
                       f"event handler can reach unhacked "
                       f"nondeterminism source(s): {names}",
                       address=root)

    # -- diagnostics ----------------------------------------------------
    for dead, overwriter in const.dead_stores:
        if dead in reachable_insns:
            report.add(Severity.INFO, "dead-store",
                       f"stack store is overwritten at {overwriter:#010x} "
                       f"before any read", address=dead)
    for start in sorted(const.widened):
        report.add(Severity.INFO, "widened-loop",
                   "loop head exceeded the join budget; stack-slot "
                   "tracking was widened away", address=start)
    for start in sorted(cfg.reachable):
        block = cfg.blocks[start]
        if block.indirect_exit and block.insns \
                and block.terminator.addr not in result.resolved_indirect:
            report.add(Severity.INFO, "unresolved-indirect",
                       "indirect control transfer could not be resolved "
                       "by constant propagation",
                       address=block.terminator.addr)
    complete = sum(1 for p in result.predictions.values() if p.complete)
    report.add(Severity.INFO, "audit-summary",
               f"{len(const.trap_sites)} trap sites "
               f"({sum(1 for s in const.trap_sites if s.args)} with "
               f"recovered args), {len(result.predictions)} region "
               f"predictions ({complete} complete), "
               f"{len(result.resolved_indirect)} indirect calls resolved "
               f"in {result.rounds} round(s)")


def _overlaps_insn(cfg: CFG, insn_starts: List[int], addr: int,
                   size: int) -> Optional[int]:
    """The start of a decoded instruction overlapped by a write to
    ``[addr, addr+size)``, else None."""
    from bisect import bisect_right
    idx = bisect_right(insn_starts, addr + size - 1) - 1
    while idx >= 0:
        start = insn_starts[idx]
        insn = cfg.insn_map[start]
        if start >= addr + size:
            idx -= 1
            continue
        if insn.end > addr:
            return start
        break
    return None


# ---------------------------------------------------------------------------
# Whole-ROM convenience.
# ---------------------------------------------------------------------------

def audit_rom(apps: Optional[Sequence] = None, *,
              hacked_traps: Optional[Iterable[int]] = None,
              ram_size: Optional[int] = None,
              flash_size: Optional[int] = None) -> AuditResult:
    """Build the shipped ROM and audit it semantically from every root
    :func:`~repro.analysis.static.analyzer.rom_roots` lists.

    ``hacked_traps`` defaults to the standard logging-hack set (pass
    :func:`repro.hacks.manager.installed_hack_traps` output for a live
    kernel).  ``ram_size``/``flash_size`` pin the region model to a
    session's geometry."""
    rom = rom_roots(apps)
    result = audit_image(
        rom.image, rom.origin, rom.roots,
        trap_targets=rom.stubs,
        function_entries=rom.app_entries,
        region_model=RegionModel.from_geometry(ram_size, flash_size),
        hacked_traps=hacked_traps,
        # Event delivery enters through the ISR and the app entries.
        handler_roots=[rom.program.symbols["rom_isr"], *rom.app_entries])
    result.program = rom.program
    return result


# ---------------------------------------------------------------------------
# The dynamic cross-check.
# ---------------------------------------------------------------------------

def cross_check_regions(result: AuditResult,
                        reference_pcs: Dict[int, int]) -> Report:
    """Compare static region predictions against a profiled replay's
    per-pc reference masks (``Profiler.reference_pcs``).

    Soundness direction only: a dynamic (kind, region) the static mask
    excludes is an ERROR (the analysis promised completeness for that
    instruction); a predicted-but-never-observed bit is fine (the path
    was simply not taken).  Only K_NORMAL instructions with complete
    predictions inside the audited window participate — traps, calls
    and returns push exception frames or return addresses that belong
    to the control-transfer machinery, not the operand stream.
    """
    report = Report()
    lo, hi = result.code_range
    checked = 0
    mismatched = 0
    for pc in sorted(reference_pcs):
        if not (lo <= pc < hi):
            continue
        insn = result.cfg.instruction_at(pc)
        prediction = result.predictions.get(pc)
        if insn is None or prediction is None or not prediction.complete:
            continue
        if insn.kind != K_NORMAL or _may_vector(insn.word):
            continue
        checked += 1
        dynamic = reference_pcs[pc]
        extra = dynamic & ~prediction.mask
        if extra:
            mismatched += 1
            report.add(Severity.ERROR, "region-mismatch",
                       f"dynamic references {describe_mask(extra)} were "
                       f"excluded by the static prediction "
                       f"({describe_mask(prediction.mask)})", address=pc)
    report.add(Severity.INFO, "region-cross-check",
               f"{checked} instructions checked against dynamic "
               f"per-pc references: {mismatched} mismatch(es)")
    return report
