"""Static Palm OS trap census and the static/dynamic cross-check.

The census enumerates every reachable ``0xA000|trap`` word in the CFG
and resolves it to a trap name via :mod:`repro.palmos.traps`.  The
cross-check compares the statically discovered instruction stream with
the per-address opcode record of a profiled replay
(``Profiler.opcode_addresses``): any dynamically executed ROM address
the walker never discovered — or whose statically-decoded word differs
— is a decoder or walker bug.  This turns every profiling run into a
continuous test of the decoder itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ...m68k.disasm import K_TRAP
from ...palmos.traps import Trap
from .findings import Report, Severity
from .walker import CFG

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .dataflow import TrapSite


@dataclass
class TrapCensus:
    """Reachable A-line trap sites, grouped by trap index.

    With :meth:`attach_arguments` the census is upgraded from "which
    traps are callable" to "which traps are callable *with which
    constant arguments*": the dataflow engine recovers the longword
    stack slots above the caller's SP at each trap site (Palm OS uses
    the C calling convention — arguments pushed right to left, so
    slot 0 is the first argument)."""

    #: trap index -> sorted list of call-site addresses.
    sites: Dict[int, List[int]] = field(default_factory=dict)
    #: call-site address -> recovered argument tuple (``None`` entries
    #: are arguments the dataflow could not prove constant).
    site_args: Dict[int, Tuple[Optional[int], ...]] = field(
        default_factory=dict)

    @classmethod
    def from_cfg(cls, cfg: CFG) -> "TrapCensus":
        census = cls()
        for insn in cfg.reachable_instructions():
            if insn.kind == K_TRAP:
                census.sites.setdefault(insn.trap, []).append(insn.addr)
        for addrs in census.sites.values():
            addrs.sort()
        return census

    def name_of(self, index: int) -> str:
        try:
            return Trap(index).name
        except ValueError:
            return f"trap_{index:#05x}"

    def names(self) -> Dict[str, int]:
        """Trap name -> static call-site count."""
        return {self.name_of(idx): len(addrs)
                for idx, addrs in sorted(self.sites.items())}

    # -- recovered arguments (dataflow upgrade) --------------------------
    def attach_arguments(self, trap_sites: Iterable["TrapSite"]) -> None:
        """Attach the dataflow engine's recovered per-site arguments
        (an iterable of :class:`~repro.analysis.static.dataflow.TrapSite`)."""
        known = {addr for addrs in self.sites.values() for addr in addrs}
        for site in trap_sites:
            if site.addr in known:
                self.site_args[site.addr] = site.args

    def signatures(self) -> Dict[str, List[List[Optional[int]]]]:
        """Trap name -> sorted unique recovered argument tuples.

        The answer to "which traps are callable with which constant
        arguments"; sites with no recovered arguments contribute an
        empty tuple, so every census'd trap appears.
        """
        by_name: Dict[str, set] = {}
        for idx, addrs in sorted(self.sites.items()):
            name = self.name_of(idx)
            bucket = by_name.setdefault(name, set())
            for addr in addrs:
                bucket.add(self.site_args.get(addr, ()))
        def order(args: Tuple[Optional[int], ...]
                  ) -> Tuple[int, List[Tuple[bool, int]]]:
            return (len(args), [(v is None, v or 0) for v in args])
        return {name: [list(args) for args in sorted(tuples, key=order)]
                for name, tuples in by_name.items()}

    def __len__(self) -> int:
        return sum(len(a) for a in self.sites.values())

    def compare_dynamic(self, trap_counts: Dict[int, int]) -> Report:
        """Check a dynamic trap histogram against the static census.

        Every trap observed at runtime must have at least one static
        call site — a dynamically-executed trap the walker never saw
        means the CFG is incomplete.
        """
        report = Report()
        for index, count in sorted(trap_counts.items()):
            if count and index not in self.sites:
                report.add(
                    Severity.ERROR, "trap-not-in-cfg",
                    f"trap {self.name_of(index)} executed {count}x "
                    f"dynamically but has no static call site")
        return report


def cross_check(cfg: CFG, opcode_addresses: Dict[int, int],
                code_range: Optional[Tuple[int, int]] = None) -> Report:
    """Validate the CFG against a profiled replay's executed stream.

    ``opcode_addresses`` maps pc -> executed opcode word (from
    ``Profiler.opcode_addresses``).  ``code_range`` restricts the check
    to the statically-analyzed window (the flash ROM); addresses outside
    it (RAM-resident code, if any) are ignored.
    """
    report = Report()
    lo, hi = code_range if code_range else (0, 1 << 32)
    missing = 0
    mismatched = 0
    checked = 0
    for pc in sorted(opcode_addresses):
        if not (lo <= pc < hi):
            continue
        checked += 1
        insn = cfg.instruction_at(pc)
        if insn is None:
            missing += 1
            report.add(
                Severity.ERROR, "dynamic-not-static",
                f"executed instruction not discovered by the static "
                f"walker (word ${opcode_addresses[pc]:04x})", address=pc)
        elif insn.word != opcode_addresses[pc]:
            mismatched += 1
            report.add(
                Severity.ERROR, "word-mismatch",
                f"static decode read ${insn.word:04x} but the CPU "
                f"executed ${opcode_addresses[pc]:04x}", address=pc)
    report.add(
        Severity.INFO, "cross-check",
        f"{checked} executed ROM addresses checked against the CFG: "
        f"{missing} missing, {mismatched} word mismatches")
    return report
