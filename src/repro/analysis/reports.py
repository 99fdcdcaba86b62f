"""Paper-style report formatting.

One formatter per table/figure in the evaluation, so benchmarks print
rows directly comparable to the paper's.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from ..cache.hierarchy import RegionMix
from ..cache.sweep import (
    PAPER_ASSOCIATIVITIES,
    PAPER_LINE_SIZES,
    PAPER_SIZES,
    SweepPoint,
    grid_by_config,
)
from ..device import constants as C


def _hms(ticks: int) -> str:
    seconds = ticks // C.TICKS_PER_SECOND
    return f"{seconds // 3600:d}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"


def format_table1(rows: Sequence[dict]) -> str:
    """Table 1: Volunteer User Session Data.

    Each row: ``{"session", "events", "elapsed_ticks", "ram_refs",
    "flash_refs", "ave_mem_cyc"}``.
    """
    out = ["Table 1. Volunteer User Session Data.",
           f"{'Session':<10}{'Events':>8}{'Elapsed Time':>14}"
           f"{'RAM Refs':>12}{'Flash Refs':>12}{'Ave Mem Cyc':>13}"]
    for row in rows:
        out.append(
            f"{row['session']:<10}{row['events']:>8}"
            f"{_hms(row['elapsed_ticks']):>14}"
            f"{row['ram_refs']:>12,}{row['flash_refs']:>12,}"
            f"{row['ave_mem_cyc']:>13.2f}")
    return "\n".join(out)


def _grid_table(title: str, points: Sequence[SweepPoint],
                cell: Callable[[SweepPoint], str]) -> str:
    grid = grid_by_config(points)
    header = f"{'size':>6} | " + " | ".join(
        f"{line}B/{assoc}w" for line in PAPER_LINE_SIZES
        for assoc in PAPER_ASSOCIATIVITIES)
    out = [title, header, "-" * len(header)]
    for size in PAPER_SIZES:
        cells = []
        for line in PAPER_LINE_SIZES:
            for assoc in PAPER_ASSOCIATIVITIES:
                point = grid.get((size, line, assoc))
                cells.append(cell(point) if point else "   n/a")
        out.append(f"{size // 1024:>5}K | " + " | ".join(cells))
    return "\n".join(out)


def format_miss_rates(points: Sequence[SweepPoint],
                      title: str = "Figure 5. Miss Rates For 56 Cache "
                                   "Configurations (%).") -> str:
    return _grid_table(title, points,
                       lambda p: f"{100 * p.miss_rate:6.2f}")


def format_access_times(points: Sequence[SweepPoint], mix: RegionMix,
                        title: str = "Figure 6. Average Effective Memory "
                                     "Access Times (cycles).") -> str:
    body = _grid_table(title, points,
                       lambda p: f"{mix.cached_time(p.miss_rate):6.3f}")
    return (f"{body}\n(no cache: {mix.no_cache_time():.3f} cycles; "
            f"flash share {100 * mix.flash_fraction:.1f}%)")


def format_overhead(points: Sequence, title: str = "Figure 3. Average "
                    "Overhead Per Hack Call vs Database Size.") -> str:
    out = [title,
           f"{'records':>10}{'cycles/call':>14}{'ms/call':>10}"]
    for p in points:
        out.append(f"{p.records:>10,}{p.avg_cycles:>14,.0f}{p.avg_ms:>10.3f}")
    return "\n".join(out)


def format_overhead_multi(curves: Dict[str, Sequence],
                          title: str = "Figure 3. Average Overhead For "
                          "Each Hack (ms/call).") -> str:
    names = list(curves)
    sizes = [p.records for p in curves[names[0]]]
    header = f"{'records':>10} | " + " | ".join(f"{n[:16]:>16}" for n in names)
    out = [title, header, "-" * len(header)]
    for i, size in enumerate(sizes):
        cells = " | ".join(f"{curves[n][i].avg_ms:>16.3f}" for n in names)
        out.append(f"{size:>10,} | {cells}")
    return "\n".join(out)


def format_validation(log_summary: str, state_summary: str) -> str:
    return ("Section 3 validation\n"
            "====================\n"
            f"{log_summary}\n\n{state_summary}")


def format_opcode_table(top: List[tuple], total: int,
                        title: str = "Most-executed opcodes.") -> str:
    from ..m68k.disasm import decode_insn

    out = [title, f"{'opcode':>8}  {'count':>12}  {'share':>7}  mnemonic"]
    for op, count in top:
        # The histogram keeps opcode words only: an instruction with
        # extension words renders with zeros in their place.
        insn = decode_insn(lambda addr, word=op: 0 if addr else word, 0)
        note = "  (extension words not shown)" if insn.length > 2 else ""
        out.append(f"  ${op:04x}  {count:>12,}  {100 * count / total:>6.2f}%  "
                   f"{insn.text}{note}")
    return "\n".join(out)
