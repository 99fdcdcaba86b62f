"""The ``palm-repro verify-codegen`` corpus run.

One call does the whole gate: replay the standard session over the
built-in ROM with an eager-fusing superblock core, validate every
distinct fused block the replay produced, and run the seeded
miscompile self-test that proves the validator still catches real
defects.  Results come
back as one :class:`repro.analysis.static.findings.Report` plus
throughput accounting for the benchmark artifact.

The CI gate compares the report against a committed baseline with the
same ``(code, address)`` key scheme as the semantic audit — known
accepted findings never break the build, new ones always do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..static.findings import Report
from .corpus import selftest
from .machine import Workspace
from .validator import validate_block, workspace_for

#: Emulator geometry of the standard corpus (the CLI's ``_EMU_KW``).
EMU_KW: Dict[str, int] = {"ram_size": 8 << 20, "flash_size": 1 << 20}


@dataclass
class VerifyStats:
    """Corpus-level accounting for one verify-codegen run."""

    blocks: int = 0          #: distinct (pc, source hash) blocks validated
    duplicates: int = 0      #: re-fusions skipped by deduplication
    vectors: int = 0         #: total driving vectors executed
    arms: int = 0            #: live instrumented arms across the corpus
    arms_covered: int = 0    #: live arms reached by some vector
    arms_dead: int = 0       #: arms proven unreachable by const-prop
    wall: float = 0.0        #: validation wall time, seconds
    replay_wall: float = 0.0  #: corpus replay wall time, seconds

    @property
    def blocks_per_sec(self) -> float:
        return self.blocks / self.wall if self.wall > 0 else 0.0

    @property
    def coverage(self) -> float:
        return self.arms_covered / self.arms if self.arms else 1.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "blocks": self.blocks,
            "duplicates": self.duplicates,
            "vectors": self.vectors,
            "arms": self.arms,
            "arms_covered": self.arms_covered,
            "arms_dead": self.arms_dead,
            "arm_coverage": round(self.coverage, 6),
            "validation_wall_s": round(self.wall, 3),
            "replay_wall_s": round(self.replay_wall, 3),
            "blocks_per_sec": round(self.blocks_per_sec, 3),
        }


def _quickstart_script() -> Any:
    from ...device import Button
    from ...workloads import UserScript

    return (UserScript("quickstart").at(100)
            .press(Button.MEMO).wait(50)
            .tap(40, 120).wait(60).tap(90, 140).wait(60)
            .press(Button.UP).wait(80)
            .press(Button.DATEBOOK).wait(80)
            .tap(50, 10).wait(40).tap(90, 50).wait(40))


def collect_provenances(session: Optional[Tuple[Any, Any]] = None,
                        progress: Optional[Callable[[str], None]] = None
                        ) -> Tuple[List[Any], float]:
    """Replay the corpus session with ``fuse_threshold=1`` and return
    ``(provenances, replay_wall)``.

    ``session`` is a collected archive's ``(initial_state, log)``;
    without one the standard quickstart session is collected
    in-process (the same script ``palm-repro collect --session
    quickstart`` freezes).

    The replay runs without the sanitizer: fused codegen is disabled
    under an attached sanitizer (fused bodies bypass shadow checks),
    so a sanitized replay would yield an empty corpus.
    """
    from ...apps import standard_apps
    from ...emulator.playback import replay_session

    apps = standard_apps()
    if session is not None:
        state, log = session
    else:
        if progress:
            progress("collecting quickstart session ...")
        from ...workloads import collect_session

        session = collect_session(apps, _quickstart_script(),
                                  name="quickstart",
                                  ram_size=EMU_KW["ram_size"])
        state, log = session.initial_state, session.log
    if progress:
        progress("replaying corpus session (eager fusion) ...")
    provs: List[Any] = []
    start = time.perf_counter()
    replay_session(
        state, log, apps=apps, profile=True,
        emulator_kwargs=dict(EMU_KW), core="fast",
        fuse_threshold=1,
        on_fuse=lambda block: provs.append(block.prov))
    return provs, time.perf_counter() - start


def _dedupe(provs: List[Any], stats: VerifyStats) -> List[Any]:
    seen: Set[Tuple[int, str]] = set()
    unique: List[Any] = []
    for prov in provs:
        key = (prov.pc, prov.source_hash)
        if key in seen:
            stats.duplicates += 1
            continue
        seen.add(key)
        unique.append(prov)
    return unique


def verify_codegen(session: Optional[Tuple[Any, Any]] = None,
                   run_selftest: bool = True,
                   progress: Optional[Callable[[str], None]] = None
                   ) -> Tuple[Report, VerifyStats]:
    """The full verify-codegen gate; see module docstring."""
    stats = VerifyStats()
    report = Report()
    provs, stats.replay_wall = collect_provenances(session,
                                                   progress=progress)
    unique = _dedupe(provs, stats)
    if progress:
        progress(f"validating {len(unique)} distinct fused block(s) "
                 f"({stats.duplicates} duplicate fusion(s) skipped) ...")
    workspaces: Dict[Tuple[int, int, int, int], Workspace] = {}
    start = time.perf_counter()
    for i, prov in enumerate(unique):
        geom = (prov.ram_base, prov.ram_limit,
                prov.flash_base, prov.flash_limit)
        ws = workspaces.get(geom)
        if ws is None:
            ws = workspaces[geom] = workspace_for(prov)
        block_report, block_stats = validate_block(prov, ws=ws)
        report.extend(block_report)
        stats.blocks += 1
        stats.vectors += block_stats.vectors
        stats.arms += block_stats.arms
        stats.arms_covered += block_stats.arms_covered
        stats.arms_dead += block_stats.arms_dead
        if progress and (i + 1) % 25 == 0:
            progress(f"  {i + 1}/{len(unique)} blocks validated")
    stats.wall = time.perf_counter() - start
    if run_selftest:
        if progress:
            progress("running seeded miscompile self-test ...")
        report.extend(selftest(unique))
    return report, stats
