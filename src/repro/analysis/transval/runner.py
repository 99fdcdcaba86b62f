"""The ``palm-repro verify-codegen`` corpus run.

One call does the whole gate: replay the standard session over the
built-in ROM with an eager-fusing superblock core, validate every
distinct fused block the replay produced, re-derive the proof
obligation behind every elided check (PR-4 region-dispatch elisions
and PR-6 sanitizer elisions), and run the seeded miscompile self-test
that proves the validator still catches real defects.  Results come
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
from .validator import (audit_region_elisions,
                        audit_sanitizer_elisions, validate_block,
                        workspace_for)

#: Emulator geometry of the standard corpus — must match the CLI's
#: ``_EMU_KW`` so the replayed ROM is the audited ROM.
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
    elisions: int = 0        #: region-dispatch elisions audited
    sanitizer_elisions: int = 0  #: sanitizer elision pcs audited
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
            "elisions": self.elisions,
            "sanitizer_elisions": self.sanitizer_elisions,
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
                        sanitize: bool = True,
                        progress: Optional[Callable[[str], None]] = None
                        ) -> Tuple[List[Any], frozenset, float]:
    """Replay the corpus session with ``fuse_threshold=1`` and return
    ``(provenances, claimed_sanitizer_elision_pcs, replay_wall)``.

    ``session`` is a collected archive's ``(initial_state, log)``;
    without one the standard quickstart session is collected
    in-process (the same script ``palm-repro collect --session
    quickstart`` freezes).

    The replay itself runs without the sanitizer — fused codegen is
    disabled under an attached sanitizer (fused bodies bypass shadow
    checks), so a sanitized replay would yield an empty corpus.  The
    claimed set is instead taken from the sanitizer the production
    replay path would build for this very emulator (same ROM audit,
    same heap ceiling), so the elision audit still checks the set
    that ships, not a convenient recomputation.
    """
    from ...apps import standard_apps
    from ...emulator.playback import _session_sanitizer, replay_session

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
    emulator, _profiler, _result = replay_session(
        state, log, apps=apps, profile=True,
        emulator_kwargs=dict(EMU_KW), core="fast",
        fuse_threshold=1,
        on_fuse=lambda block: provs.append(block.prov))
    replay_wall = time.perf_counter() - start
    claimed: frozenset = frozenset()
    if sanitize:
        san = _session_sanitizer(emulator, apps, dict(EMU_KW),
                                 elide=True)
        claimed = frozenset(san._elide)
    return provs, claimed, replay_wall


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


def _fresh_region_facts() -> Dict[int, Tuple[Optional[int],
                                             Optional[int]]]:
    from ...apps import standard_apps
    from ..static.audit import audit_rom

    return audit_rom(apps=standard_apps(),
                     ram_size=EMU_KW["ram_size"],
                     flash_size=EMU_KW["flash_size"]).region_facts()


def _fresh_sanitizer_safe() -> frozenset:
    from ...apps import standard_apps
    from ..sanitizer.elide import compute_elision
    from ..static.audit import audit_rom

    audit = audit_rom(apps=standard_apps(),
                      ram_size=EMU_KW["ram_size"],
                      flash_size=EMU_KW["flash_size"])
    elision = compute_elision(audit.cfg, audit.const,
                              heap_hi=EMU_KW["ram_size"])
    return elision.safe_pcs


def verify_codegen(session: Optional[Tuple[Any, Any]] = None,
                   run_selftest: bool = True,
                   audit_elisions: bool = True,
                   progress: Optional[Callable[[str], None]] = None
                   ) -> Tuple[Report, VerifyStats]:
    """The full verify-codegen gate; see module docstring."""
    stats = VerifyStats()
    report = Report()
    provs, claimed, stats.replay_wall = collect_provenances(
        session, sanitize=audit_elisions, progress=progress)
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
    if audit_elisions:
        if progress:
            progress("auditing elided checks against fresh "
                     "derivations ...")
        stats.elisions = sum(len(p.elisions) for p in unique)
        report.extend(audit_region_elisions(unique,
                                            _fresh_region_facts()))
        stats.sanitizer_elisions = len(claimed)
        report.extend(audit_sanitizer_elisions(claimed,
                                               _fresh_sanitizer_safe()))
    if run_selftest:
        if progress:
            progress("running seeded miscompile self-test ...")
        report.extend(selftest(unique))
    return report, stats
