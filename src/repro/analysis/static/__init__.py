"""Static analysis of guest m68k code and activity logs.

Entry points:

* :func:`analyze_rom` — build the shipped ROM, walk it into a CFG and
  run every structural diagnostic (what ``palm-repro lint`` runs);
* :func:`audit_rom` — the *semantic* audit on top of the dataflow
  engine: constant propagation, trap-argument recovery, static region
  classification and nondeterminism reachability (``palm-repro audit``);
* :func:`cross_check` — validate the CFG against the per-address
  opcode record of a profiled replay;
* :func:`cross_check_regions` — validate the audit's per-instruction
  region predictions against a profiled replay's per-pc references;
* :func:`lint_archive` — the activity-log determinism linter
  (:func:`deep_findings` adds the semantic half of ``lint --deep``).
"""

from .analyzer import RomAnalysis, analyze_image, analyze_rom, run_checks
from .audit import (AuditResult, RegionModel, RegionPrediction, audit_image,
                    audit_rom, cross_check_regions)
from .census import TrapCensus, cross_check
from .dataflow import (AbsState, ConstResult, MemOp, TrapSite,
                       analyze_constprop, nondet_reachability)
from .findings import (CheckContext, Finding, Report, Severity,
                       baseline_keys, load_baseline, new_findings_against,
                       save_baseline)
from .tracelint import (deep_findings, lint_archive, lint_log,
                        lint_playback_result)
from .walker import CFG, BasicBlock, walk

__all__ = [
    "analyze_image", "analyze_rom", "run_checks", "RomAnalysis",
    "audit_image", "audit_rom", "AuditResult", "RegionModel",
    "RegionPrediction", "cross_check_regions",
    "baseline_keys", "load_baseline", "save_baseline",
    "new_findings_against",
    "analyze_constprop", "nondet_reachability",
    "AbsState", "ConstResult", "MemOp", "TrapSite",
    "TrapCensus", "cross_check",
    "CheckContext", "Finding", "Report", "Severity",
    "lint_archive", "lint_log", "lint_playback_result", "deep_findings",
    "CFG", "BasicBlock", "walk",
]
