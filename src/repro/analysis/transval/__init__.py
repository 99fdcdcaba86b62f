"""Translation validation for the fused superblock codegen.

Proves, block by block, that the Python the fuser emits is equivalent
to the per-insn specialized handlers it was derived from — per exit
path: pc, batched cycle accounting and budget gates, deferred
condition flags, registers, memory effects, bus-region dispatch and
the emitted trace-token stream.  A second pass audits every elided
check (region-dispatch elisions from the dataflow facts, sanitizer
elisions from the static safety proof) by re-deriving the proof
obligation, and a seeded miscompile corpus keeps the validator honest.

Anything the machinery cannot prove becomes a typed finding — never a
silent pass.
"""

from .corpus import MISCOMPILE_CLASSES, mutate_prov, selftest
from .machine import HarnessState, RunResult, Vector, Workspace
from .reference import StepLog, run_reference
from .runner import VerifyStats, collect_provenances, verify_codegen
from .validator import (BlockStats, audit_region_elisions,
                        audit_sanitizer_elisions, validate_block,
                        workspace_for)

__all__ = [
    "BlockStats",
    "HarnessState",
    "MISCOMPILE_CLASSES",
    "RunResult",
    "StepLog",
    "Vector",
    "VerifyStats",
    "Workspace",
    "audit_region_elisions",
    "audit_sanitizer_elisions",
    "collect_provenances",
    "mutate_prov",
    "run_reference",
    "selftest",
    "validate_block",
    "verify_codegen",
    "workspace_for",
]
