"""Replay resilience: checkpoint/resume, the live divergence watchdog
(the §3.3 log comparator of :mod:`repro.validation.log_correlation`,
fed at every checkpoint boundary), trace salvage, and the
fault-injection harness.

The paper's replay model is an all-or-nothing determinism bet: feed the
initial state β and activity log δ to an equivalent machine and the
whole session re-executes — or something is subtly off and you find out
hours later when the final states disagree.  This subsystem makes long
replays survivable: periodic in-RAM checkpoints bound the cost of a
failure (only the archive, β plus δ, persists: a checkpoint is a cache
of its replay, not a record of the session), the watchdog notices a divergence within one checkpoint interval of it
happening, salvage recovers playable logs from damaged captures, and
the fault harness proves all of it actually works.
"""

from .checkpoint import Checkpoint, CheckpointManager, capture_emulator, restore_emulator
from .errors import (
    CheckpointError,
    DivergenceError,
    FaultSpecError,
    GuestResetTimeout,
    ReplayFault,
    ResilienceError,
    TraceFormatError,
)
from .faults import RUNTIME_FAULTS, TRACE_FAULTS, FaultPlan, FaultSpec
from .replay import (
    POLICIES,
    DivergenceReport,
    ResilientReplayResult,
    resilient_replay,
)
from .salvage import (
    ContainerSalvageResult,
    SalvageResult,
    salvage_container,
    salvage_file,
    salvage_log,
)
from ..validation.log_correlation import (
    Divergence,
    DivergenceKind,
    DivergenceWatchdog,
)

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "capture_emulator",
    "restore_emulator",
    "ResilienceError",
    "CheckpointError",
    "DivergenceError",
    "FaultSpecError",
    "GuestResetTimeout",
    "ReplayFault",
    "TraceFormatError",
    "FaultPlan",
    "FaultSpec",
    "TRACE_FAULTS",
    "RUNTIME_FAULTS",
    "POLICIES",
    "ResilientReplayResult",
    "resilient_replay",
    "SalvageResult",
    "ContainerSalvageResult",
    "salvage_log",
    "salvage_file",
    "salvage_container",
    "Divergence",
    "DivergenceKind",
    "DivergenceReport",
    "DivergenceWatchdog",
]
