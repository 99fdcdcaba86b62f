"""The activity-log check: one walk that lints a log and salvages a
playable one from it.

A log is the only input a replay has, and a trace that spent time on a
real handheld, an SD card, or a flaky HotSync link can arrive damaged:
flipped type bytes, truncated record blobs, shuffled bursts, duplicated
inserts.  :func:`salvage_log` walks a decoded log once, reports every
condition as a typed finding through the same
:class:`~repro.analysis.static.findings.Report` machinery the static
analyzers use, and returns the repaired log with its counts;
:func:`salvage_file` decodes a ``.pdb`` leniently and feeds that walk.
``palm-repro lint --session`` prints the walk's report, and
``replay --salvage``, ``resilient_replay(salvage=True)`` and the fleet
replay its repaired log, so all of them agree on what a valid log is.

Findings use ``address`` for the record's index in the log (the PDB
record index when read from a file):

======================  =======  ======================================
code                    severity what happens to the record
======================  =======  ======================================
``unreadable-pdb``      error    nothing is read: :func:`salvage_file`
                                 raises :class:`TraceFormatError`
``truncated-record``    error    dropped (blob below 12 bytes)
``corrupt-record``      error    dropped (blob does not decode)
``unknown-event-type``  error    dropped (type names no playback group)
``implausible-tick``    error    dropped (tick at/above 2^31)
``oversized-keystate``  warning  data masked to its 16-bit field
``duplicate-record``    warning  dropped (an exact copy of its
                                 predecessor; RESET is exempt)
``non-monotonic-tick``  error    its reset epoch is stably re-sorted by
                                 tick (one finding per backwards step)
``non-monotonic-rtc``   warning  kept as is
``zero-seed``           warning  kept as is
``seed-underrun``       error    kept as is (fewer seeds than epochs)
``log-overflow``        error    kept as is (more records than the
                                 log database holds)
======================  =======  ======================================

Repairs are conservative: a record is only dropped when replaying it
would be meaningless, and only reordered *within* its reset epoch,
never across one.  :func:`salvage_container` recovers the intact
prefix of a torn PTRC trace container through the same findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.static.findings import Report, Severity
from ..palmos.database import DatabaseImage
from ..tracelog import ActivityLog, MAX_LOG_RECORDS, split_epochs
from ..tracelog.records import (
    LogEventType,
    LogRecord,
    RECORD_SIZE_SHORT,
    TraceFormatError,
)

#: Records claiming a tick at/above this are impossible on a real
#: session (the tick counter is u32, but a plausible multi-hour session
#: stays far below; a corrupted tick field usually lands astronomically
#: high).  2^31 ticks is ~8 months of continuous 100 Hz uptime.
MAX_PLAUSIBLE_TICK = 1 << 31


@dataclass
class SalvageResult:
    """What the check produced: the playable log plus the paper trail."""

    log: ActivityLog
    report: Report
    total: int = 0          #: records examined
    kept: int = 0           #: records in the salvaged log
    dropped: int = 0        #: records removed
    repaired: int = 0       #: backwards tick steps re-sorted, data masked

    @property
    def clean(self) -> bool:
        """True when the log raised no finding at all."""
        return not self.report.findings

    def summary(self) -> str:
        return (f"salvage: {self.kept}/{self.total} record(s) kept, "
                f"{self.dropped} dropped, {self.repaired} repaired; "
                f"{len(self.report.errors)} error(s), "
                f"{len(self.report.warnings)} warning(s)")


def salvage_log(log: ActivityLog) -> SalvageResult:
    """Check and repair a decoded activity log."""
    return _walk(list(enumerate(log)), len(log), Report())


def salvage_file(path: Union[str, Path]) -> SalvageResult:
    """Check and repair the activity log of a session archive (its
    directory, or the ``.pdb`` file itself).

    Records are decoded leniently, one at a time, so one bad blob does
    not hide the rest; a file that is not a PDB at all raises
    :class:`TraceFormatError` carrying an ``unreadable-pdb`` report.
    """
    path = Path(path)
    if path.is_dir():
        path = path / "activity_log.pdb"
    report = Report()
    try:
        image = DatabaseImage.from_pdb_bytes(path.read_bytes())
    except (OSError, ValueError) as exc:
        report.add(Severity.ERROR, "unreadable-pdb",
                   f"cannot read {path} as a PDB: {exc}")
        raise TraceFormatError(f"unreadable activity log {path}: {exc}",
                               report=report) from exc
    decoded: List[Tuple[int, LogRecord]] = []
    for index, raw in enumerate(image.records):
        if len(raw.data) < RECORD_SIZE_SHORT:
            report.add(Severity.ERROR, "truncated-record",
                       f"record {index} blob is {len(raw.data)} bytes, "
                       f"below the {RECORD_SIZE_SHORT}-byte minimum; "
                       f"dropped", address=index)
            continue
        try:
            decoded.append((index, LogRecord.decode(raw.data, strict=False)))
        except TraceFormatError as exc:
            report.add(Severity.ERROR, "corrupt-record",
                       f"record {index} does not decode: {exc}; dropped",
                       address=index)
    return _walk(decoded, len(image.records), report)


def _walk(records: Sequence[Tuple[int, LogRecord]], total: int,
          report: Report) -> SalvageResult:
    """The one walk over a log: ``records`` are ``(index, record)``
    pairs in log order, ``total`` counts the records the source held
    (those already dropped by the caller included)."""
    if total > MAX_LOG_RECORDS:
        report.add(Severity.ERROR, "log-overflow",
                   f"{total} records exceed the {MAX_LOG_RECORDS}-record "
                   f"database limit")

    # Pass 1: per-record validation.
    survivors: List[Tuple[int, LogRecord]] = []
    prev: Optional[LogRecord] = None
    repaired = 0
    for index, rec in records:
        previous, prev = prev, rec
        if not rec.known_type:
            report.add(Severity.ERROR, "unknown-event-type",
                       f"record {index} has event type {int(rec.type):#06x} "
                       f"which names no playback group; dropped",
                       address=index)
            continue
        if rec.tick >= MAX_PLAUSIBLE_TICK:
            report.add(Severity.ERROR, "implausible-tick",
                       f"record {index} ({rec.type.name}) claims tick "
                       f"{rec.tick}, beyond the {MAX_PLAUSIBLE_TICK} "
                       f"plausibility bound; dropped", address=index)
            continue
        if rec.type == LogEventType.KEYSTATE and rec.data > 0xFFFF:
            # A 12-byte record cannot carry more than 16 data bits; the
            # oversized value means the blob was decoded off-frame.
            report.add(Severity.WARNING, "oversized-keystate",
                       f"record {index} KEYSTATE data {rec.data:#x} exceeds "
                       f"the 16-bit field; masked", address=index)
            rec = prev = LogRecord(rec.type, rec.tick, rec.rtc,
                                   rec.data & 0xFFFF)
            repaired += 1
        if rec == previous and rec.type != LogEventType.RESET:
            report.add(Severity.WARNING, "duplicate-record",
                       f"record {index} exactly duplicates its predecessor "
                       f"({rec.type.name} tick={rec.tick}); dropped",
                       address=index)
            continue
        if rec.type == LogEventType.RANDOM and rec.data == 0:
            report.add(Severity.WARNING, "zero-seed",
                       f"record {index} logs a zero SysRandom seed "
                       f"(zero seeds do not reseed and are never logged "
                       f"by a correct recorder)", address=index)
        survivors.append((index, rec))

    # Pass 2: per-epoch monotonicity.  Ticks restart at RESET records;
    # within one epoch a backwards tick means reordered storage (e.g. a
    # shuffled burst), repaired by a stable re-sort that never moves a
    # record across an epoch boundary.
    cleaned: List[LogRecord] = []
    epoch: List[Tuple[int, LogRecord]] = []

    def flush_epoch() -> None:
        nonlocal repaired
        for (_, before), (index, rec) in zip(epoch, epoch[1:]):
            if rec.tick < before.tick:
                report.add(Severity.ERROR, "non-monotonic-tick",
                           f"record {index} ({rec.type.name}) has tick "
                           f"{rec.tick}, before its predecessor's "
                           f"{before.tick}; epoch re-sorted", address=index)
                repaired += 1
            if rec.rtc < before.rtc:
                report.add(Severity.WARNING, "non-monotonic-rtc",
                           f"record {index} ({rec.type.name}) has rtc "
                           f"{rec.rtc}, before its predecessor's "
                           f"{before.rtc}", address=index)
        cleaned.extend(sorted((rec for _, rec in epoch),
                              key=lambda r: r.tick))
        epoch.clear()

    for entry in survivors:
        epoch.append(entry)
        if entry[1].type == LogEventType.RESET:
            flush_epoch()
    flush_epoch()

    log = ActivityLog(cleaned)
    # The seed queue is global (consumed one per non-zero SysRandom
    # call, in insertion order) and every epoch's boot path calls
    # SysRandom once, so the log needs at least one seed per epoch or
    # replay will underrun the queue.
    seeds = len(log.of_type(LogEventType.RANDOM))
    epochs = len(split_epochs(log))
    if seeds < epochs:
        report.add(Severity.ERROR, "seed-underrun",
                   f"{seeds} recorded SysRandom seed(s) for {epochs} "
                   f"epoch(s); each boot consumes one, so replay will fall "
                   f"back to emulator entropy")
    return SalvageResult(log=log, report=report, total=total,
                         kept=len(cleaned), dropped=total - len(cleaned),
                         repaired=repaired)


@dataclass
class ContainerSalvageResult:
    """What PTRC container salvage produced: the recovered container's
    manifest (``None`` when nothing was recoverable) plus the paper
    trail, through the same :class:`Report` machinery as log salvage."""

    report: Report
    manifest: Optional[Dict[str, Any]]
    chunks_kept: int = 0
    tokens_kept: int = 0

    @property
    def clean(self) -> bool:
        """True when the container needed no intervention at all."""
        return not self.report.findings

    def summary(self) -> str:
        return (f"salvage: {self.chunks_kept} chunk(s) / "
                f"{self.tokens_kept:,} token(s) recovered; "
                f"{len(self.report.errors)} error(s), "
                f"{len(self.report.warnings)} warning(s)")


#: PTRC scan problem codes that mean "this is not a (version of a)
#: container at all" rather than "the tail is torn" — nothing before
#: the problem can be trusted, so they are error severity.
_FATAL_CONTAINER_PROBLEMS = frozenset(
    ("truncated-header", "bad-magic", "bad-version", "bad-codec"))


def salvage_container(path: Union[str, Path],
                      out_path: Union[str, Path]) -> ContainerSalvageResult:
    """Recover the intact prefix of a torn or corrupt PTRC trace
    container into ``out_path``, reporting every dropped frame as a
    typed finding.

    A container torn by a crash (a replay killed mid ``--trace-out``,
    a fleet worker that died before ``os.replace``) loses only its
    unflushed tail: every complete frame before the tear is
    self-describing and crc-guarded, so the salvaged prefix is
    bit-exact.
    """
    from ..traces.container import TraceContainerError, recover_container

    report = Report()
    manifest: Optional[Dict[str, Any]] = None
    chunks_kept = 0
    tokens_kept = 0
    try:
        manifest, recovery = recover_container(path, out_path)
    except (TraceContainerError, OSError) as exc:
        report.add(Severity.ERROR, "unrecoverable-container",
                   f"cannot recover {path}: {exc}")
    else:
        chunks_kept = int(recovery["chunks_kept"])
        tokens_kept = int(recovery["tokens_kept"])
        for problem in recovery["problems"]:
            severity = (Severity.ERROR
                        if problem["code"] in _FATAL_CONTAINER_PROBLEMS
                        else Severity.WARNING)
            report.add(severity, problem["code"], problem["message"])
    return ContainerSalvageResult(report=report, manifest=manifest,
                                  chunks_kept=chunks_kept,
                                  tokens_kept=tokens_kept)
