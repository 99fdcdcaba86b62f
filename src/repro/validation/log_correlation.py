"""Activity-log correlation (§3.3).

"To validate the simulator, we first verified that the inputs collected
from the physical device were replayed on the simulator. ... The
activity log from the handheld and that of the emulated session
correlate very well.  Each pen event recorded in the original activity
log also appeared in the emulated activity log with the same
coordinates. ... However, the events in the emulated activity log
sometimes occurred in short bursts ... slightly behind schedule
(< 20 ticks)."

One per-type aligner, :class:`DivergenceWatchdog`, quantifies exactly
that: it pairs each event type's original and replayed records in
order, accumulates payload matches and tick slips into a
:class:`LogCorrelation`, and classifies each disagreement as a
:class:`Divergence` — ``tick-skew`` (same payload, ≥
``BURST_TICK_BOUND`` ticks late), ``payload-mismatch``, ``extra-event``
and, on the final check, ``missing-event``.  :func:`correlate_logs` is
one final check after a replay; the resilient runner
(:mod:`repro.resilience.replay`) runs the same comparator at every
checkpoint.  :attr:`LogCorrelation.valid` holds exactly when the final
check finds no divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from ..tracelog import ActivityLog
from ..tracelog.records import LogEventType, LogRecord

#: The paper's burst bound: replayed events arrived < 20 ticks late.
BURST_TICK_BOUND = 20


def _type_name(event_type: int) -> str:
    try:
        return LogEventType(event_type).name
    except ValueError:
        return f"{event_type:#06x}"


class DivergenceKind(Enum):
    TICK_SKEW = "tick-skew"
    PAYLOAD_MISMATCH = "payload-mismatch"
    MISSING_EVENT = "missing-event"
    EXTRA_EVENT = "extra-event"


@dataclass(frozen=True)
class Divergence:
    """One classified disagreement between the original and replayed
    activity logs."""

    kind: DivergenceKind
    event_type: int                 #: the stream (LogEventType value)
    index: int                      #: per-type aligned record index
    expected: Optional[LogRecord]   #: the original's record (None: extra)
    actual: Optional[LogRecord]     #: the replay's record (None: missing)
    tick: int                       #: best-known localization (guest tick)
    detail: str = ""

    def describe(self) -> str:
        text = (f"{self.kind.value} in {_type_name(self.event_type)} stream "
                f"at record {self.index} (tick {self.tick})")
        if self.detail:
            text += f": {self.detail}"
        return text


@dataclass
class TypeCorrelation:
    """Correlation of one event type's record stream."""

    original: int = 0
    replayed: int = 0
    payload_matches: int = 0
    exact_matches: int = 0       # payload and tick both equal
    tick_deltas: List[int] = field(default_factory=list)

    @property
    def max_tick_delta(self) -> int:
        return max((abs(d) for d in self.tick_deltas), default=0)


@dataclass
class LogCorrelation:
    """The full §3.3 comparison."""

    by_type: Dict[LogEventType, TypeCorrelation] = field(default_factory=dict)

    @property
    def total_original(self) -> int:
        return sum(t.original for t in self.by_type.values())

    @property
    def total_replayed(self) -> int:
        return sum(t.replayed for t in self.by_type.values())

    @property
    def payload_matches(self) -> int:
        return sum(t.payload_matches for t in self.by_type.values())

    @property
    def exact_matches(self) -> int:
        return sum(t.exact_matches for t in self.by_type.values())

    @property
    def max_tick_delta(self) -> int:
        return max((t.max_tick_delta for t in self.by_type.values()),
                   default=0)

    @property
    def valid(self) -> bool:
        """The §3.3 verdict: the logs 'contain virtually the same
        inputs, retaining the integrity of the log' — every payload
        matches and every slip is under the paper's < 20-tick bound."""
        return (self.max_tick_delta < BURST_TICK_BOUND
                and all(t.payload_matches == t.original == t.replayed
                        for t in self.by_type.values()))

    def summary(self) -> str:
        lines = [
            f"activity log correlation: {self.total_original} original / "
            f"{self.total_replayed} replayed records",
            f"  payload matches : {self.payload_matches}"
            f" ({100.0 * self.payload_matches / max(1, self.total_original):.1f}%)",
            f"  exact matches   : {self.exact_matches}",
            f"  max tick slip   : {self.max_tick_delta}"
            f" (paper bound: < {BURST_TICK_BOUND})",
            f"  verdict         : {'VALID' if self.valid else 'DIVERGED'}",
        ]
        for etype, t in sorted(self.by_type.items()):
            lines.append(
                f"    {_type_name(etype):<9} {t.original:>6} vs "
                f"{t.replayed:<6} payload {t.payload_matches}, exact "
                f"{t.exact_matches}, max slip {t.max_tick_delta}")
        return "\n".join(lines)


def _streams(log: ActivityLog) -> Dict[LogEventType, List[LogRecord]]:
    out: Dict[LogEventType, List[LogRecord]] = {}
    for record in log:
        out.setdefault(record.type, []).append(record)
    return out


class DivergenceWatchdog:
    """The per-type aligner: an incremental original-vs-replayed log
    comparator.

    Feed it the replayed log via :meth:`check`, once or periodically.
    Each type's cursor is the count of its replayed records already
    aligned (:attr:`TypeCorrelation.replayed`), so a call examines only
    the records beyond it and costs the *new* records, not the whole
    log.  Cursors advance past divergent pairs, so in the runner's
    ``degrade`` mode later records keep being checked after a mismatch
    is absorbed.
    """

    def __init__(self, original: ActivityLog):
        self._original = _streams(original)
        self.rewind()

    def rewind(self) -> None:
        """Forget all progress (the runner restored an earlier
        checkpoint and will re-feed the log from scratch)."""
        #: The §3.3 statistics of the records aligned so far.
        self.correlation = LogCorrelation(by_type={
            etype: TypeCorrelation(original=len(stream))
            for etype, stream in self._original.items()})

    def check(self, replayed: ActivityLog,
              final: bool = False) -> List[Divergence]:
        """Align any newly-replayed records; returns the *fresh*
        divergences.  With ``final=True`` the replay is over, so
        original records beyond the replayed prefix become
        ``MISSING_EVENT``.
        """
        fresh: List[Divergence] = []
        by_type = self.correlation.by_type
        streams = _streams(replayed)
        for etype in sorted(self._original.keys() | streams.keys()):
            o_stream = self._original.get(etype, [])
            corr = by_type.setdefault(etype, TypeCorrelation())
            for actual in streams.get(etype, [])[corr.replayed:]:
                index = corr.replayed
                corr.replayed += 1
                if index >= len(o_stream):
                    fresh.append(Divergence(
                        DivergenceKind.EXTRA_EVENT, int(etype), index,
                        None, actual, actual.tick,
                        "replay produced a record the original log "
                        "does not contain"))
                    continue
                expected = o_stream[index]
                if expected.data != actual.data:
                    fresh.append(Divergence(
                        DivergenceKind.PAYLOAD_MISMATCH, int(etype), index,
                        expected, actual, expected.tick,
                        f"data {actual.data:#010x} != expected "
                        f"{expected.data:#010x}"))
                    continue
                slip = actual.tick - expected.tick
                corr.payload_matches += 1
                if slip == 0:
                    corr.exact_matches += 1
                corr.tick_deltas.append(slip)
                if abs(slip) >= BURST_TICK_BOUND:
                    fresh.append(Divergence(
                        DivergenceKind.TICK_SKEW, int(etype), index,
                        expected, actual, expected.tick,
                        f"slipped {slip} ticks (bound {BURST_TICK_BOUND})"))
            if final and corr.replayed < len(o_stream):
                missing = o_stream[corr.replayed]
                fresh.append(Divergence(
                    DivergenceKind.MISSING_EVENT, int(etype), corr.replayed,
                    missing, None, missing.tick,
                    f"{len(o_stream) - corr.replayed} original record(s) "
                    f"never replayed"))
        return fresh


def correlate_logs(original: ActivityLog,
                   replayed: ActivityLog) -> LogCorrelation:
    """Compare the handheld's log with the emulated session's log: one
    final check by a fresh :class:`DivergenceWatchdog`."""
    comparator = DivergenceWatchdog(original)
    comparator.check(replayed, final=True)
    return comparator.correlation
