"""Live divergence watchdog for replays.

:func:`~repro.validation.log_correlation.correlate_logs` delivers the
§3.3 verdict *after* a replay has finished.  The watchdog does the same
per-type aligned comparison **online**: the resilient runner feeds it
the emulated machine's activity log at every checkpoint boundary, and
the watchdog classifies any fresh disagreement with the original log —

* ``TICK_SKEW`` — same payload, but delivered ≥ ``BURST_TICK_BOUND``
  ticks off schedule (benign bursts stay *under* the paper's 20-tick
  bound and are not divergences);
* ``PAYLOAD_MISMATCH`` — the aligned record carries different data;
* ``EXTRA_EVENT`` — the replay logged a record the original lacks;
* ``MISSING_EVENT`` — the original has records the finished replay
  never produced (only decidable at end of run).

Each :class:`Divergence` localizes the failure to a record index and
the original's tick; the runner's bisection narrows the wall tick
further using the checkpoint ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

from ..tracelog import ActivityLog
from ..tracelog.records import LogEventType, LogRecord
from ..validation.log_correlation import BURST_TICK_BOUND


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
        try:
            name = LogEventType(self.event_type).name
        except ValueError:
            name = f"{self.event_type:#06x}"
        text = (f"{self.kind.value} in {name} stream at record {self.index}"
                f" (tick {self.tick})")
        if self.detail:
            text += f": {self.detail}"
        return text


@dataclass
class DivergenceReport:
    """Everything the watchdog found, plus the runner's localization."""

    divergences: List[Divergence] = field(default_factory=list)
    #: Wall tick of the last checkpoint known good / first known bad —
    #: filled in by the runner's bisection over the checkpoint ring.
    last_good_tick: Optional[int] = None
    first_bad_tick: Optional[int] = None
    retries: int = 0
    #: Determinism-relevant findings from the semantic ROM audit
    #: (``analysis.static.audit``), attached by the resilient runner
    #: when a strict replay diverges: an unhacked nondeterminism source
    #: or self-modifying code is the most likely root cause, and the
    #: audit names it statically.
    static_hints: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.divergences)

    @property
    def first(self) -> Optional[Divergence]:
        return self.divergences[0] if self.divergences else None

    @property
    def kinds(self) -> List[DivergenceKind]:
        return sorted({d.kind for d in self.divergences}, key=lambda k: k.value)

    def summary(self) -> str:
        if not self.divergences:
            return "no divergence"
        head = self.divergences[0]
        text = (f"replay diverged: {len(self.divergences)} divergence(s), "
                f"first: {head.describe()}")
        if self.last_good_tick is not None:
            text += f"; last good checkpoint at wall tick {self.last_good_tick}"
        if self.first_bad_tick is not None:
            text += f"; first divergent window ends at wall tick {self.first_bad_tick}"
        if self.retries:
            text += f"; after {self.retries} resync retr"
            text += "y" if self.retries == 1 else "ies"
        return text

    def format(self) -> str:
        lines = [self.summary()]
        for div in self.divergences:
            lines.append(f"  - {div.describe()}")
            if div.expected is not None:
                lines.append(f"      expected: tick={div.expected.tick} "
                             f"data={div.expected.data:#010x}")
            if div.actual is not None:
                lines.append(f"      actual  : tick={div.actual.tick} "
                             f"data={div.actual.data:#010x}")
        if self.static_hints:
            lines.append("  static audit hints (possible root causes):")
            for hint in self.static_hints:
                lines.append(f"    * {hint}")
        return "\n".join(lines)


def _streams(log: ActivityLog) -> Dict[int, List[LogRecord]]:
    out: Dict[int, List[LogRecord]] = {}
    for record in log:
        out.setdefault(int(record.type), []).append(record)
    return out


class DivergenceWatchdog:
    """Incremental original-vs-replayed log comparator.

    Feed it the replayed log periodically via :meth:`check`; it only
    examines records beyond its per-type cursors, so the cost per call
    is proportional to the *new* records, not the whole log.  Cursors
    advance past divergent pairs, so in ``degrade`` mode later records
    keep being checked after a mismatch is absorbed.
    """

    def __init__(self, original: ActivityLog,
                 burst_bound: int = BURST_TICK_BOUND):
        self.original = _streams(original)
        self.burst_bound = burst_bound
        self._cursor: Dict[int, int] = {etype: 0 for etype in self.original}
        self.report = DivergenceReport()

    def check(self, replayed: ActivityLog,
              final: bool = False) -> List[Divergence]:
        """Compare any newly-replayed records; returns the *fresh*
        divergences (also accumulated into :attr:`report`).  With
        ``final=True`` the replay is over, so original records beyond
        the replayed prefix become ``MISSING_EVENT``.
        """
        fresh: List[Divergence] = []
        replayed_streams = _streams(replayed)
        for etype in set(self.original) | set(replayed_streams):
            o_stream = self.original.get(etype, [])
            r_stream = replayed_streams.get(etype, [])
            pos = self._cursor.setdefault(etype, 0)
            while pos < len(r_stream):
                actual = r_stream[pos]
                if pos >= len(o_stream):
                    fresh.append(Divergence(
                        kind=DivergenceKind.EXTRA_EVENT, event_type=etype,
                        index=pos, expected=None, actual=actual,
                        tick=actual.tick,
                        detail="replay produced a record the original log "
                               "does not contain"))
                    pos += 1
                    continue
                expected = o_stream[pos]
                if expected.data != actual.data:
                    fresh.append(Divergence(
                        kind=DivergenceKind.PAYLOAD_MISMATCH, event_type=etype,
                        index=pos, expected=expected, actual=actual,
                        tick=expected.tick,
                        detail=f"data {actual.data:#010x} != expected "
                               f"{expected.data:#010x}"))
                elif abs(actual.tick - expected.tick) >= self.burst_bound:
                    fresh.append(Divergence(
                        kind=DivergenceKind.TICK_SKEW, event_type=etype,
                        index=pos, expected=expected, actual=actual,
                        tick=expected.tick,
                        detail=f"slipped {actual.tick - expected.tick} ticks "
                               f"(bound {self.burst_bound})"))
                pos += 1
            if final and pos < len(o_stream):
                missing = o_stream[pos]
                fresh.append(Divergence(
                    kind=DivergenceKind.MISSING_EVENT, event_type=etype,
                    index=pos, expected=missing, actual=None,
                    tick=missing.tick,
                    detail=f"{len(o_stream) - pos} original record(s) never "
                           f"replayed"))
                pos = len(o_stream)
            self._cursor[etype] = pos
        self.report.divergences.extend(fresh)
        return fresh

    def rewind(self) -> None:
        """Forget all progress (the runner restored an earlier
        checkpoint and will re-feed the log from scratch)."""
        self._cursor = {etype: 0 for etype in self.original}

    @property
    def diverged(self) -> bool:
        return bool(self.report)
