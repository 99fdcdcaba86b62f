"""Activity-log correlation (§3.3).

"To validate the simulator, we first verified that the inputs collected
from the physical device were replayed on the simulator. ... The
activity log from the handheld and that of the emulated session
correlate very well.  Each pen event recorded in the original activity
log also appeared in the emulated activity log with the same
coordinates. ... However, the events in the emulated activity log
sometimes occurred in short bursts ... slightly behind schedule
(< 20 ticks)."

:func:`correlate_logs` quantifies exactly that: per-event-type payload
matching plus the tick-slip distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..tracelog import ActivityLog
from ..tracelog.records import LogEventType, LogRecord

#: The paper's burst bound: replayed events arrived < 20 ticks late.
BURST_TICK_BOUND = 20


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
    def all_payloads_match(self) -> bool:
        return all(t.payload_matches == t.original == t.replayed
                   for t in self.by_type.values())

    @property
    def within_burst_bound(self) -> bool:
        """Every slip under the paper's observed < 20-tick bound."""
        return self.max_tick_delta < BURST_TICK_BOUND

    @property
    def valid(self) -> bool:
        """The §3.3 verdict: the logs 'contain virtually the same
        inputs, retaining the integrity of the log'."""
        return self.all_payloads_match and self.within_burst_bound

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
                f"    {etype.name:<9} {t.original:>6} vs {t.replayed:<6} "
                f"payload {t.payload_matches}, exact {t.exact_matches}, "
                f"max slip {t.max_tick_delta}")
        return "\n".join(lines)


def _streams(log: ActivityLog) -> Dict[LogEventType, List[LogRecord]]:
    out: Dict[LogEventType, List[LogRecord]] = {}
    for record in log:
        out.setdefault(record.type, []).append(record)
    return out


def correlate_logs(original: ActivityLog,
                   replayed: ActivityLog) -> LogCorrelation:
    """Compare the handheld's log with the emulated session's log.

    Records are aligned per event type, in order — the replay preserves
    per-type ordering even when bursts delay delivery.
    """
    result = LogCorrelation()
    original_streams = _streams(original)
    replayed_streams = _streams(replayed)
    for etype in set(original_streams) | set(replayed_streams):
        o_stream = original_streams.get(etype, [])
        r_stream = replayed_streams.get(etype, [])
        corr = TypeCorrelation(original=len(o_stream), replayed=len(r_stream))
        for o_rec, r_rec in zip(o_stream, r_stream):
            if o_rec.data == r_rec.data:
                corr.payload_matches += 1
                if o_rec.tick == r_rec.tick:
                    corr.exact_matches += 1
                corr.tick_deltas.append(r_rec.tick - o_rec.tick)
        result.by_type[etype] = corr
    return result
