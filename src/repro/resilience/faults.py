"""Fault injection for replay-resilience testing.

Two fault families, one spec grammar::

    spec     := fault ("," fault)*
    fault    := name (":" param (";" param)*)?
    param    := key "=" value

e.g. ``bitflip:n=3;seed=7,drop:n=1`` or ``crash:at=4000``.

**Trace faults** corrupt the activity log *before* replay, modelling
damage in transit (a flaky HotSync, a dying SD card):

===============  ======================================================
``bitflip``      flip ``n`` random bits across encoded records
``truncate``     cut the log at record ``at`` (or keep ``frac``)
``drop``         delete ``n`` random records
``dup``          duplicate ``n`` random records in place
``reorder``      shuffle a ``window``-record burst at a random position
``seed-underflow``  delete the last ``n`` RANDOM records (queue underrun)
``type-garbage`` overwrite ``n`` records' type with an unknown value
===============  ======================================================

**Runtime faults** perturb the emulator *during* replay; they are
one-shot (a resumed replay does not re-arm them), which is what makes
the ``resync`` policy able to recover from them honestly:

===============  ======================================================
``crash``        raise :class:`ReplayFault` from a scheduled callback
                 at wall tick ``at``
``clock-drift``  bump the RTC base by ``seconds`` at wall tick ``at``
``stall-reset``  suppress reset detection so a recorded soft reset
                 times out (:class:`GuestResetTimeout`)
===============  ======================================================

All randomness is seeded (``seed`` param, default the fault's 0-based
position in the spec, so two faults of one spec sample apart): the same
spec corrupts the same log the same way, so fault tests are
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple, Union

from ..tracelog import ActivityLog
from ..tracelog.records import LogEventType, LogRecord
from .errors import FaultSpecError, ReplayFault

TRACE_FAULTS = frozenset({
    "bitflip", "truncate", "drop", "dup", "reorder", "seed-underflow",
    "type-garbage",
})
RUNTIME_FAULTS = frozenset({"crash", "clock-drift", "stall-reset"})

#: An event-type word no recorder version has ever used.
GARBAGE_TYPE = 0x7F7F


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault: a name plus its parameters."""

    name: str
    params: Dict[str, Union[int, float, str]] = field(default_factory=dict)

    def get(self, key: str, default: Any) -> Any:
        return self.params.get(key, default)

    def describe(self) -> str:
        if not self.params:
            return self.name
        inner = ";".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}:{inner}"


def _parse_value(raw: str) -> Union[int, float, str]:
    try:
        return int(raw, 0)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


class FaultPlan:
    """A parsed ``--faults`` specification."""

    def __init__(self, specs: List[FaultSpec]):
        self.specs = specs

    def __len__(self) -> int:
        return len(self.specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        specs: List[FaultSpec] = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            name, _, tail = chunk.partition(":")
            name = name.strip()
            if name not in TRACE_FAULTS | RUNTIME_FAULTS:
                known = ", ".join(sorted(TRACE_FAULTS | RUNTIME_FAULTS))
                raise FaultSpecError(
                    f"unknown fault {name!r} (known: {known})")
            params: Dict[str, Union[int, float, str]] = {}
            if tail:
                for pair in tail.split(";"):
                    key, eq, value = pair.partition("=")
                    if not eq or not key.strip():
                        raise FaultSpecError(
                            f"malformed parameter {pair!r} in fault "
                            f"{name!r} (expected key=value)")
                    params[key.strip()] = _parse_value(value.strip())
            specs.append(FaultSpec(name, params))
        if not specs:
            raise FaultSpecError("empty fault specification")
        return cls(specs)

    @property
    def trace_specs(self) -> List[FaultSpec]:
        return [s for s in self.specs if s.name in TRACE_FAULTS]

    @property
    def runtime_specs(self) -> List[FaultSpec]:
        return [s for s in self.specs if s.name in RUNTIME_FAULTS]

    # ------------------------------------------------------------------
    # Trace faults
    # ------------------------------------------------------------------
    def apply_to_log(self, log: ActivityLog) -> Tuple[ActivityLog, List[str]]:
        """Return a corrupted copy of ``log`` (the original is left
        untouched) plus a description of each mutation."""
        records = list(log.records)
        notes: List[str] = []
        for position, spec in enumerate(self.specs):
            if spec.name in TRACE_FAULTS:
                records = _apply_trace_fault(spec, records, notes, position)
        return ActivityLog(records=records), notes

    # ------------------------------------------------------------------
    # Runtime faults
    # ------------------------------------------------------------------
    def arm(self, driver: Any) -> List[str]:
        """Install the runtime faults on a playback driver.  Scheduled
        faults live on the device's stimulus queue, so a checkpoint
        restore drops them (one-shot semantics)."""
        notes: List[str] = []
        device = driver.emulator.device
        for spec in self.runtime_specs:
            if spec.name == "crash":
                at = int(spec.get("at", device.tick + 1000))
                detail = str(spec.get("detail", "scheduled-callback fault"))

                def _blow(at: int = at, detail: str = detail) -> None:
                    raise ReplayFault("crash", at, detail)

                device.schedule_call(at, _blow)
                notes.append(f"armed crash at wall tick {at}")
            elif spec.name == "clock-drift":
                at = int(spec.get("at", device.tick + 1000))
                seconds = int(spec.get("seconds", 30))
                rtc = device.rtc

                def _drift(rtc: Any = rtc, seconds: int = seconds) -> None:
                    rtc.base_seconds = (rtc.base_seconds + seconds) & 0xFFFFFFFF

                device.schedule_call(at, _drift)
                notes.append(f"armed clock-drift of {seconds}s at wall "
                             f"tick {at}")
            elif spec.name == "stall-reset":
                driver._fault_stall_reset = True
                notes.append("armed stall-reset (reset detection suppressed)")
        return notes

    def disarm(self, driver: Any) -> None:
        """Clear persistent runtime faults before a resync retry (the
        scheduled ones died with the restored stimulus queue)."""
        driver._fault_stall_reset = False


def _apply_trace_fault(spec: FaultSpec, records: List[LogRecord],
                       notes: List[str], position: int) -> List[LogRecord]:
    rng = random.Random(int(spec.get("seed", position)))
    name = spec.name
    if not records and name != "truncate":
        notes.append(f"{spec.describe()}: log empty, nothing to corrupt")
        return records

    if name == "bitflip":
        n = int(spec.get("n", 1))
        out = list(records)
        for _ in range(n):
            index = rng.randrange(len(out))
            blob = bytearray(out[index].encode())
            bit = rng.randrange(len(blob) * 8)
            blob[bit // 8] ^= 1 << (bit % 8)
            try:
                out[index] = LogRecord.decode(bytes(blob), strict=False)
                notes.append(f"bitflip: record {index} bit {bit} flipped")
            except Exception:
                # The flip landed in the type field and re-framed the
                # record below its new minimum size: unrecoverable blob.
                del out[index]
                notes.append(f"bitflip: record {index} destroyed (bit {bit})")
        return out

    if name == "truncate":
        if "at" in spec.params:
            at = int(spec.params["at"])
        else:
            frac = float(spec.get("frac", 0.5))
            at = int(len(records) * frac)
        notes.append(f"truncate: kept {at}/{len(records)} records")
        return records[:at]

    if name == "drop":
        n = min(int(spec.get("n", 1)), len(records))
        victims = sorted(rng.sample(range(len(records)), n), reverse=True)
        out = list(records)
        for index in victims:
            notes.append(f"drop: record {index} "
                         f"({_type_name(out[index])}) deleted")
            del out[index]
        return out

    if name == "dup":
        n = min(int(spec.get("n", 1)), len(records))
        victims = sorted(rng.sample(range(len(records)), n), reverse=True)
        out = list(records)
        for index in victims:
            out.insert(index + 1, out[index])
            notes.append(f"dup: record {index} duplicated")
        return out

    if name == "reorder":
        window = max(2, int(spec.get("window", 4)))
        if len(records) < window:
            notes.append("reorder: log shorter than the window, skipped")
            return records
        start = rng.randrange(len(records) - window + 1)
        out = list(records)
        burst = out[start:start + window]
        rng.shuffle(burst)
        out[start:start + window] = burst
        notes.append(f"reorder: records [{start}, {start + window}) shuffled")
        return out

    if name == "seed-underflow":
        n = int(spec.get("n", 1))
        out = list(records)
        removed = 0
        for index in range(len(out) - 1, -1, -1):
            if removed >= n:
                break
            if out[index].type == LogEventType.RANDOM:
                del out[index]
                removed += 1
        notes.append(f"seed-underflow: {removed} RANDOM record(s) removed")
        return out

    if name == "type-garbage":
        n = min(int(spec.get("n", 1)), len(records))
        victims = rng.sample(range(len(records)), n)
        out = list(records)
        for index in victims:
            rec = out[index]
            out[index] = LogRecord(GARBAGE_TYPE, rec.tick, rec.rtc, rec.data)
            notes.append(f"type-garbage: record {index} type -> "
                         f"{GARBAGE_TYPE:#06x}")
        return out

    raise FaultSpecError(f"unhandled trace fault {name!r}")  # pragma: no cover


def _type_name(record: LogRecord) -> str:
    try:
        return LogEventType(int(record.type)).name
    except ValueError:
        return f"{int(record.type):#06x}"
