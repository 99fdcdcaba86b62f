"""Activity-log record formats.

An activity log is "a record of the time an external input occurred,
the type of input and any relevant data necessary for playback" (§2.3).
Each record carries the tick counter and real-time-clock values at the
moment the hack ran, the event type, and the input's data word.

As in the paper, records are twelve or sixteen bytes: the
KeyCurrentState bit field fits a 16-bit data word (12-byte record);
pen samples, key transitions, notify types and random seeds use a
32-bit data word (16-byte record).

Layout (big-endian):

    +0  type  u16
    +2  tick  u32
    +6  rtc   u32
    +10 data  u16 (12-byte record) or u32 (16-byte record, 2 pad bytes)
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum


class TraceFormatError(ValueError):
    """An activity-log record (or the log as a whole) violates the
    record format: unknown event type, truncated blob, or bytes that
    are not a PDB.  A session archive's unreadable ``state.json``
    raises it too.

    ``report`` carries the findings when the error came out of the log
    check (:func:`repro.resilience.salvage.salvage_file`).
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class LogEventType(IntEnum):
    KEY = 1         # EvtEnqueueKey: bit31 = down, low byte = button
    PEN = 2         # EvtEnqueuePenPoint: packed digitizer sample
    KEYSTATE = 3    # KeyCurrentState: returned bit field
    NOTIFY = 4      # SysNotifyBroadcast: notify type
    RANDOM = 5      # SysRandom: non-zero seed parameter
    RESET = 6       # SysReset: a soft reset ends the tick epoch
                    # (extension: the paper's deferred future work)


#: Event types stored in 12-byte records (16-bit data).
SHORT_TYPES = frozenset({LogEventType.KEYSTATE, LogEventType.RESET})

RECORD_SIZE_SHORT = 12
RECORD_SIZE_LONG = 16


@dataclass(frozen=True)
class LogRecord:
    """One decoded activity-log record.

    ``type`` is normally a :class:`LogEventType`; a lenient decode
    (``strict=False``) keeps an unknown type byte as a plain ``int`` so
    the log check can report it instead of losing the record.
    """

    type: LogEventType
    tick: int
    rtc: int
    data: int

    @property
    def known_type(self) -> bool:
        return isinstance(self.type, LogEventType)

    @property
    def size(self) -> int:
        return RECORD_SIZE_SHORT if self.type in SHORT_TYPES else RECORD_SIZE_LONG

    def encode(self) -> bytes:
        if self.type in SHORT_TYPES:
            return struct.pack(">HIIH", self.type, self.tick, self.rtc,
                               self.data & 0xFFFF)
        return struct.pack(">HIII2x", self.type, self.tick, self.rtc,
                           self.data & 0xFFFFFFFF)

    @classmethod
    def decode(cls, blob: bytes, strict: bool = True) -> "LogRecord":
        if len(blob) < RECORD_SIZE_SHORT:
            raise TraceFormatError(
                f"record blob is {len(blob)} bytes, below the "
                f"{RECORD_SIZE_SHORT}-byte minimum")
        raw_type = struct.unpack(">H", blob[:2])[0]
        try:
            etype = LogEventType(raw_type)
        except ValueError:
            if strict:
                raise TraceFormatError(
                    f"unknown event type {raw_type:#06x}") from None
            etype = raw_type  # lenient: keep the raw byte for diagnosis
        if etype in SHORT_TYPES:
            _, tick, rtc, data = struct.unpack(">HIIH", blob[:RECORD_SIZE_SHORT])
        else:
            if len(blob) < 14:
                raise TraceFormatError(
                    f"long record truncated to {len(blob)} bytes")
            _, tick, rtc, data = struct.unpack(">HIII", blob[:14])
        return cls(etype, tick, rtc, data)

    # -- pen sample helpers -------------------------------------------------
    @property
    def pen_down(self) -> bool:
        return bool(self.data & 0x8000_0000)

    @property
    def pen_x(self) -> int:
        return (self.data >> 8) & 0xFF

    @property
    def pen_y(self) -> int:
        return self.data & 0xFF

    @property
    def key_down(self) -> bool:
        return bool(self.data & 0x8000_0000)

    @property
    def key_code(self) -> int:
        return self.data & 0xFF
