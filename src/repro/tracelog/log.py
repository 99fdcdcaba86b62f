"""The activity log as a host-side object.

On the device the activity log is an ordinary record database (the
hacks insert one record per input).  This module reads it out of a
:class:`~repro.palmos.database.DatabaseImage` — i.e. off the HotSync
transfer — and round-trips it to disk in the PDB file format, exactly
the artifact the paper moves from the handheld to the desktop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, List

from ..palmos.database import DatabaseImage, RecordImage
from .records import LogEventType, LogRecord, TraceFormatError

#: Name of the common database the five hacks insert into.
LOG_DB_NAME = "UserInputLog"
LOG_DB_TYPE = "actl"
LOG_DB_CREATOR = "trac"

#: Palm OS databases max out at 65,536 records - the limit the paper
#: notes sessions must stay under.
MAX_LOG_RECORDS = 65_536


@dataclass
class ActivityLog:
    """A decoded activity log: the paper's δ, the input sequence."""

    records: List[LogRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.records)

    def append(self, record: LogRecord) -> None:
        self.records.append(record)

    # -- statistics -------------------------------------------------------
    @property
    def first_tick(self) -> int:
        return self.records[0].tick if self.records else 0

    @property
    def last_tick(self) -> int:
        return self.records[-1].tick if self.records else 0

    def elapsed_ticks(self) -> int:
        return self.last_tick - self.first_tick if self.records else 0

    def storage_bytes(self) -> int:
        """On-device footprint of the raw records."""
        return sum(rec.size for rec in self.records)

    # -- database round trip ------------------------------------------------
    @classmethod
    def from_database_image(cls, image: DatabaseImage) -> "ActivityLog":
        return cls(records=[LogRecord.decode(rec.data)
                            for rec in image.records])

    def to_database_image(self) -> DatabaseImage:
        return DatabaseImage(
            name=LOG_DB_NAME, type=LOG_DB_TYPE, creator=LOG_DB_CREATOR,
            records=[RecordImage(0, i + 1, rec.encode())
                     for i, rec in enumerate(self.records)],
        )

    # -- file round trip (what gets moved to the desktop) ---------------------
    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.to_database_image().to_pdb_bytes())

    @classmethod
    def load(cls, path: str | Path) -> "ActivityLog":
        """Read a log written by :meth:`save`; bytes that do not spell
        one raise :class:`TraceFormatError`."""
        try:
            image = DatabaseImage.from_pdb_bytes(Path(path).read_bytes())
        except ValueError as exc:
            raise TraceFormatError(f"{path}: {exc}") from None
        return cls.from_database_image(image)

    # -- filtering ------------------------------------------------------------
    def of_type(self, *types: LogEventType) -> List[LogRecord]:
        wanted = set(types)
        return [rec for rec in self.records if rec.type in wanted]


def read_activity_log(kernel, db_name: str = LOG_DB_NAME) -> ActivityLog:
    """Fetch the activity log from a device (host-side, untraced)."""
    db = kernel.dm_host.find(db_name)
    if not db:
        return ActivityLog()
    return ActivityLog.from_database_image(kernel.dm_host.export_database(db))


def create_log_database(kernel, db_name: str = LOG_DB_NAME) -> int:
    """Create the (empty) common database the hacks log into —
    the preparation step from §3.1."""
    existing = kernel.dm_host.find(db_name)
    if existing:
        kernel.dm_host.delete(db_name)
    return kernel.dm_host.create(db_name, LOG_DB_TYPE, LOG_DB_CREATOR)
