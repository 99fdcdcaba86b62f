"""The data manager: Palm OS record databases in guest RAM.

On Palm OS, *everything* persistent is a record database: user data,
preferences, and (as resource databases) applications themselves.  A
database is a header chunk (classic 78-byte PDB header) plus a singly
linked list of record chunks in the storage heap.  The list walk per
record operation is deliberate: it reproduces the linear cost growth
with record count the paper measures for the logging hacks (Figure 3).

Host-side transfer (HotSync / ROMTransfer) round-trips through
:class:`DatabaseImage`, which also serialises to the on-disk PDB file
format.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from . import layout as L
from .access import GuestAccess
from .heap import Heap
from .traps import (
    ERR_DM_DATABASE_EXISTS,
    ERR_DM_INDEX_OUT_OF_RANGE,
    ERR_DM_NOT_FOUND,
    ERR_MEM_NOT_ENOUGH,
)


class DmError(Exception):
    def __init__(self, code: int):
        super().__init__(f"data manager error {code:#06x}")
        self.code = code


def fourcc(text: str) -> int:
    """Pack a four-character code like ``'data'`` into a u32."""
    raw = text.encode("latin-1").ljust(4, b"\x00")[:4]
    return struct.unpack(">I", raw)[0]


def fourcc_str(value: int) -> str:
    return struct.pack(">I", value).decode("latin-1").rstrip("\x00")


def _pack_name(name: str) -> bytes:
    raw = name.encode("latin-1")[:31]
    return raw.ljust(32, b"\x00")


@dataclass
class RecordImage:
    attr: int
    uid: int
    data: bytes


@dataclass
class DatabaseImage:
    """Host-side snapshot of one database (what HotSync transfers)."""

    name: str
    type: str = "DATA"
    creator: str = "repr"
    attributes: int = 0
    version: int = 0
    creation_date: int = 0
    modification_date: int = 0
    last_backup_date: int = 0
    modification_number: int = 0
    unique_id_seed: int = 0
    records: List[RecordImage] = field(default_factory=list)

    # -- PDB file format ------------------------------------------------
    def to_pdb_bytes(self) -> bytes:
        """Serialise in the classic PDB file layout."""
        header = struct.pack(
            ">32sHHIIIIII4s4sIIH",
            _pack_name(self.name),
            self.attributes,
            self.version,
            self.creation_date,
            self.modification_date,
            self.last_backup_date,
            self.modification_number,
            0,  # appInfoID
            0,  # sortInfoID
            self.type.encode("latin-1").ljust(4, b"\x00")[:4],
            self.creator.encode("latin-1").ljust(4, b"\x00")[:4],
            self.unique_id_seed,
            0,  # nextRecordListID
            len(self.records),
        )
        index = bytearray()
        offset = len(header) + 8 * len(self.records)
        for rec in self.records:
            index += struct.pack(">IB3s", offset, rec.attr,
                                 rec.uid.to_bytes(3, "big"))
            offset += len(rec.data)
        body = b"".join(rec.data for rec in self.records)
        return header + bytes(index) + body

    @classmethod
    def from_pdb_bytes(cls, blob: bytes) -> "DatabaseImage":
        """Parse the classic PDB layout; bytes too short for the header
        or the record index they declare raise ``ValueError``."""
        if len(blob) < 78:
            raise ValueError(f"PDB header truncated: {len(blob)} of 78 bytes")
        (raw_name, attributes, version, cdate, mdate, bdate, modnum,
         _appinfo, _sortinfo, type_raw, creator_raw, seed, _nextlist,
         nrecords) = struct.unpack(">32sHHIIIIII4s4sIIH", blob[:78])
        if len(blob) < 78 + 8 * nrecords:
            raise ValueError(f"PDB record index truncated: {nrecords} "
                             f"records in {len(blob)} bytes")
        records: List[RecordImage] = []
        offsets: List[Tuple[int, int, int]] = []
        pos = 78
        for _ in range(nrecords):
            off, attr, uid_raw = struct.unpack(">IB3s", blob[pos:pos + 8])
            offsets.append((off, attr, int.from_bytes(uid_raw, "big")))
            pos += 8
        for i, (off, attr, uid) in enumerate(offsets):
            end = offsets[i + 1][0] if i + 1 < len(offsets) else len(blob)
            records.append(RecordImage(attr, uid, blob[off:end]))
        return cls(
            name=raw_name.split(b"\x00", 1)[0].decode("latin-1"),
            type=type_raw.decode("latin-1").rstrip("\x00"),
            creator=creator_raw.decode("latin-1").rstrip("\x00"),
            attributes=attributes,
            version=version,
            creation_date=cdate,
            modification_date=mdate,
            last_backup_date=bdate,
            modification_number=modnum,
            unique_id_seed=seed,
            records=records,
        )


class DatabaseManager:
    """Operations on the guest-resident database list.

    ``now_fn`` supplies the current time in Palm-epoch seconds (used for
    the creation/modification date stamps whose benign divergence the
    paper's final-state validation observes).
    """

    def __init__(self, access: GuestAccess, heap: Heap,
                 now_fn: Callable[[], int]):
        self.access = access
        self.heap = heap
        self.now_fn = now_fn

    def with_access(self, access: GuestAccess) -> "DatabaseManager":
        return DatabaseManager(access, self.heap.with_access(access),
                               self.now_fn)

    # ------------------------------------------------------------------
    # Database list
    # ------------------------------------------------------------------
    def list_databases(self) -> List[int]:
        result: List[int] = []
        addr = self.access.read32(L.DB_LIST_HEAD)
        while addr:
            result.append(addr)
            addr = self.access.read32(addr + L.DB_NEXT)
        return result

    def find(self, name: str) -> int:
        """Walk the list comparing names; 0 when absent."""
        a = self.access
        target = _pack_name(name)
        addr = a.read32(L.DB_LIST_HEAD)
        while addr:
            if a.read_bytes(addr + L.DB_PDB + L.PDB_NAME, 32) == target:
                return addr
            addr = a.read32(addr + L.DB_NEXT)
        return 0

    def create(self, name: str, type_code: str = "DATA",
               creator: str = "repr", attributes: int = 0,
               stamp_dates: bool = True) -> int:
        """Create an empty database; returns its guest address."""
        if self.find(name):
            raise DmError(ERR_DM_DATABASE_EXISTS)
        addr = self.heap.alloc(L.DB_HEADER_PAYLOAD, L.OWNER_DATABASE)
        if not addr:
            raise DmError(ERR_MEM_NOT_ENOUGH)
        a = self.access
        a.write32(addr + L.DB_NEXT, 0)
        a.write32(addr + L.DB_FIRST_RECORD, 0)
        a.write16(addr + L.DB_OPEN_COUNT, 0)
        a.write16(addr + L.DB_OPEN_COUNT + 2, 0)
        pdb = addr + L.DB_PDB
        a.write_bytes(pdb + L.PDB_NAME, _pack_name(name))
        a.write16(pdb + L.PDB_ATTRIBUTES, attributes)
        a.write16(pdb + L.PDB_VERSION, 0)
        now = self.now_fn() if stamp_dates else 0
        a.write32(pdb + L.PDB_CREATION_DATE, now)
        a.write32(pdb + L.PDB_MODIFICATION_DATE, now)
        a.write32(pdb + L.PDB_LAST_BACKUP_DATE, 0)
        a.write32(pdb + L.PDB_MODIFICATION_NUMBER, 0)
        a.write32(pdb + L.PDB_APP_INFO_ID, 0)
        a.write32(pdb + L.PDB_SORT_INFO_ID, 0)
        a.write32(pdb + L.PDB_TYPE, fourcc(type_code))
        a.write32(pdb + L.PDB_CREATOR, fourcc(creator))
        a.write32(pdb + L.PDB_UNIQUE_ID_SEED, 0)
        a.write32(pdb + L.PDB_NEXT_RECORD_LIST, 0)
        a.write16(pdb + L.PDB_NUM_RECORDS, 0)
        self._append_to_list(addr)
        return addr

    def _append_to_list(self, db: int) -> None:
        a = self.access
        head = a.read32(L.DB_LIST_HEAD)
        if not head:
            a.write32(L.DB_LIST_HEAD, db)
            return
        addr = head
        while True:
            nxt = a.read32(addr + L.DB_NEXT)
            if not nxt:
                break
            addr = nxt
        a.write32(addr + L.DB_NEXT, db)

    def delete(self, name: str) -> None:
        a = self.access
        db = self.find(name)
        if not db:
            raise DmError(ERR_DM_NOT_FOUND)
        # Free every record chunk.
        rec = a.read32(db + L.DB_FIRST_RECORD)
        while rec:
            nxt = a.read32(rec + L.REC_NEXT)
            self.heap.free(rec)
            rec = nxt
        # Unlink from the list.
        prev_field = L.DB_LIST_HEAD
        addr = a.read32(prev_field)
        while addr != db:
            prev_field = addr + L.DB_NEXT
            addr = a.read32(prev_field)
        a.write32(prev_field, a.read32(db + L.DB_NEXT))
        self.heap.free(db)

    # ------------------------------------------------------------------
    # Header accessors
    # ------------------------------------------------------------------
    def num_records(self, db: int) -> int:
        return self.access.read16(db + L.DB_PDB + L.PDB_NUM_RECORDS)

    def name_of(self, db: int) -> str:
        raw = self.access.read_bytes(db + L.DB_PDB + L.PDB_NAME, 32)
        return raw.split(b"\x00", 1)[0].decode("latin-1")

    def attributes(self, db: int) -> int:
        return self.access.read16(db + L.DB_PDB + L.PDB_ATTRIBUTES)

    def set_attributes(self, db: int, attrs: int) -> None:
        self.access.write16(db + L.DB_PDB + L.PDB_ATTRIBUTES, attrs)

    def touch(self, db: int) -> None:
        """Stamp a modification: date = now, modification number += 1."""
        pdb = db + L.DB_PDB
        self.access.write32(pdb + L.PDB_MODIFICATION_DATE, self.now_fn())
        n = self.access.read32(pdb + L.PDB_MODIFICATION_NUMBER)
        self.access.write32(pdb + L.PDB_MODIFICATION_NUMBER, n + 1)

    def open_db(self, db: int) -> None:
        count = self.access.read16(db + L.DB_OPEN_COUNT)
        self.access.write16(db + L.DB_OPEN_COUNT, count + 1)

    def close_db(self, db: int) -> None:
        count = self.access.read16(db + L.DB_OPEN_COUNT)
        if count:
            self.access.write16(db + L.DB_OPEN_COUNT, count - 1)

    # ------------------------------------------------------------------
    # Record list
    # ------------------------------------------------------------------
    def walk_to(self, db: int, index: int) -> int:
        """Address of the pointer *field* to the record at ``index``.

        Walking ``index`` hops from the header's first-record field —
        the linear scan whose cost the logging-hack overhead study
        measures.  ``DM_MAX_RECORD_INDEX`` means "the end" (append).
        """
        a = self.access
        count = self.num_records(db)
        if index == L.DM_MAX_RECORD_INDEX:
            index = count
        if index > count:
            raise DmError(ERR_DM_INDEX_OUT_OF_RANGE)
        field_addr = db + L.DB_FIRST_RECORD
        for _ in range(index):
            field_addr = a.read32(field_addr)  # node addr; next field at +0
        return field_addr

    def new_record(self, db: int, index: int, size: int) -> int:
        """Allocate and splice a record; returns its data address."""
        a = self.access
        field_addr = self.walk_to(db, index)
        rec = self.heap.alloc(L.REC_OVERHEAD + size, L.OWNER_DATABASE)
        if not rec:
            raise DmError(ERR_MEM_NOT_ENOUGH)
        pdb = db + L.DB_PDB
        uid = a.read32(pdb + L.PDB_UNIQUE_ID_SEED) + 1
        a.write32(pdb + L.PDB_UNIQUE_ID_SEED, uid)
        a.write32(rec + L.REC_NEXT, a.read32(field_addr))
        a.write32(rec + L.REC_ATTR_UID, uid & 0x00FFFFFF)
        a.write32(rec + L.REC_LEN, size)
        a.write32(field_addr, rec)
        a.write16(pdb + L.PDB_NUM_RECORDS, self.num_records(db) + 1)
        self.touch(db)
        return rec + L.REC_DATA

    def get_record(self, db: int, index: int) -> tuple[int, int]:
        """(data address, length) of the record at ``index``."""
        if index >= self.num_records(db):
            raise DmError(ERR_DM_INDEX_OUT_OF_RANGE)
        rec = self.access.read32(self.walk_to(db, index))
        return rec + L.REC_DATA, self.access.read32(rec + L.REC_LEN)

    def remove_record(self, db: int, index: int) -> None:
        a = self.access
        if index >= self.num_records(db):
            raise DmError(ERR_DM_INDEX_OUT_OF_RANGE)
        field_addr = self.walk_to(db, index)
        rec = a.read32(field_addr)
        a.write32(field_addr, a.read32(rec + L.REC_NEXT))
        self.heap.free(rec)
        pdb = db + L.DB_PDB
        a.write16(pdb + L.PDB_NUM_RECORDS, self.num_records(db) - 1)
        self.touch(db)

    def write_record(self, db: int, index: int, offset: int,
                     data: bytes) -> None:
        addr, length = self.get_record(db, index)
        if offset + len(data) > length:
            raise DmError(ERR_DM_INDEX_OUT_OF_RANGE)
        self.access.write_bytes(addr + offset, data)
        self.touch(db)

    def read_record(self, db: int, index: int) -> bytes:
        addr, length = self.get_record(db, index)
        return self.access.read_bytes(addr, length)

    def bulk_append(self, db: int, payloads: List[bytes]) -> None:
        """Append many records in O(1) each by tracking the tail.

        Host-side state construction only (pre-filling databases for
        experiments); guest operations always pay the list walk.
        """
        a = self.access
        # Find the current tail.
        field_addr = db + L.DB_FIRST_RECORD
        nxt = a.read32(field_addr)
        while nxt:
            field_addr = nxt + L.REC_NEXT
            nxt = a.read32(field_addr)
        pdb = db + L.DB_PDB
        uid = a.read32(pdb + L.PDB_UNIQUE_ID_SEED)
        for data in payloads:
            rec = self.heap.alloc(L.REC_OVERHEAD + len(data),
                                  L.OWNER_DATABASE)
            if not rec:
                raise DmError(ERR_MEM_NOT_ENOUGH)
            uid += 1
            a.write32(rec + L.REC_NEXT, 0)
            a.write32(rec + L.REC_ATTR_UID, uid & 0x00FFFFFF)
            a.write32(rec + L.REC_LEN, len(data))
            a.write_bytes(rec + L.REC_DATA, data)
            a.write32(field_addr, rec)
            field_addr = rec + L.REC_NEXT
        a.write32(pdb + L.PDB_UNIQUE_ID_SEED, uid)
        count = self.num_records(db) + len(payloads)
        a.write16(pdb + L.PDB_NUM_RECORDS, count)
        self.touch(db)

    def record_info(self, db: int, index: int) -> tuple[int, int, int]:
        """(attr, uid, size) of the record at ``index``."""
        if index >= self.num_records(db):
            raise DmError(ERR_DM_INDEX_OUT_OF_RANGE)
        rec = self.access.read32(self.walk_to(db, index))
        attr_uid = self.access.read32(rec + L.REC_ATTR_UID)
        return attr_uid >> 24, attr_uid & 0x00FFFFFF, self.access.read32(rec + L.REC_LEN)

    def set_record_info(self, db: int, index: int, attr: int, uid: int) -> None:
        rec = self.access.read32(self.walk_to(db, index))
        self.access.write32(rec + L.REC_ATTR_UID,
                            ((attr & 0xFF) << 24) | (uid & 0x00FFFFFF))

    # ------------------------------------------------------------------
    # HotSync transfer
    # ------------------------------------------------------------------
    def set_backup_bits_all(self) -> None:
        """The paper's preparation step before the initial HotSync."""
        for db in self.list_databases():
            self.set_attributes(db, self.attributes(db) | L.DM_ATTR_BACKUP)

    def export_database(self, db: int) -> DatabaseImage:
        a = self.access
        pdb = db + L.DB_PDB
        image = DatabaseImage(
            name=self.name_of(db),
            type=fourcc_str(a.read32(pdb + L.PDB_TYPE)),
            creator=fourcc_str(a.read32(pdb + L.PDB_CREATOR)),
            attributes=a.read16(pdb + L.PDB_ATTRIBUTES),
            version=a.read16(pdb + L.PDB_VERSION),
            creation_date=a.read32(pdb + L.PDB_CREATION_DATE),
            modification_date=a.read32(pdb + L.PDB_MODIFICATION_DATE),
            last_backup_date=a.read32(pdb + L.PDB_LAST_BACKUP_DATE),
            modification_number=a.read32(pdb + L.PDB_MODIFICATION_NUMBER),
            unique_id_seed=a.read32(pdb + L.PDB_UNIQUE_ID_SEED),
        )
        rec = a.read32(db + L.DB_FIRST_RECORD)
        while rec:
            attr_uid = a.read32(rec + L.REC_ATTR_UID)
            length = a.read32(rec + L.REC_LEN)
            image.records.append(RecordImage(
                attr=attr_uid >> 24,
                uid=attr_uid & 0x00FFFFFF,
                data=a.read_bytes(rec + L.REC_DATA, length),
            ))
            rec = a.read32(rec + L.REC_NEXT)
        return image

    def import_database(self, image: DatabaseImage,
                        imported: bool = True) -> int:
        """Install a host image into the guest.

        With ``imported=True`` (how the emulator loads the initial
        state) the creation/backup/modification dates are left at zero —
        reproducing exactly the benign field differences §3.4 of the
        paper attributes to the import/export procedure.
        """
        existing = self.find(image.name)
        if existing:
            self.delete(image.name)
        db = self.create(image.name, image.type, image.creator,
                         image.attributes, stamp_dates=False)
        a = self.access
        pdb = db + L.DB_PDB
        a.write16(pdb + L.PDB_VERSION, image.version)
        if not imported:
            a.write32(pdb + L.PDB_CREATION_DATE, image.creation_date)
            a.write32(pdb + L.PDB_MODIFICATION_DATE, image.modification_date)
            a.write32(pdb + L.PDB_LAST_BACKUP_DATE, image.last_backup_date)
        a.write32(pdb + L.PDB_MODIFICATION_NUMBER, image.modification_number)
        # Append records in order (walk_to cost is fine host-side).
        field_addr = db + L.DB_FIRST_RECORD
        for rec_img in image.records:
            rec = self.heap.alloc(L.REC_OVERHEAD + len(rec_img.data),
                                  L.OWNER_DATABASE)
            if not rec:
                raise DmError(ERR_MEM_NOT_ENOUGH)
            a.write32(rec + L.REC_NEXT, 0)
            a.write32(rec + L.REC_ATTR_UID,
                      ((rec_img.attr & 0xFF) << 24) | (rec_img.uid & 0x00FFFFFF))
            a.write32(rec + L.REC_LEN, len(rec_img.data))
            a.write_bytes(rec + L.REC_DATA, rec_img.data)
            a.write32(field_addr, rec)
            field_addr = rec + L.REC_NEXT
        a.write16(pdb + L.PDB_NUM_RECORDS, len(image.records))
        a.write32(pdb + L.PDB_UNIQUE_ID_SEED, image.unique_id_seed)
        return db

    def export_all(self, backup_only: bool = False) -> List[DatabaseImage]:
        images: List[DatabaseImage] = []
        for db in self.list_databases():
            if backup_only and not self.attributes(db) & L.DM_ATTR_BACKUP:
                continue
            images.append(self.export_database(db))
        return images
