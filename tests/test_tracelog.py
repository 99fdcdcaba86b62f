"""Tests for activity-log records, parsing, and state transfer."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.palmos.database import DatabaseImage
from repro.tracelog import (
    ActivityLog,
    InitialState,
    LogEventType,
    LogRecord,
    parse_log,
)

log_types = st.sampled_from(list(LogEventType))
records = st.builds(
    LogRecord,
    type=log_types,
    tick=st.integers(0, 0xFFFFFFFF),
    rtc=st.integers(0, 0xFFFFFFFF),
    data=st.integers(0, 0xFFFF),  # fits both record widths
)


class TestRecords:
    def test_sizes(self):
        assert LogRecord(LogEventType.PEN, 1, 2, 3).size == 16
        assert LogRecord(LogEventType.KEYSTATE, 1, 2, 3).size == 12

    def test_encode_lengths(self):
        assert len(LogRecord(LogEventType.PEN, 1, 2, 3).encode()) == 16
        assert len(LogRecord(LogEventType.KEYSTATE, 1, 2, 3).encode()) == 12

    def test_pen_accessors(self):
        rec = LogRecord(LogEventType.PEN, 0, 0, 0x8000_3C28)
        assert rec.pen_down
        assert rec.pen_x == 0x3C
        assert rec.pen_y == 0x28

    def test_key_accessors(self):
        rec = LogRecord(LogEventType.KEY, 0, 0, 0x8000_0040)
        assert rec.key_down and rec.key_code == 0x40
        rec = LogRecord(LogEventType.KEY, 0, 0, 0x40)
        assert not rec.key_down

    @settings(max_examples=100)
    @given(records)
    def test_roundtrip(self, record):
        assert LogRecord.decode(record.encode()) == record

    @given(st.builds(LogRecord, type=st.just(LogEventType.PEN),
                     tick=st.integers(0, 2**32 - 1),
                     rtc=st.integers(0, 2**32 - 1),
                     data=st.integers(0, 2**32 - 1)))
    def test_roundtrip_full_width_data(self, record):
        assert LogRecord.decode(record.encode()) == record


class TestActivityLog:
    def _sample(self):
        return ActivityLog(records=[
            LogRecord(LogEventType.PEN, 100, 5, 0x8000_1010),
            LogRecord(LogEventType.KEY, 110, 5, 0x8000_0002),
            LogRecord(LogEventType.KEYSTATE, 120, 5, 0x0002),
            LogRecord(LogEventType.RANDOM, 130, 5, 999),
            LogRecord(LogEventType.NOTIFY, 140, 5, 7),
            LogRecord(LogEventType.PEN, 150, 6, 0x1010),
        ])

    def test_counts_and_span(self):
        log = self._sample()
        assert len(log) == 6
        assert log.elapsed_ticks() == 50

    def test_storage_bytes(self):
        log = self._sample()
        assert log.storage_bytes() == 5 * 16 + 12

    def test_database_roundtrip(self):
        log = self._sample()
        image = log.to_database_image()
        back = ActivityLog.from_database_image(image)
        assert back.records == log.records

    def test_file_roundtrip(self, tmp_path):
        log = self._sample()
        path = tmp_path / "session.pdb"
        log.save(path)
        assert ActivityLog.load(path).records == log.records

    def test_parse_groups(self):
        """§2.4.2: the parsed log divides into synchronous events plus
        the KeyCurrentState and SysRandom queues."""
        parsed = parse_log(self._sample())
        assert [r.type for r in parsed.synchronous] == [
            LogEventType.PEN, LogEventType.KEY, LogEventType.PEN]
        assert len(parsed.keystate_queue) == 1
        assert len(parsed.random_queue) == 1
        assert len(parsed.notifications) == 1

    def test_parse_sorts_synchronous_by_tick(self):
        log = ActivityLog(records=[
            LogRecord(LogEventType.KEY, 200, 0, 1),
            LogRecord(LogEventType.PEN, 100, 0, 1),
        ])
        parsed = parse_log(log)
        assert [r.tick for r in parsed.synchronous] == [100, 200]


class TestInitialState:
    def test_capture_contains_flash_and_databases(self):
        from tests.palmos_utils import make_kernel
        kernel = make_kernel()
        kernel.dm_host.create("UserStuff")
        state = InitialState.capture(kernel)
        assert len(state.flash_image) == 1 << 20
        names = [db.name for db in state.databases]
        assert "UserStuff" in names
        assert "psysLaunchDB" in names

    def test_capture_sets_backup_bits(self):
        from tests.palmos_utils import make_kernel
        from repro.palmos import layout as L
        kernel = make_kernel()
        kernel.dm_host.create("Plain")
        InitialState.capture(kernel)
        db = kernel.dm_host.find("Plain")
        assert kernel.dm_host.attributes(db) & L.DM_ATTR_BACKUP

    def test_save_load_roundtrip(self, tmp_path):
        state = InitialState(
            flash_image=b"\x12\x34" * 100,
            databases=[DatabaseImage(name="One"), DatabaseImage(name="Two")],
            rtc_base=12345,
        )
        state.save(tmp_path / "session1")
        back = InitialState.load(tmp_path / "session1")
        assert back.flash_image == state.flash_image
        assert back.rtc_base == 12345
        assert [d.name for d in back.databases] == ["One", "Two"]
