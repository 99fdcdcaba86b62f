"""Tests for the activity-log check's lint findings: the conditions
that replay determinism needs and that ``lint --session`` reports."""

import pytest

from repro.palmos.database import RecordImage
from repro.resilience import TraceFormatError, salvage_file, salvage_log
from repro.tracelog.log import ActivityLog
from repro.tracelog.records import LogEventType, LogRecord


def _rec(etype, tick, data=0x1234, rtc=None):
    return LogRecord(etype, tick, rtc if rtc is not None else 1000 + tick,
                     data)


def check_log(log: ActivityLog):
    return salvage_log(log).report


def check_archive(path):
    return salvage_file(path).report


def _well_formed() -> ActivityLog:
    return ActivityLog(records=[
        _rec(LogEventType.RANDOM, 5, data=0xDEADBEEF),
        _rec(LogEventType.KEY, 100, data=0x8000_0001),
        _rec(LogEventType.PEN, 150),
        _rec(LogEventType.KEYSTATE, 180, data=0x0002),
        _rec(LogEventType.PEN, 200),
    ])


class TestLintLog:
    def test_accepts_well_formed_log(self):
        report = check_log(_well_formed())
        assert report.ok
        assert not report.warnings

    def test_rejects_non_monotonic_tick(self):
        log = _well_formed()
        log.append(_rec(LogEventType.PEN, 120))          # runs backwards
        report = check_log(log)
        assert not report.ok
        bad = [f for f in report if f.code == "non-monotonic-tick"]
        assert len(bad) == 1
        assert bad[0].address == 5                       # the record index

    def test_reset_restarts_the_tick_epoch(self):
        log = _well_formed()
        log.append(_rec(LogEventType.RESET, 300, data=0))
        log.append(_rec(LogEventType.RANDOM, 4, data=0xCAFE))  # new epoch
        log.append(_rec(LogEventType.KEY, 50, data=1))
        report = check_log(log)
        assert report.ok, report.format()
        assert not report.has("non-monotonic-tick")

    def test_seed_underrun_across_epochs(self):
        # Two epochs (one reset) but only one recorded seed: the second
        # boot's SysRandom call will drain the queue.
        log = ActivityLog(records=[
            _rec(LogEventType.RANDOM, 5, data=0xDEADBEEF),
            _rec(LogEventType.RESET, 100, data=0),
            _rec(LogEventType.KEY, 50, data=1),
        ])
        report = check_log(log)
        assert not report.ok
        assert report.has("seed-underrun")

    def test_duplicate_record_warns(self):
        log = _well_formed()
        log.append(log.records[-1])                      # exact duplicate PEN
        report = check_log(log)
        assert report.ok                                 # warning, not error
        assert report.has("duplicate-record")

    def test_zero_seed_warns(self):
        log = _well_formed()
        log.append(_rec(LogEventType.RANDOM, 250, data=0))
        report = check_log(log)
        assert report.has("zero-seed")
        assert report.ok

    def test_non_monotonic_rtc_warns(self):
        log = _well_formed()
        log.append(_rec(LogEventType.PEN, 260, rtc=1))   # rtc runs backwards
        report = check_log(log)
        assert report.has("non-monotonic-rtc")
        assert report.ok


class TestLintArchive:
    def test_lints_saved_log(self, tmp_path):
        path = tmp_path / "activity_log.pdb"
        _well_formed().save(path)
        assert check_archive(tmp_path).ok
        assert check_archive(path).ok                    # file path works too

    def test_missing_log(self, tmp_path):
        with pytest.raises(TraceFormatError) as info:
            salvage_file(tmp_path)
        report = info.value.report
        assert not report.ok
        assert report.has("unreadable-pdb")

    def test_corrupt_record_reported_and_rest_linted(self, tmp_path):
        good = _well_formed()
        image = good.to_database_image()
        # Cut the 16-byte KEY record to 13 bytes: long enough for a
        # header, too short for its data word, so it cannot decode.
        image.records[1] = RecordImage(0, 2, image.records[1].data[:13])
        (tmp_path / "activity_log.pdb").write_bytes(image.to_pdb_bytes())
        result = salvage_file(tmp_path)
        assert not result.report.ok
        corrupt = [f for f in result.report if f.code == "corrupt-record"]
        assert corrupt and corrupt[0].address == 1
        assert result.kept == 4                          # the rest was linted

    def test_corrupted_tick_order_rejected(self, tmp_path):
        """The acceptance scenario: take a good log, swap two records so
        ticks run backwards, and the linter must reject the archive."""
        log = _well_formed()
        log.records[1], log.records[3] = log.records[3], log.records[1]
        log.save(tmp_path / "activity_log.pdb")
        report = check_archive(tmp_path)
        assert not report.ok
        assert report.has("non-monotonic-tick")
