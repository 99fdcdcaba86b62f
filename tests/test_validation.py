"""Tests for the §3 validation framework, including the end-to-end
three-workload validation mirroring the paper's test setup."""

import pytest

from repro import (
    JitterModel,
    correlate_final_states,
    correlate_logs,
    replay_session,
    standard_apps,
)
from repro.device import Button
from repro.palmos.database import DatabaseImage, RecordImage
from repro.tracelog import ActivityLog, LogEventType, LogRecord, read_activity_log
from repro.resilience import DivergenceWatchdog
from repro.validation import BURST_TICK_BOUND
from repro.workloads import UserScript, collect_session, preload_contacts

EMU_KW = {"ram_size": 8 << 20, "flash_size": 1 << 20}


def _log(*records):
    return ActivityLog(records=list(records))


class TestLogCorrelationUnit:
    def test_identical_logs_valid(self):
        log = _log(LogRecord(LogEventType.PEN, 10, 0, 0x8000_1010),
                   LogRecord(LogEventType.KEY, 20, 0, 2))
        corr = correlate_logs(log, log)
        assert corr.valid
        assert corr.exact_matches == 2
        assert corr.max_tick_delta == 0

    def test_burst_delay_within_bound_still_valid(self):
        original = _log(LogRecord(LogEventType.PEN, 10, 0, 1))
        replayed = _log(LogRecord(LogEventType.PEN, 24, 0, 1))
        corr = correlate_logs(original, replayed)
        assert corr.valid
        assert corr.exact_matches == 0
        assert corr.max_tick_delta == 14

    def test_slip_beyond_bound_invalid(self):
        original = _log(LogRecord(LogEventType.PEN, 10, 0, 1))
        replayed = _log(LogRecord(LogEventType.PEN, 10 + BURST_TICK_BOUND, 0, 1))
        assert not correlate_logs(original, replayed).valid

    def test_payload_mismatch_invalid(self):
        original = _log(LogRecord(LogEventType.PEN, 10, 0, 1))
        replayed = _log(LogRecord(LogEventType.PEN, 10, 0, 2))
        corr = correlate_logs(original, replayed)
        assert not corr.valid
        assert corr.payload_matches == 0

    def test_missing_record_invalid(self):
        original = _log(LogRecord(LogEventType.PEN, 10, 0, 1),
                        LogRecord(LogEventType.PEN, 12, 0, 2))
        replayed = _log(LogRecord(LogEventType.PEN, 10, 0, 1))
        assert not correlate_logs(original, replayed).valid

    def test_summary_renders(self):
        log = _log(LogRecord(LogEventType.KEY, 5, 0, 2))
        text = correlate_logs(log, log).summary()
        assert "VALID" in text and "KEY" in text


def _records(*specs):
    return _log(*(LogRecord(etype, tick, 0, data)
                  for etype, tick, data in specs))


_PEN, _KEY, _KEYSTATE = LogEventType.PEN, LogEventType.KEY, LogEventType.KEYSTATE

#: ``(name, original, replayed, by_type, kinds)``: ``by_type`` maps each
#: stream to ``(original, replayed, payload matches, exact matches, max
#: slip)`` as the separate correlation loop computed them, and ``kinds``
#: lists the divergences of the final check.
COMPARATOR_TABLE = [
    ("identical",
     _records((_PEN, 10, 1), (_KEY, 20, 2), (_KEYSTATE, 30, 3)),
     _records((_PEN, 10, 1), (_KEY, 20, 2), (_KEYSTATE, 30, 3)),
     {_KEY: (1, 1, 1, 1, 0), _PEN: (1, 1, 1, 1, 0),
      _KEYSTATE: (1, 1, 1, 1, 0)}, []),
    ("slip-16",
     _records((_PEN, 10, 1), (_PEN, 30, 2)),
     _records((_PEN, 26, 1), (_PEN, 30, 2)),
     {_PEN: (2, 2, 2, 1, 16)}, []),
    ("slip-20",
     _records((_PEN, 10, 1), (_KEY, 12, 2)),
     _records((_PEN, 30, 1), (_KEY, 12, 2)),
     {_KEY: (1, 1, 1, 1, 0), _PEN: (1, 1, 1, 0, 20)}, ["tick-skew"]),
    ("payload-mismatch",
     _records((_PEN, 10, 1), (_KEY, 20, 2)),
     _records((_PEN, 10, 9), (_KEY, 20, 2)),
     {_KEY: (1, 1, 1, 1, 0), _PEN: (1, 1, 0, 0, 0)}, ["payload-mismatch"]),
    ("extra-record",
     _records((_PEN, 10, 1)),
     _records((_PEN, 10, 1), (_PEN, 15, 9)),
     {_PEN: (1, 2, 1, 1, 0)}, ["extra-event"]),
    ("missing-record",
     _records((_PEN, 10, 1), (_PEN, 12, 2)),
     _records((_PEN, 10, 1)),
     {_PEN: (2, 1, 1, 1, 0)}, ["missing-event"]),
    ("unknown-type",
     _records((_PEN, 10, 1), (0x7F7F, 20, 0)),
     _records((_PEN, 10, 1)),
     {_PEN: (1, 1, 1, 1, 0), 0x7F7F: (1, 0, 0, 0, 0)}, ["missing-event"]),
]
_ROWS = {row[0]: row for row in COMPARATOR_TABLE}


class TestOneComparator:
    """``correlate_logs`` and the replay watchdog are one aligner: the
    §3.3 verdict is "the final check finds no divergence"."""

    @pytest.mark.parametrize("name,original,replayed,by_type,kinds",
                             COMPARATOR_TABLE,
                             ids=[row[0] for row in COMPARATOR_TABLE])
    def test_verdict_and_statistics(self, name, original, replayed,
                                    by_type, kinds):
        corr = correlate_logs(original, replayed)
        fresh = DivergenceWatchdog(original).check(replayed, final=True)
        assert corr.valid == (not fresh)
        assert [d.kind.value for d in fresh] == kinds
        # Mid-run, records the replay has not produced yet are pending.
        mid_run = DivergenceWatchdog(original).check(replayed)
        assert [d.kind.value for d in mid_run] == [
            kind for kind in kinds if kind != "missing-event"]
        assert {etype: (t.original, t.replayed, t.payload_matches,
                        t.exact_matches, t.max_tick_delta)
                for etype, t in corr.by_type.items()} == by_type
        assert corr.summary().count("\n") == 4 + len(by_type)

    def test_summary_names_an_unknown_type_word(self):
        _, original, replayed, _, _ = _ROWS["unknown-type"]
        assert "    0x7f7f         1 vs 0      payload 0, exact 0, " \
            "max slip 0" in correlate_logs(original, replayed).summary()


class TestStateCorrelationUnit:
    def _db(self, name="DB", **kwargs):
        defaults = dict(creation_date=100, modification_date=200,
                        last_backup_date=50,
                        records=[RecordImage(0, 1, b"abc")])
        defaults.update(kwargs)
        return DatabaseImage(name=name, **defaults)

    def test_identical_states_valid(self):
        state = [self._db()]
        corr = correlate_final_states(state, state)
        assert corr.valid and not corr.diffs

    def test_date_diffs_are_expected(self):
        device = [self._db()]
        emulated = [self._db(creation_date=0, last_backup_date=0,
                             modification_date=0)]
        corr = correlate_final_states(device, emulated)
        assert corr.valid
        assert len(corr.expected_diffs) == 3

    def test_record_diff_is_unexpected(self):
        device = [self._db()]
        emulated = [self._db(records=[RecordImage(0, 1, b"xyz")])]
        corr = correlate_final_states(device, emulated)
        assert not corr.valid
        assert corr.unexpected_diffs[0].field == "record[0].data"

    def test_psyslaunchdb_record_diff_is_expected(self):
        device = [self._db(name="psysLaunchDB")]
        emulated = [self._db(name="psysLaunchDB",
                             records=[RecordImage(0, 1, b"xyz")])]
        assert correlate_final_states(device, emulated).valid

    def test_missing_database_invalid(self):
        corr = correlate_final_states([self._db()], [])
        assert not corr.valid
        assert corr.missing_databases == ["DB"]


# ----------------------------------------------------------------------
# End-to-end: the paper's three test workloads (§3.1-3.2), chained so
# each starts from the previous one's final state like the paper's.
# ----------------------------------------------------------------------
def _workload_scripts():
    w1 = (UserScript("w1").at(60)
          .press(Button.MEMO).wait(30)
          .tap(40, 120).wait(40).tap(90, 130).wait(30)
          .press(Button.UP).wait(40))
    w2 = (UserScript("w2").at(60)
          .press(Button.ADDRESS).wait(30)
          .press(Button.DOWN).wait(20).press(Button.DOWN).wait(20)
          .tap(30, 50).wait(40)
          .press(Button.MEMO).wait(30).press(Button.DOWN).wait(30))
    w3 = (UserScript("w3-puzzle").at(60)
          .press(Button.DATEBOOK).wait(40)
          .tap(50, 10).wait(25).tap(90, 50).wait(25)
          .tap(130, 90).wait(25).tap(10, 10).wait(25)
          .press(Button.UP).wait(40).tap(60, 60).wait(30))
    return [w1, w2, w3]


@pytest.fixture(scope="module")
def validation_runs():
    apps = standard_apps()
    runs = []
    for script in _workload_scripts():
        session = collect_session(
            apps, script, name=script.name,
            setup=lambda k: preload_contacts(k, 8),
            ram_size=EMU_KW["ram_size"])
        emulator, _, _ = replay_session(session.initial_state, session.log,
                                        apps=apps, profile=False,
                                        emulator_kwargs=EMU_KW)
        runs.append((session, emulator))
    return runs


class TestEndToEndValidation:
    def test_activity_logs_correlate(self, validation_runs):
        """§3.3 across all three workloads."""
        for session, emulator in validation_runs:
            replayed = read_activity_log(emulator.kernel)
            corr = correlate_logs(session.log, replayed)
            assert corr.valid, f"{session.name}\n{corr.summary()}"
            assert corr.exact_matches == corr.total_original  # bit exact

    def test_final_states_correlate(self, validation_runs):
        """§3.4: only the expected benign differences."""
        for session, emulator in validation_runs:
            corr = correlate_final_states(session.final_state,
                                          emulator.final_state())
            assert corr.valid, f"{session.name}\n{corr.summary()}"
            # The import artifacts actually occur (dates were zeroed).
            assert corr.expected_diffs

    def test_jittered_replay_still_validates(self):
        """With the POSE-realism jitter model the correlation shows the
        paper's artifacts (late bursts) yet still passes."""
        apps = standard_apps()
        script = _workload_scripts()[0]
        session = collect_session(apps, script, name="jitter",
                                  ram_size=EMU_KW["ram_size"])
        emulator, _, result = replay_session(
            session.initial_state, session.log, apps=apps, profile=False,
            jitter=JitterModel(seed=5, burst_probability=0.4),
            emulator_kwargs=EMU_KW)
        replayed = read_activity_log(emulator.kernel)
        corr = correlate_logs(session.log, replayed)
        assert corr.valid
        assert corr.exact_matches < corr.total_original  # bursts visible
        assert 0 < corr.max_tick_delta < BURST_TICK_BOUND
