"""Unit tests for the replay resilience subsystem: the checkpoint
ring, the divergence watchdog's taxonomy, the trace salvage
parser, and the fault-spec grammar.  Integration tests that drive a
full emulator live in ``test_resilience_replay.py``.
"""

import pytest

from repro.resilience import (
    Checkpoint,
    CheckpointManager,
    DivergenceKind,
    DivergenceReport,
    DivergenceWatchdog,
    FaultPlan,
    FaultSpecError,
    TraceFormatError,
    salvage_log,
)
from repro.resilience.checkpoint import RING_SIZE
from repro.tracelog import (
    ActivityLog,
    LogEventType,
    LogRecord,
    split_epochs,
)


def make_log(*specs) -> ActivityLog:
    """Build an ActivityLog from (type, tick[, data]) tuples."""
    log = ActivityLog()
    for spec in specs:
        etype, tick = spec[0], spec[1]
        data = spec[2] if len(spec) > 2 else 0
        log.append(LogRecord(etype, tick, tick * 10, data))
    return log


def seeded_log(*specs) -> ActivityLog:
    """``make_log`` behind one SysRandom seed, the seed a single-epoch
    log needs to pass the log check's ``seed-underrun`` rule."""
    return make_log((LogEventType.RANDOM, 0, 0x1234), *specs)


# ----------------------------------------------------------------------
# Checkpoint ring
# ----------------------------------------------------------------------
class TestCheckpointManager:
    def _cp(self, tick: int) -> Checkpoint:
        return Checkpoint(manifest={"tick": tick})

    def test_ring_trims_to_keep(self):
        assert RING_SIZE == 4
        mgr = CheckpointManager()
        for tick in (100, 200, 300, 400, 500, 600):
            mgr.add(self._cp(tick))
        assert mgr.ticks == [300, 400, 500, 600]
        assert mgr.latest().tick == 600
        assert mgr.earliest().tick == 300

    def test_before_and_discard(self):
        mgr = CheckpointManager()
        for tick in (100, 200, 300):
            mgr.add(self._cp(tick))
        assert mgr.before(250).tick == 200
        assert mgr.before(100) is None
        assert mgr.discard_latest().tick == 200
        assert mgr.ticks == [100, 200]

    def test_empty_ring(self):
        mgr = CheckpointManager()
        assert mgr.latest() is None
        assert mgr.earliest() is None
        assert mgr.discard_latest() is None


# ----------------------------------------------------------------------
# Divergence watchdog
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_identical_logs_are_clean(self):
        log = make_log((LogEventType.PEN, 10, 5), (LogEventType.KEY, 20, 6))
        dog = DivergenceWatchdog(log)
        assert dog.check(log, final=True) == []

    def test_payload_mismatch(self):
        original = make_log((LogEventType.PEN, 10, 0xAA))
        replayed = make_log((LogEventType.PEN, 10, 0xBB))
        dog = DivergenceWatchdog(original)
        (div,) = dog.check(replayed)
        assert div.kind is DivergenceKind.PAYLOAD_MISMATCH
        assert div.event_type == int(LogEventType.PEN)
        assert div.expected.data == 0xAA and div.actual.data == 0xBB

    def test_tick_skew_beyond_burst_bound(self):
        original = make_log((LogEventType.KEY, 100, 7))
        replayed = make_log((LogEventType.KEY, 100 + 20, 7))
        dog = DivergenceWatchdog(original)
        (div,) = dog.check(replayed)
        assert div.kind is DivergenceKind.TICK_SKEW

    def test_skew_within_burst_bound_is_tolerated(self):
        # §3.3: replay bursts may land late by up to the burst bound.
        original = make_log((LogEventType.KEY, 100, 7))
        replayed = make_log((LogEventType.KEY, 100 + 19, 7))
        dog = DivergenceWatchdog(original)
        assert dog.check(replayed, final=True) == []

    def test_missing_event_only_reported_at_final(self):
        original = make_log((LogEventType.PEN, 10, 1), (LogEventType.PEN, 20, 2))
        partial = make_log((LogEventType.PEN, 10, 1))
        dog = DivergenceWatchdog(original)
        assert dog.check(partial) == []           # mid-run: still pending
        (div,) = dog.check(partial, final=True)   # run over: truly missing
        assert div.kind is DivergenceKind.MISSING_EVENT
        assert div.expected.tick == 20 and div.actual is None

    def test_extra_event(self):
        original = make_log((LogEventType.PEN, 10, 1))
        replayed = make_log((LogEventType.PEN, 10, 1), (LogEventType.PEN, 15, 9))
        dog = DivergenceWatchdog(original)
        (div,) = dog.check(replayed)
        assert div.kind is DivergenceKind.EXTRA_EVENT
        assert div.expected is None and div.actual.data == 9

    def test_incremental_cursors_only_see_fresh_records(self):
        original = make_log((LogEventType.PEN, 10, 1), (LogEventType.PEN, 20, 2))
        bad_first = make_log((LogEventType.PEN, 10, 99))
        dog = DivergenceWatchdog(original)
        assert len(dog.check(bad_first)) == 1
        # Re-checking the same prefix reports nothing new, and the
        # statistics count each aligned record once.
        assert dog.check(bad_first) == []
        assert dog.correlation.by_type[LogEventType.PEN].replayed == 1

    def test_rewind_forgets_progress(self):
        original = make_log((LogEventType.PEN, 10, 1))
        replayed = make_log((LogEventType.PEN, 10, 42))
        dog = DivergenceWatchdog(original)
        dog.check(replayed)
        dog.rewind()
        # After a checkpoint restore the same records are re-fed.
        assert len(dog.check(replayed)) == 1

    def test_report_summary_and_format(self):
        original = make_log((LogEventType.PEN, 10, 1))
        dog = DivergenceWatchdog(original)
        report = DivergenceReport(
            divergences=dog.check(make_log((LogEventType.PEN, 10, 2))),
            last_good_tick=100, first_bad_tick=200)
        text = report.format()
        assert "payload-mismatch" in text
        assert "last good checkpoint at wall tick 100" in text
        assert report.kinds == [DivergenceKind.PAYLOAD_MISMATCH]


# ----------------------------------------------------------------------
# Trace salvage
# ----------------------------------------------------------------------
class TestSalvage:
    def test_clean_log_passes_untouched(self):
        log = seeded_log((LogEventType.PEN, 10), (LogEventType.KEY, 20))
        result = salvage_log(log)
        assert result.clean
        assert result.kept == 3 and result.dropped == 0

    def test_unknown_event_type_dropped_with_error(self):
        log = seeded_log((LogEventType.PEN, 10))
        log.append(LogRecord(0x7F7F, 15, 150, 0))  # lenient-decoded garbage
        result = salvage_log(log)
        assert result.kept == 2 and result.dropped == 1
        (finding,) = result.report.errors
        assert finding.code == "unknown-event-type"

    def test_implausible_tick_dropped(self):
        log = make_log((LogEventType.PEN, 10), (LogEventType.PEN, 1 << 40))
        result = salvage_log(log)
        assert result.dropped == 1
        assert result.report.errors[0].code == "implausible-tick"

    def test_oversized_keystate_masked(self):
        log = make_log((LogEventType.KEYSTATE, 10, 0x12340001))
        result = salvage_log(log)
        assert result.repaired == 1 and result.dropped == 0
        assert result.log.records[0].data == 0x0001
        assert result.report.warnings[0].code == "oversized-keystate"

    def test_exact_duplicate_dropped(self):
        rec = (LogEventType.PEN, 10, 5)
        result = salvage_log(make_log(rec, rec))
        assert result.kept == 1
        assert result.report.warnings[0].code == "duplicate-record"

    def test_duplicate_reset_records_survive(self):
        # Two RESETs delimit a real (empty) epoch — never deduplicated.
        result = salvage_log(make_log((LogEventType.RESET, 10),
                                      (LogEventType.RESET, 10)))
        assert result.kept == 2

    def test_reordered_burst_resorted_within_epoch(self):
        log = make_log((LogEventType.PEN, 30, 3), (LogEventType.PEN, 10, 1),
                       (LogEventType.PEN, 20, 2))
        result = salvage_log(log)
        assert [r.tick for r in result.log] == [10, 20, 30]
        assert result.repaired >= 1
        assert result.report.errors[0].code == "non-monotonic-tick"

    def test_resort_never_crosses_epoch_boundary(self):
        # Epoch 2 restarts the tick counter: its tick 5 is *not* out of
        # order relative to epoch 1's tick 50.  Each epoch's boot
        # consumes one seed.
        log = seeded_log((LogEventType.PEN, 50), (LogEventType.RESET, 60),
                         (LogEventType.RANDOM, 0, 0x5678),
                         (LogEventType.PEN, 5))
        result = salvage_log(log)
        assert result.clean
        assert [r.tick for r in result.log] == [0, 50, 60, 0, 5]


# ----------------------------------------------------------------------
# Fault-spec grammar
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_single_spec(self):
        plan = FaultPlan.parse("drop")
        assert [s.name for s in plan.specs] == ["drop"]

    def test_params_and_multiple_specs(self):
        plan = FaultPlan.parse("truncate:at=14,clock-drift:at=500;seconds=7")
        trunc, drift = plan.specs
        assert trunc.params == {"at": 14}
        assert drift.params == {"at": 500, "seconds": 7}

    def test_trace_vs_runtime_split(self):
        plan = FaultPlan.parse("drop,crash:at=100")
        assert [s.name for s in plan.trace_specs] == ["drop"]
        assert [s.name for s in plan.runtime_specs] == ["crash"]

    @pytest.mark.parametrize("bad", ["", "nosuchfault", "drop:at", "drop:;",
                                     ",,"])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(bad)

    def test_blank_segments_are_tolerated(self):
        assert [s.name for s in FaultPlan.parse("drop,,dup").specs] == \
            ["drop", "dup"]

    def _log(self, n=10):
        return make_log(*(((LogEventType.PEN, 10 * i, i) if i % 3
                           else (LogEventType.RANDOM, 10 * i, i))
                          for i in range(1, n + 1)))

    def test_corruption_is_seeded_and_reproducible(self):
        log = self._log()
        a, _ = FaultPlan.parse("bitflip:n=2;seed=7").apply_to_log(log)
        b, _ = FaultPlan.parse("bitflip:n=2;seed=7").apply_to_log(log)
        c, _ = FaultPlan.parse("bitflip:n=2;seed=8").apply_to_log(log)
        def as_tuples(lg):
            return [(int(r.type), r.tick, r.rtc, r.data) for r in lg]
        assert as_tuples(a) == as_tuples(b)
        assert as_tuples(a) != as_tuples(c)

    def test_apply_leaves_original_untouched(self):
        log = self._log()
        before = [(int(r.type), r.tick, r.data) for r in log]
        FaultPlan.parse("drop:n=3,dup,truncate:at=4").apply_to_log(log)
        assert [(int(r.type), r.tick, r.data) for r in log] == before

    def test_trace_fault_effects(self):
        log = self._log(9)
        dropped, _ = FaultPlan.parse("drop:n=2").apply_to_log(log)
        assert len(dropped) == 7
        duped, _ = FaultPlan.parse("dup:n=1").apply_to_log(log)
        assert len(duped) == 10
        cut, notes = FaultPlan.parse("truncate:at=4").apply_to_log(log)
        assert len(cut) == 4 and "kept 4/9" in notes[0]
        no_seeds, _ = FaultPlan.parse("seed-underflow:n=99").apply_to_log(log)
        assert all(r.type != LogEventType.RANDOM for r in no_seeds)
        garbled, _ = FaultPlan.parse("type-garbage").apply_to_log(log)
        assert any(not r.known_type for r in garbled)

    def test_garbled_log_is_salvageable(self):
        # The salvage parser must recover exactly the records the
        # injector garbled — the two halves of the harness agree.
        garbled, _ = FaultPlan.parse("type-garbage:n=2").apply_to_log(
            self._log(9))
        result = salvage_log(garbled)
        assert result.dropped == 2
        assert all(f.code == "unknown-event-type"
                   for f in result.report.errors)


# ----------------------------------------------------------------------
# Satellite: record decode hardening
# ----------------------------------------------------------------------
class TestRecordDecode:
    def test_short_blob_raises_typed_error(self):
        with pytest.raises(TraceFormatError):
            LogRecord.decode(b"\x00" * 4)

    def test_unknown_type_strict_vs_lenient(self):
        good = LogRecord(LogEventType.PEN, 5, 50, 0x1234).encode()
        bad = bytes([0x7F, 0x7F]) + good[2:]
        with pytest.raises(TraceFormatError):
            LogRecord.decode(bad)
        rec = LogRecord.decode(bad, strict=False)
        assert not rec.known_type and rec.type == 0x7F7F

    def test_round_trip_is_unchanged(self):
        rec = LogRecord(LogEventType.PEN, 123, 456, 0x8000_1234)
        assert LogRecord.decode(rec.encode()) == rec


# ----------------------------------------------------------------------
# Satellite: split_epochs edge cases
# ----------------------------------------------------------------------
class TestSplitEpochs:
    def test_empty_log_is_one_empty_epoch(self):
        epochs = split_epochs(ActivityLog())
        assert len(epochs) == 1 and len(epochs[0]) == 0

    def test_log_ending_exactly_on_reset_has_no_trailing_epoch(self):
        log = make_log((LogEventType.PEN, 10), (LogEventType.RESET, 20))
        epochs = split_epochs(log)
        assert len(epochs) == 1
        assert [r.type for r in epochs[0]] == [LogEventType.PEN,
                                               LogEventType.RESET]

    def test_consecutive_resets_make_an_epoch_of_one_reset(self):
        log = make_log((LogEventType.RESET, 10), (LogEventType.RESET, 5))
        epochs = split_epochs(log)
        assert len(epochs) == 2
        assert all(len(e) == 1 for e in epochs)
        assert all(e.records[0].type == LogEventType.RESET for e in epochs)

    def test_records_after_final_reset_form_their_own_epoch(self):
        log = make_log((LogEventType.PEN, 10), (LogEventType.RESET, 20),
                       (LogEventType.PEN, 5), (LogEventType.KEY, 8))
        epochs = split_epochs(log)
        assert len(epochs) == 2
        assert [r.tick for r in epochs[1]] == [5, 8]

    def test_reset_belongs_to_the_epoch_it_terminates(self):
        log = make_log((LogEventType.RESET, 10), (LogEventType.PEN, 5))
        epochs = split_epochs(log)
        assert epochs[0].records[-1].type == LogEventType.RESET
        assert epochs[1].records[0].type == LogEventType.PEN
