"""Tests for the replay emulator: state import, playback fidelity, the
replay queues, profiling, and the jitter model."""

import numpy as np
import pytest

from repro.device import Button
from repro.emulator import (
    Emulator,
    JitterModel,
    PlaybackDriver,
    Profiler,
    RomMismatchError,
    replay_session,
)
from repro.emulator.playback import _KeyStateQueue, PlaybackResult
from repro.tracelog import LogEventType, LogRecord, read_activity_log
from repro.traces import TraceContainer, write_container
from repro.traces.container import pack_tokens
from repro.workloads.scripts import UserScript
from repro.workloads.sessions import collect_session

from tests.palmos_utils import BLANK_APP, RECORDER_APP

APPS = [RECORDER_APP]
EMU_KW = {"ram_size": 4 << 20, "flash_size": 1 << 20}


def simple_script() -> UserScript:
    return (UserScript().at(50)
            .tap(40, 40).wait(20)
            .drag([(10, 10), (30, 30), (60, 60)]).wait(30)
            .press(Button.UP).wait(50))


@pytest.fixture(scope="module")
def session():
    return collect_session(APPS, simple_script(), name="emutest")


class TestStateImport:
    def test_rom_mismatch_detected(self, session):
        emulator = Emulator(apps=[RECORDER_APP, BLANK_APP], **EMU_KW)
        with pytest.raises(RomMismatchError):
            emulator.load_state(session.initial_state)

    def test_import_zeroes_dates(self, session):
        emulator = Emulator(apps=APPS, **EMU_KW)
        emulator.load_state(session.initial_state)
        for image in emulator.kernel.hotsync_backup():
            assert image.creation_date == 0
            assert image.last_backup_date == 0

    def test_imported_machine_reaches_idle(self, session):
        emulator = Emulator(apps=APPS, **EMU_KW)
        emulator.load_state(session.initial_state)
        assert emulator.device.cpu.stopped


class TestReplayFidelity:
    def test_replay_reproduces_activity_log(self, session):
        """§3.3: each event in the original log appears in the emulated
        log with the same data — here, bit-exactly."""
        emulator, _, result = replay_session(
            session.initial_state, session.log, apps=APPS, profile=False,
            emulator_kwargs=EMU_KW)
        original = [(r.type, r.tick, r.data) for r in session.log]
        replayed = [(r.type, r.tick, r.data)
                    for r in read_activity_log(emulator.kernel)]
        assert replayed == original
        assert result.events_injected == len(
            [r for r in session.log
             if r.type in (LogEventType.PEN, LogEventType.KEY)])

    def test_replay_independent_of_emulator_entropy(self, session):
        """The SysRandom seed queue makes replay deterministic even when
        the emulator's own entropy differs from the device's."""
        logs = []
        for entropy in (0x1111, 0x2222):
            kwargs = dict(EMU_KW, entropy_seed=entropy)
            emulator, _, _ = replay_session(
                session.initial_state, session.log, apps=APPS,
                profile=False, emulator_kwargs=kwargs)
            logs.append([(r.type, r.tick, r.data)
                         for r in read_activity_log(emulator.kernel)])
        assert logs[0] == logs[1]

    def test_replay_final_state_matches_but_dates(self, session):
        """§3.4's result: databases correlate except the date fields."""
        emulator, _, _ = replay_session(
            session.initial_state, session.log, apps=APPS, profile=False,
            emulator_kwargs=EMU_KW)
        device_final = {d.name: d for d in session.final_state}
        emulated_final = {d.name: d for d in emulator.final_state()}
        assert set(device_final) == set(emulated_final)
        for name, dev in device_final.items():
            emu = emulated_final[name]
            assert [r.data for r in dev.records] == [r.data for r in emu.records], name
            assert dev.attributes == emu.attributes
            assert dev.unique_id_seed == emu.unique_id_seed

    def test_replay_twice_is_bit_identical(self, session):
        results = []
        for _ in range(2):
            emulator, _, result = replay_session(
                session.initial_state, session.log, apps=APPS,
                profile=False, emulator_kwargs=EMU_KW)
            results.append((result.instructions,
                            [(r.type, r.tick, r.data)
                             for r in read_activity_log(emulator.kernel)]))
        assert results[0] == results[1]


class TestProfiling:
    def test_profile_counts_consistent(self, session):
        _, profiler, _ = replay_session(
            session.initial_state, session.log, apps=APPS,
            emulator_kwargs=EMU_KW)
        assert profiler.total_refs == (profiler.ram_refs
                                       + profiler.flash_refs
                                       + profiler.hw_refs)
        assert profiler.total_refs == (profiler.fetch_refs
                                       + profiler.read_refs
                                       + profiler.write_refs)
        assert profiler.flash_refs > 0
        assert profiler.ram_refs > 0
        # Untraced replays keep per-call counters instead of deriving
        # them from the trace; both must count the same references.
        _, untraced, _ = replay_session(
            session.initial_state, session.log, apps=APPS,
            trace_references=False, emulator_kwargs=EMU_KW)
        assert untraced.total_refs == profiler.total_refs
        assert untraced.counts_dict() == profiler.counts_dict()

    def test_average_memory_cycles_in_range(self, session):
        _, profiler, _ = replay_session(
            session.initial_state, session.log, apps=APPS,
            emulator_kwargs=EMU_KW)
        assert 1.0 < profiler.average_memory_cycles() < 3.0

    def test_opcode_histogram_counts_instructions(self, session):
        _, profiler, _ = replay_session(
            session.initial_state, session.log, apps=APPS,
            emulator_kwargs=EMU_KW)
        histogram_total = int(profiler.opcode_histogram().sum())
        assert histogram_total == profiler.instructions
        top = profiler.top_opcodes(5)
        assert top and top[0][1] >= top[-1][1]

    def test_reference_trace_matches_counters(self, session):
        _, profiler, _ = replay_session(
            session.initial_state, session.log, apps=APPS,
            emulator_kwargs=EMU_KW)
        trace = profiler.reference_trace()
        assert len(trace) == profiler.total_refs
        counts = trace.counts()
        assert counts["ram"] == profiler.ram_refs
        assert counts["flash"] == profiler.flash_refs

    def test_reference_trace_roundtrip(self, tmp_path, session):
        _, profiler, _ = replay_session(
            session.initial_state, session.log, apps=APPS,
            emulator_kwargs=EMU_KW)
        trace = profiler.reference_trace()
        write_container(pack_tokens(trace.addresses, trace.kinds),
                        tmp_path / "trace.ptrc")
        with TraceContainer(tmp_path / "trace.ptrc") as container:
            back = container.reference_trace()
        assert np.array_equal(back.addresses, trace.addresses)
        assert np.array_equal(back.kinds, trace.kinds)

    def test_profiling_disables_native_path(self, session):
        emulator = Emulator(apps=APPS, **EMU_KW)
        emulator.load_state(session.initial_state)
        assert emulator.kernel.allow_native
        emulator.start_profiling()
        assert not emulator.kernel.allow_native
        emulator.stop_profiling()
        assert emulator.kernel.allow_native

    def test_profiled_and_native_replays_agree_on_state(self, session):
        """POSE's native optimisation must not change semantics: the
        emulated activity logs agree whether or not profiling is on."""
        logs = []
        for profile in (False, True):
            emulator, _, _ = replay_session(
                session.initial_state, session.log, apps=APPS,
                profile=profile, emulator_kwargs=EMU_KW)
            logs.append([(r.type, r.tick, r.data)
                         for r in read_activity_log(emulator.kernel)])
        assert logs[0] == logs[1]


class TestKeyStateQueue:
    def _queue(self, pairs):
        records = [LogRecord(LogEventType.KEYSTATE, tick, 0, value)
                   for tick, value in pairs]
        return _KeyStateQueue(records, PlaybackResult())

    def test_lookup_by_tick(self):
        queue = self._queue([(100, 1), (200, 2), (300, 4)])
        assert queue.lookup(100, 99) == 1
        assert queue.lookup(250, 99) == 2
        assert queue.lookup(300, 99) == 4
        assert queue.lookup(900, 99) == 4

    def test_lookup_before_first_returns_raw(self):
        queue = self._queue([(100, 1)])
        assert queue.lookup(50, 99) == 99

    def test_empty_queue_returns_raw(self):
        queue = self._queue([])
        assert queue.lookup(10, 7) == 7


class TestJitterModel:
    def test_delays_bounded(self):
        jitter = JitterModel(seed=3)
        delays = [jitter.event_delay() for _ in range(2000)]
        assert all(0 <= d < 20 for d in delays)
        assert any(d > 0 for d in delays)
        assert delays.count(0) > len(delays) // 2  # mostly on schedule

    def test_jittered_replay_keeps_event_payloads(self, session):
        """§3.3: with bursts the events are slightly late but 'contain
        virtually the same inputs'."""
        emulator, _, result = replay_session(
            session.initial_state, session.log, apps=APPS, profile=False,
            jitter=JitterModel(seed=1, burst_probability=0.5),
            emulator_kwargs=EMU_KW)
        original = [(r.type, r.data) for r in session.log]
        replayed = [(r.type, r.data)
                    for r in read_activity_log(emulator.kernel)]
        assert replayed == original  # payloads identical
        assert result.delays_applied  # some events actually slipped
        # And each slipped by less than 20 ticks.
        orig_ticks = [r.tick for r in session.log]
        repl_ticks = [r.tick
                      for r in read_activity_log(emulator.kernel)]
        assert all(0 <= b - a < 20 for a, b in zip(orig_ticks, repl_ticks))
