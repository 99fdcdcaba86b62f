"""Integration tests for the resilience subsystem against a live
emulator: checkpoint/resume byte-identity (including as a hypothesis
property), the typed guest-reset timeout, same-tick collision bumping,
and the three divergence policies of ``resilient_replay``.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import replay_session, standard_apps
from repro.device import Button
from repro.emulator.playback import (
    DEFAULT_RESET_TIMEOUT,
    GuestResetTimeout,
    JitterModel,
    PlaybackDriver,
    replay_machine,
)
from repro.emulator.pose import Emulator
from repro.resilience import (
    DivergenceError,
    DivergenceKind,
    FaultPlan,
    ReplayFault,
    restore_emulator,
    resilient_replay,
)
from repro.resilience import replay as replay_module
from repro.tracelog import (
    ActivityLog,
    LogEventType,
    LogRecord,
    read_activity_log,
)
from repro.workloads import UserScript, collect_session
from tests.profiler_utils import trace_fingerprint

EMU_KW = {"ram_size": 8 << 20, "flash_size": 1 << 20}

_APPS = standard_apps()


def _script() -> UserScript:
    script = UserScript("resil")
    script.at(80)
    script.tap(30, 50, hold_ticks=4)
    script.wait(60)
    script.tap(100, 120, hold_ticks=4)
    script.wait(200)
    return script


def _reset_script() -> UserScript:
    return (UserScript("resil-reset").at(80)
            .tap(150, 150).wait(150)      # launcher corner -> soft reset
            .tap(60, 40).wait(120))       # epoch 2


@pytest.fixture(scope="module")
def session():
    return collect_session(_APPS, _script(), name="resil", entropy_seed=77,
                           ram_size=EMU_KW["ram_size"])


@pytest.fixture(scope="module")
def reset_session():
    return collect_session(_APPS, _reset_script(), name="resil-reset",
                           entropy_seed=77, ram_size=EMU_KW["ram_size"])


def log_tuples(kernel):
    return [(int(r.type), r.tick, r.data)
            for r in read_activity_log(kernel)]


def db_fingerprint(databases):
    return [(db.name, [(r.attr, r.uid, bytes(r.data)) for r in db.records])
            for db in databases]


def run_with_checkpoints(session, every=100, jitter=None):
    cps = []
    emulator = Emulator(apps=_APPS, **EMU_KW)
    emulator.load_state(session.initial_state, final_reset=False,
                        restore_clock=jitter is None)
    driver = PlaybackDriver(emulator, session.log, jitter=jitter,
                            checkpoint_every=every,
                            checkpoint_hook=cps.append)
    result = driver.run(reset=True)
    return emulator, result, cps


def resume_on_fresh_emulator(session, checkpoint):
    emulator = Emulator(apps=_APPS, **EMU_KW)
    driver = PlaybackDriver(emulator, session.log)
    result = driver.resume_from(checkpoint)
    return emulator, result


# ----------------------------------------------------------------------
# Checkpoint/resume byte-identity
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_checkpointing_does_not_perturb_the_replay(self, session):
        plain, _, res_plain = replay_session(
            session.initial_state, session.log, apps=_APPS, profile=False,
            emulator_kwargs=EMU_KW)
        ckpt, res_ckpt, cps = run_with_checkpoints(session)
        assert cps, "session too short to capture any checkpoint"
        assert vars(res_plain) == vars(res_ckpt)
        assert log_tuples(plain.kernel) == log_tuples(ckpt.kernel)

    def test_every_checkpoint_resumes_byte_identically(self, session):
        reference, res_ref, cps = run_with_checkpoints(session)
        ref_log = log_tuples(reference.kernel)
        ref_fp = db_fingerprint(reference.final_state())
        for cp in cps:
            # Every checkpoint resumes after the reference run moved on:
            # a capture shares nothing the later replay mutates.
            emulator, result = resume_on_fresh_emulator(session, cp)
            assert vars(result) == vars(res_ref), f"checkpoint @{cp.tick}"
            assert log_tuples(emulator.kernel) == ref_log
            assert db_fingerprint(emulator.final_state()) == ref_fp

    def test_resume_preserves_profiler_streams(self, session):
        cps = []
        emulator = Emulator(apps=_APPS, **EMU_KW)
        emulator.load_state(session.initial_state, final_reset=False)
        emulator.start_profiling(trace_references=True)
        driver = PlaybackDriver(emulator, session.log, checkpoint_every=100,
                                checkpoint_hook=cps.append)
        res_ref = driver.run(reset=True)
        profiler = emulator.profiler
        assert cps

        cp = cps[len(cps) // 2]
        fresh = Emulator(apps=_APPS, **EMU_KW)
        fresh.start_profiling(trace_references=True)
        result = PlaybackDriver(fresh, session.log).resume_from(cp)
        assert vars(result) == vars(res_ref)
        assert fresh.profiler.instructions == profiler.instructions
        assert bytes(fresh.profiler.opcode_counts) == \
            bytes(profiler.opcode_counts)
        assert fresh.profiler.reference_trace().addresses.tobytes() == \
            profiler.reference_trace().addresses.tobytes()

    def test_jittered_checkpoint_resumes_twice(self, reset_session):
        """A jittered replay's checkpoint, resumed on two fresh machines
        in turn, lands on the uninterrupted jittered run both times:
        each resume draws the bursts of the epochs still to schedule
        from its own copy of the captured jitter state."""
        reference, res_ref, cps = run_with_checkpoints(
            reset_session, every=20, jitter=JitterModel(seed=4))
        # Taken before the guest's reset: later epochs, and the burst
        # delays they draw, come after it.
        cp = cps[1]
        captured = cp.manifest["driver"]["result"]
        assert len(res_ref.delays_applied) > len(captured.delays_applied)
        ref_log = log_tuples(reference.kernel)
        ref_fp = db_fingerprint(reference.final_state())
        for attempt in range(2):
            emulator, result = resume_on_fresh_emulator(reset_session, cp)
            assert vars(result) == vars(res_ref), f"resume {attempt}"
            assert log_tuples(emulator.kernel) == ref_log
            assert db_fingerprint(emulator.final_state()) == ref_fp

    def test_resume_across_a_guest_reset(self, reset_session):
        reference, res_ref, cps = run_with_checkpoints(reset_session)
        ref_log = log_tuples(reference.kernel)
        for cp in cps:
            emulator, result = resume_on_fresh_emulator(reset_session, cp)
            assert vars(result) == vars(res_ref), f"checkpoint @{cp.tick}"
            assert log_tuples(emulator.kernel) == ref_log


# ----------------------------------------------------------------------
# Records of an unknown event type name no playback group
# ----------------------------------------------------------------------
class TestParseLogUnknown:
    def test_unknown_record_is_not_injected(self, session):
        garbled = ActivityLog(records=list(session.log.records))
        garbled.append(LogRecord(0x7F7F, garbled.last_tick, 0, 0))
        results = [replay_session(session.initial_state, log, apps=_APPS,
                                  profile=False, emulator_kwargs=EMU_KW)[2]
                   for log in (session.log, garbled)]
        assert results[0].events_injected > 0
        assert results[1].events_injected == results[0].events_injected


# ----------------------------------------------------------------------
# Checkpoints hold the profiler trace by reference
# ----------------------------------------------------------------------
#: A chunk grain small enough that the short session spans many sealed
#: chunks (it records ~150k tokens).
SMALL_CHUNK = 8192


@pytest.fixture
def small_chunks(monkeypatch):
    from repro.emulator import profiling
    from repro.m68k import blockcore
    blockcore._resolve_profiler()     # so the patch is not overwritten
    monkeypatch.setattr(profiling, "TRACE_CHUNK", SMALL_CHUNK)
    monkeypatch.setattr(blockcore, "_TRACE_CHUNK", SMALL_CHUNK)
    return SMALL_CHUNK


def profiled_run_with_checkpoints(session, hook=None, every=100):
    cps = []
    emulator = Emulator(apps=_APPS, **EMU_KW)
    emulator.load_state(session.initial_state, final_reset=False)
    emulator.start_profiling(trace_references=True)

    def keep(cp):
        cps.append(cp)
        if hook is not None:
            hook(emulator, cp)
    driver = PlaybackDriver(emulator, session.log, checkpoint_every=every,
                            checkpoint_hook=keep)
    result = driver.run(reset=True)
    return emulator, result, cps


def profiler_fingerprint(prof):
    return (prof.instructions, bytes(prof.opcode_counts),
            prof.counts_bytes(), trace_fingerprint(prof), prof.counts_dict())


class TestCheckpointTraceByReference:
    def test_serialization_ignores_later_recording(self, session,
                                                   small_chunks):
        """Restoring a checkpoint after the run has recorded past it
        reinstates the profiler exactly as it was at capture."""
        at_capture = []
        emulator, _, cps = profiled_run_with_checkpoints(
            session, hook=lambda emu, cp: at_capture.append(
                profiler_fingerprint(emu.profiler)))
        profiler = emulator.profiler
        assert len(profiler._chunks) >= 3
        assert len(cps) >= 2
        # Sealed chunks are shared with the live profiler, not copied.
        shared = cps[-1].trace.chunks
        assert len(shared) >= 3
        assert all(a is b for a, b in zip(shared, profiler._chunks))
        assert all(not c.flags.writeable for c in profiler._chunks)
        fresh = Emulator(apps=_APPS, **EMU_KW)
        fresh.start_profiling(trace_references=True)
        for cp, fingerprint in zip(cps, at_capture):
            restore_emulator(fresh, cp)
            assert profiler_fingerprint(fresh.profiler) == fingerprint, \
                f"checkpoint @{cp.tick}"

    def test_in_memory_and_serialized_restores_agree(self, session,
                                                     small_chunks):
        reference, res_ref, cps = profiled_run_with_checkpoints(session)
        cp = cps[len(cps) // 2]
        assert len(cp.trace.chunks) >= 3
        fresh = Emulator(apps=_APPS, **EMU_KW)
        fresh.start_profiling(trace_references=True)
        restore_emulator(fresh, cp)
        prof = fresh.profiler
        # The shared chunks come back as sealed: only the tail is short.
        assert [len(c) for c in prof._chunks] == \
            [small_chunks] * len(cp.trace.chunks)
        result = PlaybackDriver(fresh, session.log).resume_from(cp)
        assert vars(result) == vars(res_ref)
        assert profiler_fingerprint(prof) == \
            profiler_fingerprint(reference.profiler)


@st.composite
def short_scripts(draw):
    script = UserScript("resil-prop")
    script.at(draw(st.integers(60, 150)))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            script.tap(draw(st.integers(0, 140)), draw(st.integers(0, 140)),
                       hold_ticks=draw(st.integers(2, 6)))
        else:
            script.press(draw(st.sampled_from([
                Button.UP, Button.DOWN, Button.MEMO])),
                hold_ticks=draw(st.integers(2, 6)))
        script.wait(draw(st.integers(20, 100)))
    script.wait(150)
    return script


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(script=short_scripts(), entropy=st.integers(1, 2**31),
       pick=st.integers(0, 100))
def test_property_interrupted_replay_is_bit_exact(script, entropy, pick):
    """Replay-to-T, checkpoint, resume on a fresh machine, replay to
    the end: stats, replayed log, and final databases all match the
    uninterrupted run — for arbitrary schedules and interrupt points."""
    session = collect_session(_APPS, script, name="resil-prop",
                              entropy_seed=entropy,
                              ram_size=EMU_KW["ram_size"])
    reference, res_ref, cps = run_with_checkpoints(session, every=120)
    assume(cps)
    cp = cps[pick % len(cps)]
    emulator, result = resume_on_fresh_emulator(session, cp)
    assert vars(result) == vars(res_ref)
    assert log_tuples(emulator.kernel) == log_tuples(reference.kernel)
    assert db_fingerprint(emulator.final_state()) == \
        db_fingerprint(reference.final_state())


# ----------------------------------------------------------------------
# Satellite: typed guest-reset timeout
# ----------------------------------------------------------------------
class TestGuestResetTimeout:
    def test_missing_reset_raises_typed_error(self, session):
        # A RESET record whose reset the guest never performs: the
        # driver must fail with the typed, localized timeout, not a
        # bare RuntimeError.
        log = ActivityLog()
        for rec in session.log:
            log.append(rec)
        last = log.records[-1].tick
        log.append(LogRecord(LogEventType.RESET, last + 10, 0, 0))
        # Epoch 2 must exist, else the RESET merely ends the session.
        log.append(LogRecord(LogEventType.PEN, 5, 50, 0x8000_3232))
        emulator = Emulator(apps=_APPS, **EMU_KW)
        emulator.load_state(session.initial_state, final_reset=False)
        driver = PlaybackDriver(emulator, log, reset_timeout=300)
        with pytest.raises(GuestResetTimeout) as exc_info:
            driver.run(reset=True)
        err = exc_info.value
        assert err.reset_timeout == 300
        assert err.ticks_waited >= 300
        assert err.boots_seen == err.boots_expected - 1
        assert "boot count" in str(err)

    def test_default_budget_is_the_old_hardcoded_bound(self):
        assert DEFAULT_RESET_TIMEOUT == 100_000


# ----------------------------------------------------------------------
# Satellite: same-tick same-peripheral collision bump
# ----------------------------------------------------------------------
class TestCollisionBump:
    def test_same_tick_key_events_are_bumped_apart(self, session):
        down = 0x8000_0000 | int(Button.MEMO)
        up = int(Button.MEMO)
        log = ActivityLog()
        log.append(LogRecord(LogEventType.KEY, 300, 300, down))
        log.append(LogRecord(LogEventType.KEY, 300, 300, up))
        emulator = Emulator(apps=_APPS, **EMU_KW)
        emulator.load_state(session.initial_state, final_reset=False)
        driver = PlaybackDriver(emulator, log)
        result = driver.run(reset=True)
        assert result.events_injected == 2
        key_ticks = [tick for tick, kind, _ in driver._sched if kind == "key"]
        assert len(set(key_ticks)) == 2, "second event must not overwrite " \
                                         "the latch before the ISR reads it"
        assert sorted(key_ticks) == key_ticks

    def test_different_peripherals_may_share_a_tick(self, session):
        log = ActivityLog()
        log.append(LogRecord(LogEventType.KEY, 300, 300,
                             0x8000_0000 | int(Button.UP)))
        log.append(LogRecord(LogEventType.PEN, 300, 300, 0x8000_3232))
        emulator = Emulator(apps=_APPS, **EMU_KW)
        emulator.load_state(session.initial_state, final_reset=False)
        driver = PlaybackDriver(emulator, log)
        driver.run(reset=True)
        assert sorted(t for t, _, _ in driver._sched) == [300, 300]


# ----------------------------------------------------------------------
# resilient_replay policies
# ----------------------------------------------------------------------
class TestResilientReplay:
    def _run(self, session, **kw):
        kw.setdefault("profile", False)
        kw.setdefault("checkpoint_every", 100)
        return resilient_replay(session.initial_state, session.log,
                                apps=_APPS, emulator_kwargs=EMU_KW, **kw)

    def test_clean_run_is_clean(self, session):
        out = self._run(session, on_divergence="strict")
        assert out.clean and not out.tainted and out.retries == 0
        assert not out.report
        assert out.checkpoints.ticks, "no checkpoints captured"

    def test_scratch_machines_share_the_replay_set_up(self, session,
                                                      monkeypatch):
        """The replay's machine and every localization scratch machine
        are built by ``replay_machine``: each is profiled with the
        replay's profiler configuration and carries the sanitizer and
        codegen-report slots only ``replay_machine`` sets."""
        built = []

        def recording(*args, **kwargs):
            machine = replay_machine(*args, **kwargs)
            built.append(machine[0])
            return machine

        monkeypatch.setattr(replay_module, "replay_machine", recording)
        with pytest.raises(DivergenceError) as exc_info:
            self._run(session, on_divergence="strict", profile=True,
                      faults="truncate:frac=0.6")
        assert exc_info.value.report.last_good_tick is not None
        assert len(built) > 1
        for emulator in built:
            profiler = emulator.profiler
            assert profiler is not None and profiler.trace_references
            assert emulator.device.mem.tracer is profiler
            assert emulator.sanitizer is None
            assert emulator.codegen_report is None

    def test_runtime_crash_recovers_under_resync(self, session):
        clean = self._run(session, on_divergence="strict")
        out = self._run(session, on_divergence="resync",
                        faults="crash:at=250")
        assert out.recovered and out.retries == 1 and not out.tainted
        assert any("crash" in note for note in out.fault_notes)
        # The recovery is invisible in the result: identical stats.
        assert vars(out.result) == vars(clean.result)
        assert log_tuples(out.emulator.kernel) == \
            log_tuples(clean.emulator.kernel)

    def test_profiled_crash_recovers_under_resync(self, session,
                                                  small_chunks):
        # The rollback restores a checkpoint whose sealed chunks the
        # failed attempt extended: the recovered trace must not keep
        # any of the discarded tokens.
        clean = self._run(session, on_divergence="strict", profile=True)
        out = self._run(session, on_divergence="resync", profile=True,
                        faults="crash:at=250")
        assert out.recovered and out.retries == 1 and not out.tainted
        assert len(out.profiler._chunks) >= 3
        assert vars(out.result) == vars(clean.result)
        assert profiler_fingerprint(out.profiler) == \
            profiler_fingerprint(clean.profiler)

    def test_runtime_crash_under_strict_raises_typed_fault(self, session):
        with pytest.raises(ReplayFault) as exc_info:
            self._run(session, on_divergence="strict", faults="crash:at=250")
        assert exc_info.value.fault_name == "crash"

    def test_trace_corruption_under_strict_is_localized(self, session):
        with pytest.raises(DivergenceError) as exc_info:
            self._run(session, on_divergence="strict", faults="truncate:at=4")
        report = exc_info.value.report
        assert DivergenceKind.MISSING_EVENT in report.kinds
        assert report.last_good_tick is not None
        assert report.first_bad_tick is not None
        assert report.last_good_tick <= report.first_bad_tick

    def test_trace_corruption_under_degrade_taints_and_completes(self,
                                                                 session):
        out = self._run(session, on_divergence="degrade",
                        faults="truncate:at=4")
        assert out.tainted and not out.clean
        assert out.report.divergences

    def test_deterministic_corruption_exhausts_resync_budget(self, session):
        with pytest.raises(DivergenceError) as exc_info:
            self._run(session, on_divergence="resync", retry_budget=2,
                      faults="truncate:at=4")
        assert exc_info.value.report.retries == 2

    def test_salvage_recovers_a_garbled_trace(self, session):
        # The log was corrupted *on disk* (before replay): salvage must
        # diagnose it and the replay must still run to completion.
        garbled, _ = FaultPlan.parse("type-garbage:n=1").apply_to_log(
            session.log)
        out = resilient_replay(session.initial_state, garbled,
                               apps=_APPS, emulator_kwargs=EMU_KW,
                               profile=False, checkpoint_every=100,
                               salvage=True, on_divergence="degrade")
        assert out.salvage is not None
        assert not out.salvage.clean
        assert out.salvage.report.errors[0].code == "unknown-event-type"

    def test_stalled_reset_is_typed_under_strict(self, reset_session):
        with pytest.raises(GuestResetTimeout):
            self._run(reset_session, on_divergence="strict",
                      faults="stall-reset", reset_timeout=800)

    @pytest.mark.parametrize("every", [100, 200, 300])
    def test_stalled_reset_recovers_under_resync(self, reset_session, every):
        # The wait emits checkpoints every ``every`` ticks, enough to
        # fill the default ring with post-reset ones: the retry must
        # resume from where the wait began, not from the ring.
        out = self._run(reset_session, on_divergence="resync",
                        faults="stall-reset", reset_timeout=800,
                        checkpoint_every=every)
        assert out.recovered and not out.tainted
        assert not out.report.divergences
