"""Activity-log playback (§2.4.2).

The playback driver schedules the parsed log's synchronous events
against the emulated tick counter: "the emulated system's tick counter
is checked to see if it is greater than or equal to the tick timestamp
of the next event.  If it is time for the next event, the emulator
simulates the event" — here by latching the recorded sample into the
peripheral and raising its interrupt, so the ROM ISR, any installed
hacks, and the kernel all run exactly as they did on the handheld.

``KeyCurrentState`` and non-zero ``SysRandom`` calls are serviced from
their queues, as the paper describes.

The optional :class:`JitterModel` reproduces the *imperfections* the
paper observed in §3.3/§3.4 — short bursts of events arriving slightly
late (< 20 ticks, blamed on emulator thread scheduling) and the
host-approximated RTC — so the validation experiments can show the same
benign divergences.

Resilience extensions (see :mod:`repro.resilience`): the driver keeps
its injection schedule in a side table, can capture an in-RAM
:class:`~repro.resilience.checkpoint.Checkpoint` every N wall ticks
(full emulator state + its own cursors), and can
:meth:`~PlaybackDriver.resume_from` such a checkpoint, continuing the
replay to a final state byte-identical with an uninterrupted run.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..device import constants as C
from ..device.peripherals import PenSample
from ..tracelog import ActivityLog, ParsedLog, parse_log, split_epochs
from ..tracelog.records import LogEventType, LogRecord
from .pose import Emulator

#: Default budget `_await_guest_reset` waits for a recorded soft reset
#: (was a hardcoded ``min(max_ticks, 100_000)`` deadline).
DEFAULT_RESET_TIMEOUT = 100_000
#: Ticks an epoch's drain runs past its last scheduled event.
IDLE_GRACE_TICKS = 200
#: Tick budget of the final run to idle (and cap on the reset wait).
MAX_TICKS = 100_000_000


class GuestResetTimeout(RuntimeError):
    """The replay expected the guest to perform a recorded soft reset
    (a RESET record ends the epoch) but no boot happened within the
    ``reset_timeout`` budget.

    Carries the boot counts and ticks waited so callers (and the
    resilience policies) can report a localized, typed failure instead
    of a bare ``RuntimeError``.
    """

    def __init__(self, boots_expected: int, boots_seen: int,
                 ticks_waited: int, reset_timeout: int, checkpoint=None):
        self.boots_expected = boots_expected
        self.boots_seen = boots_seen
        self.ticks_waited = ticks_waited
        self.reset_timeout = reset_timeout
        #: The driver's checkpoint from the start of the wait (None
        #: when checkpointing is off): the one point a retry can resume
        #: from without inheriting the wasted wait.
        self.checkpoint = checkpoint
        super().__init__(
            f"expected a guest soft reset (boot count > {boots_expected}) "
            f"that never happened during replay: boot count still "
            f"{boots_seen} after waiting {ticks_waited} ticks "
            f"(reset_timeout={reset_timeout})")


class JitterModel:
    """Replay timing imperfections, off by default.

    * Event bursts: with probability ``burst_probability`` per event, a
      run of following events is delayed by up to ``max_delay`` ticks
      (the paper saw bursts "< 20 ticks" late, then a return to exact
      schedule).
    * RTC drift: the emulated RTC reads as host-approximated time, a
      few seconds off the tick-derived clock.
    """

    def __init__(self, seed: int = 0, burst_probability: float = 0.08,
                 max_delay: int = 19, burst_length: tuple = (2, 5),
                 rtc_drift_seconds: int = 3):
        self._rng = random.Random(seed)
        self.burst_probability = burst_probability
        self.max_delay = max_delay
        self.burst_length = burst_length
        self.rtc_drift_seconds = rtc_drift_seconds
        self._burst_left = 0
        self._burst_delay = 0

    def event_delay(self) -> int:
        if self._burst_left > 0:
            self._burst_left -= 1
            return self._burst_delay
        if self._rng.random() < self.burst_probability:
            self._burst_left = self._rng.randint(*self.burst_length) - 1
            self._burst_delay = self._rng.randint(1, self.max_delay)
            return self._burst_delay
        return 0

    def rtc_offset(self) -> int:
        return self._rng.randint(0, self.rtc_drift_seconds)


@dataclass
class PlaybackResult:
    """What happened during one replay."""

    events_injected: int = 0
    keystate_lookups: int = 0
    seeds_served: int = 0
    seeds_missing: int = 0
    start_tick: int = 0
    end_tick: int = 0
    instructions: int = 0
    delays_applied: List[int] = field(default_factory=list)


class _KeyStateQueue:
    """Serves the recorded KeyCurrentState bit fields by tick."""

    def __init__(self, records: List[LogRecord], result: PlaybackResult):
        self._records = records
        self._pos = 0
        self._result = result

    def lookup(self, tick: int, raw: int) -> int:
        self._result.keystate_lookups += 1
        while (self._pos + 1 < len(self._records)
               and self._records[self._pos + 1].tick <= tick):
            self._pos += 1
        if self._pos < len(self._records) and self._records[self._pos].tick <= tick:
            return self._records[self._pos].data
        return raw


class _RandomQueue:
    """Overrides non-zero SysRandom seeds from the recorded queue."""

    def __init__(self, records: List[LogRecord], result: PlaybackResult):
        self._records = records
        self._pos = 0
        self._result = result

    def next_seed(self, original: int) -> int:
        if self._pos < len(self._records):
            seed = self._records[self._pos].data
            self._pos += 1
            self._result.seeds_served += 1
            return seed
        self._result.seeds_missing += 1
        return original


#: Schedule-entry kinds (carried by checkpoints).
_SCHED_PEN = "pen"
_SCHED_KEY = "key"
_SCHED_CARD_INSERT = "card+"
_SCHED_CARD_REMOVE = "card-"


class PlaybackDriver:
    """Replays one activity log on an emulator.

    Sessions containing soft resets (the RESET extension records) are
    split into tick epochs: the guest performs each reset *itself* —
    deterministically, driven by the replayed input — and the driver
    re-aligns the next epoch's schedule to the restarted tick counter.

    ``reset_timeout`` bounds how long `_await_guest_reset` waits for a
    recorded reset before raising :class:`GuestResetTimeout`.

    ``checkpoint_every`` (wall ticks) plus ``checkpoint_hook`` enable
    the resilience subsystem: at every multiple of ``checkpoint_every``
    during epoch drains the driver captures a full
    :class:`~repro.resilience.checkpoint.Checkpoint` and passes it to
    the hook.  The hook may raise to abort the run (the resilient
    runner uses this to implement its divergence policies).
    """

    def __init__(self, emulator: Emulator, log: ActivityLog,
                 jitter: Optional[JitterModel] = None,
                 reset_timeout: int = DEFAULT_RESET_TIMEOUT,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_hook: Optional[Callable] = None):
        self.emulator = emulator
        self.log = log
        self.epochs = split_epochs(log)
        #: §2.4.2's three groups, parsed once per epoch.
        self._groups: List[ParsedLog] = [parse_log(e) for e in self.epochs]
        self.jitter = jitter
        self.reset_timeout = reset_timeout
        self.checkpoint_every = checkpoint_every
        self.checkpoint_hook = checkpoint_hook

        #: Side table of every scheduled injection that may still be
        #: pending: ``(wall_tick, kind, payload)`` where pen and
        #: key payloads are ``(type, tick, rtc, data)`` record tuples.
        #: Entries strictly before the current tick are pruned lazily.
        self._sched: List[Tuple[int, str, Optional[tuple]]] = []
        self._keystate: Optional[_KeyStateQueue] = None
        self._randoms: Optional[_RandomQueue] = None
        self._drift: Optional[int] = None
        self._current_epoch = 0
        #: Armed by the fault-injection harness: pretend the recorded
        #: reset never happens, driving the GuestResetTimeout path.
        self._fault_stall_reset = False
        #: Called once per fresh run, after the session-start boot and
        #: before any epoch is scheduled (the fault harness arms its
        #: runtime faults here so they land inside the replay proper,
        #: not inside the boot).  Not re-fired on resume.
        self.session_start_hook: Optional[Callable[[], None]] = None

    # -- injection ------------------------------------------------------
    def _inject_pen(self, record: LogRecord) -> None:
        device = self.emulator.device
        device.digitizer.sample = PenSample(record.pen_down, record.pen_x,
                                            record.pen_y)
        device.intc.raise_int(C.INT_PEN)

    def _inject_key(self, record: LogRecord) -> None:
        device = self.emulator.device
        buttons = device.buttons
        buttons.last_event = record.data
        if record.key_down:
            buttons.state |= record.key_code
        else:
            buttons.state &= ~record.key_code
        device.intc.raise_int(C.INT_KEY)

    # -- schedule bookkeeping -------------------------------------------
    def _push_entry(self, tick: int, kind: str,
                    payload: Optional[tuple]) -> None:
        """Schedule one injection on the device and record it in the
        side table."""
        device = self.emulator.device
        if kind == _SCHED_PEN or kind == _SCHED_KEY:
            record = LogRecord(LogEventType(payload[0]), payload[1],
                               payload[2], payload[3])
            if kind == _SCHED_PEN:
                device.schedule_call(tick, lambda r=record: self._inject_pen(r))
            else:
                device.schedule_call(tick, lambda r=record: self._inject_key(r))
        elif kind == _SCHED_CARD_INSERT:
            if self.emulator.card is None:
                raise RuntimeError(
                    "the log contains a card insertion but the "
                    "initial state carries no card image")
            device.schedule_card_insert(tick, self.emulator.card)
        elif kind == _SCHED_CARD_REMOVE:
            device.schedule_card_remove(tick)
        else:  # pragma: no cover - internal invariant
            raise ValueError(f"unknown schedule entry kind {kind!r}")
        self._sched.append((tick, kind, payload))

    def _pending_entries(self, from_tick: int) -> List[tuple]:
        """Schedule entries not yet applied at a checkpoint at
        ``from_tick`` (stimuli at exactly the checkpoint tick have not
        been delivered yet — `_apply_due_stimuli` runs strictly before
        the tick counter reaches them)."""
        self._sched = [e for e in self._sched if e[0] >= from_tick]
        return sorted(self._sched, key=lambda e: e[0])

    # -- the run -----------------------------------------------------------
    def run(self, reset: bool = False) -> PlaybackResult:
        """Replay the log.

        With ``reset=True`` the driver performs the session-start soft
        reset itself, after installing the replay overrides — required
        so the boot path's ``SysRandom`` seeding is served from the
        recorded queue (the handheld's hack logged it at collection
        time).
        """
        emulator = self.emulator
        kernel = emulator.kernel
        device = emulator.device

        result = PlaybackResult()
        self._install_overrides(result, random_pos=0)

        if reset:
            kernel.boot()
        result.start_tick = device.tick
        result.instructions = device.cpu.instructions
        if self.session_start_hook is not None:
            self.session_start_hook()

        try:
            self._run_epochs(result, start_epoch=0, resume_drain=None)
            device.run_until_idle(max_ticks=MAX_TICKS)
        finally:
            self._clear_overrides()

        return self._finalize(result)

    def resume_from(self, checkpoint,
                    disable_jitter: bool = False) -> PlaybackResult:
        """Restart a replay from a checkpoint and run it to completion.

        The emulator must have been built with the same application set
        (and sizes) as the one that captured the checkpoint — the same
        equivalent-systems requirement as `load_state`.  With
        ``disable_jitter=True`` the remaining schedule runs without
        burst delays (the resilience ``resync`` policy), while the RTC
        drift already observed by the guest is preserved so the
        restored state stays consistent.
        """
        from ..resilience.checkpoint import restore_emulator

        driver_state = checkpoint.manifest.get("driver")
        if driver_state is None:
            raise ValueError("checkpoint carries no playback driver state")
        restore_emulator(self.emulator, checkpoint)

        kernel = self.emulator.kernel
        device = self.emulator.device
        # Private copies: one checkpoint may be resumed more than once
        # (each localization round does), always from what was captured.
        result = copy.deepcopy(driver_state["result"])
        jitter = driver_state["jitter"]
        self.jitter = (copy.deepcopy(jitter)
                       if jitter is not None and not disable_jitter else None)
        drift = driver_state["drift"]
        self._install_overrides(result,
                                random_pos=driver_state["random_pos"],
                                drift=drift)

        epoch_index = driver_state["epoch_index"]
        phase = driver_state["phase"]
        # During an inter-epoch reset wait the *previous* epoch's
        # keystate queue is still the installed override.
        keystate_epoch = epoch_index - 1 if phase == "await" else epoch_index
        if keystate_epoch >= 0:
            keystate = _KeyStateQueue(
                self._groups[keystate_epoch].keystate_queue, result)
            keystate._pos = driver_state["keystate_pos"]
            kernel.syscalls.key_state_override = keystate.lookup
            self._keystate = keystate

        self._sched = []
        for tick, kind, payload in driver_state["pending"]:
            self._push_entry(tick, kind, payload)

        drain = driver_state["drain"]
        try:
            if phase == "await":
                self._run_epochs(result, start_epoch=epoch_index,
                                 resume_drain=None,
                                 await_boots=driver_state["await_boots"])
            else:
                self._run_epochs(result, start_epoch=epoch_index,
                                 resume_drain=(drain["target"],
                                               drain["stop_at_reset"]))
            device.run_until_idle(max_ticks=MAX_TICKS)
        finally:
            self._clear_overrides()

        return self._finalize(result)

    # -- override management -------------------------------------------
    def _install_overrides(self, result: PlaybackResult, random_pos: int = 0,
                           drift: Optional[int] = None) -> None:
        kernel = self.emulator.kernel
        device = self.emulator.device
        # The SysRandom seed queue is global: seeds are consumed one per
        # non-zero call, in session order, across tick epochs (each
        # epoch's boot consumes the seed its hack logged).
        randoms = _RandomQueue([record for group in self._groups
                                for record in group.random_queue], result)
        randoms._pos = random_pos
        self._randoms = randoms
        kernel.syscalls.random_seed_override = randoms.next_seed
        if drift is None and self.jitter is not None:
            drift = self.jitter.rtc_offset()
        self._drift = drift
        if drift is not None:
            rtc = device.rtc
            kernel.time_override = (
                lambda: rtc.seconds_at(device.tick) + drift)

    def _clear_overrides(self) -> None:
        kernel = self.emulator.kernel
        kernel.syscalls.key_state_override = None
        kernel.syscalls.random_seed_override = None
        kernel.time_override = None

    def _finalize(self, result: PlaybackResult) -> PlaybackResult:
        device = self.emulator.device
        result.end_tick = device.tick
        result.instructions = device.cpu.instructions - result.instructions
        return result

    # -- the epoch loop -------------------------------------------------
    def _run_epochs(self, result: PlaybackResult, start_epoch: int,
                    resume_drain: Optional[Tuple[int, bool]],
                    await_boots: Optional[int] = None) -> None:
        kernel = self.emulator.kernel
        prev_boots = kernel.boot_count
        for index in range(start_epoch, len(self.epochs)):
            if resume_drain is not None and index == start_epoch:
                # State (and schedule) already restored from checkpoint.
                target, stop_at_reset = resume_drain
            else:
                if index > 0:
                    boots = (await_boots
                             if await_boots is not None and index == start_epoch
                             else prev_boots)
                    prev_boots = self._await_guest_reset(boots, result, index)
                records = self.epochs[index].records
                stop_at_reset = bool(
                    records and records[-1].type == LogEventType.RESET)
                target = self._schedule_epoch(index, result)
            self._drain_epoch(index, result, target, stop_at_reset)

    def _await_guest_reset(self, prev_boots: int, result: PlaybackResult,
                           epoch_index: int) -> int:
        """Advance until the guest performs its recorded soft reset
        (triggered deterministically by the replayed input).  Checkpoint
        boundaries crossed while waiting are honoured too — the wait is
        part of the replay timeline."""
        kernel = self.emulator.kernel
        device = self.emulator.device
        self._current_epoch = epoch_index
        start = device.tick
        deadline = start + min(MAX_TICKS, self.reset_timeout)
        every = self.checkpoint_every
        checkpoints = bool(every and self.checkpoint_hook is not None)
        start_checkpoint = None
        while kernel.boot_count <= prev_boots or self._fault_stall_reset:
            if checkpoints and start_checkpoint is None:
                start_checkpoint = self.capture_checkpoint(
                    result, 0, False, phase="await", await_boots=prev_boots)
            if device.tick >= deadline:
                raise GuestResetTimeout(
                    boots_expected=prev_boots + 1,
                    boots_seen=kernel.boot_count,
                    ticks_waited=device.tick - start,
                    reset_timeout=self.reset_timeout,
                    checkpoint=start_checkpoint)
            device.advance(device.tick + 1)
            if checkpoints and device.tick % every == 0:
                checkpoint = self.capture_checkpoint(
                    result, 0, False, phase="await", await_boots=prev_boots)
                self.checkpoint_hook(checkpoint)
        return kernel.boot_count

    def _schedule_epoch(self, index: int, result: PlaybackResult) -> int:
        """Install the epoch's keystate override and push its injection
        schedule; returns the drain target (wall tick)."""
        kernel = self.emulator.kernel
        device = self.emulator.device
        parsed = self._groups[index]
        keystate = _KeyStateQueue(parsed.keystate_queue, result)
        kernel.syscalls.key_state_override = keystate.lookup
        self._keystate = keystate

        # Record ticks are guest-epoch ticks; wall schedule = offset +.
        epoch_offset = device.tick_offset
        last_tick = device.tick
        last_by_type: dict = {}
        for record in parsed.synchronous:
            delay = self.jitter.event_delay() if self.jitter else 0
            tick = epoch_offset + record.tick + delay
            # A delayed burst must stay in order and must not collapse
            # two same-peripheral events onto one tick (the second
            # would overwrite the latched sample before the ISR reads
            # the first) — the paper's bursts arrive late but intact.
            prev = last_by_type.get(record.type)
            if prev is not None and tick <= prev:
                tick = prev + 1
            last_by_type[record.type] = tick
            if delay:
                result.delays_applied.append(tick - epoch_offset - record.tick)
            kind = _SCHED_PEN if record.type == LogEventType.PEN else _SCHED_KEY
            self._push_entry(tick, kind, (int(record.type), record.tick,
                                          record.rtc, record.data))
            result.events_injected += 1
            last_tick = max(last_tick, tick)

        # Memory-card transitions are external inputs too: re-insert
        # the session's card at the recorded ticks (card extension).
        from ..device.memcard import NOTIFY_CARD_INSERTED, NOTIFY_CARD_REMOVED
        for record in parsed.notifications:
            tick = epoch_offset + record.tick
            if record.data == NOTIFY_CARD_INSERTED:
                self._push_entry(tick, _SCHED_CARD_INSERT, None)
            elif record.data == NOTIFY_CARD_REMOVED:
                self._push_entry(tick, _SCHED_CARD_REMOVE, None)
            else:
                continue
            result.events_injected += 1
            last_tick = max(last_tick, tick)

        return last_tick + IDLE_GRACE_TICKS

    def _drain_epoch(self, index: int, result: PlaybackResult,
                     target: int, stop_at_reset: bool) -> None:
        """Advance the device to the epoch's drain target, stopping
        promptly at an epoch-ending reset (overshooting would deliver
        the next epoch's events against the wrong restarted tick
        counter) and pausing at checkpoint boundaries."""
        kernel = self.emulator.kernel
        device = self.emulator.device
        self._current_epoch = index
        boots = kernel.boot_count
        while device.tick < target:
            if stop_at_reset and kernel.boot_count != boots:
                return
            step = device.tick + 1 if stop_at_reset else target
            cp_tick = self._next_checkpoint_tick(device.tick)
            if cp_tick is not None:
                step = min(step, cp_tick)
            device.advance(step)
            if cp_tick is not None and device.tick == cp_tick:
                self._emit_checkpoint(result, target, stop_at_reset)

    def _next_checkpoint_tick(self, now: int) -> Optional[int]:
        if not self.checkpoint_every or self.checkpoint_hook is None:
            return None
        every = self.checkpoint_every
        return (now // every + 1) * every

    def _emit_checkpoint(self, result: PlaybackResult, target: int,
                         stop_at_reset: bool) -> None:
        checkpoint = self.capture_checkpoint(result, target, stop_at_reset)
        self.checkpoint_hook(checkpoint)

    def capture_checkpoint(self, result: PlaybackResult, target: int,
                           stop_at_reset: bool, phase: str = "drain",
                           await_boots: Optional[int] = None):
        """Capture a full checkpoint: emulator snapshot plus the
        driver's own cursors, pending schedule, and jitter state.

        ``phase`` records where the run was: ``"drain"`` (inside an
        epoch's drain loop) or ``"await"`` (between epochs, waiting for
        the guest's recorded reset; ``await_boots`` carries the boot
        count the wait compares against).
        """
        from ..resilience.checkpoint import capture_emulator

        device = self.emulator.device
        checkpoint = capture_emulator(self.emulator)
        state = dict(result=copy.deepcopy(result))
        state["epoch_index"] = self._current_epoch
        state["phase"] = phase
        state["await_boots"] = await_boots
        state["drain"] = {"target": target, "stop_at_reset": stop_at_reset}
        state["keystate_pos"] = self._keystate._pos if self._keystate else 0
        state["random_pos"] = self._randoms._pos if self._randoms else 0
        state["pending"] = self._pending_entries(device.tick)
        state["jitter"] = copy.deepcopy(self.jitter)
        state["drift"] = self._drift
        checkpoint.manifest["driver"] = state
        return checkpoint


def replay_session(state, log: ActivityLog, apps=(), profile: bool = True,
                   trace_references: bool = True,
                   track_opcode_addresses: bool = False,
                   track_reference_pcs: bool = False,
                   jitter: Optional[JitterModel] = None,
                   emulator_kwargs: Optional[dict] = None,
                   reset_timeout: int = DEFAULT_RESET_TIMEOUT,
                   core: Optional[str] = None,
                   sanitize: bool = False,
                   fuse_threshold: Optional[int] = None,
                   on_fuse=None,
                   validate_codegen: bool = False,
                   trace_sink=None,
                   trace_spill: bool = False):
    """One-call replay: build the emulator, load β, apply δ.

    Returns ``(emulator, profiler, result)``; ``profiler`` is None when
    ``profile=False``.  ``track_opcode_addresses=True`` records the pc
    of every executed opcode for the static/dynamic cross-check;
    ``track_reference_pcs=True`` additionally attributes every data
    reference to its instruction for the semantic audit's region
    cross-check.  ``core`` selects the execution core (``"fast"``, the
    predecoded block interpreter and the default, or ``"simple"``, the
    stepping loop — bit-exact alternatives); it overrides any ``core``
    key in ``emulator_kwargs``.

    ``sanitize=True`` attaches the guest memory sanitizer for the whole
    replay (leak check at the end) and leaves it — detached, report
    intact — as ``emulator.sanitizer``.

    ``fuse_threshold`` overrides the superblock core's fusion trigger
    (``1`` fuses every block on first sight — the translation
    validator's corpus mode).  ``on_fuse`` is called with each fused
    block right after codegen.  ``validate_codegen=True`` runs the
    translation validator inline on every fused block and leaves the
    combined findings as ``emulator.codegen_report`` (a
    :class:`repro.analysis.static.findings.Report`).  All three are
    no-ops on cores without fused codegen (``core="simple"``) and
    inert when the sanitizer is attached, because the superblock core
    never dispatches fused bodies under shadow checking.

    ``trace_sink`` streams the reference trace into a PTRC
    :class:`repro.traces.container.ContainerWriter` while the replay
    runs; ``trace_spill=True`` additionally drops the in-RAM chunks so
    arbitrarily long sessions replay in bounded memory (the trace is
    then only readable from the container).
    """
    kwargs = dict(emulator_kwargs or {})
    if core is not None:
        kwargs["core"] = core
    emulator, profiler = replay_machine(
        apps, kwargs, state=state, jitter=jitter, profile=profile,
        trace_references=trace_references,
        track_opcode_addresses=track_opcode_addresses,
        track_reference_pcs=track_reference_pcs,
        trace_sink=trace_sink, trace_spill=trace_spill,
        sanitize=sanitize, fuse_threshold=fuse_threshold, on_fuse=on_fuse,
        validate_codegen=validate_codegen)
    san = emulator.sanitizer
    driver = PlaybackDriver(emulator, log, jitter=jitter,
                            reset_timeout=reset_timeout)
    try:
        result = driver.run(reset=True)
    finally:
        if san is not None and san.attached:
            san.detach()
        if profiler is not None and trace_sink is not None:
            # The hot path batches tokens; push the final partial
            # batch through so the container holds the whole trace.
            profiler.flush_trace_sink()
    return emulator, profiler, result


def replay_machine(apps, emulator_kwargs: Optional[dict] = None, *,
                   state=None, jitter: Optional[JitterModel] = None,
                   profile: bool = True, trace_references: bool = True,
                   track_opcode_addresses: bool = False,
                   track_reference_pcs: bool = False,
                   trace_sink=None, trace_spill: bool = False,
                   sanitize: bool = False,
                   fuse_threshold: Optional[int] = None, on_fuse=None,
                   validate_codegen: bool = False):
    """Build a replay machine; returns ``(emulator, profiler)``.

    The one set-up path of every replay: :func:`replay_session`, the
    resilient runner and its localization scratch machines all build
    here, so each gets the same profiler, trace sink, sanitizer and
    fuse hooks.  ``state`` (β) is loaded
    when given; a machine built without it is one that a checkpoint
    restore will fill.  The keywords are :func:`replay_session`'s.
    """
    kwargs = dict(emulator_kwargs or {})
    emulator = Emulator(apps=apps, **kwargs)
    if state is not None:
        emulator.load_state(state, restore_clock=jitter is None,
                            final_reset=False)
    profiler = None
    if profile:
        profiler = emulator.start_profiling(
            trace_references=trace_references,
            track_opcode_addresses=track_opcode_addresses,
            track_reference_pcs=track_reference_pcs)
        if trace_sink is not None:
            # Stream the reference trace into a PTRC container as the
            # replay runs; with ``trace_spill`` nothing stays in RAM.
            profiler.attach_trace_sink(trace_sink, spill=trace_spill)
    san = None
    if sanitize:
        san = _session_sanitizer(apps, kwargs)
        san.attach(emulator.kernel)
    emulator.sanitizer = san
    emulator.codegen_report = _install_fuse_hooks(
        emulator, fuse_threshold, on_fuse, validate_codegen)
    return emulator, profiler


def _install_fuse_hooks(emulator: Emulator,
                        fuse_threshold: Optional[int],
                        on_fuse, validate_codegen: bool):
    """Wire the codegen observation hooks into the superblock core.

    Returns the live findings Report when inline validation is on
    (it fills as blocks fuse during the replay), else None.
    """
    core = emulator.device.core
    if not hasattr(core, "fuse_validator"):
        return None
    if fuse_threshold is not None and hasattr(core, "fuse_threshold"):
        core.fuse_threshold = fuse_threshold
    report = None
    validate = None
    if validate_codegen:
        from ..analysis.static.findings import Report
        from ..analysis.transval import validate_block, workspace_for

        report = Report()
        workspaces: dict = {}
        seen: set = set()

        def validate(block) -> None:
            prov = block.prov
            key = (prov.pc, prov.source_hash)
            if key in seen:
                return
            seen.add(key)
            geom = (prov.ram_base, prov.ram_limit,
                    prov.flash_base, prov.flash_limit)
            ws = workspaces.get(geom)
            if ws is None:
                ws = workspaces[geom] = workspace_for(prov)
            block_report, _stats = validate_block(prov, ws=ws)
            report.extend(block_report)

    if on_fuse is not None or validate is not None:
        def hook(block) -> None:
            if on_fuse is not None:
                on_fuse(block)
            if validate is not None:
                validate(block)
        core.fuse_validator = hook
    return report


def _session_sanitizer(apps, kwargs: dict):
    """Build a sanitizer for a replay.  Findings are attributed over
    the CFG of the same ROM the emulator is running (identical builds
    place code at identical addresses); a pc outside it (installed
    hacks run from RAM) is reported as is."""
    from ..analysis.sanitizer import MemorySanitizer, attribution
    from ..analysis.static.audit import audit_rom

    audit = audit_rom(apps=apps,
                      ram_size=kwargs.get("ram_size"),
                      flash_size=kwargs.get("flash_size"))
    return MemorySanitizer(attribution=attribution(audit.cfg))
