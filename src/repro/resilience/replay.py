"""The resilient replay runner.

Wraps a :class:`~repro.emulator.playback.PlaybackDriver` run with the
resilience machinery:

* periodic **checkpoints** into a :class:`CheckpointManager` ring;
* the live **divergence watchdog** — the §3.3 log comparator,
  :class:`~repro.validation.log_correlation.DivergenceWatchdog` — fed
  the emulated machine's own activity log at every checkpoint boundary;
* a **policy** deciding what a detected divergence (or an injected
  runtime fault, or a reset timeout) does to the run:

  - ``strict``  — stop; localize the first divergent window by
    checkpoint bisection; raise :class:`DivergenceError` with the
    structured report;
  - ``resync``  — restore the latest checkpoint with jitter disabled
    and retry; repeated failures back off to progressively earlier
    checkpoints until ``retry_budget`` is exhausted, then escalate
    like ``strict``.  Transient faults (one-shot runtime injections,
    jitter-induced skew) recover; deterministic trace corruption
    cannot, and escalates with a localized report;
  - ``degrade`` — record every divergence, mark the run ``tainted``,
    and keep going; hard faults still resync (tainted) if a
    checkpoint exists.

* optional **trace salvage** and **fault injection** up front.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..emulator.playback import (
    DEFAULT_RESET_TIMEOUT,
    GuestResetTimeout,
    JitterModel,
    PlaybackDriver,
    PlaybackResult,
    replay_machine,
)
from ..emulator.pose import Emulator
from ..tracelog import ActivityLog, read_activity_log
from ..validation.log_correlation import (Divergence, DivergenceKind,
                                          DivergenceWatchdog)
from .checkpoint import Checkpoint, CheckpointManager
from .errors import DivergenceError, ReplayFault
from .faults import FaultPlan
from .salvage import SalvageResult, salvage_log

POLICIES = ("strict", "resync", "degrade")

#: Localization stops refining once the divergent window is this tight.
_LOCALIZE_GOAL = 8
#: Each refinement round splits the window this many ways.
_LOCALIZE_FAN = 16
_LOCALIZE_ROUNDS = 6


class _Diverged(Exception):
    """Internal control flow: a watchdog check at the checkpoint at wall
    tick ``tick`` found fresh divergences."""

    def __init__(self, tick: int):
        super().__init__(f"divergence by wall tick {tick}")
        self.tick = tick


@dataclass
class DivergenceReport:
    """Every divergence the watchdog found, plus the runner's
    localization."""

    divergences: List[Divergence] = field(default_factory=list)
    #: Wall tick of the last checkpoint known good / first known bad —
    #: filled in by the runner's bisection over the checkpoint ring.
    last_good_tick: Optional[int] = None
    first_bad_tick: Optional[int] = None
    retries: int = 0
    #: Determinism-relevant findings from the semantic ROM audit
    #: (``analysis.static.audit``), attached by the resilient runner
    #: when a strict replay diverges: an unhacked nondeterminism source
    #: or self-modifying code is the most likely root cause, and the
    #: audit names it statically.
    static_hints: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.divergences)

    @property
    def kinds(self) -> List[DivergenceKind]:
        return sorted({d.kind for d in self.divergences}, key=lambda k: k.value)

    def summary(self) -> str:
        if not self.divergences:
            return "no divergence"
        head = self.divergences[0]
        text = (f"replay diverged: {len(self.divergences)} divergence(s), "
                f"first: {head.describe()}")
        if self.last_good_tick is not None:
            text += f"; last good checkpoint at wall tick {self.last_good_tick}"
        if self.first_bad_tick is not None:
            text += f"; first divergent window ends at wall tick {self.first_bad_tick}"
        if self.retries:
            text += f"; after {self.retries} resync retr"
            text += "y" if self.retries == 1 else "ies"
        return text

    def format(self) -> str:
        lines = [self.summary()]
        for div in self.divergences:
            lines.append(f"  - {div.describe()}")
            if div.expected is not None:
                lines.append(f"      expected: tick={div.expected.tick} "
                             f"data={div.expected.data:#010x}")
            if div.actual is not None:
                lines.append(f"      actual  : tick={div.actual.tick} "
                             f"data={div.actual.data:#010x}")
        if self.static_hints:
            lines.append("  static audit hints (possible root causes):")
            for hint in self.static_hints:
                lines.append(f"    * {hint}")
        return "\n".join(lines)


@dataclass
class ResilientReplayResult:
    """Outcome of a resilient replay."""

    result: PlaybackResult
    emulator: Optional[Emulator] = None
    profiler: object = None
    report: Optional[DivergenceReport] = None
    tainted: bool = False
    retries: int = 0
    checkpoints: Optional[CheckpointManager] = None
    salvage: Optional[SalvageResult] = None
    fault_notes: List[str] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        """The run needed at least one resync retry but completed."""
        return self.retries > 0 and not self.tainted

    @property
    def clean(self) -> bool:
        return not (self.tainted or self.retries or self.report)


def resilient_replay(
    state: Any,
    log: ActivityLog,
    apps: Sequence[Any] = (),
    *,
    profile: bool = True,
    jitter: Optional[JitterModel] = None,
    emulator_kwargs: Optional[dict] = None,
    reset_timeout: int = DEFAULT_RESET_TIMEOUT,
    checkpoint_every: int = 2000,
    on_divergence: str = "strict",
    retry_budget: int = 3,
    faults: Union[str, FaultPlan, None] = None,
    salvage: bool = False,
) -> ResilientReplayResult:
    """Replay ``log`` against ``state`` with checkpointing, the live
    watchdog, and the selected divergence policy.

    The machine is built by :func:`~repro.emulator.playback.replay_machine`,
    the set-up :func:`~repro.emulator.playback.replay_session` uses, so
    both replays run the same core with the same region facts.  The
    watchdog compares the replayed machine's activity log against
    the *pristine* input log (after salvage, before fault injection),
    so injected trace corruption is detected as genuine divergence.
    """
    if on_divergence not in POLICIES:
        raise ValueError(f"on_divergence must be one of {POLICIES}, "
                         f"not {on_divergence!r}")
    plan = FaultPlan.parse(faults) if isinstance(faults, str) else faults

    salvage_result = None
    reference = log
    if salvage:
        salvage_result = salvage_log(log)
        reference = salvage_result.log

    replay_log = reference
    fault_notes: List[str] = []
    if plan is not None and plan.trace_specs:
        replay_log, fault_notes = plan.apply_to_log(reference)

    emulator, profiler = replay_machine(apps, emulator_kwargs, state=state,
                                        jitter=jitter, profile=profile)

    from ..hacks import installed_hack_traps

    watchdog = report = None
    if installed_hack_traps(emulator.kernel):
        watchdog, report = DivergenceWatchdog(reference), DivergenceReport()
    else:
        # Without the logging hacks the replayed machine produces no
        # activity log, and every comparison would be a false
        # MISSING_EVENT.  Replay still works; watching cannot.
        fault_notes.append(
            "watchdog disabled: no logging hacks installed in the "
            "imported state")

    manager = CheckpointManager()
    outcome = ResilientReplayResult(result=PlaybackResult(),
                                    emulator=emulator, profiler=profiler,
                                    checkpoints=manager,
                                    salvage=salvage_result,
                                    fault_notes=fault_notes)
    localize = functools.partial(
        _localize, manager, reference=reference, replay_log=replay_log,
        reset_timeout=reset_timeout,
        machine=functools.partial(replay_machine, apps, emulator_kwargs,
                                  profile=profile))
    escalate = functools.partial(_escalate, outcome=outcome, report=report,
                                 localize=localize, apps=apps)

    def watch(tick: int, final: bool = False) -> None:
        if watchdog is None:
            return
        fresh = watchdog.check(read_activity_log(emulator.kernel),
                               final=final)
        report.divergences.extend(fresh)
        if fresh and on_divergence == "degrade":
            outcome.tainted = True
        elif fresh:
            raise _Diverged(tick)

    def hook(checkpoint: Checkpoint) -> None:
        manager.add(checkpoint)
        watch(checkpoint.tick)

    driver = PlaybackDriver(emulator, replay_log, jitter=jitter,
                            reset_timeout=reset_timeout,
                            checkpoint_every=checkpoint_every,
                            checkpoint_hook=hook)
    if plan is not None:
        # Arm after the session-start boot: a wall-tick fault scheduled
        # before the boot would land inside it (the boot resets the
        # tick counter), before the first checkpoint even exists.
        driver.session_start_hook = (
            lambda: fault_notes.extend(plan.arm(driver)))

    resume_cp: Optional[Checkpoint] = None
    while True:
        try:
            if resume_cp is None:
                result = driver.run(reset=True)
            else:
                result = driver.resume_from(resume_cp, disable_jitter=True)
            watch(emulator.device.tick, final=True)
            break
        except (_Diverged, ReplayFault, GuestResetTimeout) as exc:
            resume_cp = _handle_failure(exc, outcome, manager, watchdog,
                                        driver, plan, on_divergence,
                                        retry_budget, escalate)

    outcome.result = result
    outcome.report = report
    if report is not None:
        report.retries = outcome.retries
    return outcome


def _handle_failure(exc: BaseException, outcome: ResilientReplayResult,
                    manager: CheckpointManager,
                    watchdog: Optional[DivergenceWatchdog],
                    driver: Any, plan: Optional[FaultPlan],
                    policy: str, retry_budget: int,
                    escalate: Callable[[BaseException], BaseException],
                    ) -> Checkpoint:
    """Apply the divergence policy to one failure; returns the
    checkpoint to resume from, or raises the terminal error that
    ``escalate`` builds."""
    if policy == "strict":
        raise escalate(exc)

    # resync (and degrade's hard-fault fallback): retry from a
    # checkpoint; repeated failures back off to earlier checkpoints.
    if outcome.retries >= retry_budget:
        raise escalate(exc)
    if isinstance(exc, GuestResetTimeout):
        # A timeout means wall time was burned waiting, and every
        # checkpoint the wait emitted embeds some of it: only the one
        # the driver took as the wait began (carried by the exception,
        # outside the ring) re-aligns the next epoch's schedule.  A
        # second timeout can't do better — escalate rather than loop.
        if outcome.retries > 0:
            raise escalate(exc)
        checkpoint = exc.checkpoint
    else:
        checkpoint = (manager.latest() if outcome.retries == 0
                      else manager.discard_latest())
    if checkpoint is None:
        raise escalate(exc)
    outcome.retries += 1
    if policy == "degrade":
        outcome.tainted = True
    if plan is not None:
        plan.disarm(driver)
    if watchdog is not None:
        watchdog.rewind()
    return checkpoint


#: Memoized semantic-audit hints per application set — the ROM audit is
#: pure (same apps, same ROM, same findings), so one run per app set
#: serves every divergence report in the process.
_static_hint_cache: Dict[Tuple[str, ...], List[str]] = {}


def _static_hints(apps: Optional[Sequence[Any]]) -> List[str]:
    """Determinism-relevant findings from the semantic ROM audit,
    formatted for :attr:`DivergenceReport.static_hints`.  Best effort:
    any analysis failure yields no hints, never a masked divergence
    error."""
    key = tuple(sorted(getattr(a, "name", repr(a)) for a in (apps or ())))
    if key not in _static_hint_cache:
        try:
            from ..analysis.static.findings import Severity
            from ..analysis.static.tracelint import deep_findings

            report = deep_findings(list(apps) if apps else None)
            _static_hint_cache[key] = [
                f.format() for f in report.sorted()
                if f.severity >= Severity.WARNING]
        except Exception:       # pragma: no cover - defensive only
            _static_hint_cache[key] = []
    return _static_hint_cache[key]


def _escalate(exc: BaseException, *, outcome: ResilientReplayResult,
              report: Optional[DivergenceReport],
              localize: Callable[[int], Tuple[Optional[int], int]],
              apps: Sequence[Any]) -> BaseException:
    """Build the terminal, typed error for a failure the policy cannot
    (or may not) absorb."""
    # ReplayFault / GuestResetTimeout are already typed and surface
    # as-is; the report (a divergence only comes from a watchdog, so it
    # exists then) records the retries either way.
    if report is not None:
        report.retries = outcome.retries
    if isinstance(exc, _Diverged):
        report.last_good_tick, report.first_bad_tick = localize(exc.tick)
        report.static_hints = _static_hints(apps)
        return DivergenceError(report)
    return exc


# ----------------------------------------------------------------------
# Bisection localization
# ----------------------------------------------------------------------
def _localize(manager: CheckpointManager, bad_tick: int, *,
              reference: ActivityLog, replay_log: ActivityLog,
              reset_timeout: int,
              machine: Callable[[], Tuple[Emulator, Any]],
              ) -> Tuple[Optional[int], int]:
    """Narrow the first divergent window ``(last_good, first_bad]``.

    The coarse detection only says "the log had already diverged by
    checkpoint tick ``bad_tick``".  Replaying the window from the last
    good checkpoint with progressively finer checkpoint spacing — on a
    scratch machine from ``machine()``, with a scratch watchdog —
    shrinks the window by ``_LOCALIZE_FAN``× per round until it is at
    most ``_LOCALIZE_GOAL`` ticks wide.  Deterministic by construction:
    the scratch run restores the captured machine (including jitter
    state), so the divergence reproduces at the same tick every round.
    """
    checkpoint = manager.before(bad_tick)
    if checkpoint is None:
        return None, bad_tick
    lo, hi = checkpoint.tick, bad_tick
    rounds = 0
    while hi - lo > _LOCALIZE_GOAL and rounds < _LOCALIZE_ROUNDS:
        rounds += 1
        fine = max(1, (hi - lo) // _LOCALIZE_FAN)
        scratch, _profiler = machine()
        scratch_watchdog = DivergenceWatchdog(reference)
        last_scratch_cp = [checkpoint]

        def hook(cp: Checkpoint) -> None:
            # Runs only inside this round's resume_from below.
            if scratch_watchdog.check(read_activity_log(scratch.kernel)):
                raise _Diverged(cp.tick)
            if cp.tick < hi:
                last_scratch_cp[0] = cp

        driver = PlaybackDriver(scratch, replay_log,
                                reset_timeout=reset_timeout,
                                checkpoint_every=fine,
                                checkpoint_hook=hook)
        try:
            driver.resume_from(checkpoint)
        except _Diverged as stop:
            hi = min(hi, stop.tick)
            checkpoint = last_scratch_cp[0]
            lo = checkpoint.tick
        except (ReplayFault, GuestResetTimeout):  # pragma: no cover
            break
        else:
            # The scratch run never re-diverged inside the window; the
            # bounds we have are the best this ring can do.
            break
    return lo, hi
