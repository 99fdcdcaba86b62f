"""Session collection: the paper's §2.1 procedure, end to end.

A *session* is "the period of time that inputs are collected".  The
chronology (quoted from the paper):

1. Instrument a handheld to collect user inputs
2. Transfer the initial state of a handheld to the desktop
3. Start collecting inputs
4. Allow the user to operate the handheld normally
5. Transfer the activity log from the handheld to the desktop

:func:`collect_session` performs all five against a simulated m515
driven by a :class:`~repro.workloads.scripts.UserScript`, returning the
desktop-side bundle a replay needs — plus the handheld's own final
state, which §3.4's validation compares against the emulated one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..device import constants as C
from ..hacks import HackManager
from ..palmos import AppSpec, PalmOS
from ..palmos.database import DatabaseImage
from ..tracelog import ActivityLog, InitialState, create_log_database, read_activity_log
from .scripts import UserScript


@dataclass
class CollectedSession:
    """Everything a collection run produces."""

    name: str
    initial_state: InitialState
    log: ActivityLog
    final_state: List[DatabaseImage] = field(default_factory=list)
    elapsed_ticks: int = 0
    instructions: int = 0

    @property
    def events(self) -> int:
        return len(self.log)

    def elapsed_hms(self) -> str:
        seconds = self.elapsed_ticks // C.TICKS_PER_SECOND
        return f"{seconds // 3600:02d}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"


def collect_session(
    apps: Sequence[AppSpec],
    script: UserScript,
    name: str = "session",
    entropy_seed: int = 0x0D15_EA5E,
    rtc_base: Optional[int] = None,
    ram_size: int = 4 << 20,
    flash_size: int = 1 << 20,
    default_app: Optional[str] = None,
    setup=None,
    card=None,
    idle_tail_ticks: int = 100,
) -> CollectedSession:
    """Run one collection session on a fresh simulated handheld.

    ``setup(kernel)``, if given, runs after the factory boot and before
    instrumentation — the place to pre-install user databases.
    ``card`` is the memory card the script may insert; its contents are
    snapshotted into the initial state (the card extension).
    """
    kernel = PalmOS(apps=apps, ram_size=ram_size, flash_size=flash_size,
                    rtc_base=rtc_base, entropy_seed=entropy_seed,
                    default_app=default_app)
    kernel.boot()  # factory boot: formats storage, creates psysLaunchDB
    if setup is not None:
        setup(kernel)

    # 1. Instrument: empty common database + the five hacks.
    create_log_database(kernel)
    HackManager(kernel).install_standard()

    # 2. Transfer the initial state (ROMTransfer + backup bits + HotSync).
    initial_state = InitialState.capture(kernel, card=card)

    # 3./4. The session proper: soft reset, then the user drives it.
    kernel.boot()
    start_instructions = kernel.device.cpu.instructions
    script.apply(kernel.device, card=card)
    kernel.device.advance(script.duration_ticks() + idle_tail_ticks)
    kernel.device.run_until_idle()

    # 5. Transfer the activity log (and the final state for validation).
    log = read_activity_log(kernel)
    final_state = kernel.hotsync_backup()
    return CollectedSession(
        name=name,
        initial_state=initial_state,
        log=log,
        final_state=final_state,
        elapsed_ticks=kernel.device.tick,
        instructions=kernel.device.cpu.instructions - start_instructions,
    )
