"""The replay emulator — our modified POSE (§2.4).

:class:`Emulator` wraps a :class:`~repro.palmos.kernel.PalmOS` machine
with the POSE-specific machinery the paper describes:

* **state import** — "we import all of the applications and databases
  corresponding with the initial state of the specified session.  We
  then reset the emulator to get it into the same processor state as
  when the activity log started" (§2.4.3);
* **profiling** — attach a :class:`~repro.emulator.profiling.Profiler`
  and disable POSE's native trap optimisation so the ROM TrapDispatcher
  actually executes, as §2.4.2 requires for valid data;
* the **equivalent-system check** — replay is only meaningful when the
  emulator's ROM matches the device's flash image byte for byte (the
  deterministic state machine model requires *equivalent* machines).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..device import constants as C
from ..palmos import AppSpec, PalmOS
from ..tracelog import InitialState
from .profiling import Profiler


class RomMismatchError(Exception):
    """The emulator's built ROM differs from the captured flash image,
    so the two machines are not equivalent state machines."""


class Emulator:
    """A desktop emulator for Palm OS devices (POSE equivalent)."""

    def __init__(
        self,
        apps: Sequence[AppSpec] = (),
        ram_size: int = C.RAM_SIZE,
        flash_size: int = C.FLASH_SIZE,
        entropy_seed: int = 0xE11A_B0BA,
        rtc_base: Optional[int] = None,
        default_app: Optional[str] = None,
        core: str = "fast",
    ):
        self.kernel = PalmOS(
            apps=apps,
            ram_size=ram_size,
            flash_size=flash_size,
            rtc_base=rtc_base,
            entropy_seed=entropy_seed,
            default_app=default_app,
            core=core,
        )
        self.profiler: Optional[Profiler] = None
        #: The session's memory card, reconstructed from the initial
        #: state (the card extension); the playback driver re-inserts
        #: it at the recorded transition ticks.
        self.card = None

    @property
    def device(self):
        return self.kernel.device

    # ------------------------------------------------------------------
    # Initial state (§2.4.3)
    # ------------------------------------------------------------------
    def load_state(self, state: InitialState, verify_rom: bool = True,
                   restore_clock: bool = True,
                   final_reset: bool = True) -> None:
        """Import the collected initial state and reset.

        ``restore_clock=False`` leaves the emulator's own RTC base in
        place, modelling POSE's host-time RTC approximation (§2.4.4).
        ``final_reset=False`` defers the session-start reset to the
        playback driver: the reset must happen *after* the replay
        overrides are installed, because the boot path itself calls
        ``SysRandom`` and that seed comes from the recorded queue.
        """
        if verify_rom:
            own = self.kernel.rom_transfer()
            if own != state.flash_image:
                raise RomMismatchError(
                    "emulator ROM differs from the captured flash image; "
                    "build the emulator with the same application set")
        else:
            self.kernel.device.mem.load_flash_image(state.flash_image)
        if restore_clock and state.rtc_base is not None:
            self.kernel.device.rtc.base_seconds = state.rtc_base
        self.card = state.make_card()
        # Boot once so the storage heap is formatted (this "warm-up"
        # boot happens on the emulator's own entropy and is not part of
        # the session), then import the databases.  The session-start
        # reset keeps the storage heap and reinstalls any imported
        # hacks, leaving the machine exactly where the handheld was
        # when its session began.
        self.kernel.boot()
        self.kernel.hotsync_install(state.databases)
        if final_reset:
            self.kernel.boot()

    # ------------------------------------------------------------------
    # Profiling (§2.4.2)
    # ------------------------------------------------------------------
    def start_profiling(self, trace_references: bool = True,
                        track_opcode_addresses: bool = False,
                        track_reference_pcs: bool = False) -> Profiler:
        """Enable profiling: native trap optimisations are ignored in
        favour of the original (ROM) code path.

        ``track_opcode_addresses=True`` additionally records the pc of
        every executed opcode word (``Profiler.opcode_addresses``) so
        the static analyzer can cross-check its CFG against the
        dynamically executed instruction stream.

        ``track_reference_pcs=True`` (implies the per-address hook)
        attributes every data reference to the instruction that issued
        it (``Profiler.reference_pcs``), which is what the semantic
        analyzer's static RAM/flash classification is checked against.
        """
        profiler = Profiler(trace_references=trace_references,
                            track_reference_pcs=track_reference_pcs)
        self.profiler = profiler
        self.kernel.device.mem.tracer = profiler
        cpu = self.kernel.device.cpu
        if track_opcode_addresses or track_reference_pcs:
            # At hook time the CPU has already advanced pc past the
            # opcode word, so the instruction address is pc - 2.
            cpu.opcode_hook = (
                lambda op: profiler.opcode_at((cpu.pc - 2) & 0xFFFFFFFF, op))
            # Interrupt frames are pushed between instructions; stop
            # attributing them to the previously executed opcode.
            cpu.interrupt_hook = profiler.detach_pc
        else:
            cpu.opcode_hook = profiler.opcode
        self.kernel.allow_native = False
        return profiler

    def stop_profiling(self) -> Optional[Profiler]:
        profiler = self.profiler
        self.profiler = None
        self.kernel.device.mem.tracer = None
        self.kernel.device.cpu.opcode_hook = None
        self.kernel.device.cpu.interrupt_hook = None
        self.kernel.allow_native = True
        return profiler

    # ------------------------------------------------------------------
    # Final state (HotSync out, §3.1)
    # ------------------------------------------------------------------
    def final_state(self):
        """HotSync the emulated system to obtain its final state."""
        return self.kernel.hotsync_backup()
