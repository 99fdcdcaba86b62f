"""Checkpoint capture/restore for interrupted replays.

A checkpoint is a complete snapshot of the emulated machine at a tick
boundary: CPU registers, RAM image, peripheral latches, virtual-time
bookkeeping, the kernel's host-side syscall context, and (when
profiling) the profiler's counters — everything needed to continue the
replay to a final state *byte-identical* with an uninterrupted run.
Guest-visible kernel state (heaps, databases, the event queue, trap
patches) needs no special handling: it all lives in guest RAM, so the
RAM image carries it.

Flash is write-protected for the whole replay, so checkpoints store
only its SHA-256 and verify equivalence on restore — the same
"equivalent systems" requirement as ``Emulator.load_state``.

Checkpoints live in RAM only.  A replay is a deterministic function of
its archive (β plus δ, §2.4.3), so a checkpoint is a cache of the
replay, not a record of the session: the archive is what persists.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from .errors import CheckpointError

if TYPE_CHECKING:
    from ..emulator.profiling import TraceSnapshot

#: Checkpoints a :class:`CheckpointManager` ring keeps.
RING_SIZE = 4


@dataclass
class Checkpoint:
    """One captured machine state: a manifest plus named binary
    sections.

    A captured profiler trace is held by reference in ``trace``: its
    sealed chunks are shared with the live profiler and with other
    checkpoints.
    """

    manifest: dict
    sections: Dict[str, bytes] = field(default_factory=dict)
    trace: Optional[TraceSnapshot] = field(default=None, compare=False)

    @property
    def tick(self) -> int:
        return self.manifest["tick"]


# ----------------------------------------------------------------------
# Emulator state capture / restore
# ----------------------------------------------------------------------
def capture_emulator(emulator: Any) -> Checkpoint:
    """Snapshot the full machine state into a :class:`Checkpoint`.

    The playback driver layers its own cursors on top (see
    ``PlaybackDriver.capture_checkpoint``); this function captures only
    what the emulator owns.
    """
    kernel = emulator.kernel
    device = emulator.device
    cpu = device.cpu
    mem = device.mem

    sections: Dict[str, bytes] = {"ram": bytes(mem.ram.data)}

    cpu_state = {
        "d": list(cpu.d), "a": list(cpu.a), "pc": cpu.pc,
        "x": cpu.x, "n": cpu.n, "z": cpu.z, "v": cpu.v, "c": cpu.c,
        "s": cpu.s, "imask": cpu.imask, "shadow_sp": cpu._shadow_sp,
        "stopped": cpu.stopped, "cycles": cpu.cycles,
        "instructions": cpu.instructions, "pending_irq": cpu.pending_irq,
    }
    digitizer = device.digitizer
    slot = device.card_slot
    state = {
        "cpu": cpu_state,
        "intc_status": device.intc.status,
        "digitizer": {
            "down": digitizer.down, "x": digitizer.x, "y": digitizer.y,
            "sample": [digitizer.sample.down, digitizer.sample.x,
                       digitizer.sample.y],
            "last_sample_tick": digitizer.last_sample_tick,
            "pending_up": digitizer._pending_up,
        },
        "buttons": {"state": device.buttons.state,
                    "last_event": device.buttons.last_event},
        "rtc_base": device.rtc.base_seconds,
        "timer_tick": device.timer.tick,
        "tick_offset": device.tick_offset,
        "entropy_state": device._entropy_state,
        "seq": device._seq,
        "wakes": sorted(device._wakes),
        "lcd_base": device.lcd_base,
        "allow_native": kernel.allow_native,
        "syscall_ctx": [dict(frame) for frame in kernel.syscalls._ctx],
        "ram_size": len(mem.ram),
        "flash_size": len(mem.flash),
        "flash_sha256": hashlib.sha256(bytes(mem.flash.data)).hexdigest(),
    }

    # The expansion card: the slot's inserted card and the emulator's
    # session card are usually the same object — record the aliasing so
    # restore rebuilds it (the driver's schedule re-inserts self.card).
    card_state = {"slot_event": slot.last_event,
                  "slot": None, "session": None, "aliased": False}
    if slot.card is not None:
        card_state["slot"] = slot.card.name
        sections["card_slot"] = bytes(slot.card.contents)
    if emulator.card is not None:
        if emulator.card is slot.card:
            card_state["aliased"] = True
            card_state["session"] = emulator.card.name
        else:
            card_state["session"] = emulator.card.name
            sections["card_session"] = bytes(emulator.card.contents)
    state["card"] = card_state

    profiler = emulator.profiler
    trace: Optional[TraceSnapshot] = None
    if profiler is not None:
        state["profiler"] = {
            "trace_references": profiler.trace_references,
            "instructions": profiler.instructions,
        }
        sections["prof_opcode_counts"] = profiler.opcode_counts.tobytes()
        sections["prof_counts"] = profiler.counts_bytes()
        if profiler.trace_references:
            trace = profiler.trace_snapshot()
        if profiler.opcode_addresses:
            addrs = array("I", profiler.opcode_addresses.keys())
            ops = array("H", profiler.opcode_addresses.values())
            sections["prof_opaddr_pc"] = addrs.tobytes()
            sections["prof_opaddr_op"] = ops.tobytes()
    else:
        state["profiler"] = None

    manifest = {"tick": device.timer.tick, "emulator": state}
    return Checkpoint(manifest=manifest, sections=sections, trace=trace)


def restore_emulator(emulator: Any, checkpoint: Checkpoint) -> None:
    """Restore a captured machine state onto an equivalent emulator.

    The emulator must be built with the same application set and memory
    sizes (flash SHA-256 and region lengths are verified).  Its pending
    stimulus schedule is cleared — the playback driver re-pushes the
    pending entries from its own side table.
    """
    from ..device.memcard import MemoryCard

    state = checkpoint.manifest.get("emulator")
    if state is None:
        raise CheckpointError("checkpoint carries no emulator state")
    kernel = emulator.kernel
    device = emulator.device
    cpu = device.cpu
    mem = device.mem

    if state["ram_size"] != len(mem.ram) or state["flash_size"] != len(mem.flash):
        raise CheckpointError(
            f"memory geometry mismatch: checkpoint was captured on "
            f"ram={state['ram_size']}/flash={state['flash_size']}, this "
            f"emulator has ram={len(mem.ram)}/flash={len(mem.flash)}")
    flash_sha = hashlib.sha256(bytes(mem.flash.data)).hexdigest()
    if flash_sha != state["flash_sha256"]:
        raise CheckpointError(
            "flash image differs from the checkpointed machine; build "
            "the emulator with the same application set")
    ram = checkpoint.sections.get("ram")
    if ram is None or len(ram) != len(mem.ram):
        raise CheckpointError("checkpoint RAM section missing or mis-sized")
    # Bulk-load through the watched path so a block-caching replay core
    # drops any predecoded blocks built over the previous RAM contents.
    mem.ram.load(mem.ram.base, bytes(ram))

    c = state["cpu"]
    cpu.d[:] = c["d"]
    cpu.a[:] = c["a"]
    cpu.pc = c["pc"]
    cpu.x, cpu.n, cpu.z, cpu.v, cpu.c = c["x"], c["n"], c["z"], c["v"], c["c"]
    cpu.s = c["s"]
    cpu.imask = c["imask"]
    cpu._shadow_sp = c["shadow_sp"]
    cpu.stopped = c["stopped"]
    cpu.cycles = c["cycles"]
    cpu.instructions = c["instructions"]
    cpu.pending_irq = c["pending_irq"]

    device.intc.status = state["intc_status"]
    device.intc.attach_cpu(cpu)

    d = state["digitizer"]
    digitizer = device.digitizer
    digitizer.down = d["down"]
    digitizer.x, digitizer.y = d["x"], d["y"]
    sample = d["sample"]
    digitizer.sample = type(digitizer.sample)(sample[0], sample[1], sample[2])
    digitizer.last_sample_tick = d["last_sample_tick"]
    digitizer._pending_up = d["pending_up"]

    device.buttons.state = state["buttons"]["state"]
    device.buttons.last_event = state["buttons"]["last_event"]

    device.rtc.base_seconds = state["rtc_base"]
    device.timer.tick = state["timer_tick"]
    device.tick_offset = state["tick_offset"]
    device._entropy_state = state["entropy_state"]
    device._seq = state["seq"]
    device._wakes = list(state["wakes"])  # sorted list is a valid heap
    device._stimuli.clear()               # driver re-pushes pending entries
    device.lcd_base = state["lcd_base"]

    kernel.allow_native = state["allow_native"]
    kernel.syscalls._ctx = [dict(frame) for frame in state["syscall_ctx"]]

    card = state["card"]
    slot = device.card_slot
    slot.last_event = card["slot_event"]
    if card["slot"] is not None:
        slot.card = MemoryCard(card["slot"],
                               bytearray(checkpoint.sections["card_slot"]))
    else:
        slot.card = None
    if card["session"] is None:
        emulator.card = None
    elif card["aliased"]:
        emulator.card = slot.card
    else:
        emulator.card = MemoryCard(
            card["session"], bytearray(checkpoint.sections["card_session"]))

    prof_state = state.get("profiler")
    profiler = emulator.profiler
    if prof_state is not None:
        if profiler is None:
            raise CheckpointError(
                "checkpoint was captured with profiling enabled; call "
                "start_profiling() before restoring")
        if profiler.trace_references != prof_state["trace_references"]:
            raise CheckpointError("profiler trace_references setting differs "
                                  "from the checkpointed run")
        profiler.instructions = prof_state["instructions"]
        profiler.opcode_counts = array("Q")
        profiler.opcode_counts.frombytes(checkpoint.sections["prof_opcode_counts"])
        profiler.restore_counts(checkpoint.sections["prof_counts"])
        if checkpoint.trace is not None:
            profiler.restore_snapshot(checkpoint.trace)
        profiler.opcode_addresses = {}
        if "prof_opaddr_pc" in checkpoint.sections:
            addrs = array("I")
            addrs.frombytes(checkpoint.sections["prof_opaddr_pc"])
            ops = array("H")
            ops.frombytes(checkpoint.sections["prof_opaddr_op"])
            profiler.opcode_addresses = dict(zip(addrs, ops))
    elif profiler is not None:
        raise CheckpointError(
            "checkpoint was captured without profiling; restore onto an "
            "emulator that has not started profiling")


class CheckpointManager:
    """Keeps the :data:`RING_SIZE` most recent checkpoints of a run in
    an in-memory ring.

    The resilient runner's ``resync`` policy retries from the latest
    checkpoint and falls back to earlier ones on repeated failure
    (:meth:`discard_latest`).
    """

    def __init__(self):
        self._ring: List[Checkpoint] = []

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def ticks(self) -> List[int]:
        return [cp.tick for cp in self._ring]

    def add(self, checkpoint: Checkpoint) -> None:
        self._ring.append(checkpoint)
        del self._ring[:-RING_SIZE]

    def latest(self) -> Optional[Checkpoint]:
        return self._ring[-1] if self._ring else None

    def earliest(self) -> Optional[Checkpoint]:
        return self._ring[0] if self._ring else None

    def discard_latest(self) -> Optional[Checkpoint]:
        """Drop the newest checkpoint (it leads into the failure) and
        return the next-older one, or None when the ring is empty."""
        if self._ring:
            self._ring.pop()
        return self.latest()

    def before(self, tick: int) -> Optional[Checkpoint]:
        """The newest checkpoint strictly before ``tick``."""
        best = None
        for cp in self._ring:
            if cp.tick < tick and (best is None or cp.tick > best.tick):
                best = cp
        return best
