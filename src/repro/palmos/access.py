"""Guest-memory accessors.

Kernel data structures live in guest RAM; host Python code manipulates
them through one of two accessors:

* :class:`TracedAccess` — goes through the CPU's read/write helpers, so
  every access is charged bus cycles and seen by the reference tracer.
  Used by trap semantics: this is the "microcode" path, and it is what
  makes hack overhead and memory-reference statistics come out of the
  system organically.  Long RAM byte runs move in one slice with the
  same cycle charge (and, under the profiler, the same trace tokens)
  as byte-by-byte access; sanitized or watched runs keep the loop.
* :class:`HostAccess` — raw access to the backing store, free and
  invisible.  Used for host-side operations the real system performs
  over the HotSync cable (state import/export) and by tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Protocol

if TYPE_CHECKING:
    from ..m68k.bus import FlatMemory
    from ..m68k.cpu import CPU

_PROFILER: Any = None


def _profiler_type() -> Any:
    """Lazy :class:`repro.emulator.profiling.Profiler` (import cycle)."""
    global _PROFILER
    if _PROFILER is None:
        from ..emulator.profiling import Profiler
        _PROFILER = Profiler
    return _PROFILER


class GuestAccess(Protocol):
    def read8(self, addr: int) -> int: ...
    def read16(self, addr: int) -> int: ...
    def read32(self, addr: int) -> int: ...
    def write8(self, addr: int, value: int) -> None: ...
    def write16(self, addr: int, value: int) -> None: ...
    def write32(self, addr: int, value: int) -> None: ...
    def read_bytes(self, addr: int, length: int) -> bytes: ...
    def write_bytes(self, addr: int, data: bytes) -> None: ...


class TracedAccess:
    """Access through the CPU: cycle-charged and reference-traced.

    Kernel semantics executed in Python stand in for ROM code a native
    kernel would run; on real hardware every such memory operation is
    interleaved with instruction fetches of that ROM code.  To keep the
    profiled fetch/data and flash/RAM mixes honest, each microcode
    access is therefore accompanied by one instruction fetch at the
    current PC — which during a trap's F-line callback is the servicing
    ROM stub in flash.  The companion fetch only happens while a tracer
    is attached (profiled runs); it costs the same four cycles a real
    fetch would.
    """

    def __init__(self, cpu: "CPU"):
        self._cpu = cpu

    def _note_fetch(self) -> None:
        cpu = self._cpu
        if getattr(cpu.bus, "tracer", None) is not None:
            cpu.bus.fetch16(cpu.pc & 0xFFFFFFFE)
            cpu.cycles += 4

    def read8(self, addr: int) -> int:
        self._note_fetch()
        return self._cpu.read(addr, 1)

    def read16(self, addr: int) -> int:
        self._note_fetch()
        return self._cpu.read(addr, 2)

    def read32(self, addr: int) -> int:
        self._note_fetch()
        return self._cpu.read(addr, 4)

    def write8(self, addr: int, value: int) -> None:
        self._note_fetch()
        self._cpu.write(addr, 1, value)

    def write16(self, addr: int, value: int) -> None:
        self._note_fetch()
        self._cpu.write(addr, 2, value)

    def write32(self, addr: int, value: int) -> None:
        self._note_fetch()
        self._cpu.write(addr, 4, value)

    def _bulk_tokens(self, addr: int, length: int, data_kb: int) -> Any:
        """The packed trace tokens of a byte run, exactly as the
        per-byte loop records them: one microcode fetch token before
        every even-indexed byte, one data token per byte."""
        import numpy as np

        cpu = self._cpu
        bus: Any = cpu.bus
        pcf = cpu.pc & 0xFFFFFFFE
        if bus._ram_base <= pcf and pcf < bus.ram_limit:
            ftok = pcf                          # fetch, RAM
        elif bus._flash_base <= pcf and pcf < bus.flash_limit:
            ftok = pcf | (0x10 << 32)           # fetch, flash
        else:
            return None
        pairs = length >> 1
        toks = np.empty(length + pairs + (length & 1), dtype=np.uint64)
        body = toks[:3 * pairs].reshape(pairs, 3)
        body[:, 0] = ftok
        body[:, 1] = np.arange(addr, addr + 2 * pairs, 2,
                               dtype=np.uint64) + data_kb
        body[:, 2] = np.arange(addr + 1, addr + 2 * pairs, 2,
                               dtype=np.uint64) + data_kb
        if length & 1:
            toks[3 * pairs] = ftok
            toks[3 * pairs + 1] = (addr + length - 1) + data_kb
        return toks

    def _ram_run(self, addr: int, length: int, write: bool) -> Optional[int]:
        """Charge a whole RAM byte run at once, or decline it.

        Returns the run's offset into the RAM backing store after
        charging exactly what the per-byte loop would: four cycles per
        byte, plus — while the profiler traces — the run's trace tokens
        and the four-cycle companion fetch before every even-indexed
        byte.  Returns None, charging nothing, when the run must take
        the loop: short runs, any byte outside RAM, a sanitizer, a
        watched code page under a write, or any other tracer setup.
        """
        cpu = self._cpu
        bus: Any = cpu.bus          # a MemoryMap when _ram_base exists
        if (length <= 8 or getattr(bus, "_ram_base", None) is None
                or bus.san is not None
                or not (bus._ram_base <= addr
                        and addr + length <= bus.ram_limit)):
            return None
        if write:
            w = bus.ram_watch
            if w is not None and w.pages and not w.pages.isdisjoint(
                    range(addr >> 8, ((addr + length - 1) >> 8) + 1)):
                return None
        tracer = bus.tracer
        if tracer is None:
            cpu.cycles += 4 * length
            return addr - bus._ram_base
        if (type(tracer) is not _profiler_type()
                or not tracer.trace_references
                or tracer.track_reference_pcs):
            return None
        toks = self._bulk_tokens(addr, length,
                                 (0x2 if write else 0x1) << 32)
        if toks is None:
            return None
        tracer.bulk_references(toks)
        cpu.cycles += 4 * length + 4 * ((length + 1) >> 1)
        return addr - bus._ram_base

    def read_bytes(self, addr: int, length: int) -> bytes:
        cpu = self._cpu
        off = self._ram_run(addr, length, False)
        if off is not None:
            bus: Any = cpu.bus
            return bytes(bus._ram_data[off:off + length])
        out = bytearray()
        for i in range(length):
            if i % 2 == 0:
                self._note_fetch()
            out.append(cpu.read(addr + i, 1))
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        cpu = self._cpu
        off = self._ram_run(addr, len(data), True)
        if off is not None:
            bus: Any = cpu.bus
            bus._ram_data[off:off + len(data)] = data
            return
        for i, byte in enumerate(data):
            if i % 2 == 0:
                self._note_fetch()
            cpu.write(addr + i, 1, byte)


class HostAccess:
    """Raw access to a :class:`repro.m68k.bus.FlatMemory` (no tracing)."""

    def __init__(self, memory: "FlatMemory"):
        self._memory = memory

    def read8(self, addr: int) -> int:
        return self._memory.read8(addr)

    def read16(self, addr: int) -> int:
        return self._memory.read16(addr)

    def read32(self, addr: int) -> int:
        return self._memory.read32(addr)

    def write8(self, addr: int, value: int) -> None:
        self._memory.write8(addr, value)

    def write16(self, addr: int, value: int) -> None:
        self._memory.write16(addr, value)

    def write32(self, addr: int, value: int) -> None:
        self._memory.write32(addr, value)

    def read_bytes(self, addr: int, length: int) -> bytes:
        return self._memory.dump(addr, length)

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._memory.load(addr, bytes(data))
