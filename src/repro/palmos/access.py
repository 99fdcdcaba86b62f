"""Guest-memory accessors.

Kernel data structures live in guest RAM; host Python code manipulates
them through one of two accessors:

* :class:`TracedAccess` — charged bus cycles and seen by the reference
  tracer exactly as the CPU's read/write helpers would charge and
  trace them.  Used by trap semantics: this is the "microcode" path,
  and it is what makes hack overhead and memory-reference statistics
  come out of the system organically.  Its word arms are picked once
  per tracer and sanitizer, not per access: under no tracer or the
  standard profiler an aligned RAM word goes straight to the backing
  store and its tokens straight onto the profiler's pending list (rr's
  syscall buffering, recorded in process); anything else takes the
  per-word CPU path.  RAM byte runs move in one slice with the same
  cycle charge and the same trace tokens as byte-by-byte access;
  sanitized or watched runs keep the loop.
* :class:`HostAccess` — raw access to the backing store, free and
  invisible.  Used for host-side operations the real system performs
  over the HotSync cable (state import/export) and by tests.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Protocol

if TYPE_CHECKING:
    from ..m68k.bus import FlatMemory
    from ..m68k.cpu import CPU

_PROFILER: Any = None

_MASK32 = 0xFFFFFFFF

#: Packed profiler token kind bits (``(kind | region << 4) << 32``):
#: an instruction fetch from flash, a RAM data read, a RAM data write.
_FETCH_FLASH = 0x10 << 32
_READ_RAM = 0x1 << 32
_WRITE_RAM = 0x2 << 32

#: Longest traced RAM byte run whose tokens are built as a list (they
#: join the profiler's pending list); longer runs build one numpy
#: block, which costs less from about 128 bytes up.
_LIST_RUN_MAX = 64

_ST2 = struct.Struct(">H")
_ST4 = struct.Struct(">I")

#: The word arms :meth:`TracedAccess._route` may replace per instance.
_WORD_ARMS = ("read8", "read16", "read32", "write8", "write16", "write32")


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

    The class methods are the reference semantics: ``_note_fetch``,
    then ``cpu.read``/``cpu.write``.  On a :class:`MemoryMap` bus
    :meth:`_route` shadows them per instance with direct arms whenever
    the bus has no sanitizer and its tracer is absent or the standard
    profiler tracing references without per-pc attribution; the map
    re-runs it each time its ``tracer`` or ``san`` is assigned.
    """

    def __init__(self, cpu: "CPU"):
        self._cpu = cpu
        #: What the routed path records into: ``False`` for the
        #: reference path, ``None`` for the direct untraced arms, else
        #: the profiler's pending-token list.
        self._sink: Any = False
        hooks = getattr(cpu.bus, "route_hooks", None)
        if hooks is not None:
            hooks.append(self._route)
            self._route()

    def _route(self) -> None:
        """Pick the word arms for the bus's current tracer and
        sanitizer (see the class docstring)."""
        for name in _WORD_ARMS:
            self.__dict__.pop(name, None)
        self._sink = False
        bus: Any = self._cpu.bus
        if bus.san is not None:
            return
        tracer = bus.tracer
        if tracer is None:
            self._sink = None
        elif (type(tracer) is _profiler_type()
              and tracer.trace_references
              and not tracer.track_reference_pcs):
            self._sink = tracer._pending
        else:
            return
        self.__dict__.update(self._direct_arms(self._sink))

    def _direct_arms(self, pending: Optional[List[int]],
                     ) -> Dict[str, Callable[..., Any]]:
        """Word arms that charge and trace an aligned in-RAM access as
        the reference semantics would — cycles, then (traced) the
        companion fetch token at ``cpu.pc`` and the data tokens, then
        the write-watch check — and hand every other access (odd
        address, flash, hardware registers, a pc outside RAM and
        flash) to the reference semantics."""
        cpu = self._cpu
        bus: Any = cpu.bus
        ram = bus._ram_data
        base = bus._ram_base
        ram_limit = bus.ram_limit
        last1, last2, last4 = ram_limit - 1, ram_limit - 2, ram_limit - 4
        up2, up4 = _ST2.unpack_from, _ST4.unpack_from
        pk2, pk4 = _ST2.pack_into, _ST4.pack_into
        slow_read = self._slow_read
        slow_write = self._slow_write

        if pending is None:
            def read8(addr: int) -> int:
                addr &= _MASK32
                if base <= addr <= last1:
                    cpu.cycles += 4
                    return ram[addr - base]
                return slow_read(addr, 1)

            def read16(addr: int) -> int:
                addr &= _MASK32
                if not addr & 1 and base <= addr <= last2:
                    cpu.cycles += 4
                    return up2(ram, addr - base)[0]
                return slow_read(addr, 2)

            def read32(addr: int) -> int:
                addr &= _MASK32
                if not addr & 1 and base <= addr <= last4:
                    cpu.cycles += 8
                    return up4(ram, addr - base)[0]
                return slow_read(addr, 4)

            def write8(addr: int, value: int) -> None:
                addr &= _MASK32
                if base <= addr <= last1:
                    cpu.cycles += 4
                    w = bus.ram_watch
                    if w is not None and (addr >> 8) in w.pages:
                        w.hit(addr)
                    ram[addr - base] = value & 0xFF
                    return
                slow_write(addr, 1, value)

            def write16(addr: int, value: int) -> None:
                addr &= _MASK32
                if not addr & 1 and base <= addr <= last2:
                    cpu.cycles += 4
                    w = bus.ram_watch
                    if w is not None and (addr >> 8) in w.pages:
                        w.hit(addr)
                    pk2(ram, addr - base, value & 0xFFFF)
                    return
                slow_write(addr, 2, value)

            def write32(addr: int, value: int) -> None:
                addr &= _MASK32
                if not addr & 1 and base <= addr <= last4:
                    cpu.cycles += 8
                    w = bus.ram_watch
                    if w is not None and ((addr >> 8) in w.pages
                                          or ((addr + 2) >> 8) in w.pages):
                        w.hit(addr)
                        w.hit(addr + 2)
                    pk4(ram, addr - base, value & _MASK32)
                    return
                slow_write(addr, 4, value)
        else:
            extend = pending.extend
            flash_base = bus._flash_base
            flash_limit = bus.flash_limit

            def fetch_token() -> int:
                """The companion fetch's token, or -1 when ``cpu.pc``
                is outside RAM and flash."""
                pc = cpu.pc & 0xFFFFFFFE
                if pc < ram_limit:
                    return pc
                if flash_base <= pc < flash_limit:
                    return pc | _FETCH_FLASH
                return -1

            def read8(addr: int) -> int:
                addr &= _MASK32
                ftok = fetch_token()
                if ftok >= 0 and base <= addr <= last1:
                    extend((ftok, addr | _READ_RAM))
                    cpu.cycles += 8
                    return ram[addr - base]
                return slow_read(addr, 1)

            def read16(addr: int) -> int:
                addr &= _MASK32
                ftok = fetch_token()
                if ftok >= 0 and not addr & 1 and base <= addr <= last2:
                    extend((ftok, addr | _READ_RAM))
                    cpu.cycles += 8
                    return up2(ram, addr - base)[0]
                return slow_read(addr, 2)

            def read32(addr: int) -> int:
                addr &= _MASK32
                ftok = fetch_token()
                if ftok >= 0 and not addr & 1 and base <= addr <= last4:
                    extend((ftok, addr | _READ_RAM,
                            (addr + 2) | _READ_RAM))
                    cpu.cycles += 12
                    return up4(ram, addr - base)[0]
                return slow_read(addr, 4)

            def write8(addr: int, value: int) -> None:
                addr &= _MASK32
                ftok = fetch_token()
                if ftok >= 0 and base <= addr <= last1:
                    extend((ftok, addr | _WRITE_RAM))
                    cpu.cycles += 8
                    w = bus.ram_watch
                    if w is not None and (addr >> 8) in w.pages:
                        w.hit(addr)
                    ram[addr - base] = value & 0xFF
                    return
                slow_write(addr, 1, value)

            def write16(addr: int, value: int) -> None:
                addr &= _MASK32
                ftok = fetch_token()
                if ftok >= 0 and not addr & 1 and base <= addr <= last2:
                    extend((ftok, addr | _WRITE_RAM))
                    cpu.cycles += 8
                    w = bus.ram_watch
                    if w is not None and (addr >> 8) in w.pages:
                        w.hit(addr)
                    pk2(ram, addr - base, value & 0xFFFF)
                    return
                slow_write(addr, 2, value)

            def write32(addr: int, value: int) -> None:
                addr &= _MASK32
                ftok = fetch_token()
                if ftok >= 0 and not addr & 1 and base <= addr <= last4:
                    extend((ftok, addr | _WRITE_RAM,
                            (addr + 2) | _WRITE_RAM))
                    cpu.cycles += 12
                    w = bus.ram_watch
                    if w is not None and ((addr >> 8) in w.pages
                                          or ((addr + 2) >> 8) in w.pages):
                        w.hit(addr)
                        w.hit(addr + 2)
                    pk4(ram, addr - base, value & _MASK32)
                    return
                slow_write(addr, 4, value)

        return {"read8": read8, "read16": read16, "read32": read32,
                "write8": write8, "write16": write16, "write32": write32}

    def _note_fetch(self) -> None:
        cpu = self._cpu
        if getattr(cpu.bus, "tracer", None) is not None:
            cpu.bus.fetch16(cpu.pc & 0xFFFFFFFE)
            cpu.cycles += 4

    def _slow_read(self, addr: int, size: int) -> int:
        self._note_fetch()
        return self._cpu.read(addr, size)

    def _slow_write(self, addr: int, size: int, value: int) -> None:
        self._note_fetch()
        self._cpu.write(addr, size, value)

    def read8(self, addr: int) -> int:
        return self._slow_read(addr, 1)

    def read16(self, addr: int) -> int:
        return self._slow_read(addr, 2)

    def read32(self, addr: int) -> int:
        return self._slow_read(addr, 4)

    def write8(self, addr: int, value: int) -> None:
        self._slow_write(addr, 1, value)

    def write16(self, addr: int, value: int) -> None:
        self._slow_write(addr, 2, value)

    def write32(self, addr: int, value: int) -> None:
        self._slow_write(addr, 4, value)

    def _run_tokens(self, addr: int, length: int, kb: int) -> Any:
        """The packed trace tokens of a byte run, exactly as the
        per-byte loop records them: one microcode fetch token before
        every even-indexed byte, one data token per byte.  A list for
        short runs, a numpy block for long ones; None when ``cpu.pc``
        is outside RAM and flash."""
        cpu = self._cpu
        bus: Any = cpu.bus
        pcf = cpu.pc & 0xFFFFFFFE
        if bus._ram_base <= pcf and pcf < bus.ram_limit:
            ftok = pcf                          # fetch, RAM
        elif bus._flash_base <= pcf and pcf < bus.flash_limit:
            ftok = pcf | _FETCH_FLASH           # fetch, flash
        else:
            return None
        pairs = length >> 1
        if length <= _LIST_RUN_MAX:
            data = list(range(addr | kb, (addr + length) | kb))
            toks = [ftok] * (length + pairs + (length & 1))
            toks[1::3] = data[0::2]
            toks[2::3] = data[1::2]
            return toks
        import numpy as np

        toks = np.empty(length + pairs + (length & 1), dtype=np.uint64)
        body = toks[:3 * pairs].reshape(pairs, 3)
        body[:, 0] = ftok
        body[:, 1] = np.arange(addr, addr + 2 * pairs, 2,
                               dtype=np.uint64) + kb
        body[:, 2] = np.arange(addr + 1, addr + 2 * pairs, 2,
                               dtype=np.uint64) + kb
        if length & 1:
            toks[3 * pairs] = ftok
            toks[3 * pairs + 1] = (addr + length - 1) + kb
        return toks

    def _ram_run(self, addr: int, length: int, write: bool) -> Optional[int]:
        """Charge a whole RAM byte run at once, or decline it.

        Returns the run's offset into the RAM backing store after
        charging exactly what the per-byte loop would: four cycles per
        byte, plus — while the profiler traces — the run's trace tokens
        and the four-cycle companion fetch before every even-indexed
        byte.  Returns None, charging nothing, when the run must take
        the loop: empty runs, any byte outside RAM, a watched code page
        under a write, or a bus the word arms are not routed for (a
        sanitizer or any other tracer setup).
        """
        cpu = self._cpu
        bus: Any = cpu.bus
        sink = self._sink
        if (sink is False or length < 1
                or not (bus._ram_base <= addr
                        and addr + length <= bus.ram_limit)):
            return None
        if write:
            w = bus.ram_watch
            if w is not None and w.pages and not w.pages.isdisjoint(
                    range(addr >> 8, ((addr + length - 1) >> 8) + 1)):
                return None
        if sink is None:
            cpu.cycles += 4 * length
            return addr - bus._ram_base
        toks = self._run_tokens(addr, length, _WRITE_RAM if write
                                else _READ_RAM)
        if toks is None:
            return None
        bus.tracer.bulk_references(toks)
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
