"""The Palm m515 memory map: 16 MB RAM, 4 MB flash, hardware registers.

This is the single point through which every guest memory access flows,
which makes it the natural place to hang the reference tracer (the
paper's modified POSE records memory references the same way, at the
bus).  Long accesses count as two references: the DragonBall has a
16-bit external bus.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol

from ..m68k.bus import FlatMemory, WriteWatch, check_aligned
from ..m68k.errors import AddressError, BusError
from . import constants as C

#: Region codes used by tracers and the cache study.
REGION_RAM = 0
REGION_FLASH = 1
REGION_HW = 2
REGION_CARD = 3

#: Access kinds.
KIND_FETCH = 0
KIND_READ = 1
KIND_WRITE = 2

from .memcard import CARD_WINDOW_BASE as _CARD_BASE  # noqa: E402
from .memcard import CARD_WINDOW_MAX as _CARD_MAX  # noqa: E402

_CARD_LIMIT = _CARD_BASE + _CARD_MAX


class Tracer(Protocol):
    """Receives one call per bus-width reference."""

    def reference(self, addr: int, kind: int, region: int) -> None: ...


class SanitizerHook(Protocol):
    """Shadow-state checker for guest data accesses (see
    :mod:`repro.analysis.sanitizer`).  Called once per CPU data access
    with the architectural width — not per bus-width reference, and
    never for instruction fetches."""

    def check_read(self, addr: int, size: int) -> None: ...

    def check_write(self, addr: int, size: int) -> None: ...


class HardwareRegs:
    """Routes the 0xFFFFF000 register window to the peripherals."""

    def __init__(self, device):
        self._device = device

    def read32(self, addr: int) -> int:
        d = self._device
        if addr == C.REG_INT_STATUS:
            return d.intc.status
        if addr == C.REG_TMR_TICKS:
            return d.guest_tick & 0xFFFFFFFF
        if addr == C.REG_RTC_SECONDS:
            return d.rtc.seconds_at(d.timer.tick)
        if addr == C.REG_PEN_SAMPLE:
            return d.digitizer.read_sample_register()
        if addr == C.REG_KEY_STATE:
            return d.buttons.state
        if addr == C.REG_KEY_EVENT:
            return d.buttons.last_event
        if addr == C.REG_LCD_BASE:
            return d.lcd_base
        if addr == C.REG_DEVICE_ID:
            return C.DEVICE_ID_M515
        if addr == C.REG_RNG_ENTROPY:
            return d.entropy()
        if addr == C.REG_CARD_EVENT:
            return d.card_slot.last_event
        if addr == C.REG_CARD_STATUS:
            return 1 if d.card_slot.present else 0
        raise BusError(addr)

    def write32(self, addr: int, value: int) -> None:
        d = self._device
        if addr == C.REG_INT_ACK:
            d.intc.ack(value)
            return
        if addr == C.REG_LCD_BASE:
            d.lcd_base = value & 0xFFFFFFFF
            return
        raise BusError(addr)


class MemoryMap:
    """Implements the :class:`repro.m68k.bus.Bus` protocol for the m515."""

    def __init__(self, device, ram_size: int = C.RAM_SIZE,
                 flash_size: int = C.FLASH_SIZE):
        #: Called with no arguments after ``tracer`` or ``san`` is
        #: assigned: accessors that pick their access path per tracer
        #: and sanitizer (``TracedAccess``) re-pick it here.
        self.route_hooks: List[Callable[[], None]] = []
        self._device = device
        self.ram = FlatMemory(ram_size, base=C.RAM_BASE)
        self.flash = FlatMemory(flash_size, base=C.FLASH_BASE)
        self.hw = HardwareRegs(device)
        self.ram_limit = C.RAM_BASE + ram_size
        self.flash_limit = C.FLASH_BASE + flash_size
        self.tracer: Optional[Tracer] = None
        #: When True, guest writes to flash raise (real flash needs a
        #: programming sequence; a stray write is a guest bug).
        self.flash_write_protect = True
        #: Mirror of ``self.ram.watch`` consulted by the inline RAM
        #: write paths below (which bypass ``FlatMemory``); a replay
        #: core installing a code watch must set both.
        self.ram_watch: Optional[WriteWatch] = None
        #: Memory sanitizer consulted by the inline RAM arms (reads and
        #: writes only; fetches are covered by the static layer).
        self.san: Optional[SanitizerHook] = None
        # The RAM/flash fast paths index the backing bytearrays
        # directly.  FlatMemory mutates its buffer only in place (slice
        # assignment), so these aliases stay valid for the lifetime of
        # the map.
        self._ram_data = self.ram.data
        self._ram_base = self.ram.base
        self._flash_data = self.flash.data
        self._flash_base = self.flash.base

    def __setattr__(self, name: str, value) -> None:
        # Assigning ``tracer`` also caches a paired-reference callable:
        # a 32-bit access emits two consecutive bus-width references,
        # and the hot 32-bit arms fold them into one call.  Tracers may
        # provide ``reference_pair`` (the profiler's fast path does);
        # anything else gets a wrapper that calls ``reference`` twice,
        # preserving the one-call-per-reference contract exactly.
        if name == "tracer":
            pair = getattr(value, "reference_pair", None)
            if pair is None and value is not None:
                ref = value.reference

                def pair(addr, kind, region, _ref=ref):
                    _ref(addr, kind, region)
                    _ref(addr + 2, kind, region)
            object.__setattr__(self, "_tracer_pair", pair)
        object.__setattr__(self, name, value)
        if name == "tracer" or name == "san":
            for hook in self.route_hooks:
                hook()

    # -- region helpers -----------------------------------------------------
    def region_of(self, addr: int) -> int:
        if addr < self.ram_limit:
            return REGION_RAM
        if C.FLASH_BASE <= addr < self.flash_limit:
            return REGION_FLASH
        if _CARD_BASE <= addr < _CARD_LIMIT:
            return REGION_CARD
        if addr >= C.HWREG_BASE:
            return REGION_HW
        raise BusError(addr)

    def _backing(self, addr: int):
        if addr < self.ram_limit:
            return self.ram
        if C.FLASH_BASE <= addr < self.flash_limit:
            return self.flash
        if _CARD_BASE <= addr < _CARD_LIMIT:
            return self._device.card_slot
        raise BusError(addr)

    def _trace(self, addr: int, kind: int, count: int = 1) -> None:
        tracer = self.tracer
        if tracer is not None:
            region = self.region_of(addr)
            tracer.reference(addr, kind, region)
            if count == 2:
                tracer.reference(addr + 2, kind, region)

    # -- Bus protocol ---------------------------------------------------------
    # The RAM and flash arms below are inline copies of the generic
    # `_trace` + `_backing` + FlatMemory accessor chain — the replay hot
    # path spends most of its bus time here, and each inlined arm saves
    # four or five method calls per reference.  Observable ordering is
    # preserved exactly: references are traced *before* an alignment
    # fault is raised, as the generic chain does.
    def read8(self, addr: int) -> int:
        if addr < self.ram_limit:
            tracer = self.tracer
            if tracer is not None:
                tracer.reference(addr, KIND_READ, REGION_RAM)
            s = self.san
            if s is not None:
                s.check_read(addr, 1)
            return self._ram_data[addr - self._ram_base]
        if C.FLASH_BASE <= addr < self.flash_limit:
            tracer = self.tracer
            if tracer is not None:
                tracer.reference(addr, KIND_READ, REGION_FLASH)
            return self._flash_data[addr - self._flash_base]
        self._trace(addr, KIND_READ)
        return self._backing(addr).read8(addr)

    def read16(self, addr: int) -> int:
        if addr < self.ram_limit:
            tracer = self.tracer
            if tracer is not None:
                tracer.reference(addr, KIND_READ, REGION_RAM)
            s = self.san
            if s is not None:
                s.check_read(addr, 2)
            if addr & 1:
                raise AddressError(addr, 2)
            d = self._ram_data
            off = addr - self._ram_base
            return (d[off] << 8) | d[off + 1]
        if C.FLASH_BASE <= addr < self.flash_limit:
            tracer = self.tracer
            if tracer is not None:
                tracer.reference(addr, KIND_READ, REGION_FLASH)
            if addr & 1:
                raise AddressError(addr, 2)
            d = self._flash_data
            off = addr - self._flash_base
            return (d[off] << 8) | d[off + 1]
        self._trace(addr, KIND_READ)
        return self._backing(addr).read16(addr)

    def read32(self, addr: int) -> int:
        if addr < self.ram_limit:
            pair = self._tracer_pair
            if pair is not None:
                pair(addr, KIND_READ, REGION_RAM)
            s = self.san
            if s is not None:
                s.check_read(addr, 4)
            if addr & 1:
                raise AddressError(addr, 4)
            d = self._ram_data
            off = addr - self._ram_base
            return ((d[off] << 24) | (d[off + 1] << 16)
                    | (d[off + 2] << 8) | d[off + 3])
        if C.FLASH_BASE <= addr < self.flash_limit:
            pair = self._tracer_pair
            if pair is not None:
                pair(addr, KIND_READ, REGION_FLASH)
            if addr & 1:
                raise AddressError(addr, 4)
            d = self._flash_data
            off = addr - self._flash_base
            return ((d[off] << 24) | (d[off + 1] << 16)
                    | (d[off + 2] << 8) | d[off + 3])
        if addr >= C.HWREG_BASE:
            check_aligned(addr, 4)
            self._trace(addr, KIND_READ, count=2)
            return self.hw.read32(addr)
        self._trace(addr, KIND_READ, count=2)
        return self._backing(addr).read32(addr)

    def write8(self, addr: int, value: int) -> None:
        if addr < self.ram_limit:
            tracer = self.tracer
            if tracer is not None:
                tracer.reference(addr, KIND_WRITE, REGION_RAM)
            s = self.san
            if s is not None:
                s.check_write(addr, 1)
            w = self.ram_watch
            if w is not None and (addr >> 8) in w.pages:
                w.hit(addr)
            self._ram_data[addr - self._ram_base] = value & 0xFF
            return
        self._trace(addr, KIND_WRITE)
        self._writable(addr).write8(addr, value)

    def write16(self, addr: int, value: int) -> None:
        if addr < self.ram_limit:
            tracer = self.tracer
            if tracer is not None:
                tracer.reference(addr, KIND_WRITE, REGION_RAM)
            s = self.san
            if s is not None:
                s.check_write(addr, 2)
            w = self.ram_watch
            if w is not None and (addr >> 8) in w.pages:
                w.hit(addr)
            if addr & 1:
                raise AddressError(addr, 2)
            d = self._ram_data
            off = addr - self._ram_base
            d[off] = (value >> 8) & 0xFF
            d[off + 1] = value & 0xFF
            return
        self._trace(addr, KIND_WRITE)
        self._writable(addr).write16(addr, value)

    def write32(self, addr: int, value: int) -> None:
        if addr < self.ram_limit:
            pair = self._tracer_pair
            if pair is not None:
                pair(addr, KIND_WRITE, REGION_RAM)
            s = self.san
            if s is not None:
                s.check_write(addr, 4)
            w = self.ram_watch
            if w is not None and ((addr >> 8) in w.pages
                                  or ((addr + 2) >> 8) in w.pages):
                w.hit(addr)
                w.hit(addr + 2)
            if addr & 1:
                raise AddressError(addr, 4)
            d = self._ram_data
            off = addr - self._ram_base
            d[off] = (value >> 24) & 0xFF
            d[off + 1] = (value >> 16) & 0xFF
            d[off + 2] = (value >> 8) & 0xFF
            d[off + 3] = value & 0xFF
            return
        if addr >= C.HWREG_BASE:
            check_aligned(addr, 4)
            self._trace(addr, KIND_WRITE, count=2)
            self.hw.write32(addr, value)
            return
        self._trace(addr, KIND_WRITE, count=2)
        self._writable(addr).write32(addr, value)

    def fetch16(self, addr: int) -> int:
        if addr < self.ram_limit:
            tracer = self.tracer
            if tracer is not None:
                tracer.reference(addr, KIND_FETCH, REGION_RAM)
            if addr & 1:
                raise AddressError(addr, 2)
            d = self._ram_data
            off = addr - self._ram_base
            return (d[off] << 8) | d[off + 1]
        if C.FLASH_BASE <= addr < self.flash_limit:
            tracer = self.tracer
            if tracer is not None:
                tracer.reference(addr, KIND_FETCH, REGION_FLASH)
            if addr & 1:
                raise AddressError(addr, 2)
            d = self._flash_data
            off = addr - self._flash_base
            return (d[off] << 8) | d[off + 1]
        self._trace(addr, KIND_FETCH)
        return self._backing(addr).read16(addr)

    def _writable(self, addr: int) -> FlatMemory:
        backing = self._backing(addr)
        if backing is self.flash and self.flash_write_protect:
            raise BusError(addr)
        return backing

    # -- host-side (untraced) access ------------------------------------------
    # Loading the initial state and exporting images are host operations
    # (ROMTransfer / HotSync run over the USB cable, not through the CPU
    # bus) and must not pollute the reference trace.
    def load_flash_image(self, blob: bytes, offset: int = 0) -> None:
        self.flash.load(C.FLASH_BASE + offset, blob)

    def dump_flash_image(self) -> bytes:
        return self.flash.dump(C.FLASH_BASE, len(self.flash))

    def load_ram(self, addr: int, blob: bytes) -> None:
        self.ram.load(addr, blob)

    def dump_ram(self, addr: int, length: int) -> bytes:
        return self.ram.dump(addr, length)
