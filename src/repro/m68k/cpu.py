"""The 68000 interpreter core.

Models the Motorola MC68VZ328 "DragonBall" processor used by the Palm
m515: a 68EC000 integer core with big-endian memory, eight data and
eight address registers, and the classic 68000 exception model.

The interpreter is table-driven: a 65536-entry dispatch table maps every
opcode word to a specialised handler closure, built the first time the
word executes (:mod:`repro.m68k.decoder`).  Two host hooks mirror the
structure of the Palm OS Emulator described in the paper:

* ``aline_handler`` — Palm OS system calls are A-line instructions
  (``0xAxxx``).  With profiling *off* the emulator services them
  natively (POSE's fast path); with profiling *on* the handler declines
  and the CPU takes the real A-line exception through the ROM trap
  dispatcher, exactly as §2.4.2 of the paper describes.
* ``fline_handler`` — F-line instructions are reserved for emulator
  callbacks (POSE used special opcodes the same way); our ROM stubs end
  in one to transfer control to the Python implementation of each
  system call's semantics.
"""

from __future__ import annotations

from typing import Callable, Optional

from .bus import Bus
from .decoder import TABLE, resolve
from .errors import CpuHalted, IllegalInstructionError

# Exception vector numbers (68000).
VEC_RESET_SSP = 0
VEC_RESET_PC = 1
VEC_BUS_ERROR = 2
VEC_ADDRESS_ERROR = 3
VEC_ILLEGAL = 4
VEC_ZERO_DIVIDE = 5
VEC_CHK = 6
VEC_TRAPV = 7
VEC_PRIVILEGE = 8
VEC_TRACE = 9
VEC_LINE_A = 10
VEC_LINE_F = 11
VEC_AUTOVECTOR_BASE = 24  # level 1 -> vector 25, ..., level 7 -> 31
VEC_TRAP_BASE = 32  # TRAP #0 -> vector 32

SR_SUPERVISOR = 0x2000
SR_TRACE = 0x8000

_MASK32 = 0xFFFFFFFF


class CPU:
    """A 68000-family CPU attached to a :class:`~repro.m68k.bus.Bus`."""

    def __init__(
        self,
        bus: Bus,
        aline_handler: Optional[Callable[["CPU", int], bool]] = None,
        fline_handler: Optional[Callable[["CPU", int], bool]] = None,
    ):
        self.bus = bus
        self.aline_handler = aline_handler
        self.fline_handler = fline_handler

        self.d = [0] * 8  # data registers
        self.a = [0] * 8  # address registers; a[7] is the active SP
        self.pc = 0

        # Condition codes kept unpacked for speed.
        self.x = 0
        self.n = 0
        self.z = 0
        self.v = 0
        self.c = 0

        self.s = True  # supervisor state
        self.imask = 7  # interrupt priority mask
        self._shadow_sp = 0  # the SP of the *inactive* state (USP or SSP)

        self.stopped = False
        self.cycles = 0
        self.instructions = 0
        self.pending_irq = 0  # highest pending interrupt level, 0 = none
        #: Optional per-instruction hook receiving the opcode word
        #: (used by the profiler's opcode histogram).
        self.opcode_hook: Optional[Callable[[int], None]] = None
        #: Optional hook fired when an interrupt is serviced *between*
        #: instructions: the exception-frame pushes that follow belong
        #: to no instruction, and a per-pc reference tracker must stop
        #: attributing them to the previously executed opcode.
        self.interrupt_hook: Optional[Callable[[], None]] = None

        # The process-wide dispatch table (:mod:`repro.m68k.decoder`);
        # unbuilt slots are falsy and resolved on their first step.
        self._table = TABLE

    # ------------------------------------------------------------------
    # Status register
    # ------------------------------------------------------------------
    @property
    def sr(self) -> int:
        ccr = (self.x << 4) | (self.n << 3) | (self.z << 2) | (self.v << 1) | self.c
        return (SR_SUPERVISOR if self.s else 0) | (self.imask << 8) | ccr

    @sr.setter
    def sr(self, value: int) -> None:
        self.ccr = value
        self.imask = (value >> 8) & 7
        new_s = bool(value & SR_SUPERVISOR)
        if new_s != self.s:
            # Swap active/inactive stack pointers when crossing states.
            self.a[7], self._shadow_sp = self._shadow_sp, self.a[7]
            self.s = new_s

    @property
    def ccr(self) -> int:
        return (self.x << 4) | (self.n << 3) | (self.z << 2) | (self.v << 1) | self.c

    @ccr.setter
    def ccr(self, value: int) -> None:
        self.x = (value >> 4) & 1
        self.n = (value >> 3) & 1
        self.z = (value >> 2) & 1
        self.v = (value >> 1) & 1
        self.c = value & 1

    @property
    def usp(self) -> int:
        return self._shadow_sp if self.s else self.a[7]

    @usp.setter
    def usp(self, value: int) -> None:
        if self.s:
            self._shadow_sp = value & _MASK32
        else:
            self.a[7] = value & _MASK32

    # ------------------------------------------------------------------
    # Memory helpers (count approximate access cycles)
    # ------------------------------------------------------------------
    def read(self, addr: int, size: int) -> int:
        addr &= _MASK32
        if size == 1:
            self.cycles += 4
            return self.bus.read8(addr)
        if size == 2:
            self.cycles += 4
            return self.bus.read16(addr)
        self.cycles += 8
        return self.bus.read32(addr)

    def write(self, addr: int, size: int, value: int) -> None:
        addr &= _MASK32
        if size == 1:
            self.cycles += 4
            self.bus.write8(addr, value & 0xFF)
        elif size == 2:
            self.cycles += 4
            self.bus.write16(addr, value & 0xFFFF)
        else:
            self.cycles += 8
            self.bus.write32(addr, value & _MASK32)

    def fetch_ext16(self) -> int:
        """Fetch one extension word from the instruction stream."""
        word = self.bus.fetch16(self.pc)
        self.pc = (self.pc + 2) & _MASK32
        self.cycles += 4
        return word

    def fetch_ext32(self) -> int:
        hi = self.bus.fetch16(self.pc)
        lo = self.bus.fetch16((self.pc + 2) & _MASK32)
        self.pc = (self.pc + 4) & _MASK32
        self.cycles += 8
        return (hi << 16) | lo

    # ------------------------------------------------------------------
    # Stack helpers (always the active SP)
    # ------------------------------------------------------------------
    def push16(self, value: int) -> None:
        addr = (self.a[7] - 2) & _MASK32
        self.a[7] = addr
        self.cycles += 4
        self.bus.write16(addr, value & 0xFFFF)

    def push32(self, value: int) -> None:
        addr = (self.a[7] - 4) & _MASK32
        self.a[7] = addr
        self.cycles += 8
        self.bus.write32(addr, value & _MASK32)

    def pop16(self) -> int:
        addr = self.a[7]
        self.cycles += 4
        value = self.bus.read16(addr)
        self.a[7] = (addr + 2) & _MASK32
        return value

    def pop32(self) -> int:
        addr = self.a[7]
        self.cycles += 8
        value = self.bus.read32(addr)
        self.a[7] = (addr + 4) & _MASK32
        return value

    # ------------------------------------------------------------------
    # Reset and exceptions
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Hard reset: load SSP and PC from vectors 0 and 1.

        The paper starts every session "directly after a soft reset"
        precisely because the processor then follows a deterministic
        path; this method is that path's first step.
        """
        self.s = True
        self.imask = 7
        self.ccr = 0
        self.stopped = False
        self._shadow_sp = 0
        self.a[7] = self.bus.read32(0)
        self.pc = self.bus.read32(4)
        self.cycles = 0
        self.instructions = 0
        self.pending_irq = 0

    def exception(self, vector: int) -> None:
        """Process a 68000 group-1/2 exception: push SR and PC, vector."""
        old_sr = self.sr
        if not self.s:
            self.sr = old_sr | SR_SUPERVISOR
        self.stopped = False
        self.push32(self.pc)
        self.push16(old_sr)
        handler = self.read(vector * 4, 4)
        if handler == 0:
            raise CpuHalted(
                f"exception vector {vector} has no handler (pc={self.pc:#010x})"
            )
        self.pc = handler
        self.cycles += 34

    def set_irq(self, level: int) -> None:
        """Assert (or clear, with 0) the pending interrupt level."""
        self.pending_irq = level & 7

    def _service_interrupt(self) -> None:
        level = self.pending_irq
        self.exception(VEC_AUTOVECTOR_BASE + level)
        self.imask = level
        # Level-triggered model: the device must deassert explicitly.

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one instruction (or service one interrupt)."""
        if self.pending_irq and (self.pending_irq > self.imask or self.pending_irq == 7):
            if self.interrupt_hook is not None:
                self.interrupt_hook()
            self._service_interrupt()
            return
        if self.stopped:
            return
        op = self.bus.fetch16(self.pc)
        self.pc = (self.pc + 2) & _MASK32
        self.cycles += 4
        self.instructions += 1
        if self.opcode_hook is not None:
            self.opcode_hook(op)
        handler = self._table[op]
        if not handler:
            handler = resolve(op)
            if handler is None:
                self._illegal(op)
                return
        handler(self)

    def _illegal(self, op: int) -> None:
        # On entry pc points just past the faulting word.  A-line/F-line
        # exceptions stack the PC of the faulting instruction itself (the
        # ROM trap dispatcher reads the trap word through it and advances
        # the stacked PC before returning); a native handler that accepts
        # the call leaves pc where it is, past the word.
        group = op >> 12
        if group == 0xA:
            if self.aline_handler is not None and self.aline_handler(self, op):
                return
            self.pc = (self.pc - 2) & _MASK32
            self.exception(VEC_LINE_A)
            return
        if group == 0xF:
            if self.fline_handler is not None and self.fline_handler(self, op):
                return
            self.pc = (self.pc - 2) & _MASK32
            self.exception(VEC_LINE_F)
            return
        # Genuine illegal opcode: take vector 4 if a handler exists,
        # otherwise surface a host error (the guest image is broken).
        self.pc = (self.pc - 2) & _MASK32
        if self.read(VEC_ILLEGAL * 4, 4) != 0:
            self.exception(VEC_ILLEGAL)
            return
        raise IllegalInstructionError(op, self.pc)

    def run(self, max_instructions: int = 1_000_000) -> int:
        """Run until STOP or the instruction budget is exhausted.

        Returns the number of instructions executed.  A stopped CPU
        waits for an interrupt; the caller (device scheduler) is
        responsible for advancing time and raising one.
        """
        start = self.instructions
        budget = max_instructions
        while budget > 0 and not self.stopped:
            self.step()
            budget -= 1
        return self.instructions - start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        regs = " ".join(f"d{i}={v:08x}" for i, v in enumerate(self.d))
        aregs = " ".join(f"a{i}={v:08x}" for i, v in enumerate(self.a))
        return (
            f"<CPU pc={self.pc:08x} sr={self.sr:04x} {regs} {aregs} "
            f"cycles={self.cycles}>"
        )
