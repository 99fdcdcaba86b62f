"""From-scratch Motorola 68000 (DragonBall MC68VZ328) toolchain.

The Palm m515's processor core (:mod:`.cpu` with the opcode dispatch
table in :mod:`.decoder`, the superblock replay core in
:mod:`.blockcore` and :mod:`.fuse`), an assembler for writing guest
software (ROM routines, hacks, applications), and the one instruction
decoder (:mod:`.disasm`): the block core, the fuser and the static
analyzer take lengths, kinds and memory effects from it, and the
disassembler renders its text.
"""

from .bus import Bus, FlatMemory
from .cpu import CPU
from .errors import (
    AddressError,
    AssemblerError,
    BusError,
    CpuHalted,
    IllegalInstructionError,
    M68kError,
)

__all__ = [
    "Bus",
    "FlatMemory",
    "CPU",
    "AddressError",
    "AssemblerError",
    "BusError",
    "CpuHalted",
    "IllegalInstructionError",
    "M68kError",
    "Assembler",
    "assemble",
    "disassemble",
]


def __getattr__(name: str) -> object:
    # Lazy imports keep `import repro.m68k` light; the assembler pulls in
    # a sizeable parser table.
    if name in ("Assembler", "assemble"):
        from .asm import Assembler, assemble

        return {"Assembler": Assembler, "assemble": assemble}[name]
    if name == "disassemble":
        from .disasm import disassemble

        return disassemble
    raise AttributeError(name)
