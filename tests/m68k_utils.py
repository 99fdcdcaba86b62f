"""Shared helpers for m68k tests: assemble a snippet and run it."""

from __future__ import annotations

from repro.m68k import CPU, FlatMemory
from repro.m68k.asm import assemble
from repro.m68k.instructions import build_handler

CODE_BASE = 0x1000
STACK_TOP = 0x20000
RAM_SIZE = 0x40000


def build_dispatch_table():
    """The full 65536-entry dispatch table, built eagerly: the oracle
    for the lazily built table of :mod:`repro.m68k.decoder`."""
    return [build_handler(op) for op in range(0x10000)]


EXIT_OPCODE = 0xFFFF  # F-line word used as a flag-preserving "exit to host"


def make_cpu(source: str, symbols=None) -> tuple[CPU, FlatMemory]:
    """Assemble ``source`` at 0x1000 (an exit marker is appended), load
    it into a flat RAM with reset vectors, and return (cpu, mem).

    The exit marker is an F-line word handled on the host so that the
    condition codes under test are not disturbed (a ``stop #imm`` would
    reload SR).
    """
    mem = FlatMemory(RAM_SIZE)
    mem.write32(0, STACK_TOP)
    mem.write32(4, CODE_BASE)
    program = assemble(source + "\n    dc.w $ffff\n    stop #$2700\n",
                       origin=CODE_BASE, symbols=symbols)
    for addr, blob in program.segments:
        mem.load(addr, blob)

    def exit_handler(cpu, op):
        if op == EXIT_OPCODE:
            cpu.stopped = True
            return True
        return False

    cpu = CPU(mem, fline_handler=exit_handler)
    cpu.reset()
    return cpu, mem


def run_asm(source: str, max_instructions: int = 100_000, symbols=None) -> CPU:
    """Assemble, load, run to STOP, and return the CPU for inspection."""
    cpu, _ = make_cpu(source, symbols=symbols)
    cpu.run(max_instructions)
    assert cpu.stopped, f"program did not reach stop within {max_instructions} steps"
    return cpu


def run_asm_mem(source: str, max_instructions: int = 100_000,
                symbols=None) -> tuple[CPU, FlatMemory]:
    cpu, mem = make_cpu(source, symbols=symbols)
    cpu.run(max_instructions)
    assert cpu.stopped
    return cpu, mem
