"""The hack manager — our X-Master equivalent (§2.3.2, [15]).

Installing a hack means: assemble its position-independent code,
store it as a record of the extensions database (storage heap, so it
survives soft resets), remember the current trap-table entry in the
hack's chain slot, and point the table at the hack.  The kernel's boot
sequence re-patches the table from the same records after every reset,
exactly the service X-Master provides on a real device.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List

from ..m68k.asm import assemble_cached
from ..palmos import layout as L
from ..palmos.kernel import EXTENSIONS_DB_NAME
from ..palmos.rom import _symbols
from .logging_hacks import HackSpec, standard_hacks


@dataclass
class InstalledHack:
    spec: HackSpec
    record_index: int
    code_addr: int


def installed_hack_traps(kernel) -> List[int]:
    """The trap numbers patched by extension-database hacks, read
    host-side (no guest execution, no trace perturbation).

    Each hack record starts with a ``(trap, chain-slot offset)`` header;
    this walks the extensions database the same way the boot re-patch
    does.  The resilience watchdog uses it to confirm the replayed
    machine is actually logging before trusting an empty replay log.
    """
    dm = kernel.dm_host
    ext_db = dm.find(EXTENSIONS_DB_NAME)
    if not ext_db:
        return []
    traps: List[int] = []
    for index in range(dm.num_records(ext_db)):
        rec_addr, size = dm.get_record(ext_db, index)
        if size < 4:
            continue
        trap, _ = struct.unpack(">HH", kernel.host.read_bytes(rec_addr, 4))
        traps.append(trap)
    return traps


def hack_payload(spec: HackSpec) -> bytes:
    """The hack's record payload: its assembled, header-checked code."""
    # Assembly is memoized per source; the header checks below depend
    # on the spec too, so they run on every call.
    program = assemble_cached(spec.source, origin=0, symbols=_symbols())
    payload = program.blob
    # Verify the metadata header matches the spec.
    trap, orig_off = struct.unpack(">HH", payload[:4])
    if trap != int(spec.trap):
        raise ValueError(f"hack {spec.name}: header trap {trap} != "
                         f"{int(spec.trap)}")
    horig = program.symbols["horig"]
    if orig_off != horig - 4:  # chain slot offset, relative to the code
        raise ValueError(f"hack {spec.name}: bad chain-slot offset")
    return payload


class HackManager:
    """Installs and removes trap patches on a live kernel."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.installed: Dict[int, InstalledHack] = {}  # by trap index

    # ------------------------------------------------------------------
    def install(self, spec: HackSpec) -> InstalledHack:
        if int(spec.trap) in self.installed:
            raise ValueError(f"trap {spec.trap.name} already hacked")
        kernel = self.kernel
        payload = hack_payload(spec)
        dm = kernel.dm_host
        ext_db = dm.find(EXTENSIONS_DB_NAME)
        if not ext_db:
            ext_db = dm.create(EXTENSIONS_DB_NAME, "hack", "xmst")
        index = dm.num_records(ext_db)
        rec_addr = dm.new_record(ext_db, L.DM_MAX_RECORD_INDEX, len(payload))
        kernel.host.write_bytes(rec_addr, payload)
        # Live patch: save the current entry in the chain slot, then
        # point the dispatch table at the hack code.
        host = kernel.host
        entry_addr = L.TRAP_TABLE + int(spec.trap) * 4
        orig = host.read32(entry_addr)
        orig_off = struct.unpack(">H", payload[2:4])[0]
        code_addr = rec_addr + 4
        host.write32(code_addr + orig_off, orig)
        host.write32(entry_addr, code_addr)
        hack = InstalledHack(spec, index, code_addr)
        self.installed[int(spec.trap)] = hack
        return hack

    def install_standard(self, isolate: bool = False,
                         db_name: str | None = None) -> List[InstalledHack]:
        """Install the paper's five collection hacks."""
        kwargs = {} if db_name is None else {"db_name": db_name}
        return [self.install(spec)
                for spec in standard_hacks(isolate=isolate, **kwargs)]

    def uninstall(self, trap: int) -> None:
        """Remove the hack on ``trap`` (must be the newest patch)."""
        trap = int(trap)
        hack = self.installed.pop(trap, None)
        if hack is None:
            raise KeyError(f"no hack installed on trap {trap}")
        kernel = self.kernel
        host = kernel.host
        entry_addr = L.TRAP_TABLE + trap * 4
        if host.read32(entry_addr) != hack.code_addr:
            raise RuntimeError("trap table no longer points at this hack; "
                               "uninstall in reverse install order")
        payload_head = host.read_bytes(hack.code_addr - 4, 4)
        orig_off = struct.unpack(">H", payload_head[2:4])[0]
        orig = host.read32(hack.code_addr + orig_off)
        host.write32(entry_addr, orig)
        # Remove the record (re-index remaining hacks).
        dm = kernel.dm_host
        ext_db = dm.find(EXTENSIONS_DB_NAME)
        for index in range(dm.num_records(ext_db)):
            data, _ = dm.get_record(ext_db, index)
            if data == hack.code_addr - 4:
                dm.remove_record(ext_db, index)
                break
        for other in self.installed.values():
            if other.record_index > hack.record_index:
                other.record_index -= 1

    def uninstall_all(self) -> None:
        for trap in sorted(self.installed,
                           key=lambda t: self.installed[t].record_index,
                           reverse=True):
            self.uninstall(trap)
