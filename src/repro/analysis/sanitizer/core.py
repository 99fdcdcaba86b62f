"""The dynamic sanitizer: shadow maintenance, heap hooks, findings.

:class:`MemorySanitizer` attaches to a booted :class:`~repro.palmos.kernel.PalmOS`
machine and watches every guest data access through a bus hook
(``MemoryMap.san``), classifying violations into typed findings through
the :mod:`repro.analysis.static.findings` engine:

==================  ========  ==========================================
code                severity  meaning
==================  ========  ==========================================
``san-oob-read``    ERROR     read past a live allocation (red zone hit)
``san-oob-write``   ERROR     write past a live allocation
``san-uaf``         ERROR     access inside a quarantined freed chunk
``san-double-free`` ERROR     ``MemPtrFree`` of an already-freed chunk
``san-uninit-read`` WARNING   read of a never-written app allocation
``san-leak``        WARNING   app allocation still live at detach
``san-wild``        ERROR     access to unmanaged heap space
==================  ========  ==========================================

Two layers keep the overhead inside the ~3x budget:

* accesses made while **kernel microcode** runs (trap semantics, the
  allocator itself) are exempt from checking — the kernel is trusted —
  but writes still mark bytes defined so app data written by the kernel
  (events, record copies) never reads back as uninitialized;
* the remaining accesses hit a **range compare** first (only the heap
  window carries shadow) and a byte-AND shadow probe second.

Findings name the instruction, not the raw pc: :func:`attribution`
maps every pc an instruction's execution can show to its start address.

Red zones and the free-chunk quarantine are wired into
:class:`repro.palmos.heap.Heap` via the ``Heap.san`` attribute; the heap
calls back into :meth:`on_alloc`/:meth:`on_free`/:meth:`on_format`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Iterator, Mapping, Optional, Tuple

from ...palmos import layout as L
from ...palmos.heap import Heap, HeapError
from ..static.findings import Report, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...palmos.kernel import PalmOS
    from ..static.walker import CFG

from .shadow import A_BIT, D_BIT, OK, ShadowMap

#: Bytes of unaddressable padding on each side of a sanitized payload.
REDZONE = 16
#: Freed chunks parked before their storage really returns to the heap.
QUARANTINE_CHUNKS = 16
#: Findings are deduplicated per (code, instruction); this caps the
#: total so a buggy loop cannot flood the report.
MAX_FINDINGS = 256


def attribution(cfg: "CFG") -> Dict[int, int]:
    """pc -> start address of the instruction executing at that pc.

    Both cores advance pc past the opcode word before the handler runs,
    and handlers fetch their own extension words, so while an
    instruction at ``addr`` executes pc sweeps ``[addr+2, end]``.  Of
    overlapping decodes the first walked claims a shared pc.
    """
    owner: Dict[int, int] = {}
    for insn in cfg.instructions():
        for pc in range(insn.addr + 2, insn.end + 2, 2):
            owner.setdefault(pc, insn.addr)
    return owner


@dataclass(frozen=True)
class AllocInfo:
    """One sanitizer-tracked allocation (live or quarantined)."""

    ptr: int        # payload address handed to the guest
    size: int       # requested payload bytes
    chunk: int      # chunk payload base (ptr - red zone; == ptr when legacy)
    chunk_end: int  # end of the chunk (header excluded)
    owner: int
    heap_base: int
    pc: int         # guest pc at allocation time


class MemorySanitizer:
    """MemCheck-style shadow checking for replayed guest code."""

    def __init__(self, *, attribution: Optional[Mapping[int, int]] = None,
                 redzone: int = REDZONE,
                 quarantine_chunks: int = QUARANTINE_CHUNKS,
                 max_findings: int = MAX_FINDINGS):
        if redzone % 2:
            raise ValueError("red zone size must keep payloads even")
        self.redzone = redzone
        self.quarantine_chunks = quarantine_chunks
        self.max_findings = max_findings
        self.report = Report()
        self._attr: Dict[int, int] = dict(attribution or {})
        self._seen: set[Tuple[str, int]] = set()
        self.suppressed = 0

        self._kernel_depth = 0
        self._kernel_ref: Optional["PalmOS"] = None
        self._cpu: object = None
        self._shadow: Optional[ShadowMap] = None
        self._lo = 0
        self._hi = 0

        self.live: Dict[int, AllocInfo] = {}
        self._quarantine: Dict[int, Deque[AllocInfo]] = {}
        self._quarantined: Dict[int, AllocInfo] = {}

        #: Non-kernel guest data accesses seen by the bus hook.
        self.n_data = 0
        #: Accesses that reached a shadow probe (inside the heap window).
        self.n_probed = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def attached(self) -> bool:
        return self._kernel_ref is not None

    def attach(self, kernel: "PalmOS") -> None:
        """Hook a booted machine: build shadow over the heap window,
        sweep both heaps into it, and install the bus and heap hooks."""
        if self._kernel_ref is not None:
            raise RuntimeError("sanitizer is already attached")
        mem = kernel.device.mem
        self._kernel_ref = kernel
        self._cpu = kernel.device.cpu
        self._lo = L.DYNAMIC_HEAP_BASE
        self._hi = int(mem.ram_limit)
        self._shadow = ShadowMap(self._lo, self._hi)
        for heap in (kernel.dyn_heap, kernel.sto_heap):
            self._sweep_heap(kernel, heap)
            heap.san = self
        kernel.sanitizer = self
        mem.san = self

    def detach(self, *, check_leaks: bool = True) -> Report:
        """Unhook, run the leak check, and return the report."""
        kernel = self._kernel_ref
        if kernel is None:
            raise RuntimeError("sanitizer is not attached")
        if check_leaks:
            self._leak_check()
        kernel.device.mem.san = None
        kernel.dyn_heap.san = None
        kernel.sto_heap.san = None
        kernel.sanitizer = None
        self._kernel_ref = None
        return self.report

    def _sweep_heap(self, kernel: "PalmOS", heap: Heap) -> None:
        """Adopt pre-existing heap state: used payloads are addressable
        and defined (their history is unknown — be conservative), free
        space and every header is out of bounds.  Chunks allocated
        before attach get no red zones; their headers double as ones."""
        assert self._shadow is not None
        host_heap = heap.with_access(kernel.host)
        for chunk in host_heap.chunks():
            if chunk.free:
                self._shadow.mark_noaccess(chunk.addr, chunk.size)
            else:
                self._shadow.mark_noaccess(chunk.addr, L.CHUNK_HEADER_SIZE)
                self._shadow.mark_ok(chunk.addr + L.CHUNK_HEADER_SIZE,
                                     chunk.size - L.CHUNK_HEADER_SIZE)

    # ------------------------------------------------------------------
    # Kernel microcode exemption
    # ------------------------------------------------------------------
    def kernel_enter(self) -> None:
        self._kernel_depth += 1

    def kernel_exit(self) -> None:
        self._kernel_depth -= 1

    # ------------------------------------------------------------------
    # Bus hook (hot paths)
    # ------------------------------------------------------------------
    def check_read(self, addr: int, size: int) -> None:
        if self._kernel_depth:
            return
        self.n_data += 1
        if addr < self._lo or addr >= self._hi:
            return
        self.n_probed += 1
        assert self._shadow is not None
        sh = self._shadow.raw
        off = addr - self._lo
        v = sh[off]
        if size == 2:
            v &= sh[off + 1]
        elif size == 4:
            v &= sh[off + 1] & sh[off + 2] & sh[off + 3]
        if v == OK:
            return
        self._bad_read(addr, size, v)

    def check_write(self, addr: int, size: int) -> None:
        if self._kernel_depth:
            # Trusted microcode: never report, but keep the defined
            # bits honest — the kernel writes events and record bytes
            # into app-visible storage.
            if self._lo <= addr < self._hi:
                assert self._shadow is not None
                self._shadow.set_defined(addr, size)
            return
        self.n_data += 1
        if addr < self._lo or addr >= self._hi:
            return
        self.n_probed += 1
        assert self._shadow is not None
        sh = self._shadow.raw
        off = addr - self._lo
        v = sh[off]
        if size == 2:
            v &= sh[off + 1]
        elif size == 4:
            v &= sh[off + 1] & sh[off + 2] & sh[off + 3]
        if v == OK:
            return
        if v & A_BIT:
            # Addressable but (partly) undefined: this write defines it.
            for i in range(size):
                sh[off + i] |= D_BIT
            return
        self._bad_write(addr, size)
        # The write really happens (findings never alter execution);
        # keep D bits of any addressable bytes it covered consistent.
        for i in range(size):
            if sh[off + i] & A_BIT:
                sh[off + i] |= D_BIT

    # ------------------------------------------------------------------
    # Violation slow paths
    # ------------------------------------------------------------------
    def _pc(self) -> int:
        pc = int(getattr(self._cpu, "pc"))
        return self._attr.get(pc, pc)

    def _emit(self, severity: Severity, code: str, message: str,
              address: int, pc: Optional[int] = None) -> None:
        at = self._pc() if pc is None else pc
        key = (code, at)
        if key in self._seen or len(self.report) >= self.max_findings:
            self.suppressed += 1
            return
        self._seen.add(key)
        self.report.add(severity, code, message, address=address, block=at)

    def _find_chunk(self, addr: int) -> Tuple[str, Optional[AllocInfo]]:
        for info in self._quarantined.values():
            if info.chunk - L.CHUNK_HEADER_SIZE <= addr < info.chunk_end:
                return "uaf", info
        for info in self.live.values():
            if info.chunk - L.CHUNK_HEADER_SIZE <= addr < info.chunk_end:
                return "oob", info
        return "wild", None

    def _bad_read(self, addr: int, size: int, bits: int) -> None:
        assert self._shadow is not None
        if bits & A_BIT:
            bad = self._shadow.first_missing(addr, size, OK)
            info = self.live.get(self._owning_ptr(bad))
            origin = (f" (allocated at pc {info.pc:#x})"
                      if info is not None else "")
            self._emit(Severity.WARNING, "san-uninit-read",
                       f"read of uninitialized byte at {bad:#x}"
                       f" ({size}-byte access at {addr:#x}){origin}", bad)
            return
        bad = self._shadow.first_missing(addr, size, A_BIT)
        kind, info = self._find_chunk(bad)
        if kind == "uaf":
            assert info is not None
            self._emit(Severity.ERROR, "san-uaf",
                       f"read of freed chunk at {bad:#x} "
                       f"({info.size} bytes at {info.ptr:#x}, "
                       f"freed after allocation at pc {info.pc:#x})", bad)
        elif kind == "oob":
            assert info is not None
            self._emit(Severity.ERROR, "san-oob-read",
                       f"out-of-bounds read at {bad:#x}, "
                       f"{bad - (info.ptr + info.size)} byte(s) past the "
                       f"{info.size}-byte allocation at {info.ptr:#x}", bad)
        else:
            self._emit(Severity.ERROR, "san-wild",
                       f"read of unallocated heap space at {bad:#x}", bad)

    def _bad_write(self, addr: int, size: int) -> None:
        assert self._shadow is not None
        bad = self._shadow.first_missing(addr, size, A_BIT)
        kind, info = self._find_chunk(bad)
        if kind == "uaf":
            assert info is not None
            self._emit(Severity.ERROR, "san-uaf",
                       f"write to freed chunk at {bad:#x} "
                       f"({info.size} bytes at {info.ptr:#x}, "
                       f"freed after allocation at pc {info.pc:#x})", bad)
        elif kind == "oob":
            assert info is not None
            self._emit(Severity.ERROR, "san-oob-write",
                       f"out-of-bounds write at {bad:#x}, "
                       f"{bad - (info.ptr + info.size)} byte(s) past the "
                       f"{info.size}-byte allocation at {info.ptr:#x}", bad)
        else:
            self._emit(Severity.ERROR, "san-wild",
                       f"write to unallocated heap space at {bad:#x}", bad)

    def _owning_ptr(self, addr: int) -> int:
        for ptr, info in self.live.items():
            if info.ptr <= addr < info.ptr + info.size:
                return ptr
        return -1

    # ------------------------------------------------------------------
    # Heap hooks (called by repro.palmos.heap.Heap)
    # ------------------------------------------------------------------
    def on_alloc(self, heap: Heap, chunk_payload: int, req_size: int,
                 owner: int) -> int:
        """A chunk sized for ``req_size`` plus two red zones was carved;
        mark shadow and return the guest-visible payload pointer."""
        assert self._shadow is not None
        csize, _, _ = heap.header_of(chunk_payload)
        chunk_end = chunk_payload - L.CHUNK_HEADER_SIZE + csize
        ptr = chunk_payload + self.redzone
        self._shadow.mark_noaccess(chunk_payload, self.redzone)
        if owner == L.OWNER_APP:
            self._shadow.mark_undefined(ptr, req_size)
        else:
            self._shadow.mark_ok(ptr, req_size)
        self._shadow.mark_noaccess(ptr + req_size, chunk_end - ptr - req_size)
        self.live[ptr] = AllocInfo(ptr=ptr, size=req_size,
                                   chunk=chunk_payload, chunk_end=chunk_end,
                                   owner=owner, heap_base=heap.base,
                                   pc=int(getattr(self._cpu, "pc")))
        return ptr

    def on_free(self, heap: Heap, ptr: int) -> None:
        """Quarantine a freed allocation.  Raises
        :class:`~repro.palmos.heap.HeapError` for double or wild frees
        (after recording the finding) so trap error codes are
        unchanged; the actual heap release is deferred to
        :meth:`drain`."""
        assert self._shadow is not None
        info = self.live.pop(ptr, None)
        if info is None:
            if ptr in self._quarantined:
                old = self._quarantined[ptr]
                self._emit(Severity.ERROR, "san-double-free",
                           f"double free of {old.size}-byte allocation "
                           f"at {ptr:#x}", ptr)
                raise HeapError(f"double free of chunk at "
                                f"{old.chunk - L.CHUNK_HEADER_SIZE:#x}")
            # A chunk allocated before attach: adopt it from its header.
            size, flags, owner = heap.header_of(ptr)
            if flags & L.CHUNK_FLAG_FREE:
                self._emit(Severity.ERROR, "san-double-free",
                           f"double free of chunk at {ptr:#x}", ptr)
                raise HeapError(f"double free of chunk at "
                                f"{ptr - L.CHUNK_HEADER_SIZE:#x}")
            info = AllocInfo(ptr=ptr, size=size - L.CHUNK_HEADER_SIZE,
                             chunk=ptr,
                             chunk_end=ptr - L.CHUNK_HEADER_SIZE + size,
                             owner=owner, heap_base=heap.base, pc=0)
        self._shadow.mark_noaccess(info.chunk, info.chunk_end - info.chunk)
        self._quarantine.setdefault(heap.base, deque()).append(info)
        self._quarantined[info.ptr] = info

    def drain(self, heap: Heap, all_chunks: bool = False) -> Iterator[int]:
        """Chunk payloads whose quarantine hold expired — the heap
        releases these for real (oldest first)."""
        fifo = self._quarantine.get(heap.base)
        if not fifo:
            return
        limit = 0 if all_chunks else self.quarantine_chunks
        while len(fifo) > limit:
            info = fifo.popleft()
            del self._quarantined[info.ptr]
            yield info.chunk

    def payload_size(self, ptr: int) -> Optional[int]:
        """The requested size of a sanitized live allocation, or None
        when ``ptr`` is not one (legacy chunks fall back to the
        header)."""
        info = self.live.get(ptr)
        return info.size if info is not None else None

    def on_format(self, heap: Heap) -> None:
        """The heap was wiped (boot): its whole window is free space."""
        assert self._shadow is not None
        self._shadow.mark_noaccess(heap.first_chunk,
                                   heap.limit - heap.first_chunk)
        self.live = {ptr: info for ptr, info in self.live.items()
                     if info.heap_base != heap.base}
        self._quarantine.pop(heap.base, None)
        self._quarantined = {ptr: info
                             for ptr, info in self._quarantined.items()
                             if info.heap_base != heap.base}

    # ------------------------------------------------------------------
    # Leak check
    # ------------------------------------------------------------------
    def _leak_check(self) -> None:
        for ptr in sorted(self.live):
            info = self.live[ptr]
            if info.owner != L.OWNER_APP:
                continue
            self._emit(Severity.WARNING, "san-leak",
                       f"{info.size}-byte allocation at {ptr:#x} still "
                       f"live at exit (allocated at pc {info.pc:#x})",
                       ptr, pc=info.pc)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "data_accesses": self.n_data,
            "probed": self.n_probed,
            "live_allocations": len(self.live),
            "quarantined": len(self._quarantined),
            "findings": len(self.report),
            "suppressed": self.suppressed,
        }
