"""The whole-run RAM arm of TracedAccess.read_bytes/write_bytes.

Each case runs the shipped accessor and the per-byte loop below (the
reference semantics) from the same booted RAM image and compares
everything observable: RAM bytes, CPU cycles, results or errors,
write-watch hits, sanitizer findings and profiler trace tokens.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import MemorySanitizer
from repro.emulator.profiling import Profiler
from repro.m68k.asm import assemble
from repro.m68k.blockcore import BlockCore
from repro.palmos.access import TracedAccess
from repro.workloads.volunteer import SessionSpec, collect_table1_session

from tests.palmos_utils import make_kernel


def loop_read_bytes(acc: TracedAccess, addr: int, length: int) -> bytes:
    cpu = acc._cpu
    out = bytearray()
    for i in range(length):
        if i % 2 == 0:
            acc._note_fetch()
        out.append(cpu.read(addr + i, 1))
    return bytes(out)


def loop_write_bytes(acc: TracedAccess, addr: int, data: bytes) -> None:
    cpu = acc._cpu
    for i, byte in enumerate(data):
        if i % 2 == 0:
            acc._note_fetch()
        cpu.write(addr + i, 1, byte)


class RecordingWatch:
    """A WriteWatch that records every hit and keeps its pages."""

    def __init__(self, pages):
        self.pages = set(pages)
        self.hits = []

    def hit(self, addr: int) -> None:
        self.hits.append(addr)

    def bulk(self) -> None:
        self.hits.append("bulk")


@pytest.fixture(scope="module")
def booted():
    kernel = make_kernel()
    return kernel, bytes(kernel.device.mem._ram_data), kernel.device.cpu.cycles


def run_case(booted, op, addr, length, data, *, reference, watch_pages=None,
             sanitize=False, profile=False):
    """Run one read or write from the pristine booted image and return
    everything it changed or produced."""
    kernel, pristine, cycles0 = booted
    mem = kernel.device.mem
    cpu = kernel.device.cpu
    mem._ram_data[:] = pristine
    cpu.cycles = cycles0
    watch = san = prof = None
    if watch_pages is not None:
        watch = mem.ram_watch = RecordingWatch(watch_pages)
    if sanitize:
        san = MemorySanitizer()
        san.attach(kernel)
    if profile:
        prof = mem.tracer = Profiler()
    acc = kernel.traced
    try:
        if op == "read":
            fn = loop_read_bytes if reference else TracedAccess.read_bytes
            outcome = ("ok", fn(acc, addr, length))
        else:
            fn = loop_write_bytes if reference else TracedAccess.write_bytes
            fn(acc, addr, data)
            outcome = ("ok", None)
    except Exception as exc:  # compared, not swallowed
        outcome = (type(exc), exc.args)
    finally:
        mem.ram_watch = None
        mem.tracer = None
        if san is not None:
            san.detach(check_leaks=False)
    tokens = None
    if prof is not None:
        chunks = list(prof.chunks())
        tokens = (np.concatenate(chunks).tolist() if chunks else [])
    return {
        "outcome": outcome,
        "ram": bytes(mem._ram_data),
        "cycles": cpu.cycles - cycles0,
        "hits": None if watch is None else watch.hits,
        "findings": None if san is None else (
            list(san.report), san.n_data, san.n_probed),
        "tokens": tokens,
    }


def assert_same(booted, op, addr, length, data=b"", **kw):
    new = run_case(booted, op, addr, length, data, reference=False, **kw)
    ref = run_case(booted, op, addr, length, data, reference=True, **kw)
    for key in ref:
        assert new[key] == ref[key], key
    return new


RAM_LIMIT = 1 << 21     # make_kernel's RAM size


@st.composite
def runs(draw):
    length = draw(st.one_of(st.integers(0, 9), st.integers(10, 700)))
    where = draw(st.sampled_from(["ram", "tail", "cross", "flash"]))
    if where == "ram":
        addr = draw(st.integers(0x100, RAM_LIMIT - 0x1000))
    elif where == "tail":                 # ends exactly at ram_limit
        addr = RAM_LIMIT - length
    elif where == "cross":                # runs off the end of RAM
        addr = RAM_LIMIT - draw(st.integers(0, max(length - 1, 0)))
    else:
        addr = 0x1000_0000 + draw(st.integers(0, 0x8000))
    data = draw(st.binary(min_size=length, max_size=length))
    return addr, length, data


@settings(max_examples=40, deadline=None)
@given(run=runs(), op=st.sampled_from(["read", "write"]))
def test_plain_matches_loop(booted, run, op):
    addr, length, data = run
    assert_same(booted, op, addr, length, data)


@settings(max_examples=25, deadline=None)
@given(run=runs(), op=st.sampled_from(["read", "write"]),
       spread=st.integers(-2, 3))
def test_watched_pages_match_loop(booted, run, op, spread):
    addr, length, data = run
    first = addr >> 8
    pages = {first + spread, 0x40}
    assert_same(booted, op, addr, length, data, watch_pages=pages)


@settings(max_examples=15, deadline=None)
@given(run=runs(), op=st.sampled_from(["read", "write"]))
def test_sanitized_run_matches_loop(booted, run, op):
    addr, length, data = run
    assert_same(booted, op, addr, length, data, sanitize=True)


@settings(max_examples=20, deadline=None)
@given(run=runs(), op=st.sampled_from(["read", "write"]))
def test_profiled_run_matches_loop(booted, run, op):
    addr, length, data = run
    assert_same(booted, op, addr, length, data, profile=True)


def test_long_write_is_one_slice_with_loop_cycles(booted):
    data = bytes(range(256)) * 3
    out = assert_same(booted, "write", 0x20000, len(data), data)
    assert out["cycles"] == 4 * len(data)
    assert out["ram"][0x20000:0x20000 + len(data)] == data


def test_sanitized_heap_write_reports_the_same_findings(booted):
    # Free heap space is out of bounds for guest code: the sanitizer
    # must see the loop's per-byte checks and report them.
    kernel = booted[0]
    heap = kernel.dyn_heap.with_access(kernel.host)
    free = next(c for c in heap.chunks() if c.free)
    out = assert_same(booted, "write", free.addr + 16, 64, b"\xAA" * 64,
                      sanitize=True)
    assert out["findings"][0]


def test_write_over_fused_code_invalidates_like_the_loop(booted):
    code_addr = 0x30000
    blob = assemble("nop\n nop\n nop\n rts", origin=code_addr).blob

    def write_over_block(fn):
        kernel, pristine, cycles0 = booted
        mem = kernel.device.mem
        mem._ram_data[:] = pristine
        mem._ram_data[code_addr:code_addr + len(blob)] = blob
        core = BlockCore(kernel.device.cpu, mem)
        try:
            assert core._build(code_addr) is not None
            fn(kernel.traced, code_addr - 32, b"\x4e\x71" * 40)
            return core.invalidations, code_addr in core.blocks
        finally:
            core.detach()

    new = write_over_block(TracedAccess.write_bytes)
    ref = write_over_block(loop_write_bytes)
    assert new == ref == (1, False)


def test_collection_identical_without_the_ram_arm(monkeypatch):
    spec = SessionSpec("tiny", seed=7, hours=0.01, bouts=2, contacts=5)

    def fingerprint(session):
        return (session.log.to_database_image().to_pdb_bytes(),
                [db.to_pdb_bytes() for db in session.final_state],
                session.elapsed_ticks, session.instructions)

    fast = fingerprint(collect_table1_session(spec, ram_size=2 << 20))
    with monkeypatch.context() as m:
        m.setattr(TracedAccess, "_ram_run",
                  lambda self, addr, length, write: None)
        slow = fingerprint(collect_table1_session(spec, ram_size=2 << 20))
    assert fast == slow
