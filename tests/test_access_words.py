"""The direct word arms of TracedAccess.

On a memory map with no sanitizer, under no tracer or the standard
profiler, the kernel's accessor serves aligned in-RAM words straight
from the RAM backing store.  Each case runs the shipped arm and the
reference semantics below (``_note_fetch`` then ``cpu.read``/
``cpu.write``) from the same booted RAM image and compares everything
observable: RAM bytes, CPU cycles, results or errors, write-watch hits,
sanitizer findings and profiler trace tokens.
"""

import numpy as np
import pytest

from repro.analysis.sanitizer import MemorySanitizer
from repro.device import constants as C
from repro.emulator.profiling import Profiler
from repro.palmos.access import TracedAccess

from tests.palmos_utils import make_kernel

SIZES = {"8": 1, "16": 2, "32": 4}
RAM_LIMIT = 1 << 21     # make_kernel's RAM size
FLASH = 0x1000_0100

#: Where the trap's servicing code runs: the companion fetch's pc.
PCS = {"flash": 0x1000_0400, "ram": 0x0003_0000, "unmapped": 0x2000_0000}

#: Addresses by case: aligned RAM, its odd neighbour, the last RAM word
#: (whose long read runs off the end), flash and a hardware register.
ADDRS = {
    "ram": 0x0004_1234 & ~3,
    "odd": 0x0004_1235,
    "ram tail": RAM_LIMIT - 2,
    "flash": FLASH,
    "hw": C.REG_DEVICE_ID,
}


def reference_read(acc, addr, size):
    acc._note_fetch()
    return acc._cpu.read(addr, size)


def reference_write(acc, addr, size, value):
    acc._note_fetch()
    acc._cpu.write(addr, size, value)


def reference_cstring(acc, addr, limit=32):
    out = []
    for i in range(limit):
        byte = reference_read(acc, addr + i, 1)
        if byte == 0:
            break
        out.append(chr(byte))
    return "".join(out)


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
    cpu = kernel.device.cpu
    return kernel, bytes(kernel.device.mem._ram_data), cpu.cycles, cpu.pc


def run_case(booted, fn, *, pc="flash", watch_pages=None, sanitize=False,
             profile=False):
    """Run ``fn(acc)`` from the pristine booted image and return
    everything it changed or produced."""
    kernel, pristine, cycles0, pc0 = booted
    mem = kernel.device.mem
    cpu = kernel.device.cpu
    mem._ram_data[:] = pristine
    mem._ram_data[0x30100:0x30110] = b"MemoDB\x00tail\x00\x00\x00\x00\x00"
    cpu.cycles = cycles0
    cpu.pc = PCS[pc]
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
        outcome = ("ok", fn(acc))
    except Exception as exc:  # compared, not swallowed
        outcome = (type(exc), exc.args)
    finally:
        mem.ram_watch = None
        mem.tracer = None
        cpu.pc = pc0
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


def assert_same(booted, shipped, reference, **kw):
    new = run_case(booted, shipped, **kw)
    ref = run_case(booted, reference, **kw)
    for key in ref:
        assert new[key] == ref[key], key
    return new


CONFIGS = {
    "plain": {},
    "profiled": {"profile": True},
    "watched": {"watch_pages": {ADDRS["ram"] >> 8, (ADDRS["ram"] + 2) >> 8}},
    "watched, profiled": {"profile": True,
                          "watch_pages": {ADDRS["ram"] >> 8}},
    "sanitized": {"sanitize": True},
    "pc in RAM": {"profile": True, "pc": "ram"},
    "pc unmapped": {"profile": True, "pc": "unmapped"},
    "pc unmapped, plain": {"pc": "unmapped"},
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("where", sorted(ADDRS))
@pytest.mark.parametrize("width", sorted(SIZES))
def test_read_matches_reference(booted, config, where, width):
    size, addr = SIZES[width], ADDRS[where]
    assert_same(booted, lambda acc: getattr(acc, f"read{width}")(addr),
                lambda acc: reference_read(acc, addr, size),
                **CONFIGS[config])


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("where", sorted(ADDRS))
@pytest.mark.parametrize("width", sorted(SIZES))
def test_write_matches_reference(booted, config, where, width):
    size, addr = SIZES[width], ADDRS[where]
    value = 0x1_89AB_CDEF    # wider than any access: masked on the way
    assert_same(booted,
                lambda acc: getattr(acc, f"write{width}")(addr, value),
                lambda acc: reference_write(acc, addr, size, value),
                **CONFIGS[config])


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_cstring_loop_matches_reference(booted, config):
    out = assert_same(booted, lambda acc: kernel_cstring(booted, 0x30100),
                      lambda acc: reference_cstring(acc, 0x30100),
                      **CONFIGS[config])
    if config in ("plain", "profiled"):
        assert out["outcome"] == ("ok", "MemoDB")


def kernel_cstring(booted, addr):
    return booted[0].syscalls._cstring(addr)


def test_address_wraps_at_32_bits(booted):
    addr = (1 << 32) + ADDRS["ram"]
    assert_same(booted, lambda acc: acc.write32(addr, 0x12345678),
                lambda acc: reference_write(acc, addr, 4, 0x12345678),
                profile=True)


@pytest.mark.parametrize("length", [1, 2, 3, 31, 32, 33, 63, 64, 65, 700])
@pytest.mark.parametrize("op", ["read", "write"])
def test_traced_byte_runs_match_the_loop(booted, length, op):
    """Short runs build list tokens, long ones a numpy block; both
    must record what the per-byte loop records."""
    addr = 0x2_0001
    data = bytes((7 * i) & 0xFF for i in range(length))

    def loop(acc):
        if op == "read":
            return bytes(reference_read(acc, addr + i, 1)
                         if i % 2 == 0 else acc._cpu.read(addr + i, 1)
                         for i in range(length))
        for i, byte in enumerate(data):
            if i % 2 == 0:
                acc._note_fetch()
            acc._cpu.write(addr + i, 1, byte)

    def shipped(acc):
        if op == "read":
            return acc.read_bytes(addr, length)
        acc.write_bytes(addr, data)

    for pc in ("flash", "ram", "unmapped"):
        assert_same(booted, shipped, loop, profile=True, pc=pc)


def test_path_is_picked_when_tracer_or_sanitizer_attaches(booted):
    kernel = booted[0]
    mem = kernel.device.mem
    acc = kernel.traced
    direct = set(acc.__dict__) & {"read32", "write32"}
    assert direct == {"read32", "write32"}      # untraced: direct arms
    mem.tracer = Profiler(track_reference_pcs=True)
    assert "read32" not in acc.__dict__         # per-pc attribution
    mem.tracer = Profiler()
    assert "read32" in acc.__dict__
    san = MemorySanitizer()
    san.attach(kernel)
    assert "read32" not in acc.__dict__         # shadow checks per word
    san.detach(check_leaks=False)
    assert "read32" in acc.__dict__
    mem.tracer = None
    assert "read32" in acc.__dict__
    assert acc.read32 is not TracedAccess.read32
