"""Superblock replay-core edge cases.

The fast core chains basic blocks across unconditional branches into
superblocks and compiles hot ones to fused bodies; these tests pin the
hazardous seams the generic differential suite (test_fastcore) is
unlikely to hit by chance:

* self-modifying code that patches the *middle* chunk of a chained
  superblock (past the unconditional branch the chain crossed);
* suspend/resume with the cycle budget landing mid-superblock — the
  split run must be bit-identical to an uninterrupted one, and a
  checkpoint captured there must resume bit-identically;
* the sanitizer riding along with the fast core (fused bodies are
  gated off while shadow checking is attached);
* the vectorized counted-fill path (``move.w dX,(aY)+`` /
  ``subq.l #1,dZ`` / ``bne``) against the stepping core.
"""

import struct

import pytest

from repro import replay_session, standard_apps
from repro.device.device import PalmDevice
from repro.emulator import Emulator, PlaybackDriver
from repro.emulator.profiling import Profiler
from repro.workloads import UserScript, collect_session
from tests.profiler_utils import trace_fingerprint

EMU_KW = {"ram_size": 8 << 20, "flash_size": 1 << 20}
_APPS = standard_apps()

RAM_SIZE = 1 << 20
FLASH_SIZE = 1 << 16
CODE = 0x1000
STACK_TOP = 0x8000
STOP_SUPER = (0x4E72, 0x2700)


def _make_device(core, words, fuse_threshold=None):
    dev = PalmDevice(ram_size=RAM_SIZE, flash_size=FLASH_SIZE, core=core)
    mem = dev.mem
    mem.ram.write32(0, STACK_TOP)
    mem.ram.write32(4, CODE)
    mem.ram.load(CODE, b"".join(struct.pack(">H", w & 0xFFFF)
                                for w in words))
    dev.cpu.reset()
    prof = Profiler(trace_references=True)
    mem.tracer = prof
    dev.cpu.opcode_hook = prof.opcode
    if fuse_threshold is not None and hasattr(dev.core, "fuse_threshold"):
        dev.core.fuse_threshold = fuse_threshold
    return dev, prof


def _run_words(core, words, cycle_limit=200_000, fuse_threshold=None):
    dev, prof = _make_device(core, words, fuse_threshold)
    fault = None
    try:
        dev._run_cpu_until_cycles(dev.cpu.cycles + cycle_limit)
    except Exception as exc:
        fault = (type(exc).__name__, str(exc))
    return dev, prof, fault


def _state(dev, prof):
    cpu = dev.cpu
    return (tuple(cpu.d), tuple(cpu.a), cpu.pc, cpu.sr, cpu.stopped,
            cpu.cycles, cpu.instructions, bytes(dev.mem.ram.data),
            prof.instructions, bytes(prof.opcode_counts),
            prof.counts_bytes(), trace_fingerprint(prof))


def _assert_bit_exact(words, cycle_limit=200_000, fuse_threshold=None):
    dev_s, prof_s, fault_s = _run_words("simple", words, cycle_limit)
    dev_f, prof_f, fault_f = _run_words("fast", words, cycle_limit,
                                        fuse_threshold=fuse_threshold)
    assert fault_f == fault_s
    assert _state(dev_f, prof_f) == _state(dev_s, prof_s)


def _long_imm(value):
    return [(value >> 16) & 0xFFFF, value & 0xFFFF]


# ----------------------------------------------------------------------
# Self-modifying code into the middle of a chained superblock
# ----------------------------------------------------------------------
def test_smc_into_middle_of_chained_superblock():
    """The superblock chains across a ``bra.s``; the store patches an
    instruction *past* that branch — the middle chunk of the chain.
    The fast core must unlink the whole superblock and execute the
    patched word, exactly like the stepping core."""
    words = [
        0x33FC, 0x4E71, 0x0000, 0x0000,  # move.w #$4e71, (target).l
        0x6002,                          # bra.s +2: chains the blocks
        0xFFFF,                          # skipped garbage
        0x7001,                          # moveq #1, d0   (second chunk)
        0x60FE,                          # at target: bra.s self
        0x7202,                          # moveq #2, d1   (after patch)
    ]
    target = CODE + 2 * words.index(0x60FE)
    words[2:4] = _long_imm(target)
    words.extend(STOP_SUPER)
    dev_s, _, fault = _run_words("simple", words, cycle_limit=10_000)
    assert fault is None and dev_s.cpu.stopped   # the patch really lands
    assert dev_s.cpu.d[1] == 2
    _assert_bit_exact(words, cycle_limit=10_000)


def test_smc_into_middle_of_fused_superblock():
    """Same shape, but the superblock is re-entered enough to compile a
    fused body first (threshold forced to 1): the write must invalidate
    the compiled body, not just the predecoded tuples."""
    # Run the harmless chain a few times via a dbf loop, then patch it.
    words = [
        0x7603,                          # moveq #3, d3
        # loop: chained superblock (bra.s crosses into chunk 2)
        0x7001,                          # moveq #1, d0
        0x6002,                          # bra.s +2
        0xFFFF,                          # skipped garbage
        0x7202,                          # moveq #2, d1
        0x51CB, 0xFFF6,                  # dbf d3, loop (-10)
        # patch the second chunk's moveq with nop, re-enter once
        0x33FC, 0x4E71, 0x0000, 0x0000,  # move.w #$4e71, (target).l
        0x7603,                          # moveq #3, d3 -> one more pass
        0x7001, 0x6002, 0xFFFF, 0x7202,  # (same chain, now patched)
        0x51CB, 0xFFF6,                  # dbf d3, second loop
    ]
    target = CODE + 2 * 4               # the first chain's 0x7202
    idx = words.index(0x33FC) + 1
    words[idx + 1:idx + 3] = _long_imm(target)
    words.extend(STOP_SUPER)
    _assert_bit_exact(words, cycle_limit=20_000, fuse_threshold=1)


# ----------------------------------------------------------------------
# Mid-superblock suspend/resume
# ----------------------------------------------------------------------
def test_budget_split_mid_superblock_is_bit_identical():
    """Running to an intermediate cycle budget that lands inside a
    fused superblock, then continuing, must be bit-identical to one
    uninterrupted run (and to the stepping core)."""
    words = [
        0x7001,                          # moveq #1, d0
        0x223C] + _long_imm(400) + [     # move.l #400, d1
        # loop: eight ALU words then the counted backedge
        0xD240, 0x4641, 0xE359, 0x3401, 0xD240, 0x4641, 0xE359, 0x3401,
        0x5381,                          # subq.l #1, d1
        0x66EE,                          # bne.s loop (-18)
    ]
    words.extend(STOP_SUPER)
    full_limit = 60_000
    dev_ref, prof_ref, fault = _run_words("fast", words, full_limit,
                                          fuse_threshold=1)
    assert fault is None

    dev, prof = _make_device("fast", words, fuse_threshold=1)
    base = dev.cpu.cycles
    # Many small legs: the budget boundary lands mid-superblock over
    # and over, exercising every escape path's state sync.
    for frac in range(1, 20):
        dev._run_cpu_until_cycles(base + (full_limit * frac) // 20)
    dev._run_cpu_until_cycles(base + full_limit)
    assert _state(dev, prof) == _state(dev_ref, prof_ref)
    _assert_bit_exact(words, cycle_limit=full_limit, fuse_threshold=1)


def _session_script():
    script = UserScript("superblk")
    script.at(80)
    script.tap(80, 80, hold_ticks=4)
    script.wait(60)
    script.tap(20, 150, hold_ticks=3)
    script.wait(160)
    return script


@pytest.fixture(scope="module")
def session():
    return collect_session(_APPS, _session_script(), name="superblk",
                           entropy_seed=4242, ram_size=EMU_KW["ram_size"])


def test_checkpoint_mid_superblock_resumes_bit_identically(session):
    """Checkpoints captured at a fine cadence (so captures
    land while superblock state is hot) must resume on the fast core
    bit-identically to the uninterrupted reference run."""
    cps = []
    emulator = Emulator(apps=_APPS, **EMU_KW, core="fast")
    emulator.load_state(session.initial_state, final_reset=False)
    emulator.start_profiling()
    driver = PlaybackDriver(emulator, session.log, checkpoint_every=40,
                            checkpoint_hook=cps.append)
    reference = driver.run(reset=True)
    assert len(cps) >= 2, "session too short for mid-run checkpoints"

    for checkpoint in (cps[0], cps[-1]):
        fresh = Emulator(apps=_APPS, **EMU_KW, core="fast")
        fresh.start_profiling()
        result = PlaybackDriver(fresh, session.log).resume_from(checkpoint)
        assert vars(result) == vars(reference)
        assert bytes(fresh.device.mem.ram.data) == \
            bytes(emulator.device.mem.ram.data)
        assert trace_fingerprint(fresh.profiler) == \
            trace_fingerprint(emulator.profiler)
        assert fresh.profiler.counts_bytes() == \
            emulator.profiler.counts_bytes()


# ----------------------------------------------------------------------
# Sanitizer interop
# ----------------------------------------------------------------------
def test_sanitizer_rides_fast_core_bit_identically(session):
    """--sanitize with the fast core: fused dispatch is gated off while
    shadow checking is attached, and every finding and statistic
    matches the stepping core.  This recorded session, being clean,
    reports none."""
    outputs = {}
    for core in ("simple", "fast"):
        emulator, prof, result = replay_session(
            session.initial_state, session.log, apps=_APPS,
            emulator_kwargs={**EMU_KW, "core": core}, sanitize=True)
        findings = sorted((f.code, int(f.severity), f.address, f.block)
                          for f in emulator.sanitizer.report.sorted())
        outputs[core] = (vars(result), findings, prof.instructions,
                         prof.counts_bytes(), trace_fingerprint(prof),
                         emulator.sanitizer.stats())
    assert outputs["fast"] == outputs["simple"]
    assert outputs["fast"][1] == []


def test_trap_fast_table_dropped_when_sanitizer_attaches():
    """The A-line fast table is resolved while the kernel runs bare
    (boot happens before --sanitize attaches); attaching a sanitizer
    must drop it even though the handler object is unchanged, or trap
    dispatch would bypass the kernel_enter/kernel_exit brackets."""
    from repro.analysis.sanitizer import MemorySanitizer
    from repro.palmos.kernel import PalmOS

    kernel = PalmOS()
    kernel.boot()
    core = kernel.device.core
    assert core.name == "fast"
    assert core._resolve_trap_table() is not None     # bare kernel
    san = MemorySanitizer()
    san.attach(kernel)
    assert core._resolve_trap_table() is None         # brackets required
    san.detach()
    assert core._resolve_trap_table() is not None     # restored


# ----------------------------------------------------------------------
# The vectorized counted-fill path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("store,count", [
    (0x30C0, 300),    # move.w d0,(a0)+ — hits the bulk prelude
    (0x20C0, 300),    # move.l d0,(a0)+
    (0x30C0, 7),      # too few iterations: stays on the scalar loop
])
def test_counted_fill_is_bit_exact(store, count):
    """The fused counted-fill fast path (slice assignment + one token
    block) against the stepping core, across both store widths and a
    below-threshold count."""
    dst = 0x40000                       # far from the watched code pages
    words = ([0x207C] + _long_imm(dst)          # movea.l #dst, a0
             + [0x223C] + _long_imm(count)      # move.l #count, d1
             + [0x303C, 0xBEEF,                 # move.w #$beef, d0
                store,                          # loop: move.w/l d0,(a0)+
                0x5381,                         # subq.l #1, d1
                0x66FA])                        # bne.s loop (-6)
    words.extend(STOP_SUPER)
    _assert_bit_exact(words, cycle_limit=80_000, fuse_threshold=1)
    # The fill really lands in guest RAM.
    dev, _, fault = _run_words("fast", words, 80_000, fuse_threshold=1)
    assert fault is None and dev.cpu.stopped
    unit = 2 if store == 0x30C0 else 4
    pattern = b"\xbe\xef" if unit == 2 else b"\x00\x00\xbe\xef"
    assert bytes(dev.mem.ram.data[dst:dst + unit * count]) == \
        pattern * count
