"""Differential tests: the fast (block-predecoding) replay core must be
bit-exact with the simple stepping core.

Three layers of evidence:

* hypothesis-generated random programs — word soup (exercising illegal
  opcodes, faults and the A-line/F-line single-step fallback) and
  structured branchy programs, including self-modifying code — run on
  both cores with identical cycle budgets, asserting identical
  registers, cycle/instruction counters, RAM images, profiler counts,
  packed reference traces and opcode histograms (and identical guest
  faults, when one is raised);
* a full recorded session replayed under both cores, comparing the
  replay result and every profiler statistic;
* checkpoint interop: a checkpoint taken under one core and
  resumed under the other must land on the reference final state.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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

STOP_SUPER = (0x4E72, 0x2700)  # stop #$2700

# A pool of safe straight-line words the structured generator draws
# from (no control transfer, no privileged ops, no memory operands).
_SAFE_OPS = [
    (0x7001,),            # moveq #1, d0
    (0x7202,),            # moveq #2, d1
    (0xD240,),            # add.w d0, d1
    (0x4A41,),            # tst.w d1
    (0x4641,),            # not.w d1
    (0xE359,),            # rol.w #1, d1
    (0x3401,),            # move.w d1, d2
    (0x0642, 0x0007),     # addi.w #7, d2
    (0xB542,),            # eor.w d2, d2
    (0x4E71,),            # nop
]


def _run_words(core, words, cycle_limit=200_000):
    """Run ``words`` at CODE on a bare device with the given core."""
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
    fault = None
    try:
        dev._run_cpu_until_cycles(dev.cpu.cycles + cycle_limit)
    except Exception as exc:  # guest fault: must be identical across cores
        fault = (type(exc).__name__, str(exc))
    return dev, prof, fault


def _assert_bit_exact(words, cycle_limit=200_000):
    dev_s, prof_s, fault_s = _run_words("simple", words, cycle_limit)
    dev_f, prof_f, fault_f = _run_words("fast", words, cycle_limit)
    assert fault_f == fault_s
    cs, cf = dev_s.cpu, dev_f.cpu
    assert cf.d == cs.d
    assert cf.a == cs.a
    assert cf.pc == cs.pc
    assert cf.sr == cs.sr
    assert cf.stopped == cs.stopped
    assert cf.cycles == cs.cycles
    assert cf.instructions == cs.instructions
    assert dev_f.mem.ram.data == dev_s.mem.ram.data
    assert prof_f.instructions == prof_s.instructions
    assert bytes(prof_f.opcode_counts) == bytes(prof_s.opcode_counts)
    assert prof_f.counts_bytes() == prof_s.counts_bytes()
    assert trace_fingerprint(prof_f) == trace_fingerprint(prof_s)


# ----------------------------------------------------------------------
# Random programs
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(words=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=64))
def test_word_soup_is_bit_exact(words):
    """Arbitrary words: covers illegal opcodes, A-line/F-line words
    (exercising the fast core's single-step fallback), guest faults and
    exception re-entry through the zeroed vector table."""
    _assert_bit_exact(words + list(STOP_SUPER), cycle_limit=50_000)


@st.composite
def branchy_programs(draw):
    """Structured programs: safe ALU runs broken up by short forward
    branches, DBcc loops and a trap through a patched vector."""
    words = []
    for _ in range(draw(st.integers(1, 6))):
        for _ in range(draw(st.integers(1, 8))):
            words.extend(draw(st.sampled_from(_SAFE_OPS)))
        shape = draw(st.sampled_from(["bra", "beq", "dbf", "none"]))
        if shape == "bra":
            words.append(0x6002)        # bra.s +2 (skip the next word)
            words.append(draw(st.integers(0, 0xFFFF)))  # skipped garbage
        elif shape == "beq":
            words.append(0x4A40)        # tst.w d0
            words.append(0x6702)        # beq.s +2
            words.append(0x4E71)        # nop (maybe skipped)
        elif shape == "dbf":
            words.extend((0x7603,))     # moveq #3, d3
            words.extend((0x5343, 0x66FC))  # subq.w #1,d3; bne.s -4
    words.extend(STOP_SUPER)
    return words


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(words=branchy_programs())
def test_branchy_programs_are_bit_exact(words):
    _assert_bit_exact(words)


def test_self_modifying_code_is_bit_exact():
    """The program overwrites an instruction *ahead of the pc* in its
    own (already predecoded) block: the fast core must notice the write
    and execute the new word, exactly as the stepping core does."""
    target = None
    words = [
        0x33FC, 0x4E71, 0x0000, 0x0000,  # move.w #$4e71, (target).l
        0x7001,                          # moveq #1, d0
        0x60FE,                          # placeholder at target: bra.s self
        0x7202,                          # moveq #2, d1  (after the patch)
    ]
    target = CODE + 2 * words.index(0x60FE)
    words[2] = (target >> 16) & 0xFFFF
    words[3] = target & 0xFFFF
    words.extend(STOP_SUPER)
    dev_s, _, fault = _run_words("simple", words, cycle_limit=10_000)
    assert fault is None and dev_s.cpu.stopped  # the patch really lands
    assert dev_s.cpu.d[1] == 2
    _assert_bit_exact(words, cycle_limit=10_000)


def test_self_modifying_same_block_tail():
    """A store into the word immediately after the storing instruction:
    the invalidation must take effect before the next instruction of
    the *currently running* block."""
    patch_at = CODE + 10
    words = [
        0x33FC, 0x0000, (patch_at >> 16) & 0xFFFF, patch_at & 0xFFFF,
        0x4E71,                      # nop (padding to make offsets even)
        0xFFFF,                      # at patch_at: replaced by 0x0000 ...
    ]
    # After the patch the word at patch_at is 0x0000; 0x0000 0x0000 is
    # ori.b #0, d0 — harmless — then fall through to stop.
    words.extend((0x0000,))          # immediate operand for the ori.b
    words.extend(STOP_SUPER)
    _assert_bit_exact(words, cycle_limit=10_000)


def test_aline_fline_boundary_words():
    """First/last words of the A-line and F-line spaces, mid-block."""
    for trap_word in (0xA000, 0xAFFF, 0xF000, 0xFFFE):
        words = [0x7001, 0x4E71, trap_word, 0x4E71]
        words.extend(STOP_SUPER)
        _assert_bit_exact(words, cycle_limit=50_000)


def test_unknown_core_name_rejected():
    with pytest.raises(ValueError):
        PalmDevice(ram_size=RAM_SIZE, flash_size=FLASH_SIZE, core="turbo")


# ----------------------------------------------------------------------
# Whole-session replay and checkpoint interop
# ----------------------------------------------------------------------
def _session_script():
    script = UserScript("fastcore")
    script.at(80)
    script.tap(80, 80, hold_ticks=4)
    script.wait(60)
    script.drag([(20, 30), (60, 70), (100, 110)], ticks_per_point=3)
    script.wait(60)
    script.tap(20, 150, hold_ticks=3)
    script.wait(200)
    return script


@pytest.fixture(scope="module")
def session():
    return collect_session(_APPS, _session_script(), name="fastcore",
                           entropy_seed=909, ram_size=EMU_KW["ram_size"])


def _profiler_fingerprint(prof):
    return (prof.instructions, bytes(prof.opcode_counts),
            prof.counts_bytes(), trace_fingerprint(prof))


def test_session_replay_matches_across_cores(session):
    results = {}
    for core in ("simple", "fast"):
        emulator, prof, result = replay_session(
            session.initial_state, session.log, apps=_APPS,
            emulator_kwargs={**EMU_KW, "core": core})
        results[core] = (vars(result), _profiler_fingerprint(prof),
                         bytes(emulator.device.mem.ram.data))
    assert results["fast"] == results["simple"]


def test_checkpoint_resumes_across_cores(session):
    """A checkpoint captured under one core must resume under the other
    and land on the reference final state (counters and profiler
    statistics included)."""
    finals = {}
    for capture_core, resume_core in (("fast", "simple"),
                                      ("simple", "fast")):
        cps = []
        emulator = Emulator(apps=_APPS, **EMU_KW, core=capture_core)
        emulator.load_state(session.initial_state, final_reset=False)
        emulator.start_profiling()
        driver = PlaybackDriver(emulator, session.log, checkpoint_every=100,
                                checkpoint_hook=cps.append)
        reference = driver.run(reset=True)
        assert cps, "session too short to capture a checkpoint"

        fresh = Emulator(apps=_APPS, **EMU_KW, core=resume_core)
        fresh.start_profiling()
        result = PlaybackDriver(fresh, session.log).resume_from(cps[0])
        assert vars(result) == vars(reference)
        assert bytes(fresh.device.mem.ram.data) == \
            bytes(emulator.device.mem.ram.data)
        assert _profiler_fingerprint(fresh.profiler) == \
            _profiler_fingerprint(emulator.profiler)
        finals[(capture_core, resume_core)] = vars(result)
    assert finals[("fast", "simple")] == finals[("simple", "fast")]
