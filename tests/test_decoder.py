"""The lazily built opcode dispatch table (:mod:`repro.m68k.decoder`).

* every word resolves to what the eagerly built oracle table holds,
  and the static analyzer's legality test agrees;
* a cold process that collects and replays a small session under the
  fused and the simple core builds only a few hundred slots, and no
  predecoded block ever snapshots an unbuilt slot;
* illegal, A-line and F-line words whose slots were never built step
  through ``CPU.step`` and through ``BlockCore`` exactly as before.
"""

import os
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.static.decode import is_legal
from repro.device.device import PalmDevice
from repro.m68k.decoder import TABLE, UNBUILT, resolve
from repro.m68k.errors import IllegalInstructionError
from tests.m68k_utils import build_dispatch_table

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def cold_table():
    """Every slot unbuilt for the test; the table restored afterwards."""
    saved = TABLE[:]
    TABLE[:] = [UNBUILT] * 0x10000
    yield
    TABLE[:] = saved


@pytest.mark.usefixtures("cold_table")
def test_every_word_resolves_like_the_eager_table():
    oracle = build_dispatch_table()
    for op in range(0x10000):
        if op >> 12 not in (0xA, 0xF):
            # Asked of a slot nobody has resolved yet.
            assert is_legal(op) == (oracle[op] is not None), hex(op)
    TABLE[:] = [UNBUILT] * 0x10000
    for op in range(0x10000):
        handler = resolve(op)
        assert (handler is None) == (oracle[op] is None), hex(op)
        assert resolve(op) is handler                   # idempotent
        assert TABLE[op] is handler
    assert UNBUILT not in TABLE


def test_sentinel_is_falsy_and_not_callable():
    assert not UNBUILT
    assert not callable(UNBUILT)
    assert UNBUILT is not None


_COLD_SESSION = textwrap.dedent("""
    from repro import replay_session, standard_apps
    from repro.m68k import blockcore, decoder
    from repro.workloads import UserScript, collect_session

    built = []
    build = blockcore.BlockCore._build

    def recording_build(self, pc):
        block = build(self, pc)
        if block is not None:
            built.append(block)
        return block

    blockcore.BlockCore._build = recording_build
    apps = standard_apps()
    script = UserScript("cold")
    script.at(80)
    script.tap(80, 80, hold_ticks=4)
    script.wait(60)
    script.tap(20, 150, hold_ticks=3)
    script.wait(100)
    session = collect_session(apps, script, name="cold", entropy_seed=5,
                              ram_size=8 << 20)
    kw = {"ram_size": 8 << 20, "flash_size": 1 << 20}
    for core, threshold in (("fast", 1), ("simple", None)):
        replay_session(session.initial_state, session.log, apps=apps,
                       emulator_kwargs={**kw, "core": core},
                       fuse_threshold=threshold)
    resolved = sum(slot is not decoder.UNBUILT for slot in decoder.TABLE)
    fused = sum(bool(block.fused) for block in built)
    unbuilt = sum(not entry[4] for block in built for entry in block.entries)
    print(resolved, len(built), fused, unbuilt)
""")


def test_cold_process_builds_only_the_words_it_runs():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _COLD_SESSION], env=env,
                         capture_output=True, text=True, timeout=600,
                         check=True).stdout
    resolved, blocks, fused, unbuilt = map(int, out.split())
    assert 0 < resolved < 2000
    assert blocks > 0 and fused > 0
    assert unbuilt == 0


# -- never-built words through both cores -------------------------------
RAM_SIZE = 1 << 20
FLASH_SIZE = 1 << 16
CODE = 0x1000
STACK_TOP = 0x8000
AFTER = CODE + 2                   # where a serviced trap resumes
ILLEGAL = 0x4AFC                   # the 68000's official illegal word
A_LINE = 0xA123
F_LINE = 0xF456
#: Exception vector -> handler: ``moveq #vector, d7; stop #$2700``.
VECTORS = {4: 0x2000, 10: 0x2100, 11: 0x2200}


def _run(core, op, vectors=True, hook=None):
    """Run ``op; moveq #1, d7; stop`` from CODE, with ``op``'s slot
    unbuilt; return the machine state, the fault raised (if any) and
    the words the host hook saw."""
    TABLE[op] = UNBUILT
    dev = PalmDevice(ram_size=RAM_SIZE, flash_size=FLASH_SIZE, core=core)
    ram = dev.mem.ram
    ram.write32(0, STACK_TOP)
    ram.write32(4, CODE)
    if vectors:
        for vector, addr in VECTORS.items():
            ram.write32(vector * 4, addr)
            ram.load(addr, struct.pack(">HHH", 0x7E00 | vector,
                                       0x4E72, 0x2700))
    ram.load(CODE, struct.pack(">HHHH", op, 0x7E01, 0x4E72, 0x2700))
    dev.cpu.reset()
    seen = []
    if hook is not None:
        def host(cpu, word):
            seen.append(word)
            return hook

        dev.cpu.aline_handler = host
        dev.cpu.fline_handler = host
    fault = None
    try:
        dev._run_cpu_until_cycles(dev.cpu.cycles + 2000)
    except IllegalInstructionError as exc:
        fault = (exc.opcode, exc.pc)
    cpu = dev.cpu
    sp = cpu.a[7]
    stacked = ram.read32(sp + 2) if sp < STACK_TOP else None
    return ((cpu.pc, cpu.d[7], sp, stacked, cpu.cycles, cpu.instructions,
             cpu.stopped), fault, seen)


@pytest.mark.usefixtures("cold_table")
@pytest.mark.parametrize("op, vector", [(ILLEGAL, 4), (A_LINE, 10),
                                        (F_LINE, 11)])
def test_unbuilt_trap_words_take_their_exception(op, vector):
    results = [_run(core, op) for core in ("simple", "fast")]
    assert results[0] == results[1]
    (pc, d7, sp, stacked, _, _, stopped), fault, seen = results[0]
    assert fault is None and seen == []
    assert stopped and d7 == vector
    # The exception frame holds the faulting word's own address.
    assert (sp, stacked) == (STACK_TOP - 6, CODE)
    assert pc == VECTORS[vector] + 6
    assert TABLE[op] is None


@pytest.mark.usefixtures("cold_table")
@pytest.mark.parametrize("op", [A_LINE, F_LINE])
def test_unbuilt_trap_words_reach_the_host_hooks(op):
    results = [_run(core, op, hook=True) for core in ("simple", "fast")]
    assert results[0] == results[1]
    (pc, d7, sp, _, _, _, stopped), fault, seen = results[0]
    assert fault is None and seen == [op]
    # Accepted by the host: execution continues past the word.
    assert stopped and d7 == 1 and sp == STACK_TOP
    assert pc == AFTER + 6


@pytest.mark.usefixtures("cold_table")
def test_unbuilt_illegal_word_without_a_vector_raises():
    results = [_run(core, ILLEGAL, vectors=False)
               for core in ("simple", "fast")]
    assert results[0] == results[1]
    assert results[0][1] == (ILLEGAL, CODE)
    assert TABLE[ILLEGAL] is None


def test_table_is_one_shared_list():
    dev = PalmDevice(ram_size=RAM_SIZE, flash_size=FLASH_SIZE, core="simple")
    assert dev.cpu._table is TABLE
    assert len(TABLE) == 0x10000
