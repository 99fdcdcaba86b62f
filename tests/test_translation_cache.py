"""The superblock core's process-wide translation cache.

A :class:`~repro.m68k.blockcore.BlockCore` binds a block from the
cache when the code bytes its decode read still match memory, and binds
a cached fused body when the block also has the same region facts.
These tests pin what that must never change and what it must never
hold:

* a replay with an emptied cache and two with a warm one are
  bit-identical, down to the ``--hot`` rows and the fuse hook's view;
* RAM code whose bytes changed — in the block or only in the word that
  ended it — is decoded afresh by the next core;
* a flash block fused under one set of region facts is not bound
  under another;
* the cache pins no machine: a finished replay is collectable while
  its blocks stay cached;
* each (region, pc, bytes, facts) is decoded and code-generated at
  most once per process, an unfusable verdict included.
"""

import gc
import struct
import weakref

import pytest

from repro import replay_session, standard_apps
from repro.device.device import PalmDevice
from repro.emulator import playback
from repro.emulator.profiling import Profiler
from repro.m68k import blockcore, fuse
from repro.workloads import UserScript, collect_session
from tests.profiler_utils import trace_fingerprint

EMU_KW = {"ram_size": 8 << 20, "flash_size": 1 << 20}
_APPS = standard_apps()

RAM_SIZE = 1 << 20
FLASH_SIZE = 1 << 16
CODE = 0x1000
STACK_TOP = 0x8000
STOP_SUPER = (0x4E72, 0x2700)


@pytest.fixture(scope="module")
def session():
    script = UserScript("tcache")
    script.at(80)
    script.tap(80, 80, hold_ticks=4)
    script.wait(60)
    script.tap(20, 150, hold_ticks=3)
    script.wait(160)
    return collect_session(_APPS, script, name="tcache",
                           entropy_seed=4242, ram_size=EMU_KW["ram_size"])


@pytest.fixture
def empty_store(monkeypatch):
    """An emptied translation cache for this test only."""
    monkeypatch.setattr(blockcore, "_STORE", {})


def _replay(session, on_fuse=None):
    emulator, prof, result = replay_session(
        session.initial_state, session.log, apps=_APPS,
        emulator_kwargs={**EMU_KW, "core": "fast"}, on_fuse=on_fuse)
    return emulator, prof, result


def _outputs(emulator, prof, result):
    core = emulator.device.core
    return {
        "trace": trace_fingerprint(prof),
        "counts": prof.counts_bytes(),
        "cycles": emulator.device.cpu.cycles,
        "instructions": (emulator.device.cpu.instructions,
                         prof.instructions),
        "opcodes": bytes(prof.opcode_counts),
        "hot": core.hot_blocks(n=len(core.blocks) + len(core.pc_stats)),
        "result": vars(result),
        "installed": (core.blocks_built, core.fused_built),
    }


def test_cold_and_warm_replays_are_identical(session, empty_store):
    cold = _replay(session)
    cold_core = cold[0].device.core
    assert cold_core.fused_bound == 0
    reference = _outputs(*cold)
    for _ in range(2):
        warm = _replay(session)
        core = warm[0].device.core
        assert _outputs(*warm) == reference
        assert core.blocks_bound == core.blocks_built > 0
        assert core.fused_bound == core.fused_built > 0


def test_fuse_hook_sees_bound_bodies_as_fresh_ones(session, empty_store):
    seen = {"cold": [], "warm": []}
    for label in ("cold", "warm"):
        emulator, _, _ = _replay(session, on_fuse=lambda block, _l=label:
                                 seen[_l].append((block.prov.pc,
                                                  block.prov.source_hash)))
    assert emulator.device.core.fused_bound == len(seen["warm"])
    assert seen["warm"] == seen["cold"] and seen["cold"]


def test_each_translation_is_made_once_per_process(session, empty_store,
                                                   monkeypatch):
    decodes, codegens = [], []
    decode, generate = blockcore._decode, fuse._Fuser.build

    def counting_decode(pc, region, base, limit, data):
        tpl = decode(pc, region, base, limit, data)
        if tpl is not None:
            decodes.append((region, pc, tpl.reads))
        return tpl

    def counting_generate(self):
        block = self.block
        codegens.append((block.region, block.pc, block.tpl.reads,
                         tuple(sorted(self.facts.items()))))
        return generate(self)

    monkeypatch.setattr(blockcore, "_decode", counting_decode)
    monkeypatch.setattr(fuse._Fuser, "build", counting_generate)
    for _ in range(3):
        _replay(session)
    assert decodes and codegens
    assert len(set(decodes)) == len(decodes)
    assert len(set(codegens)) == len(codegens)


def test_flash_body_is_not_bound_under_other_facts(session, monkeypatch):
    """Elisions are generated from the region facts: a body generated
    without facts must not be bound where facts apply, nor the other
    way round."""
    elisions = {}
    for label, facts in (("absent", lambda apps, kwargs: {}),
                         ("facts", playback._region_facts),
                         ("absent again", lambda apps, kwargs: {})):
        monkeypatch.setattr(playback, "_region_facts", facts)
        provs = []
        _replay(session, on_fuse=lambda block: provs.append(block.prov))
        elisions[label] = sum(len(prov.elisions) for prov in provs)
    assert elisions["facts"] > 0
    assert elisions["absent"] == elisions["absent again"] == 0


def test_store_pins_no_finished_replay(session, empty_store):
    """Both the replay that fills the cache and one that binds from it
    leave nothing of their machine behind."""
    for _ in range(2):
        emulator, prof, _ = _replay(session)
        core = emulator.device.core
        held = [key for key in blockcore._STORE if key[1] in core.blocks]
        assert held
        refs = [weakref.ref(emulator), weakref.ref(emulator.device.mem),
                weakref.ref(prof)]
        del emulator, prof, core
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None]
        assert all(key in blockcore._STORE for key in held)


# ----------------------------------------------------------------------
# Stale RAM code: a later core meets other bytes at the same pc
# ----------------------------------------------------------------------
def _device(core, words):
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
    if core == "fast":
        dev.core.fuse_threshold = 1
    return dev, prof


def _run(core, words, cycle_limit=20_000):
    dev, prof = _device(core, words)
    fault = None
    try:
        dev._run_cpu_until_cycles(dev.cpu.cycles + cycle_limit)
    except Exception as exc:
        fault = (type(exc).__name__, str(exc))
    cpu = dev.cpu
    return dev, (fault, tuple(cpu.d), tuple(cpu.a), cpu.pc, cpu.sr,
                 cpu.stopped, cpu.cycles, cpu.instructions,
                 bytes(dev.mem.ram.data), bytes(prof.opcode_counts),
                 trace_fingerprint(prof))


def _counted_loop(step):
    return [
        0x7603,                          # moveq #3, d3
        0x7000 | step,                   # loop: moveq #step, d0
        0xD280,                          # add.l d0, d1
        0x51CB, 0xFFFA,                  # dbf d3, loop
        *STOP_SUPER,
    ]


def test_changed_ram_code_is_decoded_afresh():
    first, _ = _run("fast", _counted_loop(1))
    loop_pc = CODE + 2
    assert first.core.blocks[loop_pc].fused
    dev, fast = _run("fast", _counted_loop(5))
    _, simple = _run("simple", _counted_loop(5))
    assert fast == simple
    assert dev.cpu.d[1] == 20
    assert dev.core.blocks[loop_pc].tpl is not \
        first.core.blocks[loop_pc].tpl


def test_changed_terminating_word_is_decoded_afresh():
    """The F-line word that ended the first block is replaced by an
    instruction: the next core's block must run on through it."""
    trap_ended = [0x7001, 0x7202, 0xFFFF]
    run_on = [0x7001, 0x7202, 0x7403, *STOP_SUPER]
    first, _ = _device("fast", trap_ended)
    block = first.core._build(CODE)
    assert block.tail is not None and len(block.entries) == 2
    dev, _ = _device("fast", run_on)
    block = dev.core._build(CODE)
    assert dev.core.blocks_bound == 0
    assert block.tail is None
    assert [entry[3] for entry in block.entries] == [0x7001, 0x7202,
                                                     0x7403, 0x4E72]
    _, fast = _run("fast", run_on)
    _, simple = _run("simple", run_on)
    assert fast == simple


def test_unfusable_verdict_is_cached(monkeypatch, empty_store):
    """A block the generator refuses is not generated again by the
    next core."""
    words = [0x3039, 0x0000, 0x1001,     # move.w $1001.l, d0: misaligned
             *STOP_SUPER]
    attempts = []
    generate = fuse._Fuser.build

    def counting_generate(self):
        attempts.append(self.block.pc)
        return generate(self)

    monkeypatch.setattr(fuse._Fuser, "build", counting_generate)
    for _ in range(2):
        dev, prof = _device("fast", words)
        core = dev.core
        core._fuse_tracer = prof
        assert fuse.build_fused(core, core._build(CODE)) is False
    assert attempts == [CODE]
