"""Translation-validator tests.

Three layers:

* property — every block the fuser emits for random word-soup and
  structured programs (the :mod:`test_fastcore` generators) validates
  clean: the generated Python is proven equivalent to the per-insn
  reference semantics on every covered path, with zero error-severity
  findings;
* seeded miscompiles — one deterministic regression per corpus class
  asserting the validator reports the exact expected finding code;
* elision audits — tampered region facts and unproven sanitizer pcs
  must produce error findings, intact ones must not.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.static.findings import (Report, Severity,
                                           baseline_keys, load_baseline,
                                           new_findings_against,
                                           save_baseline)
from repro.analysis.transval import (MISCOMPILE_CLASSES, Vector,
                                     audit_region_elisions,
                                     audit_sanitizer_elisions,
                                     mutate_prov, selftest,
                                     validate_block)
from repro.device.device import PalmDevice
from repro.emulator.profiling import Profiler

RAM_SIZE = 1 << 20
FLASH_SIZE = 1 << 16
CODE = 0x1000
STACK_TOP = 0x8000

STOP_SUPER = (0x4E72, 0x2700)  # stop #$2700

# Supports all four miscompile mutators: flag materializations, RAM
# read/write tokens, cycle batches and multi-token extends.
MEMMIX = [0x41F8, 0x3000,   # lea (0x3000).w, a0
          0x3010,           # move.w (a0), d0
          0x2248,           # movea.l a0, a1
          0x2290,           # move.l (a0), (a1)
          0x0C50, 0x0001,   # cmpi.w #1, (a0)
          0x6702,           # beq.s +2
          0x4A40,           # tst.w d0
          ] + list(STOP_SUPER)

STRAIGHT = [0x7001,          # moveq #1, d0
            0x0640, 0x7FFF,  # addi.w #0x7fff, d0
            0x3400,          # move.w d0, d1
            0x3081,          # move.w d1, (a0)
            0xE359,          # rol.w #1, d1
            ] + list(STOP_SUPER)

BULK_FILL = [0x7242,         # moveq #0x42, d1
             0x741E,         # moveq #30, d2
             0x41F8, 0x2000,  # lea (0x2000).w, a0
             0x30C1,          # move.w d1, (a0)+
             0x5382,          # subq.l #1, d2
             0x66FA,          # bne.s <loop>
             ] + list(STOP_SUPER)


def _collect_provs(words, cycle_limit=200_000):
    """Run ``words`` on the fast core with eager fusion; returns the
    provenance of every block the fuser compiled."""
    dev = PalmDevice(ram_size=RAM_SIZE, flash_size=FLASH_SIZE,
                     core="fast")
    mem = dev.mem
    mem.ram.write32(0, STACK_TOP)
    mem.ram.write32(4, CODE)
    mem.ram.load(CODE, b"".join(struct.pack(">H", w & 0xFFFF)
                                for w in words))
    dev.cpu.reset()
    dev.core.fuse_threshold = 1
    prof = Profiler(trace_references=True)
    mem.tracer = prof
    dev.cpu.opcode_hook = prof.opcode
    provs = []
    dev.core.fuse_validator = lambda block: provs.append(block.prov)
    try:
        dev._run_cpu_until_cycles(dev.cpu.cycles + cycle_limit)
    except Exception:
        pass  # guest faults are a legitimate program outcome
    return dev, provs


def _assert_validates_clean(provs):
    for prov in provs:
        report, stats = validate_block(prov)
        errors = report.errors
        assert not errors, (
            f"block {prov.pc:#x} failed validation:\n"
            + "\n".join(f.format() for f in errors)
            + f"\n--- generated source ---\n{prov.source}")


# ----------------------------------------------------------------------
# Property: everything the fuser emits validates clean
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(words=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=48))
def test_word_soup_blocks_validate_clean(words):
    _dev, provs = _collect_provs(words + list(STOP_SUPER),
                                 cycle_limit=50_000)
    _assert_validates_clean(provs)


_SAFE_OPS = [
    (0x7001,), (0x7202,), (0xD240,), (0x4A41,), (0x4641,),
    (0xE359,), (0x3401,), (0x0642, 0x0007), (0xB542,), (0x4E71,),
]


@st.composite
def _structured(draw):
    words = []
    for _ in range(draw(st.integers(1, 5))):
        words.extend(draw(st.sampled_from(_SAFE_OPS)))
    shape = draw(st.sampled_from(["dbf", "beq", "none"]))
    if shape == "dbf":
        words = [0x7005] + words
        words += [0x51C8, (-2 * (len(words) - 1)) & 0xFFFF]
    elif shape == "beq":
        words += [0x6702, 0x4A41]
    return words + list(STOP_SUPER)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(words=_structured())
def test_structured_blocks_validate_clean(words):
    _dev, provs = _collect_provs(words, cycle_limit=100_000)
    _assert_validates_clean(provs)


def test_deterministic_programs_validate_with_full_coverage():
    """The three reference programs fuse and certify (every live arm
    covered) with zero findings of any severity."""
    for words in (MEMMIX, STRAIGHT, BULK_FILL):
        _dev, provs = _collect_provs(words)
        assert provs, "program did not fuse"
        for prov in provs:
            report, stats = validate_block(prov)
            assert len(report) == 0, "\n".join(
                f.format() for f in report)
            assert stats.arms_covered == stats.arms


# ----------------------------------------------------------------------
# Seeded miscompiles: each class must be caught with the exact code
# ----------------------------------------------------------------------
def _mutant_report(class_name):
    mutator, expected = MISCOMPILE_CLASSES[class_name]
    _dev, provs = _collect_provs(MEMMIX)
    for prov in provs:
        clone = mutate_prov(prov, mutator)
        if clone is not None:
            report, _stats = validate_block(clone)
            return report, expected
    pytest.fail(f"no fused block supports mutation '{class_name}'")


@pytest.mark.parametrize("class_name", sorted(MISCOMPILE_CLASSES))
def test_miscompile_class_is_detected(class_name):
    report, expected = _mutant_report(class_name)
    assert report.has(expected), (
        f"expected {expected}, got {sorted(set(report.codes()))}")
    assert any(f.severity == Severity.ERROR for f in report
               if f.code == expected)


def test_selftest_passes_on_real_corpus():
    _dev, provs = _collect_provs(MEMMIX)
    _dev2, provs2 = _collect_provs(STRAIGHT)
    report = selftest(provs + provs2)
    assert not report.errors, "\n".join(f.format() for f in report)
    # One INFO detection per class.
    infos = [f for f in report if f.severity == Severity.INFO]
    assert len(infos) == len(MISCOMPILE_CLASSES)


def test_mutate_prov_is_a_noop_safe_clone():
    _dev, provs = _collect_provs(MEMMIX)
    prov = provs[0]
    mutator, _ = MISCOMPILE_CLASSES["stale-token"]
    clone = mutate_prov(prov, mutator)
    assert clone is not None
    assert clone.source != prov.source
    assert clone.source_hash != prov.source_hash
    assert clone.pc == prov.pc          # identity is preserved
    # The original provenance is untouched.
    report, _stats = validate_block(prov)
    assert not report.errors


# ----------------------------------------------------------------------
# Provenance and validator plumbing
# ----------------------------------------------------------------------
def test_provenance_records_identity_and_source():
    _dev, provs = _collect_provs(MEMMIX)
    prov = provs[0]
    assert prov.insn_count == len(prov.entries)
    assert len(prov.source_hash) == 64
    assert prov.source.startswith("def f(cpu, limit, ex):")
    assert prov.code and all(isinstance(b, bytes) for _a, b in prov.code)


def test_hot_blocks_carry_fused_provenance():
    dev, provs = _collect_provs(MEMMIX)
    rows = dev.core.hot_blocks(8)
    fused = [r for r in rows if "fused_insns" in r]
    assert fused, "no hot row carries provenance"
    row = fused[0]
    assert row["source_hash"] == provs[0].source_hash[:12]
    assert row["fused_insns"] == provs[0].insn_count
    assert isinstance(row["elisions"], int)


def test_validator_flags_are_part_of_the_journal():
    """A vector with all-ones incoming flags exists in every battery —
    the fix for gate-exit flag blindness (a dropped materialization
    whose reference value is zero is invisible with zeroed flags)."""
    vec = Vector(d=(0,) * 8, a=(0,) * 8, x=1, n=1, z=1, v=1, c=1)
    assert (vec.x, vec.n, vec.z, vec.v, vec.c) == (1, 1, 1, 1, 1)


# ----------------------------------------------------------------------
# Elision audits
# ----------------------------------------------------------------------
class _FakeProv:
    def __init__(self, pc, region, elisions):
        self.pc = pc
        self.region = region
        self.elisions = elisions
        self.source_hash = "f" * 64


def test_region_elision_audit_accepts_fresh_facts():
    prov = _FakeProv(0x10000100, 1, [(0x10000104, "read", 1)])
    report = audit_region_elisions([prov], {0x10000104: (1, None)})
    assert len(report) == 0


def test_region_elision_audit_rejects_stale_fact():
    prov = _FakeProv(0x10000100, 1, [(0x10000104, "read", 1)])
    # Fresh derivation now says the access reads RAM (or proves
    # nothing): either way the baked flash arm is unjustified.
    for fresh in ({0x10000104: (0, None)}, {}):
        report = audit_region_elisions([prov], fresh)
        assert report.has("tv-elide-region")
        assert report.errors


def test_region_elision_audit_rejects_ram_resident_block():
    prov = _FakeProv(0x2000, 0, [(0x2004, "read", 0)])
    report = audit_region_elisions([prov], {0x2004: (0, None)})
    assert report.has("tv-elide-region")


def test_sanitizer_elision_audit():
    clean = audit_sanitizer_elisions({0x100, 0x200}, {0x100, 0x200,
                                                      0x300})
    assert len(clean) == 0
    tampered = audit_sanitizer_elisions({0x100, 0x200}, {0x100})
    assert tampered.has("tv-elide-sanitizer")
    assert [f.address for f in tampered.errors] == [0x200]


# ----------------------------------------------------------------------
# Baseline plumbing
# ----------------------------------------------------------------------
def test_baseline_round_trip(tmp_path):
    report = Report()
    report.add(Severity.WARNING, "tv-uncovered", "w", address=0x100)
    report.add(Severity.ERROR, "tv-mismatch-pc", "e", address=0x200)
    report.add(Severity.INFO, "tv-selftest", "i", address=0x300)
    path = tmp_path / "baseline.json"
    save_baseline(report, path)
    baseline = load_baseline(path)
    # INFO findings are not baselined; WARNING+ are.
    assert baseline == {("tv-uncovered", 0x100),
                        ("tv-mismatch-pc", 0x200)}
    assert new_findings_against(report, baseline) == []
    report.add(Severity.WARNING, "tv-uncovered", "new", address=0x400)
    fresh = new_findings_against(report, baseline)
    assert [(f.code, f.address) for f in fresh] == [("tv-uncovered",
                                                     0x400)]
    assert ("tv-uncovered", 0x400) in set(baseline_keys(report))
