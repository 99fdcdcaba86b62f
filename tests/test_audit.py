"""Tests for the semantic whole-image audit (repro.analysis.static.audit):
injected-defect detection, trap-argument census, the baseline gate, and
the static/dynamic region cross-check against a real replayed session.
"""

import json

import pytest

from repro.analysis.static import (Severity, load_baseline,
                                   new_findings_against, save_baseline)
from repro.analysis.static.audit import (RegionModel, audit_image, audit_rom,
                                         cross_check_regions)
from repro.m68k.asm import assemble

ORIGIN = 0x1000


def _audit(source: str, roots=("start",), **kw):
    program = assemble(source, origin=ORIGIN)
    blob = bytes(program.blob)
    addrs = [program.symbols[r] if isinstance(r, str) else r for r in roots]
    kw.setdefault("readonly_code", False)   # test images live in RAM
    return program, audit_image(blob, ORIGIN, addrs, **kw)


# ----------------------------------------------------------------------
# Injected defects must produce the expected findings
# ----------------------------------------------------------------------
class TestInjectedDefects:
    def test_unhacked_sysrandom_is_an_error(self):
        """A reachable SysRandom call site with no logging hack breaks
        replay determinism: ERROR."""
        src = """
start:  dc.w    $a010
        rts
"""
        program, result = _audit(src, hacked_traps=())
        findings = [f for f in result.report
                    if f.code == "untraced-nondeterminism"]
        assert len(findings) == 1
        assert findings[0].severity == Severity.ERROR
        assert findings[0].address == program.symbols["start"]
        assert "SysRandom" in findings[0].message

    def test_hacked_sysrandom_is_silent(self):
        src = """
start:  dc.w    $a010
        rts
"""
        _, result = _audit(src, hacked_traps=(0x010,))
        assert not result.report.has("untraced-nondeterminism")

    def test_timgetticks_is_only_a_warning(self):
        src = """
start:  dc.w    $a018
        rts
"""
        _, result = _audit(src, hacked_traps=())
        finding = [f for f in result.report
                   if f.code == "untraced-nondeterminism"][0]
        assert finding.severity == Severity.WARNING

    def test_store_into_code_region_is_an_error(self):
        """A store whose propagated constant address overlaps a decoded
        instruction is self-modifying code: ERROR."""
        src = """
start:  lea     patch,a0
        move.l  #$4e714e71,(a0)
        bsr.s   patch
        rts
patch:  nop
        nop
        rts
"""
        program, result = _audit(src)
        findings = [f for f in result.report if f.code == "code-write"]
        assert len(findings) == 1
        assert findings[0].severity == Severity.ERROR
        # The finding anchors at the storing instruction, and names the
        # overlapped one.
        assert f"{program.symbols['patch']:#010x}" in findings[0].message

    def test_store_through_unknown_pointer_is_not_flagged(self):
        """No constant address, no code-write claim (soundness: the
        audit only reports what it can prove)."""
        src = """
start:  move.l  #$4e714e71,(a1)
        rts
"""
        _, result = _audit(src)
        assert not result.report.has("code-write")

    def test_nondet_reachable_from_handler(self):
        src = """
start:  bsr.s   helper
        rts
helper: dc.w    $a008
        rts
"""
        program = assemble(src, origin=ORIGIN)
        start = program.symbols["start"]
        result = audit_image(bytes(program.blob), ORIGIN, [start],
                             readonly_code=False, hacked_traps=(),
                             handler_roots=(start,))
        findings = [f for f in result.report
                    if f.code == "nondet-reachable-from-handler"]
        assert len(findings) == 1
        assert "KeyCurrentState" in findings[0].message
        assert findings[0].address == start

    def test_dead_store_reported_as_info(self):
        src = """
start:  moveq   #1,d0
        move.l  d0,-(sp)
        moveq   #2,d0
        move.l  d0,(sp)
        move.l  (sp)+,d1
        rts
"""
        _, result = _audit(src)
        findings = [f for f in result.report if f.code == "dead-store"]
        assert len(findings) == 1
        assert findings[0].severity == Severity.INFO


# ----------------------------------------------------------------------
# Indirect-call resolution and the call graph
# ----------------------------------------------------------------------
class TestIndirectResolution:
    def test_jsr_through_constant_register_resolves(self):
        src = """
start:  lea     target,a0
        jsr     (a0)
        rts
target: moveq   #1,d0
        rts
"""
        program, result = _audit(src)
        target = program.symbols["target"]
        assert list(result.resolved_indirect.values()) == [target]
        assert result.rounds >= 2
        # The resolved callee joins the call graph.
        assert target in result.call_graph[program.symbols["start"]]
        # And nothing is left unresolved.
        assert not result.report.has("unresolved-indirect")

    def test_unknown_register_stays_unresolved(self):
        src = """
start:  jsr     (a3)
        rts
"""
        _, result = _audit(src)
        assert result.resolved_indirect == {}
        assert result.report.has("unresolved-indirect")

    def test_trap_census_carries_arguments(self):
        src = """
start:  move.l  #$10,-(sp)
        move.l  #$abcd,-(sp)
        dc.w    $a010
        rts
"""
        _, result = _audit(src, hacked_traps=(0x010,))
        sigs = result.census.signatures()
        assert sigs["SysRandom"] == [[0xABCD, 0x10]]


# ----------------------------------------------------------------------
# Region predictions and the dynamic cross-check
# ----------------------------------------------------------------------
class TestRegionModel:
    def test_classification_matches_memmap(self):
        model = RegionModel.from_geometry(ram_size=8 << 20,
                                          flash_size=1 << 20)
        assert model.classify(0x0000_1000, 4) == 0          # RAM
        assert model.classify(0x1000_0000, 2) == 1          # flash
        assert model.classify(0x2000_0000, 4) == 3          # card
        assert model.classify(0xFFFF_F000, 4) == 2          # hw
        assert model.classify(0x0900_0000, 4) is None       # hole
        # 8 MB RAM ends at 0x80_0000; 0x7F_FFFE..+4 straddles the hole,
        # and the flash window (1 MB) ends at 0x1010_0000.
        assert model.classify(0x7F_FFFE, 4) is None
        assert model.classify(0x100F_FFFE, 4) is None

    def test_synthetic_mismatch_is_a_typed_error(self):
        """A dynamic reference from a region the prediction excludes
        must surface as a region-mismatch ERROR."""
        src = """
start:  move.l  $2000,d0
        rts
"""
        program, result = _audit(src)
        pc = program.symbols["start"]
        prediction = result.predictions[pc]
        assert prediction.complete
        assert prediction.mask == 1 << 0        # read:ram only
        # Claim the instruction dynamically wrote to hardware space.
        fake_dynamic = {pc: prediction.mask | (1 << 6)}     # write:hw
        report = cross_check_regions(result, fake_dynamic)
        findings = [f for f in report if f.code == "region-mismatch"]
        assert len(findings) == 1
        assert findings[0].severity == Severity.ERROR
        assert findings[0].address == pc
        assert "write:hw" in findings[0].message

    def test_agreeing_dynamic_trace_is_clean(self):
        src = """
start:  move.l  $2000,d0
        move.w  d0,$3000
        rts
"""
        program, result = _audit(src)
        pc0 = program.symbols["start"]
        report = cross_check_regions(result, {pc0: 1 << 0})
        assert report.ok


# ----------------------------------------------------------------------
# The baseline gate
# ----------------------------------------------------------------------
class TestBaseline:
    def test_roundtrip_and_new_finding_detection(self, tmp_path):
        src = """
start:  dc.w    $a010
        rts
"""
        _, result = _audit(src, hacked_traps=())
        path = tmp_path / "baseline.json"
        save_baseline(result.report, path)
        baseline = load_baseline(path)
        assert new_findings_against(result.report, baseline) == []
        # A different audit (new finding) against the same baseline.
        src2 = """
start:  dc.w    $a010
        nop
        dc.w    $a008
        rts
"""
        _, result2 = _audit(src2, hacked_traps=())
        fresh = new_findings_against(result2.report, baseline)
        assert fresh, "the new KeyCurrentState site must not be masked"
        assert all(f.severity >= Severity.WARNING for f in fresh)

    def test_info_findings_never_gate(self, tmp_path):
        src = """
start:  moveq   #1,d0
        move.l  d0,-(sp)
        moveq   #2,d0
        move.l  d0,(sp)
        move.l  (sp)+,d1
        rts
"""
        _, result = _audit(src)
        assert result.report.has("dead-store")
        assert new_findings_against(result.report, set()) == []

    def test_committed_rom_baseline_is_current(self):
        """The checked-in CI baseline matches a fresh audit of the
        built-in ROM — the audit gate is green at HEAD."""
        result = audit_rom(ram_size=8 << 20, flash_size=1 << 20)
        baseline = load_baseline("tools/audit_baseline.json")
        assert new_findings_against(result.report, baseline) == []
        # And the ROM itself carries no error-severity semantic finding.
        assert result.ok, result.report.format()


# ----------------------------------------------------------------------
# Whole-ROM audit + the real replayed-session cross-check
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quickstart(tmp_path_factory):
    from repro.cli import main
    out = tmp_path_factory.mktemp("audit") / "session"
    assert main(["collect", "--out", str(out),
                 "--session", "quickstart"]) == 0
    return out


class TestRomAudit:
    def test_rom_audit_structure(self):
        result = audit_rom(ram_size=8 << 20, flash_size=1 << 20)
        # The standard hack set covers SysRandom/KeyCurrentState, so the
        # only nondeterminism findings are TimGetTicks warnings.
        nondet = [f for f in result.report
                  if f.code == "untraced-nondeterminism"]
        assert nondet and all("TimGetTicks" in f.message for f in nondet)
        assert all(f.severity == Severity.WARNING for f in nondet)
        assert not result.report.has("code-write")
        assert len(result.trap_sites) > 20
        sigs = result.census.signatures()
        # The event loop waits forever: recovered constant argument.
        assert [None, 0xFFFFFFFF] in sigs["EvtGetEvent"]
        json_doc = result.to_json()
        assert json_doc["stats"]["errors"] == 0
        json.dumps(json_doc)        # must be serializable

    def test_replayed_session_region_cross_check(self, quickstart):
        """Acceptance: per-instruction region predictions hold against
        the per-pc reference masks of a real replayed session."""
        from repro.apps import standard_apps
        from repro.emulator import replay_session
        from repro.tracelog import ActivityLog, InitialState

        state = InitialState.load(quickstart / "initial_state")
        log = ActivityLog.load(quickstart / "activity_log.pdb")
        _, profiler, _ = replay_session(
            state, log, apps=standard_apps(), profile=True,
            trace_references=False, track_opcode_addresses=True,
            track_reference_pcs=True,
            emulator_kwargs={"ram_size": 8 << 20, "flash_size": 1 << 20})
        assert profiler.reference_pcs, "no per-pc references recorded"

        result = audit_rom(ram_size=8 << 20, flash_size=1 << 20)
        report = cross_check_regions(result, profiler.reference_pcs)
        assert report.ok, report.format()
        assert not report.has("region-mismatch")
        summary = [f for f in report if f.code == "region-cross-check"][0]
        # The check must actually cover a meaningful instruction count.
        assert int(summary.message.split()[0]) > 25

    def test_cli_audit_baseline_gate(self, tmp_path, capsys):
        from repro.cli import main
        rc = main(["audit", "--baseline", "tools/audit_baseline.json"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "no new findings" in out

    def test_cli_lint_deep(self, capsys):
        from repro.cli import main
        rc = main(["lint", "--deep"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "semantic ROM audit" in out
        assert "TimGetTicks" in out
