"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main


def run_cli(*args, script=None):
    """Run ``python -m repro ARGS`` (or ``python -c SCRIPT ARGS``) in a
    fresh process with the source tree on the path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = ["-m", "repro"] if script is None else ["-c", script]
    return subprocess.run([sys.executable, *command, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def assert_one_line_failure(proc):
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


#: Runs the CLI with every container's chunk stream failing to decode
#: after its first chunk, as a container that goes bad while a sweep
#: worker streams it would.  ``counts()`` decodes through ``chunks()``
#: and still succeeds, so only the sweep's workers see the failure.
DECODE_FAILS_IN_WORKER = """
import sys
from repro.traces import container

cache_chunks = container.TraceContainer.cache_chunks

def failing_cache_chunks(self, *args, **kwargs):
    for index, chunk in enumerate(cache_chunks(self, *args, **kwargs)):
        if index:
            raise container.TraceContainerError(
                f"{self.path}: chunk {index}: injected decode failure")
        yield chunk

container.TraceContainer.cache_chunks = failing_cache_chunks
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "session"
    rc = main(["collect", "--out", str(out), "--session", "quickstart"])
    assert rc == 0
    return out


class TestCollect:
    def test_creates_archive_layout(self, archive, capsys):
        assert (archive / "initial_state" / "flash.rom").exists()
        assert (archive / "initial_state" / "state.json").exists()
        assert (archive / "activity_log.pdb").exists()
        assert list((archive / "final_state").glob("*.pdb"))

    def test_unknown_session_rejected(self, tmp_path, capsys):
        rc = main(["collect", "--out", str(tmp_path / "x"),
                   "--session", "bogus"])
        assert rc == 2


class TestReplay:
    def test_replay_prints_statistics(self, archive, capsys):
        rc = main(["replay", "--session", str(archive)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ave mem cyc" in out
        assert "references" in out

    def test_replay_writes_trace(self, archive, tmp_path, capsys):
        from repro.traces import TraceContainer

        trace_path = tmp_path / "trace.ptrc"
        rc = main(["replay", "--session", str(archive),
                   "--trace-out", str(trace_path)])
        assert rc == 0
        with TraceContainer(trace_path) as container:
            assert container.verify()["tokens"] > 0

    def test_no_profile_mode(self, archive, capsys):
        rc = main(["replay", "--session", str(archive), "--no-profile"])
        assert rc == 0
        assert "ave mem cyc" not in capsys.readouterr().out

    def test_resilient_replay_matches_plain_replay(self, archive, tmp_path,
                                                   capsys):
        """A checkpointed resync replay builds the same machine and prints
        the same report: its summary lines and PTRC digest equal the
        plain replay's."""
        from repro.traces import TraceContainer

        runs = {}
        for name, extra in (("plain", []),
                            ("resync", ["--checkpoint-every", "500",
                                        "--on-divergence", "resync"])):
            path = tmp_path / f"{name}.ptrc"
            assert main(["replay", "--session", str(archive),
                         "--trace-out", str(path), *extra]) == 0
            summary = [line for line in capsys.readouterr().out.splitlines()
                       if line.startswith(("instructions", "references",
                                           "ave mem cyc"))]
            with TraceContainer(path) as container:
                runs[name] = (summary, container.digest)
        assert len(runs["plain"][0]) == 3
        assert runs["resync"] == runs["plain"]

    def test_hot_report_under_resilience(self, archive, capsys):
        rc = main(["replay", "--session", str(archive), "--hot", "3",
                   "--checkpoint-every", "500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "checkpoints" in out
        assert "hot blocks" in out and "hot traps" in out

    @pytest.mark.parametrize("core", ["fast", "simple"])
    @pytest.mark.parametrize("resilience", [
        ["--checkpoint-every", "500"], ["--on-divergence", "resync"],
        ["--faults", "crash:at=250"], ["--salvage"],
        ["--reset-timeout", "800"]])
    def test_validate_codegen_rejects_resilience(self, archive, capsys,
                                                 resilience, core):
        rc = main(["replay", "--session", str(archive), "--validate-codegen",
                   "--core", core, *resilience])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "--validate-codegen does not combine" in err


@pytest.fixture(scope="module")
def corrupt_archive(archive, tmp_path_factory):
    """The quickstart archive with an unknown event type in its log."""
    import shutil

    from repro.resilience import FaultPlan
    from repro.tracelog import ActivityLog

    root = tmp_path_factory.mktemp("corrupt") / "session"
    shutil.copytree(archive, root)
    log_path = root / "activity_log.pdb"
    garbled, _ = FaultPlan.parse("type-garbage").apply_to_log(
        ActivityLog.load(log_path))
    garbled.save(log_path)
    return root


@pytest.fixture(scope="module")
def foreign_rom_archive(archive, tmp_path_factory):
    """The quickstart archive with one byte of its flash image flipped,
    as an archive collected with another ROM build would be."""
    import shutil

    root = tmp_path_factory.mktemp("foreign-rom") / "session"
    shutil.copytree(archive, root)
    rom = root / "initial_state" / "flash.rom"
    data = bytearray(rom.read_bytes())
    data[100] ^= 1
    rom.write_bytes(bytes(data))
    return root


ARCHIVE_COMMANDS = [["replay"], ["replay", "--checkpoint-every", "500"],
                    ["validate"], ["audit"], ["verify-codegen"]]


class TestArchiveErrors:
    """``replay`` (plain and resilient), ``validate``, ``audit`` and
    ``verify-codegen`` load archives through one loader: an unreadable
    archive prints one stderr line and exits 1, with no traceback."""

    @pytest.mark.parametrize("command", ARCHIVE_COMMANDS)
    def test_missing_archive(self, tmp_path, command):
        proc = run_cli(*command, "--session", tmp_path / "nonexistent")
        assert_one_line_failure(proc)
        assert "cannot read archive" in proc.stderr
        assert "nonexistent" in proc.stderr

    @pytest.mark.parametrize("command", ARCHIVE_COMMANDS)
    def test_corrupt_activity_log(self, corrupt_archive, command):
        proc = run_cli(*command, "--session", corrupt_archive)
        assert_one_line_failure(proc)
        assert "corrupt activity log" in proc.stderr
        assert ("--salvage" in proc.stderr) == (command[0] == "replay")

    @pytest.mark.parametrize("command", [
        ["replay"], ["replay", "--checkpoint-every", "500"], ["validate"],
        ["audit"]])
    def test_rom_mismatch(self, foreign_rom_archive, tmp_path, command):
        """An archive whose flash image is not this build's ROM is a
        verdict, not a crash; a replay writing a trace leaves no file."""
        extra = (["--trace-out", tmp_path / "t.ptrc"]
                 if command[0] == "replay" else [])
        proc = run_cli(*command, *extra, "--session", foreign_rom_archive)
        assert_one_line_failure(proc)
        assert "ROM differs" in proc.stderr
        assert not list(tmp_path.iterdir())

    def test_bad_state_json(self, archive, tmp_path):
        import shutil

        root = tmp_path / "session"
        shutil.copytree(archive, root)
        (root / "initial_state" / "state.json").write_text('{"x": 1}')
        proc = run_cli("replay", "--session", root)
        assert_one_line_failure(proc)
        assert "cannot read archive" in proc.stderr
        assert "state.json" in proc.stderr

    def test_truncated_activity_log(self, archive, tmp_path):
        """A log cut inside its PDB header is a corrupt log, not a
        ``struct.error`` traceback."""
        import shutil

        root = tmp_path / "session"
        shutil.copytree(archive, root)
        log = root / "activity_log.pdb"
        log.write_bytes(log.read_bytes()[:40])
        proc = run_cli("replay", "--session", root)
        assert_one_line_failure(proc)
        assert "corrupt activity log" in proc.stderr
        assert "PDB header truncated" in proc.stderr


class TestBaselineErrors:
    """A baseline the gate cannot read prints one stderr line and exits
    1 before any analysis runs."""

    @pytest.mark.parametrize("command", ["audit", "verify-codegen",
                                         "sanitize"])
    @pytest.mark.parametrize("blob", ['{"x": 1}', "{", '{"findings": [1]}',
                                      '{"programs": {"p": [["c", "x"]]}}'])
    def test_malformed_baseline(self, tmp_path, command, blob):
        path = tmp_path / "baseline.json"
        path.write_text(blob)
        proc = run_cli(command, "--baseline", path)
        assert_one_line_failure(proc)
        assert "cannot read baseline" in proc.stderr
        assert str(path) in proc.stderr


class TestValidate:
    def test_validate_passes_deterministic(self, archive, capsys):
        rc = main(["validate", "--session", str(archive)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("VALID") >= 2

    def test_validate_with_jitter(self, archive, capsys):
        rc = main(["validate", "--session", str(archive), "--jitter", "3"])
        # Jittered replays may shift tick-stamped record contents; both
        # outcomes are legitimate, but the report must render.
        out = capsys.readouterr().out
        assert "activity log correlation" in out
        assert rc in (0, 1)


class TestSweepPipeline:
    def test_trace_to_sweep(self, archive, tmp_path, capsys):
        trace_path = tmp_path / "t.ptrc"
        assert main(["replay", "--session", str(archive),
                     "--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        rc = main(["sweep", "--trace", str(trace_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "Figure 6" in out

    def test_desktop_trace_generation(self, tmp_path, capsys):
        out_path = tmp_path / "d.ptrc"
        rc = main(["desktop-trace", "--out", str(out_path),
                   "--length", "50000", "--seed", "1"])
        assert rc == 0
        assert out_path.exists()
        rc = main(["sweep", "--trace", str(out_path)])
        assert rc == 0

    def test_desktop_sweep_matches_in_ram_sweep(self, tmp_path, capsys):
        """The CLI's container sweep of a desktop trace prints the
        tables of the in-RAM sweep of the same generated addresses."""
        from repro.analysis import format_access_times, format_miss_rates
        from repro.cache import RegionMix, sweep_parallel
        from repro.traces import generate_desktop_trace

        path = tmp_path / "d.ptrc"
        assert main(["desktop-trace", "--out", str(path),
                     "--length", "20000", "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["sweep", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        points = sweep_parallel(generate_desktop_trace(20000, seed=3))
        tables = (format_miss_rates(points) + "\n\n"
                  + format_access_times(points, RegionMix(20000, 0)) + "\n")
        assert out.split("\n", 1)[1] == tables

    @pytest.mark.parametrize("length", ["0", "-5"])
    def test_desktop_length_below_one_is_rejected(self, tmp_path, length,
                                                  capsys):
        with pytest.raises(SystemExit) as info:
            main(["desktop-trace", "--out", str(tmp_path / "d.ptrc"),
                  "--length", length])
        assert info.value.code == 2
        assert "--length" in capsys.readouterr().err
        assert not (tmp_path / "d.ptrc").exists()


@pytest.fixture(scope="module")
def desktop_container(tmp_path_factory):
    """A desktop trace as a 15-chunk ``.ptrc``."""
    root = tmp_path_factory.mktemp("bad-traces")
    whole, ptrc = root / "whole.ptrc", root / "d.ptrc"
    assert main(["desktop-trace", "--out", str(whole),
                 "--length", "30000", "--seed", "1"]) == 0
    assert main(["trace", "convert", str(whole), str(ptrc),
                 "--chunk-tokens", "2000"]) == 0
    return ptrc


class TestSweepBadInput:
    """A trace the sweep cannot read prints one line on stderr and
    exits 1, with no traceback, in-process and with forked workers."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_corrupt_container(self, desktop_container, tmp_path, jobs):
        data = bytearray(desktop_container.read_bytes())
        data[len(data) // 2] ^= 0xFF
        flipped = tmp_path / "flip.ptrc"
        flipped.write_bytes(bytes(data))
        proc = run_cli("sweep", "--trace", flipped, "--jobs", jobs)
        assert_one_line_failure(proc)
        assert "flip.ptrc: chunk" in proc.stderr

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_missing_file(self, tmp_path, jobs):
        proc = run_cli("sweep", "--trace", tmp_path / "missing.ptrc",
                       "--jobs", jobs)
        assert_one_line_failure(proc)
        assert "missing.ptrc" in proc.stderr

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_garbage_npz(self, tmp_path, jobs):
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(bytes(range(256)) * 4)
        proc = run_cli("sweep", "--trace", garbage, "--jobs", jobs)
        assert_one_line_failure(proc)
        assert "garbage.npz" in proc.stderr

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name, message", [
        ("short.txt", "not a PTRC file"),
        ("torn.ptrc", "trace verify PATH --salvage OUT.ptrc")])
    def test_short_file(self, bad_inputs, jobs, name, message):
        """A short non-PTRC file is not called torn, a short PTRC prefix
        is, and the path is printed once."""
        proc = run_cli("sweep", "--trace", bad_inputs / name, "--jobs", jobs)
        assert_one_line_failure(proc)
        assert message in proc.stderr
        assert proc.stderr.count(name) == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_decode_failure(self, desktop_container, jobs):
        proc = run_cli("sweep", "--trace", desktop_container,
                       "--jobs", jobs, script=DECODE_FAILS_IN_WORKER)
        assert_one_line_failure(proc)
        assert "sweep worker failed" in proc.stderr
        assert "chunk 1: injected decode failure" in proc.stderr


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """A missing ``.ptrc``, an 18-byte garbage ``.ptrc``, a ``.din``
    that is not dinero text, a 10-byte text file and an 18-byte file
    that starts like a PTRC container."""
    root = tmp_path_factory.mktemp("bad-inputs")
    (root / "garbage.ptrc").write_bytes(bytes(range(18)))
    (root / "garbage.din").write_bytes(b"garbage\x00\xff\xfe\n")
    (root / "short.txt").write_bytes(b"hello text")
    (root / "torn.ptrc").write_bytes(b"PTRC01" + bytes(12))
    return root


class TestTraceBadInput:
    """Every ``trace`` action prints one stderr line and exits 1 on an
    input it cannot read, and a failed conversion leaves no torn
    destination behind."""

    @pytest.mark.parametrize("action", ["info", "verify", "cat", "convert"])
    @pytest.mark.parametrize("name", ["missing.ptrc", "garbage.ptrc",
                                      "garbage.din", "short.txt",
                                      "torn.ptrc"])
    def test_one_line_failure(self, bad_inputs, tmp_path, action, name):
        dst = [tmp_path / "out.ptrc"] if action == "convert" else []
        proc = run_cli("trace", action, bad_inputs / name, *dst)
        assert_one_line_failure(proc)
        assert name in proc.stderr
        assert not list(tmp_path.iterdir())
        if name == "short.txt":
            assert "not a PTRC file" in proc.stderr
        if name == "torn.ptrc":
            assert "torn" in proc.stderr
            assert "trace verify PATH --salvage OUT.ptrc" in proc.stderr

    @pytest.mark.parametrize("suffix", [".ptrc", ".din"])
    def test_failed_convert_keeps_existing_destination(
            self, bad_inputs, desktop_container, tmp_path, suffix):
        dst = tmp_path / f"out{suffix}"
        assert main(["trace", "convert", str(desktop_container),
                     str(dst)]) == 0
        before = dst.read_bytes()
        proc = run_cli("trace", "convert", bad_inputs / "garbage.din", dst)
        assert_one_line_failure(proc)
        assert dst.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [dst.name]

    @pytest.mark.parametrize("action, option",
                             [("convert", "--chunk-tokens"),
                              ("cat", "--limit")])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_rejected(self, desktop_container, tmp_path,
                                         action, option, count, capsys):
        dst = [str(tmp_path / "o.ptrc")] if action == "convert" else []
        with pytest.raises(SystemExit) as info:
            main(["trace", action, str(desktop_container), *dst,
                  option, count])
        assert info.value.code == 2
        assert option in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


def campaign_members():
    from tests.test_container import random_tokens

    return [random_tokens(300 + 50 * i, seed=70 + i, pool=64)
            for i in range(2)]


class TestTraceInfo:
    @pytest.mark.parametrize("manifest", ['{"bogus": 1', '{"bogus": 1}'])
    def test_malformed_archive_manifest_is_one_line(self, tmp_path,
                                                    manifest):
        """A campaign directory with a bad ``manifest.json`` prints one
        line on stderr and exits 1, as a bad ``.ptrc`` does, with no
        traceback."""
        from tests.campaign_utils import make_campaign

        root = make_campaign(tmp_path / "camp", campaign_members())
        (root / "manifest.json").write_text(manifest)
        proc = run_cli("trace", "info", root)
        assert_one_line_failure(proc)
        assert "manifest.json" in proc.stderr


class TestCampaignTraces:
    """A fleet campaign directory is the multi-session trace store:
    every ``trace`` action and ``sweep --trace`` read it."""

    def test_trace_actions_and_sweep(self, tmp_path, capsys):
        from repro.traces.container import write_container
        from tests.campaign_utils import make_campaign

        members = campaign_members()
        root = make_campaign(tmp_path / "camp", members)
        assert main(["trace", "info", str(root)]) == 0
        out = capsys.readouterr().out
        assert "s00000" in out and f"{sum(map(len, members)):,}" in out
        assert main(["trace", "verify", str(root)]) == 0
        assert capsys.readouterr().out.count("verify OK") == 2
        assert main(["trace", "cat", str(root), "--limit", "400"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 400
        # The campaign sweeps as one container of its members' tokens.
        whole = tmp_path / "whole.ptrc"
        write_container(np.concatenate(members), whole)
        tables = []
        for source in (root, whole):
            assert main(["sweep", "--trace", str(source)]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1]

    @pytest.mark.parametrize("fault", ["missing", "swapped", "corrupt"])
    def test_verify_member_fault_is_one_line(self, tmp_path, fault):
        from repro.fleet.journal import trace_path
        from repro.traces.container import write_container
        from tests.campaign_utils import make_campaign

        root = make_campaign(tmp_path / "camp", campaign_members(),
                             codec="raw")
        victim = trace_path(root, "s00001")
        if fault == "missing":
            victim.unlink()
        elif fault == "swapped":
            write_container(campaign_members()[0], victim)
        else:
            # A payload byte: the footer's digest still matches the
            # journal's, only the deep crc walk sees it.
            data = bytearray(victim.read_bytes())
            data[60] ^= 0xFF
            victim.write_bytes(bytes(data))
        proc = run_cli("trace", "verify", root)
        assert_one_line_failure(proc)
        assert "s00001.ptrc" in proc.stderr


class TestRom:
    def test_rom_summary(self, capsys):
        rc = main(["rom"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "traps" in out and "applications: 4" in out

    def test_rom_disassembly(self, capsys):
        rc = main(["rom", "--disassemble", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reset entry" in out
        assert "lea" in out  # boot installs vectors

    def test_rom_check_passes(self, capsys):
        rc = main(["rom", "--check"])
        assert rc == 0
        assert "0 error(s)" in capsys.readouterr().out


class TestLint:
    def test_lint_rom_is_clean(self, capsys):
        rc = main(["lint"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "built-in ROM" in out
        assert "0 error(s)" in out

    def test_lint_verbose_prints_census(self, capsys):
        rc = main(["lint", "--verbose"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "static trap census" in out
        assert "EvtGetEvent" in out
        assert "[coverage]" in out

    def test_lint_accepts_seed_archive(self, archive, capsys):
        rc = main(["lint", "--session", str(archive)])
        assert rc == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_rejects_corrupted_archive(self, archive, tmp_path, capsys):
        from repro.tracelog import ActivityLog

        log = ActivityLog.load(archive / "activity_log.pdb")
        # Corrupt deliberately: make the tick sequence run backwards.
        log.records[1], log.records[-1] = log.records[-1], log.records[1]
        bad = tmp_path / "corrupt"
        bad.mkdir()
        log.save(bad / "activity_log.pdb")
        rc = main(["lint", "--session", str(bad)])
        assert rc == 1
        assert "non-monotonic-tick" in capsys.readouterr().out


class TestStaticDynamicCrossCheck:
    def test_profiled_replay_is_contained_in_the_cfg(self, archive):
        """Every ROM-address opcode executed by a profiled replay must
        be an instruction the static walker discovered, with the same
        opcode word — the analyzer's acceptance gate."""
        from repro.analysis.static import analyze_rom, cross_check
        from repro.apps import standard_apps
        from repro.device import constants as C
        from repro.emulator import replay_session
        from repro.tracelog import ActivityLog, InitialState

        state = InitialState.load(archive / "initial_state")
        log = ActivityLog.load(archive / "activity_log.pdb")
        _, profiler, _ = replay_session(
            state, log, apps=standard_apps(), profile=True,
            trace_references=False, track_opcode_addresses=True,
            emulator_kwargs={"ram_size": 8 << 20, "flash_size": 1 << 20})
        assert profiler.opcode_addresses

        analysis = analyze_rom()
        report = cross_check(
            analysis.cfg, profiler.opcode_addresses,
            code_range=(C.FLASH_BASE, C.FLASH_BASE + C.FLASH_SIZE))
        assert report.ok, report.format()
        assert not report.has("dynamic-not-static")
        assert not report.has("word-mismatch")

        # The dynamic trap histogram must be contained in the census.
        from repro.palmos.traps import ALINE_BASE

        dynamic = {}
        for pc, op in profiler.opcode_addresses.items():
            if C.FLASH_BASE <= pc and op & 0xF000 == ALINE_BASE:
                dynamic[op & 0xFFF] = dynamic.get(op & 0xFFF, 0) + 1
        assert dynamic, "replay executed no ROM trap words"
        assert analysis.census.compare_dynamic(dynamic).ok
