#!/usr/bin/env python
"""Fault-injection smoke test for the replay resilience subsystem.

Collects a short session, then drives ``palm-repro replay`` (in
process) over injected faults under each divergence policy and checks
the contract the resilience subsystem promises:

* ``--on-divergence strict``  + trace corruption -> nonzero exit and a
  typed, localized divergence report (never a bare traceback);
* the same under ``--jitter`` -> localization resumes the jittered
  replay's in-RAM checkpoints and narrows the divergent window to at
  most 8 ticks;
* ``--on-divergence resync``  + a one-shot runtime fault -> exit 0,
  recovered from a checkpoint;
* the same recovery with profiling on and ``--trace-out`` -> the
  rolled-back reference trace has the clean replay's PTRC digest;
* a clean ``--on-divergence resync`` run prints the same summary
  lines and writes the same PTRC digest as the plain replay (both
  build the machine through one set-up);
* ``--on-divergence degrade`` + trace corruption -> exit 0, completes
  with an explicit TAINTED notice;
* a garbled on-disk activity log -> plain and strict replays exit 1
  with one stderr line naming ``--salvage``; ``--salvage`` repairs it,
  and ``lint --session`` exits 1 reporting ``unknown-event-type`` and
  ``duplicate-record`` at the very records ``--salvage`` drops.

Run from a checkout: ``python tools/fault_smoke.py``.
"""

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main  # noqa: E402

FAILURES = []


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check(name, ok, detail=""):
    print(f"  {'ok' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail
                                                   else ""))
    if not ok:
        FAILURES.append(name)


def ptrc_digest(path):
    from repro.traces.container import TraceContainer
    if not Path(path).exists():
        return None
    with TraceContainer(path) as container:
        return container.digest


def summary_lines(out):
    return [line for line in out.splitlines()
            if line.startswith(("instructions", "references", "ave mem cyc"))]


def dropped_records(out):
    """``{(code, record index)}`` of the findings in ``out`` (as
    ``lint`` and ``replay --salvage`` print them) that drop a record."""
    found = set()
    for line in out.splitlines():
        match = re.match(r"(?:error|warning)\s+\[([\w-]+)\] (0x[0-9a-f]+): "
                         r".*; dropped$", line)
        if match:
            found.add((match[1], int(match[2], 16)))
    return found


def main_smoke() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        archive = str(Path(tmp) / "session")
        print("collecting a quickstart session...")
        code, out, err = run_cli("collect", "--out", archive,
                                 "--session", "quickstart")
        if code != 0:
            print(err, file=sys.stderr)
            print("collection failed; cannot smoke-test replay")
            return 1

        replay = ("replay", "--session", archive, "--no-profile",
                  "--checkpoint-every", "100")

        print("strict + truncated trace:")
        code, out, err = run_cli(*replay, "--on-divergence", "strict",
                                 "--faults", "truncate:frac=0.6")
        check("exit code is nonzero", code != 0, f"exit={code}")
        check("typed divergence report printed",
              "replay diverged" in err and "missing-event" in err)
        check("divergence is localized", "last good checkpoint" in err)

        print("strict + bit flips, jittered:")
        code, out, err = run_cli(*replay, "--on-divergence", "strict",
                                 "--faults", "bitflip:n=3", "--jitter", "1")
        check("exit code is 1", code == 1, f"exit={code}")
        window = re.search(r"last good checkpoint at wall tick (\d+); first "
                           r"divergent window ends at wall tick (\d+)", err)
        check("jittered divergence localized to at most 8 ticks",
              window is not None
              and int(window[2]) - int(window[1]) <= 8,
              window[0] if window else err.strip()[-200:])

        print("resync + runtime crash fault:")
        code, out, err = run_cli(*replay, "--on-divergence", "resync",
                                 "--faults", "crash:at=250")
        check("exit code is zero", code == 0, f"exit={code}")
        check("recovered from a checkpoint", "retries" in out)
        check("run completed", "replayed" in out)

        print("profiled resync + runtime crash fault, with --trace-out:")
        clean_ptrc = str(Path(tmp) / "clean.ptrc")
        resync_ptrc = str(Path(tmp) / "resync.ptrc")
        code, out, err = run_cli("replay", "--session", archive,
                                 "--trace-out", clean_ptrc)
        check("clean profiled replay exits zero", code == 0, f"exit={code}")
        plain_summary = summary_lines(out)
        clean_resync_ptrc = str(Path(tmp) / "clean-resync.ptrc")
        code, out, err = run_cli("replay", "--session", archive,
                                 "--checkpoint-every", "100",
                                 "--on-divergence", "resync",
                                 "--trace-out", clean_resync_ptrc)
        check("clean resync replay exits zero", code == 0, f"exit={code}")
        same = len(plain_summary) == 3 and summary_lines(out) == plain_summary
        check("clean resync summary equals the plain replay's", same,
              "" if same else f"{summary_lines(out)} vs {plain_summary}")
        check("clean resync trace digest equals the plain replay's",
              ptrc_digest(clean_resync_ptrc) is not None
              and ptrc_digest(clean_resync_ptrc) == ptrc_digest(clean_ptrc))
        code, out, err = run_cli("replay", "--session", archive,
                                 "--checkpoint-every", "100",
                                 "--on-divergence", "resync",
                                 "--faults", "crash:at=250",
                                 "--trace-out", resync_ptrc)
        check("exit code is zero", code == 0, f"exit={code}")
        check("recovered from a checkpoint", "retries" in out)
        clean_digest = ptrc_digest(clean_ptrc)
        check("trace digest equals the clean replay's",
              clean_digest is not None
              and ptrc_digest(resync_ptrc) == clean_digest)

        print("degrade + truncated trace:")
        code, out, err = run_cli(*replay, "--on-divergence", "degrade",
                                 "--faults", "truncate:frac=0.6")
        check("exit code is zero", code == 0, f"exit={code}")
        check("result marked tainted", "TAINTED" in out)
        check("divergences reported", "missing-event" in out)

        print("salvage of a garbled on-disk trace:")
        from repro.resilience import FaultPlan
        from repro.tracelog import ActivityLog
        log_path = Path(archive) / "activity_log.pdb"
        log = ActivityLog.load(log_path)
        garbled, _ = FaultPlan.parse("type-garbage,dup").apply_to_log(log)
        garbled.save(log_path)
        for name, argv in (("plain", ("replay", "--session", archive)),
                           ("strict", (*replay, "--on-divergence",
                                       "strict"))):
            code, out, err = run_cli(*argv)
            check(f"{name} replay of the garbled log exits 1", code == 1,
                  f"exit={code}")
            check(f"{name} replay fails with one stderr line naming "
                  "--salvage",
                  len(err.strip().splitlines()) == 1
                  and "--salvage" in err and "Traceback" not in err,
                  err.strip()[-200:])
        code, out, err = run_cli(*replay, "--on-divergence", "degrade",
                                 "--salvage")
        check("exit code is zero", code == 0, f"exit={code}")
        check("salvage diagnosed the corruption",
              "salvage" in out and "dropped" in out)
        salvage_drops = dropped_records(out)
        code, out, err = run_cli("lint", "--session", archive)
        check("lint of the garbled log exits 1", code == 1, f"exit={code}")
        lint_drops = dropped_records(out)
        check("lint reports unknown-event-type and duplicate-record at "
              "the records --salvage drops",
              {c for c, _ in lint_drops}
              == {"unknown-event-type", "duplicate-record"}
              and lint_drops == salvage_drops,
              f"lint {sorted(lint_drops)} vs salvage "
              f"{sorted(salvage_drops)}")

    if FAILURES:
        print(f"\n{len(FAILURES)} check(s) failed: {', '.join(FAILURES)}")
        return 1
    print("\nall resilience policy checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_smoke())
