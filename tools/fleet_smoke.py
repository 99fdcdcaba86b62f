#!/usr/bin/env python
"""Fleet-orchestration smoke test: a ~16-session mini-campaign with
one injected worker crash, one stall and one poisoned trace.

Checks the contract the supervisor promises:

* the campaign completes without orchestrator failure even though a
  worker died silently, another wedged past the hang timeout, and a
  third failed deterministically on every attempt;
* the crash and stall victims recover via retry and land in the
  aggregate; the poisoned session — and only the poisoned session —
  is quarantined;
* ``--resume`` on the finished campaign is a no-op that reproduces
  ``aggregates.json`` byte-for-byte (the journal is the source of
  truth, the aggregate a pure function of it);
* a clean 4-session campaign writes byte-identical ``aggregates.json``
  at ``jobs=1`` and ``jobs=2`` (worker scheduling and what the
  supervisor pre-warms before forking never reach the stats);
* an ``--archive-traces`` campaign directory is a trace store:
  ``palm-repro trace info`` and ``trace verify`` exit 0 on it, and
  ``sweep --trace DIR --jobs 2`` prints the tables of a sweep of one
  container holding its members' tokens concatenated.

Run from a checkout: ``python tools/fleet_smoke.py``.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main as cli  # noqa: E402
from repro.fleet import (  # noqa: E402
    CampaignSpec,
    ChaosPlan,
    resume_campaign,
    run_campaign,
    verify_chaos,
)
from repro.fleet.journal import CampaignTraces  # noqa: E402
from repro.traces.container import write_container  # noqa: E402

SESSIONS = 16
FAILURES = []


def check(name: str, ok: bool, detail: str = "") -> None:
    line = f"  [{'ok' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    if not ok:
        FAILURES.append(name)


def run_cli(*args) -> "tuple[int, str]":
    """``palm-repro ARGS`` in-process: (exit status, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli([str(arg) for arg in args])
    return status, out.getvalue()


def check_trace_store(spec: CampaignSpec, tmp: Path) -> None:
    archived = CampaignSpec(
        name="fleet-smoke-traces", sessions=2, seed=99,
        app_mixes=spec.app_mixes, behaviors=spec.behaviors,
        durations=spec.durations, caches=spec.caches, archive_traces=True)
    out = tmp / "traces-campaign"
    run_campaign(archived, out, jobs=2, hang_timeout=300.0)
    for action in ("info", "verify"):
        status, text = run_cli("trace", action, out)
        check(f"trace {action} on the campaign directory", status == 0,
              text.strip().splitlines()[0] if text.strip() else "")
    whole = tmp / "members.ptrc"
    write_container(CampaignTraces(out).chunks(), whole)
    sweeps = [run_cli("sweep", "--trace", source, "--jobs", 2)
              for source in (out, whole)]
    check("campaign sweep equals the concatenated-members sweep",
          sweeps[0][0] == sweeps[1][0] == 0 and sweeps[0][1] == sweeps[1][1])


def main() -> int:
    spec = CampaignSpec(
        name="fleet-smoke", sessions=SESSIONS, seed=1234,
        app_mixes=(("launcher", "memopad"), ("launcher", "puzzle")),
        behaviors=("gremlins",), durations=(0.01,),
        caches=((8192, 32, 4),))
    plan = ChaosPlan.plan(SESSIONS, seed=7, crashes=1, stalls=1,
                          poisons=1, stall_seconds=120.0)
    print(f"mini-campaign: {SESSIONS} sessions, {plan.describe()}")

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "campaign"
        result = run_campaign(spec, out, jobs=2, hang_timeout=10.0,
                              retries=2, backoff_base=0.1,
                              chaos=plan.directives())
        print(result.format(spec.name))

        check("campaign completes despite chaos", result.complete)
        check("crash observed and survived", result.crashes >= 1,
              f"{result.crashes} crash(es)")
        check("stall killed by hang timeout", result.hangs >= 1,
              f"{result.hangs} hang kill(s)")
        problems = verify_chaos(plan, result)
        check("recovery oracle holds", not problems,
              "; ".join(problems) if problems else
              "victims recovered, poison quarantined")
        check("only the poison is quarantined",
              sorted(result.aggregate.quarantined) == plan.poison_victims)
        check("every other session aggregated",
              len(result.aggregate.sessions) == SESSIONS - 1)

        first = (out / "aggregates.json").read_bytes()
        resumed = resume_campaign(out, jobs=1, hang_timeout=300.0)
        check("resume of a finished campaign is a no-op",
              resumed.ran == 0)
        check("resume reproduces aggregates byte-for-byte",
              (out / "aggregates.json").read_bytes() == first)

        clean = CampaignSpec(
            name="fleet-smoke-clean", sessions=4, seed=4321,
            app_mixes=spec.app_mixes, behaviors=spec.behaviors,
            durations=spec.durations, caches=spec.caches)
        aggregates = []
        for jobs in (1, 2):
            clean_out = Path(tmp) / f"clean-jobs{jobs}"
            run_campaign(clean, clean_out, jobs=jobs, hang_timeout=300.0)
            aggregates.append((clean_out / "aggregates.json").read_bytes())
        check("clean campaign aggregates identical at jobs=1 and jobs=2",
              aggregates[0] == aggregates[1])
        check_trace_store(spec, Path(tmp))

    if FAILURES:
        print(f"\n{len(FAILURES)} fleet smoke failure(s): "
              f"{', '.join(FAILURES)}")
        return 1
    print("\nfleet smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
