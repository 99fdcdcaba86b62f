"""Fleet orchestration: campaign expansion, aggregates, journal,
supervision, chaos recovery, and the kill-and-resume guarantee.

The expensive acceptance tests (worker crash → quarantine, SIGKILL the
orchestrator → resume → bit-identical aggregates) run real worker
processes over tiny gremlin sessions, so this file leans on small
campaigns (2–6 sessions, ~100 events each) to stay inside the tier-1
budget.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    AggregateError,
    CampaignFormatError,
    CampaignJournal,
    CampaignSpec,
    ChaosPlan,
    JournalError,
    PopulationAggregate,
    read_journal,
    read_manifest,
    replay_journal,
    run_campaign,
    verify_chaos,
)
from repro.fleet.aggregate import STATS_KEYS, percentile
from repro.fleet.journal import JOURNAL_NAME, MANIFEST_NAME
from repro.fleet.supervisor import resume_campaign
from repro.fleet.worker import run_session

# A deliberately tiny campaign: one cell, short gremlin sessions.
TINY = dict(
    app_mixes=(("launcher", "memopad"),),
    behaviors=("gremlins",),
    durations=(0.01,),
    caches=((8192, 32, 4),),
)


def tiny_spec(sessions: int, seed: int = 11, **kw) -> CampaignSpec:
    merged = dict(TINY)
    merged.update(kw)
    return CampaignSpec(name="tiny", sessions=sessions, seed=seed, **merged)


def fake_stats(index: int, **overrides) -> dict:
    stats = {
        "session_id": f"s{index:05d}",
        "cell_index": index % 3,
        "cell": f"cell-{index % 3}",
        "behavior": "gremlins",
        "seed": 100 + index,
        "events": 50 + index,
        "elapsed_ticks": 1000 * (index + 1),
        "collect_instructions": 10_000 + index,
        "replay_instructions": 20_000 + index,
        "events_injected": 40 + index,
        "accesses": 5000 + index,
        "hits": 4900 + index,
        "misses": 100,
        "writebacks": 0,
        "miss_rate": 0.02 + index * 1e-4,
        "energy_cached": 5.0,
        "energy_no_cache": 40.0,
        "energy_savings": 0.87 - index * 1e-3,
        "replay_overhead": 2.0 + index * 0.1,
        "divergences": 0,
        "tainted": False,
        "salvage_dropped": 0,
        "salvage_repaired": 0,
    }
    stats.update(overrides)
    return stats


# ----------------------------------------------------------------------
# Campaign spec
# ----------------------------------------------------------------------

class TestCampaignSpec:
    def test_expansion_is_deterministic(self):
        a = tiny_spec(12).expand()
        b = tiny_spec(12).expand()
        assert a == b
        assert [p.index for p in a] == list(range(12))
        assert len({p.seed for p in a}) == 12

    def test_grid_round_robin_and_growth_stability(self):
        spec = CampaignSpec(name="g", sessions=8, seed=3,
                            app_mixes=(("launcher", "memopad"),),
                            behaviors=("scripted", "gremlins"),
                            durations=(0.01,), caches=((4096, 16, 2),))
        cells = spec.cells()
        assert len(cells) == 2
        plans = spec.expand()
        assert [p.cell.index for p in plans] == [0, 1, 0, 1, 0, 1, 0, 1]
        # Growing the campaign never renumbers existing sessions.
        bigger = CampaignSpec.from_json(spec.to_json())
        bigger.sessions = 12
        assert bigger.expand()[:8] == plans

    def test_json_round_trip_and_digest(self):
        spec = tiny_spec(5)
        clone = CampaignSpec.from_json(json.loads(json.dumps(spec.to_json())))
        assert clone == spec
        assert clone.digest() == spec.digest()
        clone.sessions += 1
        assert clone.digest() != spec.digest()

    def test_rejects_mix_without_launcher(self):
        with pytest.raises(CampaignFormatError):
            tiny_spec(2, app_mixes=(("memopad",),))

    def test_rejects_unknown_behavior(self):
        with pytest.raises(CampaignFormatError):
            tiny_spec(2, behaviors=("chaotic",))


# ----------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------

class TestAggregate:
    def test_stats_keys_complete(self):
        assert set(fake_stats(0)) == set(STATS_KEYS)

    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 99) == 4.0
        assert percentile([], 50) == 0.0

    def test_conflicting_stats_rejected(self):
        agg = PopulationAggregate()
        agg.add(0, fake_stats(0))
        agg.add(0, fake_stats(0))  # idempotent
        with pytest.raises(AggregateError):
            agg.add(0, fake_stats(0, misses=999))

    def test_done_beats_quarantine_regardless_of_order(self):
        a = PopulationAggregate()
        a.quarantine(1, "boom")
        a.add(1, fake_stats(1))
        assert 1 not in a.quarantined
        b = PopulationAggregate()
        b.add(1, fake_stats(1))
        b.quarantine(1, "boom")
        assert b.to_json() == a.to_json()

    def test_json_round_trip(self):
        agg = PopulationAggregate()
        for i in (3, 0, 2):
            agg.add(i, fake_stats(i))
        agg.quarantine(7, "poisoned")
        clone = PopulationAggregate.from_json(
            json.loads(json.dumps(agg.to_json())))
        assert clone.to_json() == agg.to_json()

    @given(st.permutations(list(range(8))),
           st.permutations(list(range(8))))
    @settings(max_examples=20, deadline=None)
    def test_merge_is_order_independent(self, order_a, order_b):
        """The resume guarantee's algebra: any arrival order, any
        split into partial aggregates, same canonical serialization."""
        def build(order):
            agg = PopulationAggregate()
            for i in order:
                if i % 4 == 3:
                    agg.quarantine(i, f"reason-{i}")
                else:
                    agg.add(i, fake_stats(i))
            return agg

        split = len(order_a) // 2
        left, right = build(order_a[:split]), build(order_a[split:])
        merged = left.merge(right)
        rebuilt = build(order_b)
        assert merged.to_json() == rebuilt.to_json()
        # Merging is also commutative and idempotent.
        assert right.merge(left).to_json() == merged.to_json()
        assert merged.merge(merged).to_json() == merged.to_json()


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------

class TestJournal:
    def test_append_read_round_trip(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        with CampaignJournal(path) as journal:
            journal.append({"kind": "start", "index": 0, "attempt": 0})
            journal.append({"kind": "done", "index": 0,
                            "stats": fake_stats(0)})
        entries = read_journal(path)
        assert [e["kind"] for e in entries] == ["start", "done"]
        completed, quarantined = replay_journal(iter(entries))
        assert set(completed) == {0} and not quarantined

    def test_torn_tail_tolerated_and_sealed(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        with CampaignJournal(path) as journal:
            journal.append({"kind": "start", "index": 0, "attempt": 0})
        with open(path, "a") as handle:
            handle.write('{"kind": "done", "index": 0, "sta')  # torn write
        assert [e["kind"] for e in read_journal(path)] == ["start"]
        # A resumed journal truncates the tear before appending.
        with CampaignJournal(path) as journal:
            journal.append({"kind": "quarantine", "index": 1,
                            "reason": "x"})
        kinds = [e["kind"] for e in read_journal(path)]
        assert kinds == ["start", "quarantine"]

    def test_edited_journal_rejected(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_text('{"kind": "surprise"}\n')
        with pytest.raises(JournalError):
            read_journal(path)

    def test_midfile_corruption_rejected(self, tmp_path):
        # A torn *final* line is a crash artifact; an undecodable line
        # anywhere earlier is corruption and must not be skipped.
        path = tmp_path / JOURNAL_NAME
        path.write_text('{"kind": "start", "index": 0, "attempt": 0}\n'
                        '{"kind": "done", "index": 0, "sta\n'
                        '{"kind": "quarantine", "index": 1, "reason": "x"}\n')
        with pytest.raises(JournalError):
            read_journal(path)

    @pytest.mark.parametrize("line", [
        '{"kind": "done", "index": 0}',                 # no stats
        '{"kind": "done", "index": 0, "stats": [1]}',
        '[1]',
        '"done"',
    ])
    def test_malformed_entry_is_typed_error(self, tmp_path, line):
        path = tmp_path / JOURNAL_NAME
        path.write_text(line + '\n{"kind": "start", "index": 1, '
                        '"attempt": 0}\n')
        with pytest.raises(JournalError, match=":1: not a journal entry"):
            read_journal(path)

    @pytest.mark.parametrize("blob", [
        "{",                                            # torn JSON
        "[1]",                                          # not an object
        '{"_format": "repro-fleet-manifest", "_version": 1, '
        '"digest": "ab"}',                              # no spec
        '{"_format": "repro-fleet-manifest", "_version": 1, '
        '"spec": {}}',                                  # no digest
        '{"_format": "repro-fleet-manifest", "_version": 1, '
        '"spec": [], "digest": "ab"}',
    ])
    def test_malformed_manifest_is_typed_error(self, tmp_path, blob):
        (tmp_path / MANIFEST_NAME).write_text(blob)
        with pytest.raises(JournalError, match=MANIFEST_NAME):
            read_manifest(tmp_path)

    def test_quarantine_then_done_is_rescued(self):
        entries = [
            {"kind": "quarantine", "index": 2, "reason": "flaky"},
            {"kind": "done", "index": 2, "stats": fake_stats(2)},
        ]
        completed, quarantined = replay_journal(iter(entries))
        assert set(completed) == {2} and not quarantined


# ----------------------------------------------------------------------
# Chaos planning
# ----------------------------------------------------------------------

class TestChaosPlan:
    def test_victims_disjoint_and_deterministic(self):
        a = ChaosPlan.plan(16, seed=4, crashes=2, stalls=2, poisons=2)
        b = ChaosPlan.plan(16, seed=4, crashes=2, stalls=2, poisons=2)
        assert a == b
        all_victims = (a.crash_victims + a.stall_victims + a.poison_victims)
        assert len(all_victims) == len(set(all_victims)) == 6
        directives = a.directives()
        assert set(directives) == set(all_victims)
        for index in a.crash_victims:
            assert directives[index]["mode"] == "crash"
            assert directives[index]["attempts"] == [0]

    def test_plan_rejects_oversubscription(self):
        with pytest.raises(ValueError):
            ChaosPlan.plan(2, crashes=1, stalls=1, poisons=1)


# ----------------------------------------------------------------------
# Live campaigns (real worker processes)
# ----------------------------------------------------------------------

class TestPrewarm:
    def test_prewarm_fills_the_region_facts_memo(self, monkeypatch):
        """Forked workers inherit the facts: after ``prewarm`` the
        replay's facts lookup at the worker geometry needs no audit."""
        from repro.analysis.static import audit
        from repro.emulator import playback
        from repro.fleet.campaign import mix_to_apps
        from repro.fleet.worker import WORKER_FLASH, WORKER_RAM, prewarm

        mix = TINY["app_mixes"][0]
        monkeypatch.setattr(playback, "_FACTS_CACHE", {})
        prewarm([mix])

        def no_audit(*args, **kwargs):
            raise AssertionError("the ROM audit ran after prewarm")

        monkeypatch.setattr(audit, "audit_rom", no_audit)
        facts = playback._region_facts(
            mix_to_apps(mix),
            {"ram_size": WORKER_RAM, "flash_size": WORKER_FLASH})
        assert facts


class TestLiveCampaign:
    def test_clean_campaign_completes(self, tmp_path):
        result = run_campaign(tiny_spec(2), tmp_path / "c", jobs=2,
                              hang_timeout=300.0)
        assert result.complete
        assert result.completed == 2 and result.quarantined == 0
        data = json.loads((tmp_path / "c" / "aggregates.json").read_text())
        assert sorted(data["sessions"]) == ["0", "1"]
        for stats in data["sessions"].values():
            assert stats["events"] > 0
            assert 0.0 < stats["miss_rate"] < 1.0
            assert stats["energy_savings"] > 0.5

    def test_jobs_and_prewarm_leave_stats_byte_identical(self, tmp_path):
        """A chaos-free campaign aggregates byte-identically at jobs=1
        and jobs=2, and every record equals an in-process run_session:
        what the supervisor pre-warms before forking (stage imports,
        the ROM/hack assembly memo) never reaches a worker's stats."""
        spec = tiny_spec(3)
        for jobs in (1, 2):
            result = run_campaign(spec, tmp_path / f"jobs{jobs}", jobs=jobs,
                                  hang_timeout=300.0)
            assert result.complete and result.completed == 3
        serial = (tmp_path / "jobs1" / "aggregates.json").read_bytes()
        assert serial == (tmp_path / "jobs2" / "aggregates.json").read_bytes()
        sessions = json.loads(serial)["sessions"]
        for plan in spec.expand():
            assert run_session(plan, policy=spec.policy,
                               checkpoint_every=spec.checkpoint_every) \
                == sessions[str(plan.index)]

    def test_worker_crash_is_retried_then_quarantined(self, tmp_path):
        # Crash on EVERY attempt: the session must exhaust its retry
        # budget and land in quarantine without sinking the campaign.
        chaos = {1: {"mode": "crash", "stage": "collect",
                     "attempts": [0, 1, 2, 3]}}
        result = run_campaign(tiny_spec(2), tmp_path / "c", jobs=1,
                              retries=1, backoff_base=0.05,
                              hang_timeout=300.0, chaos=chaos)
        assert result.complete
        assert result.completed == 1
        assert result.quarantined == 1
        assert result.crashes >= 2  # attempt 0 and the retry
        assert 1 in result.aggregate.quarantined
        entries = read_journal(tmp_path / "c" / JOURNAL_NAME)
        kinds = [e["kind"] for e in entries if e.get("index") == 1]
        assert kinds.count("fail") == 2
        assert kinds[-1] == "quarantine"

    def test_crash_once_recovers_bit_identically(self, tmp_path):
        chaos = {0: {"mode": "crash", "stage": "replay", "attempts": [0]}}
        faulty = run_campaign(tiny_spec(2), tmp_path / "faulty", jobs=1,
                              retries=2, backoff_base=0.05,
                              hang_timeout=300.0, chaos=chaos)
        clean = run_campaign(tiny_spec(2), tmp_path / "clean", jobs=1,
                             hang_timeout=300.0)
        assert faulty.complete and clean.complete
        assert faulty.crashes == 1
        assert ((tmp_path / "faulty" / "aggregates.json").read_bytes()
                == (tmp_path / "clean" / "aggregates.json").read_bytes())

    def test_resume_refuses_mismatched_spec(self, tmp_path):
        run_campaign(tiny_spec(2), tmp_path / "c", jobs=1,
                     hang_timeout=300.0)
        other = tiny_spec(3)
        with pytest.raises(JournalError):
            run_campaign(other, tmp_path / "c", jobs=1, resume=True,
                         hang_timeout=300.0)


@pytest.mark.slow
class TestKillAndResume:
    def test_sigkilled_orchestrator_resumes_bit_identically(self, tmp_path):
        """The tentpole acceptance test: SIGKILL the orchestrator
        mid-campaign, resume, and require merged aggregates
        byte-identical to an uninterrupted --jobs 1 run."""
        sessions = 4
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        base = [sys.executable, "-m", "repro", "fleet",
                "--sessions", str(sessions), "--seed", "21",
                "--behaviors", "gremlins", "--durations", "0.01",
                "--caches", "8192:32:4", "--app-mixes", "launcher+memopad",
                "--quiet"]

        ref_dir = tmp_path / "ref"
        subprocess.run(base + ["--out", str(ref_dir), "--jobs", "1"],
                       env=env, check=True, capture_output=True)

        kill_dir = tmp_path / "killed"
        proc = subprocess.Popen(
            base + ["--out", str(kill_dir), "--jobs", "2"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        journal = kill_dir / JOURNAL_NAME
        deadline = time.monotonic() + 240
        killed = False
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break  # finished before we could kill it — still valid
            if journal.exists() and sum(
                    1 for line in journal.read_text().splitlines()
                    if '"kind":"done"' in line) >= 1:
                os.kill(proc.pid, signal.SIGKILL)
                killed = True
                break
            time.sleep(0.05)
        proc.wait(timeout=240)

        result = resume_campaign(kill_dir, jobs=1, hang_timeout=300.0)
        assert result.complete
        assert ((kill_dir / "aggregates.json").read_bytes()
                == (ref_dir / "aggregates.json").read_bytes())
        if killed:
            # The resumed run must not have re-run journaled sessions.
            assert result.ran < sessions


@pytest.mark.slow
class TestChaosRecovery:
    def test_chaos_campaign_recovers_and_quarantines_poison(self, tmp_path):
        spec = tiny_spec(6, seed=2)
        plan = ChaosPlan.plan(6, seed=1, crashes=1, stalls=1, poisons=1,
                              stall_seconds=120.0)
        result = run_campaign(spec, tmp_path / "c", jobs=2,
                              hang_timeout=6.0, retries=2,
                              backoff_base=0.05,
                              chaos=plan.directives())
        assert verify_chaos(plan, result) == []
        assert result.complete
        assert result.quarantined == 1
        assert result.completed == 5
