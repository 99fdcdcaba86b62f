"""The benchmark's workloads: set-up, timed sessions and output checks.

Each workload drives the paper's pipeline through the public API in a
closed loop: the next session starts only when the previous one ended.

* ``study`` — Table-1-style volunteer sessions, each collected, replayed
  with PTRC trace-out, verified, swept over the 56-config LRU grid, fed
  to Fig. 6's access-time model and checked by the §3.4 state
  correlation.  The paper's case study; the LRU stack pass dominates.
* ``ablation`` — gremlins sessions collected during set-up, each timed
  session replaying one of them and sweeping the 18-config
  policy/write-mode grid through the per-config wave kernels.
* ``fleet`` — supervised campaigns over the default 24-cell grid, one
  4-session batch per (app mix, behaviour): forked workers, resilient
  replay with checkpoints, one cache config each, archived PTRC traces,
  fsynced journal.  The 56-config sweep is bypassed.

Run as a script, this module is the fresh measuring process that
``run.py`` starts for every run; it writes its result as JSON to
``--result`` and asks ``run.py`` over a pipe to time its host probe
after set-up and after every timed unit.  Import it to call a workload
directly (the smoke test does, with one session).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# Measure the checkout's own source, never an installed copy.
if not (ROOT / "src" / "repro").is_dir():
    raise SystemExit(f"no repro source tree under {ROOT / 'src'}")
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro import (  # noqa: E402
    RegionMix,
    collect_table1_session,
    correlate_final_states,
    replay_session,
    standard_apps,
)
from repro.cache import CacheConfig, paper_configurations, sweep_parallel  # noqa: E402
from repro.fleet import CampaignSpec, run_campaign, run_session  # noqa: E402
from repro.fleet.campaign import BEHAVIORS, DEFAULT_APP_MIXES  # noqa: E402
from repro.traces import ContainerWriter, TraceContainer  # noqa: E402
from repro.workloads import SessionSpec, gremlin_session  # noqa: E402

from metrics import Tracer, layer_metrics  # noqa: E402

#: The m515 geometry every stage uses (as in benchmarks/conftest.py).
EMULATOR_KW = {"ram_size": 8 << 20, "flash_size": 1 << 20}

#: Sessions per fleet campaign batch: the 4 cells of the default grid
#: that share an app mix and a behaviour, so six consecutive batches
#: cover all 24 cells.  Short batches put a host probe every ~6 s.
FLEET_BATCH = 4

#: Worker-seconds one session takes on the reference host (a 2-vCPU
#: x86-64 VM).  ``--seconds`` becomes a fixed session count
#: through these, so a run's inputs depend only on (seed, seconds) and
#: every simulated count repeats exactly.
NOMINAL_SESSION_S = {"study": 2.5, "ablation": 2.7, "fleet": 3.0}

#: The ablation grid: {2K, 8K, 32K} x {LRU, FIFO} x {write-through,
#: write-back, write-back without write-allocate}, 16 B lines, 4 ways.
ABLATION_GRID = [
    CacheConfig(size, 16, 4, policy=policy, write_policy=write_policy,
                write_allocate=allocate)
    for size in (2048, 8192, 32768)
    for policy in ("lru", "fifo")
    for write_policy, allocate in (("write-through", True),
                                   ("write-back", True),
                                   ("write-back", False))
]

#: Gremlins sessions ``ablation`` collects during set-up; timed session
#: ``i`` replays corpus entry ``i % 6``, so set-up does not grow with
#: ``--seconds``.
ABLATION_CORPUS = 6

#: Untimed warm-up inputs: the first collection and replay in a process
#: pay about a second of lazy set-up (ROM build, region facts).
STUDY_WARMUP = SessionSpec("warmup", seed=7, hours=0.25, bouts=2, contacts=12)
ABLATION_WARMUP_EVENTS = 5


def host_jobs() -> int:
    """Worker processes for sweeps and the fleet."""
    return max(1, min(2, os.cpu_count() or 1))


def session_count(workload: str, seconds: float, jobs: int) -> int:
    """Timed sessions that fill about ``seconds`` on the reference host."""
    if workload == "fleet":
        batches = round(seconds * jobs / (FLEET_BATCH * NOMINAL_SESSION_S["fleet"]))
        return max(1, batches) * FLEET_BATCH
    return max(1, round(seconds / NOMINAL_SESSION_S[workload]))


@dataclass
class Run:
    """One run's inputs and its measurements so far."""

    seed: int
    jobs: int
    workdir: Path
    tracer: Tracer
    #: Stop after set-up (a set-up time sample).
    setup_only: bool = False
    #: Called after set-up and after every timed unit; ``run.py`` times
    #: its host probe then, while this process waits.
    probe: Callable[[], None] = lambda: None
    #: ``time.monotonic()`` when set-up ended.
    ready_at: float = 0.0
    #: Wall seconds of the timed units, summed.
    wall_s: float = 0.0
    units: List[dict] = field(default_factory=list)


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def config_key(config: CacheConfig) -> str:
    return (f"{config.size}/{config.line_size}/{config.associativity}/"
            f"{config.policy}/{config.write_policy}/{int(config.write_allocate)}")


# -- layer calls ------------------------------------------------------------

def replay_counts(emulator, profiler, result) -> Dict[str, int]:
    """Simulated counts of one replay, for the ``emulator.replay`` span."""
    core = emulator.device.core
    rows = []
    if hasattr(core, "hot_blocks"):
        rows = core.hot_blocks(n=len(core.blocks) + len(core.pc_stats))
    return {
        "refs": profiler.trace_tokens,
        "guest_insns": result.instructions,
        "events_injected": result.events_injected,
        "fused_blocks": getattr(core, "fused_built", 0),
        "fused_insns": sum(r["insns"] for r in rows if "fused_insns" in r),
        "block_insns": sum(r["insns"] for r in rows),
        "invalidations": getattr(core, "invalidations", 0),
        "traps": sum(n for _, n in profiler.top_traps(512)),
    }


def timed_writer(tracer: Tracer):
    """A ``ContainerWriter`` whose encode work is timed as
    ``traces.encode`` spans (the profiler calls ``append_tokens`` once
    per flushed chunk during replay)."""

    class TimedWriter(ContainerWriter):
        def append_tokens(self, tokens) -> None:
            with tracer.span("traces.encode") as counts:
                super().append_tokens(tokens)
            counts["tokens"] = len(tokens)

        def close(self) -> dict:
            with tracer.span("traces.encode"):
                return super().close()

    return TimedWriter


def replay(run: Run, apps, session, path: Path):
    """Replay ``session`` with its trace streamed into PTRC ``path``."""
    tracer = run.tracer
    writer = (timed_writer(tracer) if tracer.enabled else ContainerWriter)(
        path, codec="zlib")
    try:
        with tracer.span("emulator.replay") as counts:
            emulator, profiler, result = replay_session(
                session.initial_state, session.log, apps=apps,
                emulator_kwargs=EMULATOR_KW, trace_sink=writer,
                trace_spill=True)
        manifest = writer.close()
    except BaseException:
        writer.abort()
        raise
    if tracer.enabled:
        counts.update(replay_counts(emulator, profiler, result))
    return emulator, profiler, manifest


def verify(run: Run, path: Path) -> dict:
    """Deep-verify a PTRC file: every chunk CRC and the content digest."""
    with run.tracer.span("traces.verify") as counts:
        with TraceContainer(path) as container:
            report = container.verify(deep=True)
    counts.update(tokens=report["tokens"], bytes=path.stat().st_size)
    return report


def trace_errors(manifest: dict, report: dict, profiler) -> List[str]:
    errors = []
    if report["digest"] != manifest["digest"]:
        errors.append("PTRC digest differs from the writer's")
    if report["tokens"] != profiler.trace_tokens:
        errors.append(f"PTRC holds {report['tokens']} tokens, the profiler "
                      f"recorded {profiler.trace_tokens}")
    return errors


def sweep_errors(points, memory_refs: int, expected_configs: int) -> List[str]:
    errors = []
    if len(points) != expected_configs:
        errors.append(f"sweep returned {len(points)} points, "
                      f"expected {expected_configs}")
    for p in points:
        if p.accesses != memory_refs or not 0 < p.misses <= p.accesses:
            errors.append(f"{config_key(p.config)}: {p.misses} misses of "
                          f"{p.accesses} accesses ({memory_refs} memory refs)")
    return errors


def state_errors(run: Run, session, emulator) -> List[str]:
    with run.tracer.span("validation.correlate"):
        state = correlate_final_states(session.final_state,
                                       emulator.final_state())
    return [] if state.valid else ["§3.4 final-state correlation is not valid"]


# -- workloads --------------------------------------------------------------

def timed(run: Run, units: int, one: Callable[[int], dict],
          span: str = "bench.session",
          size: Callable[[int], int] = lambda i: 1) -> None:
    """Run ``units`` timed units of ``size(i)`` sessions back to back.

    ``one(i)`` returns ``{"refs", "digest", "errors", "sessions",
    "slots"}`` and may set ``failed`` (default: all its sessions when it
    has errors) and ``wall_s`` (default: the whole call).  A unit that
    raises counts all its sessions as failed.
    """
    run.ready_at = time.monotonic()
    run.probe()
    if run.setup_only:
        return
    for i in range(units):
        begin = time.perf_counter()
        cpu_begin = cpu_seconds()
        with run.tracer.span(span, session=i):
            try:
                unit = one(i)
            except Exception as exc:  # noqa: BLE001 - a failed session is counted
                traceback.print_exc(file=sys.stderr)
                unit = {"refs": 0, "digest": None, "sessions": size(i),
                        "slots": 1, "errors": [f"{type(exc).__name__}: {exc}"]}
        unit.setdefault("wall_s", time.perf_counter() - begin)
        unit["cpu_s"] = cpu_seconds() - cpu_begin
        unit.setdefault("failed", unit["sessions"] if unit["errors"] else 0)
        unit["index"] = i
        run.units.append(unit)
        run.wall_s += unit["wall_s"]
        run.probe()


def replay_and_sweep(run: Run, apps, session, name: str,
                     configs: Optional[List[CacheConfig]] = None) -> dict:
    """One session after collection: replay with PTRC trace-out, deep
    verify, sweep ``configs`` (default: the paper's 56-config LRU grid,
    one stack pass per family), Fig. 6 access times, §3.4 check."""
    path = run.workdir / f"{name}.ptrc"
    emulator, profiler, manifest = replay(run, apps, session, path)
    report = verify(run, path)
    with run.tracer.span("cache.sweep") as counts:
        points = sweep_parallel(container=path, configs=configs, jobs=run.jobs)
        mix = RegionMix(profiler.ram_refs, profiler.flash_refs)
        access_times = [mix.cached_time(p.miss_rate) for p in points]
    counts["ref_configs"] = sum(p.accesses for p in points)
    path.unlink()
    errors = (trace_errors(manifest, report, profiler)
              + sweep_errors(points, profiler.trace_tokens - profiler.hw_refs,
                             len(configs or paper_configurations()))
              + state_errors(run, session, emulator))
    cpu = emulator.device.cpu
    return {"refs": report["tokens"], "sessions": 1, "slots": 1,
            "errors": errors,
            "digest": digest({
                "ptrc": manifest["digest"],
                "cycles": cpu.cycles,
                "insns": cpu.instructions,
                "sweep": [[config_key(p.config), int(p.misses),
                           int(p.writebacks), int(p.write_throughs)]
                          for p in points],
                "access_times": [repr(t) for t in access_times],
            })}


def study_session(run: Run, apps, spec: SessionSpec, name: str) -> dict:
    with run.tracer.span("workloads.collect") as counts:
        session = collect_table1_session(spec, apps=apps,
                                         ram_size=EMULATOR_KW["ram_size"])
    counts.update(log_records=len(session.log),
                  sim_ticks=session.elapsed_ticks)
    return replay_and_sweep(run, apps, session, name)


def study(run: Run, sessions: int) -> None:
    with run.tracer.span("bench.setup"):
        apps = standard_apps()
        study_session(run, apps, STUDY_WARMUP, "warmup")
    timed(run, sessions, lambda i: study_session(
        run, apps,
        SessionSpec(f"study{i}", seed=1000 * run.seed + i, hours=2, bouts=6,
                    contacts=12),
        f"study{i}"))


def collect_gremlins(run: Run, apps, seed: int, events: int):
    with run.tracer.span("workloads.collect") as counts:
        session = gremlin_session(seed, apps=apps, events=events,
                                  ram_size=EMULATOR_KW["ram_size"])
    counts.update(log_records=len(session.log),
                  sim_ticks=session.elapsed_ticks)
    return session


def ablation(run: Run, sessions: int) -> None:
    with run.tracer.span("bench.setup"):
        apps = standard_apps()
        corpus = [collect_gremlins(run, apps, 1000 * run.seed + i, 40)
                  for i in range(min(sessions, ABLATION_CORPUS))]
        warmup = collect_gremlins(run, apps, 7, ABLATION_WARMUP_EVENTS)
        replay_and_sweep(run, apps, warmup, "warmup", ABLATION_GRID)
    timed(run, sessions, lambda i: replay_and_sweep(
        run, apps, corpus[i % len(corpus)], f"ablation{i}", ABLATION_GRID))


def fleet_batch(run: Run, index: int, size: int) -> CampaignSpec:
    """Batch ``index``: sessions ``4 * index ..`` of the default-grid
    campaign seeded ``1000 * seed``, whose cells ``4 * index ..`` share
    one app mix and one behaviour."""
    mix, behavior = divmod(index, len(BEHAVIORS))
    return CampaignSpec(
        name=f"bench-{index}", sessions=size,
        seed=1000 * run.seed + FLEET_BATCH * index,
        app_mixes=(DEFAULT_APP_MIXES[mix % len(DEFAULT_APP_MIXES)],),
        behaviors=(BEHAVIORS[behavior],),
        archive_traces=True)


def fleet_unit(run: Run, spec: CampaignSpec, out_dir: Path) -> dict:
    tracer = run.tracer
    with tracer.span("fleet.campaign") as counts:
        begin = time.perf_counter()
        result = run_campaign(spec, out_dir, jobs=run.jobs, hang_timeout=600)
        wall = time.perf_counter() - begin
    counts.update(sessions=spec.sessions, jobs_x_wall=run.jobs * wall,
                  retried=result.retried, quarantined=result.quarantined)
    errors = []
    failed = spec.sessions - result.completed
    if failed:
        errors.append(f"{result.completed} of {spec.sessions} sessions done, "
                      f"{result.quarantined} quarantined")
    refs = 0
    for stats in result.aggregate.sessions.values():
        path = out_dir / "traces" / f"{stats['session_id']}.ptrc"
        report = verify(run, path)
        refs += report["tokens"]
        with TraceContainer(path) as container:
            memory_refs = report["tokens"] - container.counts()["hw"]
        problems = []
        if report["digest"] != stats["trace_digest"]:
            problems.append("archived PTRC digest differs from the journal's")
        if memory_refs != stats["accesses"]:
            problems.append(f"PTRC memory refs {memory_refs} != simulated "
                            f"accesses {stats['accesses']}")
        errors += [f"{stats['session_id']}: {p}" for p in problems]
        failed += bool(problems)
    aggregates = (out_dir / "aggregates.json").read_bytes()
    return {"refs": refs, "sessions": spec.sessions, "slots": run.jobs,
            "wall_s": wall, "errors": errors, "failed": failed,
            "digest": hashlib.sha256(aggregates).hexdigest(),
            "stats": result.aggregate.sessions}


@contextmanager
def layer_probes(tracer: Tracer):
    """Time the layer calls inside ``repro.fleet.run_session``.

    ``run_session`` resolves its layer entry points at call time, so
    wrapping the module attributes gives the same spans the other
    workloads open around their own calls.
    """
    import repro.cache.kernels as kernels
    import repro.resilience as resilience
    import repro.traces.container as container
    import repro.workloads.sessions as sessions

    originals = [(sessions, "collect_session", sessions.collect_session),
                 (resilience, "resilient_replay", resilience.resilient_replay),
                 (kernels, "simulate_auto", kernels.simulate_auto),
                 (container, "ContainerWriter", container.ContainerWriter)]
    collect_session = sessions.collect_session
    resilient_replay = resilience.resilient_replay
    simulate_auto = kernels.simulate_auto

    def collect(*args, **kwargs):
        with tracer.span("workloads.collect") as counts:
            session = collect_session(*args, **kwargs)
        counts.update(log_records=len(session.log),
                      sim_ticks=session.elapsed_ticks)
        return session

    def resilient(*args, **kwargs):
        with tracer.span("emulator.replay") as counts:
            outcome = resilient_replay(*args, **kwargs)
        counts.update(replay_counts(outcome.emulator, outcome.profiler,
                                    outcome.result))
        return outcome

    def simulate(*args, **kwargs):
        with tracer.span("cache.sweep") as counts:
            stats = simulate_auto(*args, **kwargs)
        counts["ref_configs"] = int(stats.accesses)
        return stats

    sessions.collect_session = collect
    resilience.resilient_replay = resilient
    kernels.simulate_auto = simulate
    container.ContainerWriter = timed_writer(tracer)
    try:
        yield
    finally:
        for module, name, value in originals:
            setattr(module, name, value)


def fleet_in_process(run: Run, specs: List[CampaignSpec]) -> None:
    """Traced runs only: re-run the campaigns' plans in this process with
    layer spans, and check each stats record equals the journaled one."""
    trace_dir = run.workdir / "in-process"
    for spec, unit in zip(specs, run.units):
        for plan in spec.expand():
            with run.tracer.span("bench.session", session=plan.index), \
                    layer_probes(run.tracer):
                stats = run_session(plan, trace_dir=trace_dir)
            if stats != unit["stats"].get(plan.index):
                unit["errors"].append(f"{plan.session_id}: in-process stats "
                                      "differ from the worker's")
                unit["failed"] = unit["sessions"]


def fleet(run: Run, sessions: int) -> None:
    # Set-up is the imports only: every worker pays its own.
    specs = [fleet_batch(run, b, min(FLEET_BATCH, sessions - FLEET_BATCH * b))
             for b in range(-(-sessions // FLEET_BATCH))]
    timed(run, len(specs), lambda b: fleet_unit(
        run, specs[b], run.workdir / f"campaign{b}"),
        span="bench.batch", size=lambda b: specs[b].sessions)
    if run.tracer.enabled:
        fleet_in_process(run, specs)
    for unit in run.units:
        unit.pop("stats", None)


WORKLOADS: Dict[str, Callable[[Run, int], None]] = {
    "study": study, "ablation": ablation, "fleet": fleet}


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """max(ru_maxrss of this process, ru_maxrss of its children), MB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--probe-fds", required=True,
                        help="REQUEST,ACK pipe ends for host probe requests")
    args = parser.parse_args(argv)

    request, ack = (int(fd) for fd in args.probe_fds.split(","))

    def probe() -> None:
        os.write(request, b"p")
        os.read(ack, 1)

    jobs = host_jobs()
    workdir = args.result.parent / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = Run(seed=args.seed, jobs=jobs, workdir=workdir,
              tracer=Tracer(bool(args.trace)), setup_only=args.setup_only,
              probe=probe)
    try:
        WORKLOADS[args.workload](
            run, session_count(args.workload, args.seconds, jobs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"workload": args.workload, "seed": args.seed,
              "setup_s": run.ready_at - args.t0, "wall_s": run.wall_s,
              "units": run.units, "peak_rss_mb": peak_rss_mb(), "jobs": jobs}
    if args.trace:
        result["layers"] = layer_metrics(run.tracer.spans)
        if args.spans is not None:
            run.tracer.write_jsonl(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
