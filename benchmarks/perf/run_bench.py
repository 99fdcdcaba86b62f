"""The tracked cache-pipeline performance harness.

Times the three stages this repository's perf work targets —

1. trace generation (the synthetic desktop/session generator),
2. cache simulation: the vectorized kernels vs the scalar reference
   ``Cache.run`` loop, per configuration family, with a byte-for-byte
   stats cross-check on a shared prefix, and
3. the 56-configuration paper sweep: the pre-kernel serial engine
   (scalar stack passes) vs ``sweep_parallel`` at ``--jobs 1`` and
   ``--jobs 4`` —

and writes ``BENCH_cache.json`` at the repository root so the numbers
are tracked from PR to PR.  Timing claims are environment-dependent;
the stats-equality flags are not, and the CI smoke job fails on any
``stats_match: false`` (never on timing).

Usage::

    python benchmarks/perf/run_bench.py              # full harness
    python benchmarks/perf/run_bench.py --quick      # CI smoke scale
    python benchmarks/perf/run_bench.py --trace t.npz --out BENCH.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cache import (          # noqa: E402
    Cache,
    CacheConfig,
    POLICY_FIFO,
    lru_depth_histogram,
    lru_hit_depths,
    simulate,
    sweep_paper_grid,
    sweep_parallel,
    to_line_addresses,
    WRITE_BACK,
)
from repro import (                # noqa: E402
    collect_table1_session,
    replay_session,
    standard_apps,
)
from repro.workloads import SessionSpec  # noqa: E402

#: The simulation configurations the harness tracks, chosen to cover
#: every kernel path: both replacement policies, both write policies,
#: no-write-allocate, and one way (direct-mapped).
KERNEL_CONFIGS = [
    ("lru_wt_8k", CacheConfig(8192, 16, 4)),
    ("lru_wb_8k", CacheConfig(8192, 16, 4, write_policy=WRITE_BACK)),
    ("fifo_wt_8k", CacheConfig(8192, 16, 4, policy=POLICY_FIFO)),
    ("fifo_wb_8k", CacheConfig(8192, 16, 4, policy=POLICY_FIFO,
                               write_policy=WRITE_BACK)),
    ("lru_wb_8k_nowa", CacheConfig(8192, 16, 4, write_policy=WRITE_BACK,
                                   write_allocate=False)),
    ("direct_mapped_wb_8k", CacheConfig(8192, 16, 1,
                                        write_policy=WRITE_BACK)),
]

STAT_FIELDS = ("accesses", "hits", "misses", "writebacks",
               "write_throughs")


def _timed(fn, repeats: int = 1):
    """Best-of-N wall clock and the last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


#: Deterministic synthetic-session specs (Table 1 style: a simulated
#: volunteer generating pen/button activity, collected on the device
#: model and replayed with profiling — the paper's trace source).
BENCH_SESSION = SessionSpec(name="bench", seed=42, hours=6.0,
                            bouts=16, contacts=12)
QUICK_SESSION = SessionSpec(name="bench-quick", seed=42, hours=0.5,
                            bouts=2, contacts=2)


#: Emulator sizing shared by trace generation and the replay-core A/B.
EMULATOR_KW = {"ram_size": 8 << 20, "flash_size": 1 << 20}


def load_trace(args) -> tuple:
    """The benchmark trace: a synthetic session collected and replayed
    through the device model by default (that replay *is* the tracked
    trace-generation stage), or any ``.npz`` reference trace.  Returns
    ``(addresses, writes, generation_record, session)`` — ``session``
    is ``None`` for the ``.npz`` path (no replay A/B possible)."""
    n = args.refs
    if args.trace:
        from repro.emulator import ReferenceTrace

        trace = ReferenceTrace.load(args.trace).memory_only()
        addresses = trace.addresses[:n]
        writes = trace.is_write[:n]
        gen = {"source": str(args.trace), "refs": int(len(addresses))}
        return (np.ascontiguousarray(addresses, dtype=np.uint32),
                np.ascontiguousarray(writes, dtype=bool), gen, None)

    spec = QUICK_SESSION if args.quick else BENCH_SESSION
    collect_s, session = _timed(
        lambda: collect_table1_session(spec, ram_size=EMULATOR_KW["ram_size"]))
    # One untimed replay produces the cache-bench trace; the tracked
    # replay timing comes from bench_replay's A/B (merged into this
    # record by main), so the two sections can never drift apart.
    _, profiler, _ = replay_session(session.initial_state, session.log,
                                    apps=standard_apps(), profile=True,
                                    emulator_kwargs=EMULATOR_KW)
    trace = profiler.reference_trace().memory_only()
    addresses = trace.addresses[:n]
    writes = trace.is_write[:n]
    total = len(trace.addresses)
    gen = {"source": f"synthetic session {spec.name!r} (seed {spec.seed})",
           "refs": int(len(addresses)),
           "session_refs": int(total),
           "collect_seconds": round(collect_s, 3)}
    return (np.ascontiguousarray(addresses, dtype=np.uint32),
            np.ascontiguousarray(writes, dtype=bool), gen, session)


def bench_replay(session, quick: bool) -> dict:
    """Replay-core A/B on the same recorded session: the predecoded
    block interpreter (``fast``) vs the stepping loop (``simple``),
    with a bit-exactness cross-check over every observable statistic
    (cycles, instructions, opcode histogram, reference counts and the
    packed reference trace)."""
    apps = standard_apps()
    repeats = 1 if quick else 3
    rows = {}
    fingerprints = {}
    refs = 0
    for core in ("simple", "fast"):
        def run(core=core):
            return replay_session(session.initial_state, session.log,
                                  apps=apps, profile=True,
                                  emulator_kwargs={**EMULATOR_KW,
                                                   "core": core})
        seconds, (emulator, profiler, _) = _timed(run, repeats=repeats)
        cpu = emulator.device.cpu
        fingerprints[core] = (cpu.cycles, cpu.instructions,
                              bytes(profiler.opcode_counts),
                              profiler.counts_bytes(),
                              profiler.trace_bytes())
        refs = int(len(profiler.reference_trace().addresses))
        rows[core] = {"seconds": round(seconds, 3),
                      "refs_per_sec": round(refs / seconds)}
    match = fingerprints["fast"] == fingerprints["simple"]
    return {
        "session_refs": refs,
        "simple": rows["simple"],
        "fast": rows["fast"],
        "speedup": round(rows["fast"]["refs_per_sec"]
                         / rows["simple"]["refs_per_sec"], 2),
        "stats_match": bool(match),
    }


def bench_sanitize(session, quick: bool) -> dict:
    """Sanitizer overhead on the fast core, three ways: plain replay,
    full shadow checking, and checking with the static elision set.
    Correctness flags: the two sanitized runs must report bit-identical
    findings (elision soundness) and a recorded clean session must
    report none; the overhead ratio is tracked, never gated (timing)."""
    apps = standard_apps()
    repeats = 1 if quick else 3

    def run(sanitize, elide=True):
        return replay_session(session.initial_state, session.log,
                              apps=apps, profile=True,
                              emulator_kwargs=EMULATOR_KW,
                              sanitize=sanitize, sanitize_elide=elide)

    plain_s, (_, profiler, _) = _timed(lambda: run(False), repeats=repeats)
    refs = int(len(profiler.reference_trace().addresses))
    full_s, (emu_full, _, _) = _timed(lambda: run(True, elide=False),
                                      repeats=repeats)
    elided_s, (emu_elided, _, _) = _timed(lambda: run(True), repeats=repeats)

    def findings(emulator):
        return sorted((f.code, int(f.severity), f.address, f.block)
                      for f in emulator.sanitizer.report.sorted())

    full_findings = findings(emu_full)
    elided_findings = findings(emu_elided)
    findings_match = full_findings == elided_findings
    clean = not elided_findings
    stats = emu_elided.sanitizer.stats()
    plain_rps = refs / plain_s
    full_rps = refs / full_s
    elided_rps = refs / elided_s
    return {
        "session_refs": refs,
        "plain": {"seconds": round(plain_s, 3),
                  "refs_per_sec": round(plain_rps)},
        "sanitized_full": {"seconds": round(full_s, 3),
                           "refs_per_sec": round(full_rps),
                           "overhead": round(full_s / plain_s, 2)},
        "sanitized_elided": {"seconds": round(elided_s, 3),
                             "refs_per_sec": round(elided_rps),
                             "overhead": round(elided_s / plain_s, 2)},
        "elision_rate": stats["elision_rate"],
        "elide_pcs": stats["elide_pcs"],
        "data_accesses": stats["data_accesses"],
        "findings": len(elided_findings),
        "clean": clean,
        "findings_match": findings_match,
        "stats_match": bool(findings_match and clean),
    }


def bench_kernels(addresses, writes, scalar_refs: int) -> dict:
    """Kernel vs scalar throughput per configuration, plus an exact
    stats cross-check on a shared prefix."""
    out = {}
    check_n = min(scalar_refs, len(addresses))
    for name, config in KERNEL_CONFIGS:
        cache = Cache(config)
        scalar_s, _ = _timed(
            lambda: cache.run(addresses[:check_n], writes[:check_n]))
        scalar_stats = cache.stats
        kernel_check = simulate(addresses[:check_n], config,
                                writes=writes[:check_n])
        match = all(getattr(scalar_stats, f) == getattr(kernel_check, f)
                    for f in STAT_FIELDS)
        kernel_s, stats = _timed(
            lambda: simulate(addresses, config, writes=writes), repeats=3)
        scalar_rps = check_n / scalar_s
        kernel_rps = len(addresses) / kernel_s
        out[name] = {
            "config": config.label(),
            "policy": config.policy,
            "write_policy": config.write_policy,
            "write_allocate": config.write_allocate,
            "scalar_refs_per_sec": round(scalar_rps),
            "kernel_refs_per_sec": round(kernel_rps),
            "speedup": round(kernel_rps / scalar_rps, 2),
            "miss_rate": round(stats.miss_rate, 6),
            "stats_match": bool(match),
        }
    return out


def bench_family_pass(addresses, scalar_refs: int) -> dict:
    """The LRU stack-property family pass: scalar vs vectorized."""
    line_addrs = to_line_addresses(addresses, 16)
    check_n = min(scalar_refs, len(line_addrs))
    scalar_s, (h_ref, cold_ref) = _timed(
        lambda: lru_depth_histogram(
            np.asarray(line_addrs[:check_n], dtype=np.int64), 128, 8))
    h_chk, cold_chk = lru_hit_depths(line_addrs[:check_n], 128, 8)
    match = bool(np.array_equal(np.asarray(h_ref), h_chk)
                 and cold_ref == cold_chk)
    kernel_s, _ = _timed(lambda: lru_hit_depths(line_addrs, 128, 8),
                         repeats=3)
    scalar_rps = check_n / scalar_s
    kernel_rps = len(line_addrs) / kernel_s
    return {
        "num_sets": 128,
        "max_depth": 8,
        "scalar_refs_per_sec": round(scalar_rps),
        "kernel_refs_per_sec": round(kernel_rps),
        "speedup": round(kernel_rps / scalar_rps, 2),
        "stats_match": match,
    }


def bench_sweep(addresses) -> dict:
    """Wall clock of the full 56-configuration grid, three ways.

    The parallel pass asks for 4 workers but never more than the
    machine has — oversubscribing a single-core runner just adds
    process overhead (the seed run recorded jobs4 *slower* than jobs1
    on ``cpu_count: 1``).  The JSON says when the cap bit."""
    requested = 4
    jobs = min(requested, os.cpu_count() or 1)
    prev_s, prev = _timed(lambda: sweep_paper_grid(addresses))
    jobs1_s, p1 = _timed(lambda: sweep_parallel(addresses, jobs=1))
    jobs4_s, p4 = _timed(lambda: sweep_parallel(addresses, jobs=jobs))
    key = lambda pts: [(p.config.label(), p.misses) for p in pts]  # noqa: E731
    deterministic = key(p1) == key(p4)
    match = key(prev) == key(p1)
    return {
        "configurations": len(prev),
        "previous_serial_seconds": round(prev_s, 3),
        "jobs1_seconds": round(jobs1_s, 3),
        "jobs4_seconds": round(jobs4_s, 3),
        "jobs4_workers": jobs,
        "jobs4_capped_to_cpu_count": jobs < requested,
        "jobs4_speedup_vs_previous_serial": round(prev_s / jobs4_s, 2),
        "jobs1_speedup_vs_previous_serial": round(prev_s / jobs1_s, 2),
        "deterministic_across_jobs": deterministic,
        "stats_match": bool(match and deterministic),
    }


def bench_trace_io(addresses, writes, quick: bool) -> dict:
    """PTRC container I/O and the out-of-core simulation path.

    Measures container write throughput and compression ratio on the
    bench trace, then times one kernel configuration both ways — the
    whole trace in RAM vs streamed back from the container chunk by
    chunk — with a bit-identical stats gate (the chunked kernels carry
    cache state across chunk boundaries; any drift is a correctness
    bug, not noise).  A subprocess then streams a large synthetic
    trace (100M refs at full scale) through a writer and back without
    ever materializing it, reporting its own peak RSS — the documented
    bounded-memory claim for out-of-core archives."""
    import subprocess
    import tempfile

    from repro.device.memmap import KIND_READ, KIND_WRITE
    from repro.traces.container import (
        ContainerWriter,
        TraceContainer,
        pack_tokens,
    )

    kinds = np.where(writes, KIND_WRITE, KIND_READ).astype(np.uint8)
    tokens = pack_tokens(addresses, kinds)
    config = CacheConfig(8192, 16, 4)
    row: dict = {"refs": int(len(tokens))}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.ptrc"

        def write():
            with ContainerWriter(path, codec="zlib") as writer:
                writer.append_tokens(tokens)
            return writer.manifest

        write_s, manifest = _timed(write)
        row["codec"] = manifest["codec"]
        row["write_tokens_per_sec"] = int(len(tokens) / write_s)
        row["compressed_ratio"] = round(
            manifest["payload_bytes"] / max(1, len(tokens) * 8), 3)

        in_ram_s, in_ram = _timed(
            lambda: simulate(addresses, config, writes=writes))
        with TraceContainer(path) as container:
            ooc_s, ooc = _timed(
                lambda: simulate(container.cache_chunks(), config))
        row["in_ram_refs_per_sec"] = int(len(tokens) / in_ram_s)
        row["out_of_core_refs_per_sec"] = int(len(tokens) / ooc_s)
        row["out_of_core_fraction_of_in_ram"] = round(in_ram_s / ooc_s, 2)
        row["out_of_core_stats_identical"] = ooc == in_ram

    # Bounded-RSS archive: the child never holds more than one chunk
    # plus its fixed tile, whatever the trace length.
    large_refs = 2_000_000 if quick else 100_000_000
    child = (
        "import json,resource,sys\n"
        "import numpy as np\n"
        f"sys.path.insert(0, {str(REPO_ROOT / 'src')!r})\n"
        "from repro.traces.container import ContainerWriter, TraceContainer\n"
        "refs, path = int(sys.argv[1]), sys.argv[2]\n"
        "rng = np.random.default_rng(7)\n"
        "tile = (rng.integers(0, 1 << 23, size=1 << 22, dtype=np.uint64)\n"
        "        | (np.uint64(1) << np.uint64(32)))\n"
        "with ContainerWriter(path, codec='zlib') as writer:\n"
        "    done = 0\n"
        "    while done < refs:\n"
        "        n = min(refs - done, len(tile))\n"
        "        writer.append_tokens(tile[:n])\n"
        "        done += n\n"
        "total = 0\n"
        "with TraceContainer(path) as container:\n"
        "    for chunk in container.chunks():\n"
        "        total += len(chunk)\n"
        "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "print(json.dumps({'read_back': total,\n"
        "                  'max_rss_mb': round(rss, 1)}))\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", child, str(large_refs),
             str(Path(tmp) / "large.ptrc")],
            capture_output=True, text=True, check=True)
        large_s = time.perf_counter() - t0
    stats = json.loads(proc.stdout)
    raw_mb = large_refs * 8 / (1 << 20)
    row["large_archive"] = {
        "refs": large_refs,
        "raw_mb": round(raw_mb, 1),
        "seconds": round(large_s, 3),
        "tokens_per_sec": int(large_refs / large_s),
        "max_rss_mb": stats["max_rss_mb"],
        "resident_fraction_of_raw": round(stats["max_rss_mb"] / raw_mb, 3),
        "read_back_matches": stats["read_back"] == large_refs,
    }
    row["stats_match"] = bool(row["out_of_core_stats_identical"]
                              and row["large_archive"]["read_back_matches"])
    return row


def bench_fleet(quick: bool) -> dict:
    """Fleet orchestration throughput: the same gremlins campaign run
    through the supervisor at ``--jobs 1`` and ``--jobs N``, with a
    byte-for-byte identity gate on the merged ``aggregates.json`` —
    scheduling order and worker parallelism must never leak into the
    population aggregates.  Sessions/min is tracked, never gated."""
    import tempfile

    from repro.fleet import CampaignSpec, run_campaign

    sessions = 6 if quick else 16
    requested = 4
    jobs = min(requested, os.cpu_count() or 1)
    spec = CampaignSpec(
        name="bench-fleet", sessions=sessions, seed=4242,
        app_mixes=(("launcher", "memopad"), ("launcher", "puzzle")),
        behaviors=("gremlins",), durations=(0.01,),
        caches=((8192, 32, 4),))
    rows = {}
    blobs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, n in (("jobs1", 1), ("jobsN", jobs)):
            out = Path(tmp) / label
            t0 = time.perf_counter()
            result = run_campaign(spec, out, jobs=n, hang_timeout=300.0)
            seconds = time.perf_counter() - t0
            blobs[label] = (out / "aggregates.json").read_bytes()
            rows[label] = {
                "jobs": n,
                "seconds": round(seconds, 3),
                "sessions_per_min": round(result.sessions_per_minute(), 1),
                "complete": result.complete,
            }
    identical = blobs["jobs1"] == blobs["jobsN"]
    return {
        "sessions": sessions,
        "jobs1": rows["jobs1"],
        "jobsN": rows["jobsN"],
        "jobsN_capped_to_cpu_count": jobs < requested,
        "speedup": round(rows["jobs1"]["seconds"]
                         / rows["jobsN"]["seconds"], 2),
        "aggregates_identical_across_jobs": identical,
        "stats_match": bool(identical and rows["jobs1"]["complete"]
                            and rows["jobsN"]["complete"]),
    }


def bench_transval(quick: bool) -> dict:
    """Translation-validator throughput over the standard corpus:
    every distinct fused block from the quickstart replay is validated
    against the per-insn reference semantics.  Blocks/sec and wall
    time are tracked, never gated; zero error-severity findings is the
    gate (uncovered-arm warnings are baselined in CI, not here).
    ``--quick`` skips the elision audits and miscompile self-test —
    the dedicated verify-codegen CI job runs those against the
    committed baseline."""
    from repro.analysis.transval import verify_codegen

    report, stats = verify_codegen(run_selftest=not quick,
                                   audit_elisions=not quick)
    errors = len(report.errors)
    return {
        "blocks": stats.blocks,
        "vectors": stats.vectors,
        "arms": stats.arms,
        "arm_coverage": round(stats.coverage, 4),
        "validation_seconds": round(stats.wall, 3),
        "corpus_replay_seconds": round(stats.replay_wall, 3),
        "blocks_per_sec": round(stats.blocks_per_sec, 1),
        "errors": errors,
        "warnings": len(report.warnings),
        "stats_match": errors == 0,
    }


def _print_fleet(fl: dict) -> None:
    print(f"fleet ({fl['sessions']} sessions): jobs=1 "
          f"{fl['jobs1']['seconds']}s "
          f"({fl['jobs1']['sessions_per_min']} sessions/min), "
          f"jobs={fl['jobsN']['jobs']} {fl['jobsN']['seconds']}s "
          f"({fl['jobsN']['sessions_per_min']} sessions/min, "
          f"{fl['speedup']}x), aggregates identical "
          f"{fl['aggregates_identical_across_jobs']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_cache.json"))
    parser.add_argument("--trace", default=None,
                        help=".npz reference trace instead of the "
                             "synthetic generator")
    parser.add_argument("--refs", type=int, default=None,
                        help="cap the trace length")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke scale: small trace, correctness "
                             "flags still exact")
    parser.add_argument("--fleet-only", action="store_true",
                        help="run only the fleet section and merge it "
                             "into an existing --out report")
    args = parser.parse_args(argv)
    if args.fleet_only:
        fleet = bench_fleet(args.quick)
        _print_fleet(fleet)
        out = Path(args.out)
        report = json.loads(out.read_text()) if out.exists() else {"meta": {}}
        report["fleet"] = fleet
        divergences = [d for d in report.get("meta", {}).get("divergences", [])
                       if d != "fleet"]
        if not fleet["stats_match"]:
            divergences.append("fleet")
        report.setdefault("meta", {})["divergences"] = divergences
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nmerged fleet section into {out}")
        return 0 if fleet["stats_match"] else 1
    if args.refs is None:
        args.refs = 150_000 if args.quick else 2_000_000
    scalar_refs = 30_000 if args.quick else 300_000

    addresses, writes, gen, session = load_trace(args)
    print(f"trace: {len(addresses):,} refs "
          f"({gen['source']}), write share "
          f"{float(np.count_nonzero(writes)) / len(addresses):.2f}")

    report = {
        "meta": {
            "quick": args.quick,
            "refs": int(len(addresses)),
            "scalar_check_refs": int(min(scalar_refs, len(addresses))),
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "trace_generation": gen,
        "kernels": bench_kernels(addresses, writes, scalar_refs),
        "family_pass": bench_family_pass(addresses, scalar_refs),
        "sweep_grid": bench_sweep(addresses),
        "trace_io": bench_trace_io(addresses, writes, args.quick),
        "fleet": bench_fleet(args.quick),
        "transval": bench_transval(args.quick),
    }
    if session is not None:
        rp = report["replay"] = bench_replay(session, args.quick)
        report["sanitize"] = bench_sanitize(session, args.quick)
        # trace_generation's replay numbers are the A/B's fast row —
        # one measurement, two sections, no drift.
        gen["replay_seconds"] = rp["fast"]["seconds"]
        gen["replay_refs_per_sec"] = rp["fast"]["refs_per_sec"]

    print(f"\n{'path':<22} {'scalar':>12} {'kernel':>12} {'speedup':>8} "
          f"{'match':>6}")
    for name, row in report["kernels"].items():
        print(f"{name:<22} {row['scalar_refs_per_sec']:>12,} "
              f"{row['kernel_refs_per_sec']:>12,} {row['speedup']:>7}x "
              f"{str(row['stats_match']):>6}")
    fam = report["family_pass"]
    print(f"{'family_pass':<22} {fam['scalar_refs_per_sec']:>12,} "
          f"{fam['kernel_refs_per_sec']:>12,} {fam['speedup']:>7}x "
          f"{str(fam['stats_match']):>6}")
    sw = report["sweep_grid"]
    print(f"\nsweep (56 configs): previous serial "
          f"{sw['previous_serial_seconds']}s, jobs=1 "
          f"{sw['jobs1_seconds']}s, jobs=4 {sw['jobs4_seconds']}s "
          f"({sw['jobs4_speedup_vs_previous_serial']}x vs previous)")
    rp = report.get("replay")
    if rp is not None:
        print(f"replay cores ({rp['session_refs']:,} refs): simple "
              f"{rp['simple']['refs_per_sec']:,} refs/s, fast "
              f"{rp['fast']['refs_per_sec']:,} refs/s "
              f"({rp['speedup']}x), stats match "
              f"{rp['stats_match']}")

    failures = [name for name, row in report["kernels"].items()
                if not row["stats_match"]]
    if not fam["stats_match"]:
        failures.append("family_pass")
    if not sw["stats_match"]:
        failures.append("sweep_grid")
    if rp is not None and not rp["stats_match"]:
        failures.append("replay")
    ti = report["trace_io"]
    la = ti["large_archive"]
    print(f"trace_io ({ti['refs']:,} refs): write "
          f"{ti['write_tokens_per_sec']:,} tokens/s ({ti['codec']} "
          f"ratio {ti['compressed_ratio']}), out-of-core "
          f"{ti['out_of_core_refs_per_sec']:,} refs/s "
          f"({ti['out_of_core_fraction_of_in_ram']}x in-RAM), "
          f"identical {ti['out_of_core_stats_identical']}; "
          f"large archive {la['refs']:,} refs ({la['raw_mb']} MB raw) "
          f"in {la['max_rss_mb']} MB RSS")
    if not ti["stats_match"]:
        failures.append("trace_io")
    fl = report["fleet"]
    _print_fleet(fl)
    if not fl["stats_match"]:
        failures.append("fleet")
    tv = report["transval"]
    print(f"transval ({tv['blocks']} blocks, {tv['vectors']:,} "
          f"vectors): {tv['blocks_per_sec']} blocks/s, "
          f"{tv['validation_seconds']}s validation, arm coverage "
          f"{tv['arm_coverage']}, errors {tv['errors']}, warnings "
          f"{tv['warnings']}")
    if not tv["stats_match"]:
        failures.append("transval")
    sz = report.get("sanitize")
    if sz is not None:
        print(f"sanitize ({sz['session_refs']:,} refs): plain "
              f"{sz['plain']['refs_per_sec']:,} refs/s, full "
              f"{sz['sanitized_full']['refs_per_sec']:,} refs/s "
              f"({sz['sanitized_full']['overhead']}x), elided "
              f"{sz['sanitized_elided']['refs_per_sec']:,} refs/s "
              f"({sz['sanitized_elided']['overhead']}x, elision rate "
              f"{sz['elision_rate']}), clean {sz['clean']}, "
              f"findings match {sz['findings_match']}")
        if not sz["stats_match"]:
            failures.append("sanitize")
    report["meta"]["divergences"] = failures

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out}")
    if failures:
        print(f"KERNEL/SCALAR DIVERGENCE in: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
