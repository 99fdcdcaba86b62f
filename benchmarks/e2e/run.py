"""End-to-end pipeline benchmark: collect -> replay -> PTRC -> cache study.

Usage::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace 0|1] [--spans PATH] [--save PATH]
    python3 benchmarks/e2e/run.py pin [--seconds T]
    python3 benchmarks/e2e/run.py report --workload W [--seed S]
    python3 benchmarks/e2e/run.py calibrate [--runs N] [--out PATH] [--write]
    python3 benchmarks/e2e/run.py compare A.jsonl B.jsonl

Every run starts each workload in fresh processes (``pipeline.py``):
``SETUP_REPEATS - 1`` that only set up, then one that sets up and runs
the timed sessions.  It prints every metric with its unit, then, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, from spans written as JSONL.  The exit code is 0
only when every check passed, 1 when a check failed, and 2 when a
workload could not run at all.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from metrics import (END_TO_END, PER_LAYER, PROBE_REF_S, HostProbe, Tracer,
                     by_name, end_to_end, spread)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("study", "ablation", "fleet")
#: The seed whose outputs ``expected.json`` pins.
DEFAULT_SEED = 1
#: Fresh processes whose set-up time is measured; setup_s is their median.
SETUP_REPEATS = 3
#: Wall-clock budget for one workload of one run, children included.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A workload could not be measured (its process failed or hung)."""


def benchmark_spec() -> dict:
    return json.loads(BENCHMARK.read_text())


def child(workload: str, seed: int, seconds: float, trace: bool,
          deadline: float, probe: HostProbe, setup_only: bool = False,
          spans: Optional[Path] = None) -> dict:
    """Run ``pipeline.py`` in a fresh process group and return its result,
    with ``probes``: the host probe timed at each of its requests."""
    OUT.mkdir(exist_ok=True)
    result = OUT / f"result-{os.getpid()}-{time.monotonic_ns()}.json"
    request_r, request_w = os.pipe()
    ack_r, ack_w = os.pipe()
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--result", str(result),
           "--probe-fds", f"{request_w},{ack_r}"]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True,
                            pass_fds=(request_w, ack_r))
    os.close(request_w)
    os.close(ack_r)
    probes = []
    try:
        with open(request_r, "rb", buffering=0) as requests, \
                open(ack_w, "wb", buffering=0) as acks:
            # Serve probe requests until the process (and every worker
            # that inherited the pipe) is gone.
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([requests], [], [], left)[0]:
                    raise BenchError(
                        f"{workload}: no result within {DEADLINE_S:g} s")
                if not requests.read(1):
                    break
                probes.append(probe())
                try:
                    acks.write(b"k")
                except BrokenPipeError:
                    break  # it died; its exit code says so below
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {DEADLINE_S:g} s") from None
    finally:
        # The group holds the sweep pools and fleet workers too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0 or not result.exists():
        raise BenchError(f"{workload}: measuring process exited with {code}")
    try:
        res = json.loads(result.read_text())
    finally:
        result.unlink()
    if len(probes) != len(res["units"]) + 1:
        raise BenchError(f"{workload}: {len(probes)} host probes for "
                         f"{len(res['units'])} units")
    res["probes"] = probes
    return res


def load_expected() -> dict:
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spans: Optional[Path] = None, setup_repeats: int = SETUP_REPEATS,
            check_pins: bool = True) -> dict:
    """One run of one workload, as a record with its metrics and checks."""
    deadline = time.monotonic() + DEADLINE_S
    probe = HostProbe()
    runs = [child(workload, seed, seconds, False, deadline, probe,
                  setup_only=True) for _ in range(setup_repeats - 1)]
    res = child(workload, seed, seconds, trace, deadline, probe, spans=spans)
    runs.append(res)
    # The probe timed right after set-up scales that set-up sample; the
    # mean of the probes before and after a unit scales the unit.
    host = [sum(p) / PROBE_REF_S for p in res["probes"]]
    setup = [(r["setup_s"], sum(r["probes"][0]) / PROBE_REF_S) for r in runs]
    units = [dict(u, host=(host[i] + host[i + 1]) / 2)
             for i, u in enumerate(res["units"])]
    errors = [f"unit {u['index']}: {e}" for u in units for e in u["errors"]]
    failed = sum(u["failed"] for u in units)
    pinned = load_expected().get(workload, {}) if seed == DEFAULT_SEED else {}
    for unit in units:
        want = pinned.get(str(unit["index"]))
        if check_pins and want and unit["digest"] != want:
            errors.append(f"unit {unit['index']}: output digest "
                          f"{str(unit['digest'])[:12]} != pinned {want[:12]}")
            failed += unit["sessions"] - unit["failed"]
    sessions = sum(u["sessions"] for u in units)
    e2e = end_to_end(setup, units, res["peak_rss_mb"])
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "attempted": sessions, "failed": failed,
        "errors": errors,
        "metrics": res["layers"] if trace else e2e,
        "meta": {
            "jobs": res["jobs"], "setup": setup,
            "wall_s": res["wall_s"],
            "sessions_per_min": 60 * sessions / res["wall_s"] if res["wall_s"] else 0.0,
            "refs_per_session": sum(u["refs"] for u in units) / max(1, sessions),
            "pinned_units": sum(str(u["index"]) in pinned for u in units),
            "end_to_end": e2e,
            "raw": end_to_end([(s, 1.0) for s, _ in setup],
                              [dict(u, host=1.0) for u in units],
                              res["peak_rss_mb"]),
            "host": {
                "python_loop_s": statistics.median(p[0] for p in res["probes"]),
                "numpy_loop_s": statistics.median(p[1] for p in res["probes"]),
                "probes": res["probes"], "nproc": os.cpu_count(),
                "python": platform.python_version(), "numpy": np.__version__},
            "units": [{k: u[k] for k in ("index", "sessions", "refs",
                                         "wall_s", "cpu_s", "host")}
                      for u in units],
        },
        "digests": {str(u["index"]): u["digest"] for u in units},
    }


def unit_of(name: str) -> str:
    return (END_TO_END.get(name) or PER_LAYER[name])[0]


def print_record(record: dict) -> None:
    meta = record["meta"]
    print(f"{record['workload']}: seed {record['seed']}, "
          f"{record['attempted']} sessions, {record['failed']} failed, "
          f"jobs {meta['jobs']}, {meta['sessions_per_min']:.1f} sessions/min, "
          f"{meta['refs_per_session'] / 1e6:.2f} M refs/session")
    for name, value in record["metrics"].items():
        print(f"  {name:32s} {value:>16.6g} {unit_of(name)}")
    if not record["trace"]:
        print("  raw host time (not rescaled by the host probe): "
              + ", ".join(f"{k}={v:.6g}" for k, v in meta["raw"].items()))
    for error in record["errors"]:
        print(f"  FAILED {error}")


def save(record: dict, path: Optional[Path]) -> None:
    if path is not None:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")


def cmd_run(args) -> int:
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for workload in workloads:
        spans = args.spans
        if args.trace and spans is None:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{workload}-s{args.seed}.jsonl"
        record = measure(workload, args.seed, args.seconds, bool(args.trace),
                         spans=spans,
                         setup_repeats=1 if args.trace else SETUP_REPEATS)
        save(record, args.save)
        print_record(record)
        records.append(record)
    prefix = len(records) > 1
    metrics = {(f"{r['workload']}." if prefix else "") + name:
               {"value": value, "unit": unit_of(name)}
               for r in records for name, value in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def cmd_pin(args) -> int:
    expected = {"seed": DEFAULT_SEED, "seconds": args.seconds}
    for workload in WORKLOADS:
        record = measure(workload, DEFAULT_SEED, args.seconds, False,
                         setup_repeats=1, check_pins=False)
        print_record(record)
        if record["failed"]:
            print(f"not pinning: {workload} failed its checks", file=sys.stderr)
            return 1
        expected[workload] = record["digests"]
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED.relative_to(ROOT)}")
    return 0


def cmd_report(args) -> int:
    OUT.mkdir(exist_ok=True)
    spans_path = args.spans or OUT / f"spans-{args.workload}-s{args.seed}.jsonl"
    plain = measure(args.workload, args.seed, args.seconds, False, setup_repeats=1)
    traced = measure(args.workload, args.seed, args.seconds, True,
                     spans=spans_path, setup_repeats=1)
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    names = by_name(spans)
    root = names.get("bench.setup", (0, 0, {}))[1] + names.get(
        "bench.session", (0, 0, {}))[1]
    print(f"{args.workload}, seed {args.seed}: per-layer self time "
          f"(spans in {spans_path})")
    print(f"  {'span':24s} {'self s':>9s} {'share':>7s}  counts")
    for name, (self_s, _, counts) in sorted(names.items(),
                                           key=lambda kv: -kv[1][0]):
        shown = ", ".join(f"{k}={v:g}" for k, v in sorted(counts.items()))
        share = f"{100 * self_s / root:6.1f}%" if root else "      -"
        print(f"  {name:24s} {self_s:9.3f} {share}  {shown}")
    print_record(traced)
    unit_span = "fleet.campaign" if args.workload == "fleet" else "bench.session"
    covered = names.get(unit_span, (0, 0, {}))[1]
    wall = traced["meta"]["wall_s"]
    print(f"timed units: {covered:.3f} s in {unit_span} spans vs "
          f"{wall:.3f} s timed wall ({100 * (covered / wall - 1):+.2f}%)")
    for metric in ("krefs_per_s",):
        a = plain["meta"]["end_to_end"][metric]
        b = traced["meta"]["end_to_end"][metric]
        print(f"tracing overhead: {metric} {a:.6g} untraced vs {b:.6g} traced "
              f"({100 * (a - b) / a:+.2f}%)")
    spm_a = plain["meta"]["sessions_per_min"]
    spm_b = traced["meta"]["sessions_per_min"]
    print(f"tracing overhead: sessions_per_min {spm_a:.4g} untraced vs "
          f"{spm_b:.4g} traced ({100 * (spm_a - spm_b) / spm_a:+.2f}%)")
    # One pair of runs cannot resolve a few percent on a noisy host, so
    # also bound the recording cost directly.
    probe, n = Tracer(True), 20_000
    begin = time.perf_counter()
    for _ in range(n):
        with probe.span("probe") as counts:
            counts["n"] = 1
    per_span = (time.perf_counter() - begin) / n
    def timed_span(span: Optional[dict]) -> bool:
        while span is not None and span["name"] != unit_span:
            span = spans[span["parent"]] if span["parent"] is not None else None
        return span is not None

    in_wall = sum(1 for s in spans if timed_span(s))
    print(f"span recording: {in_wall} spans in timed units x "
          f"{per_span * 1e6:.2f} us = {100 * in_wall * per_span / wall:.3f}% "
          "of timed wall")
    return 0 if plain["failed"] == traced["failed"] == 0 else 1


def summarize(records: List[dict]) -> Dict[str, Dict[str, tuple]]:
    """workload -> metric -> (median, IQR share, n) over untraced runs."""
    out: Dict[str, Dict[str, tuple]] = {}
    for workload in WORKLOADS:
        runs = [r for r in records if r["workload"] == workload and not r["trace"]]
        if runs:
            out[workload] = {
                name: spread([r["metrics"][name] for r in runs]) + (len(runs),)
                for name in END_TO_END}
    return out


def cmd_calibrate(args) -> int:
    if args.runs < 5:
        print("calibrate needs at least 5 runs per workload", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    out = args.out or OUT / f"calibrate-{int(time.time())}.jsonl"
    records = []
    for r in range(args.runs):
        order = WORKLOADS if r % 2 == 0 else WORKLOADS[::-1]
        for workload in order:
            record = measure(workload, DEFAULT_SEED + r, args.seconds, False)
            save(record, out)
            records.append(record)
            print(f"run {r + 1}/{args.runs} {workload}: "
                  + ", ".join(f"{k}={v:.4g}" for k, v in record["metrics"].items()),
                  file=sys.stderr)
    worst: Dict[str, float] = {}
    print(f"{'workload':10s} {'metric':16s} {'median':>12s} {'IQR':>8s}")
    for workload, rows in summarize(records).items():
        for name, (median, iqr, _) in rows.items():
            print(f"{workload:10s} {name:16s} {median:12.6g} {100 * iqr:7.2f}%")
            worst[name] = max(worst.get(name, 0.0), iqr)
    # Three times the worst spread, floor 5%, cap 25%.  Set-up time gets
    # the largest bound, so that work moved into set-up still shows.
    suggested = {name: min(0.25, max(0.05, math.ceil(300 * iqr) / 100))
                 for name, iqr in worst.items()}
    suggested["setup_s"] = 0.25
    print("suggested bounds: " + ", ".join(f"{k}={v:g}" for k, v in suggested.items()))
    print(f"runs saved to {out}")
    if args.write:
        spec = benchmark_spec()
        for metric in spec["end_to_end"]:
            metric["bound"] = suggested[metric["name"]]
        BENCHMARK.write_text(json.dumps(spec, indent=2) + "\n")
        print(f"wrote bounds to {BENCHMARK}")
    return 0 if all(r["failed"] == 0 for r in records) else 1


def cmd_compare(args) -> int:
    sets = []
    for path in (args.a, args.b):
        sets.append(summarize([json.loads(line)
                               for line in path.read_text().splitlines() if line]))
    limits = {m["name"]: m["bound"] for m in benchmark_spec()["end_to_end"]}
    agree = True
    print(f"{'workload':10s} {'metric':16s} {'A median':>12s} {'B median':>12s} "
          f"{'worse':>8s} {'bound':>6s}  verdict")
    for workload in WORKLOADS:
        if workload not in sets[0] or workload not in sets[1]:
            continue
        for name, (unit, better) in END_TO_END.items():
            a, _, na = sets[0][workload][name]
            b, _, nb = sets[1][workload][name]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            ok = abs(worse) < limits[name]
            agree &= ok
            print(f"{workload:10s} {name:16s} {a:12.6g} {b:12.6g} "
                  f"{100 * worse:+7.2f}% {100 * limits[name]:5.0f}%  "
                  f"{'agree' if ok else 'DIFFER'} (n={na}/{nb})")
    return 0 if agree else 1


def main(argv: Optional[List[str]] = None) -> int:
    seconds = benchmark_spec()["run_seconds"]
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path,
                        help="JSONL file for the traced run's spans")
    parser.add_argument("--save", type=Path,
                        help="append each run's full record to this JSONL file")
    sub = parser.add_subparsers(dest="command")
    pin = sub.add_parser("pin", help="rewrite expected.json from seed 1")
    pin.add_argument("--seconds", type=float, default=seconds)
    report = sub.add_parser("report", help="per-layer table and tracing overhead")
    report.add_argument("--workload", choices=WORKLOADS, required=True)
    report.add_argument("--seed", type=int, default=DEFAULT_SEED)
    report.add_argument("--seconds", type=float, default=seconds)
    report.add_argument("--spans", type=Path)
    calibrate = sub.add_parser("calibrate",
                               help="repeat every workload; suggest bounds")
    calibrate.add_argument("--runs", type=int, default=5)
    calibrate.add_argument("--seconds", type=float, default=seconds)
    calibrate.add_argument("--out", type=Path)
    calibrate.add_argument("--write", action="store_true",
                           help="write the bounds into BENCHMARK.json")
    compare = sub.add_parser("compare", help="do two result sets agree?")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    command = {None: cmd_run, "pin": cmd_pin, "report": cmd_report,
               "calibrate": cmd_calibrate, "compare": cmd_compare}[args.command]
    # Exit through the ``finally`` that kills the measuring process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return command(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
