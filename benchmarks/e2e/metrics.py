"""The benchmark's metrics: end-to-end figures from the untraced run,
per-layer figures from spans recorded in the traced run.

A span is ``{id, parent, session, name, start, end, counts}``: the
benchmark opens one around every call into ``repro.workloads``,
``repro.emulator``, ``repro.traces``, ``repro.cache`` and
``repro.fleet``, and one ``bench.session`` around each timed session.
Spans nest, so a layer's self time is its duration minus the part its
child spans cover.  Nothing inside ``src/`` is instrumented.

Spans are kept in memory and written as JSONL when the run ends.  A
disabled :class:`Tracer` records nothing; the untraced run, which gives
the end-to-end metrics, pays only for the ``with`` statements.

End-to-end times are rescaled by a :class:`HostProbe` timed next to
each sample, so that they survive the shared host's speed drift.

This module imports nothing from ``repro``, so the parent process of
``run.py`` can use it.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: End-to-end metrics: name -> (unit, better).  Guest references are the
#: unit of work because session sizes differ 2-3x from seed to seed
#: while host time per reference stays within a few percent.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "krefs_per_s": ("kref/s", "higher"),
    "us_per_ref_p50": ("us/ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: :class:`HostProbe` seconds (Python + numpy part) on the reference
#: host, a 2-vCPU x86-64 VM, when it ran at its usual speed.
PROBE_REF_S = 0.14


class HostProbe:
    """A fixed CPU workload that owes nothing to this repository: an
    interpreter-bound Python loop and sequential numpy passes over a
    32 MB buffer.  Timed next to the benchmark's units, it measures how
    fast the host runs at that moment.  On a shared host that speed
    drifts by up to ±25% over minutes, for CPU time as much as for wall
    time.  (Random access over a large array would not do: its speed
    depends 3x on where the pages land, which differs per allocation.)"""

    def __init__(self) -> None:
        import numpy as np

        self._buffer = np.random.default_rng(0).random(1 << 22)

    def __call__(self) -> Tuple[float, float]:
        """Seconds for the Python loop and for the numpy passes."""
        begin = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i & 0xFF
        middle = time.perf_counter()
        for _ in range(16):
            self._buffer.sum()
        return middle - begin, time.perf_counter() - middle


def end_to_end(setup: Sequence[Tuple[float, float]], units: Sequence[dict],
               peak_rss_mb: float) -> Dict[str, float]:
    """The :data:`END_TO_END` values of one untraced run.

    ``setup`` holds one ``(seconds, host)`` pair per set-up sample.
    ``units`` are the timed sessions (for ``fleet``, the campaign
    batches), each with ``wall_s``, ``refs`` (guest memory references
    in its PTRC traces), ``slots`` (worker processes it kept busy) and
    ``host``.  ``host`` is the probe's time next to the sample divided
    by :data:`PROBE_REF_S`; times are divided by it, so they read as
    seconds on the reference host.  Pass ``host = 1`` for raw figures.
    """
    per_ref = [u["wall_s"] / u["host"] * u["slots"] / u["refs"]
               for u in units if u["refs"]]
    wall = sum(u["wall_s"] / u["host"] for u in units)
    refs = sum(u["refs"] for u in units)
    return {
        "setup_s": statistics.median(s / host for s, host in setup),
        "krefs_per_s": refs / wall / 1e3 if wall else 0.0,
        "us_per_ref_p50": statistics.median(per_ref) * 1e6 if per_ref else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


def spread(values: Sequence[float]) -> Tuple[float, float]:
    """(median, interquartile range as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


class Tracer:
    """Collects nested spans; a no-op when ``enabled`` is false."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[dict] = []

    @contextmanager
    def span(self, name: str, session: Optional[int] = None
             ) -> Iterator[Dict[str, float]]:
        """Time the body as span ``name``.  Yields the span's ``counts``
        dict, which the caller may fill during or after the body."""
        if not self.enabled:
            yield {}
            return
        parent = self._stack[-1] if self._stack else None
        if session is None and parent is not None:
            session = parent["session"]
        record = {"id": len(self.spans),
                  "parent": parent["id"] if parent else None,
                  "session": session, "name": name,
                  "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def by_name(spans: List[dict]) -> Dict[str, Tuple[float, float, Dict[str, float]]]:
    """Span name -> (total self seconds, total seconds, summed counts)."""
    own = self_times(spans)
    out: Dict[str, Tuple[float, float, Dict[str, float]]] = {}
    for s in spans:
        self_s, total_s, counts = out.get(s["name"], (0.0, 0.0, {}))
        for key, value in s["counts"].items():
            counts[key] = counts.get(key, 0) + value
        out[s["name"]] = (self_s + own[s["id"]],
                          total_s + s["end"] - s["start"], counts)
    return out


#: Per-layer metrics: name -> (unit, better).  Every workload reports
#: every one of them; ``layer_metrics`` defines each value.
PER_LAYER = {
    "workloads.collect_s": ("s", "lower"),
    "workloads.collect_share": ("ratio", "lower"),
    "workloads.sim_ticks_per_s": ("ticks/s", "higher"),
    "workloads.log_records": ("count", "lower"),
    "emulator.replay_s": ("s", "lower"),
    "emulator.replay_share": ("ratio", "lower"),
    "emulator.refs_per_s": ("refs/s", "higher"),
    "emulator.refs": ("count", "lower"),
    "emulator.guest_insns": ("count", "lower"),
    "emulator.events_injected": ("count", "lower"),
    "m68k.fused_blocks": ("count", "higher"),
    "m68k.fused_insn_share": ("ratio", "higher"),
    "m68k.invalidations": ("count", "lower"),
    "palmos.traps": ("count", "lower"),
    "traces.encode_s": ("s", "lower"),
    "traces.encode_tokens_per_s": ("tokens/s", "higher"),
    "traces.bytes_per_ref": ("B/ref", "lower"),
    "traces.verify_s": ("s", "lower"),
    "traces.verify_tokens_per_s": ("tokens/s", "higher"),
    "cache.sweep_s": ("s", "lower"),
    "cache.sweep_share": ("ratio", "lower"),
    "cache.ref_configs_per_s": ("refcfg/s", "higher"),
    "fleet.overhead_s_per_session": ("s", "lower"),
    "fleet.retried": ("count", "lower"),
    "fleet.quarantined": ("count", "lower"),
    "bench.session_self_share": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[dict]) -> Dict[str, float]:
    """The :data:`PER_LAYER` values of one traced run.

    Times are self times summed over the whole run (set-up included:
    ``ablation`` collects its corpus there).  Shares divide by the total
    of the ``bench.setup`` and ``bench.session`` spans, which on
    ``fleet`` are the in-process re-run of the campaigns' plans (the
    campaigns' workers run in other processes).
    ``fleet.overhead_s_per_session`` is the worker-slot
    time per session that the in-process layers do not explain: on
    ``fleet``, jobs x campaign wall / sessions minus the in-process
    seconds per session of the same plans; on ``study`` and
    ``ablation``, which have no supervisor, the benchmark's own glue
    per session.
    """
    names = by_name(spans)

    def get(name: str) -> Tuple[float, float, Dict[str, float]]:
        return names.get(name, (0.0, 0.0, {}))

    collect_s, _, collect = get("workloads.collect")
    replay_s, _, replay = get("emulator.replay")
    encode_s, _, encode = get("traces.encode")
    verify_s, _, verify = get("traces.verify")
    sweep_s, _, sweep = get("cache.sweep")
    session_self, session_total, _ = get("bench.session")
    campaign = get("fleet.campaign")[2]
    root_total = get("bench.setup")[1] + session_total
    sessions = sum(1 for s in spans if s["name"] == "bench.session")
    if campaign.get("sessions"):
        overhead = (campaign["jobs_x_wall"] / campaign["sessions"]
                    - _ratio(session_total, sessions))
    else:
        overhead = _ratio(session_self, sessions)
    return {
        "workloads.collect_s": collect_s,
        "workloads.collect_share": _ratio(collect_s, root_total),
        "workloads.sim_ticks_per_s": _ratio(collect.get("sim_ticks", 0),
                                            collect_s),
        "workloads.log_records": collect.get("log_records", 0),
        "emulator.replay_s": replay_s,
        "emulator.replay_share": _ratio(replay_s, root_total),
        "emulator.refs_per_s": _ratio(replay.get("refs", 0), replay_s),
        "emulator.refs": replay.get("refs", 0),
        "emulator.guest_insns": replay.get("guest_insns", 0),
        "emulator.events_injected": replay.get("events_injected", 0),
        "m68k.fused_blocks": replay.get("fused_blocks", 0),
        "m68k.fused_insn_share": _ratio(replay.get("fused_insns", 0),
                                        replay.get("block_insns", 0)),
        "m68k.invalidations": replay.get("invalidations", 0),
        "palmos.traps": replay.get("traps", 0),
        "traces.encode_s": encode_s,
        "traces.encode_tokens_per_s": _ratio(encode.get("tokens", 0),
                                             encode_s),
        "traces.bytes_per_ref": _ratio(verify.get("bytes", 0),
                                       verify.get("tokens", 0)),
        "traces.verify_s": verify_s,
        "traces.verify_tokens_per_s": _ratio(verify.get("tokens", 0),
                                             verify_s),
        "cache.sweep_s": sweep_s,
        "cache.sweep_share": _ratio(sweep_s, root_total),
        "cache.ref_configs_per_s": _ratio(sweep.get("ref_configs", 0),
                                          sweep_s),
        "fleet.overhead_s_per_session": overhead,
        "fleet.retried": campaign.get("retried", 0),
        "fleet.quarantined": campaign.get("quarantined", 0),
        "bench.session_self_share": _ratio(session_self, session_total),
    }
