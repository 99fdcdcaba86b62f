"""Smoke test of the end-to-end benchmark: every workload with one
session, traced, through the same functions a run calls.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (about
20 seconds).
"""

from __future__ import annotations

import json
import math

import pytest

from metrics import END_TO_END, PER_LAYER, Tracer, end_to_end, layer_metrics
from pipeline import ROOT, WORKLOADS, Run


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_session(name, tmp_path):
    run = Run(seed=2, jobs=1, workdir=tmp_path, tracer=Tracer(True))
    WORKLOADS[name](run, 1)

    assert len(run.units) == 1
    unit = run.units[0]
    assert unit["errors"] == [] and unit["failed"] == 0
    assert unit["sessions"] == 1 and unit["refs"] > 0
    assert len(unit["digest"]) == 64
    assert run.ready_at > 0 and run.wall_s > 0

    e2e = end_to_end([(1.0, 1.0)], [dict(u, host=1.0) for u in run.units],
                     100.0)
    assert set(e2e) == set(END_TO_END)
    assert all(value > 0 for value in e2e.values())

    layers = layer_metrics(run.tracer.spans)
    assert set(layers) == set(PER_LAYER)
    assert all(math.isfinite(value) for value in layers.values())
    for metric in ("workloads.collect_s", "emulator.replay_s",
                   "traces.encode_s", "traces.verify_s", "cache.sweep_s",
                   "emulator.refs", "emulator.guest_insns", "palmos.traps",
                   "m68k.fused_blocks", "workloads.log_records"):
        assert layers[metric] > 0, metric
    assert 0 < layers["bench.session_self_share"] < 1


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER
