"""Shared fixtures for the benchmark suite.

The expensive artifacts — the four Table 1 sessions and their profiled
replays — are built once per run and shared by every benchmark module.

Environment knobs:

* ``REPRO_FULL=1`` — run everything at full scale (all four sessions,
  unsampled sweep traces, the full 0-60 K overhead curve).  Default is
  a reduced scale that keeps the whole suite under a few minutes while
  preserving every reported shape.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro import TABLE1_SESSIONS, collect_table1_session, replay_session, standard_apps
from repro.cache import RegionMix, subsample_trace
from repro.emulator import Profiler
from repro.workloads import CollectedSession, SessionSpec

FULL_SCALE = os.environ.get("REPRO_FULL", "0") == "1"

EMULATOR_KW = {"ram_size": 8 << 20, "flash_size": 1 << 20}

#: Trace length cap for cache sweeps at reduced scale.
SWEEP_REF_LIMIT = None if FULL_SCALE else 1_500_000


@dataclass
class SessionRun:
    """One collected and profiled-replayed volunteer session."""

    spec: SessionSpec
    session: CollectedSession
    profiler: Profiler

    @property
    def mix(self) -> RegionMix:
        return RegionMix(self.profiler.ram_refs, self.profiler.flash_refs)


def _run_session(spec: SessionSpec) -> SessionRun:
    session = collect_table1_session(spec, ram_size=EMULATOR_KW["ram_size"])
    _, profiler, _ = replay_session(
        session.initial_state, session.log, apps=standard_apps(),
        emulator_kwargs=EMULATOR_KW)
    return SessionRun(spec=spec, session=session, profiler=profiler)


@pytest.fixture(scope="session")
def table1_runs() -> List[SessionRun]:
    """All four Table 1 sessions (or the two shortest at reduced scale)."""
    specs = TABLE1_SESSIONS if FULL_SCALE else [
        TABLE1_SESSIONS[0], TABLE1_SESSIONS[2]]
    return [_run_session(spec) for spec in specs]


@pytest.fixture(scope="session")
def case_study_run(table1_runs) -> SessionRun:
    """The session whose trace drives the §4 cache study."""
    return table1_runs[-1]


@pytest.fixture(scope="session")
def case_study_memory_trace(case_study_run):
    """The case-study session's memory references (hardware-register
    references dropped), materialized once for every module."""
    return case_study_run.profiler.reference_trace().memory_only()


@pytest.fixture(scope="session")
def case_study_trace(case_study_memory_trace):
    """Cacheable byte addresses from the case-study session."""
    addresses = case_study_memory_trace.addresses
    if SWEEP_REF_LIMIT is not None:
        addresses = subsample_trace(addresses, SWEEP_REF_LIMIT)
    return addresses


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing
    (experiments are deterministic; re-running them only wastes time)."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)
