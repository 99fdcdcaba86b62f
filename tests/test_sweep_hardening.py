"""Hardened sweep fan-out: typed worker errors, per-chunk timeouts,
and no shared-memory segment on any exit path (forked workers inherit
the trace)."""

import glob
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.cache import SweepWorkerError, sweep_parallel
from repro.cache import sweep as sweep_mod
from tests.cache_oracles import sweep_paper_grid
from tests.test_kernels import ABLATION_GRID


def _shm_segments() -> set:
    return set(glob.glob("/dev/shm/psm_*") + glob.glob("/dev/shm/wnsm_*"))


def _addresses(n: int = 5000) -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.integers(0, 1 << 18, n, dtype=np.uint32)


# Module-level so the fork-based pool can resolve them by name.
def _raising_unit(unit):
    raise RuntimeError(f"injected failure on {unit}")


def _guarded_raising_unit(unit):
    return sweep_mod._guard(_raising_unit, unit)


def _suicide_unit(unit):
    # Simulates a worker killed out from under the pool (OOM killer,
    # operator): SIGKILL leaves the pool to respawn the process, but
    # the task itself is lost forever — only the chunk timeout notices.
    os.kill(os.getpid(), signal.SIGKILL)


def _guarded_suicide_unit(unit):
    return sweep_mod._guard(_suicide_unit, unit)


def _echo_unit(unit):
    return unit


def _slow_unit(unit):
    time.sleep(30.0)
    return unit


def _guarded_slow_unit(unit):
    return sweep_mod._guard(_slow_unit, unit)


class TestSweepWorkerError:
    def test_is_not_a_value_error(self):
        """The serial fallback swallows ValueError (no fork start
        method); a worker *computation* failure must never qualify."""
        assert issubclass(SweepWorkerError, RuntimeError)
        assert not issubclass(SweepWorkerError, ValueError)

    def test_serial_worker_failure_is_typed(self):
        with pytest.raises(SweepWorkerError, match="injected failure"):
            sweep_mod._run_units(_guarded_raising_unit, ["u0"], 1,
                                 _addresses(), None)

    def test_parallel_worker_failure_is_typed_and_cleans_shm(self):
        before = _shm_segments()
        with pytest.raises(SweepWorkerError, match="injected failure"):
            sweep_mod._run_units(_guarded_raising_unit, ["u0", "u1"], 2,
                                 _addresses(), None, 60.0)
        assert _shm_segments() - before == set()

    def test_sigkilled_worker_hits_chunk_timeout_and_cleans_shm(self):
        before = _shm_segments()
        start = time.monotonic()
        with pytest.raises(SweepWorkerError, match="chunk timeout"):
            sweep_mod._run_units(_guarded_suicide_unit, ["u0"], 2,
                                 _addresses(), None, 2.0)
        assert time.monotonic() - start < 25.0
        assert _shm_segments() - before == set()

    def test_wedged_worker_hits_chunk_timeout(self):
        with pytest.raises(SweepWorkerError, match="chunk timeout"):
            sweep_mod._run_units(_guarded_slow_unit, ["u0"], 2,
                                 _addresses(), None, 1.0)


class TestSweepStillCorrect:
    def test_parallel_with_timeout_matches_grid(self):
        addresses = _addresses()
        fast = sweep_parallel(addresses, jobs=2, chunk_timeout=120.0,
                              sizes=[1024, 4096], line_sizes=[16],
                              associativities=[1, 2])
        reference = sweep_paper_grid(addresses, sizes=[1024, 4096],
                                     line_sizes=[16],
                                     associativities=[1, 2])
        assert [(p.config.size, p.config.associativity, p.misses)
                for p in fast] == \
               [(p.config.size, p.config.associativity, p.misses)
                for p in reference]


@pytest.fixture
def pool_sizes(monkeypatch):
    """The worker count of every fork-context ``Pool`` the test starts."""
    sizes = []
    context = type(multiprocessing.get_context("fork"))
    pool = context.Pool

    def recording_pool(self, processes=None, *args, **kwargs):
        sizes.append(processes)
        return pool(self, processes, *args, **kwargs)

    monkeypatch.setattr(context, "Pool", recording_pool)
    return sizes


class TestPoolSize:
    def test_pool_has_no_more_workers_than_units(self, pool_sizes):
        """An empty sweep forks no pool and makes no shared segment; a
        pool is sized to its units, down to one worker for one unit."""
        sizes = pool_sizes
        addresses = _addresses()
        before = _shm_segments()
        assert sweep_parallel(addresses, configs=[], jobs=2) == []
        assert sweep_mod._run_units(_echo_unit, [], 2, addresses, None) == []
        assert sizes == []
        assert _shm_segments() == before
        grid = dict(sizes=[1024], line_sizes=[16], associativities=[1])
        assert [p.misses for p in sweep_parallel(addresses, jobs=4,
                                                 **grid)] == \
            [p.misses for p in sweep_paper_grid(addresses, **grid)]
        assert sweep_mod._run_units(_echo_unit, ["u0", "u1", "u2"], 8,
                                    addresses, None) == ["u0", "u1", "u2"]
        assert sizes == [1, 3]
        assert _shm_segments() == before

    def test_in_ram_pool_needs_no_shared_memory(self, monkeypatch,
                                                pool_sizes):
        """Forked workers inherit the in-RAM trace: with shared memory
        unavailable, an ablation-grid sweep with writes at ``jobs=2``
        still forks a 2-worker pool, equals the ``jobs=1`` points and
        leaves no ``/dev/shm`` segment."""
        from multiprocessing import shared_memory

        def no_shared_memory(*args, **kwargs):
            raise OSError("shared memory unavailable")

        monkeypatch.setattr(shared_memory, "SharedMemory", no_shared_memory)
        addresses = _addresses()
        writes = np.random.default_rng(8).random(len(addresses)) < 0.3
        before = _shm_segments()
        forked = sweep_parallel(addresses, writes=writes,
                                configs=ABLATION_GRID, jobs=2,
                                chunk_timeout=120.0)
        assert pool_sizes == [2]
        assert forked == sweep_parallel(addresses, writes=writes,
                                        configs=ABLATION_GRID, jobs=1)
        assert pool_sizes == [2]
        assert _shm_segments() == before
