"""Configuration sweeps: the paper's 56-cache-configuration study.

§4.2: "We simulated 56 different cache configurations by varying the
cache size, line size and associativity.  The LRU replacement policy
was used in every configuration."  The grid is seven sizes (1–64 KB) x
two line sizes (16/32 B) x four associativities (1/2/4/8), and the
sweep exploits the LRU stack property to simulate each
(line size, set count) family in a single pass.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, replace
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .cache import WRITE_BACK, Cache, CacheConfig
from .hierarchy import RegionMix
from .stackdist import collapse_consecutive, misses_by_associativity, to_line_addresses

PAPER_SIZES = [1024 << i for i in range(7)]       # 1 KB .. 64 KB
PAPER_LINE_SIZES = [16, 32]
PAPER_ASSOCIATIVITIES = [1, 2, 4, 8]


def paper_configurations() -> List[CacheConfig]:
    """The 56 configurations of Figures 5 and 6."""
    return [
        CacheConfig(size=size, line_size=line, associativity=assoc)
        for line in PAPER_LINE_SIZES
        for size in PAPER_SIZES
        for assoc in PAPER_ASSOCIATIVITIES
    ]


@dataclass
class SweepPoint:
    """One configuration's results.

    ``writebacks``/``write_throughs`` stay zero for the read-only grid
    passes and are filled by the write-aware sweeps.
    """

    config: CacheConfig
    accesses: int
    misses: int
    writebacks: int = 0
    write_throughs: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def effective_access_time(self, mix: RegionMix) -> float:
        return mix.cached_time(self.miss_rate)


def sweep_reference(addresses: np.ndarray,
                    configs: Sequence[CacheConfig]) -> List[SweepPoint]:
    """Simulate each configuration independently (slow, trusted)."""
    points = []
    for config in configs:
        cache = Cache(config)
        stats = cache.run(addresses)
        points.append(SweepPoint(config, stats.accesses, stats.misses))
    return points


def sweep_paper_grid(addresses: np.ndarray,
                     sizes: Sequence[int] = PAPER_SIZES,
                     line_sizes: Sequence[int] = PAPER_LINE_SIZES,
                     associativities: Sequence[int] = PAPER_ASSOCIATIVITIES,
                     ) -> List[SweepPoint]:
    """All size x line x associativity LRU configurations, fast.

    Configurations sharing (line size, set count) are simulated in one
    stack pass; consecutive same-line references are collapsed first
    (they hit in any cache of that line size).
    """
    addresses = np.asarray(addresses, dtype=np.uint32)
    total_refs = len(addresses)
    points: List[SweepPoint] = []
    for line in line_sizes:
        line_addrs = to_line_addresses(addresses, line)
        collapsed, _guaranteed_hits = collapse_consecutive(line_addrs)
        # Group the grid by set count.
        by_sets: Dict[int, List[CacheConfig]] = {}
        for size in sizes:
            for assoc in associativities:
                if size < line * assoc:
                    continue
                config = CacheConfig(size=size, line_size=line,
                                     associativity=assoc)
                by_sets.setdefault(config.num_sets, []).append(config)
        for num_sets, family in sorted(by_sets.items()):
            assocs = sorted({c.associativity for c in family})
            misses = misses_by_associativity(collapsed, num_sets, assocs)
            for config in family:
                points.append(SweepPoint(
                    config=config,
                    accesses=total_refs,
                    misses=misses[config.associativity],
                ))
    points.sort(key=lambda p: (p.config.line_size, p.config.size,
                               p.config.associativity))
    return points


# ----------------------------------------------------------------------
# Parallel sweep engine
# ----------------------------------------------------------------------
#
# Workers read the trace as a chunk stream: from a PTRC container on
# disk, or from a ``multiprocessing.shared_memory`` segment the parent
# fills once (forked workers attach read-only numpy views, and the
# array is a single chunk).  Work units are either bundles of (line
# size, set count) families of the paper grid (one trace stream per
# bundle, one vectorized stack pass per family) or groups of requested
# configurations that differ only in write mode (one trace stream per
# group, one simulation per write-allocate mode).  Results are keyed by
# unit index, so assembly order — and therefore the returned list — is
# identical for any job count, including the serial fallback.

#: Worker-side views of the shared trace, set by :func:`_pool_init`.
_SHARED: dict = {}

#: First element of a worker's in-band error report (see :func:`_guard`).
_ERROR_SENTINEL = "__sweep-worker-error__"


class SweepWorkerError(RuntimeError):
    """A sweep worker failed: it raised, was killed, or exceeded the
    per-chunk timeout.

    Deliberately a ``RuntimeError``: the serial fallback in
    :func:`_run_units` swallows ``ValueError`` (shared-memory setup
    failures), and a worker's *computation* failing must never be
    mistaken for the *fan-out machinery* being unavailable.
    """


def _guard(fn, unit):
    """Run one work unit, converting any failure into an in-band error
    report instead of letting it propagate through the pool.

    A raw exception crossing the pool boundary aborts ``Pool.map``
    wholesale and (for exotic exception types) can fail to unpickle;
    the sentinel tuple always travels, and the parent re-raises it as
    a typed :class:`SweepWorkerError` naming the unit.
    """
    try:
        return fn(unit)
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # noqa: BLE001 - report crosses a process
        return (_ERROR_SENTINEL, type(exc).__name__, str(exc),
                traceback.format_exc(limit=6))


def _check_result(result, unit) -> object:
    if (isinstance(result, tuple) and len(result) == 4
            and result[0] == _ERROR_SENTINEL):
        _, name, message, trace = result
        raise SweepWorkerError(
            f"sweep worker failed on unit {unit!r}: {name}: {message}\n"
            f"{trace}")
    return result


def _pool_init_container(container_path: str, memory_only: bool) -> None:
    """Worker init for the by-chunk sharding mode: no shared memory at
    all — each worker streams chunks straight from the PTRC container
    (or archive) on disk, so its resident footprint is one decode
    window regardless of trace size."""
    _SHARED.update(container=container_path, memory_only=memory_only,
                   addresses=None, writes=None, segments=())


def _pool_init(shm_name: str, n: int, dtype: str,
               writes_shm_name: Optional[str]) -> None:
    from multiprocessing import shared_memory

    # Workers are forked, so they share the parent's resource tracker:
    # attaching re-registers the same name idempotently and the
    # parent's unlink cleans it up exactly once.
    shm = shared_memory.SharedMemory(name=shm_name)
    addresses = np.ndarray((n,), dtype=np.dtype(dtype), buffer=shm.buf)
    writes = None
    wshm = None
    if writes_shm_name is not None:
        wshm = shared_memory.SharedMemory(name=writes_shm_name)
        writes = np.ndarray((n,), dtype=bool, buffer=wshm.buf)
    # Keep the SharedMemory objects alive for the worker's lifetime;
    # dropping them would invalidate the views.
    _SHARED.update(addresses=addresses, writes=writes,
                   segments=(shm, wshm))


def _trace_chunks() -> Iterator[Tuple[np.ndarray, Optional[np.ndarray]]]:
    """The worker's trace as ``(addresses, writes)`` chunks: streamed
    from the PTRC container on disk (one decode window resident), or
    the shared in-RAM arrays as a single chunk."""
    container = _SHARED.get("container")
    if container is None:
        yield _SHARED["addresses"], _SHARED["writes"]
        return
    from ..traces.container import open_chunk_source

    src = open_chunk_source(container)
    try:
        yield from src.cache_chunks(memory_only=_SHARED["memory_only"])
    finally:
        if hasattr(src, "close"):
            src.close()


class Family(NamedTuple):
    """One (line size, set count) family of the grid: every requested
    associativity comes out of a single LRU stack pass."""

    line: int
    num_sets: int
    assocs: Tuple[int, ...]

    def __repr__(self) -> str:
        return f"{self.line}B x {self.num_sets} sets"


def _bundle_unit_impl(bundle: Tuple[Family, ...]
                      ) -> Tuple[int, List[Dict[int, int]]]:
    """Paper-grid unit: a bundle of families sharing one trace stream.

    The trace is decoded once per bundle, not once per family.  Per
    chunk and line size, the families' set-sorted run heads are built
    in ascending set count, each refined from the previous family's
    (:func:`~repro.cache.kernels.refined_runs`), and fed to that
    family's :class:`~repro.cache.kernels.ChunkedDepthPass`.  Returns
    the reference count (the parent cannot know the post-filter count
    of a container without decoding it) and each family's misses by
    associativity.
    """
    from .kernels import ChunkedDepthPass, refined_runs

    passes = [ChunkedDepthPass(f.num_sets, max(f.assocs)) for f in bundle]
    by_line: Dict[int, list] = {}
    for family, depth_pass in sorted(zip(bundle, passes),
                                     key=lambda fp: fp[0].num_sets):
        by_line.setdefault(family.line, []).append(depth_pass)
    total = 0
    for addresses, _writes in _trace_chunks():
        total += len(addresses)
        for line, line_passes in by_line.items():
            runs = refined_runs(to_line_addresses(addresses, line),
                                [p.num_sets for p in line_passes])
            for depth_pass, (sets, tags, collapsed) in zip(line_passes, runs):
                depth_pass.feed_sorted(sets, tags, collapsed)
    return total, [depth_pass.misses(family.assocs)
                   for family, depth_pass in zip(bundle, passes)]


def _config_groups(configs: Sequence[CacheConfig]
                   ) -> List[Tuple[CacheConfig, ...]]:
    """The distinct configurations, grouped by (size, line size,
    associativity, policy) in order of first appearance: one group is
    one work unit."""
    groups: Dict[tuple, List[CacheConfig]] = {}
    for config in dict.fromkeys(configs):
        key = (config.size, config.line_size, config.associativity,
               config.policy)
        groups.setdefault(key, []).append(config)
    return [tuple(group) for group in groups.values()]


def _group_unit_impl(group: Tuple[CacheConfig, ...]
                     ) -> List[Tuple[int, int, int, int]]:
    """Configs unit: a group of configurations that differ only in
    write policy and write-allocate, sharing one trace stream.

    Dirty bits never steer replacement, so a write-through cache misses
    exactly where the write-back cache of the same allocate mode does.
    Each allocate mode the group needs is one write-back simulation —
    the kernels' :class:`~repro.cache.kernels.ChunkedSimulator`, or the
    scalar :class:`Cache` where no kernel applies (random
    replacement) — fed every chunk.  A write-back point takes its
    simulation's writebacks; a write-through point writes through every
    write of the trace instead.  Returns ``(accesses, misses,
    writebacks, write_throughs)`` per configuration of the group.
    """
    from .kernels import ChunkedSimulator, supports

    sims = {}
    for config in group:
        if config.write_allocate not in sims:
            sim_config = replace(config, write_policy=WRITE_BACK)
            sims[config.write_allocate] = (ChunkedSimulator(sim_config)
                                           if supports(sim_config)
                                           else Cache(sim_config))
    feeds = [sim.feed if isinstance(sim, ChunkedSimulator) else sim.run
             for sim in sims.values()]
    total = writes_total = 0
    for addresses, writes in _trace_chunks():
        total += len(addresses)
        if writes is not None:
            writes_total += int(np.count_nonzero(writes))
        for feed in feeds:
            feed(addresses, writes)
    results = []
    for config in group:
        sim = sims[config.write_allocate]
        stats = sim.finish() if isinstance(sim, ChunkedSimulator) \
            else sim.stats
        if config.write_policy == WRITE_BACK:
            results.append((total, stats.misses, stats.writebacks, 0))
        else:
            results.append((total, stats.misses, 0, writes_total))
    return results


def _bundle_unit(bundle):
    return _guard(_bundle_unit_impl, bundle)


def _group_unit(group):
    return _guard(_group_unit_impl, group)


def _grid_units(sizes, line_sizes, associativities
                ) -> List[Tuple[Family, List[CacheConfig]]]:
    """The grid's families, by line size and then ascending set count,
    each with the configurations it covers.  :func:`_plan_bundles`
    relies on families of one line size being adjacent."""
    units = []
    for line in line_sizes:
        by_sets: Dict[int, List[CacheConfig]] = {}
        for size in sizes:
            for assoc in associativities:
                if size < line * assoc:
                    continue
                config = CacheConfig(size=size, line_size=line,
                                     associativity=assoc)
                by_sets.setdefault(config.num_sets, []).append(config)
        for num_sets, family in sorted(by_sets.items()):
            assocs = tuple(sorted({c.associativity for c in family}))
            units.append((Family(line, num_sets, assocs), family))
    return units


def _plan_bundles(n: int, jobs: int) -> List[List[int]]:
    """Cut ``n`` families (ordered by line size, then set count) into
    ``min(jobs, n)`` contiguous, near-equal bundles of indices, one per
    worker.

    Every bundle streams the whole trace once.  Keeping each bundle
    contiguous keeps a line size's families together, so they share the
    per-chunk line addresses and precollapse; over the paper grid
    (10 families per line size) ``jobs=2`` gives one bundle per line
    size.
    """
    count = min(max(jobs, 1), n)
    bounds = [n * k // count for k in range(count + 1)]
    return [list(range(bounds[k], bounds[k + 1])) for k in range(count)]


def _run_units(worker, units, jobs: int, addresses: Optional[np.ndarray],
               writes: Optional[np.ndarray],
               chunk_timeout: Optional[float] = None,
               container: Optional[str] = None,
               memory_only: bool = True) -> List:
    """Map ``worker`` over ``units`` with ``jobs`` forked processes
    sharing the trace, or serially in-process.

    With ``container`` set (by-chunk sharding mode) there is no shared
    memory at all: workers stream chunks from the PTRC file/archive on
    disk, and ``addresses``/``writes`` are unused.

    Serial fallback triggers on ``jobs <= 1`` and whenever fork or
    shared memory is unavailable.  A worker that raises surfaces as a
    typed :class:`SweepWorkerError`; with ``chunk_timeout`` set, so
    does a worker that takes longer than that many seconds on one unit
    (the way a SIGKILLed worker shows up: its unit simply never
    finishes, because ``Pool`` respawns the process but the task is
    lost).  The shared segments are closed and unlinked on *every*
    exit path — normal, worker failure, timeout, KeyboardInterrupt —
    via the ``finally`` below, so no ``/dev/shm`` segment outlives the
    call.
    """
    units = list(units)
    if jobs > 1:
        try:
            import multiprocessing
            from multiprocessing import shared_memory

            ctx = multiprocessing.get_context("fork")
            if container is not None:
                with ctx.Pool(jobs, initializer=_pool_init_container,
                              initargs=(container, memory_only)) as pool:
                    return _collect(pool, worker, units, chunk_timeout)
            shm = shared_memory.SharedMemory(create=True,
                                             size=max(1, addresses.nbytes))
            wshm = None
            try:
                np.ndarray(addresses.shape, dtype=addresses.dtype,
                           buffer=shm.buf)[:] = addresses
                writes_name = None
                if writes is not None:
                    wshm = shared_memory.SharedMemory(
                        create=True, size=max(1, writes.nbytes))
                    np.ndarray(writes.shape, dtype=bool,
                               buffer=wshm.buf)[:] = writes
                    writes_name = wshm.name
                with ctx.Pool(
                        jobs, initializer=_pool_init,
                        initargs=(shm.name, len(addresses),
                                  addresses.dtype.str, writes_name)) as pool:
                    return _collect(pool, worker, units, chunk_timeout)
            finally:
                shm.close()
                shm.unlink()
                if wshm is not None:
                    wshm.close()
                    wshm.unlink()
        except (ImportError, OSError, ValueError):
            pass  # no fork / no shared memory: fall through to serial
    _SHARED.update(container=container, memory_only=memory_only,
                   addresses=addresses, writes=writes, segments=())
    try:
        return [_check_result(worker(u), u) for u in units]
    finally:
        _SHARED.clear()


def _collect(pool, worker, units: list,
             chunk_timeout: Optional[float]) -> List:
    """Map ``worker`` over ``units`` on ``pool``, one unit per task.

    imap (not map): per-unit collection makes a per-chunk timeout
    possible at all — map would block forever on a unit whose worker
    was killed.
    """
    import multiprocessing

    it = pool.imap(worker, units, chunksize=1)
    results = []
    for index, unit in enumerate(units):
        try:
            if chunk_timeout is not None:
                result = it.next(chunk_timeout)
            else:
                result = next(it)
        except multiprocessing.TimeoutError:
            raise SweepWorkerError(
                f"sweep worker exceeded the {chunk_timeout:g}s "
                f"chunk timeout on unit {index} "
                f"({unit!r}) — worker killed or wedged"
            ) from None
        results.append(_check_result(result, unit))
    return results


def sweep_parallel(addresses: Optional[np.ndarray] = None,
                   writes: Optional[np.ndarray] = None,
                   configs: Optional[Sequence[CacheConfig]] = None,
                   jobs: int = 1,
                   sizes: Sequence[int] = PAPER_SIZES,
                   line_sizes: Sequence[int] = PAPER_LINE_SIZES,
                   associativities: Sequence[int] = PAPER_ASSOCIATIVITIES,
                   chunk_timeout: Optional[float] = None,
                   container: Union[str, "os.PathLike", None] = None,
                   memory_only: bool = True,
                   ) -> List[SweepPoint]:
    """The configuration sweep, fanned out over worker processes.

    Without ``configs`` this runs the paper grid: the (line size, set
    count) families are cut into ``min(jobs, families)`` bundles, each
    worker streams the trace once for its bundle, and every family is
    one vectorized stack pass over that stream (results match
    :func:`sweep_paper_grid` exactly).  With ``configs`` — any
    policy/write-mode mix, e.g. the ablation grid — the configurations
    that share size, line size, associativity and policy form one
    dynamically scheduled unit: it streams the trace once and runs one
    simulation per write-allocate mode, from which both write policies'
    points follow (see :func:`_group_unit_impl`).  The returned points
    follow ``configs`` and carry write-back/write-through counts.

    Two trace-sharing modes:

    *  **In-RAM** (``addresses``): the trace (and write mask) is shared
       with workers through ``multiprocessing.shared_memory``.
    *  **By-chunk sharding** (``container``): pass a PTRC container
       file (or archive directory) instead of arrays.  Workers stream
       chunks from disk through the out-of-core kernels — resident
       memory stays bounded by the chunk decode window however large
       the archived trace is, and results are bit-identical to the
       in-RAM pass on the same references.  ``memory_only`` mirrors
       ``ReferenceTrace.memory_only()`` (drop hardware references).

    Result order is deterministic and independent of ``jobs``;
    ``jobs <= 1`` or an unavailable fork start method degrades
    gracefully to an in-process loop.  A failed worker raises
    :class:`SweepWorkerError`; ``chunk_timeout`` bounds how long any
    single work unit may take before the sweep gives up with the same
    error (catching killed/wedged workers).
    """
    if container is not None:
        if addresses is not None or writes is not None:
            raise ValueError(
                "pass either in-RAM arrays or container=, not both")
        container = os.fspath(container)
    else:
        if addresses is None:
            raise ValueError("pass addresses or container=")
        addresses = np.ascontiguousarray(addresses, dtype=np.uint32)
        if writes is not None:
            writes = np.ascontiguousarray(writes, dtype=bool)
            if len(writes) != len(addresses):
                raise ValueError("writes mask length != trace length")

    if configs is not None:
        groups = _config_groups(configs)
        results = _run_units(_group_unit, groups, jobs,
                             addresses, writes, chunk_timeout,
                             container=container, memory_only=memory_only)
        by_config = {config: result
                     for group, group_results in zip(groups, results)
                     for config, result in zip(group, group_results)}
        return [SweepPoint(c, *by_config[c]) for c in configs]

    units = _grid_units(sizes, line_sizes, associativities)
    bundles = _plan_bundles(len(units), jobs)
    results = _run_units(_bundle_unit,
                         [tuple(units[i][0] for i in b) for b in bundles],
                         jobs, addresses, writes, chunk_timeout,
                         container=container, memory_only=memory_only)
    points: List[SweepPoint] = []
    for bundle, (total_refs, misses_list) in zip(bundles, results):
        for i, misses in zip(bundle, misses_list):
            for config in units[i][1]:
                points.append(SweepPoint(config=config, accesses=total_refs,
                                         misses=misses[config.associativity]))
    points.sort(key=lambda p: (p.config.line_size, p.config.size,
                               p.config.associativity))
    return points


def grid_by_config(points: Sequence[SweepPoint]) -> Dict[tuple, SweepPoint]:
    return {(p.config.size, p.config.line_size, p.config.associativity): p
            for p in points}


def subsample_trace(addresses: np.ndarray, limit: int,
                    seed: Optional[int] = None) -> np.ndarray:
    """Truncate a trace for quick sweeps (contiguous prefix keeps the
    locality structure intact, unlike random sampling)."""
    if len(addresses) <= limit:
        return addresses
    if seed is None:
        return addresses[:limit]
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, len(addresses) - limit))
    return addresses[start:start + limit]
