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

from .cache import POLICY_LRU, WRITE_BACK, Cache, CacheConfig
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
# array is a single chunk).  There is one unit kind, a *bundle* of work
# items, and one pool loop.  An item is a depth family (LRU
# write-allocate configurations of one line size and set count, every
# associativity and its write-backs out of one stack pass) or one
# simulated configuration (FIFO, LRU without write-allocate, random).
# A bundle decodes each chunk once, refines its families of a line size
# as one chain of set sorts, and feeds every simulator the same chunk.
# Results are keyed by unit index, so assembly order — and therefore
# the returned list — is identical for any job count, including the
# serial fallback.

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
    """A depth family: the LRU write-allocate configurations of one
    (line size, set count), every associativity out of one
    :class:`~repro.cache.kernels.ChunkedDepthPass`.  With
    ``writebacks`` the pass counts write-backs too; the paper grid's
    read-only families go without."""

    line: int
    num_sets: int
    assocs: Tuple[int, ...]
    configs: Tuple[CacheConfig, ...]
    writebacks: bool

    def __repr__(self) -> str:
        return f"{self.line}B x {self.num_sets} sets"


class Simulated(NamedTuple):
    """Configurations that differ only in write policy, simulated once
    as their write-back twin: a
    :class:`~repro.cache.kernels.ChunkedSimulator` (FIFO, and LRU
    without write-allocate), or the scalar :class:`Cache` where no
    kernel applies (random replacement)."""

    configs: Tuple[CacheConfig, ...]

    @property
    def line(self) -> int:
        return self.configs[0].line_size

    @property
    def num_sets(self) -> int:
        return self.configs[0].num_sets

    def __repr__(self) -> str:
        return repr(self.configs)


WorkItem = Union[Family, Simulated]


def _work_items(configs: Sequence[CacheConfig], writebacks: bool
                ) -> List[WorkItem]:
    """The distinct configurations as work items, ordered by line size
    and set count: a depth family before the simulated configurations
    of its set count, and those in order of first appearance.

    Dirty bits never steer replacement, so a write-through configuration
    misses exactly where its write-back twin does, and the two share an
    item.  :func:`_plan_bundles` relies on the items of one line size
    being adjacent.
    """
    families: Dict[Tuple[int, int], List[CacheConfig]] = {}
    simulated: Dict[CacheConfig, List[CacheConfig]] = {}
    for config in dict.fromkeys(configs):
        if config.policy == POLICY_LRU and config.write_allocate:
            families.setdefault((config.line_size, config.num_sets),
                                []).append(config)
        else:
            simulated.setdefault(replace(config, write_policy=WRITE_BACK),
                                 []).append(config)
    items: List[WorkItem] = [
        Family(line, num_sets,
               tuple(sorted({c.associativity for c in group})),
               tuple(group), writebacks)
        for (line, num_sets), group in sorted(families.items())]
    items += [Simulated(tuple(group)) for group in simulated.values()]
    items.sort(key=lambda item: (item.line, item.num_sets))
    return items


def _grid_configs(sizes, line_sizes, associativities) -> List[CacheConfig]:
    """The grid's LRU configurations, sorted by line size, size and
    associativity (sizes smaller than one set are skipped)."""
    return [CacheConfig(size=size, line_size=line, associativity=assoc)
            for line in sorted(line_sizes) for size in sorted(sizes)
            for assoc in sorted(associativities) if size >= line * assoc]


def _bundle_unit_impl(bundle: Tuple[WorkItem, ...]
                      ) -> Tuple[int, List[List[Tuple[int, int, int]]]]:
    """One worker's bundle of items, sharing one trace stream.

    The trace is decoded once per bundle.  Per chunk and line size, the
    bundle's depth families get their set-sorted run heads in ascending
    set count, each refined from the previous family's
    (:func:`~repro.cache.kernels.refined_runs`), with write flags when
    they count write-backs; every simulator is fed the decoded chunk.
    Returns the reference count (the parent cannot know the post-filter
    count of a container without decoding it) and, per item, ``(misses,
    writebacks, write_throughs)`` for each configuration it serves: a
    write-back configuration takes its cache's writebacks, and a
    write-through one writes through every write of the trace.  A
    read-only family (the paper grid) reads no write flags.
    """
    from .kernels import (ChunkedDepthPass, ChunkedSimulator, refined_runs,
                          supports)

    runners: List = []
    chains: Dict[int, list] = {}
    feeds = []
    for item in bundle:
        if isinstance(item, Family):
            runner = ChunkedDepthPass(item.num_sets, max(item.assocs),
                                      writebacks=item.writebacks)
            chains.setdefault(item.line, []).append(runner)
        else:
            config = replace(item.configs[0], write_policy=WRITE_BACK)
            if supports(config):
                runner = ChunkedSimulator(config)
                feeds.append(runner.feed)
            else:
                runner = Cache(config)
                feeds.append(runner.run)
        runners.append(runner)
    for passes in chains.values():
        passes.sort(key=lambda depth_pass: depth_pass.num_sets)
    reads_writes = any(not isinstance(item, Family) or item.writebacks
                       for item in bundle)
    total = writes_total = 0
    for addresses, writes in _trace_chunks():
        total += len(addresses)
        if not reads_writes:
            writes = None
        elif writes is not None:
            writes_total += int(np.count_nonzero(writes))
        for line, passes in chains.items():
            runs = refined_runs(to_line_addresses(addresses, line),
                                [p.num_sets for p in passes], writes)
            for depth_pass, (sets, tags, head_writes, collapsed) in zip(
                    passes, runs):
                depth_pass.feed_sorted(sets, tags, collapsed, head_writes)
        for feed in feeds:
            feed(addresses, writes)
    outcomes = []
    for item, runner in zip(bundle, runners):
        if isinstance(item, Family):
            misses = runner.misses(item.assocs)
            writebacks = runner.writebacks(item.assocs)
            by_config = [(misses[c.associativity],
                          writebacks[c.associativity]) for c in item.configs]
        else:
            stats = (runner.finish() if isinstance(runner, ChunkedSimulator)
                     else runner.stats)
            by_config = [(stats.misses, stats.writebacks)] * len(item.configs)
        outcomes.append([
            (misses, writebacks, 0) if config.write_policy == WRITE_BACK
            else (misses, 0, writes_total)
            for config, (misses, writebacks) in zip(item.configs, by_config)])
    return total, outcomes


def _bundle_unit(bundle):
    return _guard(_bundle_unit_impl, bundle)


def _plan_bundles(n: int, jobs: int) -> List[List[int]]:
    """Cut ``n`` work items (ordered by line size) into ``min(jobs, n)``
    contiguous, near-equal bundles of indices, one per worker.

    Every bundle streams the whole trace once.  Keeping each bundle
    contiguous keeps a line size's items together, so its families
    share the per-chunk line addresses and set sorts; over the paper
    grid (10 families per line size) ``jobs=2`` gives one bundle per
    line size.
    """
    count = min(max(jobs, 1), n)
    return [list(range(n * k // count, n * (k + 1) // count))
            for k in range(count)]


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

    Without ``configs`` this runs the paper grid, read-only: the points
    carry no write-back or write-through counts, and match
    :func:`sweep_paper_grid` exactly.  With ``configs`` — any
    policy/write-mode mix, e.g. the ablation grid — the points follow
    ``configs`` and carry write-back/write-through counts.  Either way
    the distinct configurations become work items (:func:`_work_items`):
    a *depth family* serves the LRU write-allocate configurations of one
    (line size, set count) from one stack pass, which in a configs sweep
    also counts write-backs, and every other configuration is
    *simulated* once as its write-back twin.  The items, ordered by line
    size, are cut into ``min(jobs, items)`` contiguous bundles
    (:func:`_plan_bundles`), and each worker streams the trace once for
    its bundle (:func:`_bundle_unit_impl`).

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

    read_only = configs is None
    if read_only:
        configs = _grid_configs(sizes, line_sizes, associativities)
    items = _work_items(configs, writebacks=not read_only)
    bundles = _plan_bundles(len(items), jobs)
    results = _run_units(_bundle_unit,
                         [tuple(items[i] for i in b) for b in bundles],
                         jobs, addresses, writes, chunk_timeout,
                         container=container, memory_only=memory_only)
    by_config = {}
    for bundle, (total, outcomes) in zip(bundles, results):
        for i, outcome in zip(bundle, outcomes):
            for config, counts in zip(items[i].configs, outcome):
                by_config[config] = SweepPoint(config, total, *counts)
    return [by_config[config] for config in configs]


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
