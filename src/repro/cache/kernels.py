"""Vectorized cache-simulation kernels.

The reference :class:`repro.cache.cache.Cache` walks a trace one
address at a time through Python lists; these kernels produce the exact
same :class:`~repro.cache.cache.CacheStats` from whole-trace numpy
passes.  The design is *set-major*:

1.  Byte addresses are reduced to (set, tag) pairs and the trace is
    partitioned by set index with one stable sort.  References within a
    set keep their program order; references in different sets never
    interact, so any interleaving between sets is legal.
2.  Consecutive same-line references within a set are *run-collapsed*:
    after the first reference of a run the line is resident (the head
    allocates on a miss under write-allocate), and no other reference
    in the set can evict it before the run ends, so the tail of the run
    is a guaranteed hit in every configuration.  Only run heads are
    simulated; per-run write flags are aggregated for dirty tracking.
    Without write-allocate a run keeps one head per stretch of equal
    write flags, and the leading write stretch becomes one *weighted*
    head that scores its whole stretch's outcome (:func:`_heads`).
    The LRU depth pass also drops most of each *period-2* run (``A B A
    B ...`` in one set): every head after the first two is an exact
    depth-1 hit that swaps the top two stack entries, so an even number
    of them leaves the stack as it found it (:func:`_collapse_pingpong`).
    Its families of one line size share their set sort: each set order
    refines the previous one by one radix step (:func:`refined_runs`).
3.  The surviving run heads are re-ordered into *waves*: wave ``r``
    holds the ``r``-th run of every set that still has one.  Each wave
    touches each set at most once, so a whole wave is simulated with a
    handful of numpy operations on a dense ``(num_sets, assoc)`` state
    matrix — tag in the high bits, write-back dirty flag in bit 0.
4.  Waves shrink as short sets run dry.  Once a wave is narrower than
    ``TAIL_WIDTH`` the numpy call overhead dominates, so the remaining
    sets are drained by a scalar per-set loop over unpacked Python
    lists (a cache with fewer sets than that is drained entirely).

Steps 1 and 2 are :func:`_prepare_heads`; :class:`ChunkedSimulator`
runs them and the waves chunk by chunk, with the way matrix carried
between chunks, and :func:`simulate` is that simulator over one chunk.

The LRU depth pass (:class:`ChunkedDepthPass`) shares steps 1 and 2 but
has no waves and no drain: each set's carried stack goes in front of
its run heads, and the stack depth of every head is the number of
distinct lines since its line's previous reference, counted for all
heads at once by a capped backward scan (:func:`_lru_depths`).  Given
write flags it also counts the write-backs of every write-allocate
associativity from those depths, with one running maximum per line
(Thompson and Smith's write-back stack algorithm), so a write-back LRU
cache with write-allocate needs no simulator either.

Supported: LRU and FIFO replacement, write-through and write-back,
write-allocate and no-write-allocate.  Random replacement consumes a
Python ``random.Random`` stream per eviction and stays on the scalar
simulator; :func:`simulate_auto` hides the difference.  Every kernel is
differential-tested against the scalar simulator for byte-for-byte
equal statistics.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .cache import (
    Cache,
    CacheConfig,
    CacheStats,
    POLICY_FIFO,
    POLICY_LRU,
    WRITE_BACK,
)

#: Waves narrower than this are drained by the scalar tail loop.  A
#: drain step costs ~0.2 us per run head, so a numpy wave (tens of us of
#: call overhead) pays off only from about this width; measured on
#: study and gremlins traces (see docs/internals.md).
TAIL_WIDTH = 192

#: Largest set count whose indices sort as 16-bit (radix) keys.
SORT16_MAX_SETS = 1 << 15

#: Packed empty way: tag -1, dirty bit clear.
EMPTY = -2


class KernelUnsupported(ValueError):
    """The configuration needs the scalar reference simulator."""


def supports(config: CacheConfig) -> bool:
    """True if :func:`simulate` handles this configuration.

    Random replacement consumes a Python RNG stream per eviction and
    stays scalar — except direct-mapped caches, where the victim is
    forced and every replacement policy coincides.
    """
    return (config.policy in (POLICY_LRU, POLICY_FIFO)
            or config.associativity == 1)


# ----------------------------------------------------------------------
# Trace preparation
# ----------------------------------------------------------------------

def _set_tag_split(addresses: np.ndarray, config: CacheConfig
                   ) -> Tuple[np.ndarray, np.ndarray]:
    offset_bits = config.line_size.bit_length() - 1
    set_bits = (config.num_sets - 1).bit_length()
    addresses = np.asarray(addresses)
    if addresses.dtype == np.uint32 and offset_bits + set_bits >= 2:
        # 32-bit device addresses: stay in narrow integers (the sort and
        # the wave ops are markedly faster than on int64).  The packed
        # way state stores ``tag << 1 | dirty``, so the tag must fit in
        # 30 bits — true whenever at least two address bits fold into
        # the line offset and set index.
        lines = addresses >> np.uint32(offset_bits)
        sets = (lines & np.uint32(config.num_sets - 1)).astype(np.int32)
        tags = (lines >> np.uint32(set_bits)).astype(np.int32)
    else:
        lines = addresses.astype(np.int64) >> offset_bits
        sets = (lines & (config.num_sets - 1)).astype(np.int32)
        tags = lines >> set_bits
    return sets, tags


def _heads(same: np.ndarray, writes: Optional[np.ndarray],
           allocate: bool):
    """The run heads of a reference stream, given ``same[i]``: reference
    ``i + 1`` touches the line reference ``i`` touched, with nothing
    between them in its set.

    Under write-allocate the head of a same-line run leaves the line
    resident for the rest of the run, so the whole tail collapses and
    the head's write flag is the run's OR.  Without write-allocate a run
    splits into *groups* of consecutive references with one write flag,
    and each group keeps its head:

    *  The run's leading group, when it is a write group, shares its
       first write's outcome: a write hit leaves the line MRU and dirty,
       and an unallocated write miss changes nothing, so every later
       write of the group repeats it.
    *  After any other group's head the line is resident (a read
       allocates it, and a later write group follows a read group), so
       the rest of that group are hits that change nothing.

    A write group's head stands for all of the group's references and
    a read group's head for itself, so without write-allocate the head
    carries its group's *write count* (``int32``, 0 for a read head),
    and the dropped references are the dropped reads.  Input write
    counts (from an earlier pass) aggregate the same way.  Returns
    ``(idx, head_writes, collapsed)``: ``idx`` indexes the heads (``None``
    when every reference is one) and ``collapsed`` counts the
    references dropped as guaranteed hits.
    """
    n = len(same) + 1
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.logical_not(same, out=keep[1:])
    count_writes = writes is not None and not allocate
    if count_writes:
        flags = writes.astype(bool, copy=False)
        keep[1:] |= flags[1:] != flags[:-1]
    idx = np.flatnonzero(keep)
    if len(idx) == n:
        return None, writes, 0
    if writes is None:
        return idx, None, n - len(idx)
    head_writes = _run_sums(writes, idx)
    if not count_writes:
        return idx, head_writes != 0, n - len(idx)
    dropped_reads = ((n - np.count_nonzero(flags))
                     - (len(idx) - np.count_nonzero(head_writes)))
    return idx, head_writes, int(dropped_reads)


def _run_sums(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``np.add.reduceat(values, idx)`` in ``int32`` for ascending run
    starts ``idx`` beginning at 0, as differences of one cumulative sum
    (several times faster than ``reduceat`` over short runs)."""
    sums = np.empty(len(values) + 1, dtype=np.int32)
    sums[0] = 0
    np.cumsum(values, dtype=np.int32, out=sums[1:])
    return np.append(sums[idx[1:]], sums[-1]) - sums[idx]


def _precollapse(addresses: np.ndarray, writes: Optional[np.ndarray],
                 offset_bits: int, allocate: bool = True):
    """Drop references to the line the previous reference just touched
    (in program order, whatever the set), by the rules of
    :func:`_heads`.  Returns ``(addresses, head_writes, collapsed)``."""
    addresses = np.asarray(addresses)
    if len(addresses) == 0:
        return addresses, writes, 0
    if offset_bits == 0:
        lines = addresses
    else:
        lines = addresses >> (np.uint32(offset_bits)
                              if addresses.dtype == np.uint32 else offset_bits)
    idx, writes, collapsed = _heads(lines[1:] == lines[:-1], writes,
                                    allocate)
    return (addresses if idx is None else addresses[idx]), writes, collapsed


def _sort_by_set(sets: np.ndarray, tags: np.ndarray,
                 writes: Optional[np.ndarray], num_sets: int):
    """Stable partition of the references by set index.

    numpy's stable argsort radix-sorts integers of 16 bits or fewer, so
    set indices below 2**15 are sorted as ``int16`` keys (several times
    faster than the ``int32`` timsort); the key order is the same.
    """
    keys = sets.astype(np.int16) if num_sets <= SORT16_MAX_SETS else sets
    order = np.argsort(keys, kind="stable")
    return (sets[order], tags[order],
            None if writes is None else writes[order])


def _collapse_runs(sets: np.ndarray, tags: np.ndarray,
                   writes: Optional[np.ndarray], allocate: bool = True):
    """Collapse within-set runs of the same tag of set-sorted
    references, by the rules of :func:`_heads`.  Returns ``(sets, tags,
    head_writes, collapsed)``."""
    if len(sets) == 0:
        return sets, tags, writes, 0
    same = tags[1:] == tags[:-1]
    same &= sets[1:] == sets[:-1]
    idx, writes, collapsed = _heads(same, writes, allocate)
    if idx is None:
        return sets, tags, writes, 0
    return sets[idx], tags[idx], writes, collapsed


def _prepare_heads(addresses: np.ndarray, writes: Optional[np.ndarray],
                  config: CacheConfig):
    """One chunk of a trace as the set-sorted run heads the wave kernel
    simulates: precollapse, set split, stable set sort, run collapse.

    Returns ``(sets, tags, writes, weights, collapsed)``.  ``writes`` is
    each head's write flag (``None`` without a mask).  ``weights`` is
    ``None`` under write-allocate; without it, it holds the references
    each head stands for (``int32``: a write group's size, 1 for a
    read), and a hit scores the head's weight.  ``collapsed`` counts
    the references dropped as guaranteed hits.
    """
    allocate = config.write_allocate
    addresses, writes, collapsed = _precollapse(
        addresses, writes, config.line_size.bit_length() - 1, allocate)
    sets, tags = _set_tag_split(addresses, config)
    sets, tags, writes = _sort_by_set(sets, tags, writes, config.num_sets)
    sets, tags, writes, more = _collapse_runs(sets, tags, writes, allocate)
    weights = None
    if writes is not None and not allocate:
        weights = np.maximum(writes, 1, dtype=np.int32)
        writes = writes != 0
    return sets, tags, writes, weights, collapsed + more


def _refine(lines: np.ndarray, from_bits: int, to_bits: int,
            writes: Optional[np.ndarray] = None):
    """Re-sort line addresses from set order at ``2**from_bits`` sets to
    set order at ``2**to_bits`` sets, then drop adjacent repeats.

    ``lines`` is grouped by its low ``from_bits`` bits, program order
    within a group (at 0 bits, one set, that is program order).  A
    stable sort on the set-index bits that grouping lacks is one LSD
    radix step: it yields set order at ``2**to_bits`` sets with program
    order still kept within each set.  A reference equal to its
    predecessor in that order is a depth-0 hit in its set, and stays
    one in every finer set partition (the references between it and its
    predecessor only shrink).  Write flags, when given, move with their
    lines, and a kept line ORs the flags of the repeats it absorbs
    (:func:`_heads` under write-allocate).  Returns ``(lines, writes,
    dropped)``.
    """
    span = to_bits - from_bits
    if span:
        scalar = lines.dtype.type
        keys = (lines >> scalar(from_bits)) & scalar((1 << span) - 1)
        keys = keys.astype(np.int16 if 1 << span <= SORT16_MAX_SETS
                           else np.int32)
        order = np.argsort(keys, kind="stable")
        lines = lines[order]
        if writes is not None:
            writes = writes[order]
    return _precollapse(lines, writes, 0)


def _split_lines(lines: np.ndarray, num_sets: int
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """``(sets, tags)`` of line addresses at ``num_sets`` sets, with the
    ``int32`` tags of :func:`_set_tag_split` where they fit."""
    set_bits = num_sets.bit_length() - 1
    if lines.dtype == np.uint32 and set_bits >= 2:
        sets = (lines & np.uint32(num_sets - 1)).astype(np.int32)
        tags = (lines >> np.uint32(set_bits)).astype(np.int32)
    else:
        lines = lines.astype(np.int64)
        sets = (lines & (num_sets - 1)).astype(np.int32)
        tags = lines >> set_bits
    return sets, tags


def refined_runs(line_addrs, set_counts: Sequence[int],
                 writes: Optional[np.ndarray] = None):
    """Set-sorted run heads of one chunk of line addresses at each of
    ``set_counts`` (powers of two, ascending).

    Yields ``(sets, tags, writes, collapsed)`` per set count, ``writes``
    each head's write flag (the OR over the references it absorbed;
    ``None`` without a mask) and ``collapsed`` counting the references
    dropped as depth-0 hits on the way (the input for
    :meth:`ChunkedDepthPass.feed_sorted`).  Each set order is refined
    from the previous one (:func:`_refine`), so the families of one
    line size share a single sort instead of one each, and each sort
    sees only the heads the coarser sets left.
    """
    lines, writes, collapsed = _refine(np.asarray(line_addrs), 0, 0, writes)
    bits = 0
    for num_sets in set_counts:
        to_bits = num_sets.bit_length() - 1
        lines, writes, more = _refine(lines, bits, to_bits, writes)
        collapsed += more
        bits = to_bits
        yield _split_lines(lines, num_sets) + (writes, collapsed)


def _collapse_pingpong(sets: np.ndarray, tags: np.ndarray,
                       writes: Optional[np.ndarray] = None):
    """Drop exact depth-1 hits from period-2 runs of set-sorted run
    heads.

    A run head whose tag equals the one two heads back in its set (the
    ``A`` of ``A B A``) finds its line at depth 1, just below ``B``, and
    its LRU update swaps the top two stack entries.  In a maximal
    stretch of ``m`` such heads the first ``2 * (m // 2)`` swap the top
    pair an even number of times, so the stack leaving them is the
    stack they found: they are dropped.  The last head of an odd
    stretch stays, still preceded by the ``A B`` it alternates with.
    With one way the dropped heads are misses that leave the same
    single line resident, so the state is exact there too.

    With write flags (a pass counting write-backs) a dropped head also
    moves its line's dirty depth ``R``: it misses in the one-way cache,
    writing back when ``R`` is 0, and lifts ``R`` to at least 1.  A
    later depth-1 link of the line does the same whether or not
    read-only ones went before it.  So a stretch keeps its last two
    heads, and the third from last when ``m`` is odd, and each of its
    two lines ends the stretch on a kept depth-1 link; a stretch with a
    write among the heads it would drop keeps them all.  Returns
    ``(sets, tags, writes, dropped)``; every dropped head is a depth-1
    hit.
    """
    n = len(tags)
    if n < 3:
        return sets, tags, writes, 0
    drop = np.zeros(n, dtype=bool)
    np.equal(tags[2:], tags[:-2], out=drop[2:])
    drop[2:] &= sets[2:] == sets[:-2]
    heads = np.flatnonzero(drop)
    if len(heads) == 0:
        return sets, tags, writes, 0
    last = np.flatnonzero(heads[1:] != heads[:-1] + 1)
    first = np.append(0, last + 1)
    last = np.append(last, len(heads) - 1)
    odd = (last - first) % 2 == 0
    if writes is None:
        drop[heads[last[odd]]] = False
    else:
        drop[heads[last]] = False
        drop[heads[np.maximum(last - 1, first)]] = False
        drop[heads[np.maximum(last - 2, first)[odd]]] = False
        written = np.logical_or.reduceat(writes[heads] & drop[heads], first)
        drop[heads[np.repeat(written, last - first + 1)]] = False
    keep = ~drop
    return (sets[keep], tags[keep], None if writes is None else writes[keep],
            n - int(np.count_nonzero(keep)))


def _set_groups(sets: np.ndarray):
    """``(group_start, group_len)``: each set's contiguous block of
    set-sorted run heads."""
    m = len(sets)
    new_group = np.empty(m, dtype=bool)
    new_group[0] = True
    np.not_equal(sets[1:], sets[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    return starts, np.diff(np.append(starts, m))


def _schedule_waves(starts: np.ndarray, lens: np.ndarray):
    """Order set-sorted run heads into waves.

    Returns ``(order, wave_bounds)`` where ``order`` re-indexes the run
    arrays so wave ``r`` occupies
    ``order[wave_bounds[r]:wave_bounds[r + 1]]``.
    """
    m = int(lens.sum())
    # Rank of each run within its set.
    rank = np.arange(m, dtype=np.int64) - np.repeat(starts, lens)
    order = np.argsort(rank, kind="stable")
    wave_sizes = np.bincount(rank)
    bounds = np.concatenate(([0], np.cumsum(wave_sizes)))
    return order, bounds


# ----------------------------------------------------------------------
# Scalar tail drains (exact mirror of the wave updates)
# ----------------------------------------------------------------------
#
# Each drain takes one set's remaining run heads (``tags``, ``writes``
# and optional ``weights`` arrays; a hit scores its head's weight) and
# its packed state ``row``, unpacks the row into a list of tags and a
# parallel list of dirty bits, and repacks ``tag << 1 | dirty`` only on
# return.  An EMPTY way unpacks to tag -1, which no real tag matches,
# so ``list.index`` finds hits with one C-level scan.

def _unpack(row):
    packed = row.tolist()
    return [p >> 1 for p in packed], [p & 1 for p in packed]


def _drain_lru(tags, writes, row, allocate, track_dirty, weights=None):
    """Finish one set's run stream on a packed LRU row (MRU first)."""
    hits = 0
    writebacks = 0
    ways, dirty = _unpack(row)
    flags = repeat(0) if writes is None else writes.tolist()
    counts = repeat(1) if weights is None else weights.tolist()
    for t, w, k in zip(tags.tolist(), flags, counts):
        if t in ways:
            hits += k
            d = ways.index(t)
            del ways[d]
            bit = dirty.pop(d)
            if track_dirty and w:
                bit = 1
        elif w and not allocate:
            continue
        else:
            ways.pop()
            writebacks += dirty.pop()
            bit = 1 if track_dirty and w else 0
        ways.insert(0, t)
        dirty.insert(0, bit)
    return hits, writebacks, [(t << 1) | b for t, b in zip(ways, dirty)]


def _drain_fifo(tags, writes, row, ptr, assoc, allocate, track_dirty,
                weights=None):
    """Finish one set's run stream on a packed FIFO ring."""
    hits = 0
    writebacks = 0
    ways, dirty = _unpack(row)
    flags = repeat(0) if writes is None else writes.tolist()
    counts = repeat(1) if weights is None else weights.tolist()
    for t, w, k in zip(tags.tolist(), flags, counts):
        if t in ways:
            hits += k
            if track_dirty and w:
                dirty[ways.index(t)] = 1
        elif allocate or not w:
            writebacks += dirty[ptr]
            ways[ptr] = t
            dirty[ptr] = 1 if track_dirty and w else 0
            ptr = (ptr + 1) % assoc
    return hits, writebacks, [(t << 1) | b for t, b in zip(ways, dirty)], ptr


# ----------------------------------------------------------------------
# Wave kernels
# ----------------------------------------------------------------------

def _run_waves(sets, tags, writes, config: CacheConfig,
               state: np.ndarray, tail_width: int = TAIL_WIDTH,
               fifo_ptr: Optional[np.ndarray] = None,
               weights: Optional[np.ndarray] = None):
    """Simulate set-sorted run heads; returns (hits, writebacks).

    ``state`` is the packed ``(num_sets, assoc)`` way matrix, mutated in
    place.  ``fifo_ptr`` carries the per-set FIFO insertion pointers;
    passing it in (mutated in place) lets the out-of-core path resume
    replacement state across chunk boundaries.  ``weights`` (from :func:`_prepare_heads`) gives the
    references each head stands for: a hit scores its head's weight.
    """
    assoc = state.shape[1]
    fifo = config.policy == POLICY_FIFO
    track_dirty = writes is not None and config.write_policy == WRITE_BACK
    allocate = config.write_allocate
    group_start, group_len = _set_groups(sets)
    # Wave r holds one run of every set with more than r runs, so the
    # first wave is the widest: when even it is narrow, every set goes
    # straight to the scalar drain and no wave schedule is built.
    if len(group_start) >= tail_width:
        order, bounds = _schedule_waves(group_start, group_len)
    else:
        order, bounds = np.empty(0, dtype=np.intp), [0]
    sets_w = sets[order]
    tags_w = tags[order]
    if writes is not None and (track_dirty or not allocate):
        # No-write-allocate changes hit/miss behaviour even when dirty
        # bits are not tracked (write-through).
        writes_w = writes[order].astype(state.dtype)
    else:
        writes_w = None
    weights_w = None if weights is None else weights[order]

    if fifo_ptr is not None:
        ptr = fifo_ptr
    else:
        ptr = np.zeros(state.shape[0], dtype=np.int64) if fifo else None
    cols = np.arange(assoc, dtype=np.int64)
    # Source columns for the LRU rotation: element j takes old j-1 when
    # it sits at or above the touched depth, else stays.  Column 0 is
    # overwritten afterwards, so its source index just needs validity.
    cols_minus = np.maximum(cols - 1, 0)

    hits = 0
    writebacks = 0
    n_waves = len(bounds) - 1
    stop_wave = n_waves
    for r in range(n_waves):
        lo, hi = bounds[r], bounds[r + 1]
        if hi - lo < tail_width:
            stop_wave = r
            break
        s = sets_w[lo:hi]
        t = tags_w[lo:hi]
        rows = state[s]
        match = (rows >> 1) == t[:, None]
        hit = match.any(axis=1)
        if weights_w is None:
            hits += int(np.count_nonzero(hit))
        else:
            hits += int(weights_w[lo:hi][hit].sum())
        pos = match.argmax(axis=1)
        w = writes_w[lo:hi] if writes_w is not None else None
        if fifo:
            if track_dirty:
                hw = hit & (w != 0)
                if hw.any():
                    state[s[hw], pos[hw]] |= 1
            miss = ~hit
            if allocate or w is None:
                ins = miss
            else:
                ins = miss & (w == 0)
            sm = s[ins]
            if len(sm):
                pm = ptr[sm]
                victim = state[sm, pm]
                if track_dirty:
                    writebacks += int(np.count_nonzero(victim & 1))
                packed = t[ins] << 1
                if track_dirty:
                    packed |= w[ins]
                state[sm, pm] = packed
                ptr[sm] = (pm + 1) & (assoc - 1)
        else:
            if not allocate and w is not None:
                skip = ~hit & (w != 0)   # unallocated write: no change
                if skip.any():
                    keep = ~skip
                    s, t, hit, pos = s[keep], t[keep], hit[keep], pos[keep]
                    rows = rows[keep]
                    w = w[keep]
            pos = np.where(hit, pos, assoc - 1)
            packed = t << 1
            if track_dirty:
                front = np.take_along_axis(rows, pos[:, None], axis=1)[:, 0]
                writebacks += int(np.count_nonzero(~hit & (front & 1 == 1)))
                packed |= np.where(hit, front & 1, 0) | w
            shift = cols[None, :] <= pos[:, None]
            src = np.where(shift, cols_minus[None, :], cols[None, :])
            new_rows = np.take_along_axis(rows, src, axis=1)
            new_rows[:, 0] = packed
            state[s] = new_rows

    # Scalar drain of the sets still holding runs at stop_wave (none
    # when every wave ran vectorized).
    remaining = np.flatnonzero(group_len > stop_wave)
    for g in remaining:
        start = group_start[g] + stop_wave
        end = group_start[g] + group_len[g]
        t_rest = tags[start:end]
        w_rest = None if writes_w is None else writes[start:end]
        k_rest = None if weights is None else weights[start:end]
        set_index = int(sets[start])
        row = state[set_index]
        if fifo:
            h, wb, new_row, p = _drain_fifo(t_rest, w_rest, row,
                                            int(ptr[set_index]), assoc,
                                            allocate, track_dirty, k_rest)
            hits += h
            writebacks += wb
            ptr[set_index] = p
        else:
            h, wb, new_row = _drain_lru(t_rest, w_rest, row, allocate,
                                        track_dirty, k_rest)
            hits += h
            writebacks += wb
        state[set_index] = new_row
    return hits, writebacks


# ----------------------------------------------------------------------
# Out-of-core simulation (chunk streams)
# ----------------------------------------------------------------------

def as_chunk_iter(addresses):
    """The chunk iterator behind ``addresses``, or ``None`` when the
    argument is a whole in-RAM trace.

    The out-of-core entry points accept either a generator/iterator or
    a list of chunks, each chunk an address array or an ``(addresses,
    writes)`` pair.  Flat in-RAM traces (ndarray, or a plain sequence
    of scalars) keep the historical whole-trace path.
    """
    if isinstance(addresses, np.ndarray):
        return None
    if hasattr(addresses, "__next__"):
        return addresses
    if isinstance(addresses, (list, tuple)) and len(addresses) \
            and isinstance(addresses[0], (np.ndarray, tuple)):
        return iter(addresses)
    return None


def _split_chunk(chunk):
    if isinstance(chunk, tuple):
        addresses, writes = chunk
        return np.asarray(addresses), writes
    return np.asarray(chunk), None


class ChunkedSimulator:
    """The wave kernel over a stream of trace chunks, with cache state
    carried across feeds (the engine behind :func:`simulate`; an in-RAM
    trace is one chunk).

    Produces ``CacheStats`` **bit-identical** to the scalar
    :class:`Cache` on the concatenated stream, for every chunking.
    Three facts make that exact rather than approximate:

    *  The wave kernel's ``(num_sets, assoc)`` packed way matrix (plus
       the FIFO insertion pointers) *is* the cache's complete
       replacement state, so persisting it between chunks resumes the
       simulation mid-trace.
    *  Run collapsing is a pure optimization: a reference the
       whole-trace pass would have collapsed into its predecessor's
       run is, when the run straddles a chunk boundary, simulated as a
       fresh run head instead — but its line is by construction
       resident at MRU (or anywhere, for FIFO) in its set, so it scores
       the same guaranteed hit, and the hit update (MRU rotation of the
       MRU entry, dirty-bit OR) is idempotent.
    *  The one exception, without write-allocate, is a run's leading
       write group: its line need not be resident.  Split across a
       chunk boundary, that weighted head becomes one head per chunk,
       and the later head repeats the earlier one's outcome: after a
       write hit the line is still MRU and dirty, and after an
       unallocated write miss the set is unchanged.  The two weights
       add up to the one, and score the same hits or misses.

    Stats and final state match exactly; only the operation count
    differs.
    """

    def __init__(self, config: CacheConfig, flush: bool = False,
                 tail_width: int = TAIL_WIDTH):
        if not supports(config):
            raise KernelUnsupported(
                f"no vectorized kernel for policy {config.policy!r}")
        self.config = config
        self.flush = flush
        self.tail_width = tail_width
        self._write_back = config.write_policy == WRITE_BACK
        self._state: Optional[np.ndarray] = None
        self._ptr: Optional[np.ndarray] = None
        self._accesses = 0
        self._hits = 0
        self._writebacks = 0
        self._write_throughs = 0

    def feed(self, addresses, writes=None) -> None:
        """Simulate the next chunk of the trace."""
        addresses = np.asarray(addresses)
        n = len(addresses)
        if n == 0:
            return
        config = self.config
        if writes is not None:
            writes = np.asarray(writes, dtype=bool)
            if len(writes) != n:
                raise ValueError("writes mask length != chunk length")
            if not self._write_back:
                self._write_throughs += int(np.count_nonzero(writes))
        if self._write_back and writes is None:
            # Dirty state from earlier chunks must keep being tracked
            # through write-free chunks, so the write-back path always
            # carries a mask (all-False is semantically writes=None).
            writes = np.zeros(n, dtype=bool)
        self._accesses += n
        sets, tags, writes, weights, collapsed = _prepare_heads(
            addresses, writes, config)
        self._hits += collapsed
        if self._state is None:
            dtype = (tags.dtype if tags.dtype == np.int32 else np.int64)
            self._state = np.full(
                (config.num_sets, config.associativity), EMPTY, dtype=dtype)
            if config.policy == POLICY_FIFO and config.associativity > 1:
                self._ptr = np.zeros(config.num_sets, dtype=np.int64)
        elif tags.dtype != self._state.dtype:
            tags = tags.astype(self._state.dtype)
        track_dirty = writes is not None and self._write_back
        hits, writebacks = _run_waves(
            sets, tags,
            writes if (track_dirty or not config.write_allocate) else None,
            config, self._state, tail_width=self.tail_width,
            fifo_ptr=self._ptr, weights=weights)
        self._hits += hits
        self._writebacks += writebacks

    def finish(self) -> CacheStats:
        """The accumulated stats (with the final flush, if requested).
        The simulator may keep being fed afterwards; ``finish`` only
        snapshots."""
        stats = CacheStats(accesses=self._accesses)
        stats.hits = self._hits
        stats.misses = self._accesses - self._hits
        stats.writebacks = self._writebacks
        stats.write_throughs = self._write_throughs
        if self.flush and self._write_back and self._state is not None:
            stats.writebacks += int((self._state & 1).sum())
        return stats

    def run(self, chunks) -> CacheStats:
        for chunk in chunks:
            addresses, writes = _split_chunk(chunk)
            self.feed(addresses, writes)
        return self.finish()


# ----------------------------------------------------------------------
# LRU depth scan
# ----------------------------------------------------------------------

#: Steps of the depth scan taken as whole-chunk shifted slices between
#: two counts of the heads still open.
SCAN_BLOCK = 8

#: The slice phase of the depth scan ends once fewer than one position
#: in this many holds an open head; gathers finish those.
SCAN_SPARSE = 64


def _prepend_stacks(state: np.ndarray, sets: np.ndarray, tags: np.ndarray,
                    dirty: Optional[np.ndarray] = None,
                    writes: Optional[np.ndarray] = None):
    """Set-sorted run heads with each touched set's carried stack in
    front of its heads, least recently used first.

    Replaying a stack's lines rebuilds it, so the heads see the state
    the earlier chunks left.  A carried line occurs once and before
    every head of its set, so it has no earlier reference and the scan
    never counts it.  A line below the carried stack is deeper than the
    pass has ways and misses either way.  Returns ``(sets, tags,
    touched, writes, start)``, ``touched`` listing the sets present.
    With ``dirty`` (each carried line's dirty depth, laid out like
    ``state``), ``writes`` is the heads' write flags with a clear one
    for each carried line, and ``start`` gives every position the dirty
    depth its line enters the chunk with: a carried line's own, and
    clean (the pass's way count) for any other; both are ``None``
    without ``dirty``.
    """
    starts, lens = _set_groups(sets)
    touched = sets[starts]
    stacks = state[touched][:, ::-1]
    carried = stacks != EMPTY       # EMPTY ways sit at the bottom only
    depth = np.count_nonzero(carried, axis=1)
    n_carried = int(depth.sum())
    prefix = np.arange(n_carried) + np.repeat(starts, depth)
    head = np.ones(len(sets) + n_carried, dtype=bool)
    head[prefix] = False
    start = None
    if dirty is not None:
        start = np.full(len(head), state.shape[1], dtype=dirty.dtype)
        start[prefix] = dirty[touched][:, ::-1][carried]
        if n_carried:
            all_writes = np.zeros(len(head), dtype=bool)
            all_writes[head] = writes
            writes = all_writes
    if n_carried == 0:
        return sets, tags, touched, writes, start
    all_tags = np.empty(len(head), dtype=tags.dtype)
    all_tags[head] = tags
    all_tags[prefix] = stacks[carried] >> 1
    return (np.repeat(touched, lens + depth), all_tags, touched, writes,
            start)


def _line_order(tags: np.ndarray) -> np.ndarray:
    """Stable argsort of ``tags``: an LSD radix sort over 16-bit digits,
    each of which numpy's stable argsort radix-sorts."""
    keys = tags - tags.min()
    order = None
    for shift in range(0, max(int(keys.max()).bit_length(), 1), 16):
        digits = (keys if order is None else keys[order]) >> shift
        step = np.argsort(digits.astype(np.uint16), kind="stable")
        order = step if order is None else order[step]
    return order


def _reuse_gaps(sets: np.ndarray, tags: np.ndarray):
    """``(back, ahead, order, same)`` for a set-sorted line stream:
    ``back[i]`` is ``i`` minus the previous position of its line (0
    when there is none), ``ahead[i]`` the next position minus ``i``
    (``len(tags)`` when there is none).

    Sorted stably by tag, a set-sorted stream lists each line's
    references together and in order: ``order`` is that *line order*,
    and ``same[j]`` says its positions ``j`` and ``j + 1`` reference one
    line.
    """
    n = len(tags)
    order = _line_order(tags)
    sorted_tags = tags[order]
    sorted_sets = sets[order]
    same = sorted_tags[1:] == sorted_tags[:-1]
    same &= sorted_sets[1:] == sorted_sets[:-1]
    prev = order[:-1][same]
    succ = order[1:][same]
    back = np.zeros(n, dtype=np.int32)
    back[succ] = succ - prev
    ahead = np.full(n, n, dtype=np.int32)
    ahead[prev] = succ - prev
    return back, ahead, order, same


def _lru_depths(back: np.ndarray, ahead: np.ndarray,
                max_depth: int) -> np.ndarray:
    """The LRU stack depth of every position with an earlier reference
    to its line (``back > 0``), capped at ``max_depth``.

    The depth of position ``i`` is the number of distinct lines in the
    window between its previous reference ``i - back[i]`` and ``i``: a
    line counts once, at its last reference in the window, the position
    ``j`` with ``j + ahead[j] > i``.  The scan walks every window
    backwards at once; step ``k`` tests ``ahead[i - k] > k``, one
    shifted slice of the whole chunk.  A head resolves as a hit when
    its window is done and as a miss when its count reaches
    ``max_depth``.  No position is passed by more than ``max_depth``
    hits, whose lines all stay in the top ``max_depth`` of the stack
    there, nor by more than ``max_depth`` misses, whose lines are
    distinct and all inside the window, so the total work is at most
    ``2 * max_depth`` steps per position.

    Slices cost a whole chunk per step, so once few heads are left
    open, gathers take over: each round scans the next ``width``
    positions of every open window (the last, shorter one ends it) and
    doubles ``width``.
    """
    n = len(back)
    depth = np.zeros(n, dtype=np.uint8 if max_depth + SCAN_BLOCK < 256
                     else np.int32)
    k = 0
    heads = np.flatnonzero(back > 1)
    while len(heads) * SCAN_SPARSE >= n:
        stop = min(k + SCAN_BLOCK, n - 1)
        for k in range(k + 1, stop + 1):
            seen = ahead[:-k] > k
            seen &= back[k:] > k
            depth[k:] += seen
        k = stop
        np.minimum(depth, max_depth, out=depth)
        open_ = back > k + 1
        open_ &= depth < max_depth
        heads = np.flatnonzero(open_)
    counts = depth[heads].astype(np.intp)
    left = back[heads] - 1 - k      # window positions not scanned yet
    width = max(k, 1)
    while len(heads):
        take = np.minimum(left, width)
        starts = np.cumsum(take) - take
        dist = np.arange(int(take.sum())) - np.repeat(starts - k - 1, take)
        seen = ahead[np.repeat(heads, take) - dist] > dist
        counts += np.add.reduceat(seen, starts, dtype=np.intp)
        depth[heads] = np.minimum(counts, max_depth)
        k += width
        width *= 2
        left -= take
        open_ = left > 0
        open_ &= counts < max_depth
        heads, counts, left = heads[open_], counts[open_], left[open_]
    return depth


class ChunkedDepthPass:
    """One LRU stack pass with ``max_depth`` ways over a stream of
    line-address chunks, recording the stack depth of every hit (the
    engine behind :func:`lru_hit_depths`; an in-RAM array is one chunk).

    Stack state persists across feeds, so any chunking yields the same
    histogram as the whole trace.

    With ``writebacks`` set, the pass also counts the write-backs of
    every write-back, write-allocate LRU cache of up to ``max_depth``
    ways: Thompson and Smith's write-back stack algorithm ("Efficient
    (Stack) Algorithms for Analysis of Write-Back and Sector Memories",
    ACM TOCS 7(1), 1989).  Take one line's references in order, call
    ``d`` a reference's depth (``max_depth`` for a miss at every depth)
    and ``R`` the line's *dirty depth*: the largest depth among its
    references since its last write, 0 at a write, and ``max_depth``
    for a line not written since it entered the stack.  An ``a``-way
    cache holds the line dirty exactly while ``R < a``, and evicts it
    before a reference of depth ``d >= a``, so that reference writes
    back in every ``a``-way cache with ``R < a <= d`` (``R`` as the
    line's previous reference left it).  Each carried line keeps its
    ``R``.  A line that falls out of the carried ``max_depth`` has left
    every cache, and settles ``R < a <= max_depth`` there and then.
    """

    def __init__(self, num_sets: int, max_depth: int,
                 writebacks: bool = False):
        self.num_sets = num_sets
        self.max_depth = max_depth
        self.hist = np.zeros(max_depth, dtype=np.int64)
        self._state: Optional[np.ndarray] = None
        self._total = 0
        # The carried lines' dirty depths, laid out like ``_state``, and
        # the write-backs settled so far as differences over ``a - 1``
        # (the last entry is never read).
        self._dirty: Optional[np.ndarray] = None
        self._settled = (np.zeros(max_depth + 1, dtype=np.int64)
                         if writebacks else None)

    def feed(self, line_addrs, writes=None) -> None:
        """Stream the next chunk of line addresses (program order), with
        their write flags when the pass counts write-backs."""
        for sets, tags, head_writes, collapsed in refined_runs(
                line_addrs, [self.num_sets],
                None if writes is None else np.asarray(writes, dtype=bool)):
            self.feed_sorted(sets, tags, collapsed, head_writes)

    def feed_sorted(self, sets: np.ndarray, tags: np.ndarray,
                    collapsed: int,
                    writes: Optional[np.ndarray] = None) -> None:
        """Stream the next chunk as set-sorted run heads, as
        :func:`refined_runs` yields them; ``collapsed`` counts the
        references already dropped as depth-0 hits, and ``writes`` holds
        the heads' write flags (``None``: no writes).  The sweep refines
        one chunk through every family of a line size and feeds each
        family here.

        The heads, behind the carried stacks (:func:`_prepend_stacks`),
        get their depths from one backward scan (:func:`_lru_depths`).
        Each touched set's new stack is its last ``max_depth`` distinct
        lines, the positions no later reference follows, newest first.
        A dropped repeat is a depth-0 reference, which writes nothing
        back, and its head carries its write; a dropped ping-pong head
        is settled by a later link of its line
        (:func:`_collapse_pingpong`).
        """
        tracking = self._settled is not None
        if not tracking:
            writes = None
        elif writes is None:
            writes = np.zeros(len(sets), dtype=bool)
        self._total += len(sets) + collapsed
        self.hist[0] += collapsed
        sets, tags, writes, pingpong = _collapse_pingpong(sets, tags, writes)
        if self.max_depth > 1:
            self.hist[1] += pingpong
        if len(sets) == 0:
            return
        if self._state is None:
            dtype = (tags.dtype if tags.dtype == np.int32 else np.int64)
            self._state = np.full((self.num_sets, self.max_depth), EMPTY,
                                  dtype=dtype)
            if tracking:
                self._dirty = np.zeros((self.num_sets, self.max_depth),
                                       dtype=np.int16)
        elif tags.dtype != self._state.dtype:
            tags = tags.astype(self._state.dtype)
        sets, tags, touched, writes, start = _prepend_stacks(
            self._state, sets, tags, self._dirty, writes)
        back, ahead, order, same = _reuse_gaps(sets, tags)
        depth = _lru_depths(back, ahead, self.max_depth)
        hit = back > 0
        hit &= depth < self.max_depth
        self.hist += np.bincount(depth[hit], minlength=self.max_depth)
        last = np.flatnonzero(ahead == len(ahead))
        starts, lens = _set_groups(sets[last])
        rank = np.repeat(starts + lens - 1, lens) - np.arange(len(last))
        keep = rank < self.max_depth
        if tracking:
            dirty = self._dirty_depths(depth, writes, start, order,
                                       same)[last]
            self._settled += np.bincount(dirty[~keep],
                                         minlength=self.max_depth + 1)
            dirty = dirty[keep]
        last = last[keep]
        self._state[touched] = EMPTY
        self._state[sets[last], rank[keep]] = tags[last] << 1
        if tracking:
            self._dirty[sets[last], rank[keep]] = dirty

    def _dirty_depths(self, depth, writes, start, order, same):
        """Every position's dirty depth ``R``, settling the write-backs
        of every reference with an earlier one in the chunk.

        In line order ``R`` is a running maximum of the depths, cut at
        each line's first position (which enters with its ``start``) and
        at each write (which enters with 0): one ``maximum.accumulate``
        over values offset by their segment number.
        """
        top = self.max_depth + 1
        depth = depth[order].astype(np.int64)
        first = np.empty(len(order), dtype=bool)
        first[0] = True
        np.logical_not(same, out=first[1:])
        written = writes[order]
        value = np.where(first, start[order], depth)
        value[written] = 0
        offset = np.cumsum(first | written) * top
        value += offset
        np.maximum.accumulate(value, out=value)
        value -= offset
        before, link = value[:-1][same], depth[1:][same]
        live = before < link
        self._settled += np.bincount(before[live], minlength=top)
        self._settled -= np.bincount(link[live], minlength=top)
        dirty = np.empty_like(value)
        dirty[order] = value
        return dirty

    def finish(self) -> Tuple[np.ndarray, int]:
        """``(hist, cold)``: hits per stack depth, and the references
        that missed at every depth."""
        cold = self._total - int(self.hist.sum())
        return self.hist, cold

    def misses(self, associativities: Sequence[int]) -> Dict[int, int]:
        """The miss count of every LRU associativity up to
        ``max_depth`` with this set count (the stack property)."""
        cumulative = np.cumsum(self.hist)
        return {assoc: int(self._total - cumulative[assoc - 1])
                for assoc in associativities}

    def writebacks(self, associativities: Sequence[int]) -> Dict[int, int]:
        """The write-back count of every write-back, write-allocate LRU
        associativity up to ``max_depth`` with this set count (all 0
        without ``writebacks``).  A carried line at depth ``c`` has
        left every cache of ``c`` ways or fewer, and settles ``R < a <=
        c``.  Like :meth:`ChunkedSimulator.finish` this snapshots the
        state without changing it, and flushes nothing."""
        if self._settled is None:
            return {assoc: 0 for assoc in associativities}
        settled = self._settled.copy()
        if self._state is not None:
            held = self._state != EMPTY
            rank = np.nonzero(held)[1]
            dirty = self._dirty[held].astype(np.int64)
            live = dirty < rank
            settled += np.bincount(dirty[live], minlength=self.max_depth + 1)
            settled -= np.bincount(rank[live], minlength=self.max_depth + 1)
        cumulative = np.cumsum(settled)
        return {assoc: int(cumulative[assoc - 1])
                for assoc in associativities}


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------

def simulate(addresses, config: CacheConfig, writes=None,
             flush: bool = False, tail_width: int = TAIL_WIDTH
             ) -> CacheStats:
    """Simulate a whole trace; exact ``CacheStats`` of the scalar
    :class:`Cache` fed the same references (plus ``flush_dirty`` when
    ``flush`` is set).

    ``addresses`` may also be a *chunk iterator* — a generator (or
    list) of address arrays or ``(addresses, writes)`` pairs, e.g.
    ``TraceContainer.cache_chunks()`` — in which case the trace is
    simulated out of core with state carried across chunk boundaries,
    producing bit-identical stats to the in-RAM pass.  ``writes`` must
    then be ``None`` (the mask rides along inside each chunk).

    Raises :class:`KernelUnsupported` for configurations only the
    scalar simulator handles (random replacement).
    """
    chunk_iter = as_chunk_iter(addresses)
    if chunk_iter is None:
        chunk_iter = [(addresses, writes)]
    elif writes is not None:
        raise ValueError(
            "with a chunk iterator, pass writes inside each chunk "
            "as (addresses, writes) pairs")
    return ChunkedSimulator(config, flush=flush,
                            tail_width=tail_width).run(chunk_iter)


def simulate_auto(addresses, config: CacheConfig, writes=None,
                  flush: bool = False, rng_seed: int = 0) -> CacheStats:
    """:func:`simulate`, falling back to the scalar simulator for
    configurations without a kernel (random replacement).  Accepts the
    same chunk iterators as :func:`simulate` — the scalar fallback
    streams them too (``Cache.run`` is incremental)."""
    if supports(config):
        return simulate(addresses, config, writes=writes, flush=flush)
    cache = Cache(config, rng_seed=rng_seed)
    chunk_iter = as_chunk_iter(addresses)
    if chunk_iter is not None:
        if writes is not None:
            raise ValueError(
                "with a chunk iterator, pass writes inside each chunk "
                "as (addresses, writes) pairs")
        for chunk in chunk_iter:
            chunk_addrs, chunk_writes = _split_chunk(chunk)
            cache.run(chunk_addrs, chunk_writes)
    else:
        cache.run(addresses, None if writes is None else np.asarray(writes))
    if flush:
        cache.flush_dirty()
    return cache.stats


def lru_hit_depths(line_addrs: np.ndarray, num_sets: int, max_depth: int
                   ) -> Tuple[np.ndarray, int]:
    """Vectorized :func:`repro.cache.stackdist.lru_depth_histogram`.

    One depth pass with ``max_depth`` ways records the stack depth of
    every hit, yielding the miss count of every associativity up to
    ``max_depth`` at once (the LRU stack property).

    ``line_addrs`` may be a chunk iterator of line-address arrays (the
    out-of-core family pass), streamed with persistent stack state.
    """
    return _depth_pass(line_addrs, num_sets, max_depth).finish()


def _depth_pass(line_addrs, num_sets: int, max_depth: int
                ) -> ChunkedDepthPass:
    """A :class:`ChunkedDepthPass` fed every chunk of ``line_addrs`` (a
    chunk iterator, or an in-RAM array as its one chunk)."""
    chunk_iter = as_chunk_iter(line_addrs)
    depth_pass = ChunkedDepthPass(num_sets, max_depth)
    for chunk in [line_addrs] if chunk_iter is None else chunk_iter:
        depth_pass.feed(chunk)
    return depth_pass


def kernel_misses_by_associativity(line_addrs: np.ndarray, num_sets: int,
                                   associativities: Sequence[int]
                                   ) -> Dict[int, int]:
    """Vectorized counterpart of
    :func:`repro.cache.stackdist.misses_by_associativity`.  Accepts
    the same chunk iterators as :func:`lru_hit_depths`."""
    return _depth_pass(line_addrs, num_sets,
                       max(associativities)).misses(associativities)
