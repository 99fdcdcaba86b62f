"""Reference implementations the cache kernels and sweeps are tested
against.

:func:`drain_lru` and :func:`drain_fifo` are the original
list-walking tail drains: they keep the packed ``tag << 1 | dirty``
words in the row and scan it way by way.  The production drains in
:mod:`repro.cache.kernels` unpack the row into parallel tag/dirty
lists instead; the differential tests require both to produce
identical counts, rows and FIFO pointers.  A head's optional
weight is the number of references it stands for: a hit scores it.
:func:`drain_depths` has no production drain left: a one-set
``ChunkedDepthPass`` resumed from the same row must match it.

:func:`lru_depth_state` gives the final stacks of a whole LRU depth
pass, packed like the kernels' way matrix, so the differential tests
can compare state as well as counts.

:func:`lru_family_stats` is the scalar write-aware family pass, with
per-associativity dirty bitmasks; the vectorized depth pass's
write-back counts must match it.  :func:`lru_dirty_state` gives the
final stacks of such a pass with each line's dirty depth, the state
:class:`~repro.cache.kernels.ChunkedDepthPass` carries between chunks.

:func:`prepare_heads` is the per-configuration head preparation the
wave kernel had before every kernel took its heads from
:func:`~repro.cache.kernels.refined_runs`: precollapse in program
order, set split, one stable set sort, one run collapse.  The chain
must give the same heads, write counts and collapsed count.

:func:`lru_depth_histogram` and :func:`misses_by_associativity` are the
scalar single-pass stack simulation (one Python list per set) the
depth pass replaced; :class:`~repro.cache.kernels.ChunkedDepthPass`
must give the same histogram and misses (:func:`fed_depth_pass` feeds
one a list of chunks).  :func:`sweep_reference` simulates each
configuration on its own scalar :class:`Cache`, and
:func:`sweep_paper_grid` is the paper grid out of those stack passes;
:func:`~repro.cache.sweep_parallel` must return the same points.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache import (
    PAPER_ASSOCIATIVITIES,
    PAPER_LINE_SIZES,
    PAPER_SIZES,
    Cache,
    CacheConfig,
    SweepPoint,
)
from repro.cache.kernels import (
    EMPTY,
    SORT16_MAX_SETS,
    ChunkedDepthPass,
    _heads,
    as_chunk_iter,
    to_line_addresses,
)


def drain_lru(tags, writes, row, assoc, allocate, track_dirty,
              weights=None):
    """Finish one set's run stream on a packed LRU row (MRU first)."""
    hits = 0
    writebacks = 0
    row = list(row)
    for i in range(len(tags)):
        t = int(tags[i])
        w = 0 if writes is None else int(writes[i])
        dirty = w if track_dirty else 0
        found = -1
        for depth in range(assoc):
            if row[depth] >> 1 == t:
                found = depth
                break
        if found >= 0:
            hits += 1 if weights is None else int(weights[i])
            packed = row.pop(found) | dirty
        else:
            if w and not allocate:
                continue
            victim = row.pop()
            writebacks += victim & 1
            packed = (t << 1) | dirty
        row.insert(0, packed)
    return hits, writebacks, row


def drain_fifo(tags, writes, row, ptr, assoc, allocate, track_dirty,
               weights=None):
    """Finish one set's run stream on a packed FIFO ring."""
    hits = 0
    writebacks = 0
    row = list(row)
    for i in range(len(tags)):
        t = int(tags[i])
        w = 0 if writes is None else int(writes[i])
        dirty = w if track_dirty else 0
        found = -1
        for depth in range(assoc):
            if row[depth] >> 1 == t:
                found = depth
                break
        if found >= 0:
            hits += 1 if weights is None else int(weights[i])
            row[found] |= dirty
        elif allocate or not w:
            victim = row[ptr]
            writebacks += victim & 1
            row[ptr] = (t << 1) | dirty
            ptr = (ptr + 1) % assoc
    return hits, writebacks, row, ptr


def drain_depths(tags, row, assoc, hist):
    """Finish one set's run stream recording LRU hit depths."""
    cold = 0
    row = list(row)
    for i in range(len(tags)):
        t = int(tags[i])
        found = -1
        for depth in range(assoc):
            if row[depth] >> 1 == t:
                found = depth
                break
        if found >= 0:
            hist[found] += 1
            packed = row.pop(found)
        else:
            cold += 1
            row.pop()
            packed = t << 1
        row.insert(0, packed)
    return cold, row


def lru_depth_state(line_addrs, num_sets, max_depth):
    """Final per-set LRU stacks of a ``max_depth``-way pass over line
    addresses, one row per set: ``tag << 1``, MRU first, EMPTY-padded."""
    tag_shift = num_sets.bit_length() - 1
    stacks = [[] for _ in range(num_sets)]
    for line in line_addrs:
        line = int(line)
        stack = stacks[line & (num_sets - 1)]
        tag = line >> tag_shift
        if tag in stack:
            stack.remove(tag)
        stack.insert(0, tag)
        del stack[max_depth:]
    return [[t << 1 for t in stack] + [EMPTY] * (max_depth - len(stack))
            for stack in stacks]


@dataclass
class FamilyStats:
    """One associativity's results from :func:`lru_family_stats`.

    ``writebacks`` is the eviction-of-dirty-line count a write-back
    cache of this shape would report; ``write_throughs`` the count a
    write-through cache would (every write, hit or miss).  Hit/miss
    behaviour is identical for the two policies under write-allocate,
    so a single pass yields both interpretations.
    """

    accesses: int
    hits: int
    misses: int
    writebacks: int
    write_throughs: int

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


def lru_family_stats(line_addrs: np.ndarray,
                     writes: Optional[np.ndarray],
                     num_sets: int,
                     associativities: Sequence[int],
                     ) -> Dict[int, "FamilyStats"]:
    """One stack pass over a read/write trace for a whole LRU family.

    Extends the stack property to write counters: each stack entry
    carries a dirty *bitmask* with one bit per requested associativity.
    A write marks the entry dirty in every cache that currently holds
    the line (hit at depth ``d`` ⇒ every ``a > d``; a miss allocates
    dirty everywhere).  When an entry is pushed from depth ``a - 1`` to
    ``a`` it leaves the ``a``-way cache — if its bit for ``a`` is set
    that is exactly one write-back, and the bit is cleared.  Because
    depth only grows between touches, a popped entry's mask is already
    clean.  Requires write-allocate (a non-allocating write miss breaks
    inclusion between associativities).  Matches the reference
    simulator's stats byte for byte; see the differential tests.

    ``line_addrs`` may also be a chunk iterator — a generator (or list)
    of line-address arrays or ``(line_addrs, writes)`` pairs, streamed
    with the per-set stacks carried across chunk boundaries (the
    out-of-core family pass); ``writes`` must then be ``None``.
    """
    assocs = sorted(set(int(a) for a in associativities))
    max_assoc = assocs[-1]
    set_mask = num_sets - 1
    tag_shift = num_sets.bit_length() - 1
    tag_stacks: Dict[int, list] = {s: [] for s in range(num_sets)}
    mask_stacks: Dict[int, list] = {s: [] for s in range(num_sets)}
    hist = np.zeros(max_assoc, dtype=np.int64)
    writebacks = {a: 0 for a in assocs}
    n = 0
    total_writes = 0

    def feed(line_addrs, writes) -> int:
        nonlocal total_writes
        count = len(line_addrs)
        if writes is not None:
            total_writes += int(np.count_nonzero(writes))
        w = False
        for i in range(count):
            line = int(line_addrs[i])
            if writes is not None:
                w = bool(writes[i])
            s = line & set_mask
            tag = line >> tag_shift
            tags = tag_stacks[s]
            masks = mask_stacks[s]
            try:
                d = tags.index(tag)
            except ValueError:
                d = -1
            if d >= 0:
                mask = masks[d]
                del tags[d]
                del masks[d]
                hist[d] += 1
            else:
                mask = 0
            for j, a in enumerate(assocs):
                bit = 1 << j
                if d < 0 or d >= a:
                    # Miss in the a-way cache: the insert pushes the
                    # entry now at depth a-1 across the boundary,
                    # evicting it.
                    if len(tags) >= a and masks[a - 1] & bit:
                        writebacks[a] += 1
                        masks[a - 1] &= ~bit
                    if w:
                        mask |= bit   # dirty allocate (write-allocate)
                elif w:
                    mask |= bit       # write hit
            tags.insert(0, tag)
            masks.insert(0, mask)
            if len(tags) > max_assoc:
                tags.pop()
                masks.pop()
        return count

    chunk_iter = as_chunk_iter(line_addrs)
    if chunk_iter is not None:
        if writes is not None:
            raise ValueError(
                "with a chunk iterator, pass writes inside each chunk "
                "as (line_addrs, writes) pairs")
        for chunk in chunk_iter:
            if isinstance(chunk, tuple):
                n += feed(np.asarray(chunk[0]), chunk[1])
            else:
                n += feed(np.asarray(chunk), None)
    else:
        n = feed(line_addrs, writes)
    out = {}
    for a in assocs:
        hits = int(hist[:a].sum())
        out[a] = FamilyStats(accesses=n, hits=hits, misses=n - hits,
                             writebacks=writebacks[a],
                             write_throughs=total_writes)
    return out


def lru_dirty_state(line_addrs, writes, num_sets, max_depth):
    """Final per-set LRU stacks of a ``max_depth``-way pass over line
    addresses and their write flags: one list per set of ``(tag << 1,
    R)`` pairs, MRU first, ``R`` the line's dirty depth (the largest
    depth of its references since its last write, 0 at a write, and
    ``max_depth`` when it entered the stack clean)."""
    tag_shift = num_sets.bit_length() - 1
    stacks = [[] for _ in range(num_sets)]
    for line, write in zip(line_addrs, writes):
        line = int(line)
        stack = stacks[line & (num_sets - 1)]
        tag = line >> tag_shift
        depth, dirty = max_depth, max_depth
        for d, (t, r) in enumerate(stack):
            if t == tag:
                depth, dirty = d, r
                del stack[d]
                break
        stack.insert(0, (tag, 0 if write else max(dirty, depth)))
        del stack[max_depth:]
    return [[(t << 1, r) for t, r in stack] for stack in stacks]


def set_tag_split(addresses, config):
    """``(sets, tags)`` of byte addresses: ``int32`` tags for ``uint32``
    addresses once two address bits fold into the line offset and set
    index (the tag then fits in 30 bits), else ``int64``."""
    offset_bits = config.line_size.bit_length() - 1
    set_bits = (config.num_sets - 1).bit_length()
    addresses = np.asarray(addresses)
    if addresses.dtype == np.uint32 and offset_bits + set_bits >= 2:
        lines = addresses >> np.uint32(offset_bits)
        sets = (lines & np.uint32(config.num_sets - 1)).astype(np.int32)
        tags = (lines >> np.uint32(set_bits)).astype(np.int32)
    else:
        lines = addresses.astype(np.int64) >> offset_bits
        sets = (lines & (config.num_sets - 1)).astype(np.int32)
        tags = lines >> set_bits
    return sets, tags


def precollapse(addresses, writes, offset_bits, allocate=True):
    """Drop references to the line the previous reference just touched
    (in program order, whatever the set), by the rules of
    :func:`~repro.cache.kernels._heads`.  Returns ``(addresses,
    head_writes, collapsed)``."""
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


def sort_by_set(sets, tags, writes, num_sets):
    """Stable partition of the references by set index, on ``int16``
    keys up to ``SORT16_MAX_SETS`` sets (numpy radix-sorts them)."""
    keys = sets.astype(np.int16) if num_sets <= SORT16_MAX_SETS else sets
    order = np.argsort(keys, kind="stable")
    return (sets[order], tags[order],
            None if writes is None else writes[order])


def collapse_runs(sets, tags, writes, allocate=True):
    """Collapse within-set runs of the same tag of set-sorted
    references, by the rules of :func:`~repro.cache.kernels._heads`.
    Returns ``(sets, tags, head_writes, collapsed)``."""
    if len(sets) == 0:
        return sets, tags, writes, 0
    same = tags[1:] == tags[:-1]
    same &= sets[1:] == sets[:-1]
    idx, writes, collapsed = _heads(same, writes, allocate)
    if idx is None:
        return sets, tags, writes, 0
    return sets[idx], tags[idx], writes, collapsed


def prepare_heads(addresses, writes, config):
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
    addresses, writes, collapsed = precollapse(
        addresses, writes, config.line_size.bit_length() - 1, allocate)
    sets, tags = set_tag_split(addresses, config)
    sets, tags, writes = sort_by_set(sets, tags, writes, config.num_sets)
    sets, tags, writes, more = collapse_runs(sets, tags, writes, allocate)
    weights = None
    if writes is not None and not allocate:
        weights = np.maximum(writes, 1, dtype=np.int32)
        writes = writes != 0
    return sets, tags, writes, weights, collapsed + more


def fed_depth_pass(chunks, num_sets: int, max_depth: int):
    """A :class:`~repro.cache.kernels.ChunkedDepthPass` with
    ``max_depth`` ways and ``num_sets`` sets, fed each line-address
    chunk of ``chunks`` in order."""
    depth_pass = ChunkedDepthPass(num_sets, max_depth)
    for chunk in chunks:
        depth_pass.feed(chunk)
    return depth_pass


def collapse_consecutive(line_addrs: np.ndarray) -> Tuple[np.ndarray, int]:
    """Drop immediately-repeated line references.

    A reference to the line just touched hits in every cache with that
    line size, so only transitions need simulating.  Returns the
    collapsed array and the number of guaranteed hits removed.
    """
    if len(line_addrs) == 0:
        return line_addrs, 0
    keep = np.empty(len(line_addrs), dtype=bool)
    keep[0] = True
    np.not_equal(line_addrs[1:], line_addrs[:-1], out=keep[1:])
    collapsed = line_addrs[keep]
    return collapsed, int(len(line_addrs) - len(collapsed))


def lru_depth_histogram(line_addrs: np.ndarray, num_sets: int,
                        max_depth: int) -> Tuple[np.ndarray, int]:
    """One pass of per-set LRU stacks.

    Returns ``(hist, cold)`` where ``hist[d]`` counts hits at stack
    depth ``d`` (0 = most recently used) for depths below ``max_depth``
    and ``cold`` counts references that missed at every depth
    (capacity beyond ``max_depth`` ways, or compulsory).
    """
    set_mask = num_sets - 1
    tag_shift = num_sets.bit_length() - 1
    stacks: Dict[int, list] = {s: [] for s in range(num_sets)}
    hist = np.zeros(max_depth, dtype=np.int64)
    cold = 0
    for line in line_addrs:
        line = int(line)
        stack = stacks[line & set_mask]
        tag = line >> tag_shift
        try:
            depth = stack.index(tag)
        except ValueError:
            depth = -1
        if 0 <= depth < max_depth:
            hist[depth] += 1
            del stack[depth]
        else:
            cold += 1
            if depth >= 0:
                del stack[depth]
            if len(stack) >= max_depth:
                stack.pop()
        stack.insert(0, tag)
    return hist, cold


def misses_by_associativity(line_addrs: np.ndarray, num_sets: int,
                            associativities: Sequence[int]) -> Dict[int, int]:
    """Miss counts for several associativities in one pass.

    All requested associativities share (line size, set count); the
    total cache size is ``num_sets * line_size * assoc``.
    """
    max_assoc = max(associativities)
    hist, cold = lru_depth_histogram(line_addrs, num_sets, max_assoc)
    total = len(line_addrs)
    out = {}
    for assoc in associativities:
        hits = int(hist[:assoc].sum())
        out[assoc] = total - hits
    assert all(cold <= m for m in out.values())
    return out


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
