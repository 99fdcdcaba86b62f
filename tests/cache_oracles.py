"""Reference implementations of the cache kernels' scalar tail drains.

These are the original list-walking drains: they keep the packed
``tag << 1 | dirty`` words in the row and scan it way by way.  The
production drains in :mod:`repro.cache.kernels` unpack the row into
parallel tag/dirty lists instead; the differential tests require both
to produce identical counts, rows and FIFO pointers.  A head's optional
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
"""

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.cache.kernels import EMPTY, as_chunk_iter


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
