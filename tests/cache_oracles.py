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
"""

from repro.cache.kernels import EMPTY


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
