"""Reference implementations of the cache kernels' scalar tail drains.

These are the original list-walking drains: they keep the packed
``tag << 1 | dirty`` words in the row and scan it way by way.  The
production drains in :mod:`repro.cache.kernels` unpack the row into
parallel tag/dirty lists instead; the differential tests require both
to produce identical counts, rows and FIFO pointers.
"""


def drain_lru(tags, writes, row, assoc, allocate, track_dirty):
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
            hits += 1
            packed = row.pop(found) | dirty
        else:
            if w and not allocate:
                continue
            victim = row.pop()
            writebacks += victim & 1
            packed = (t << 1) | dirty
        row.insert(0, packed)
    return hits, writebacks, row


def drain_fifo(tags, writes, row, ptr, assoc, allocate, track_dirty):
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
            hits += 1
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
