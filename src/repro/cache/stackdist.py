"""Single-pass multi-associativity LRU simulation.

For a fixed (line size, set count), LRU set-associative caches obey the
stack property: a reference that hits in an ``a``-way cache also hits
in every cache of higher associativity with the same sets.  Keeping one
LRU stack per set and recording the stack depth of each hit therefore
yields, in one pass over the trace, the miss count of *every*
associativity — i.e. a whole diagonal of the paper's 56-configuration
grid at once.  Results are validated against the reference simulator in
the test suite.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np


def to_line_addresses(addresses: np.ndarray, line_size: int) -> np.ndarray:
    """Convert byte addresses to line numbers."""
    shift = line_size.bit_length() - 1
    return (np.asarray(addresses, dtype=np.uint32) >> shift).astype(np.uint32)


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
