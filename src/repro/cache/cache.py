"""The reference cache simulator.

A set-associative cache with configurable size, line size,
associativity, replacement policy (LRU as in the paper, plus FIFO and
random for the ablation study), and write policy.  This is the
straightforward, obviously-correct model: the vectorized kernels in
:mod:`repro.cache.kernels` are differential-tested against it, and it
runs random replacement, trace sampling and the write buffer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

POLICY_LRU = "lru"
POLICY_FIFO = "fifo"
POLICY_RANDOM = "random"

WRITE_THROUGH = "write-through"
WRITE_BACK = "write-back"


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """One cache configuration (the paper varies the first three)."""

    size: int                      # total bytes
    line_size: int                 # bytes per line
    associativity: int             # ways per set
    policy: str = POLICY_LRU
    write_policy: str = WRITE_THROUGH
    write_allocate: bool = True

    def __post_init__(self):
        if not _is_pow2(self.size) or not _is_pow2(self.line_size):
            raise ValueError("size and line_size must be powers of two")
        if not _is_pow2(self.associativity):
            raise ValueError("associativity must be a power of two")
        if self.size < self.line_size * self.associativity:
            raise ValueError("cache smaller than one set")
        if self.policy not in (POLICY_LRU, POLICY_FIFO, POLICY_RANDOM):
            raise ValueError(f"unknown policy {self.policy!r}")
        if self.write_policy not in (WRITE_THROUGH, WRITE_BACK):
            raise ValueError(f"unknown write policy {self.write_policy!r}")

    @property
    def num_lines(self) -> int:
        return self.size // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    def label(self) -> str:
        size = (f"{self.size // 1024}K" if self.size >= 1024
                else f"{self.size}B")
        return f"{size}/{self.line_size}B/{self.associativity}w"


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    write_throughs: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate

    def merge(self, other: "CacheStats") -> None:
        self.accesses += other.accesses
        self.hits += other.hits
        self.misses += other.misses
        self.writebacks += other.writebacks
        self.write_throughs += other.write_throughs


class Cache:
    """A simulated cache; feed it addresses, read out statistics."""

    def __init__(self, config: CacheConfig, rng_seed: int = 0):
        self.config = config
        self.stats = CacheStats()
        # Per set: list of tags, most-recently-used last (for LRU) or
        # insertion order (FIFO).  Dirty tags tracked for write-back.
        self._sets = [[] for _ in range(config.num_sets)]
        self._dirty = [set() for _ in range(config.num_sets)]
        self._rng = random.Random(rng_seed)
        self._offset_bits = config.line_size.bit_length() - 1
        self._set_mask = config.num_sets - 1

    # ------------------------------------------------------------------
    def access(self, addr: int, write: bool = False) -> bool:
        """One reference; returns True on a hit."""
        stats = self.stats
        stats.accesses += 1
        line = addr >> self._offset_bits
        index = line & self._set_mask
        tag = line >> (self._set_mask.bit_length())
        ways = self._sets[index]
        config = self.config

        if tag in ways:
            stats.hits += 1
            if config.policy == POLICY_LRU:
                ways.remove(tag)
                ways.append(tag)
            if write:
                if config.write_policy == WRITE_BACK:
                    self._dirty[index].add(tag)
                else:
                    stats.write_throughs += 1
            return True

        stats.misses += 1
        if write:
            if config.write_policy == WRITE_THROUGH:
                stats.write_throughs += 1
            if not config.write_allocate:
                return False
        self._insert(index, tag, dirty=write and config.write_policy == WRITE_BACK)
        return False

    def _insert(self, index: int, tag: int, dirty: bool) -> None:
        ways = self._sets[index]
        if len(ways) >= self.config.associativity:
            if self.config.policy == POLICY_RANDOM:
                victim = ways.pop(self._rng.randrange(len(ways)))
            else:
                victim = ways.pop(0)  # LRU and FIFO both evict the head
            if victim in self._dirty[index]:
                self._dirty[index].discard(victim)
                self.stats.writebacks += 1
        ways.append(tag)
        if dirty:
            self._dirty[index].add(tag)

    # ------------------------------------------------------------------
    def run(self, addresses, writes: Optional[np.ndarray] = None) -> CacheStats:
        """Feed a whole trace (optimised loop); returns the stats."""
        config = self.config
        if (config.policy == POLICY_LRU and config.write_policy == WRITE_THROUGH
                and writes is None):
            self._run_lru_read(addresses)
            return self.stats
        if writes is None:
            for addr in addresses:
                self.access(int(addr))
        else:
            for addr, is_write in zip(addresses, writes):
                self.access(int(addr), bool(is_write))
        return self.stats

    def _run_lru_read(self, addresses) -> None:
        """Hot path: LRU, reads only (the paper's configuration)."""
        offset_bits = self._offset_bits
        set_mask = self._set_mask
        tag_shift = set_mask.bit_length()
        sets = self._sets
        assoc = self.config.associativity
        hits = 0
        misses = 0
        for addr in addresses:
            line = int(addr) >> offset_bits
            ways = sets[line & set_mask]
            tag = line >> tag_shift
            if tag in ways:
                hits += 1
                if ways[-1] != tag:
                    ways.remove(tag)
                    ways.append(tag)
            else:
                misses += 1
                if len(ways) >= assoc:
                    ways.pop(0)
                ways.append(tag)
        self.stats.accesses += hits + misses
        self.stats.hits += hits
        self.stats.misses += misses

    def flush_dirty(self) -> int:
        """Write back every dirty line; returns the count."""
        count = sum(len(d) for d in self._dirty)
        self.stats.writebacks += count
        for d in self._dirty:
            d.clear()
        return count
