"""Tests for the cache simulator: hit/miss behaviour, replacement
policies, write policies, the timing equations, and agreement between
the single-pass sweep and the reference simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    Cache,
    CacheConfig,
    POLICY_FIFO,
    POLICY_RANDOM,
    RegionMix,
    WRITE_BACK,
    effective_access_time,
    no_cache_access_time,
    paper_configurations,
    to_line_addresses,
)
from repro.traces import generate_desktop_trace
from tests.cache_oracles import (
    collapse_consecutive,
    misses_by_associativity,
    sweep_paper_grid,
    sweep_reference,
)


def small_cache(**kwargs) -> Cache:
    defaults = dict(size=256, line_size=16, associativity=2)
    defaults.update(kwargs)
    return Cache(CacheConfig(**defaults))


class TestBasics:
    def test_first_access_misses_second_hits(self):
        cache = small_cache()
        assert not cache.access(0x1000)
        assert cache.access(0x1000)

    def test_same_line_hits(self):
        cache = small_cache()
        cache.access(0x1000)
        assert cache.access(0x100F)  # same 16-byte line
        assert not cache.access(0x1010)  # next line

    def test_capacity_eviction(self):
        # Direct-mapped, 4 lines of 16B: addresses 0 and 64 collide.
        cache = small_cache(size=64, line_size=16, associativity=1)
        cache.access(0x00)
        cache.access(0x40)  # evicts 0x00
        assert not cache.access(0x00)

    def test_associativity_avoids_conflict(self):
        cache = small_cache(size=128, line_size=16, associativity=2)
        cache.access(0x00)
        cache.access(0x40)
        assert cache.access(0x00)  # both fit in the 2-way set

    def test_lru_evicts_least_recent(self):
        cache = small_cache(size=32, line_size=16, associativity=2)
        cache.access(0x00)   # A
        cache.access(0x100)  # B (same set)
        cache.access(0x00)   # touch A
        cache.access(0x200)  # C evicts B
        assert cache.access(0x00)
        assert not cache.access(0x100)

    def test_stats_add_up(self):
        cache = small_cache()
        for addr in [0, 0, 16, 0, 32, 16]:
            cache.access(addr)
        stats = cache.stats
        assert stats.accesses == 6
        assert stats.hits + stats.misses == 6
        assert stats.miss_rate == pytest.approx(3 / 6)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size=1000, line_size=16, associativity=1)
        with pytest.raises(ValueError):
            CacheConfig(size=16, line_size=16, associativity=2)
        with pytest.raises(ValueError):
            CacheConfig(size=64, line_size=16, associativity=1,
                        policy="mru")

    def test_label(self):
        config = CacheConfig(size=8192, line_size=32, associativity=4)
        assert config.label() == "8K/32B/4w"


class TestPolicies:
    def test_fifo_differs_from_lru(self):
        # Sequence where LRU and FIFO diverge: A B A C A
        seq = [0x00, 0x100, 0x00, 0x200, 0x00]
        lru = small_cache(size=32, line_size=16, associativity=2)
        fifo = small_cache(size=32, line_size=16, associativity=2,
                           policy=POLICY_FIFO)
        lru_hits = sum(lru.access(a) for a in seq)
        fifo_hits = sum(fifo.access(a) for a in seq)
        # LRU: A- B- A+ C-(evicts B) A+  -> 2 hits.
        # FIFO: A- B- A+ C-(evicts A, oldest) A-  -> 1 hit.
        assert lru_hits == 2
        assert fifo_hits == 1

    def test_random_policy_is_seeded(self):
        trace = np.random.default_rng(7).integers(
            0, 1 << 14, 3000).astype(np.uint32)
        runs = []
        for _ in range(2):
            cache = small_cache(size=512, line_size=16, associativity=4,
                                policy=POLICY_RANDOM)
            cache.run(trace)
            runs.append(cache.stats.misses)
        assert runs[0] == runs[1]


class TestWritePolicies:
    def test_write_through_counts_memory_writes(self):
        cache = small_cache()
        cache.access(0x00, write=True)
        cache.access(0x00, write=True)
        assert cache.stats.write_throughs == 2
        assert cache.stats.writebacks == 0

    def test_write_back_defers_until_eviction(self):
        cache = small_cache(size=32, line_size=16, associativity=2,
                            write_policy=WRITE_BACK)
        cache.access(0x00, write=True)
        cache.access(0x100, write=True)
        assert cache.stats.writebacks == 0
        cache.access(0x200)  # evicts dirty 0x00
        cache.access(0x300)  # evicts dirty 0x100
        assert cache.stats.writebacks == 2

    def test_flush_dirty(self):
        cache = small_cache(write_policy=WRITE_BACK)
        cache.access(0x00, write=True)
        cache.access(0x40, write=True)
        assert cache.flush_dirty() == 2
        assert cache.flush_dirty() == 0

    def test_no_write_allocate_skips_fill(self):
        cache = small_cache(write_allocate=False)
        cache.access(0x00, write=True)  # miss, no allocation
        assert not cache.access(0x00)   # still a miss


class TestEquations:
    def test_no_cache_time_matches_table1_range(self):
        # Two thirds flash -> ~2.33 cycles, as in Table 1 (2.35-2.39).
        assert no_cache_access_time(100, 200) == pytest.approx(2.333, abs=1e-3)
        assert no_cache_access_time(100, 0) == 1.0
        assert no_cache_access_time(0, 100) == 3.0

    def test_effective_access_time_limits(self):
        # MR=0: all hits, one cycle.  MR=1: Thit + blended miss cost.
        assert effective_access_time(0.0, 100, 200) == 1.0
        assert effective_access_time(1.0, 100, 200) == pytest.approx(1 + 2.333,
                                                                     abs=1e-3)

    def test_region_mix_reduction(self):
        mix = RegionMix(ram_refs=1_000_000, flash_refs=2_000_000)
        assert mix.no_cache_time() == pytest.approx(2.333, abs=1e-3)
        # A 5% miss rate cuts Teff by more than half.
        assert mix.reduction(0.05) > 0.5


class TestStackDistance:
    def test_collapse_consecutive(self):
        lines = np.array([1, 1, 2, 2, 2, 3, 1], dtype=np.uint32)
        collapsed, removed = collapse_consecutive(lines)
        assert list(collapsed) == [1, 2, 3, 1]
        assert removed == 3

    def test_line_addresses(self):
        addrs = np.array([0, 15, 16, 31, 32], dtype=np.uint32)
        assert list(to_line_addresses(addrs, 16)) == [0, 0, 1, 1, 2]

    def test_monotone_in_associativity(self):
        trace = generate_desktop_trace(20_000, seed=1)
        lines = to_line_addresses(trace, 16)
        misses = misses_by_associativity(lines, num_sets=16,
                                         associativities=[1, 2, 4, 8])
        assert misses[1] >= misses[2] >= misses[4] >= misses[8]

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2**31), st.sampled_from([16, 32]),
           st.sampled_from([1, 2, 4, 8]), st.sampled_from([256, 1024, 4096]))
    def test_fast_path_matches_reference(self, seed, line, assoc, size):
        """The single-pass stack simulation must agree exactly with the
        reference simulator for every configuration."""
        if size < line * assoc:
            return
        trace = generate_desktop_trace(4_000, seed=seed)
        config = CacheConfig(size=size, line_size=line, associativity=assoc)
        reference = Cache(config)
        reference.run(trace)

        lines = to_line_addresses(trace, line)
        collapsed, _removed = collapse_consecutive(lines)
        fast = misses_by_associativity(collapsed, config.num_sets, [assoc])
        assert fast[assoc] == reference.stats.misses


class TestSweep:
    def test_paper_grid_has_56_configurations(self):
        configs = paper_configurations()
        assert len(configs) == 56
        assert len(set(configs)) == 56

    def test_sweep_covers_grid(self):
        trace = generate_desktop_trace(15_000, seed=3)
        points = sweep_paper_grid(trace)
        assert len(points) == 56
        assert all(0.0 <= p.miss_rate <= 1.0 for p in points)

    def test_sweep_matches_reference_on_sample(self):
        trace = generate_desktop_trace(8_000, seed=4)
        fast = {(p.config.size, p.config.line_size, p.config.associativity):
                p.misses for p in sweep_paper_grid(trace)}
        sample = [CacheConfig(4096, 16, 2), CacheConfig(1024, 32, 8),
                  CacheConfig(65536, 16, 1)]
        for point in sweep_reference(trace, sample):
            key = (point.config.size, point.config.line_size,
                   point.config.associativity)
            assert fast[key] == point.misses, point.config.label()

    def test_bigger_caches_never_miss_more(self):
        """LRU inclusion: within a line size and associativity, a larger
        cache's misses are <= a smaller one's."""
        trace = generate_desktop_trace(15_000, seed=5)
        from repro.cache import grid_by_config
        grid = grid_by_config(sweep_paper_grid(trace))
        for line in (16, 32):
            for assoc in (1, 2, 4, 8):
                rates = [grid[(size, line, assoc)].misses
                         for size in [1024 << i for i in range(7)]]
                assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestDesktopTrace:
    def test_deterministic_per_seed(self):
        a = generate_desktop_trace(5_000, seed=9)
        b = generate_desktop_trace(5_000, seed=9)
        assert np.array_equal(a, b)

    def test_length_exact(self):
        assert len(generate_desktop_trace(12_345, seed=0)) == 12_345

    def test_has_locality(self):
        """The trace must be far more cacheable than random addresses."""
        trace = generate_desktop_trace(30_000, seed=2)
        cache = Cache(CacheConfig(8192, 16, 2))
        cache.run(trace)
        assert cache.stats.miss_rate < 0.2

        rng = np.random.default_rng(0)
        noise = rng.integers(0, 1 << 26, 30_000).astype(np.uint32)
        noisy = Cache(CacheConfig(8192, 16, 2))
        noisy.run(noise)
        assert noisy.stats.miss_rate > 5 * cache.stats.miss_rate
