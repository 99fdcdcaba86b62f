"""Figure 5: miss rates for the 56 cache configurations.

Paper observations to reproduce:

* "Caches with a line size of 32 bytes performed better than those
  with 16 byte lines except for the largest cache sizes simulated with
  4 and 8 way set associativities."
* "Furthermore, increasing the associativity typically decreases the
  miss rate."
* Miss rate falls monotonically with cache size (LRU inclusion).
"""

from repro.analysis import format_miss_rates
from repro.cache import PAPER_SIZES, grid_by_config, sweep_parallel

from conftest import once


def test_fig5_miss_rates(case_study_trace, benchmark):
    points = once(benchmark, lambda: sweep_parallel(case_study_trace))
    assert len(points) == 56
    print(f"\ntrace: {len(case_study_trace):,} references")
    print(format_miss_rates(points))

    grid = grid_by_config(points)

    # Monotone in size for every (line, associativity).
    for line in (16, 32):
        for assoc in (1, 2, 4, 8):
            series = [grid[(size, line, assoc)].misses
                      for size in PAPER_SIZES]
            assert all(a >= b for a, b in zip(series, series[1:])), (
                f"line={line} assoc={assoc}")

    # 32-byte lines beat 16-byte lines at the small and medium sizes
    # (the paper's headline line-size result).
    small_sizes = PAPER_SIZES[:4]  # 1K-8K
    wins = sum(
        grid[(size, 32, assoc)].miss_rate < grid[(size, 16, assoc)].miss_rate
        for size in small_sizes for assoc in (1, 2, 4, 8))
    total = len(small_sizes) * 4
    print(f"\n32B lines beat 16B lines at {wins}/{total} small/medium points"
          " (paper: all, with exceptions only at the largest sizes)")
    assert wins >= total * 0.8

    # Associativity: 2-way at least matches direct-mapped at the small
    # sizes in most cases ("typically decreases the miss rate").
    assoc_wins = sum(
        grid[(size, line, 2)].miss_rate <= grid[(size, line, 1)].miss_rate * 1.02
        for size in small_sizes for line in (16, 32))
    print(f"2-way <= 1-way at {assoc_wins}/{len(small_sizes) * 2} points")
    assert assoc_wins >= len(small_sizes) * 2 * 0.6

    # Sanity: small caches are useful (well under 50% misses), big
    # caches are very good.
    assert grid[(1024, 16, 1)].miss_rate < 0.5
    assert grid[(65536, 32, 8)].miss_rate < 0.05


def test_results_typical_across_sessions(table1_runs, benchmark):
    """§4.3: 'These results are typical of the other sessions in
    Table 1' — the miss-rate grids of different sessions rank-correlate
    strongly."""
    import numpy as np
    from repro.cache import subsample_trace

    if len(table1_runs) < 2:
        import pytest
        pytest.skip("needs at least two sessions")

    def grid_rates(run):
        trace = run.profiler.reference_trace().memory_only()
        addresses = subsample_trace(trace.addresses, 800_000)
        grid = grid_by_config(sweep_parallel(addresses))
        keys = sorted(grid)
        return keys, np.array([grid[k].miss_rate for k in keys])

    def compute():
        keys_a, rates_a = grid_rates(table1_runs[0])
        _, rates_b = grid_rates(table1_runs[-1])
        order_a = np.argsort(np.argsort(rates_a))
        order_b = np.argsort(np.argsort(rates_b))
        return float(np.corrcoef(order_a, order_b)[0, 1])

    rho = once(benchmark, compute)
    print(f"\nmiss-rate grid rank correlation between "
          f"{table1_runs[0].spec.name} and {table1_runs[-1].spec.name}: "
          f"{rho:.3f}")
    assert rho > 0.8  # "typical of the other sessions"


def test_fast_sweep_agrees_with_reference(case_study_trace, benchmark):
    once(benchmark, lambda: None)
    """Cross-check three grid points against the reference simulator."""
    from repro.cache import Cache, CacheConfig, grid_by_config

    prefix = case_study_trace[:200_000]
    fast = grid_by_config(sweep_parallel(prefix))
    sample = [CacheConfig(2048, 16, 2), CacheConfig(16384, 32, 4),
              CacheConfig(65536, 16, 8)]
    for config in sample:
        stats = Cache(config).run(prefix)
        key = (config.size, config.line_size, config.associativity)
        assert fast[key].misses == stats.misses, config.label()
        assert fast[key].accesses == stats.accesses, config.label()
