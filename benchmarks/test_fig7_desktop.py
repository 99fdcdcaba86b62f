"""Figure 7: miss rates for a desktop address trace.

The paper compares its Palm-scale results against a desktop trace from
BYU's Trace Distribution Center to show that "the small cache sizes
used in this study exhibit the same miss rate trends found in larger
caches used in desktop systems."  We substitute a synthetic desktop
trace with controlled locality (the repository is gone) and verify the
same trend agreement between the two workloads.
"""

import numpy as np

from repro.analysis import format_miss_rates
from repro.cache import PAPER_SIZES, grid_by_config, sweep_parallel
from repro.traces import generate_desktop_trace

from conftest import FULL_SCALE, once

TRACE_LEN = 2_000_000 if FULL_SCALE else 600_000


def test_fig7_desktop_trace(case_study_trace, benchmark):
    desktop = once(benchmark,
                   lambda: generate_desktop_trace(TRACE_LEN, seed=2005))
    points = sweep_parallel(desktop)
    print(f"\ndesktop trace: {len(desktop):,} references")
    print(format_miss_rates(
        points, title="Figure 7. Miss Rates For A Desktop Address Trace (%)."))

    grid = grid_by_config(points)
    # Trend 1: monotone in size.
    for line in (16, 32):
        for assoc in (1, 2, 4, 8):
            series = [grid[(size, line, assoc)].misses
                      for size in PAPER_SIZES]
            assert all(a >= b for a, b in zip(series, series[1:]))

    # Trend 2: the *same* trends as the Palm trace — rank-correlate the
    # two grids: configurations that miss more on the Palm trace should
    # miss more on the desktop trace too.
    palm_grid = grid_by_config(sweep_parallel(case_study_trace[:TRACE_LEN]))
    keys = sorted(grid)
    palm_rates = np.array([palm_grid[k].miss_rate for k in keys])
    desk_rates = np.array([grid[k].miss_rate for k in keys])

    def ranks(values):
        order = np.argsort(values)
        out = np.empty(len(values))
        out[order] = np.arange(len(values))
        return out

    rho = np.corrcoef(ranks(palm_rates), ranks(desk_rates))[0, 1]
    print(f"\nrank correlation of the 56-config grids "
          f"(Palm vs desktop): {rho:.3f}")
    assert rho > 0.7  # "the same miss rate trends"
