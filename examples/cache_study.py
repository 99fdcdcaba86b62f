#!/usr/bin/env python3
"""The §4 cache case study on one volunteer session.

Collects a Table-1-style session, replays it with profiling to obtain
the memory-reference trace, sweeps the paper's 56 cache configurations,
and prints Figure 5 (miss rates), Figure 6 (average effective memory
access times) and the energy extension.

Run:  python examples/cache_study.py  [--fast]
"""

import os
import sys
import time

from repro import TABLE1_SESSIONS, collect_table1_session, replay_session, standard_apps
from repro.analysis import EnergyModel, format_access_times, format_miss_rates
from repro.cache import RegionMix, subsample_trace, sweep_parallel

EMULATOR_KW = {"ram_size": 8 << 20, "flash_size": 1 << 20}


def main() -> None:
    fast = "--fast" in sys.argv
    spec = TABLE1_SESSIONS[2]  # the shortest of the four sessions

    print(f"collecting {spec.name} "
          f"({spec.hours:.1f} virtual hours, seed {spec.seed}) ...")
    session = collect_table1_session(spec, ram_size=EMULATOR_KW["ram_size"])
    print(f"  {session.events} events, elapsed {session.elapsed_hms()}")

    print("profiled replay (the modified POSE) ...")
    start = time.time()
    _, profiler, _ = replay_session(session.initial_state, session.log,
                                    apps=standard_apps(),
                                    emulator_kwargs=EMULATOR_KW)
    trace = profiler.reference_trace().memory_only()
    mix = RegionMix(profiler.ram_refs, profiler.flash_refs)
    print(f"  {len(trace):,} cacheable references in "
          f"{time.time() - start:.1f}s host time")
    print(f"  flash share {100 * mix.flash_fraction:.1f}% -> no-cache "
          f"Teff = {mix.no_cache_time():.3f} cycles "
          f"(paper: ~67% -> 2.35)")

    addresses = trace.addresses
    if fast:
        addresses = subsample_trace(addresses, 1_000_000)
        print(f"  (--fast: sweeping a {len(addresses):,}-reference prefix)")

    print("sweeping the 56 cache configurations ...")
    start = time.time()
    points = sweep_parallel(addresses, jobs=os.cpu_count() or 1)
    print(f"  done in {time.time() - start:.1f}s\n")

    print(format_miss_rates(points))
    print()
    print(format_access_times(points, mix))
    print()

    # The headline claim: "even relatively small caches can reduce the
    # effective memory access time by 50% or more".
    worst = max(points, key=lambda p: p.miss_rate)
    best = min(points, key=lambda p: p.miss_rate)
    print(f"Teff reduction: worst config {worst.config.label()} "
          f"-> {100 * mix.reduction(worst.miss_rate):.1f}%, "
          f"best config {best.config.label()} "
          f"-> {100 * mix.reduction(best.miss_rate):.1f}%")

    energy = EnergyModel()
    print(f"energy extension: a {best.config.label()} cache cuts memory "
          f"energy by {100 * energy.savings(mix, best.miss_rate):.1f}% "
          f"(battery argument, §4.1)")


if __name__ == "__main__":
    main()
