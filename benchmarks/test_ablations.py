"""Ablation studies beyond the paper.

The paper fixes LRU replacement and a unified cache; DESIGN.md commits
us to quantifying how much those choices matter at Palm-scale cache
sizes:

* replacement policy (LRU vs FIFO vs random);
* write policy (write-through vs write-back memory traffic);
* split instruction/data vs unified cache.
"""

import numpy as np

from repro.cache import (
    CacheConfig,
    POLICY_FIFO,
    POLICY_LRU,
    POLICY_RANDOM,
    WRITE_BACK,
    WRITE_THROUGH,
    simulate,
    simulate_auto,
)
from repro.device.memmap import KIND_FETCH

from conftest import FULL_SCALE, once

ABLATION_REFS = 400_000 if not FULL_SCALE else 1_500_000


def test_replacement_policy_ablation(case_study_memory_trace, benchmark):
    """How much does the paper's LRU choice matter?"""
    trace = case_study_memory_trace
    addresses = trace.addresses[:ABLATION_REFS]

    def run():
        # LRU and FIFO go through the vectorized kernels; random
        # replacement consumes a scalar RNG stream and stays on the
        # reference simulator (simulate_auto hides the difference).
        out = {}
        for policy in (POLICY_LRU, POLICY_FIFO, POLICY_RANDOM):
            for size in (1024, 8192, 65536):
                stats = simulate_auto(
                    addresses, CacheConfig(size, 16, 4, policy=policy))
                out[(policy, size)] = stats.miss_rate
        return out

    rates = once(benchmark, run)
    print(f"\n{'policy':>8} | {'1K':>8} | {'8K':>8} | {'64K':>8}")
    for policy in (POLICY_LRU, POLICY_FIFO, POLICY_RANDOM):
        row = " | ".join(f"{100 * rates[(policy, s)]:7.3f}%"
                         for s in (1024, 8192, 65536))
        print(f"{policy:>8} | {row}")

    for size in (1024, 8192, 65536):
        lru = rates[(POLICY_LRU, size)]
        fifo = rates[(POLICY_FIFO, size)]
        rnd = rates[(POLICY_RANDOM, size)]
        # LRU should not be (meaningfully) worse than the alternatives.
        assert lru <= fifo * 1.1 + 1e-9
        assert lru <= rnd * 1.1 + 1e-9


def test_write_policy_ablation(case_study_memory_trace, benchmark):
    """Write-back vs write-through memory write traffic."""
    trace = case_study_memory_trace
    addresses = trace.addresses[:ABLATION_REFS]
    writes = trace.is_write[:ABLATION_REFS]

    def run():
        out = {}
        for policy in (WRITE_THROUGH, WRITE_BACK):
            stats = simulate(
                addresses, CacheConfig(8192, 16, 4, write_policy=policy),
                writes=writes, flush=policy == WRITE_BACK)
            out[policy] = (stats.miss_rate,
                           stats.write_throughs + stats.writebacks)
        return out

    results = once(benchmark, run)
    total_writes = int(np.count_nonzero(writes))
    wt_mr, wt_traffic = results[WRITE_THROUGH]
    wb_mr, wb_traffic = results[WRITE_BACK]
    print(f"\nwrites in trace: {total_writes:,}")
    print(f"write-through: miss rate {100 * wt_mr:.3f}%, "
          f"memory writes {wt_traffic:,}")
    print(f"write-back   : miss rate {100 * wb_mr:.3f}%, "
          f"memory writes {wb_traffic:,}")
    assert wt_traffic == total_writes          # every write goes out
    assert wb_traffic < wt_traffic             # coalescing wins
    assert abs(wb_mr - wt_mr) < 0.02           # read behaviour unchanged


def test_write_buffer_ablation(case_study_memory_trace, benchmark):
    """Write-buffer depth vs store stalls (extension): how deep a FIFO
    a write-through cache needs on the Palm workload."""
    from repro.cache import CacheConfig, simulate_with_write_buffer

    trace = case_study_memory_trace
    n = min(ABLATION_REFS, len(trace))
    addresses = trace.addresses[:n]
    writes = trace.is_write[:n]
    regions = trace.region[:n]
    config = CacheConfig(8192, 16, 2)

    def run():
        return {depth: simulate_with_write_buffer(
                    addresses, writes, regions, config, depth=depth)
                for depth in (1, 2, 4, 8)}

    results = once(benchmark, run)
    print(f"\n{'depth':>6} | {'stall cycles':>13} | {'cycles/access':>14}")
    for depth, result in results.items():
        print(f"{depth:>6} | {result.stall_cycles:>13,} | "
              f"{result.cycles_per_access:>14.4f}")
    stalls = [results[d].stall_cycles for d in (1, 2, 4, 8)]
    assert all(a >= b for a, b in zip(stalls, stalls[1:]))
    # Even a shallow buffer keeps the workload near hit speed.
    assert results[4].cycles_per_access < 2.0


def test_split_vs_unified_ablation(case_study_memory_trace, benchmark):
    """Split I/D caches vs one unified cache of the same total size."""
    trace = case_study_memory_trace
    addresses = trace.addresses[:ABLATION_REFS]
    kinds = trace.kind[:ABLATION_REFS]
    is_fetch = kinds == KIND_FETCH

    def run():
        unified = simulate(addresses, CacheConfig(8192, 16, 2))
        icache = simulate(addresses[is_fetch], CacheConfig(4096, 16, 2))
        dcache = simulate(addresses[~is_fetch], CacheConfig(4096, 16, 2))
        return unified.misses, icache.misses + dcache.misses

    unified_misses, split_misses = once(benchmark, run)
    total = len(addresses)
    print(f"\nunified 8K: {100 * unified_misses / total:.3f}% miss rate")
    print(f"split 4K+4K: {100 * split_misses / total:.3f}% miss rate")
    # Same order of magnitude; report the direction.
    ratio = split_misses / max(1, unified_misses)
    print(f"split/unified miss ratio: {ratio:.2f}")
    assert 0.4 < ratio < 2.5


def test_trace_sampling_ablation(case_study_memory_trace, benchmark):
    """Trace-sampling accuracy (after refs [6] and [24]): how far off a
    sampled miss-ratio estimate is, per cold-start policy."""
    from repro.cache import sampling_error_study

    trace = case_study_memory_trace
    addresses = trace.addresses[:ABLATION_REFS]
    config = CacheConfig(8192, 16, 2)
    study = once(benchmark, lambda: sampling_error_study(
        addresses, config, num_samples=8,
        sample_length=max(5_000, ABLATION_REFS // 20)))

    print(f"\nfull-trace miss rate: {100 * study['full']:.3f}%")
    for policy in ("cold", "discard", "continuous"):
        rate, err = study[policy]
        print(f"  {policy:<10} {100 * rate:7.3f}%  "
              f"(relative error {100 * err:+.1f}%)")
    cold_rate, cold_err = study["cold"]
    continuous_rate, cont_err = study["continuous"]
    # The guaranteed LRU relation: over the same interval references, a
    # cold-started cache never hits where a warm-started one misses, so
    # cold >= continuous.  (Warm-up *discard* changes the denominator —
    # it counts only interval tails — so no ordering vs cold is
    # guaranteed.)  The estimate's sign vs truth also depends on *phase
    # selection*: on bursty Palm traces that bias can dominate the
    # cold-start bias, which is itself a finding worth reporting.
    assert cold_rate >= continuous_rate - 1e-9
    print(f"cold-start inflation over continuous: "
          f"{100 * (cold_rate - continuous_rate):.3f} pp; residual "
          f"phase-selection bias: {100 * cont_err:+.1f}%")


def test_instruction_energy_breakdown(case_study_run, benchmark):
    """Instruction-level energy (after Lee et al. [14]) over the case
    study's opcode histogram."""
    from repro.analysis import instruction_energy

    profiler = case_study_run.profiler
    result = once(benchmark,
                  lambda: instruction_energy(profiler.opcode_histogram()))
    total_instr = result["instructions"]
    print(f"\ncore energy: {result['total']:,.0f} units over "
          f"{total_instr:,} instructions "
          f"({result['total'] / total_instr:.3f} units/instruction)")
    for cls, count in sorted(result["by_class"].items(),
                             key=lambda kv: -kv[1]):
        print(f"  {cls:<8} {count:>12,}  ({100 * count / total_instr:5.1f}%)")
    assert result["instructions"] == profiler.instructions
    assert result["by_class"].get("move", 0) > 0


def test_interpreter_throughput(benchmark):
    """Not a paper figure: the simulator's own speed (guest MIPS)."""
    from repro.m68k import CPU, FlatMemory

    mem = FlatMemory(0x10000)
    mem.write32(0, 0x8000)
    mem.write32(4, 0x1000)
    # move.w #N,d1; loop: addq.l #1,d2; dbra d1,loop; stop
    for i, word in enumerate([0x323C, 50_000, 0x5282, 0x51C9, 0xFFFC,
                              0x4E72, 0x2700]):
        mem.write16(0x1000 + 2 * i, word)
    cpu = CPU(mem)

    def run():
        cpu.reset()
        return cpu.run(1_000_000)

    executed = benchmark(run)
    assert executed == 100_004
