"""Tests for the analysis layer: report formatters and energy models."""

import numpy as np
import pytest

from repro.analysis import (
    EnergyModel,
    format_access_times,
    format_miss_rates,
    format_opcode_table,
    format_overhead,
    format_overhead_multi,
    format_table1,
    format_validation,
)
from repro.cache import CacheConfig, RegionMix
from repro.cache.sweep import SweepPoint, paper_configurations
from repro.hacks.overhead import OverheadPoint


def fake_points():
    return [SweepPoint(config=c, accesses=1_000_000,
                       misses=int(1_000_000 * 0.1 / (i + 1)))
            for i, c in enumerate(paper_configurations())]


class TestFormatters:
    def test_table1_renders_all_rows(self):
        rows = [
            {"session": "session1", "events": 1243,
             "elapsed_ticks": 8_847_100, "ram_refs": 214_000_000,
             "flash_refs": 443_000_000, "ave_mem_cyc": 2.35},
        ]
        out = format_table1(rows)
        assert "session1" in out
        assert "24:34:31" in out     # the paper's elapsed time
        assert "2.35" in out

    def test_miss_rate_grid_has_all_sizes(self):
        out = format_miss_rates(fake_points())
        for size in ("1K", "2K", "4K", "8K", "16K", "32K", "64K"):
            assert size in out
        assert "Figure 5" in out

    def test_access_time_grid_includes_baseline(self):
        mix = RegionMix(1_000_000, 2_000_000)
        out = format_access_times(fake_points(), mix)
        assert "no cache: 2.333" in out
        assert "flash share 66.7%" in out

    def test_overhead_table(self):
        points = [OverheadPoint(records=0, calls=10, avg_cycles=1_000),
                  OverheadPoint(records=10_000, calls=10, avg_cycles=80_000)]
        out = format_overhead(points)
        assert "10,000" in out
        assert "Figure 3" in out

    def test_overhead_multi_aligns_columns(self):
        points = [OverheadPoint(records=0, calls=5, avg_cycles=1_000)]
        out = format_overhead_multi({"HackA": points, "HackB": points})
        assert "HackA" in out and "HackB" in out

    def test_validation_block(self):
        out = format_validation("log: VALID", "state: VALID")
        assert out.count("VALID") == 2

    def test_opcode_table_disassembles(self):
        out = format_opcode_table([(0x7005, 1000), (0x4E75, 10)], 1010)
        assert "moveq" in out
        assert "rts" in out
        assert "99.01%" in out

    def test_opcode_table_notes_extension_words_by_length(self):
        # moveq takes none; bra.w, link, movem and dbf each take one.
        out = format_opcode_table(
            [(0x7028, 5), (0x6000, 1), (0x4E56, 1), (0x48E7, 1),
             (0x51C8, 1)], 9).splitlines()[2:]
        assert out[0].endswith("moveq #40,d0")
        assert all(line.endswith("(extension words not shown)")
                   for line in out[1:])


class TestEnergyModel:
    def test_no_cache_energy_flash_heavy(self):
        model = EnergyModel()
        mix = RegionMix(ram_refs=1, flash_refs=2)
        assert model.no_cache_energy(mix) == pytest.approx((1 + 6) / 3)

    def test_cached_energy_bounded_by_extremes(self):
        model = EnergyModel()
        mix = RegionMix(ram_refs=1_000, flash_refs=2_000)
        perfect = model.cached_energy(mix, 0.0)
        useless = model.cached_energy(mix, 1.0)
        assert perfect == pytest.approx(model.e_cache_hit)
        assert useless == pytest.approx(model.e_cache_hit
                                        + model.no_cache_energy(mix))

    def test_savings_monotone_in_miss_rate(self):
        model = EnergyModel()
        mix = RegionMix(1_000, 2_000)
        savings = [model.savings(mix, mr) for mr in (0.0, 0.1, 0.5, 1.0)]
        assert savings == sorted(savings, reverse=True)

    def test_empty_mix(self):
        model = EnergyModel()
        mix = RegionMix(0, 0)
        assert model.no_cache_energy(mix) == 0.0
        assert model.savings(mix, 0.5) == 0.0
