"""Tests for trace interchange (dinero format) and trace containers."""

import numpy as np
import pytest

from repro.device.memmap import (
    KIND_FETCH,
    KIND_READ,
    KIND_WRITE,
    REGION_FLASH,
    REGION_RAM,
)
from repro.emulator import ReferenceTrace
from repro.traces.dinero import (
    DineroFormatError,
    read_dinero_chunks,
    write_dinero_chunks,
)


def sample_trace() -> ReferenceTrace:
    addresses = np.array([0x1000, 0x1002, 0x2000, 0x1000_0000, 0x1000_0002],
                         dtype=np.uint32)
    kinds = np.array([
        KIND_READ | (REGION_RAM << 4),
        KIND_WRITE | (REGION_RAM << 4),
        KIND_READ | (REGION_RAM << 4),
        KIND_FETCH | (REGION_FLASH << 4),
        KIND_FETCH | (REGION_FLASH << 4),
    ], dtype=np.uint8)
    return ReferenceTrace(addresses=addresses, kinds=kinds)


def to_dinero(trace: ReferenceTrace, path) -> int:
    return write_dinero_chunks(path, trace.chunks())


def from_dinero(path) -> ReferenceTrace:
    """The whole file as one trace, through the streaming reader."""
    chunks = list(read_dinero_chunks(path))
    return ReferenceTrace(
        addresses=np.concatenate([np.empty(0, np.uint32)]
                                 + [a for a, _ in chunks]),
        kinds=np.concatenate([np.empty(0, np.uint8)]
                             + [k for _, k in chunks]))


class TestDinero:
    def test_write_produces_classic_format(self, tmp_path):
        path = tmp_path / "t.din"
        count = to_dinero(sample_trace(), path)
        assert count == 5
        lines = path.read_text().splitlines()
        assert lines[0] == "0 1000"     # data read
        assert lines[1] == "1 1002"     # data write
        assert lines[3] == "2 10000000"  # instruction fetch

    def test_roundtrip_addresses_and_kinds(self, tmp_path):
        path = tmp_path / "t.din"
        original = sample_trace()
        to_dinero(original, path)
        back = from_dinero(path)
        assert np.array_equal(back.addresses, original.addresses)
        assert np.array_equal(back.kind, original.kind)

    def test_regions_synthesised_from_addresses(self, tmp_path):
        path = tmp_path / "t.din"
        to_dinero(sample_trace(), path)
        back = from_dinero(path)
        assert list(back.region) == [REGION_RAM] * 3 + [REGION_FLASH] * 2

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "t.din"
        path.write_text("0 1000\n\n2 2000\n")
        back = from_dinero(path)
        assert len(back) == 2

    def test_roundtrip_large_random_trace(self, tmp_path):
        path = tmp_path / "big.din"
        rng = np.random.default_rng(0)
        n = 100_000  # spans multiple formatting/parsing chunks
        original = ReferenceTrace(
            addresses=rng.integers(0, 1 << 32, n,
                                   dtype=np.uint64).astype(np.uint32),
            kinds=rng.integers(0, 3, n).astype(np.uint8))
        to_dinero(original, path)
        back = from_dinero(path)
        assert np.array_equal(back.addresses, original.addresses)
        assert np.array_equal(back.kind, original.kind)

    @pytest.mark.parametrize("text,message", [
        ("7 1000\n", "unknown dinero label"),
        ("0 wxyz\n", "invalid hex address"),
        ("0 123456789\n", "oversized"),
        ("1\n", "missing"),
        ("0 1000\n2 zz\n", "line 2"),
    ])
    def test_malformed_records_raise(self, tmp_path, text, message):
        path = tmp_path / "bad.din"
        path.write_text(text)
        with pytest.raises(DineroFormatError, match=message):
            from_dinero(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.din"
        path.write_text("")
        assert len(from_dinero(path)) == 0


class TestReferenceTraceContainer:
    def test_memory_only_drops_hw(self):
        from repro.device.memmap import REGION_HW
        addresses = np.array([1, 2, 3], dtype=np.uint32)
        kinds = np.array([
            KIND_READ | (REGION_RAM << 4),
            KIND_READ | (REGION_HW << 4),
            KIND_READ | (REGION_FLASH << 4),
        ], dtype=np.uint8)
        trace = ReferenceTrace(addresses, kinds).memory_only()
        assert list(trace.addresses) == [1, 3]

    def test_is_write_mask(self):
        trace = sample_trace()
        assert list(trace.is_write) == [False, True, False, False, False]

    def test_counts(self):
        counts = sample_trace().counts()
        assert counts["ram"] == 3
        assert counts["flash"] == 2
        assert counts["fetch"] == 2
        assert counts["write"] == 1
