"""PTRC trace containers and the out-of-core cache layer.

Covers the container round trip (both codecs, pathological chunk
sizes), the bit-identity of chunk-streamed cache simulation against
the whole-trace kernels, torn-tail salvage, the profiler's streaming
trace sink, dinero interchange, the fleet's per-session trace archive
with digest verification on resume, and the CLI surface.
"""

import json
import tracemalloc
import zlib
from hashlib import sha256

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig, sweep_parallel
from repro.cache.cache import (
    POLICY_FIFO,
    POLICY_RANDOM,
    WRITE_BACK,
    WRITE_THROUGH,
)
from repro.cache.kernels import (
    kernel_misses_by_associativity,
    lru_hit_depths,
    simulate,
    simulate_auto,
)
from repro.cache.stackdist import to_line_addresses
from repro.device.memmap import (
    KIND_FETCH,
    KIND_READ,
    KIND_WRITE,
    REGION_FLASH,
    REGION_HW,
    REGION_RAM,
)
from repro.emulator import ReferenceTrace
from repro.emulator.profiling import Profiler
from repro.traces.container import (
    _FOOTER,
    _FRAME,
    _HEADER,
    _INDEX_DTYPE,
    FOOTER_MAGIC,
    FOOTER_SIZE,
    FRAME_MAGIC,
    MAGIC,
    VERSION,
    ContainerWriter,
    TraceArchive,
    TraceContainer,
    TraceContainerError,
    available_codecs,
    from_reference_trace,
    open_chunk_source,
    pack_tokens,
    recover_container,
    scan_frames,
    unpack_tokens,
    write_container,
)
from repro.traces.dinero import (
    DineroFormatError,
    container_to_dinero,
    dinero_to_container,
    read_dinero,
    write_dinero,
    write_dinero_chunks,
)
from tests.cache_oracles import lru_family_stats

CODECS = [c for c in available_codecs() if c in ("raw", "zlib")]


def random_tokens(n: int, seed: int = 0, pool: int = 0) -> np.ndarray:
    """``n`` random tokens over 64 MiB, or over ``pool`` addresses
    drawn from it (so a small cache hits)."""
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 1 << 26, size=n, dtype=np.uint64)
    if pool:
        addrs = rng.choice(addrs[:pool], size=n)
    kind = rng.choice([KIND_FETCH, KIND_READ, KIND_WRITE], size=n)
    region = rng.choice([REGION_RAM, REGION_FLASH, REGION_HW],
                        size=n, p=[0.6, 0.35, 0.05])
    return pack_tokens(addrs.astype(np.uint32),
                       (kind | (region << 4)).astype(np.uint8))


def random_accesses(n: int, seed: int = 0, addr_bits: int = 14):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 1 << addr_bits, size=n, dtype=np.uint32)
    writes = rng.random(n) < 0.3
    return addrs, writes


def chunked(arr, size):
    return [arr[i:i + size] for i in range(0, len(arr), size)]


# ----------------------------------------------------------------------
# Container round trip
# ----------------------------------------------------------------------

class TestContainerRoundTrip:
    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("chunk_tokens", [1, 3, 17, 1024])
    def test_round_trip_exact(self, tmp_path, codec, chunk_tokens):
        tokens = random_tokens(401, seed=chunk_tokens)
        path = tmp_path / "t.ptrc"
        manifest = write_container(tokens, path, codec=codec,
                                   chunk_tokens=chunk_tokens)
        assert manifest["tokens"] == 401
        with TraceContainer(path) as container:
            assert np.array_equal(container.tokens_array(), tokens)
            assert container.verify(deep=True)["digest"] == \
                manifest["digest"]

    def test_digest_is_codec_invariant(self, tmp_path):
        tokens = random_tokens(500, seed=7)
        digests = set()
        for codec in CODECS:
            manifest = write_container(tokens, tmp_path / f"{codec}.ptrc",
                                       codec=codec, chunk_tokens=64)
            digests.add(manifest["digest"])
        assert len(digests) == 1

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.ptrc"
        manifest = write_container(np.empty(0, dtype=np.uint64), path)
        assert manifest["tokens"] == 0
        with TraceContainer(path) as container:
            assert len(container.tokens_array()) == 0
            container.verify(deep=True)

    def test_streaming_memory_stays_bounded(self, tmp_path):
        """A trace far larger than one chunk streams through the writer
        and back out of ``chunks()`` with only a few chunks resident:
        the bounded-memory claim out-of-core archives rest on."""
        chunk_tokens = 1 << 16
        tile = random_tokens(chunk_tokens, seed=71)
        repeats = 64                  # 4 Mi tokens, 32 MiB raw
        path = tmp_path / "large.ptrc"
        tracemalloc.start()
        try:
            with ContainerWriter(path, chunk_tokens=chunk_tokens) as writer:
                for _ in range(repeats):
                    writer.append_tokens(tile)
            read_back = 0
            with TraceContainer(path) as container:
                for chunk in container.chunks():
                    read_back += len(chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read_back == repeats * chunk_tokens
        assert peak < 8 * tile.nbytes         # 4 MiB of 32 MiB raw

    def test_incremental_writes_rechunk(self, tmp_path):
        tokens = random_tokens(300, seed=3)
        path = tmp_path / "t.ptrc"
        with ContainerWriter(path, chunk_tokens=64) as writer:
            for block in chunked(tokens, 7):   # misaligned feed sizes
                writer.append_tokens(block)
        with TraceContainer(path) as container:
            assert all(len(c) == 64 for c in list(container.chunks())[:-1])
            assert np.array_equal(container.tokens_array(), tokens)

    def test_reference_trace_round_trip(self, tmp_path):
        tokens = random_tokens(1000, seed=5)
        addrs, kinds = unpack_tokens(tokens)
        trace = ReferenceTrace(addresses=addrs, kinds=kinds)
        path = tmp_path / "t.ptrc"
        from_reference_trace(trace, path, chunk_tokens=128)
        with TraceContainer(path) as container:
            back = container.reference_trace()
            assert np.array_equal(back.addresses, addrs)
            assert np.array_equal(back.kinds, kinds)
            counts = container.counts()
        assert counts == trace.counts()

    def test_raw_views_outlive_close(self, tmp_path):
        tokens = random_tokens(100, seed=11)
        path = tmp_path / "t.ptrc"
        write_container(tokens, path, codec="raw", chunk_tokens=64)
        container = TraceContainer(path)
        view = container.chunk(1)
        container.close()
        assert np.array_equal(view, tokens[64:])

    def test_unknown_codec_is_typed_error(self, tmp_path):
        with pytest.raises(TraceContainerError):
            ContainerWriter(tmp_path / "t.ptrc", codec="lz4")

    def test_zstd_gated_when_absent(self, tmp_path):
        if "zstd" in available_codecs():
            pytest.skip("zstd backend available in this environment")
        with pytest.raises(TraceContainerError):
            ContainerWriter(tmp_path / "t.ptrc", codec="zstd")

    def test_corrupt_payload_is_typed_error(self, tmp_path):
        path = tmp_path / "t.ptrc"
        write_container(random_tokens(200, seed=9), path, chunk_tokens=64)
        data = bytearray(path.read_bytes())
        data[80] ^= 0xFF    # inside the first compressed payload
        path.write_bytes(bytes(data))
        with TraceContainer(path) as container:
            with pytest.raises(TraceContainerError):
                container.verify(deep=True)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 200), chunk_tokens=st.integers(1, 64),
           codec=st.sampled_from(CODECS), seed=st.integers(0, 2**16))
    def test_round_trip_property(self, tmp_path_factory, n, chunk_tokens,
                                 codec, seed):
        tokens = random_tokens(n, seed=seed)
        path = tmp_path_factory.mktemp("prop") / "t.ptrc"
        write_container(tokens, path, codec=codec,
                        chunk_tokens=chunk_tokens)
        with TraceContainer(path) as container:
            assert np.array_equal(container.tokens_array(), tokens)
            container.verify(deep=True)


# ----------------------------------------------------------------------
# Out-of-core kernels: chunk streams are bit-identical to whole traces
# ----------------------------------------------------------------------

CONFIG_GRID = [
    CacheConfig(size=2048, line_size=16, associativity=1),
    CacheConfig(size=2048, line_size=16, associativity=4),
    CacheConfig(size=4096, line_size=32, associativity=2,
                policy=POLICY_FIFO),
    CacheConfig(size=2048, line_size=16, associativity=4,
                write_policy=WRITE_THROUGH),
    CacheConfig(size=2048, line_size=16, associativity=2,
                write_allocate=False),
]


class TestOutOfCoreKernels:
    @pytest.mark.parametrize("config", CONFIG_GRID)
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 1000])
    def test_simulate_chunked_bit_identical(self, config, chunk_size):
        addrs, writes = random_accesses(3000, seed=config.associativity)
        whole = simulate(addrs, config, writes=writes)
        parts = list(zip(chunked(addrs, chunk_size),
                         chunked(writes, chunk_size)))
        assert simulate(iter(parts), config) == whole

    def test_write_free_chunks_keep_dirty_state(self):
        # A dirty line from chunk 0 must still cost a writeback when
        # evicted in a later all-read chunk (and at the final flush).
        config = CacheConfig(size=512, line_size=16, associativity=1,
                             write_policy=WRITE_BACK)
        addrs = np.array([0x0, 0x1000, 0x0, 0x1000] * 8, dtype=np.uint32)
        writes = np.zeros(len(addrs), dtype=bool)
        writes[:2] = True
        whole = simulate(addrs, config, writes=writes)
        parts = [(addrs[:2], writes[:2])] + \
            [(a, None) for a in chunked(addrs[2:], 3)]
        assert simulate(iter(parts), config) == whole

    def test_simulate_auto_random_policy_streams(self):
        addrs, writes = random_accesses(800, seed=4)
        config = CacheConfig(size=1024, line_size=16, associativity=4,
                             policy=POLICY_RANDOM)
        whole = simulate_auto(addrs, config, writes=writes)
        parts = list(zip(chunked(addrs, 97), chunked(writes, 97)))
        assert simulate_auto(iter(parts), config) == whole

    def test_lru_hit_depths_chunked(self):
        addrs, _ = random_accesses(2000, seed=5)
        lines = to_line_addresses(addrs, 16)
        whole_hist, whole_cold = lru_hit_depths(lines, 32, 8)
        hist, cold = lru_hit_depths(iter(chunked(lines, 111)), 32, 8)
        assert np.array_equal(hist, whole_hist) and cold == whole_cold

    def test_family_stats_chunked(self):
        addrs, writes = random_accesses(1500, seed=6)
        lines = to_line_addresses(addrs, 16)
        whole = lru_family_stats(lines, writes, 16, (1, 2, 4))
        parts = list(zip(chunked(lines, 64), chunked(writes, 64)))
        assert lru_family_stats(iter(parts), None, 16, (1, 2, 4)) == whole

    def test_kernel_misses_chunked(self):
        addrs, _ = random_accesses(1500, seed=8)
        lines = to_line_addresses(addrs, 32)
        whole = kernel_misses_by_associativity(lines, 16, (1, 2, 8))
        parts = iter(chunked(lines, 190))
        assert kernel_misses_by_associativity(parts, 16, (1, 2, 8)) == whole

    def test_container_simulate_matches_in_ram(self, tmp_path):
        tokens = random_tokens(4000, seed=11, pool=96)
        path = tmp_path / "t.ptrc"
        write_container(tokens, path, chunk_tokens=256)
        addrs, kinds = unpack_tokens(tokens)
        trace = ReferenceTrace(addresses=addrs, kinds=kinds).memory_only()
        config = CacheConfig(size=2048, line_size=16, associativity=2)
        whole = simulate(trace.addresses, config, writes=trace.is_write)
        with TraceContainer(path) as container:
            assert simulate(container.cache_chunks(), config) == whole

    def test_sweep_container_matches_in_ram(self, tmp_path):
        tokens = random_tokens(3000, seed=13, pool=96)
        path = tmp_path / "t.ptrc"
        write_container(tokens, path, chunk_tokens=500)
        addrs, kinds = unpack_tokens(tokens)
        trace = ReferenceTrace(addresses=addrs, kinds=kinds).memory_only()
        sizes = (1024, 2048)
        in_ram = sweep_parallel(trace.addresses, sizes=sizes,
                                line_sizes=(16, 32),
                                associativities=(1, 2))
        streamed = sweep_parallel(container=path, sizes=sizes,
                                  line_sizes=(16, 32),
                                  associativities=(1, 2))
        assert [(p.config, p.misses) for p in streamed] == \
            [(p.config, p.misses) for p in in_ram]

    def test_sweep_rejects_both_sources(self, tmp_path):
        with pytest.raises(ValueError):
            sweep_parallel(np.zeros(4, dtype=np.uint32),
                           container=tmp_path / "t.ptrc")


# ----------------------------------------------------------------------
# Torn containers and salvage
# ----------------------------------------------------------------------

class TestTornSalvage:
    def build(self, tmp_path, n_chunks=10, chunk_tokens=100):
        tokens = random_tokens(n_chunks * chunk_tokens, seed=n_chunks)
        path = tmp_path / "whole.ptrc"
        write_container(tokens, path, chunk_tokens=chunk_tokens)
        return path, tokens

    def test_torn_tail_refuses_open_then_salvages(self, tmp_path):
        path, tokens = self.build(tmp_path)
        data = path.read_bytes()
        torn = tmp_path / "torn.ptrc"
        # Cut inside the last chunk's payload (well before the footer).
        entries, problems, _ = scan_frames(path)
        assert not problems
        torn.write_bytes(data[:entries[-1]["offset"] + 10])
        with pytest.raises(TraceContainerError):
            TraceContainer(torn)
        out = tmp_path / "recovered.ptrc"
        manifest, recovery = recover_container(torn, out)
        assert recovery["chunks_kept"] == 9
        assert recovery["problems"][0]["code"] == "torn-chunk"
        with TraceContainer(out) as container:
            assert np.array_equal(container.tokens_array(), tokens[:900])
            container.verify(deep=True)

    def test_garbage_is_unrecoverable(self, tmp_path):
        path = tmp_path / "junk.ptrc"
        path.write_bytes(b"not a container" * 10)
        with pytest.raises(TraceContainerError):
            recover_container(path, tmp_path / "out.ptrc")

    def test_resilience_wrapper_reports_findings(self, tmp_path):
        from repro.resilience import salvage_container

        path, _ = self.build(tmp_path, n_chunks=4)
        entries, _, _ = scan_frames(path)
        torn = tmp_path / "torn.ptrc"
        torn.write_bytes(path.read_bytes()[:entries[1]["offset"] + 10])
        result = salvage_container(torn, tmp_path / "rec.ptrc")
        assert result.chunks_kept >= 1
        assert not result.clean
        assert result.report.ok          # torn tail is warning severity
        codes = [f.code for f in result.report.findings]
        assert "torn-chunk" in codes or "torn-frame-header" in codes

    def test_resilience_wrapper_strict_and_fatal(self, tmp_path):
        from repro.resilience import salvage_container

        path = tmp_path / "junk.ptrc"
        path.write_bytes(b"\xff" * 64)
        result = salvage_container(path, tmp_path / "rec.ptrc")
        assert result.tokens_kept == 0 and not result.report.ok
        with pytest.raises(TraceContainerError):
            salvage_container(path, tmp_path / "rec2.ptrc", strict=True)


# ----------------------------------------------------------------------
# Format versions, hostile frames and indexes
# ----------------------------------------------------------------------

def assemble_ptrc(path, frames, *, version=VERSION, codec="zlib",
                  chunk_tokens=64):
    """Lay out a PTRC file by hand from ``(payload, tokens)`` pairs:
    header, frames, index, manifest and footer, with every CRC and the
    digest taken over the tokens.  Builds what the writer never would
    (older versions, payloads that contradict their frame)."""
    out = bytearray(_HEADER.pack(MAGIC, version,
                                 codec.encode("ascii").ljust(8, b"\0"),
                                 chunk_tokens, 0))
    index = np.zeros(len(frames), dtype=_INDEX_DTYPE)
    digest = sha256()
    for i, (payload, tokens) in enumerate(frames):
        raw = tokens.astype("<u8").tobytes()
        digest.update(raw)
        first, last = (int(tokens[0] & 0xFFFFFFFF),
                       int(tokens[-1] & 0xFFFFFFFF))
        out += _FRAME.pack(FRAME_MAGIC, len(payload), len(tokens),
                           zlib.crc32(raw), first, last)
        index[i] = (len(out), len(payload), len(tokens), zlib.crc32(raw),
                    first, last)
        out += payload
    total = int(index["tokens"].sum())
    manifest = json.dumps({
        "format": "PTRC", "version": version, "codec": codec,
        "chunk_tokens": chunk_tokens, "tokens": total,
        "chunks": len(frames),
        "payload_bytes": int(index["nbytes"].sum()),
        "digest": digest.hexdigest(), "session": {}}).encode()
    index_offset = len(out)
    out += index.tobytes()
    manifest_offset = len(out)
    out += manifest
    out += _FOOTER.pack(index_offset, index.nbytes, manifest_offset,
                        len(manifest), total,
                        zlib.crc32(index.tobytes()), FOOTER_MAGIC)
    path.write_bytes(bytes(out))
    return path


def v1_container(path, tokens, chunk_tokens=64):
    """A version-1 file: zlib over the plain token bytes."""
    frames = [(zlib.compress(block.astype("<u8").tobytes()), block)
              for block in chunked(tokens, chunk_tokens)]
    return assemble_ptrc(path, frames, version=1,
                         chunk_tokens=chunk_tokens)


def patch_index(path, i, **fields):
    """Rewrite index entry ``i`` of a closed container, recomputing
    the index CRC so that only the entry itself is wrong."""
    data = bytearray(path.read_bytes())
    footer = list(_FOOTER.unpack(data[-FOOTER_SIZE:]))
    index_offset, index_nbytes = footer[0], footer[1]
    index = np.frombuffer(bytes(data[index_offset:index_offset
                                     + index_nbytes]),
                          dtype=_INDEX_DTYPE).copy()
    for name, value in fields.items():
        index[name][i] = value
    data[index_offset:index_offset + index_nbytes] = index.tobytes()
    footer[5] = zlib.crc32(index.tobytes())
    data[-FOOTER_SIZE:] = _FOOTER.pack(*footer)
    path.write_bytes(bytes(data))


class TestFormatVersions:
    def test_v2_zlib_payload_is_byte_planes(self, tmp_path):
        tokens = random_tokens(100, seed=61)
        path = tmp_path / "t.ptrc"
        write_container(tokens, path, chunk_tokens=100)
        (entry,), problems, info = scan_frames(path)
        assert not problems and info["version"] == 2
        payload = path.read_bytes()[entry["offset"]:
                                    entry["offset"] + entry["nbytes"]]
        planes = tokens.astype("<u8").view(np.uint8).reshape(-1, 8).T
        assert zlib.decompress(payload) == planes.tobytes()

    def test_v1_reads_and_matches_v2(self, tmp_path):
        tokens = random_tokens(300, seed=62)
        v1 = v1_container(tmp_path / "v1.ptrc", tokens)
        manifest = write_container(tokens, tmp_path / "v2.ptrc",
                                   chunk_tokens=64)
        with TraceContainer(v1) as container:
            assert container.version == 1
            assert np.array_equal(container.tokens_array(), tokens)
            assert container.verify(deep=True)["digest"] == \
                manifest["digest"]

    def test_torn_v1_recovers_into_v2(self, tmp_path):
        tokens = random_tokens(400, seed=63)
        v1 = v1_container(tmp_path / "v1.ptrc", tokens, chunk_tokens=100)
        entries, problems, info = scan_frames(v1)
        assert not problems and info["version"] == 1
        torn = tmp_path / "torn.ptrc"
        torn.write_bytes(v1.read_bytes()[:entries[-1]["offset"] + 10])
        out = tmp_path / "rec.ptrc"
        _, recovery = recover_container(torn, out)
        assert recovery["chunks_kept"] == 3
        with TraceContainer(out) as container:
            assert container.version == VERSION
            assert np.array_equal(container.tokens_array(), tokens[:300])
            container.verify(deep=True)

    def test_convert_upgrades_v1(self, tmp_path, capsys):
        from repro.cli import main

        tokens = random_tokens(500, seed=64)
        v1 = v1_container(tmp_path / "v1.ptrc", tokens)
        out = tmp_path / "v2.ptrc"
        assert main(["trace", "convert", str(v1), str(out)]) == 0
        capsys.readouterr()
        assert main(["trace", "info", str(out)]) == 0
        assert "PTRC v2" in capsys.readouterr().out
        with TraceContainer(v1) as a, TraceContainer(out) as b:
            assert a.digest == b.digest
            b.verify(deep=True)

    def test_future_version_is_typed_error(self, tmp_path):
        tokens = random_tokens(10, seed=65)
        path = assemble_ptrc(tmp_path / "v3.ptrc",
                             [(zlib.compress(tokens.tobytes()), tokens)],
                             version=3)
        with pytest.raises(TraceContainerError, match="version 3"):
            TraceContainer(path)
        entries, problems, _ = scan_frames(path)
        assert not entries and problems[0][0] == "bad-version"


class TestHostileFrames:
    def test_oversized_inflation_is_bounded_and_typed(self, tmp_path):
        # 64 MiB of zeros behind a frame that claims 10 tokens.
        deflate = zlib.compressobj(9)
        block = bytes(1 << 20)
        bomb = b"".join(deflate.compress(block) for _ in range(64))
        bomb += deflate.flush()
        tokens = np.zeros(10, dtype=np.uint64)
        path = assemble_ptrc(tmp_path / "bomb.ptrc", [(bomb, tokens)])
        with TraceContainer(path) as container:
            tracemalloc.start()
            try:
                with pytest.raises(TraceContainerError,
                                   match="does not end"):
                    container.chunk(0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20
            with pytest.raises(TraceContainerError):
                container.verify(deep=True)
        entries, problems, _ = scan_frames(path)
        assert not entries
        assert problems[0][0] == "undecodable-chunk"

    def test_short_inflation_is_typed(self, tmp_path):
        tokens = random_tokens(10, seed=66)
        path = assemble_ptrc(tmp_path / "short.ptrc",
                             [(zlib.compress(bytes(40)), tokens)])
        with TraceContainer(path) as container:
            with pytest.raises(TraceContainerError, match="expected 80"):
                container.chunk(0)

    @pytest.mark.parametrize("fields", [
        {"offset": 1 << 20},            # past the end of the file
        {"nbytes": 1 << 20},            # runs past the index block
        {"offset": (1 << 64) - 8},      # offset + nbytes wraps
        {"nbytes": 8 * 64 - 8},         # raw: fewer bytes than tokens
    ])
    def test_index_outside_frames_is_typed_at_open(self, tmp_path, fields):
        path = tmp_path / "raw.ptrc"
        write_container(random_tokens(256, seed=67), path, codec="raw",
                        chunk_tokens=64)
        patch_index(path, 1, **fields)
        with pytest.raises(TraceContainerError, match="index entry 1"):
            TraceContainer(path)


# ----------------------------------------------------------------------
# Multi-session archives
# ----------------------------------------------------------------------

class TestArchive:
    def test_members_chain_and_verify(self, tmp_path):
        root = tmp_path / "arch"
        archive = TraceArchive(root, create=True, meta={"campaign": "t"})
        all_tokens = []
        for i in range(3):
            tokens = random_tokens(250 + i, seed=20 + i)
            member_path = root / f"s{i}.ptrc"
            write_container(tokens, member_path, chunk_tokens=64)
            archive.add(member_path, f"s{i}")
            all_tokens.append(tokens)
        expected = np.concatenate(all_tokens)
        reopened = TraceArchive(root)
        assert reopened.total_tokens == len(expected)
        assert np.array_equal(np.concatenate(list(reopened.chunks())),
                              expected)
        reopened.verify(deep=True)
        # The archive streams through the same kernel path as one trace.
        addrs, kinds = unpack_tokens(expected)
        trace = ReferenceTrace(addresses=addrs, kinds=kinds).memory_only()
        config = CacheConfig(size=1024, line_size=16, associativity=2)
        whole = simulate(trace.addresses, config, writes=trace.is_write)
        assert simulate(reopened.cache_chunks(), config) == whole

    def test_member_digest_mismatch_detected(self, tmp_path):
        root = tmp_path / "arch"
        archive = TraceArchive(root, create=True)
        member = root / "s0.ptrc"
        write_container(random_tokens(100, seed=1), member)
        archive.add(member, "s0")
        write_container(random_tokens(100, seed=2), member)  # swapped
        with pytest.raises(TraceContainerError):
            TraceArchive(root).verify()

    @pytest.mark.parametrize("blob", [
        "{",                                      # torn JSON
        "[1]",                                    # not an object
        '{"format": "PTRC-archive"}',             # no member list
        '{"format": "PTRC-archive", "members": [1]}',
        '{"format": "PTRC-archive", "members": [{"id": "s0"}]}',
        '{"format": "PTRC-archive", "members": [], "meta": []}',
        b"\xff\xfe",                              # not UTF-8
    ])
    def test_malformed_manifest_is_typed_error(self, tmp_path, blob):
        root = tmp_path / "arch"
        root.mkdir()
        manifest = root / "archive.json"
        if isinstance(blob, bytes):
            manifest.write_bytes(blob)
        else:
            manifest.write_text(blob)
        with pytest.raises(TraceContainerError, match="archive.json"):
            TraceArchive(root)

    def test_open_chunk_source_dispatch(self, tmp_path):
        root = tmp_path / "arch"
        TraceArchive(root, create=True)
        assert isinstance(open_chunk_source(root), TraceArchive)
        path = tmp_path / "t.ptrc"
        write_container(random_tokens(10), path)
        src = open_chunk_source(path)
        assert isinstance(src, TraceContainer)
        src.close()


# ----------------------------------------------------------------------
# Profiler streaming (trace sink, spill, counts without materializing)
# ----------------------------------------------------------------------

class TestProfilerStreaming:
    def fill(self, profiler, tokens):
        for block in chunked(tokens, 333):
            profiler.bulk_references(block)

    def test_counts_dict_matches_reference_trace(self):
        profiler = Profiler()
        self.fill(profiler, random_tokens(5000, seed=31))
        trace = profiler.reference_trace()
        assert profiler.counts_dict() == trace.counts()
        assert profiler.counts_dict(memory_only=True) == \
            trace.memory_only().counts()

    def test_chunks_stream_equals_packed(self):
        profiler = Profiler()
        tokens = random_tokens(3000, seed=32)
        self.fill(profiler, tokens)
        assert np.array_equal(np.concatenate(list(profiler.chunks())),
                              tokens)

    def test_sink_receives_whole_trace(self, tmp_path):
        tokens = random_tokens(2000, seed=33)
        path = tmp_path / "sink.ptrc"
        profiler = Profiler()
        self.fill(profiler, tokens[:500])          # buffered pre-attach
        with ContainerWriter(path, chunk_tokens=256) as writer:
            profiler.attach_trace_sink(writer)
            self.fill(profiler, tokens[500:])
            profiler.flush_trace_sink()
        with TraceContainer(path) as container:
            assert np.array_equal(container.tokens_array(), tokens)
        # No spill: the in-RAM accessors still work.
        assert np.array_equal(profiler.reference_trace().addresses,
                              unpack_tokens(tokens)[0])

    def test_spill_bounds_memory_and_guards_accessors(self, tmp_path):
        tokens = random_tokens(2000, seed=34)
        path = tmp_path / "spill.ptrc"
        profiler = Profiler()
        with ContainerWriter(path, chunk_tokens=256) as writer:
            profiler.attach_trace_sink(writer, spill=True)
            self.fill(profiler, tokens)
            profiler.flush_trace_sink()
        assert profiler._chunks == []              # nothing retained
        with pytest.raises(RuntimeError):
            profiler.reference_trace()
        # Counts survive the spill (they come from the flat counters).
        with TraceContainer(path) as container:
            assert np.array_equal(container.tokens_array(), tokens)
            assert profiler.counts_dict() == \
                container.reference_trace().counts()

    def test_spill_guards_a_trace_shorter_than_one_chunk(self, tmp_path):
        # Nothing has been sealed (or spilled) yet, but the in-RAM
        # readers must still refuse: they would silently see only the
        # unsealed tail of a trace whose head lives in the container.
        path = tmp_path / "short.ptrc"
        profiler = Profiler()
        with ContainerWriter(path) as writer:
            profiler.attach_trace_sink(writer, spill=True)
            for i in range(100):
                profiler.reference(0x1000 + 2 * i, 1, 0)
            with pytest.raises(RuntimeError, match="spilled"):
                list(profiler.chunks())
            with pytest.raises(RuntimeError, match="spilled"):
                profiler.reference_trace()
            assert profiler.trace_tokens == 100
            profiler.flush_trace_sink()
        with TraceContainer(path) as container:
            assert container.tokens == 100


# ----------------------------------------------------------------------
# Dinero interchange (vectorized writer, streaming reader/converters)
# ----------------------------------------------------------------------

class TestDineroStreaming:
    def test_writer_byte_identical_to_per_line_format(self, tmp_path):
        rng = np.random.default_rng(41)
        addrs = rng.integers(0, 1 << 32, size=5000,
                             dtype=np.uint64).astype(np.uint32)
        addrs[:3] = [0, 1, 0xFFFFFFFF]
        kinds = rng.choice([KIND_FETCH, KIND_READ, KIND_WRITE],
                           size=5000).astype(np.uint8)
        trace = ReferenceTrace(addresses=addrs, kinds=kinds)
        path = tmp_path / "t.din"
        write_dinero(trace, path)
        label = {KIND_READ: 0, KIND_WRITE: 1, KIND_FETCH: 2}
        expected = "".join(f"{label[int(k)]} {int(a):x}\n"
                           for a, k in zip(addrs, kinds))
        assert path.read_bytes() == expected.encode()

    def test_unmappable_kind_raises(self, tmp_path):
        with pytest.raises(DineroFormatError):
            write_dinero_chunks(tmp_path / "x.din",
                               [(np.array([1], dtype=np.uint32),
                                 np.array([0x0F], dtype=np.uint8))])

    def test_dinero_container_round_trip_streams(self, tmp_path):
        rng = np.random.default_rng(42)
        addrs = rng.integers(0, 1 << 27, size=3000,
                             dtype=np.uint64).astype(np.uint32)
        kinds = rng.choice([KIND_FETCH, KIND_READ, KIND_WRITE],
                           size=3000).astype(np.uint8)
        din = tmp_path / "t.din"
        write_dinero(ReferenceTrace(addresses=addrs, kinds=kinds), din)
        ptrc = tmp_path / "t.ptrc"
        manifest = dinero_to_container(din, ptrc, chunk_tokens=512)
        assert manifest["tokens"] == 3000
        din2 = tmp_path / "t2.din"
        assert container_to_dinero(ptrc, din2) == 3000
        assert din2.read_bytes() == din.read_bytes()
        # The container carries the synthesized regions the reader adds.
        back = read_dinero(din)
        with TraceContainer(ptrc) as container:
            trace = container.reference_trace()
            assert np.array_equal(trace.addresses, back.addresses)
            assert np.array_equal(trace.kinds, back.kinds)


# ----------------------------------------------------------------------
# Replay + fleet integration
# ----------------------------------------------------------------------

def collect_tiny_session():
    from repro.apps import standard_apps
    from repro.workloads.gremlins import (
        GremlinConfig,
        Gremlins,
        derive_entropy_seed,
    )
    from repro.workloads.sessions import collect_session

    apps = [a for a in standard_apps() if a.name in ("launcher", "memopad")]
    script = Gremlins(5, GremlinConfig(events=40)).build_script()
    return apps, collect_session(
        apps, script, name="tiny",
        entropy_seed=derive_entropy_seed(5, apps, 40),
        ram_size=8 << 20, default_app="launcher")


@pytest.mark.slow
class TestReplayTraceOut:
    def test_streamed_and_checkpointed_replays_share_digest(self, tmp_path):
        """--trace-out interop: a spilling plain replay and a
        checkpointing resilient replay produce digest-identical
        containers for the same session."""
        from repro.emulator import replay_session
        from repro.resilience import resilient_replay
        from repro.workloads.sessions import CollectedSession

        apps, session = collect_tiny_session()
        # Replay mutates state in place; give each replay a fresh copy
        # via the serialization round trip (the CLI's load-from-disk).
        bundle = session.to_json()
        streamed = tmp_path / "streamed.ptrc"
        first = CollectedSession.from_json(bundle)
        with ContainerWriter(streamed) as writer:
            _, profiler, _ = replay_session(
                first.initial_state, first.log, apps=apps,
                emulator_kwargs={"ram_size": 8 << 20,
                                 "flash_size": 1 << 20},
                trace_sink=writer, trace_spill=True)
            assert profiler._spilled_tokens > 0
        second = CollectedSession.from_json(bundle)
        outcome = resilient_replay(
            second.initial_state, second.log, apps=apps,
            emulator_kwargs={"ram_size": 8 << 20, "flash_size": 1 << 20},
            checkpoint_every=2000)
        drained = tmp_path / "drained.ptrc"
        with ContainerWriter(drained) as writer:
            for chunk in outcome.profiler.chunks():
                writer.append_tokens(chunk)
        with TraceContainer(streamed) as a, TraceContainer(drained) as b:
            assert a.digest == b.digest
            assert a.tokens > 0


@pytest.mark.slow
class TestFleetTraceArchive:
    SPEC = dict(
        app_mixes=(("launcher", "memopad"),),
        behaviors=("gremlins",),
        durations=(0.01,),
        caches=((8192, 32, 4),),
        archive_traces=True,
    )

    def test_campaign_archives_and_resume_verifies(self, tmp_path):
        from repro.fleet import CampaignSpec, JournalError, run_campaign
        from repro.fleet.journal import JOURNAL_NAME, read_journal

        spec = CampaignSpec(name="tr", sessions=2, seed=23, **self.SPEC)
        out = tmp_path / "camp"
        result = run_campaign(spec, out)
        assert result.complete and result.completed == 2
        digests = {}
        for entry in read_journal(out / JOURNAL_NAME):
            if entry["kind"] == "done":
                digests[entry["id"]] = entry["stats"]["trace_digest"]
        assert len(digests) == 2
        for session_id, digest in digests.items():
            with TraceContainer(out / "traces"
                                / f"{session_id}.ptrc") as container:
                assert container.digest == digest
                container.verify(deep=True)
        # Clean resume re-verifies and runs nothing.
        resumed = run_campaign(spec, out, resume=True)
        assert resumed.ran == 0 and resumed.complete
        # Payload corruption (digest in the footer untouched) must
        # still fail the resume: the check is deep.
        victim = out / "traces" / "s00000.ptrc"
        data = bytearray(victim.read_bytes())
        data[60] ^= 0xFF
        victim.write_bytes(bytes(data))
        with pytest.raises(JournalError):
            run_campaign(spec, out, resume=True)
        # A missing member fails too.
        victim.unlink()
        with pytest.raises(JournalError):
            run_campaign(spec, out, resume=True)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestCliTrace:
    def make_container(self, tmp_path, n=500, seed=51):
        path = tmp_path / "t.ptrc"
        write_container(random_tokens(n, seed=seed), path,
                        chunk_tokens=128)
        return path

    def test_info_verify_cat(self, tmp_path, capsys):
        from repro.cli import main

        path = self.make_container(tmp_path)
        assert main(["trace", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "500" in out and "zlib" in out
        assert main(["trace", "verify", str(path)]) == 0
        assert "verify OK" in capsys.readouterr().out
        assert main(["trace", "cat", str(path), "--limit", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_convert_matrix(self, tmp_path, capsys):
        from repro.cli import main

        ptrc = self.make_container(tmp_path)
        npz = tmp_path / "t.npz"
        assert main(["trace", "convert", str(ptrc), str(npz)]) == 0
        back = tmp_path / "back.ptrc"
        assert main(["trace", "convert", str(npz), str(back)]) == 0
        with TraceContainer(ptrc) as a, TraceContainer(back) as b:
            assert a.digest == b.digest
        din = tmp_path / "t.din"
        assert main(["trace", "convert", str(ptrc), str(din)]) == 0
        assert din.stat().st_size > 0

    def test_convert_between_codecs(self, tmp_path, capsys):
        from repro.cli import main

        ptrc = self.make_container(tmp_path)
        raw = tmp_path / "raw.ptrc"
        back = tmp_path / "back.ptrc"
        assert main(["trace", "convert", str(ptrc), str(raw), "--codec",
                     "raw", "--chunk-tokens", "100"]) == 0
        assert main(["trace", "convert", str(raw), str(back)]) == 0
        capsys.readouterr()
        assert main(["trace", "info", str(back)]) == 0
        assert "PTRC v2" in capsys.readouterr().out
        with TraceContainer(ptrc) as a, TraceContainer(raw) as b, \
                TraceContainer(back) as c:
            assert a.digest == b.digest == c.digest
            assert b.n_chunks == 5 and c.n_chunks == 1

    def test_verify_salvage_recovers_prefix(self, tmp_path, capsys):
        from repro.cli import main

        path = self.make_container(tmp_path)
        entries, _, _ = scan_frames(path)
        torn = tmp_path / "torn.ptrc"
        torn.write_bytes(path.read_bytes()[:entries[2]["offset"] + 30])
        rec = tmp_path / "rec.ptrc"
        assert main(["trace", "verify", str(torn),
                     "--salvage", str(rec)]) == 0
        assert "recovered" in capsys.readouterr().out
        with TraceContainer(rec) as container:
            container.verify(deep=True)
            assert container.tokens > 0
