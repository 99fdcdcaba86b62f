"""Differential tests for the vectorized cache kernels and the
parallel sweep engine.

The vectorized paths are trusted only because they match the scalar
reference simulator byte for byte: hypothesis drives randomized traces
through every policy/write-mode combination and compares whole
``CacheStats``; the parallel sweep must return identical points for
any job count and must never leak shared-memory segments, even when a
worker dies.
"""

import glob
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (
    PAPER_ASSOCIATIVITIES,
    PAPER_LINE_SIZES,
    PAPER_SIZES,
    Cache,
    CacheConfig,
    KernelUnsupported,
    POLICY_FIFO,
    POLICY_LRU,
    POLICY_RANDOM,
    WRITE_BACK,
    WRITE_THROUGH,
    simulate,
    simulate_auto,
    SweepWorkerError,
    sweep_parallel,
    to_line_addresses,
)
import repro.cache.kernels as kernels
import repro.cache.sweep as sweep_module
from repro.device.memmap import KIND_READ, KIND_WRITE, REGION_RAM
from repro.traces.container import TraceContainer, pack_tokens, write_container
from tests import cache_oracles as oracle
from tests.cache_oracles import (
    fed_depth_pass,
    lru_depth_histogram,
    misses_by_associativity,
    sweep_paper_grid,
)

STAT_FIELDS = ("accesses", "hits", "misses", "writebacks",
               "write_throughs")


def scalar_stats(addresses, config, writes=None, flush=False, seed=0):
    cache = Cache(config, rng_seed=seed)
    cache.run(np.asarray(addresses),
              None if writes is None else np.asarray(writes))
    if flush:
        cache.flush_dirty()
    return cache.stats


def assert_stats_equal(expected, got, context=""):
    for field in STAT_FIELDS:
        assert getattr(expected, field) == getattr(got, field), (
            f"{context}: {field}: scalar {getattr(expected, field)} "
            f"!= kernel {getattr(got, field)}")


configs = st.builds(
    CacheConfig,
    size=st.sampled_from([256, 1024, 8192]),
    line_size=st.sampled_from([16, 32]),
    associativity=st.sampled_from([1, 2, 4]),
    policy=st.sampled_from([POLICY_LRU, POLICY_FIFO]),
    write_policy=st.sampled_from([WRITE_THROUGH, WRITE_BACK]),
    write_allocate=st.booleans(),
)

traces = st.lists(st.tuples(st.integers(0, 0x7FFF), st.booleans()),
                  min_size=0, max_size=400)

#: Like ``traces``, but half the references go to eight lines 8 KiB
#: apart, which share a set in every cache drawn, so lines are
#: re-referenced after other lines evicted them and FIFO victims cycle
#: through every way.  At least 64 references, so sets fill up.
reuse_traces = st.lists(st.tuples(
    st.one_of(st.integers(0, 0x7FFF),
              st.integers(0, 7).map(lambda k: k << 13)),
    st.booleans()), min_size=64, max_size=400)


@st.composite
def run_traces(draw):
    """A trace built from same-line runs, plus chunk cuts to stream it
    with.

    Each run repeats one line 1-8 times as a write burst, a read burst,
    a read/write alternation or a mix, so no-write-allocate collapsing
    sees leading write groups, later groups and runs that continue
    across the set sort.  Offsets stay within 16 bytes, so a run is one
    line at either line size; lines span 3 KB, so small caches evict.
    """
    runs = draw(st.lists(st.tuples(
        st.integers(0, 95), st.integers(1, 8), st.booleans(),
        st.sampled_from(["burst", "alternate", "mixed"])), max_size=60))
    addresses, writes = [], []
    for line, length, first, shape in runs:
        if shape == "burst":
            flags = [first] * length
        elif shape == "alternate":
            flags = [first ^ (i % 2 == 1) for i in range(length)]
        else:
            flags = draw(st.lists(st.booleans(), min_size=length,
                                  max_size=length))
        offsets = draw(st.lists(st.integers(0, 15), min_size=length,
                                max_size=length))
        addresses.extend(line * 32 + off for off in offsets)
        writes.extend(flags)
    cuts = sorted(draw(st.lists(st.integers(0, len(addresses)),
                                max_size=6)))
    return (np.array(addresses, dtype=np.uint32),
            np.array(writes, dtype=bool), cuts)


class TestKernelDifferential:
    @settings(max_examples=120, deadline=None)
    @given(config=configs, trace=reuse_traces, flush=st.booleans(),
           tail_width=st.sampled_from([0, 3, 10 ** 9]))
    def test_matches_scalar_cache(self, config, trace, flush, tail_width):
        """Byte-for-byte CacheStats equality, on the wave path
        (tail_width 0), the scalar drain path (huge tail_width), and
        the mixed default."""
        addresses = np.array([a for a, _ in trace], dtype=np.uint32)
        writes = np.array([w for _, w in trace], dtype=bool)
        expected = scalar_stats(addresses, config, writes, flush)
        got = simulate(addresses, config, writes=writes, flush=flush,
                       tail_width=tail_width)
        assert_stats_equal(expected, got, context=config.label())

    @settings(max_examples=200, deadline=None)
    @given(config=configs, case=run_traces(), flush=st.booleans(),
           tail_width=st.sampled_from([0, 3, 10 ** 9]))
    def test_same_line_runs_match_scalar_cache(self, config, case, flush,
                                               tail_width):
        """Write bursts and read/write alternations within same-line
        runs (the no-write-allocate collapse and its weighted heads),
        whole and streamed in chunks cut anywhere."""
        addresses, writes, cuts = case
        expected = scalar_stats(addresses, config, writes, flush)
        got = simulate(addresses, config, writes=writes, flush=flush,
                       tail_width=tail_width)
        assert_stats_equal(expected, got, context=config.label())
        chunks = list(zip(np.split(addresses, cuts), np.split(writes, cuts)))
        streamed = kernels.ChunkedSimulator(
            config, flush=flush, tail_width=tail_width).run(chunks)
        assert_stats_equal(expected, streamed, context=config.label())

    @settings(max_examples=40, deadline=None)
    @given(config=configs, trace=traces)
    def test_read_only_matches(self, config, trace):
        addresses = np.array([a for a, _ in trace], dtype=np.uint32)
        expected = scalar_stats(addresses, config)
        got = simulate(addresses, config)
        assert_stats_equal(expected, got, context=config.label())

    @settings(max_examples=40, deadline=None)
    @given(trace=traces, flush=st.booleans())
    def test_auto_falls_back_for_random_policy(self, trace, flush):
        config = CacheConfig(512, 16, 4, policy=POLICY_RANDOM)
        addresses = np.array([a for a, _ in trace], dtype=np.uint32)
        writes = np.array([w for _, w in trace], dtype=bool)
        expected = scalar_stats(addresses, config, writes, flush, seed=7)
        got = simulate_auto(addresses, config, writes=writes, flush=flush,
                            rng_seed=7)
        assert_stats_equal(expected, got)

    def test_random_policy_raises_kernel_unsupported(self):
        config = CacheConfig(512, 16, 4, policy=POLICY_RANDOM)
        with pytest.raises(KernelUnsupported):
            simulate(np.arange(10, dtype=np.uint32), config)

    def test_int64_addresses_accepted(self):
        config = CacheConfig(1024, 16, 2)
        addresses = np.array([0, 16, 4096, 0, 16], dtype=np.int64)
        expected = scalar_stats(addresses, config)
        assert_stats_equal(expected, simulate(addresses, config))

    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(st.integers(0, 2047), max_size=300),
           num_sets=st.sampled_from([1, 4, 64]),
           max_depth=st.sampled_from([1, 3, 8]),
           cuts=st.lists(st.integers(0, 300), max_size=6))
    def test_depth_histogram_matches_scalar(self, lines, num_sets,
                                            max_depth, cuts):
        """Whole and streamed in chunks cut anywhere."""
        arr = np.array(lines, dtype=np.uint32)
        hist_ref, cold_ref = lru_depth_histogram(
            arr.astype(np.int64), num_sets, max_depth)
        hist, cold = fed_depth_pass([arr], num_sets, max_depth).finish()
        assert np.array_equal(np.asarray(hist_ref), hist)
        assert cold == cold_ref
        chunks = np.split(arr, sorted(min(c, len(arr)) for c in cuts))
        hist, cold = fed_depth_pass(chunks, num_sets, max_depth).finish()
        assert np.array_equal(np.asarray(hist_ref), hist)
        assert cold == cold_ref

    def test_misses_by_associativity_matches(self):
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 1 << 18, 5000, dtype=np.uint64)
        lines = to_line_addresses(addrs.astype(np.uint32), 16)
        ref = misses_by_associativity(lines, 64, [1, 2, 4, 8])
        got = fed_depth_pass([lines], 64, 8).misses([1, 2, 4, 8])
        assert ref == got


@st.composite
def pingpong_traces(draw):
    """Line addresses built from alternating-pair runs ``A B A B ...``
    of odd and even lengths, plus the chunk cuts to stream them with.

    Pair partners sit a multiple of 8 lines apart, so with up to 8 sets
    most pairs share a set; the pairs of different runs land in several
    sets, and the set sort joins the runs of one set.  Cuts fall
    anywhere, inside stretches too."""
    runs = draw(st.lists(st.tuples(st.integers(0, 63),
                                   st.sampled_from([1, 8, 16, 32, 48]),
                                   st.integers(1, 9)), max_size=30))
    lines = []
    for a, delta, length in runs:
        b = (a + delta) % 64
        lines.extend([a, b] * (length // 2) + [a] * (length % 2))
    cuts = sorted(draw(st.lists(st.integers(0, len(lines)), max_size=6)))
    return np.array(lines, dtype=np.uint32), cuts


def far_reuse_lines(segments):
    """Line addresses in which far reuses wrap long loops.

    Each segment ``(far, loops, offset, spread)`` references line
    ``far``, runs each loop ``(lines, repeats, mark)`` (optionally
    followed by a line used once) and references ``far`` again.  The
    depth scan of that last reference crosses a window of up to
    thousands of heads with few distinct lines in it, some of them deep
    in the window, where only the scan's late steps find them.  Line
    ``i`` of a segment is ``64 * i`` plus ``offset``, so they all share
    a set at every set count up to 64, or plus ``(offset + i) % 64``
    when ``spread``."""
    lines = []
    for far, loops, offset, spread in segments:
        def line(i):
            return 64 * i + ((offset + i) % 64 if spread else offset)
        lines.append(line(far))
        for once, (loop, repeats, mark) in enumerate(loops, start=20):
            lines.extend([line(i) for i in loop] * repeats)
            if mark:
                lines.append(line(once))
        lines.append(line(far))
    return np.array(lines, dtype=np.uint32)


@st.composite
def far_reuse_traces(draw):
    """:func:`far_reuse_lines` of one to four segments, with far lines
    recurring across segments and one to three loops each over 2-9 of
    nine loop lines, repeated up to 300 times; plus the chunk cuts to
    stream them with, anywhere, inside loops too."""
    segments = draw(st.lists(st.tuples(
        st.integers(12, 19),
        st.lists(st.tuples(st.lists(st.integers(0, 8), min_size=2,
                                    max_size=9, unique=True),
                           st.integers(1, 300), st.booleans()),
                 min_size=1, max_size=3),
        st.integers(0, 63), st.booleans()), min_size=1, max_size=4))
    lines = far_reuse_lines(segments)
    cuts = sorted(draw(st.lists(st.integers(0, len(lines)), max_size=6)))
    return lines, cuts


def assert_depth_pass_matches_scalar(lines, cuts, num_sets, max_depth):
    """Histogram, cold count and final stacks of the depth pass equal
    the scalar pass, for the whole trace and streamed in chunks."""
    hist_ref, cold_ref = lru_depth_histogram(lines.astype(np.int64),
                                             num_sets, max_depth)
    state_ref = oracle.lru_depth_state(lines, num_sets, max_depth)
    hist, cold = fed_depth_pass([lines], num_sets, max_depth).finish()
    assert np.array_equal(hist, hist_ref) and cold == cold_ref
    for source in ([lines], np.split(lines, cuts)):
        depth_pass = fed_depth_pass(source, num_sets, max_depth)
        hist, cold = depth_pass.finish()
        assert np.array_equal(hist, hist_ref) and cold == cold_ref
        state = depth_pass._state
        if state is None:
            state = np.full((num_sets, max_depth), kernels.EMPTY)
        assert state.tolist() == state_ref


class TestDepthPass:
    """The LRU depth pass (run and ping-pong collapse, refined set
    sorts, carried stacks and the backward depth scan) against the
    scalar stack pass."""

    @settings(max_examples=150, deadline=None)
    @given(case=pingpong_traces(), num_sets=st.sampled_from([1, 2, 4, 8]),
           max_depth=st.sampled_from([1, 2, 8]))
    def test_pingpong_runs_match_scalar(self, case, num_sets, max_depth):
        lines, cuts = case
        assert_depth_pass_matches_scalar(lines, cuts, num_sets, max_depth)

    @settings(max_examples=100, deadline=None)
    @given(case=far_reuse_traces(), num_sets=st.sampled_from([1, 2, 8, 64]),
           max_depth=st.sampled_from([1, 2, 4, 8]))
    def test_long_scans_match_scalar(self, case, num_sets, max_depth):
        """Windows of thousands of heads and few distinct lines: the
        scan outlasts its slice phase and finishes by gathers."""
        lines, cuts = case
        assert_depth_pass_matches_scalar(lines, cuts, num_sets, max_depth)

    def test_seeded_long_scans_match_scalar(self):
        """Forty random far-reuse segments, whole and in five chunks."""
        rng = np.random.default_rng(23)
        segments = [
            (int(rng.integers(12, 20)),
             [(rng.choice(9, int(rng.integers(2, 10)), replace=False)
               .tolist(), int(rng.integers(1, 300)), bool(rng.random() < 0.5))
              for _ in range(int(rng.integers(1, 4)))],
             int(rng.integers(0, 64)), bool(rng.random() < 0.3))
            for _ in range(40)]
        lines = far_reuse_lines(segments)
        cuts = np.sort(rng.integers(0, len(lines), 4))
        for num_sets in (1, 8):
            for max_depth in (4, 8):
                assert_depth_pass_matches_scalar(lines, cuts, num_sets,
                                                 max_depth)

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    def test_many_distinct_lines_match_scalar(self, dtype):
        """One chunk of more than 65,536 distinct lines, each referenced
        twice a few lines apart, then streamed in three chunks.  The
        int64 tags span over 32 bits, so the line sort takes three or
        more 16-bit digits."""
        rng = np.random.default_rng(17)
        top = 1 << 32 if dtype == np.uint32 else 1 << 40
        distinct = np.unique(rng.integers(0, top, 70_000))
        assert len(distinct) > 65_536
        rng.shuffle(distinct)
        lines = np.stack([distinct, np.roll(distinct, 3)], axis=1).ravel()
        lines = lines.astype(dtype)
        cuts = [len(lines) // 3, 2 * len(lines) // 3]
        for num_sets in (1, 64):
            assert_depth_pass_matches_scalar(lines, cuts, num_sets, 4)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_line_order_is_stable_argsort(self, dtype):
        rng = np.random.default_rng(3)
        for top in (2, 1 << 16, 1 << 17, 1 << 30):
            if dtype == np.int64:
                top <<= 20
            tags = rng.integers(0, top, 5_000).astype(dtype)
            assert np.array_equal(kernels._line_order(tags),
                                  np.argsort(tags, kind="stable"))

    @pytest.mark.parametrize("tags, kept, dropped", [
        ([1, 2, 1, 2, 1, 2, 3], [1, 2, 3], 4),      # even stretch: all go
        ([1, 2, 1, 2, 1, 3], [1, 2, 1, 3], 2),      # odd: the last stays
        ([1, 2, 1, 3, 4, 3], [1, 2, 1, 3, 4, 3], 0),  # two stretches of one
        ([1, 2, 1, 3, 1, 3], [1, 2, 1, 3], 2),      # one of one, one of two
        ([1, 2, 3, 1, 2], [1, 2, 3, 1, 2], 0),      # period 3
    ])
    def test_pingpong_collapse_keeps_stack_state(self, tags, kept, dropped):
        sets = np.zeros(len(tags), dtype=np.int32)
        tags = np.array(tags, dtype=np.int32)
        got_sets, got_tags, _, got_dropped = kernels._collapse_pingpong(
            sets, tags)
        assert got_tags.tolist() == kept and got_dropped == dropped
        assert len(got_sets) == len(kept)
        for max_depth in (1, 2, 8):
            assert oracle.lru_depth_state(got_tags, 1, max_depth) == \
                oracle.lru_depth_state(tags, 1, max_depth)

    def test_pingpong_needs_one_set(self):
        """``A B A`` across a set boundary of the sorted heads is no
        depth-1 hit."""
        sets = np.array([0, 0, 1, 1], dtype=np.int32)
        tags = np.array([5, 7, 5, 7], dtype=np.int32)
        assert kernels._collapse_pingpong(sets, tags)[3] == 0

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    def test_refined_runs_match_independent_sorts(self, dtype):
        """Each refined family equals its own stable set sort and run
        collapse, across one-bit, multi-bit and int32-key refinements,
        with the dtype rules of the per-config kernels."""
        rng = np.random.default_rng(11)
        lines = rng.integers(0, 1 << 24, 30_000).astype(dtype)
        lines[1::3] = lines[::3][:len(lines[1::3])]  # ping-pong material
        # One-bit steps, a 4-bit step and a 17-bit one (int32 keys).
        set_counts = [1, 2, 4, 64, 128, 1 << 24]
        collapsed_lines, _, first = oracle.precollapse(lines, None, 0)
        for num_sets, (sets, tags, writes, collapsed) in zip(
                set_counts, kernels.refined_runs(lines, set_counts)):
            assert writes is None
            sets_ref, tags_ref = kernels._split_lines(collapsed_lines,
                                                      num_sets)
            sets_ref, tags_ref, _ = oracle.sort_by_set(
                sets_ref, tags_ref, None, num_sets)
            sets_ref, tags_ref, _, more = oracle.collapse_runs(
                sets_ref, tags_ref, None)
            assert np.array_equal(sets, sets_ref)
            assert np.array_equal(tags, tags_ref)
            assert collapsed == first + more
            narrow = dtype == np.uint32 and num_sets >= 4
            assert tags.dtype == (np.int32 if narrow else np.int64)


@st.composite
def written_line_traces(draw):
    """Line addresses with write flags, plus the chunk cuts to stream
    them with.

    The trace is built from segments: ping-pong stretches of two lines,
    same-line runs (whose tail writes the run collapse ORs into the
    head), scans over up to twelve lines of one set (more than the
    eight ways a pass carries, so lines fall out of the carried stack
    and come back later) and random lines.  The lines ``64 * tag +
    offset`` of one offset share a set at every set count drawn.  Each
    segment writes nowhere, everywhere, on its first or last reference
    only, or where drawn, and the whole trace may be all reads or all
    writes.
    """
    segments = draw(st.lists(st.tuples(
        st.sampled_from(["pingpong", "run", "scan", "random"]),
        st.integers(0, 11), st.integers(0, 11), st.integers(1, 16),
        st.integers(0, 3),
        st.sampled_from(["none", "all", "first", "last", "drawn"])),
        min_size=1, max_size=12))
    lines, writes = [], []
    for kind, a, b, length, offset, mode in segments:
        if kind == "pingpong":
            tags = [a, b] * (length // 2) + [a] * (length % 2)
        elif kind == "run":
            tags = [a] * length
        elif kind == "scan":
            tags = [(a + i) % 12 for i in range(length)]
        else:
            tags = draw(st.lists(st.integers(0, 11), min_size=length,
                                 max_size=length))
        if mode == "drawn":
            flags = draw(st.lists(st.booleans(), min_size=length,
                                  max_size=length))
        else:
            flags = [mode == "all" or (mode == "first" and i == 0)
                     or (mode == "last" and i == length - 1)
                     for i in range(length)]
        lines.extend(64 * tag + offset for tag in tags)
        writes.extend(flags)
    density = draw(st.sampled_from(["drawn", "reads", "writes"]))
    if density != "drawn":
        writes = [density == "writes"] * len(lines)
    cuts = sorted(draw(st.lists(st.integers(0, len(lines)), max_size=6)))
    return (np.array(lines, dtype=np.uint32), np.array(writes, dtype=bool),
            cuts)


class TestWriteBackDepthPass:
    """Write-back counts from the depth pass against the scalar family
    pass with per-associativity dirty bitmasks."""

    @settings(max_examples=150, deadline=None)
    @given(case=written_line_traces(),
           max_depth=st.sampled_from([1, 2, 4, 8]))
    def test_matches_scalar_family_pass(self, case, max_depth):
        """Families at 1, 2, 8 and 64 sets refined from one chain, as
        the sweep feeds them, streamed in chunks cut anywhere: after
        every cut, the misses and write-backs of every associativity up
        to ``max_depth`` and the carried stacks with each line's dirty
        depth."""
        lines, writes, cuts = case
        set_counts = [1, 2, 8, 64]
        assocs = list(range(1, max_depth + 1))
        passes = [kernels.ChunkedDepthPass(num_sets, max_depth,
                                           writebacks=True)
                  for num_sets in set_counts]
        begin = 0
        for end in cuts + [len(lines)]:
            runs = kernels.refined_runs(lines[begin:end], set_counts,
                                        writes[begin:end])
            for depth_pass, (sets, tags, head_writes, collapsed) in zip(
                    passes, runs):
                depth_pass.feed_sorted(sets, tags, collapsed, head_writes)
            begin = end
            for num_sets, depth_pass in zip(set_counts, passes):
                expected = oracle.lru_family_stats(
                    lines[:end], writes[:end], num_sets, assocs)
                context = (num_sets, end)
                assert depth_pass.misses(assocs) == {
                    a: expected[a].misses for a in assocs}, context
                assert depth_pass.writebacks(assocs) == {
                    a: expected[a].writebacks for a in assocs}, context
                state, dirty = depth_pass._state, depth_pass._dirty
                got = ([[] for _ in range(num_sets)] if state is None else
                       [[(int(t), int(r)) for t, r in zip(row, dirty_row)
                         if t != kernels.EMPTY]
                        for row, dirty_row in zip(state, dirty)])
                assert got == oracle.lru_dirty_state(
                    lines[:end], writes[:end], num_sets, max_depth), context

    @pytest.mark.parametrize("writes, dropped", [
        ([0, 0, 0, 0, 0, 0, 0], 2),     # m=5: the first two go
        ([0, 0, 1, 0, 0, 0, 0], 0),     # a write among them: all stay
        ([0, 0, 0, 0, 0, 1, 1], 2),     # writes in the kept tail
        ([1, 1, 0, 0, 0, 0, 0], 2),     # writes before the stretch
    ])
    def test_pingpong_collapse_keeps_each_line_last_link(self, writes,
                                                         dropped):
        """With write flags a stretch keeps its last two heads (three
        when odd) and drops nothing when a dropped head would write."""
        sets = np.zeros(7, dtype=np.int32)
        tags = np.array([1, 2, 1, 2, 1, 2, 1], dtype=np.int32)
        writes = np.array(writes, dtype=bool)
        _, got_tags, got_writes, got_dropped = kernels._collapse_pingpong(
            sets, tags, writes)
        assert got_dropped == dropped
        keep = [i for i in range(7) if not 2 <= i < 2 + dropped]
        assert got_tags.tolist() == tags[keep].tolist()
        assert got_writes.tolist() == writes[keep].tolist()
        assert kernels._collapse_pingpong(sets, tags)[3] == 4

    def test_read_only_pass_counts_no_writebacks(self):
        depth_pass = kernels.ChunkedDepthPass(4, 2)
        depth_pass.feed(np.arange(40, dtype=np.uint32) % 9,
                        np.ones(40, dtype=bool))
        assert depth_pass.writebacks([1, 2]) == {1: 0, 2: 0}
        assert depth_pass._dirty is None


#: Byte-address traces with write flags and chunk cuts: same-line runs
#: of write bursts and alternations, and line traces of ping-pongs,
#: runs and scans (at 16 B lines).
written_byte_traces = st.one_of(
    run_traces(),
    written_line_traces().map(lambda case: (case[0] * np.uint32(16),
                                            case[1], case[2])))

SHARED_SET_COUNTS = [1, 2, 8, 64]


def _read_only(heads):
    """A chain's heads with every array made read-only, so a consumer
    that writes into shared heads fails."""
    for array in heads[:3]:
        if array is not None:
            array.setflags(write=False)
    return heads


class TestSharedHeads:
    """Every kernel takes its set-sorted run heads from one
    :func:`kernels.refined_runs` chain per chunk and allocate mode."""

    @settings(max_examples=150, deadline=None)
    @given(case=written_byte_traces, allocate=st.booleans())
    def test_chain_matches_per_config_preparation(self, case, allocate):
        """At 1, 2, 8 and 64 sets one chain gives, array for array, what
        the per-configuration preparation gives: heads, write flags,
        weights (from the no-write-allocate write counts) and the
        collapsed count.  Every reference is collapsed or scored by one
        head's weight."""
        addresses, writes, _ = case
        runs = kernels.refined_runs(to_line_addresses(addresses, 16),
                                    SHARED_SET_COUNTS, writes, allocate)
        for num_sets, (sets, tags, head_writes, collapsed) in zip(
                SHARED_SET_COUNTS, runs):
            config = CacheConfig(16 * num_sets, 16, 1,
                                 write_allocate=allocate)
            sets_ref, tags_ref, writes_ref, weights_ref, collapsed_ref = \
                oracle.prepare_heads(addresses, writes, config)
            assert np.array_equal(sets, sets_ref), num_sets
            assert np.array_equal(tags, tags_ref), num_sets
            assert collapsed == collapsed_ref, num_sets
            if allocate:
                assert weights_ref is None
                assert np.array_equal(head_writes, writes_ref), num_sets
            else:
                assert np.array_equal(np.maximum(head_writes, 1),
                                      weights_ref), num_sets
                assert np.array_equal(head_writes != 0, writes_ref), num_sets
            weight = len(sets) if allocate else int(weights_ref.sum())
            assert weight + collapsed == len(addresses), num_sets
            if num_sets >= 4:
                assert tags.dtype == tags_ref.dtype == np.int32

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    def test_feed_keeps_the_tag_dtype_rule(self, dtype):
        """A one-level chain in :meth:`ChunkedSimulator.feed` keeps the
        per-configuration tag width: ``int32`` for ``uint32`` addresses
        (at 16 B lines even with one or two sets), else ``int64``."""
        addresses = (np.arange(64) * 48).astype(dtype)
        for num_sets in SHARED_SET_COUNTS:
            config = CacheConfig(16 * num_sets, 16, 1)
            sim = kernels.ChunkedSimulator(config)
            sim.feed(addresses)
            assert sim._state.dtype == \
                oracle.set_tag_split(addresses, config)[1].dtype == (
                    np.int32 if dtype == np.uint32 else np.int64)

    @settings(max_examples=100, deadline=None)
    @given(case=written_byte_traces, assoc=st.sampled_from([1, 2, 4]))
    def test_shared_chains_feed_exact_simulators(self, case, assoc):
        """LRU and FIFO simulators, with and without write-allocate, at
        1, 2, 8 and 64 sets, all fed read-only heads from one chain per
        chunk and allocate mode, streamed in chunks cut anywhere: each
        equals the scalar cache of its write-back configuration, and
        its misses those of the write-through twin, which writes
        through every write."""
        addresses, writes, cuts = case
        sims = {allocate: [kernels.ChunkedSimulator(CacheConfig(
                    16 * num_sets * assoc, 16, assoc, policy=policy,
                    write_policy=WRITE_BACK, write_allocate=allocate))
                    for num_sets in SHARED_SET_COUNTS
                    for policy in (POLICY_LRU, POLICY_FIFO)]
                for allocate in (True, False)}
        begin = 0
        for end in cuts + [len(addresses)]:
            line_addrs = to_line_addresses(addresses[begin:end], 16)
            for allocate, group in sims.items():
                runs = kernels.refined_runs(line_addrs, SHARED_SET_COUNTS,
                                            writes[begin:end], allocate)
                by_sets = dict(zip(SHARED_SET_COUNTS, map(_read_only, runs)))
                for sim in group:
                    sets, tags, head_writes, collapsed = \
                        by_sets[sim.config.num_sets]
                    sim.feed_sorted(sets, tags, collapsed, head_writes,
                                    end - begin)
            begin = end
        for sim in sims[True] + sims[False]:
            config = sim.config
            got = sim.finish()
            assert_stats_equal(scalar_stats(addresses, config, writes), got,
                               context=config.label())
            through = scalar_stats(addresses, replace(
                config, write_policy=WRITE_THROUGH), writes)
            assert (through.misses, through.write_throughs) == (
                got.misses, int(writes.sum())), config.label()


@st.composite
def drain_cases(draw):
    """One set's packed row (distinct tags, some EMPTY ways, dirty bits),
    the run heads still to drain in it, their write flags and a FIFO
    insertion pointer.  Tags come from a small range so hits, misses
    and evictions all occur."""
    assoc = draw(st.sampled_from([1, 2, 4, 8]))
    row_tags = draw(st.permutations(range(12)))[:assoc]
    empty = draw(st.lists(st.booleans(), min_size=assoc, max_size=assoc))
    dirty = draw(st.lists(st.integers(0, 1), min_size=assoc, max_size=assoc))
    row = np.array([kernels.EMPTY if e else (t << 1) | d
                    for t, e, d in zip(row_tags, empty, dirty)],
                   dtype=np.int32)
    stream = draw(st.lists(st.tuples(st.integers(0, 14), st.booleans()),
                           max_size=80))
    tags = np.array([t for t, _ in stream], dtype=np.int32)
    writes = np.array([w for _, w in stream], dtype=bool)
    ptr = draw(st.integers(0, assoc - 1))
    return assoc, row, tags, writes, ptr


class TestScalarDrains:
    """The unpacked-list tail drains against the list-walking oracle."""

    @settings(max_examples=300, deadline=None)
    @given(case=drain_cases(), allocate=st.booleans(),
           track_dirty=st.booleans(), with_writes=st.booleans())
    def test_lru_and_fifo_drains_match_oracle(self, case, allocate,
                                              track_dirty, with_writes):
        assoc, row, tags, writes, ptr = case
        if not with_writes:
            writes = None
        args = (allocate, track_dirty)
        assert kernels._drain_lru(tags, writes, row, *args) == \
            oracle.drain_lru(tags, writes, row, assoc, *args)
        assert kernels._drain_fifo(tags, writes, row, ptr, assoc, *args) == \
            oracle.drain_fifo(tags, writes, row, ptr, assoc, *args)

    @settings(max_examples=300, deadline=None)
    @given(case=drain_cases(), allocate=st.booleans(),
           track_dirty=st.booleans(), data=st.data())
    def test_weighted_drains_match_oracle(self, case, allocate, track_dirty,
                                          data):
        """Heads carrying a reference count: a hit scores its weight."""
        assoc, row, tags, writes, ptr = case
        weights = np.array(data.draw(st.lists(
            st.integers(1, 9), min_size=len(tags), max_size=len(tags))),
            dtype=np.int32)
        args = (allocate, track_dirty, weights)
        assert kernels._drain_lru(tags, writes, row, *args) == \
            oracle.drain_lru(tags, writes, row, assoc, *args)
        assert kernels._drain_fifo(tags, writes, row, ptr, assoc, *args) == \
            oracle.drain_fifo(tags, writes, row, ptr, assoc, *args)

    @settings(max_examples=200, deadline=None)
    @given(case=drain_cases())
    def test_depth_drain_matches_oracle(self, case):
        """A one-set depth pass resumed from a carried row, against the
        list-walking drain.  An LRU stack keeps its EMPTY ways at the
        bottom, so the row's lines move to its top."""
        assoc, row, tags, _writes, _ptr = case
        lines = [int(p) >> 1 for p in row if p != kernels.EMPTY]
        row = [t << 1 for t in lines] + [kernels.EMPTY] * (assoc - len(lines))
        depth_pass = kernels.ChunkedDepthPass(1, assoc)
        depth_pass.feed(np.array(lines[::-1], dtype=np.int32))
        hist, cold = depth_pass.finish()
        assert not hist.any() and cold == len(lines)
        if lines:
            assert depth_pass._state.tolist() == [row]
        depth_pass.feed(tags)
        hist_ref = np.zeros(assoc, dtype=np.int64)
        cold_ref, row_ref = oracle.drain_depths(tags, row, assoc, hist_ref)
        hist, cold = depth_pass.finish()
        assert np.array_equal(hist, hist_ref)
        assert cold - len(lines) == cold_ref
        state = depth_pass._state
        assert (state.tolist() if state is not None else [row]) == [row_ref]

    @pytest.mark.parametrize("num_sets", [kernels.SORT16_MAX_SETS,
                                          2 * kernels.SORT16_MAX_SETS])
    def test_sort_by_set_matches_int32_stable_argsort(self, num_sets):
        """A refinement step spanning up to the 16-bit boundary sorts
        its keys as int16 (radix); a wider one keeps them int32.  Both
        must equal the stable int32 order, as the oracle's set sort
        does (one distinct line per reference exposes any reordering
        within a set, and drops none)."""
        rng = np.random.default_rng(num_sets)
        sets = rng.integers(0, num_sets, 20_000).astype(np.int32)
        sets[:3] = (num_sets - 1, 0, num_sets - 1)
        tags = np.arange(len(sets), dtype=np.int32)
        writes = rng.random(len(sets)) < 0.3
        order = np.argsort(sets, kind="stable")
        set_bits = num_sets.bit_length() - 1
        lines = (tags.astype(np.uint32) << np.uint32(set_bits)) \
            | sets.astype(np.uint32)
        got_lines, got_writes, dropped = kernels._refine(
            lines, 0, set_bits, writes)
        assert dropped == 0
        assert np.array_equal(got_lines, lines[order])
        assert np.array_equal(got_writes, writes[order])
        ref = oracle.sort_by_set(sets, tags, writes, num_sets)
        for ref_array, array in zip(ref, (sets, tags, writes)):
            assert np.array_equal(ref_array, array[order])


class TestFamilyStats:
    @settings(max_examples=30, deadline=None)
    @given(trace=traces, num_sets=st.sampled_from([1, 8, 64]))
    def test_family_pass_matches_per_config_simulation(self, trace,
                                                       num_sets):
        """One write-aware stack pass equals 8 scalar simulations (both
        write policies x 4 associativities)."""
        addresses = np.array([a for a, _ in trace], dtype=np.uint32)
        writes = np.array([w for _, w in trace], dtype=bool)
        line = 16
        family = oracle.lru_family_stats(to_line_addresses(addresses, line),
                                         writes, num_sets, [1, 2, 4, 8])
        for assoc, fam in family.items():
            for write_policy in (WRITE_BACK, WRITE_THROUGH):
                config = CacheConfig(size=num_sets * line * assoc,
                                     line_size=line, associativity=assoc,
                                     write_policy=write_policy)
                expected = scalar_stats(addresses, config, writes)
                assert (fam.accesses, fam.hits, fam.misses) == (
                    expected.accesses, expected.hits, expected.misses)
                if write_policy == WRITE_BACK:
                    assert fam.writebacks == expected.writebacks
                else:
                    assert fam.write_throughs == expected.write_throughs


def _shm_segments():
    return set(glob.glob("/dev/shm/psm_*"))


def _boom_on_32b_lines(bundle):
    # Module-level so forked workers resolve it by name.
    if any(family.line == 32 for family in bundle):
        raise RuntimeError("injected worker failure")
    return _real_bundle_unit_impl(bundle)


_real_bundle_unit_impl = sweep_module._bundle_unit_impl


def _boom_on_fifo(bundle):
    # Module-level so forked workers resolve it by name.
    if any(config.policy == POLICY_FIFO
           for item in bundle for config in item.configs):
        raise RuntimeError("injected bundle failure")
    return _real_bundle_unit_impl(bundle)

#: The ``ablation`` benchmark's grid: {2K, 8K, 32K} x {LRU, FIFO} x
#: {write-through, write-back, write-back without write-allocate},
#: 16 B lines, 4 ways.
ABLATION_GRID = [
    CacheConfig(size, 16, 4, policy=policy, write_policy=write_policy,
                write_allocate=allocate)
    for size in (2048, 8192, 32768)
    for policy in (POLICY_LRU, POLICY_FIFO)
    for write_policy, allocate in ((WRITE_THROUGH, True), (WRITE_BACK, True),
                                   (WRITE_BACK, False))
]

#: A configs sweep touching every grouping rule: duplicates, random
#: replacement (scalar, and kernel-served at one way), one way, both
#: line sizes and all four write-policy x write-allocate pairs, in no
#: particular order.
MIXED_CONFIGS = [
    CacheConfig(4096, 32, 2, write_policy=WRITE_BACK, write_allocate=False),
    CacheConfig(2048, 16, 4, policy=POLICY_FIFO),
    CacheConfig(8192, 16, 4, policy=POLICY_RANDOM, write_policy=WRITE_BACK),
    CacheConfig(1024, 16, 1, write_allocate=False),
    CacheConfig(4096, 32, 2),
    CacheConfig(2048, 16, 4, policy=POLICY_FIFO, write_policy=WRITE_BACK,
                write_allocate=False),
    CacheConfig(8192, 16, 4, policy=POLICY_RANDOM, write_allocate=False),
    CacheConfig(1024, 16, 1, write_policy=WRITE_BACK),
    CacheConfig(4096, 32, 2, write_policy=WRITE_BACK),
    CacheConfig(2048, 16, 4, policy=POLICY_FIFO),
    CacheConfig(4096, 32, 2, write_allocate=False),
    CacheConfig(1024, 32, 1, policy=POLICY_RANDOM, write_policy=WRITE_BACK,
                write_allocate=False),
    CacheConfig(2048, 16, 4, policy=POLICY_FIFO, write_policy=WRITE_BACK),
    CacheConfig(4096, 32, 2, write_policy=WRITE_BACK, write_allocate=False),
]


class TestSweepParallel:
    def _trace(self, n=40_000):
        rng = np.random.default_rng(5)
        # Mix of sequential runs and random jumps, session-style.
        jumps = rng.integers(0, 1 << 20, n // 8, dtype=np.uint64)
        addrs = (np.repeat(jumps, 8) +
                 2 * np.tile(np.arange(8, dtype=np.uint64), n // 8))
        return addrs.astype(np.uint32)

    def _container(self, tmp_path, addresses):
        """``addresses`` as RAM reads in a PTRC file of 997-token chunks,
        so same-line runs straddle chunk boundaries."""
        kinds = np.full(len(addresses), KIND_READ | (REGION_RAM << 4),
                        dtype=np.uint8)
        path = tmp_path / "trace.ptrc"
        write_container(pack_tokens(addresses, kinds), path,
                        chunk_tokens=997)
        return path

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_bundled_grid_matches_serial_reference(self, jobs, tmp_path):
        addresses = self._trace(16_000)
        expected = [(p.config, p.accesses, p.misses)
                    for p in sweep_paper_grid(addresses)]
        path = self._container(tmp_path, addresses)
        for points in (sweep_parallel(addresses, jobs=jobs),
                       sweep_parallel(container=path, jobs=jobs)):
            assert [(p.config, p.accesses, p.misses)
                    for p in points] == expected

    @pytest.mark.parametrize("grid", [
        # Multi-bit refinements between non-adjacent set counts.
        dict(sizes=[1024, 65536], associativities=[1, 8]),
        # A first family over SORT16_MAX_SETS sets (int32 sort keys).
        dict(sizes=[1 << 20], line_sizes=[16, 32], associativities=[1]),
    ])
    def test_sparse_grids_match_serial_reference(self, grid, tmp_path):
        addresses = self._trace(16_000)
        expected = [(p.config, p.accesses, p.misses)
                    for p in sweep_paper_grid(addresses, **grid)]
        path = self._container(tmp_path, addresses)
        for points in (sweep_parallel(addresses, **grid),
                       sweep_parallel(container=path, jobs=2, **grid)):
            assert [(p.config, p.accesses, p.misses)
                    for p in points] == expected

    def _grid_items(self):
        return sweep_module._work_items(sweep_module._grid_configs(
            PAPER_SIZES, PAPER_LINE_SIZES, PAPER_ASSOCIATIVITIES), False)

    def test_container_chunks_decoded_once_per_bundle(self, tmp_path,
                                                      monkeypatch):
        addresses, writes = self._written_trace(8_000)
        kinds = np.where(writes, KIND_WRITE, KIND_READ) | (REGION_RAM << 4)
        path = tmp_path / "trace.ptrc"
        write_container(pack_tokens(addresses, kinds.astype(np.uint8)),
                        path, chunk_tokens=997)
        with TraceContainer(path) as container:
            n_chunks = len(container.index)
        decoded = []
        decode = TraceContainer.chunk

        def counting_decode(self, i):
            decoded.append(i)
            return decode(self, i)

        monkeypatch.setattr(TraceContainer, "chunk", counting_decode)
        # jobs=1 runs in-process, one bundle holding all 20 families, or
        # all 12 items of the ablation grid.
        sweep_parallel(container=path, jobs=1)
        assert decoded == list(range(n_chunks))
        decoded.clear()
        sweep_parallel(container=path, configs=ABLATION_GRID, jobs=1)
        assert decoded == list(range(n_chunks))
        # The bundles planned for several workers, run in-process: each
        # streams the trace once, so the ablation grid at jobs=2 decodes
        # each chunk twice.
        for items, jobs in ((self._grid_items(), 3),
                            (sweep_module._work_items(ABLATION_GRID, True), 2)):
            bundles = [tuple(items[i] for i in bundle)
                       for bundle in sweep_module._plan_bundles(len(items),
                                                                jobs)]
            decoded.clear()
            sweep_module._run_units(sweep_module._bundle_unit, bundles, 1,
                                    None, None, container=str(path))
            assert sorted(decoded) == sorted(list(range(n_chunks)) * jobs)

    def test_bundle_plan(self):
        families = self._grid_items()
        assert len(families) == 20
        assert all(isinstance(f, sweep_module.Family) and not f.writebacks
                   for f in families)
        for jobs in range(1, 25):
            plan = sweep_module._plan_bundles(len(families), jobs)
            assert len(plan) == min(jobs, 20)
            # Contiguous bundles covering every family once, in order.
            assert [i for bundle in plan for i in bundle] == list(range(20))
        assert [{families[i].line for i in bundle} for bundle in
                sweep_module._plan_bundles(len(families), 2)] == [{16}, {32}]
        # The 18-config ablation grid (one line size) still fills both
        # workers.
        items = sweep_module._work_items(ABLATION_GRID, True)
        assert [len(b) for b in sweep_module._plan_bundles(len(items), 2)] \
            == [6, 6]

    def test_matches_previous_engine(self):
        addresses = self._trace()
        ref = sweep_paper_grid(addresses)
        got = sweep_parallel(addresses, jobs=1)
        assert [(p.config, p.accesses, p.misses) for p in ref] == \
               [(p.config, p.accesses, p.misses) for p in got]

    def test_deterministic_jobs_1_vs_4(self):
        addresses = self._trace()
        p1 = sweep_parallel(addresses, jobs=1)
        p4 = sweep_parallel(addresses, jobs=4)
        assert [(p.config, p.accesses, p.misses) for p in p1] == \
               [(p.config, p.accesses, p.misses) for p in p4]

    def test_config_mode_deterministic_and_exact(self):
        addresses = self._trace(8_000)
        writes = np.random.default_rng(6).random(len(addresses)) < 0.3
        cfgs = [
            CacheConfig(8192, 16, 4, policy=POLICY_FIFO,
                        write_policy=WRITE_BACK),
            CacheConfig(8192, 16, 4, policy=POLICY_RANDOM),
            CacheConfig(4096, 32, 2, write_policy=WRITE_BACK,
                        write_allocate=False),
        ]
        p1 = sweep_parallel(addresses, writes=writes, configs=cfgs, jobs=1)
        p4 = sweep_parallel(addresses, writes=writes, configs=cfgs, jobs=4)
        for a, b in zip(p1, p4):
            assert (a.accesses, a.misses, a.writebacks,
                    a.write_throughs) == (b.accesses, b.misses,
                                          b.writebacks, b.write_throughs)
        for config, point in zip(cfgs, p1):
            expected = scalar_stats(addresses, config, writes)
            assert (point.misses, point.writebacks,
                    point.write_throughs) == (expected.misses,
                                              expected.writebacks,
                                              expected.write_throughs)

    def _written_trace(self, n):
        addresses = self._trace(n)
        writes = np.random.default_rng(6).random(len(addresses)) < 0.3
        # Every other eight-reference run opens with a two-write burst.
        writes[::16] = True
        writes[1::16] = True
        return addresses, writes

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_grouped_configs_match_per_config_simulation(self, jobs,
                                                         tmp_path):
        """Each point equals its own simulate_auto, in the order asked
        for, in RAM and streamed from a container in 997-token chunks."""
        addresses, writes = self._written_trace(6_000)
        expected = [simulate_auto(addresses, config, writes=writes)
                    for config in MIXED_CONFIGS]
        kinds = np.where(writes, KIND_WRITE, KIND_READ) | (REGION_RAM << 4)
        path = tmp_path / "trace.ptrc"
        write_container(pack_tokens(addresses, kinds.astype(np.uint8)),
                        path, chunk_tokens=997)
        for points in (sweep_parallel(addresses, writes=writes,
                                      configs=MIXED_CONFIGS, jobs=jobs),
                       sweep_parallel(container=path, configs=MIXED_CONFIGS,
                                      jobs=jobs)):
            assert [p.config for p in points] == MIXED_CONFIGS
            for point, stats in zip(points, expected):
                assert (point.accesses, point.misses, point.writebacks,
                        point.write_throughs) == (
                    stats.accesses, stats.misses, stats.writebacks,
                    stats.write_throughs), point.config

    def test_work_items(self):
        """LRU write-allocate configurations become one depth family per
        (line size, set count); every other configuration is simulated
        once per write-back twin; every distinct configuration is served
        by exactly one item, ordered by line size and set count."""
        items = sweep_module._work_items(MIXED_CONFIGS, True)
        assert [(type(item).__name__, item.line, item.num_sets,
                 len(item.configs)) for item in items] == [
            ("Simulated", 16, 32, 2), ("Simulated", 16, 32, 1),
            ("Family", 16, 64, 1), ("Simulated", 16, 64, 1),
            ("Simulated", 16, 128, 1), ("Simulated", 16, 128, 1),
            ("Simulated", 32, 32, 1), ("Family", 32, 64, 2),
            ("Simulated", 32, 64, 2)]
        distinct = [c for item in items for c in item.configs]
        assert len(distinct) == len(set(distinct)) and \
            set(distinct) == set(MIXED_CONFIGS)
        for item in items:
            if isinstance(item, sweep_module.Family):
                assert item.writebacks and item.assocs == tuple(sorted(
                    {c.associativity for c in item.configs}))
                assert all(c.policy == POLICY_LRU and c.write_allocate
                           for c in item.configs)
            else:
                assert len({replace(c, write_policy=WRITE_BACK)
                            for c in item.configs}) == 1

    def test_ablation_grid_simulates_no_lru_write_allocate(self,
                                                           monkeypatch,
                                                           tmp_path):
        """Of the ablation grid's 18 configurations, the six LRU
        write-allocate ones come out of three depth families; the
        simulators built are the 9 FIFO and LRU no-write-allocate
        write-back twins, and every point matches the scalar cache.

        The sharing is structural: a one-bundle sweep refines exactly
        two chains per chunk, one per allocate mode, and not one per
        simulator, and every consumer reads their heads as read-only
        arrays."""
        built = []
        init = kernels.ChunkedSimulator.__init__

        def counting_init(self, config, *args, **kwargs):
            built.append(config)
            init(self, config, *args, **kwargs)

        chains = []
        refined_runs = kernels.refined_runs

        def read_only_runs(line_addrs, set_counts, writes=None,
                           allocate=True):
            chains.append((len(line_addrs), allocate, tuple(set_counts)))
            for heads in refined_runs(line_addrs, set_counts, writes,
                                      allocate):
                yield _read_only(heads)

        monkeypatch.setattr(kernels.ChunkedSimulator, "__init__",
                            counting_init)
        monkeypatch.setattr(kernels, "refined_runs", read_only_runs)
        addresses, writes = self._written_trace(4_000)
        points = sweep_parallel(addresses, writes=writes,
                                configs=ABLATION_GRID, jobs=1)
        assert len(built) == 9 and len(set(built)) == 9
        assert not any(c.policy == POLICY_LRU and c.write_allocate
                       for c in built)
        assert sorted(chains) == [(len(addresses), False, (32, 128, 512)),
                                  (len(addresses), True, (32, 128, 512))]
        for config, point in zip(ABLATION_GRID, points):
            expected = scalar_stats(addresses, config, writes)
            assert (point.misses, point.writebacks, point.write_throughs) \
                == (expected.misses, expected.writebacks,
                    expected.write_throughs), config
        # Streamed from a container: two chains for every chunk.
        kinds = np.where(writes, KIND_WRITE, KIND_READ) | (REGION_RAM << 4)
        path = tmp_path / "trace.ptrc"
        write_container(pack_tokens(addresses, kinds.astype(np.uint8)),
                        path, chunk_tokens=997)
        with TraceContainer(path) as container:
            n_chunks = len(container.index)
        chains.clear()
        streamed = sweep_parallel(container=path, configs=ABLATION_GRID,
                                  jobs=1)
        assert len(chains) == 2 * n_chunks
        for first, second in zip(chains[::2], chains[1::2]):
            assert first[0] == second[0]
            assert {first[1], second[1]} == {True, False}
        assert streamed == points

    def test_no_leaked_segments_after_bundle_unit_raises(self, monkeypatch):
        """A failing configs bundle surfaces as a SweepWorkerError naming
        its items (a family by line size and set count, a simulated item
        by its configurations) and none of the other bundle's, and the
        shared segments are still unlinked."""
        monkeypatch.setattr(sweep_module, "_bundle_unit_impl", _boom_on_fifo)
        items = sweep_module._work_items(MIXED_CONFIGS, True)
        failing, passing = [[items[i] for i in bundle] for bundle in
                            sweep_module._plan_bundles(len(items), 2)]
        assert any(c.policy == POLICY_FIFO
                   for item in failing for c in item.configs)
        assert not any(c.policy == POLICY_FIFO
                       for item in passing for c in item.configs)
        addresses, writes = self._written_trace(8_000)
        before = _shm_segments()
        with pytest.raises(SweepWorkerError,
                           match="injected bundle failure") as info:
            sweep_parallel(addresses, writes=writes, configs=MIXED_CONFIGS,
                           jobs=2)
        message = str(info.value)
        for config in MIXED_CONFIGS:
            if config.policy == POLICY_FIFO:
                assert repr(config) in message
        for item in failing:
            assert repr(item) in message
        for item in passing:
            assert repr(item) not in message
        assert "policy='random'" not in message
        assert _shm_segments() == before

    def test_no_leaked_segments_after_success(self):
        before = _shm_segments()
        sweep_parallel(self._trace(8_000), jobs=2)
        assert _shm_segments() == before

    def test_no_leaked_segments_after_worker_raises(self, monkeypatch):
        """A worker exception surfaces as a SweepWorkerError naming the
        failing bundle's families, and no shared-memory segment appears
        (workers are forked, so the monkeypatched bundle worker crosses
        into them)."""

        monkeypatch.setattr(sweep_module, "_bundle_unit_impl",
                            _boom_on_32b_lines)
        before = _shm_segments()
        with pytest.raises(SweepWorkerError,
                           match="injected worker failure") as info:
            sweep_parallel(self._trace(8_000), jobs=2)
        message = str(info.value)
        # jobs=2 gives one bundle per line size; only the 32 B one fails.
        for num_sets in (4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048):
            assert f"32B x {num_sets} sets" in message
        assert "16B x" not in message
        assert _shm_segments() == before

    def test_serial_fallback_used_for_single_job(self, monkeypatch):
        """jobs=1 must not touch multiprocessing at all."""

        def no_pool(*a, **k):
            raise AssertionError("Pool should not be created for jobs=1")

        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        points = sweep_parallel(self._trace(8_000), jobs=1)
        assert len(points) == 56
