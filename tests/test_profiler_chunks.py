"""The profiler seals its reference trace at one fixed grain.

Per-token appends, the fused core's vectorized fill blocks and the trap
layer's ``_ram_run`` byte runs all drain into one staging buffer, so
every sealed chunk holds exactly ``TRACE_CHUNK`` tokens whatever mix of
paths produced it — and the stream, the derived counts and the PTRC
digest are the simple core's, token for token.
"""

import collections
import sys

import numpy as np
import pytest

from repro.apps import standard_apps
from repro.emulator import PlaybackDriver, replay_session
from repro.emulator.pose import Emulator
from repro.emulator.profiling import TRACE_CHUNK, Profiler
from repro.traces.container import ContainerWriter
from repro.workloads.gremlins import (
    GremlinConfig,
    Gremlins,
    derive_entropy_seed,
)
from repro.workloads.sessions import collect_session

EMU_KW = {"ram_size": 8 << 20, "flash_size": 1 << 20}
_APPS = [a for a in standard_apps() if a.name in ("launcher", "memopad")]


@pytest.fixture(scope="module")
def session():
    script = Gremlins(5, GremlinConfig(events=40)).build_script()
    return collect_session(
        _APPS, script, name="chunks",
        entropy_seed=derive_entropy_seed(5, _APPS, 40),
        ram_size=EMU_KW["ram_size"], default_app="launcher")


@pytest.fixture(scope="module")
def replays(session):
    """``core -> (profiler, bulk callers)`` for the fused and simple
    cores; the callers count ``bulk_references`` calls by the name of
    the calling function (``_ram_run`` for trap byte runs, anything
    else is fused code)."""
    original = Profiler.bulk_references
    callers = collections.Counter()

    def counting(self, chunk):
        callers[sys._getframe(1).f_code.co_name] += 1
        return original(self, chunk)

    out = {}
    Profiler.bulk_references = counting
    try:
        for core in ("fast", "simple"):
            callers.clear()
            _, prof, _ = replay_session(
                session.initial_state, session.log, apps=_APPS,
                emulator_kwargs={**EMU_KW, "core": core})
            out[core] = (prof, dict(callers))
    finally:
        Profiler.bulk_references = original
    return out


def test_bulk_and_ram_run_paths_seal_at_the_grain(replays):
    prof, callers = replays["fast"]
    assert callers.pop("_ram_run", 0) > 0, "no trap byte runs"
    assert sum(callers.values()) > 0, "no fused bulk fills"
    assert len(prof._chunks) >= 3
    assert all(len(c) == TRACE_CHUNK for c in prof._chunks)
    streamed = [len(c) for c in prof.chunks()]
    assert all(n == TRACE_CHUNK for n in streamed[:-1])
    assert 0 < streamed[-1] <= TRACE_CHUNK
    assert sum(streamed) == prof.trace_tokens


def ptrc_digest(prof, path):
    with ContainerWriter(path) as writer:
        for chunk in prof.chunks():
            writer.append_tokens(chunk)
    return writer.manifest["digest"]


def test_fused_stream_matches_simple_core(replays, tmp_path):
    fused, _ = replays["fast"]
    simple, _ = replays["simple"]
    assert np.array_equal(np.concatenate(list(fused.chunks())),
                          np.concatenate(list(simple.chunks())))
    assert fused.counts_dict() == simple.counts_dict()
    assert fused.counts_dict(memory_only=True) == \
        simple.counts_dict(memory_only=True)
    assert fused.trace_tokens == simple.trace_tokens
    assert ptrc_digest(fused, tmp_path / "f.ptrc") == \
        ptrc_digest(simple, tmp_path / "s.ptrc")


def unsealed(prof):
    return (len(prof._chunks), prof._fill, len(prof._pending))


def test_mid_run_readers_seal_nothing(session):
    emulator = Emulator(apps=_APPS, **EMU_KW)
    emulator.load_state(session.initial_state, final_reset=False)
    prof = emulator.start_profiling(trace_references=True)
    seen = []

    def read_everything(_checkpoint):
        before = unsealed(prof)
        counts = prof.counts_dict()
        tokens = prof.trace_tokens
        stream = np.concatenate(list(prof.chunks()))
        assert unsealed(prof) == before
        kinds = (stream >> np.uint64(32)).astype(np.uint8)
        assert counts["fetch"] + counts["read"] + counts["write"] == \
            tokens == len(stream)
        assert counts["write"] == int(np.sum((kinds & 0x0F) == 2))
        seen.append(before)

    PlaybackDriver(emulator, session.log, checkpoint_every=500,
                   checkpoint_hook=read_everything).run(reset=True)
    # Some reads happened with an unsealed tail in flight.
    assert any(fill or pending for _, fill, pending in seen)


def test_flush_trace_sink_seals_the_short_tail(tmp_path):
    prof = Profiler()
    tokens = np.arange(TRACE_CHUNK + 100, dtype=np.uint64) | \
        np.uint64(1 << 32)
    with ContainerWriter(tmp_path / "t.ptrc") as writer:
        prof.attach_trace_sink(writer)
        prof.bulk_references(tokens[:50])
        for tok in tokens[50:]:
            prof.reference(int(tok) & 0xFFFFFFFF, 1, 0)
        assert [len(c) for c in prof._chunks] == [TRACE_CHUNK]
        assert writer.tokens_written == TRACE_CHUNK
        prof.flush_trace_sink()
        assert [len(c) for c in prof._chunks] == [TRACE_CHUNK, 100]
    assert writer.manifest["tokens"] == len(tokens)
    assert np.array_equal(np.concatenate(list(prof.chunks())), tokens)


def _token_stream(n, seed=17):
    rng = np.random.default_rng(seed)
    addrs = rng.integers(0, 1 << 32, n, dtype=np.uint64)
    kinds = rng.integers(0, 3, n, dtype=np.uint64) | \
        (rng.integers(0, 3, n, dtype=np.uint64) << np.uint64(4))
    return addrs | (kinds << np.uint64(32))


def _record(prof, tokens):
    for tok in tokens.tolist():
        kb = tok >> 32
        prof.reference(tok & 0xFFFFFFFF, kb & 0x0F, kb >> 4)


def test_restore_of_a_tail_longer_than_one_chunk():
    # Staged tokens plus a pending list not yet drained can hold more
    # than TRACE_CHUNK tokens between them; restoring such a snapshot
    # must re-stage them at the grain, not overflow the stage buffer.
    tokens = _token_stream(2 * TRACE_CHUNK + 500)
    head = 60_000 + 10_000
    prof = Profiler()
    prof.bulk_references(tokens[:60_000])
    _record(prof, tokens[60_000:head])
    assert prof._chunks == []
    assert prof._fill + len(prof._pending) > TRACE_CHUNK
    snap = prof.trace_snapshot()
    counts = prof.counts_dict()

    _record(prof, tokens[head:])
    first = [c.copy() for c in prof.chunks()]
    first_sealed = len(prof._chunks)
    first_counts = prof.counts_dict()

    prof.restore_snapshot(snap)
    assert [len(c) for c in prof._chunks] == [TRACE_CHUNK]
    assert prof.counts_dict() == counts
    assert prof.trace_tokens == head
    assert np.array_equal(np.concatenate(list(prof.chunks())),
                          tokens[:head])
    _record(prof, tokens[head:])
    assert [len(c) for c in prof._chunks] == [TRACE_CHUNK] * first_sealed
    again = list(prof.chunks())
    assert [len(c) for c in again] == [len(c) for c in first]
    assert all(np.array_equal(a, b) for a, b in zip(again, first))
    assert prof.counts_dict() == first_counts
    assert np.array_equal(np.concatenate(again), tokens)

    # The snapshot is unchanged by the recording past its restore: a
    # second profiler restores the same chunks and tail from it.
    fresh = Profiler()
    fresh.restore_snapshot(snap)
    assert [len(c) for c in fresh._chunks] == [TRACE_CHUNK]
    assert fresh.counts_dict() == counts
    assert np.array_equal(np.concatenate(list(fresh.chunks())),
                          tokens[:head])
