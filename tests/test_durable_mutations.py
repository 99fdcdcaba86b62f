"""Seeded mutations of every durable input a campaign trace store, a
session archive and a findings baseline are read from.

Each input is truncated at a seeded offset and overwritten with seeded
garbage bytes; the PTRC members, whose frames are checksummed, and the
activity log also take single bit flips.  A mutant must read back equal
or raise its format's typed error (a ``ValueError`` subclass) — never a
bare ``KeyError``, ``struct.error``, ``zlib.error``,
``UnicodeDecodeError`` or any other untyped exception.  What "equal"
means per input:

* a PTRC member and the campaign ``manifest.json`` (its digest names
  its spec): the data read back equals the original's;
* the journal: every member the campaign reads back (deep-verified)
  is an original member with identical tokens — a torn final line may
  drop the session it recorded, as it was never durable;
* ``state.json``, ``activity_log.pdb`` and a baseline carry no
  checksum: a mutant that still decodes may say something else, and
  then reads back as what it says; one that decodes to the original
  reads back equal.  A truncated activity log never reads back short.

The directories are built directly (``write_manifest``,
``CampaignJournal``, ``write_container``); no fleet or replay runs.
"""

import json
import random
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.static.findings import (Report, Severity, load_baseline,
                                            save_baseline)
from repro.fleet.journal import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    JournalError,
    read_manifest,
    trace_path,
)
from repro.palmos.database import DatabaseImage
from repro.traces.container import (
    TraceContainer,
    TraceContainerError,
    open_chunk_source,
)
from repro.tracelog import (ActivityLog, InitialState, LogEventType,
                            LogRecord, TraceFormatError)
from tests.campaign_utils import make_campaign

SEEDS = range(64)
#: Errors a reader must never let escape.
UNTYPED = (KeyError, IndexError, TypeError, AttributeError, struct.error,
           zlib.error, UnicodeDecodeError, OverflowError, MemoryError)


def mutants(data: bytes, seed: int, bitflips: bool = False):
    """``(kind, bytes)`` mutants of ``data`` for one seed."""
    rng = random.Random(seed)
    yield "truncate", data[:rng.randrange(len(data))]
    at = rng.randrange(len(data))
    garbage = bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
    yield "garbage", data[:at] + garbage + data[at + len(garbage):]
    if bitflips:
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        yield "bitflip", bytes(flipped)


def read_typed(reader, error):
    """``reader()``'s value, or None when it raised ``error``; an
    untyped exception fails the test (any other escapes and errors)."""
    try:
        return reader()
    except UNTYPED as exc:
        pytest.fail(f"untyped {type(exc).__name__}: {exc}")
    except error:
        return None


def read_member(path: Path) -> np.ndarray:
    with TraceContainer(path) as container:
        container.verify(deep=True)
        return container.tokens_array()


def tokens(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 1 << 26, size=n, dtype=np.uint64)
            | rng.integers(0, 0x40, size=n, dtype=np.uint64) << np.uint64(32))


def campaign_members(root: Path):
    """Each member's deep-verified tokens by session id."""
    with open_chunk_source(root) as campaign:
        campaign.verify(deep=True)
        out = {}
        for session_id, _ in campaign.members:
            with TraceContainer(trace_path(root, session_id)) as member:
                out[session_id] = member.tokens_array()
        return out


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    members = [tokens(300, seed=1), tokens(200, seed=2)]
    root = make_campaign(tmp_path_factory.mktemp("pristine") / "camp",
                         members, codec="zlib", chunk_tokens=128)
    return root, campaign_members(root)


def mutate_file(pristine: Path, scratch: Path, name: str, seed: int,
                bitflips: bool = False):
    """Copies of the campaign ``pristine`` with file ``name`` mutated."""
    data = (pristine / name).read_bytes()
    for kind, blob in mutants(data, seed, bitflips):
        root = scratch / f"{kind}-{seed}"
        shutil.copytree(pristine, root)
        (root / name).write_bytes(blob)
        yield kind, root


def same_members(got, original) -> bool:
    return all(session_id in original
               and np.array_equal(got[session_id], original[session_id])
               for session_id in got)


class TestCampaignStore:
    def test_manifest(self, campaign, tmp_path):
        root, _ = campaign
        original = read_manifest(root)
        for seed in SEEDS:
            for kind, mutant in mutate_file(root, tmp_path, MANIFEST_NAME,
                                            seed):
                got = read_typed(lambda: read_manifest(mutant), JournalError)
                assert got in (None, original), (kind, seed)

    def test_journal(self, campaign, tmp_path):
        root, original = campaign
        for seed in SEEDS:
            for kind, mutant in mutate_file(root, tmp_path, JOURNAL_NAME,
                                            seed):
                got = read_typed(lambda: campaign_members(mutant),
                                 JournalError)
                assert got is None or same_members(got, original), \
                    (kind, seed)

    @pytest.mark.parametrize("member", ["s00000", "s00001"])
    def test_member_ptrc(self, campaign, tmp_path, member):
        root, original = campaign
        name = f"traces/{member}.ptrc"
        for seed in SEEDS:
            for kind, mutant in mutate_file(root, tmp_path, name, seed,
                                            bitflips=True):
                got = read_typed(lambda: read_member(mutant / name),
                                 TraceContainerError)
                assert got is None or np.array_equal(got, original[member]), \
                    (kind, seed)
                # Through the campaign, a member fault is the journal's
                # typed error.
                got = read_typed(lambda: campaign_members(mutant),
                                 JournalError)
                assert got is None or same_members(got, original), \
                    (kind, seed)


def documents_equal(blob: bytes, original: bytes) -> bool:
    try:
        return json.loads(blob.decode("utf-8")) == json.loads(original)
    except ValueError:
        return False


def test_state_json(tmp_path):
    pristine = tmp_path / "pristine"
    InitialState(flash_image=b"\x4e\x75" * 8,
                 databases=[DatabaseImage(name=f"Db{i}", type="DATA",
                                          creator="test")
                            for i in range(2)],
                 rtc_base=3_124_137_600).save(pristine)
    original = InitialState.load(pristine)
    data = (pristine / "state.json").read_bytes()
    for seed in SEEDS:
        for kind, blob in mutants(data, seed):
            root = tmp_path / f"{kind}-{seed}"
            shutil.copytree(pristine, root)
            (root / "state.json").write_bytes(blob)
            got = read_typed(lambda: InitialState.load(root),
                             TraceFormatError)
            if documents_equal(blob, data):
                assert got == original, (kind, seed)
            elif got is not None:
                # A different, well-formed document: read as it says.
                meta = json.loads(blob.decode("utf-8"))
                assert got.rtc_base == meta["rtc_base"], (kind, seed)
                assert len(got.databases) == len(meta["databases"])


def test_baseline(tmp_path):
    report = Report()
    report.add(Severity.WARNING, "tv-uncovered", "w", address=0x100)
    report.add(Severity.ERROR, "tv-mismatch-pc", "e", address=None)
    path = tmp_path / "baseline.json"
    save_baseline(report, path)
    original = load_baseline(path)
    data = path.read_bytes()
    for seed in SEEDS:
        for kind, blob in mutants(data, seed):
            path.write_bytes(blob)
            # Baselines have no format class of their own: ValueError.
            got = read_typed(lambda: load_baseline(path), ValueError)
            if documents_equal(blob, data):
                assert got == original, (kind, seed)
            elif got is not None:
                findings = json.loads(blob.decode("utf-8"))["findings"]
                assert got == {tuple(pair) for pair in findings}


def records_spelled(blob: bytes):
    """The records a PDB's bytes spell by the format's layout (big-endian
    record count at +76, an 8-byte index entry per record whose first
    u32 is its offset, each record running to the next offset), or None
    when they spell no activity log."""
    if len(blob) < 78:
        return None
    count = int.from_bytes(blob[76:78], "big")
    if len(blob) < 78 + 8 * count:
        return None
    starts = [int.from_bytes(blob[78 + 8 * i:82 + 8 * i], "big")
              for i in range(count)]
    try:
        return [LogRecord.decode(blob[start:end])
                for start, end in zip(starts, starts[1:] + [len(blob)])]
    except TraceFormatError:
        return None


def test_activity_log(tmp_path):
    rng = random.Random(7)
    types = list(LogEventType)
    log = ActivityLog([LogRecord(types[i % len(types)], 100 + 17 * i,
                                 5000 + i, rng.randrange(1 << 16))
                       for i in range(40)])
    path = tmp_path / "activity_log.pdb"
    log.save(path)
    data = path.read_bytes()
    for seed in SEEDS:
        for kind, blob in mutants(data, seed, bitflips=True):
            path.write_bytes(blob)
            got = read_typed(lambda: ActivityLog.load(path),
                             TraceFormatError)
            if kind == "truncate":
                assert got in (None, log), (kind, seed)
            elif got is not None:
                assert got.records == records_spelled(blob), (kind, seed)
