"""The append-only campaign journal and atomic manifest.

Crash-safety model:

* the **manifest** (``manifest.json``) is written once, atomically
  (tmp + ``os.replace``), before any worker starts.  It records the
  campaign spec, its digest, and the journal format version — resume
  refuses to continue a directory whose digest doesn't match the spec
  being resumed.
* the **journal** (``journal.jsonl``) is append-only: one JSON object
  per line, flushed *and fsynced* before the supervisor considers the
  event durable.  A crash can therefore lose at most the line being
  written; :func:`read_journal` tolerates exactly that — a torn final
  line is dropped, but garbage anywhere earlier is corruption and
  raises.
* the **aggregate** (``aggregates.json``) is a pure function of the
  journal's ``done``/``quarantine`` entries, rewritten atomically at
  the end of every run.  It is a convenience export; the journal is
  the source of truth.
* the **trace store** (``traces/<session id>.ptrc``) holds each
  session's PTRC trace when ``archive_traces`` is on; the ``done``
  entries record their digests, so the directory itself is the
  multi-session trace (:class:`CampaignTraces`).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Dict, Iterator, List, Optional, Tuple, Union

from ..storage import read_json, write_json
from ..traces.container import (
    TraceContainer,
    TraceContainerError,
    cache_chunks,
    reference_counts,
)
from .campaign import CampaignFormatError, CampaignSpec

JOURNAL_NAME = "journal.jsonl"
MANIFEST_NAME = "manifest.json"
AGGREGATE_NAME = "aggregates.json"
TRACES_NAME = "traces"

MANIFEST_FORMAT = "repro-fleet-manifest"
MANIFEST_VERSION = 1

#: Journal entry kinds the supervisor writes.
ENTRY_KINDS = ("start", "done", "fail", "quarantine")


class JournalError(ValueError):
    """The journal or manifest is corrupt or belongs to a different
    campaign."""


def read_journal(path: Union[str, Path]) -> List[dict]:
    """Read every durable journal entry, tolerating torn writes.

    Every entry is flushed and fsynced before the supervisor acts on
    it, so a line that doesn't decode can only be the remains of a
    write torn by a crash — and only as the *final* line, because a
    resumed run truncates a torn tail before appending (see
    :meth:`CampaignJournal._file`).  The torn final line is dropped;
    an undecodable line anywhere earlier, or a line that decodes to
    something that is not a journal entry, means the file was edited
    or corrupted, and raises.
    """
    path = Path(path)
    if not path.exists():
        return []
    entries: List[dict] = []
    lines = path.read_bytes().split(b"\n")
    last_nonempty = max(
        (number for number, line in enumerate(lines, start=1) if line),
        default=0)
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            entry = json.loads(line.decode("utf-8"))
        except ValueError:  # UnicodeDecodeError is one too
            if lineno == last_nonempty:
                continue  # torn final write: the entry was never durable
            raise JournalError(
                f"{path}:{lineno}: undecodable journal entry before the "
                f"final line — the file is corrupt: {line[:80]!r}")
        if (not isinstance(entry, dict)
                or entry.get("kind") not in ENTRY_KINDS
                or not isinstance(entry.get("index"), int)
                or (entry["kind"] == "done"
                    and not isinstance(entry.get("stats"), dict))):
            raise JournalError(
                f"{path}:{lineno}: not a journal entry: {line[:80]!r}")
        entries.append(entry)
    return entries


class CampaignJournal:
    """Append-only writer with fsync-per-entry durability."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._handle: Optional[IO[str]] = None

    def _file(self) -> IO[str]:
        if self._handle is None or self._handle.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Drop a torn tail left by a crashed predecessor: the
            # partial line was never durable (the writer fsyncs whole
            # lines), and truncating it preserves the reader's
            # invariant that only the *final* line of a journal can
            # ever be undecodable — anything else is corruption.
            if self.path.exists() and self.path.stat().st_size:
                with open(self.path, "rb+") as probe:
                    data = probe.read()
                    if not data.endswith(b"\n"):
                        probe.truncate(data.rfind(b"\n") + 1)
                        probe.flush()
                        os.fsync(probe.fileno())
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def append(self, entry: dict) -> None:
        if entry.get("kind") not in ENTRY_KINDS:
            raise JournalError(f"unknown journal entry kind: {entry!r}")
        handle = self._file()
        handle.write(json.dumps(entry, sort_keys=True,
                                separators=(",", ":")) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def write_manifest(directory: Union[str, Path], spec_json: dict,
                   digest: str) -> None:
    write_json(Path(directory) / MANIFEST_NAME, {
        "_format": MANIFEST_FORMAT,
        "_version": MANIFEST_VERSION,
        "spec": spec_json,
        "digest": digest,
    })


def read_manifest(directory: Union[str, Path]) -> Tuple[dict, str]:
    """The campaign's ``(spec JSON, digest)``, the spec in its canonical
    form.  The digest must be the spec's own, so an edited or corrupted
    manifest fails here."""
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise JournalError(f"{path}: no manifest — not a campaign "
                           "directory (or the first run never started)")
    data = read_json(path, JournalError)
    if data.get("_format") != MANIFEST_FORMAT:
        raise JournalError(f"{path}: not a fleet manifest")
    if data.get("_version") != MANIFEST_VERSION:
        raise JournalError(
            f"{path}: unsupported manifest version {data.get('_version')!r}")
    if (not isinstance(data.get("spec"), dict)
            or not isinstance(data.get("digest"), str)):
        raise JournalError(f"{path}: manifest lacks its spec or digest")
    try:
        spec = CampaignSpec.from_json(data["spec"])
    except CampaignFormatError as exc:
        raise JournalError(f"{path}: manifest spec: {exc}") from exc
    if spec.digest() != data["digest"]:
        raise JournalError(f"{path}: manifest digest does not match its "
                           "spec (the file was edited or corrupted)")
    return spec.to_json(), data["digest"]


def replay_journal(entries: Iterator[dict]) -> Tuple[dict, dict]:
    """Fold journal entries into (completed, quarantined) maps.

    Later entries win: a ``done`` after a ``quarantine`` (a resumed run
    succeeded where the original gave up) rescues the session.
    """
    completed: dict = {}
    quarantined: dict = {}
    for entry in entries:
        index = entry.get("index")
        if entry["kind"] == "done":
            completed[index] = entry["stats"]
            quarantined.pop(index, None)
        elif entry["kind"] == "quarantine":
            if index not in completed:
                quarantined[index] = entry.get("reason", "unknown")
    return completed, quarantined


# -- the campaign's trace store -----------------------------------------

def trace_members(completed: Dict[int, dict]) -> List[Tuple[str, str]]:
    """``(session id, trace digest)`` of every completed session that
    archived its trace, in session-index order."""
    members = []
    for index in sorted(completed):
        stats = completed[index]
        digest = stats.get("trace_digest")
        if digest is None:
            continue
        session_id = stats.get("session_id")
        if not isinstance(session_id, str) or not isinstance(digest, str):
            raise JournalError(f"session {index}: journaled trace record "
                               "lacks its session id or digest")
        members.append((session_id, digest))
    return members


def trace_path(directory: Union[str, Path], session_id: str) -> Path:
    return Path(directory) / TRACES_NAME / f"{session_id}.ptrc"


def verify_traces(directory: Union[str, Path], completed: Dict[int, dict],
                  deep: bool = True) -> Dict[str, dict]:
    """The trace store's one membership check (``--resume``, ``trace
    verify``): every member file is present, holds the journaled
    digest, and (``deep``) passes the crc32 walk and digest
    recomputation, which payload corruption cannot pass.  Returns the
    verify reports by session id; a fault raises :class:`JournalError`."""
    reports = {}
    for session_id, digest in trace_members(completed):
        path = trace_path(directory, session_id)
        if not path.exists():
            raise JournalError(
                f"{path}: journaled trace container is missing — the "
                "archive does not match the journal (restore it or "
                "restart the campaign in a fresh directory)")
        try:
            with TraceContainer(path) as container:
                if container.digest != digest:
                    raise JournalError(
                        f"{path}: trace digest mismatch — journal says "
                        f"{digest[:12]}…, container holds "
                        f"{container.digest[:12]}… (the archive was "
                        "modified since the session ran)")
                reports[session_id] = container.verify(deep=deep)
        except TraceContainerError as exc:
            raise JournalError(
                f"{path}: journaled trace container failed "
                f"verification: {exc}") from exc
    return reports


class CampaignTraces:
    """A campaign directory read as one trace: the chunk source
    :func:`repro.traces.container.open_chunk_source` opens for a
    directory.  :meth:`chunks` chains the :func:`trace_members`' chunk
    streams, so a population simulates through the same bounded-memory
    kernel path as one session."""

    def __init__(self, directory: Union[str, Path]):
        self.root = Path(directory)
        self.spec, _ = read_manifest(self.root)
        self.completed, _ = replay_journal(
            iter(read_journal(self.root / JOURNAL_NAME)))
        self.members = trace_members(self.completed)
        if not self.members:
            raise JournalError(
                f"{self.root}: the campaign holds no archived session "
                "traces (run it with --archive-traces)")

    def chunks(self) -> Iterator:
        for session_id, _ in self.members:
            with TraceContainer(trace_path(self.root,
                                           session_id)) as container:
                yield from container.chunks()

    def cache_chunks(self) -> Iterator:
        return cache_chunks(self.chunks())

    def counts(self) -> dict:
        return reference_counts(self.chunks())

    def verify(self, deep: bool = True) -> Dict[str, dict]:
        return verify_traces(self.root, self.completed, deep)

    # Members are opened per call, so there is nothing to release; the
    # context protocol matches TraceContainer's for open_chunk_source.
    def close(self) -> None:
        pass

    def __enter__(self) -> "CampaignTraces":
        return self

    def __exit__(self, *exc: object) -> None:
        pass
