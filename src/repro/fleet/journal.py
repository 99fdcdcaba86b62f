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
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Iterator, List, Optional, Tuple, Union

from ..storage import write_atomic

JOURNAL_NAME = "journal.jsonl"
MANIFEST_NAME = "manifest.json"
AGGREGATE_NAME = "aggregates.json"

MANIFEST_FORMAT = "repro-fleet-manifest"
MANIFEST_VERSION = 1

#: Journal entry kinds the supervisor writes.
ENTRY_KINDS = ("start", "done", "fail", "quarantine")


class JournalError(ValueError):
    """The journal or manifest is corrupt or belongs to a different
    campaign."""


def write_json_atomic(path: Union[str, Path], data: dict) -> None:
    """Write ``data`` as pretty, key-sorted JSON, atomically.

    Key-sorted output makes the file a canonical encoding of ``data``:
    two runs producing equal dicts produce byte-identical files, which
    is how the resume tests can simply compare bytes.
    """
    write_atomic(path, (json.dumps(data, sort_keys=True, indent=2)
                        + "\n").encode("utf-8"))


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
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    lines = text.split("\n")
    last_nonempty = max(
        (number for number, line in enumerate(lines, start=1) if line),
        default=0)
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            if lineno == last_nonempty:
                continue  # torn final write: the entry was never durable
            raise JournalError(
                f"{path}:{lineno}: undecodable journal entry before the "
                f"final line — the file is corrupt: {line[:80]!r}")
        if (not isinstance(entry, dict)
                or entry.get("kind") not in ENTRY_KINDS
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
    write_json_atomic(Path(directory) / MANIFEST_NAME, {
        "_format": MANIFEST_FORMAT,
        "_version": MANIFEST_VERSION,
        "spec": spec_json,
        "digest": digest,
    })


def read_manifest(directory: Union[str, Path]) -> Tuple[dict, str]:
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise JournalError(f"{path}: no manifest — not a campaign "
                           "directory (or the first run never started)")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise JournalError(f"{path}: corrupt manifest: {exc}") from exc
    if not isinstance(data, dict) or data.get("_format") != MANIFEST_FORMAT:
        raise JournalError(f"{path}: not a fleet manifest")
    if data.get("_version") != MANIFEST_VERSION:
        raise JournalError(
            f"{path}: unsupported manifest version {data.get('_version')!r}")
    if (not isinstance(data.get("spec"), dict)
            or not isinstance(data.get("digest"), str)):
        raise JournalError(f"{path}: manifest lacks its spec or digest")
    return data["spec"], data["digest"]


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
