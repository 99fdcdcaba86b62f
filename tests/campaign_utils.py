"""Build fleet campaign directories without running a fleet: the
manifest, journal and ``traces/`` members laid out as the supervisor
writes them, for the trace-store and durable-record tests."""

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.fleet import CampaignJournal, CampaignSpec, write_manifest
from repro.fleet.journal import JOURNAL_NAME, trace_path
from repro.traces.container import write_container


def make_campaign(root, members: Sequence[np.ndarray], *,
                  chunk_tokens: int = 64, codec: str = "zlib",
                  order: Sequence[int] = ()) -> Path:
    """A campaign at ``root`` whose session ``i`` completed with
    ``members[i]`` as its archived trace.  ``order`` is the order the
    sessions finished in (default: index order); the journal records
    them in it, as a multi-worker run would."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    spec = CampaignSpec(name=root.name, sessions=len(members),
                        archive_traces=True)
    write_manifest(root, spec.to_json(), spec.digest())
    with CampaignJournal(root / JOURNAL_NAME) as journal:
        for index in order or range(len(members)):
            session_id = f"s{index:05d}"
            path = trace_path(root, session_id)
            path.parent.mkdir(exist_ok=True)
            manifest = write_container(members[index], path, codec=codec,
                                       chunk_tokens=chunk_tokens)
            journal.append({"kind": "start", "index": index, "attempt": 0})
            journal.append({"kind": "done", "index": index, "id": session_id,
                            "stats": {"session_id": session_id,
                                      "trace_digest": manifest["digest"]}})
    return root
