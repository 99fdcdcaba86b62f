"""Declarative campaign specs and their deterministic expansion.

A *campaign* is the fleet's unit of work: a grid of configuration axes
(app mix × behavior pattern × session duration × cache geometry)
crossed with a population of seeds, expanded into a flat list of
:class:`SessionPlan` rows.  The expansion is a pure function of the
spec — the same :class:`CampaignSpec` always yields the same session
list in the same order, which is what makes ``fleet --resume`` and the
bit-identical-aggregate guarantee possible: identity lives in the
spec, not in whatever order workers happened to finish.

Session ``i`` draws its cell round-robin from the grid
(``cells[i % len(cells)]``) and its base seed as ``spec.seed + i``, so
growing ``sessions`` extends a campaign without renumbering anything
already journaled.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Sequence, Tuple

#: Version of the :meth:`CampaignSpec.to_json` container.
CAMPAIGN_JSON_FORMAT = "repro-fleet-campaign"
CAMPAIGN_JSON_VERSION = 1

BEHAVIORS = ("scripted", "gremlins")

#: Default grid axes: three app mixes (the launcher must be present —
#: it is the kernel's default app), both behavior models, two session
#: lengths, and two cache geometries from the paper's sweep range.
DEFAULT_APP_MIXES: Tuple[Tuple[str, ...], ...] = (
    ("launcher", "memopad", "addressbook", "puzzle"),
    ("launcher", "memopad", "addressbook"),
    ("launcher", "puzzle"),
)
DEFAULT_DURATIONS: Tuple[float, ...] = (0.02, 0.05)   # hours
DEFAULT_CACHES: Tuple[Tuple[int, int, int], ...] = (
    (8192, 32, 4),
    (16384, 16, 2),
)

#: Scripted-behavior activity density (bouts per simulated hour) and
#: gremlins gesture density (events per simulated hour).
BOUTS_PER_HOUR = 150.0
GREMLIN_EVENTS_PER_HOUR = 2400.0


class CampaignFormatError(ValueError):
    """A serialized :class:`CampaignSpec` is not one, or was written by
    an incompatible version of the container."""


@dataclass(frozen=True)
class CampaignCell:
    """One point of the configuration grid."""

    index: int
    app_mix: Tuple[str, ...]
    behavior: str
    duration_hours: float
    cache_size: int
    cache_line: int
    cache_assoc: int

    @property
    def bouts(self) -> int:
        """Scripted-behavior bout budget for this duration."""
        return max(2, round(self.duration_hours * BOUTS_PER_HOUR))

    @property
    def gremlin_events(self) -> int:
        """Gremlins gesture budget for this duration."""
        return max(20, round(self.duration_hours * GREMLIN_EVENTS_PER_HOUR))

    def describe(self) -> str:
        return (f"{self.behavior}/{'+'.join(self.app_mix)}"
                f"/{self.duration_hours:g}h"
                f"/{self.cache_size}B.{self.cache_line}B"
                f".{self.cache_assoc}w")


@dataclass(frozen=True)
class SessionPlan:
    """One session the fleet must run: a cell plus a population seed."""

    index: int          #: position in the campaign (stable identity)
    seed: int           #: base seed for this synthetic user
    cell: CampaignCell

    @property
    def session_id(self) -> str:
        return f"s{self.index:05d}"


@dataclass
class CampaignSpec:
    """Everything that defines a campaign.  Pure data: expanding it is
    deterministic, and its digest is the campaign's identity."""

    name: str = "campaign"
    sessions: int = 16
    seed: int = 0
    app_mixes: Tuple[Tuple[str, ...], ...] = DEFAULT_APP_MIXES
    behaviors: Tuple[str, ...] = BEHAVIORS
    durations: Tuple[float, ...] = DEFAULT_DURATIONS
    caches: Tuple[Tuple[int, int, int], ...] = DEFAULT_CACHES
    #: Replay divergence policy for every session (see
    #: :data:`repro.resilience.replay.POLICIES`).
    policy: str = "resync"
    #: Checkpoint interval (wall ticks) inside each replay;
    #: 0 means "use the policy default" (the resilient runner's 2000
    #: ticks — see :func:`repro.fleet.worker.run_session`).
    checkpoint_every: int = 0
    #: Archive every session's reference trace as a PTRC container
    #: under ``<campaign>/traces/`` and record its content digest in
    #: the journal (verified on ``--resume``).
    archive_traces: bool = False
    extra: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Normalize: tuples everywhere (JSON round trips produce lists).
        self.app_mixes = tuple(tuple(m) for m in self.app_mixes)
        self.behaviors = tuple(self.behaviors)
        self.durations = tuple(float(d) for d in self.durations)
        self.caches = tuple((int(s), int(line), int(a))
                            for s, line, a in self.caches)
        if self.sessions < 1:
            raise CampaignFormatError("a campaign needs at least 1 session")
        for behavior in self.behaviors:
            if behavior not in BEHAVIORS:
                raise CampaignFormatError(
                    f"unknown behavior {behavior!r} "
                    f"(known: {', '.join(BEHAVIORS)})")
        for mix in self.app_mixes:
            if "launcher" not in mix:
                raise CampaignFormatError(
                    f"app mix {mix!r} lacks 'launcher' — it is the "
                    "kernel's default app and must be installed")

    # -- expansion --------------------------------------------------------
    def cells(self) -> List[CampaignCell]:
        """The configuration grid, in canonical axis order."""
        grid = []
        axes = product(self.app_mixes, self.behaviors, self.durations,
                       self.caches)
        for idx, (mix, behavior, hours, cache) in enumerate(axes):
            size, line, assoc = cache
            grid.append(CampaignCell(
                index=idx, app_mix=tuple(mix), behavior=behavior,
                duration_hours=hours, cache_size=size, cache_line=line,
                cache_assoc=assoc))
        return grid

    def expand(self) -> List[SessionPlan]:
        """The full deterministic session list."""
        grid = self.cells()
        return [SessionPlan(index=i, seed=self.seed + i,
                            cell=grid[i % len(grid)])
                for i in range(self.sessions)]

    # -- serialization ----------------------------------------------------
    def to_json(self) -> dict:
        data = {
            "_format": CAMPAIGN_JSON_FORMAT,
            "_version": CAMPAIGN_JSON_VERSION,
            "name": self.name,
            "sessions": self.sessions,
            "seed": self.seed,
            "app_mixes": [list(m) for m in self.app_mixes],
            "behaviors": list(self.behaviors),
            "durations": list(self.durations),
            "caches": [list(c) for c in self.caches],
            "policy": self.policy,
            "checkpoint_every": self.checkpoint_every,
            "extra": dict(self.extra),
        }
        # Only serialized when on, so digests (campaign identity) of
        # pre-existing non-archiving campaigns stay resumable.
        if self.archive_traces:
            data["archive_traces"] = True
        return data

    @classmethod
    def from_json(cls, data: dict) -> "CampaignSpec":
        if not isinstance(data, dict) or data.get("_format") != CAMPAIGN_JSON_FORMAT:
            raise CampaignFormatError("not a serialized CampaignSpec")
        if data.get("_version") != CAMPAIGN_JSON_VERSION:
            raise CampaignFormatError(
                f"unsupported CampaignSpec version {data.get('_version')!r}")
        try:
            return cls(
                name=data["name"],
                sessions=data["sessions"],
                seed=data["seed"],
                app_mixes=tuple(tuple(m) for m in data["app_mixes"]),
                behaviors=tuple(data["behaviors"]),
                durations=tuple(data["durations"]),
                caches=tuple(tuple(c) for c in data["caches"]),
                policy=data["policy"],
                checkpoint_every=data["checkpoint_every"],
                archive_traces=bool(data.get("archive_traces", False)),
                extra=dict(data.get("extra", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, CampaignFormatError):
                raise
            raise CampaignFormatError(
                f"malformed CampaignSpec container: {exc}") from exc

    def digest(self) -> str:
        """Campaign identity: a stable hash of the canonical spec.
        ``--resume`` refuses to mix journals from different specs."""
        blob = json.dumps(self.to_json(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def mix_to_apps(mix: Sequence[str]):
    """Resolve an app-mix name tuple against the standard suite."""
    from ..apps import standard_apps

    by_name = {app.name: app for app in standard_apps()}
    unknown = [name for name in mix if name not in by_name]
    if unknown:
        raise CampaignFormatError(
            f"unknown app(s) {', '.join(unknown)} "
            f"(known: {', '.join(sorted(by_name))})")
    return [by_name[name] for name in mix]
