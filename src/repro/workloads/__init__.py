"""Workloads: user scripts, session collection, synthetic volunteers."""

from .gremlins import (
    GremlinConfig,
    Gremlins,
    derive_entropy_seed,
    gremlin_session,
)
from .scripts import UserScript
from .sessions import CollectedSession, collect_session
from .volunteer import (
    SessionSpec,
    SyntheticUser,
    TABLE1_SESSIONS,
    build_session_script,
    collect_table1_session,
    preload_contacts,
)

__all__ = [
    "UserScript",
    "Gremlins",
    "GremlinConfig",
    "gremlin_session",
    "derive_entropy_seed",
    "CollectedSession",
    "collect_session",
    "SessionSpec",
    "SyntheticUser",
    "TABLE1_SESSIONS",
    "build_session_script",
    "collect_table1_session",
    "preload_contacts",
]
