"""Population-scale replay fleet.

The paper measures one traced session at a time; the ROADMAP's
north-star ("heavy traffic from millions of users") needs thousands of
distinct synthetic-user sessions replayed as one crash-survivable
campaign.  This package is that layer, built robustness-first:

* :mod:`.campaign` — declarative grid spec, deterministically expanded;
* :mod:`.worker` — one sandboxed process per session, running the full
  collect→replay→simulate pipeline;
* :mod:`.supervisor` — heartbeats, hang-timeout kills, bounded retry
  with backoff, quarantine, append-only fsynced journal, resume;
* :mod:`.aggregate` — mergeable, order-independent population stats;
* :mod:`.chaos` — seeded crash/stall/poison injection with a
  self-test oracle over the recovery paths.
"""

from .aggregate import (
    AGGREGATE_JSON_FORMAT,
    AGGREGATE_JSON_VERSION,
    STATS_KEYS,
    AggregateError,
    PopulationAggregate,
    percentile,
    validate_stats,
)
from .campaign import (
    BEHAVIORS,
    CAMPAIGN_JSON_FORMAT,
    CAMPAIGN_JSON_VERSION,
    CampaignCell,
    CampaignFormatError,
    CampaignSpec,
    SessionPlan,
    mix_to_apps,
)
from .chaos import POISON_FAULTS, ChaosPlan, verify_chaos
from .journal import (
    AGGREGATE_NAME,
    JOURNAL_NAME,
    MANIFEST_NAME,
    CampaignJournal,
    JournalError,
    read_journal,
    read_manifest,
    replay_journal,
    write_manifest,
)
from .supervisor import (
    FleetResult,
    FleetSupervisor,
    resume_campaign,
    run_campaign,
)
from .worker import run_session, worker_main

__all__ = [
    "CampaignSpec",
    "CampaignCell",
    "SessionPlan",
    "CampaignFormatError",
    "BEHAVIORS",
    "CAMPAIGN_JSON_FORMAT",
    "CAMPAIGN_JSON_VERSION",
    "mix_to_apps",
    "PopulationAggregate",
    "AggregateError",
    "STATS_KEYS",
    "AGGREGATE_JSON_FORMAT",
    "AGGREGATE_JSON_VERSION",
    "percentile",
    "validate_stats",
    "CampaignJournal",
    "JournalError",
    "read_journal",
    "replay_journal",
    "read_manifest",
    "write_manifest",
    "JOURNAL_NAME",
    "MANIFEST_NAME",
    "AGGREGATE_NAME",
    "FleetSupervisor",
    "FleetResult",
    "run_campaign",
    "resume_campaign",
    "ChaosPlan",
    "verify_chaos",
    "POISON_FAULTS",
    "run_session",
    "worker_main",
]
