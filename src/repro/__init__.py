"""A trace-driven simulator for Palm OS devices.

A from-scratch reproduction of Carroll, Flanagan & Baniya, *A
Trace-Driven Simulator For Palm OS Devices* (ISPASS 2005): a Palm m515
device model (68k CPU, DragonBall peripherals), a Palm OS kernel with
real guest-resident state, the five activity-log collection hacks, a
POSE-style replay emulator with profiling, and the cache case study.

Quickstart::

    from repro import (collect_session, replay_session, standard_apps,
                       UserScript, Button)

    apps = standard_apps()
    script = UserScript().at(100).press(Button.MEMO).tap(50, 120)
    session = collect_session(apps, script)           # the "handheld"
    emulator, profiler, result = replay_session(      # the "desktop"
        session.initial_state, session.log, apps=apps)
    trace = profiler.reference_trace()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured results.
"""

from .apps import standard_apps
from .cache import (
    Cache,
    CacheConfig,
    RegionMix,
    paper_configurations,
)
from .device import Button, PalmDevice
from .emulator import (
    Emulator,
    JitterModel,
    PlaybackDriver,
    Profiler,
    ReferenceTrace,
    replay_session,
)
from .hacks import HackManager, standard_hacks
from .palmos import AppSpec, DatabaseImage, PalmOS, Trap
from .tracelog import ActivityLog, InitialState, LogRecord, parse_log
from .traces import generate_desktop_trace
from .validation import correlate_final_states, correlate_logs
from .workloads import (
    CollectedSession,
    SessionSpec,
    TABLE1_SESSIONS,
    UserScript,
    collect_session,
    collect_table1_session,
)

__version__ = "1.0.0"

__all__ = [
    "standard_apps",
    "Cache",
    "CacheConfig",
    "RegionMix",
    "paper_configurations",
    "Button",
    "PalmDevice",
    "Emulator",
    "JitterModel",
    "PlaybackDriver",
    "Profiler",
    "ReferenceTrace",
    "replay_session",
    "HackManager",
    "standard_hacks",
    "AppSpec",
    "DatabaseImage",
    "PalmOS",
    "Trap",
    "ActivityLog",
    "InitialState",
    "LogRecord",
    "parse_log",
    "generate_desktop_trace",
    "correlate_final_states",
    "correlate_logs",
    "CollectedSession",
    "SessionSpec",
    "TABLE1_SESSIONS",
    "UserScript",
    "collect_session",
    "collect_table1_session",
    "__version__",
]
