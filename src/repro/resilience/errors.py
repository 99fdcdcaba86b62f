"""Typed errors for the replay-resilience subsystem.

Every failure mode the resilient replay runner can hit maps to one of
these — a corrupted trace, a bad checkpoint, a divergence the policy
refuses to absorb, a malformed fault spec — so callers never have to
catch a bare ``RuntimeError`` to find out *which* invariant broke.
"""

from __future__ import annotations

# Re-exported so resilience users have one import point for the typed
# failures that originate in lower layers.
from typing import TYPE_CHECKING

from ..emulator.playback import GuestResetTimeout  # noqa: F401
from ..tracelog.records import TraceFormatError  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .replay import DivergenceReport


class ResilienceError(RuntimeError):
    """Base class for resilience-subsystem failures."""


class CheckpointError(ResilienceError):
    """A checkpoint could not be restored: it carries no emulator state
    or RAM image, or the machine is not equivalent (different sizes,
    flash or profiler configuration)."""


class FaultSpecError(ResilienceError, ValueError):
    """A ``--faults`` specification string does not parse."""


class ReplayFault(ResilienceError):
    """An injected *runtime* fault fired (fault-injection harness).

    Distinct from organic replay failures so tests can assert the
    harness itself triggered the error path under test.
    """

    def __init__(self, name: str, tick: int, detail: str = ""):
        self.fault_name = name
        self.tick = tick
        self.detail = detail
        message = f"injected fault {name!r} fired at tick {tick}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class DivergenceError(ResilienceError):
    """The live watchdog detected a divergence and the active policy is
    ``strict`` (or ``resync`` exhausted its retry budget).

    Carries the structured :class:`~repro.resilience.replay.DivergenceReport`
    so callers get the classification, the offending records, and the
    localized first divergent tick, not just a string.
    """

    def __init__(self, report: "DivergenceReport") -> None:
        self.report = report
        super().__init__(report.summary())
