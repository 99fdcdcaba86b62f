"""The semantic half of ``palm-repro lint --deep``.

The structural activity-log check lives in
:mod:`repro.resilience.salvage`: one walk that both ``lint --session``
and ``replay --salvage`` run.  A log can pass it and still replay
wrong if the *code* can reach a nondeterminism source no hack traces,
so ``--deep`` adds the determinism-relevant findings of the semantic
ROM audit.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence

from .findings import Report, Severity


#: Audit finding codes that bear on replay determinism — the subset
#: ``lint --deep`` surfaces alongside the log checks.
DETERMINISM_CODES = frozenset({
    "untraced-nondeterminism",
    "nondet-reachable-from-handler",
    "code-write",
    "semantic-flash-write",
})


def deep_findings(apps: Optional[Sequence[Any]] = None,
                  hacked_traps: Optional[Iterable[int]] = None) -> Report:
    """The semantic half of ``lint --deep``: audit the ROM the session
    replays on and keep the determinism-relevant findings.

    A log can pass every structural check and still replay wrong if
    the *code* can reach a nondeterminism source no hack traces
    (``untraced-nondeterminism``) or rewrites itself out from under the
    recorded instruction stream (``code-write``).  ``hacked_traps``
    defaults to the standard logging-hack set.
    """
    from .audit import audit_rom
    result = audit_rom(apps, hacked_traps=hacked_traps)
    report = Report()
    for finding in result.report:
        if finding.code in DETERMINISM_CODES:
            report.findings.append(finding)
    contributed = len(report)
    report.add(Severity.INFO, "deep-lint",
               f"semantic ROM audit contributed {contributed} "
               f"determinism finding(s) from {len(result.trap_sites)} "
               f"trap site(s)")
    return report
