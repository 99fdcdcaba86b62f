"""Typed findings for the static analyzers.

Every check — the ROM CFG diagnostics, the trap census cross-check and
the activity-log check (:mod:`repro.resilience.salvage`) — reports
through the same :class:`Finding`/:class:`Report` pair, so the CLI and
the tests can treat "zero error-severity findings" as one uniform
acceptance gate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, List, Optional, Set, Tuple

from ...storage import PathLike, read_json, write_json


class Severity(IntEnum):
    """Finding severity, ordered so ``max()`` picks the worst.

    This scale is shared by *every* diagnostic producer in the tree —
    the CFG analyzer, the semantic audit and the activity-log check
    (:func:`repro.resilience.salvage.salvage_log`) — so severities
    compare meaningfully across reports:

    * ``ERROR`` — the artifact is wrong: code that executes incorrectly
      on the emulated CPU, a record that cannot be replayed, a dynamic
      observation that contradicts a static guarantee.  CI gates fail
      on errors.
    * ``WARNING`` — replay or analysis proceeds but fidelity is at
      risk (an unhacked nondeterminism source, a salvaged-over record,
      an unmapped access on a maybe-dead path).
    * ``INFO`` — diagnostics and summaries; never gating.
    """

    INFO = 0
    WARNING = 1
    ERROR = 2

    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a static check.

    ``code`` is a stable machine-readable identifier (kebab-case);
    ``address`` is the guest address the finding anchors to (or the
    record index, for activity-log findings); ``block`` is the start
    address of the containing basic block when the finding came out of
    the CFG.
    """

    severity: Severity
    code: str
    message: str
    address: Optional[int] = None
    block: Optional[int] = None

    def format(self) -> str:
        where = f"{self.address:#010x}: " if self.address is not None else ""
        return f"{self.severity.label():7s} [{self.code}] {where}{self.message}"


class Report:
    """An ordered collection of findings with severity accounting."""

    def __init__(self, findings: Optional[List[Finding]] = None):
        self.findings: List[Finding] = list(findings or [])

    def add(self, severity: Severity, code: str, message: str,
            address: Optional[int] = None,
            block: Optional[int] = None) -> Finding:
        finding = Finding(severity, code, message, address, block)
        self.findings.append(finding)
        return finding

    def extend(self, other: "Report") -> None:
        self.findings.extend(other.findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    # -- severity accounting -------------------------------------------
    def by_severity(self, severity: Severity) -> List[Finding]:
        return [f for f in self.findings if f.severity == severity]

    @property
    def errors(self) -> List[Finding]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Finding]:
        return self.by_severity(Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True when no error-severity finding is present."""
        return not self.errors

    def codes(self) -> List[str]:
        return [f.code for f in self.findings]

    def has(self, code: str) -> bool:
        return any(f.code == code for f in self.findings)

    def at(self, address: int) -> List[Finding]:
        return [f for f in self.findings if f.address == address]

    def sorted(self) -> List[Finding]:
        """Findings in stable presentation order: worst severity first,
        then by anchor address (address-less findings last), preserving
        insertion order between ties.  Every renderer and baseline diff
        uses this order so output never depends on check scheduling.
        """
        return sorted(
            self.findings,
            key=lambda f: (-int(f.severity),
                           f.address is None,
                           f.address if f.address is not None else 0))

    # -- rendering ------------------------------------------------------
    def format(self, min_severity: Severity = Severity.INFO) -> str:
        lines = [f.format() for f in self.sorted()
                 if f.severity >= min_severity]
        counts = (f"{len(self.errors)} error(s), "
                  f"{len(self.warnings)} warning(s), "
                  f"{len(self.by_severity(Severity.INFO))} info")
        lines.append(counts)
        return "\n".join(lines)


# -- baselines --------------------------------------------------------------
# A baseline freezes the (code, address) identity of every WARNING+
# finding as ``{"version": 1, "findings": [[code, address], ...]}``; the
# CI gates (audit, verify-codegen) fail only on findings not in it.

BaselineKeys = Set[Tuple[str, Optional[int]]]


def baseline_keys(report: Report) -> List[Tuple[str, Optional[int]]]:
    """The (code, address) identity of every WARNING+ finding."""
    return sorted({(f.code, f.address) for f in report
                   if f.severity >= Severity.WARNING},
                  key=lambda k: (k[0], k[1] if k[1] is not None else -1))


def baseline_pairs(pairs: object, path: PathLike) -> BaselineKeys:
    """The keys of a baseline's ``[[code, address], ...]`` list; any
    other value raises ``ValueError`` naming ``path``."""
    if isinstance(pairs, list) and all(
            isinstance(pair, list) and len(pair) == 2
            and isinstance(pair[0], str)
            and (pair[1] is None or isinstance(pair[1], int))
            for pair in pairs):
        return {(code, address) for code, address in pairs}
    raise ValueError(f"{os.fspath(path)}: not a findings baseline")


def load_baseline(path: PathLike) -> BaselineKeys:
    return baseline_pairs(read_json(path, ValueError).get("findings"), path)


def save_baseline(report: Report, path: PathLike) -> None:
    write_json(path, {"version": 1,
                      "findings": [list(key) for key in baseline_keys(report)]})


def new_findings_against(report: Report,
                         baseline: BaselineKeys) -> List[Finding]:
    """WARNING+ findings not present in the baseline — the only thing
    the CI gate fails on."""
    return [f for f in report
            if f.severity >= Severity.WARNING
            and (f.code, f.address) not in baseline]


@dataclass(frozen=True)
class CheckContext:
    """Address-space facts the CFG checks need.

    ``flash_range`` is the write-protected flash window; ``code_range``
    bounds the region control flow may legitimately target.
    """

    code_range: tuple = (0, 1 << 32)
    flash_range: Optional[tuple] = None
