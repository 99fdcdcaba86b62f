"""Per-block translation validation.

:func:`validate_block` proves one fused superblock equivalent to the
per-insn reference semantics over a driving battery (see
:mod:`.engine`): both sides run against identical harness machines and
every observable is compared — pc, batched cycle accounting, the five
condition flags, registers, memory effects, the packed trace-token
stream (position-exact, including the vectorized counted-fill
prelude), watch hits and fallback bus calls.  On top of the state
comparison, claim-mode reference runs discharge the *scheduling*
obligations: every per-insn budget gate the interpreted loop would
have taken must fire in the generated code (``tv-gate-missing``), and
every early exit must be justified by a stop condition the reference
machine actually exhibits (``tv-mismatch-exit``).

Anything the validator cannot prove is a typed finding — unreachable
arms are ``tv-uncovered`` warnings, uninstrumentable sources are
``tv-unsupported`` — never a silent pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Optional, Set, Tuple

from ..static.findings import Report, Severity
from .engine import build_vectors, instrument, random_vector
from .machine import (HarnessState, RunResult, Vector, Workspace,
                      make_gen_env)
from .reference import StepLog, run_reference

#: Extra random vectors tried for arms the standard battery missed.
SEARCH_BUDGET = 16


@dataclass
class BlockStats:
    """Accounting for one validated block."""

    pc: int = 0
    source_hash: str = ""
    vectors: int = 0
    arms: int = 0
    arms_covered: int = 0
    arms_dead: int = 0
    findings: int = 0


def workspace_for(prov: Any) -> Workspace:
    return Workspace(prov.ram_base, prov.ram_limit,
                     prov.flash_base, prov.flash_limit)


def _serviceable(pending: int, imask: int) -> bool:
    return bool(pending and (pending > imask or pending == 7))


def _run_gen(code: Any, prov: Any, ws: Workspace, vector: Vector,
             covered: Set[int]) -> RunResult:
    state = HarnessState(ws, vector, prov.pages, prov.region, prov.pc)
    env = make_gen_env(state, prov, covered.add)
    exec(code, env)
    fn = env["f"]
    ex = [0]
    fault: Optional[Tuple[str, str]] = None
    try:
        fn(state.cpu, state.limit, ex)
    except Exception as exc:
        fault = (type(exc).__name__, repr(exc.args))
    result = state.snapshot(ex[0], fault)
    ws.restore()
    return result


def _run_ref(prov: Any, ws: Workspace, vector: Vector,
             count: Optional[int]) -> Tuple[RunResult, StepLog]:
    state = HarnessState(ws, vector, prov.pages, prov.region, prov.pc)
    result, log = run_reference(prov, state, count=count)
    ws.restore()
    return result, log


def _is_branch_insn(op: int) -> bool:
    """bcc/bra (group 6) and dbcc both exit the fused body even when
    the taken target coincides with the next chained entry — those
    exits are state-exact and the dispatcher re-enters, so they are
    always legitimate."""
    return (op >> 12) == 6 or (op & 0xF0F8) == 0x50C8


class _Mismatch(Exception):
    """Internal: carries the first divergence for one vector."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(detail)
        self.code = code
        self.detail = detail


def _check_pair(prov: Any, vector: Vector, gen: RunResult,
                ref: RunResult, log: StepLog) -> None:
    """Raise :class:`_Mismatch` on the first observable divergence."""
    if log.pc_stop is not None:
        raise _Mismatch(
            "tv-mismatch-exit",
            f"claims {gen.executed} insns executed but control left "
            f"the chain after step {log.pc_stop} (ref pc {ref.pc:#x})")
    if gen.fault != ref.fault:
        raise _Mismatch("tv-mismatch-fault",
                        f"gen fault {gen.fault} != ref fault {ref.fault}")
    if gen.tokens != ref.tokens:
        n = min(len(gen.tokens), len(ref.tokens))
        at = next((i for i in range(n)
                   if gen.tokens[i] != ref.tokens[i]), n)
        gt = f"{gen.tokens[at]:#x}" if at < len(gen.tokens) else "<end>"
        rt = f"{ref.tokens[at]:#x}" if at < len(ref.tokens) else "<end>"
        raise _Mismatch(
            "tv-mismatch-token",
            f"trace token stream diverges at index {at}: "
            f"gen {gt} != ref {rt} "
            f"({len(gen.tokens)} vs {len(ref.tokens)} tokens)")
    if gen.pc != ref.pc:
        raise _Mismatch("tv-mismatch-pc",
                        f"pc {gen.pc:#x} != ref {ref.pc:#x}")
    if gen.cycles != ref.cycles:
        raise _Mismatch("tv-mismatch-cycles",
                        f"cycles {gen.cycles} != ref {ref.cycles}")
    if gen.flags != ref.flags:
        raise _Mismatch(
            "tv-mismatch-flags",
            f"flags x/n/z/v/c {gen.flags} != ref {ref.flags}")
    if gen.d != ref.d or gen.a != ref.a:
        which = "d" if gen.d != ref.d else "a"
        raise _Mismatch("tv-mismatch-reg",
                        f"{which}-registers diverge: "
                        f"gen {getattr(gen, which)} != "
                        f"ref {getattr(ref, which)}")
    if (gen.sr != ref.sr or gen.stopped != ref.stopped
            or gen.pending_irq != ref.pending_irq
            or gen.valid != ref.valid):
        raise _Mismatch(
            "tv-mismatch-reg",
            f"machine state diverges: sr {gen.sr:#x}/{ref.sr:#x} "
            f"stopped {gen.stopped}/{ref.stopped} "
            f"irq {gen.pending_irq}/{ref.pending_irq} "
            f"valid {gen.valid}/{ref.valid}")
    if gen.mem_effects != ref.mem_effects:
        only_g = {k: v for k, v in gen.mem_effects.items()
                  if ref.mem_effects.get(k) != v}
        only_r = {k: v for k, v in ref.mem_effects.items()
                  if gen.mem_effects.get(k) != v}
        raise _Mismatch(
            "tv-mismatch-mem",
            f"memory effects diverge: gen-only {dict(list(only_g.items())[:4])} "
            f"ref-only {dict(list(only_r.items())[:4])}")
    # Event tuples end with the token-list length at the time of the
    # event; that interleaving position is a batching artifact (fused
    # code flushes trace tokens per segment, the reference per insn)
    # and the real trace order is already proven by the token-stream
    # comparison above — so compare events with the position stripped.
    gen_ev = [e[:-1] for e in gen.events]
    ref_ev = [e[:-1] for e in ref.events]
    if gen_ev != ref_ev:
        raise _Mismatch(
            "tv-mismatch-mem",
            f"watch/bus event journal diverges: "
            f"gen {gen_ev[:4]} != ref {ref_ev[:4]}")
    # -- scheduling obligations ----------------------------------------
    gates = [j for j in log.budget_stops if j > 0]
    if gates:
        raise _Mismatch(
            "tv-gate-missing",
            f"budget exhausted before step {gates[0]} "
            f"(cycles {log.cycles_before[gates[0]]} >= limit) but the "
            f"generated code ran {gen.executed - gates[0]} insn(s) past "
            f"the gate")
    for stops, why in ((log.irq_stops, "serviceable interrupt pending"),
                       (log.invalid_stops, "block invalidated"),
                       (log.stopped_stops, "cpu stopped")):
        late = [j for j in stops if j > 0]
        if late:
            raise _Mismatch(
                "tv-mismatch-exit",
                f"{why} before step {late[0]} but the generated code "
                f"kept executing")
    # -- exit legitimacy -----------------------------------------------
    count = gen.executed
    n = prov.insn_count
    if gen.fault is not None or (not prov.loop and count >= n):
        return
    limit = vector.cycles0 + vector.budget
    next_idx = count % n if prov.loop else count
    if count and _is_branch_insn(prov.entries[(count - 1) % n][3]):
        return
    justified = (
        ref.pc != prov.entries[next_idx][0]
        or ref.cycles >= limit
        or _serviceable(ref.pending_irq, vector.imask)
        or not ref.valid
        or ref.stopped
        or bool(ref.sl_steps and ref.sl_steps[-1] == count - 1))
    if not justified:
        raise _Mismatch(
            "tv-mismatch-exit",
            f"premature exit after {count}/{n} insns: pc {ref.pc:#x} "
            f"continues the chain, {limit - ref.cycles} cycles of "
            f"budget remain and no escape condition holds")


def validate_block(prov: Any, ws: Optional[Workspace] = None,
                   seed: int = 0x7A11) -> Tuple[Report, BlockStats]:
    """Validate one fused block; returns (findings, stats)."""
    report = Report()
    stats = BlockStats(pc=prov.pc, source_hash=prov.source_hash)
    where = f"block {prov.pc:#x} [{prov.source_hash[:12]}]"
    try:
        code, arms = instrument(prov)
    except (SyntaxError, ValueError) as exc:
        report.add(Severity.WARNING, "tv-unsupported",
                   f"{where}: cannot instrument generated source: {exc}",
                   address=prov.pc, block=prov.pc)
        return report, stats
    live_arms = [a for a in arms if not a.dead]
    stats.arms = len(live_arms)
    stats.arms_dead = len(arms) - len(live_arms)
    if ws is None:
        ws = workspace_for(prov)
    ws.load_code(prov.code, prov.region)
    rng = random.Random(seed ^ prov.pc)
    covered: Set[int] = set()

    # Reference probe: natural-stop run on the benign vector seeds the
    # budget battery with the block's real per-step cycle schedule.
    probe_vec = Vector(d=(3, 1, 4, 1, 5, 9, 2, 6),
                       a=_probe_aregs(prov),
                       budget=3000 if prov.loop else 40000,
                       label="probe")
    probe_state = HarnessState(ws, probe_vec, prov.pages, prov.region,
                               prov.pc)
    probe, probe_log = run_reference(prov, probe_state, count=None)
    probe.cycles_before = probe_log.cycles_before
    ws.restore()
    # Second probe with unit counters: loop-exit paths (dbcc/bne with
    # a counter of one) have their own gates and cycle schedule.
    alt_state = HarnessState(
        ws, Vector(d=(1,) * 8, a=probe_vec.a, budget=probe_vec.budget,
                   label="probe-one"),
        prov.pages, prov.region, prov.pc)
    _alt, alt_log = run_reference(prov, alt_state, count=None)
    ws.restore()
    for cb in alt_log.cycles_before:
        if cb not in probe.cycles_before:
            probe.cycles_before.append(cb)

    vectors = build_vectors(prov, probe, rng)
    mismatched: Set[str] = set()
    for vector in vectors:
        stats.vectors += 1
        _run_vector(code, prov, ws, vector, covered, report,
                    where, mismatched)
        if len(mismatched) >= 8:
            break
    uncovered = [a for a in live_arms if a.arm_id not in covered]
    for i in range(SEARCH_BUDGET):
        if not uncovered:
            break
        vector = random_vector(prov, rng, i, probe=probe)
        stats.vectors += 1
        _run_vector(code, prov, ws, vector, covered, report,
                    where, mismatched)
        uncovered = [a for a in live_arms if a.arm_id not in covered]
    stats.arms_covered = stats.arms - len(uncovered)
    # A proven-dead arm that executed anyway means the dead-arm proof
    # (in-block constant propagation) is wrong — say so loudly.
    for arm in arms:
        if arm.dead and arm.arm_id in covered:
            report.add(Severity.ERROR, "tv-unsupported",
                       f"{where}: arm `{arm.cond}` was proven "
                       f"unreachable but executed; constant "
                       f"propagation is unsound for this block",
                       address=prov.pc, block=prov.pc)
    for arm in uncovered:
        side = "taken" if arm.taken else "else"
        report.add(Severity.WARNING, "tv-uncovered",
                   f"{where}: {arm.kind} arm ({side}) of "
                   f"`{arm.cond}` not reached by {stats.vectors} "
                   f"vectors; equivalence on that path is unproven",
                   address=prov.pc, block=prov.pc)
    stats.findings = len(report)
    return report, stats


def _probe_aregs(prov: Any) -> Tuple[int, ...]:
    from .engine import benign_aregs
    return benign_aregs(prov)


def _run_vector(code: Any, prov: Any, ws: Workspace, vector: Vector,
                covered: Set[int], report: Report, where: str,
                mismatched: Set[str]) -> None:
    try:
        gen = _run_gen(code, prov, ws, vector, covered)
    except Exception as exc:  # harness failure, not a guest fault
        ws.restore()
        report.add(Severity.WARNING, "tv-unsupported",
                   f"{where}: vector '{vector.label}' failed to "
                   f"execute: {type(exc).__name__}: {exc}",
                   address=prov.pc, block=prov.pc)
        return
    ref, log = _run_ref(prov, ws, vector, gen.executed)
    try:
        _check_pair(prov, vector, gen, ref, log)
    except _Mismatch as mm:
        # One finding per (code) per block: later vectors hitting the
        # same defect add noise, not information.
        if mm.code not in mismatched:
            mismatched.add(mm.code)
            report.add(Severity.ERROR, mm.code,
                       f"{where}: vector '{vector.label}': {mm.detail}",
                       address=prov.pc, block=prov.pc)

