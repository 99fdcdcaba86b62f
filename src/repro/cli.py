"""Command-line interface: ``python -m repro <command>``.

The desktop-side workflow of the paper as a tool: collect sessions,
archive them, replay them with profiling, run the validation, and
regenerate the cache study.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .emulator import RomMismatchError


def _add_collect(sub) -> None:
    p = sub.add_parser("collect", help="collect a session on a simulated "
                                       "m515 and archive it")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--session", default="quickstart",
                   help="quickstart | session1..session4 (Table 1)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the synthetic user's seed")


def _add_replay(sub) -> None:
    p = sub.add_parser(
        "replay", help="replay an archived session",
        description="Replay an archived session with profiling.  Any "
                    "resilience option runs the same replay with "
                    "checkpoints and the divergence watchdog, and adds "
                    "their lines to the same report.")
    p.add_argument("--session", required=True, help="archive directory")
    p.add_argument("--no-profile", action="store_true",
                   help="skip profiling (faster)")
    p.add_argument("--trace-out", default=None, metavar="FILE.ptrc",
                   help="write the reference trace as a PTRC container: "
                        "streamed during the replay in bounded memory, "
                        "or written after it when a resilience option "
                        "keeps the in-RAM trace for checkpoints")
    p.add_argument("--trace-codec", default="zlib",
                   help="PTRC codec for --trace-out: raw, zlib, or "
                        "zstd when available (default zlib)")
    p.add_argument("--jitter", type=int, default=None,
                   help="enable the POSE jitter model with this seed")
    p.add_argument("--screenshot", default=None, metavar="FILE.ppm",
                   help="write the final screen as a PPM image")
    p.add_argument("--screen", action="store_true",
                   help="print the final screen as ASCII art")
    p.add_argument("--core", default="fast", choices=("fast", "simple"),
                   help="replay core: predecoded basic-block interpreter "
                        "(fast, default) or per-instruction stepping "
                        "(simple); both are bit-exact")
    p.add_argument("--hot", type=int, default=None, metavar="N",
                   help="after the replay, report the N hottest "
                        "superblocks (entry pc, fetch-reference share, "
                        "invalidations; fast core only) and the N "
                        "hottest trap numbers from the profiler")
    res = p.add_argument_group("resilience (repro.resilience)")
    res.add_argument("--checkpoint-every", type=int, default=None,
                     metavar="N", help="snapshot the machine every N "
                                       "ticks and enable the divergence "
                                       "watchdog")
    res.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="also persist checkpoints to this directory")
    res.add_argument("--on-divergence", default=None,
                     choices=("strict", "resync", "degrade"),
                     help="divergence policy: fail with a report, retry "
                          "from a checkpoint, or continue tainted")
    res.add_argument("--faults", default=None, metavar="SPEC",
                     help="inject faults, e.g. "
                          "'drop:index=3,clock-drift:at=500;seconds=7'")
    res.add_argument("--salvage", action="store_true",
                     help="repair/skip corrupt trace records before "
                          "replaying instead of failing on them")
    res.add_argument("--retry-budget", type=int, default=3, metavar="N",
                     help="checkpoint retries before resync gives up "
                          "(default 3)")
    res.add_argument("--reset-timeout", type=int, default=None,
                     metavar="TICKS",
                     help="ticks to wait for a guest reset before "
                          "raising GuestResetTimeout (default 100000)")
    san = p.add_argument_group("sanitizer (repro.analysis.sanitizer)")
    san.add_argument("--sanitize", action="store_true",
                     help="replay with the guest memory sanitizer "
                          "attached (shadow checking, heap red zones, "
                          "leak check at exit; not combinable with the "
                          "resilience options)")
    san.add_argument("--no-sanitize-elide", action="store_true",
                     help="disable the static check-elision set "
                          "(full shadow checking on every access)")
    p.add_argument("--validate-codegen", action="store_true",
                   help="run the translation validator inline on every "
                        "superblock the replay fuses; exit 1 on any "
                        "error-severity finding (fast core only, not "
                        "combinable with --sanitize or the resilience "
                        "options)")


def _add_validate(sub) -> None:
    p = sub.add_parser("validate", help="replay an archive and run the "
                                        "paper's two-fold validation")
    p.add_argument("--session", required=True)
    p.add_argument("--jitter", type=int, default=None)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def _add_sweep(sub) -> None:
    p = sub.add_parser("sweep", help="run the 56-configuration cache "
                                     "study on a trace")
    p.add_argument("--trace", required=True,
                   help=".ptrc container, or a fleet campaign directory "
                        "run with --archive-traces (its session traces in "
                        "session order); streamed out-of-core")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="fan the sweep out over N worker processes "
                        "sharing the trace (default: in-process)")
    p.add_argument("--chunk-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="fail the sweep if any single work unit takes "
                        "longer than this (catches killed or wedged "
                        "workers; default: wait forever)")


def _add_desktop(sub) -> None:
    p = sub.add_parser("desktop-trace", help="generate a synthetic "
                                             "desktop trace (Figure 7)")
    p.add_argument("--out", required=True,
                   help="output .ptrc container (all RAM data reads)")
    p.add_argument("--length", type=_positive_int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)


def _add_rom(sub) -> None:
    p = sub.add_parser("rom", help="build the ROM and inspect it")
    p.add_argument("--disassemble", type=int, metavar="N", default=0,
                   help="disassemble N instructions from the reset entry")
    p.add_argument("--check", action="store_true",
                   help="run the static analyzer on the built ROM and "
                        "exit nonzero on any error-severity finding")


def _add_lint(sub) -> None:
    p = sub.add_parser("lint", help="static-analyze the built-in ROM, or "
                                    "lint a session archive's activity log")
    p.add_argument("--session", default=None, metavar="DIR",
                   help="lint this archive's activity log instead of "
                        "analyzing the ROM")
    p.add_argument("--deep", action="store_true",
                   help="also run the semantic ROM audit and report "
                        "determinism-relevant findings (unhacked "
                        "nondeterminism sources, self-modifying code)")
    p.add_argument("--verbose", action="store_true",
                   help="also print info-severity findings and the "
                        "static trap census")


def _add_audit(sub) -> None:
    p = sub.add_parser(
        "audit",
        help="semantically audit the built-in ROM with the dataflow "
             "engine (constant propagation, trap-argument recovery, "
             "region classification, nondeterminism reachability)")
    p.add_argument("--session", default=None, metavar="DIR",
                   help="also replay this archive with per-instruction "
                        "reference tracking and cross-check the static "
                        "region predictions against the dynamic trace")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the full machine-readable audit to FILE")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="compare against this baseline and fail only on "
                        "NEW warning/error findings")
    p.add_argument("--write-baseline", default=None, metavar="FILE",
                   help="write the current findings as a new baseline")
    p.add_argument("--verbose", action="store_true",
                   help="also print info findings, trap signatures and "
                        "the call graph summary")


def _add_sanitize(sub) -> None:
    p = sub.add_parser(
        "sanitize",
        help="run the seeded defect corpus through the guest memory "
             "sanitizer (shadow state + static check elision) and gate "
             "against the committed baseline")
    p.add_argument("--program", action="append", default=None,
                   metavar="NAME",
                   help="run only this corpus program (repeatable); "
                        "default: all")
    p.add_argument("--no-elide", action="store_true",
                   help="disable the static elision set (full shadow "
                        "checking)")
    p.add_argument("--differential", action="store_true",
                   help="also run every program with and without "
                        "elision and require bit-identical findings")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="compare against this baseline and fail only "
                        "on NEW findings (missing defect classes still "
                        "fail)")
    p.add_argument("--write-baseline", default=None, metavar="FILE",
                   help="write the current findings as a new baseline")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write machine-readable results to FILE")
    p.add_argument("--verbose", action="store_true",
                   help="also print per-program elision statistics")


def _add_verify_codegen(sub) -> None:
    p = sub.add_parser(
        "verify-codegen",
        help="translation-validate the fused superblock codegen: "
             "replay the standard session with eager fusion, prove "
             "every fused block equivalent to its per-insn reference "
             "semantics, audit every elided check against a fresh "
             "derivation, and run the seeded miscompile self-test")
    p.add_argument("--session", default=None, metavar="DIR",
                   help="validate the blocks this archive fuses instead "
                        "of collecting the standard quickstart session")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write findings + throughput stats as JSON")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="compare against this baseline and fail only on "
                        "NEW warning/error findings")
    p.add_argument("--write-baseline", default=None, metavar="FILE",
                   help="write the current findings as a new baseline")
    p.add_argument("--no-selftest", action="store_true",
                   help="skip the seeded miscompile self-test")
    p.add_argument("--no-elision-audit", action="store_true",
                   help="skip the region/sanitizer elision audits")
    p.add_argument("--verbose", action="store_true",
                   help="also print info findings (per-class self-test "
                        "detections)")


def _add_trace(sub) -> None:
    p = sub.add_parser(
        "trace",
        help="inspect, convert and verify PTRC trace containers")
    act = p.add_subparsers(dest="action", required=True)

    info = act.add_parser("info", help="print a container's (or fleet "
                                       "campaign's) manifest summary")
    info.add_argument("path")

    conv = act.add_parser(
        "convert",
        help="convert between trace formats by extension: .ptrc "
             "(container; also the source format for anything not "
             ".din) and .din (dinero text); streams chunk by chunk")
    conv.add_argument("src")
    conv.add_argument("dst")
    conv.add_argument("--codec", default="zlib",
                      help="PTRC codec when the destination is .ptrc "
                           "(raw, zlib, or zstd when available)")
    conv.add_argument("--chunk-tokens", type=_positive_int, default=None,
                      metavar="N", help="PTRC chunk size in tokens")

    cat = act.add_parser("cat", help="print references as text lines "
                                     "(kind, region, hex address)")
    cat.add_argument("path")
    cat.add_argument("--limit", type=_positive_int, default=None,
                     metavar="N", help="stop after N references")

    ver = act.add_parser(
        "verify",
        help="verify a container: structure, per-chunk crc32s and the "
             "content digest; for a fleet campaign directory, also that "
             "every archived session trace is present and holds the "
             "digest its journal recorded")
    ver.add_argument("path")
    ver.add_argument("--no-deep", action="store_true",
                     help="structure only; skip decoding every chunk")
    ver.add_argument("--salvage", default=None, metavar="OUT.ptrc",
                     help="on a torn/corrupt container, recover the "
                          "intact prefix into OUT.ptrc")


def _add_fleet(sub) -> None:
    p = sub.add_parser(
        "fleet",
        help="run a population-scale replay campaign: a supervised "
             "worker fleet with retries, quarantine, a crash-safe "
             "journal, and mergeable aggregates")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="campaign directory (journal, manifest, "
                        "aggregates)")
    p.add_argument("--sessions", type=int, default=16,
                   help="campaign size (default 16)")
    p.add_argument("--seed", type=int, default=0,
                   help="population base seed (session i uses seed+i)")
    p.add_argument("--jobs", type=int, default=1,
                   help="concurrent worker processes")
    p.add_argument("--behaviors", default="scripted,gremlins",
                   help="comma list of behavior models "
                        "(scripted, gremlins)")
    p.add_argument("--app-mixes", default=None, metavar="A+B,C+D",
                   help="comma list of app mixes, apps joined with '+' "
                        "(every mix needs 'launcher'); default: three "
                        "mixes over the standard suite")
    p.add_argument("--durations", default=None,
                   help="comma list of session lengths in hours "
                        "(default 0.02,0.05)")
    p.add_argument("--caches", default=None, metavar="S:L:A,...",
                   help="comma list of cache geometries as "
                        "size:line:assoc triples (default "
                        "8192:32:4,16384:16:2)")
    p.add_argument("--policy", default="resync",
                   choices=("strict", "resync", "degrade"),
                   help="replay divergence policy for every session")
    p.add_argument("--archive-traces", action="store_true",
                   help="archive every session's reference trace as a "
                        "PTRC container under <out>/traces/ and record "
                        "its digest in the journal (verified on "
                        "--resume)")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="PRCKPT01 checkpoint interval inside each "
                        "replay (ticks; 0 = policy default)")
    p.add_argument("--hang-timeout", type=float, default=120.0,
                   metavar="SECONDS",
                   help="kill a worker with no heartbeat for this long")
    p.add_argument("--retries", type=int, default=2,
                   help="retry budget per session before quarantine")
    p.add_argument("--backoff-base", type=float, default=0.25,
                   metavar="SECONDS",
                   help="exponential retry backoff base")
    p.add_argument("--resume", action="store_true",
                   help="continue the campaign in --out: re-run only "
                        "sessions without a journaled verdict")
    p.add_argument("--chaos", action="store_true",
                   help="chaos self-test: inject a worker crash, a "
                        "stall and a poisoned trace, then verify the "
                        "recovery paths")
    p.add_argument("--chaos-seed", type=int, default=0,
                   help="victim-selection seed for --chaos")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also write the run summary to FILE")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-session progress lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="A trace-driven simulator for Palm OS devices "
                    "(ISPASS 2005 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_collect(sub)
    _add_replay(sub)
    _add_validate(sub)
    _add_sweep(sub)
    _add_desktop(sub)
    _add_rom(sub)
    _add_lint(sub)
    _add_audit(sub)
    _add_verify_codegen(sub)
    _add_sanitize(sub)
    _add_trace(sub)
    _add_fleet(sub)
    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
_EMU_KW = {"ram_size": 8 << 20, "flash_size": 1 << 20}


def _demo_script():
    from .device import Button
    from .workloads import UserScript

    return (UserScript("quickstart").at(100)
            .press(Button.MEMO).wait(50)
            .tap(40, 120).wait(60).tap(90, 140).wait(60)
            .press(Button.UP).wait(80)
            .press(Button.DATEBOOK).wait(80)
            .tap(50, 10).wait(40).tap(90, 50).wait(40))


def cmd_collect(args) -> int:
    from .apps import standard_apps
    from .palmos.database import DatabaseImage
    from .workloads import (
        TABLE1_SESSIONS, collect_session, collect_table1_session)

    out = Path(args.out)
    if args.session == "quickstart":
        session = collect_session(standard_apps(), _demo_script(),
                                  name="quickstart",
                                  ram_size=_EMU_KW["ram_size"])
    else:
        specs = {s.name: s for s in TABLE1_SESSIONS}
        if args.session not in specs:
            print(f"unknown session {args.session!r}; choose from "
                  f"quickstart, {', '.join(specs)}", file=sys.stderr)
            return 2
        spec = specs[args.session]
        if args.seed is not None:
            import dataclasses
            spec = dataclasses.replace(spec, seed=args.seed)
        session = collect_table1_session(spec,
                                         ram_size=_EMU_KW["ram_size"])

    session.initial_state.save(out / "initial_state")
    session.log.save(out / "activity_log.pdb")
    final_dir = out / "final_state"
    final_dir.mkdir(parents=True, exist_ok=True)
    for i, image in enumerate(session.final_state):
        (final_dir / f"db_{i:03d}.pdb").write_bytes(image.to_pdb_bytes())
    print(f"collected {session.name}: {session.events} events over "
          f"{session.elapsed_hms()} -> {out}")
    return 0


def _load_archive(directory: str, salvage: Optional[bool] = None):
    """``(state, log)`` of an archive, or None after one stderr line
    when it cannot be read.  ``salvage=True`` loads the log leniently
    and prints what was repaired; ``False`` names ``--salvage`` when
    the log is corrupt; None is for commands without that option."""
    from .resilience import TraceFormatError, salvage_file
    from .tracelog import ActivityLog, InitialState

    root = Path(directory)
    state = None
    try:
        state = InitialState.load(root / "initial_state")
        if salvage:
            result = salvage_file(root / "activity_log.pdb")
            print(f"salvage      : {result.summary()}")
            return state, result.log
        return state, ActivityLog.load(root / "activity_log.pdb")
    except (OSError, ValueError, KeyError) as exc:
        if state is not None and isinstance(exc, TraceFormatError):
            hint = ("; re-run with --salvage to repair/skip bad records"
                    if salvage is False else "")
            print(f"{'unsalvageable' if salvage else 'corrupt'} activity "
                  f"log: {str(exc).splitlines()[0]}{hint}", file=sys.stderr)
        else:
            print(f"cannot read archive {directory}: "
                  f"{(str(exc) or type(exc).__name__).splitlines()[0]}",
                  file=sys.stderr)
    return None


def _load_final_state(directory: str):
    from .palmos.database import DatabaseImage

    final_dir = Path(directory) / "final_state"
    if not final_dir.is_dir():
        return None
    return [DatabaseImage.from_pdb_bytes(path.read_bytes())
            for path in sorted(final_dir.glob("*.pdb"))]


def _resilience_active(args) -> bool:
    return any((args.checkpoint_every is not None,
                args.on_divergence is not None,
                args.faults is not None,
                args.salvage,
                args.reset_timeout is not None))


def _replay_flag_error(args) -> Optional[str]:
    """Why ``replay``'s flags do not combine, or None."""
    from .traces.container import available_codecs

    if args.trace_out and args.no_profile:
        return "--trace-out needs profiling (drop --no-profile)"
    if args.trace_out and args.trace_codec not in available_codecs():
        return (f"--trace-codec {args.trace_codec!r} is not available "
                f"(choose from {', '.join(available_codecs())})")
    if _resilience_active(args) and (args.sanitize or args.validate_codegen):
        return (f"--{'sanitize' if args.sanitize else 'validate-codegen'} "
                "does not combine with the resilience options "
                "(checkpoints exclude shadow memory and codegen reports)")
    if args.validate_codegen and (args.sanitize or args.core != "fast"):
        return ("--validate-codegen requires the fast core without "
                "--sanitize (fused codegen is disabled under shadow "
                "checking)")
    return None


def cmd_replay(args) -> int:
    from contextlib import nullcontext

    from .apps import standard_apps
    from .emulator import JitterModel, replay_session
    from .resilience import (DivergenceError, FaultPlan, FaultSpecError,
                             GuestResetTimeout, ReplayFault,
                             resilient_replay)
    from .storage import replacing
    from .traces import container

    error = _replay_flag_error(args)
    try:
        plan = FaultPlan.parse(args.faults) if args.faults else None
    except FaultSpecError as exc:
        error = f"bad --faults spec: {exc}"
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    loaded = _load_archive(args.session, salvage=args.salvage)
    if loaded is None:
        return 1
    state, log = loaded
    resilient = _resilience_active(args)
    trace_meta = {"source": "replay", "archive": str(args.session)}
    options = dict(
        apps=standard_apps(), profile=not args.no_profile,
        jitter=(JitterModel(seed=args.jitter)
                if args.jitter is not None else None),
        emulator_kwargs={**_EMU_KW, "core": args.core})
    outcome = manifest = None
    try:
        # The trace is written to a sibling renamed over --trace-out
        # only once complete: a failed replay leaves no file.
        with (replacing(args.trace_out) if args.trace_out
              else nullcontext()) as trace_tmp:
            start = time.time()
            if resilient:
                for name in ("checkpoint_every", "reset_timeout"):
                    if getattr(args, name) is not None:
                        options[name] = getattr(args, name)
                outcome = resilient_replay(
                    state, log, **options, faults=plan,
                    on_divergence=args.on_divergence or "strict",
                    retry_budget=args.retry_budget,
                    checkpoint_dir=args.checkpoint_dir)
                emulator, profiler, result = (
                    outcome.emulator, outcome.profiler, outcome.result)
                elapsed = time.time() - start
                if trace_tmp is not None:
                    # Drained after the fact: PRCKPT01 checkpoints hold
                    # the in-RAM trace a resync rolls back.
                    manifest = container.write_container(
                        profiler.chunks(), trace_tmp,
                        codec=args.trace_codec, session=trace_meta)
            else:
                # The trace streams into the writer and spills: it
                # never stays in RAM.
                writer = (container.ContainerWriter(
                    trace_tmp, codec=args.trace_codec, session=trace_meta)
                    if trace_tmp is not None else None)
                with writer or nullcontext():
                    emulator, profiler, result = replay_session(
                        state, log, **options, sanitize=args.sanitize,
                        sanitize_elide=not args.no_sanitize_elide,
                        validate_codegen=args.validate_codegen,
                        trace_sink=writer, trace_spill=True)
                    elapsed = time.time() - start
                manifest = writer.manifest if writer is not None else None
    except DivergenceError as exc:
        print("replay diverged from the recorded session:\n"
              + exc.report.format(), file=sys.stderr)
        return 1
    except ReplayFault as exc:
        print(f"injected fault was not recovered: {exc}", file=sys.stderr)
        return 1
    except GuestResetTimeout as exc:
        print(f"guest reset timed out: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 1
    for note in outcome.fault_notes if outcome is not None else ():
        print(f"fault        : {note}")
    if args.screenshot:
        from .analysis import screenshot_ppm
        screenshot_ppm(emulator.kernel, args.screenshot)
        print(f"screenshot    : {args.screenshot}")
    if args.screen:
        from .analysis import screen_ascii
        print(screen_ascii(emulator.kernel))
    print(f"replayed {result.events_injected} events in {elapsed:.1f}s")
    if outcome is not None:
        ticks = outcome.checkpoints.ticks
        print(f"checkpoints  : {len(ticks)} kept "
              f"(ticks {ticks[0]}..{ticks[-1]})" if ticks
              else "checkpoints  : none captured")
        if outcome.retries:
            print(f"retries      : {outcome.retries} "
                  "(recovered from checkpoint)")
        if outcome.tainted:
            print("TAINTED      : replay diverged and continued under "
                  "--on-divergence degrade")
            print(outcome.report.format())
    if profiler is not None:
        total = profiler.total_refs
        print(f"instructions : {profiler.instructions:,}")
        print(f"references   : {total:,} "
              f"(RAM {100 * profiler.ram_refs / max(1, total):.1f}%, "
              f"flash {100 * profiler.flash_refs / max(1, total):.1f}%)")
        print(f"ave mem cyc  : {profiler.average_memory_cycles():.3f} "
              f"(paper Table 1: 2.35-2.39)")
    if manifest is not None:
        print(f"trace-out    : {args.trace_out} ({manifest['tokens']:,} "
              f"tokens, {manifest['chunks']} chunk(s), codec "
              f"{manifest['codec']}, digest {manifest['digest'][:12]}…)")
    if args.hot:
        _print_hot(emulator, profiler, args.hot)
    if args.sanitize:
        san = emulator.sanitizer
        stats = san.stats()
        print(f"sanitizer    : {stats['data_accesses']:,} data accesses, "
              f"{stats['elided']:,} statically elided "
              f"(rate {stats['elision_rate']}), "
              f"{stats['probed']:,} shadow probes")
        report = san.report
        if len(report):
            print(report.format())
            return 1
        print("sanitizer    : no findings")
    if args.validate_codegen:
        report = emulator.codegen_report
        if report is None:
            print("validate-codegen: core fused nothing (no report)")
        else:
            print(f"validate-codegen: {len(report)} finding(s) across "
                  f"the replay's fused blocks")
            if not report.ok:
                print(report.format())
                return 1
    return 0


def _print_hot(emulator, profiler, n: int) -> None:
    """The ``--hot`` report: where replay time goes, from data the
    cores and the profiler already keep."""
    hot = getattr(emulator.device.core, "hot_blocks", None)
    if hot is None:
        print("hot blocks   : (requires --core fast)")
    else:
        total = max(1, profiler.total_refs) if profiler is not None else 0
        print(f"hot blocks   : {'entry':>10} {'runs':>9} {'insns':>11} "
              f"{'ref share':>9} {'invalid':>7} {'fused':>5} "
              f"{'elide':>5} {'source':>12} {'loop':>4}")
        for row in hot(n):
            share = (f"{100 * row['fetch_refs'] / total:>8.2f}%"
                     if total else f"{row['fetch_refs']:>9,}")
            if "fused_insns" in row:
                fused = (f"{row['fused_insns']:>5} {row['elisions']:>5} "
                         f"{row['source_hash']:>12} "
                         f"{'yes' if row.get('loop') else 'no':>4}")
            else:
                fused = f"{'-':>5} {'-':>5} {'-':>12} {'-':>4}"
            print(f"               {row['pc']:#010x} {row['runs']:>9,} "
                  f"{row['insns']:>11,} {share} "
                  f"{row['invalidations']:>7} {fused}")
    if profiler is not None:
        from .palmos.traps import Trap

        def name(idx: int) -> str:
            try:
                return Trap(idx).name
            except ValueError:
                return f"trap {idx:#x}"
        traps = profiler.top_traps(n)
        print("hot traps    : " + (", ".join(
            f"{name(t)} ({c:,})" for t, c in traps) or "(none)"))


def cmd_validate(args) -> int:
    from .analysis import format_validation
    from .apps import standard_apps
    from .emulator import JitterModel, replay_session
    from .tracelog import read_activity_log
    from .validation import correlate_final_states, correlate_logs

    loaded = _load_archive(args.session)
    if loaded is None:
        return 1
    state, log = loaded
    device_final = _load_final_state(args.session)
    jitter = JitterModel(seed=args.jitter) if args.jitter is not None else None
    emulator, _, _ = replay_session(state, log, apps=standard_apps(),
                                    profile=False, jitter=jitter,
                                    emulator_kwargs=_EMU_KW)
    log_corr = correlate_logs(log, read_activity_log(emulator.kernel))
    summaries = [log_corr.summary()]
    ok = log_corr.valid
    if device_final is not None:
        extra = ["UserInputLog"] if jitter else []
        state_corr = correlate_final_states(device_final,
                                            emulator.final_state(),
                                            extra_expected_databases=extra)
        summaries.append(state_corr.summary())
        ok = ok and state_corr.valid
    else:
        summaries.append("final state: not archived (re-collect with "
                         "this version to enable)")
    print(format_validation(*summaries))
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    from .analysis import format_access_times, format_miss_rates
    from .cache import RegionMix, SweepWorkerError, sweep_parallel
    from .fleet import JournalError
    from .traces.container import TraceContainerError, open_chunk_source

    jobs = max(1, args.jobs)
    how = f"{jobs} workers" if jobs > 1 else "in-process"
    try:
        with open_chunk_source(args.trace) as source:
            counts = source.counts()
    except (OSError, TraceContainerError, JournalError) as exc:
        # The message names the file already.
        print(f"not a readable trace: {str(exc).splitlines()[0]}",
              file=sys.stderr)
        return 1
    total = counts["ram"] + counts["flash"]
    print(f"sweeping {total:,} references out-of-core ({how}) ...")
    try:
        # Workers stream chunks straight off the container (or the
        # campaign's members); the trace is never fully resident.
        points = sweep_parallel(container=args.trace, jobs=jobs,
                                chunk_timeout=args.chunk_timeout)
    except SweepWorkerError as exc:
        print(f"sweep failed: {str(exc).splitlines()[0]}", file=sys.stderr)
        return 1
    print(format_miss_rates(points))
    print()
    mix = RegionMix(counts["ram"], counts["flash"])
    print(format_access_times(points, mix))
    return 0


def cmd_desktop(args) -> int:
    import numpy as np

    from .device.memmap import KIND_READ, REGION_RAM
    from .traces import generate_desktop_trace
    from .traces.container import pack_tokens, write_container

    addresses = generate_desktop_trace(args.length, seed=args.seed)
    kinds = np.full(len(addresses), KIND_READ | REGION_RAM << 4,
                    dtype=np.uint8)
    write_container(pack_tokens(addresses, kinds), args.out,
                    session={"source": "desktop-trace", "seed": args.seed})
    print(f"wrote {len(addresses):,} references to {args.out}")
    return 0


def cmd_rom(args) -> int:
    from .apps import standard_apps
    from .device import constants as C
    from .m68k.disasm import disassemble
    from .palmos.rom import RomBuilder

    builder = RomBuilder(standard_apps())
    program = builder.build()
    image = program.image(C.FLASH_BASE, C.FLASH_SIZE)
    used = len(program.segments[0][1]) if program.segments else 0
    print(f"ROM: {used:,} bytes of code/data in a "
          f"{len(image) // (1 << 20)} MB flash image")
    print(f"traps: {len(builder.stub_addresses(program))}, "
          f"applications: {len(builder.apps)}")
    if args.disassemble:
        entry = program.symbols["rom_boot"]

        def fetch(addr):
            off = addr - C.FLASH_BASE
            return (image[off] << 8) | image[off + 1]

        print(f"\nreset entry ({entry:#x}):")
        print(disassemble(fetch, entry, count=args.disassemble))
    if args.check:
        from .analysis.static import Severity, analyze_rom

        analysis = analyze_rom()
        print()
        print(analysis.report.format(min_severity=Severity.WARNING))
        if not analysis.ok:
            return 1
    return 0


def cmd_lint(args) -> int:
    from .analysis.static import Severity, analyze_rom, lint_archive

    if args.session is not None:
        report = lint_archive(args.session)
        source = f"activity log of {args.session}"
    else:
        analysis = analyze_rom()
        report = analysis.report
        source = "built-in ROM"
        if args.verbose:
            print("static trap census:")
            for name, sites in analysis.census.names().items():
                print(f"  {name:24s} {sites} call site(s)")
    if args.deep:
        from .analysis.static.tracelint import deep_findings
        report.extend(deep_findings())
        source += " + semantic ROM audit"
    min_severity = Severity.INFO if args.verbose else Severity.WARNING
    print(f"lint: {source}")
    print(report.format(min_severity=min_severity))
    return 0 if report.ok else 1


def _load_baseline(path: str):
    """The findings baseline at ``path``, or None after one stderr line
    when it cannot be read."""
    from .analysis.static.findings import load_baseline

    try:
        return load_baseline(path)
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline: {exc}", file=sys.stderr)
        return None


def _gate_on_baseline(report, path: str, baseline) -> int:
    """Exit status of the CI gate: 1 when ``report`` has a WARNING+
    finding not in ``baseline``."""
    from .analysis.static.findings import new_findings_against

    fresh = new_findings_against(report, baseline)
    if fresh:
        print(f"{len(fresh)} NEW finding(s) not in the baseline:")
        for finding in fresh:
            print(f"  {finding.format()}")
        return 1
    print(f"no new findings against {path} ({len(baseline)} baselined)")
    return 0


def cmd_audit(args) -> int:
    from .analysis.static import Severity, baseline_keys, save_baseline
    from .analysis.static.audit import audit_rom, cross_check_regions
    from .storage import write_json

    baseline = None
    if args.baseline:
        baseline = _load_baseline(args.baseline)
        if baseline is None:
            return 1
    result = audit_rom(ram_size=_EMU_KW["ram_size"],
                       flash_size=_EMU_KW["flash_size"])
    report = result.report

    if args.session is not None:
        from .apps import standard_apps
        from .emulator import replay_session

        loaded = _load_archive(args.session)
        if loaded is None:
            return 1
        state, log = loaded
        _, profiler, _ = replay_session(
            state, log, apps=standard_apps(), profile=True,
            trace_references=False, track_opcode_addresses=True,
            track_reference_pcs=True, emulator_kwargs=_EMU_KW)
        report.extend(cross_check_regions(result, profiler.reference_pcs))

    if args.json:
        write_json(args.json, result.to_json())
        print(f"audit json   : {args.json}")
    if args.write_baseline:
        save_baseline(report, args.write_baseline)
        print(f"baseline     : {args.write_baseline} "
              f"({len(baseline_keys(report))} finding(s) frozen)")

    if args.verbose:
        print("trap signatures (recovered constant arguments):")
        for name, sigs in result.census.signatures().items():
            rendered = ", ".join(
                "(" + ", ".join("?" if v is None else f"{v:#x}"
                                for v in sig) + ")"
                for sig in sigs)
            print(f"  {name:24s} {rendered}")
        print(f"call graph   : {len(result.call_graph)} function(s), "
              f"{sum(len(c) for c in result.call_graph.values())} edge(s)")
    min_severity = Severity.INFO if args.verbose else Severity.WARNING
    print("audit: built-in ROM")
    print(report.format(min_severity=min_severity))
    if baseline is not None:
        return _gate_on_baseline(report, args.baseline, baseline)
    return 0 if report.ok else 1


def cmd_verify_codegen(args) -> int:
    from .analysis.static import Severity, save_baseline
    from .analysis.transval import verify_codegen
    from .storage import write_json

    baseline = None
    if args.baseline:
        baseline = _load_baseline(args.baseline)
        if baseline is None:
            return 1
    session = None
    if args.session is not None:
        session = _load_archive(args.session)
        if session is None:
            return 1
    report, stats = verify_codegen(
        session=session,
        run_selftest=not args.no_selftest,
        audit_elisions=not args.no_elision_audit,
        progress=lambda msg: print(msg, file=sys.stderr))

    print(f"verify-codegen: {stats.blocks} fused block(s), "
          f"{stats.vectors:,} vector(s), "
          f"{stats.arms_covered}/{stats.arms} live arm(s) covered "
          f"({100 * stats.coverage:.1f}%), {stats.arms_dead} proven dead")
    print(f"elided checks : {stats.elisions} region, "
          f"{stats.sanitizer_elisions} sanitizer")
    print(f"throughput    : {stats.blocks_per_sec:.1f} blocks/s "
          f"({stats.wall:.2f}s validate, {stats.replay_wall:.2f}s replay)")
    min_severity = Severity.INFO if args.verbose else Severity.WARNING
    print(report.format(min_severity=min_severity))

    if args.json:
        payload = {
            "stats": stats.to_json(),
            "findings": [{"severity": f.severity.label(), "code": f.code,
                          "message": f.message, "address": f.address}
                         for f in report.sorted()],
        }
        write_json(args.json, payload)
        print(f"json          : {args.json}")
    if args.write_baseline:
        save_baseline(report, args.write_baseline)
        print(f"baseline      : {args.write_baseline}")
    if baseline is not None:
        return _gate_on_baseline(report, args.baseline, baseline)
    return 0 if report.ok else 1


def cmd_sanitize(args) -> int:
    from .analysis.sanitizer import corpus as san_corpus
    from .analysis.static.findings import baseline_pairs
    from .storage import read_json, write_json

    baseline = None
    if args.baseline:
        try:
            programs = read_json(args.baseline, ValueError).get("programs")
            if not isinstance(programs, dict):
                raise ValueError(f"{args.baseline}: not a sanitizer baseline")
            baseline = {name: baseline_pairs(pairs, args.baseline)
                        for name, pairs in programs.items()}
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline: {exc}", file=sys.stderr)
            return 1
    names = args.program
    if names:
        known = san_corpus.programs_by_name()
        unknown = [n for n in names if n not in known]
        if unknown:
            print(f"unknown corpus program(s): {', '.join(unknown)}; "
                  f"choose from {', '.join(known)}", file=sys.stderr)
            return 2
    results = san_corpus.run_corpus(names, elide=not args.no_elide)

    print("sanitize: seeded defect corpus "
          f"({'full checking' if args.no_elide else 'static elision on'})")
    failures = []
    for r in results:
        expect = (f"{r.program.code}@{r.expected_address:#x}"
                  if r.program.code else "no findings")
        got = (", ".join(f"{c}@{a:#x}" for c, _s, a in r.findings)
               or "no findings")
        status = "ok" if r.matched else "MISSED"
        if not r.matched:
            failures.append(r.program.name)
        print(f"  {r.program.name:12s} {status:7s} expected {expect}, "
              f"got {got}")
        if args.verbose:
            e = r.elision.stats()
            s = r.san_stats
            print(f"  {'':12s} elision: {e['proven_insns']}/"
                  f"{e['candidate_insns']} insns proven, dynamic rate "
                  f"{s['elision_rate']} ({s['elided']}/{s['data_accesses']})")

    if args.differential:
        diverged = san_corpus.differential(names)
        if diverged:
            print(f"DIFFERENTIAL FAILURE (elided vs full findings "
                  f"differ): {', '.join(diverged)}")
            failures.extend(diverged)
        else:
            print("differential : elided and full checking report "
                  "identical findings")

    if args.json:
        payload = {
            "programs": {
                r.program.name: {
                    "ptr": r.ptr,
                    "expected": r.program.code,
                    "expected_address": r.expected_address,
                    "matched": r.matched,
                    "findings": [list(f) for f in r.findings],
                    "elision": r.elision.stats(),
                    "stats": r.san_stats,
                } for r in results
            },
        }
        write_json(args.json, payload)
        print(f"json         : {args.json}")
    if args.write_baseline:
        frozen_keys = san_corpus.baseline_keys(results)
        write_json(args.write_baseline, {"programs": frozen_keys})
        frozen = sum(len(v) for v in frozen_keys.values())
        print(f"baseline     : {args.write_baseline} "
              f"({frozen} finding(s) frozen)")

    if baseline is not None:
        fresh = san_corpus.new_findings_against(results, baseline)
        if fresh:
            print(f"{len(fresh)} NEW finding(s) not in the baseline:")
            for prog, code, addr in fresh:
                print(f"  {prog}: {code} at {addr:#x}")
            failures.append("baseline")
        else:
            known = sum(len(v) for v in baseline.values())
            print(f"no new findings against {args.baseline} "
                  f"({known} baselined)")

    return 1 if failures else 0


_KIND_NAMES = {0: "fetch", 1: "read", 2: "write"}
_REGION_NAMES = {0: "ram", 1: "flash", 2: "hw", 3: "card"}


def _trace_reference_stream(path: Path):
    """``(addresses, kinds)`` chunk pairs from a ``.din`` file, or
    from a PTRC container or campaign directory (any other path)."""
    if path.suffix == ".din":
        from .traces.dinero import read_dinero_chunks
        yield from read_dinero_chunks(path)
        return
    from .traces.container import open_chunk_source, unpack_tokens
    with open_chunk_source(path) as src:
        for chunk in src.chunks():
            yield unpack_tokens(chunk)


def cmd_trace(args) -> int:
    from .fleet import JournalError
    from .traces.container import TraceContainerError
    from .traces.dinero import DineroFormatError

    action = {"info": _trace_info, "convert": _trace_convert,
              "cat": _trace_cat, "verify": _trace_verify}[args.action]
    try:
        return action(args)
    except (OSError, TraceContainerError, DineroFormatError,
            JournalError) as exc:
        print(f"trace {args.action} failed: {str(exc).splitlines()[0]}",
              file=sys.stderr)
        return 1


def _trace_info(args) -> int:
    from .fleet.journal import CampaignTraces, trace_path
    from .traces.container import TraceContainer

    path = Path(args.path)
    if path.is_dir():
        campaign = CampaignTraces(path)
        print(f"campaign     : {path} ({campaign.spec['name']!r}, "
              f"{len(campaign.members)} archived session trace(s))")
        total = 0
        for session_id, digest in campaign.members:
            with TraceContainer(trace_path(path, session_id)) as container:
                total += container.tokens
                print(f"  {session_id:12s} {container.tokens:>12,} tokens  "
                      f"digest {digest[:12]}…")
        print(f"tokens       : {total:,} total")
        return 0
    # Everything but the session metadata comes from the header, footer
    # and CRC-checked index, not from the unchecksummed manifest JSON.
    with TraceContainer(path) as c:
        payload = int(c.index["nbytes"].sum())
        session = c.manifest.get("session")
    print(f"container    : {path} (PTRC v{c.version})")
    print(f"codec        : {c.codec}, {c.chunk_tokens:,} tokens/chunk")
    print(f"tokens       : {c.tokens:,} in {c.n_chunks} chunk(s)")
    print(f"payload      : {payload:,} bytes "
          f"({payload / max(1, 8 * c.tokens):.3f}x of raw)")
    print(f"digest       : {c.digest}")
    for key, value in sorted(session.items()
                             if isinstance(session, dict) else ()):
        print(f"session.{key:<12s}: {value}")
    return 0


def _trace_cat(args) -> int:
    left = args.limit
    for addresses, kinds in _trace_reference_stream(Path(args.path)):
        if left is not None:
            addresses, kinds = addresses[:left], kinds[:left]
        for addr, kind in zip(addresses, kinds):
            print(f"{_KIND_NAMES.get(int(kind) & 0x0F, '?'):5s} "
                  f"{_REGION_NAMES.get(int(kind) >> 4, '?'):5s} "
                  f"{int(addr):#010x}")
        if left is not None:
            left -= len(addresses)
            if left <= 0:
                return 0
    return 0


def _trace_verify(args) -> int:
    from .fleet import JournalError
    from .traces.container import TraceContainerError, open_chunk_source

    try:
        with open_chunk_source(args.path) as src:
            report = src.verify(deep=not args.no_deep)
    except (TraceContainerError, JournalError) as exc:
        print(f"verify FAILED: {str(exc).splitlines()[0]}", file=sys.stderr)
        if not args.salvage or isinstance(exc, JournalError):
            return 1
        from .resilience import salvage_container
        result = salvage_container(args.path, args.salvage)
        print(result.summary())
        print(result.report.format())
        return 0 if result.tokens_kept else 1
    if isinstance(report, dict) and "chunks" in report:
        print(f"verify OK    : {report['chunks']} chunk(s), "
              f"{report['tokens']:,} tokens"
              + (f", digest {report['digest'][:12]}…"
                 if "digest" in report else " (structure only)"))
    else:
        for session_id, member_report in report.items():
            print(f"verify OK    : {session_id}: "
                  f"{member_report['chunks']} chunk(s), "
                  f"{member_report['tokens']:,} tokens")
    return 0


def _trace_convert(args) -> int:
    from .storage import replacing

    src = Path(args.src)
    dst = Path(args.dst)
    if dst.suffix not in (".ptrc", ".din"):
        print(f"unknown destination format {dst.suffix!r} "
              f"(use .ptrc or .din)", file=sys.stderr)
        return 2
    # Written to a sibling and renamed over ``dst`` only once complete:
    # a failed conversion leaves no file, or the previous one intact.
    with replacing(dst) as tmp:
        if dst.suffix == ".ptrc":
            from .traces.container import DEFAULT_CHUNK_TOKENS, ContainerWriter
            with ContainerWriter(
                    tmp, codec=args.codec, session={"source": str(src)},
                    chunk_tokens=args.chunk_tokens or DEFAULT_CHUNK_TOKENS,
                    ) as writer:
                for addresses, kinds in _trace_reference_stream(src):
                    writer.append_reference(addresses, kinds)
            manifest = writer.manifest
            done = (f"{manifest['tokens']:,} tokens, {manifest['chunks']} "
                    f"chunk(s), codec {manifest['codec']}, "
                    f"digest {manifest['digest'][:12]}…")
        else:
            from .traces.dinero import write_dinero_chunks
            count = write_dinero_chunks(tmp, _trace_reference_stream(src))
            done = f"{count:,} records"
    print(f"wrote {dst}: {done}")
    return 0


def cmd_fleet(args) -> int:
    from .fleet import (
        CampaignSpec,
        ChaosPlan,
        FleetSupervisor,
        JournalError,
        read_manifest,
        verify_chaos,
    )
    from .fleet.campaign import DEFAULT_CACHES, DEFAULT_DURATIONS
    from .storage import write_json

    progress = (lambda text: None) if args.quiet else (
        lambda text: print(f"  {text}"))

    if args.resume:
        try:
            spec_json, _ = read_manifest(args.out)
        except JournalError as exc:
            print(f"cannot resume: {exc}", file=sys.stderr)
            return 1
        spec = CampaignSpec.from_json(spec_json)
        print(f"resuming campaign {spec.name!r} "
              f"({spec.sessions} sessions) in {args.out}")
    else:
        durations = (tuple(float(d) for d in args.durations.split(","))
                     if args.durations else DEFAULT_DURATIONS)
        if args.caches:
            caches = tuple(
                tuple(int(part) for part in triple.split(":"))
                for triple in args.caches.split(","))
        else:
            caches = DEFAULT_CACHES
        mixes = {}
        if args.app_mixes:
            mixes["app_mixes"] = tuple(
                tuple(mix.split("+")) for mix in args.app_mixes.split(","))
        spec = CampaignSpec(
            name=Path(args.out).name or "campaign",
            sessions=args.sessions,
            seed=args.seed,
            behaviors=tuple(args.behaviors.split(",")),
            **mixes,
            durations=durations,
            caches=caches,
            policy=args.policy,
            checkpoint_every=args.checkpoint_every,
            archive_traces=args.archive_traces,
        )
        cells = spec.cells()
        print(f"campaign {spec.name!r}: {spec.sessions} sessions over "
              f"{len(cells)} grid cell(s), {args.jobs} worker(s)")

    chaos_plan = None
    chaos = None
    if args.chaos:
        chaos_plan = ChaosPlan.plan(spec.sessions, seed=args.chaos_seed)
        chaos = chaos_plan.directives()
        print(f"  {chaos_plan.describe()}")

    supervisor = FleetSupervisor(
        spec, args.out, jobs=args.jobs, hang_timeout=args.hang_timeout,
        retries=args.retries, backoff_base=args.backoff_base,
        chaos=chaos, progress=progress)
    try:
        result = supervisor.run(resume=args.resume)
    except JournalError as exc:
        print(f"campaign integrity check failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted — the journal is durable; continue with "
              "--resume")
        return 130

    print(result.format(spec.name))
    ok = result.complete
    if chaos_plan is not None:
        problems = verify_chaos(chaos_plan, result)
        if problems:
            ok = False
            print("chaos self-test FAILED:")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print("chaos self-test: all recovery paths held")
    if args.json:
        payload = {
            "spec": spec.to_json(),
            "completed": result.completed,
            "quarantined": result.quarantined,
            "ran": result.ran,
            "retried": result.retried,
            "crashes": result.crashes,
            "hangs": result.hangs,
            "wall_seconds": result.wall_seconds,
            "sessions_per_minute": result.sessions_per_minute(),
            "summary": result.aggregate.summary(),
        }
        if chaos_plan is not None:
            payload["chaos"] = {
                "crash_victims": chaos_plan.crash_victims,
                "stall_victims": chaos_plan.stall_victims,
                "poison_victims": chaos_plan.poison_victims,
                "violations": verify_chaos(chaos_plan, result),
            }
        write_json(args.json, payload)
    return 0 if ok else 1


_COMMANDS = {
    "collect": cmd_collect,
    "replay": cmd_replay,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
    "desktop-trace": cmd_desktop,
    "rom": cmd_rom,
    "lint": cmd_lint,
    "audit": cmd_audit,
    "verify-codegen": cmd_verify_codegen,
    "sanitize": cmd_sanitize,
    "trace": cmd_trace,
    "fleet": cmd_fleet,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except RomMismatchError as exc:
        # Any command replaying an archive collected on another build.
        print(f"cannot replay this archive: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
