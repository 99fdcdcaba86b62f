"""Per-process assembly memo for the kernel ROM and the hack payloads."""

import dataclasses

import pytest

from repro.apps import standard_apps
from repro.device import constants as C
from repro.hacks.manager import hack_payload
from repro.hacks.logging_hacks import evt_enqueue_key_hack, sys_random_hack
from repro.m68k.asm import assemble
from repro.palmos import Trap
from repro.palmos.rom import RomBuilder, _symbols


def test_mutating_a_build_does_not_reach_the_next():
    first = RomBuilder().build()
    pristine = (list(first.segments), dict(first.symbols))
    first.symbols["stub_SysRandom"] = 0
    first.symbols["extra"] = 1
    first.segments.clear()
    second = RomBuilder().build()
    assert (second.segments, second.symbols) == pristine
    assert second.symbols is not first.symbols
    assert second.segments is not first.segments


def test_cached_build_equals_uncached_assembly():
    builder = RomBuilder(standard_apps())
    builder.build()                                   # warm the memo
    cached = builder.build()
    fresh = assemble(builder.source(), origin=C.FLASH_BASE,
                     symbols=_symbols())
    assert cached.segments == fresh.segments
    assert cached.symbols == fresh.symbols
    assert cached.entry == fresh.entry


def test_distinct_app_lists_get_distinct_entries():
    bare = RomBuilder().build()
    apps = standard_apps()
    full = RomBuilder(apps).build()
    one = RomBuilder(apps[:1]).build()
    assert len({tuple(p.segments) for p in (bare, full, one)}) == 3
    for app in apps:
        assert f"app_{app.name}" in full.symbols
        assert f"app_{app.name}" not in bare.symbols


def test_payload_memo_matches_direct_assembly():
    spec = sys_random_hack()
    payload = hack_payload(spec)
    assert payload == hack_payload(spec)
    assert payload == assemble(spec.source, origin=0,
                               symbols=_symbols()).blob


def test_header_checks_run_on_every_call():
    # Same source, so the second call is a memo hit; the spec's trap
    # no longer matches the assembled header and must still be caught.
    spec = evt_enqueue_key_hack()
    hack_payload(spec)
    wrong = dataclasses.replace(spec, trap=Trap.SysRandom)
    with pytest.raises(ValueError, match="header trap"):
        hack_payload(wrong)
