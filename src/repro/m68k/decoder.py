"""The 68000 interpreter's opcode dispatch table, built on demand.

The table maps each 16-bit opcode word to a specialised handler
closure, or ``None`` for a word without one (illegal encodings and the
A-line/F-line traps the CPU services through its host hooks).  Every
:class:`~repro.m68k.cpu.CPU`, the block-predecoding replay core and
the static analyzer's legality test share it.

A slot is built the first time its word is resolved: :data:`TABLE`
starts as ``[UNBUILT] * 0x10000`` and :func:`resolve` fills one slot
per call, so a process pays only for the few hundred opcodes its
sessions run, not for all 46,161 handlers (~9.5k ``compile()`` calls).
:data:`UNBUILT` is falsy, so a reader tests a slot with ``if not
handler:`` and resolves on the miss.  Building a handler is a pure
function of the word, so two racing resolutions store equivalent
closures: no lock.
"""

from __future__ import annotations

from typing import List, Literal, Optional, Union

from .instructions import Handler, build_handler


class _Unbuilt:
    """Type of :data:`UNBUILT`: falsy and not callable, so a slot that
    was never resolved can be neither mistaken for a handler nor for
    the ``None`` of an illegal word."""

    __slots__ = ()

    def __bool__(self) -> Literal[False]:
        return False

    def __repr__(self) -> str:
        return "UNBUILT"


#: Marks a table slot whose handler has not been built yet.
UNBUILT = _Unbuilt()

#: The process-wide dispatch table, filled in place by :func:`resolve`
#: (never rebound, so references to it stay current).  A slot holds a
#: handler, ``None`` (no handler) or :data:`UNBUILT`.
TABLE: List[Union[Handler, None, _Unbuilt]] = [UNBUILT] * 0x10000


def resolve(op: int) -> Optional[Handler]:
    """The handler for opcode word ``op`` (``None`` when it has none),
    building and storing it on first use."""
    handler = TABLE[op]
    if isinstance(handler, _Unbuilt):
        handler = TABLE[op] = build_handler(op)
    return handler
