"""Dinero-format trace interchange.

The BYU Trace Distribution Center (the paper's Figure 7 source, [21])
distributed traces consumable by dineroIII/IV; this module round-trips
our reference traces through that classic text format so they can be
fed to other cache simulators — and traces from elsewhere can be fed
to ours.

Format: one access per line, ``<label> <hex address>``, where label is
0 = data read, 1 = data write, 2 = instruction fetch.

Both directions work in chunked numpy passes rather than per-record
Python: formatting batches ~64 K records into one string per
``write`` call, and parsing decodes a chunk's hex addresses with a
nibble lookup table over the zero-padded character matrix.  Malformed
records (unknown label, bad or oversized address, missing field) raise
:class:`DineroFormatError` with the offending line number instead of
being silently coerced.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from ..device.memmap import KIND_FETCH, KIND_READ, KIND_WRITE

#: dinero labels.
DIN_READ = 0
DIN_WRITE = 1
DIN_FETCH = 2

_KIND_TO_DIN = {KIND_READ: DIN_READ, KIND_WRITE: DIN_WRITE,
                KIND_FETCH: DIN_FETCH}
_DIN_TO_KIND = {DIN_READ: KIND_READ, DIN_WRITE: KIND_WRITE,
                DIN_FETCH: KIND_FETCH}

#: Records per formatting/parsing chunk.
_CHUNK = 1 << 16

#: ASCII code point -> hex nibble value, 255 for non-hex characters.
_HEX_LUT = np.full(128, 255, dtype=np.uint8)
for _i, _c in enumerate("0123456789abcdef"):
    _HEX_LUT[ord(_c)] = _i
for _i, _c in enumerate("ABCDEF", 10):
    _HEX_LUT[ord(_c)] = _i


class DineroFormatError(ValueError):
    """A record in a dinero trace file could not be decoded."""


#: Hex nibble value -> lowercase ASCII code point.
_HEX_CHARS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _format_chunk(addresses: np.ndarray, kinds: np.ndarray) -> bytes:
    """One chunk of ``<label> <hex address>\\n`` lines as raw bytes.

    Fully vectorized, and byte-identical to ``f"{label} {addr:x}"``
    per line: the address hex is variable-width (no zero padding), so
    the lines are assembled by ragged scatter — per-line byte offsets
    from a cumulative sum of line lengths, hex digits gathered from
    the (n, 8) nibble matrix starting at each address's first
    significant nibble.
    """
    n = len(addresses)
    lut = np.full(16, 255, dtype=np.uint8)
    for kind, din in _KIND_TO_DIN.items():
        lut[kind] = din
    labels = lut[kinds & 0x0F]
    if (labels == 255).any():
        bad = int(np.flatnonzero(labels == 255)[0])
        raise DineroFormatError(
            f"reference {bad}: kind {int(kinds[bad] & 0x0F)} has no "
            "dinero label (not fetch/read/write)")
    addresses = np.ascontiguousarray(addresses, dtype=np.uint32)
    nibbles = np.empty((n, 8), dtype=np.uint8)
    for col in range(8):
        nibbles[:, col] = (addresses >> np.uint32((7 - col) * 4)) \
            & np.uint32(0xF)
    # First significant nibble; an all-zero address keeps one digit.
    first = np.where(addresses == 0, 7,
                     np.argmax(nibbles != 0, axis=1)).astype(np.int64)
    width = 8 - first                          # hex digits per line
    lengths = width + 3                        # label + space + ... + \n
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    out[starts] = labels + ord("0")
    out[starts + 1] = ord(" ")
    out[ends - 1] = ord("\n")
    # Ragged gather/scatter of the hex digits: ``intra`` is each
    # digit's position within its own line's hex field.
    total_hex = int(width.sum())
    intra = np.arange(total_hex) - np.repeat(np.cumsum(width) - width,
                                             width)
    flat_pos = np.repeat(starts + 2, width) + intra
    src_col = np.repeat(first, width) + intra
    out[flat_pos] = _HEX_CHARS[
        nibbles[np.repeat(np.arange(n), width), src_col]]
    return out.tobytes()


def write_dinero_chunks(path: Union[str, Path], chunks) -> int:
    """Write ``(addresses, kinds)`` chunk pairs as a dinero text file
    without ever materializing the whole trace; returns the record
    count."""
    n = 0
    with open(path, "wb") as handle:
        for addresses, kinds in chunks:
            if len(addresses) == 0:
                continue
            handle.write(_format_chunk(np.asarray(addresses),
                                       np.asarray(kinds)))
            n += len(addresses)
    return n


def _parse_chunk(lines: list, first_line_number: int):
    """Decode one chunk of text lines; returns (addresses, kinds) with
    blank lines dropped."""
    arr = np.char.strip(np.char.replace(
        np.asarray(lines, dtype=np.str_), "\t", " "))
    arr = arr[np.char.str_len(arr) > 0]
    if len(arr) == 0:
        return (np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint8))

    def fail(bad_mask: np.ndarray, what: str):
        idx = int(np.flatnonzero(bad_mask)[0])
        # Recover the original (1-based) line number of the bad record.
        nonblank = [i for i, line in enumerate(lines) if line.strip()]
        lineno = first_line_number + nonblank[idx]
        raise DineroFormatError(
            f"line {lineno}: {what}: {str(arr[idx])!r}")

    label, _, rest = np.char.partition(arr, " ").T
    addr_str = np.char.partition(np.char.lstrip(rest), " ")[:, 0]

    kinds = np.empty(len(arr), dtype=np.uint8)
    known = np.zeros(len(arr), dtype=bool)
    for din, kind in _DIN_TO_KIND.items():
        mask = label == str(din)
        kinds[mask] = kind
        known |= mask
    if not known.all():
        fail(~known, "unknown dinero label")

    width = np.char.str_len(addr_str)
    bad = (width == 0) | (width > 8)
    if bad.any():
        fail(bad, "missing or oversized address")
    padded = np.char.rjust(addr_str, 8, "0")
    # A U8 string array is a contiguous (n, 8) code-point matrix.
    chars = np.ascontiguousarray(padded).view(np.uint32).reshape(-1, 8)
    nibbles = _HEX_LUT[np.minimum(chars, 127)]
    bad = (chars > 127).any(axis=1) | (nibbles == 255).any(axis=1)
    if bad.any():
        fail(bad, "invalid hex address")
    addresses = np.zeros(len(arr), dtype=np.uint32)
    for col in range(8):
        addresses <<= np.uint32(4)
        addresses |= nibbles[:, col]
    return addresses, kinds


def read_dinero_chunks(path: Union[str, Path]):
    """Read a dinero text file as a stream of ``(addresses, kinds)``
    chunk views — the whole file is never resident, so dinero→PTRC
    conversion runs in bounded memory however large the trace.

    Region nibbles are synthesised from the address (below 16 MB = RAM,
    otherwise flash) since the format does not carry them.  Raises
    :class:`DineroFormatError` on malformed records.
    """
    lineno = 1
    # Undecodable bytes become U+FFFD and fail as a bad label or address.
    with open(path, encoding="ascii", errors="replace") as handle:
        while True:
            lines = handle.readlines(_CHUNK * 12)
            if not lines:
                break
            try:
                addresses, kinds = _parse_chunk(lines, lineno)
            except DineroFormatError as exc:
                raise DineroFormatError(f"{path}: {exc}") from None
            lineno += len(lines)
            if len(addresses):
                region = np.where(addresses < (16 << 20), 0, 1) \
                    .astype(np.uint8)
                yield addresses, (kinds | (region << 4)).astype(np.uint8)
