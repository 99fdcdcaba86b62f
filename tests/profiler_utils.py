"""Shared helper for tests that compare profiler reference traces."""

from __future__ import annotations

import hashlib


def trace_fingerprint(prof) -> bytes:
    """SHA-256 of the profiler's packed reference trace, tokens
    little-endian in stream order.  Streams :meth:`Profiler.chunks`, so
    how the trace is chunked does not change the fingerprint."""
    digest = hashlib.sha256()
    for chunk in prof.chunks():
        digest.update(chunk.astype("<u8", copy=False).tobytes())
    return digest.digest()
