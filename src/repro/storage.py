"""Atomic whole-file replacement for every file this package rewrites:
a crash mid-write leaves the previous file intact."""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Union


@contextmanager
def replacing(path: Union[str, "os.PathLike[str]"]) -> Iterator[str]:
    """Yield a temporary sibling of ``path`` for the caller to write and
    fsync; a clean exit renames it over ``path``, an error removes it."""
    tmp = f"{os.fspath(path)}.tmp.{os.getpid()}"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic(path: Union[str, "os.PathLike[str]"], data: bytes) -> None:
    """Write ``data`` to ``path`` through :func:`replacing`, fsynced."""
    with replacing(path) as tmp, open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
