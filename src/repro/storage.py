"""Atomic whole-file replacement for every file this package rewrites
(a crash mid-write leaves the previous file intact), and the one
writer and reader of its JSON documents."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Iterator, Type, Union

PathLike = Union[str, "os.PathLike[str]"]


@contextmanager
def replacing(path: PathLike) -> Iterator[str]:
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


def write_atomic(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` through :func:`replacing`, fsynced."""
    with replacing(path) as tmp, open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def write_json(path: PathLike, data: dict) -> None:
    """Write ``data`` as pretty, key-sorted JSON, atomically: equal
    dicts give byte-identical files, so resume tests compare bytes."""
    write_atomic(path, (json.dumps(data, sort_keys=True, indent=2)
                        + "\n").encode("utf-8"))


def read_json(path: PathLike, error: Type[ValueError]) -> dict:
    """The JSON object stored at ``path``.  A file that does not decode
    (torn, not UTF-8, not JSON) or is not an object raises the caller's
    ``error``; a missing one raises ``OSError``."""
    with open(path, "rb") as handle:
        blob = handle.read()
    try:
        data = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise error(f"{os.fspath(path)}: undecodable: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{os.fspath(path)}: not a JSON object")
    return data
