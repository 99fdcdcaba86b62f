"""PTRC: the chunked, compressed, indexed on-disk trace container.

The replay pipeline records memory references as packed uint64 tokens
(``addr | kinds_byte << 32`` — the profiler's in-RAM format).  A PTRC
file stores that token stream in fixed-size chunks so the cache layer
can simulate population-scale traces out of core: chunks are written
incrementally during replay, and read back either as zero-copy numpy
views over an ``mmap`` (``raw`` codec) or through a bounded decode
window (``zlib``/``zstd`` codecs) — resident memory never exceeds a
few chunks no matter how large the archive is.

On-disk layout (all integers little-endian)::

    header   32 B   magic "PTRC01", version, codec, chunk_tokens
    frames   N ×    frame header 24 B ("PTCK", payload bytes, token
                    count, crc32 of the *raw* token bytes, first/last
                    address) + payload
    index    N × 28 B   one record per chunk: payload offset, payload
                    bytes, token count, crc32, first/last address
    manifest JSON   session metadata, codec, token totals, sha256
                    digest of the raw token stream
    footer   56 B   offsets/sizes of index + manifest, total tokens,
                    crc32 of the index block, magic "PTRCEND1"

Version 2 (written) stores a compressed chunk as its 8 byte planes —
plane k holds byte k of every token — so the deflater sees the
always-zero high bytes and the few kind values as long runs instead
of 8-byte strides.  Raw-codec payloads are the plain tokens in every
version.  Version 1 files (compressed plain tokens) still read;
``palm-repro trace convert`` rewrites them as version 2.

Every chunk frame is self-describing, so a file whose writer died
before the footer was written (a *torn tail*) is recoverable by
walking frames from the header — :func:`scan_frames` underlies
``repro.resilience.salvage.salvage_container``.  Frame headers are
24 bytes and payloads are multiples of 8, so raw-codec payloads are
always 8-byte aligned and the mmap views are true zero-copy arrays.

The CRCs, first/last addresses and digest are computed over the
*uncompressed* token bytes, never the stored payload: the same trace
has the same identity no matter which codec or version stored it.
The fleet journal records the digest per session and verifies it on
``--resume``; a fleet campaign directory is the multi-session trace
store (:func:`open_chunk_source` opens it as one chunk source).
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from hashlib import sha256
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..device.memmap import KIND_WRITE, REGION_HW

if TYPE_CHECKING:
    from ..fleet.journal import CampaignTraces

MAGIC = b"PTRC01"
VERSION = 2
#: Versions this build reads: 1 (compressed plain tokens) and 2.
READ_VERSIONS = (1, VERSION)
FRAME_MAGIC = b"PTCK"
FOOTER_MAGIC = b"PTRCEND1"

_HEADER = struct.Struct("<6sH8sII8x")          # 32 bytes
_FRAME = struct.Struct("<4sIIIII")             # 24 bytes
_FOOTER = struct.Struct("<QQQQQI4x8s")         # 56 bytes
HEADER_SIZE = _HEADER.size
FRAME_HEADER_SIZE = _FRAME.size
FOOTER_SIZE = _FOOTER.size

#: Default tokens per chunk: 1 Mi tokens = 8 MiB raw.  Large enough
#: that zlib gets real context and the per-chunk kernel set-up cost
#: amortizes, small enough that a decode window stays far under the
#: 256 MB out-of-core budget.
DEFAULT_CHUNK_TOKENS = 1 << 20

#: Compression level per codec.  On the byte planes of a replay trace
#: zlib level 1 deflates ~2.2x faster than level 6 (20 vs 43 ns/token)
#: and stores 0.17 vs 0.09 B/token; zstd keeps level 6 (no backend was
#: available to measure its trade).
_LEVELS = {"zlib": 1, "zstd": 6}

_MASK32 = np.uint64(0xFFFFFFFF)

_INDEX_DTYPE = np.dtype([
    ("offset", "<u8"),    # file offset of the chunk *payload*
    ("nbytes", "<u4"),    # payload size as stored (compressed)
    ("tokens", "<u4"),    # token count
    ("crc32", "<u4"),     # crc32 of the raw (uncompressed) token bytes
    ("first", "<u4"),     # first address in the chunk
    ("last", "<u4"),      # last address in the chunk
])


class TraceContainerError(ValueError):
    """A PTRC file is not one, is torn, or failed an integrity check."""


# -- codecs ---------------------------------------------------------------

def _load_zstd():
    """The zstd module if any binding is importable, else ``None``.
    The container gates zstd behind this probe instead of requiring
    it: zlib is always available and is the default codec."""
    try:
        import zstandard  # type: ignore
        return ("zstandard", zstandard)
    except ImportError:
        pass
    try:
        from compression import zstd  # type: ignore
        return ("compression.zstd", zstd)
    except ImportError:
        return None


_ZSTD = _load_zstd()


def available_codecs() -> Tuple[str, ...]:
    codecs = ["raw", "zlib"]
    if _ZSTD is not None:
        codecs.append("zstd")
    return tuple(codecs)


def _check_codec(codec: str) -> None:
    if codec in ("raw", "zlib"):
        return
    if codec == "zstd":
        if _ZSTD is None:
            raise TraceContainerError(
                "codec 'zstd' requires the zstandard module, which is "
                "not installed — use 'zlib' (default) or 'raw'")
        return
    raise TraceContainerError(
        f"unknown codec {codec!r} (known: raw, zlib, zstd)")


def _encode(codec: str, chunk: np.ndarray) -> Union[np.ndarray, bytes]:
    """The stored payload of a little-endian token chunk: the tokens
    themselves for ``raw``, else the compressed byte planes."""
    raw = chunk.view(np.uint8)
    if codec == "raw":
        return raw
    planes = np.ascontiguousarray(raw.reshape(-1, 8).T)
    level = _LEVELS[codec]
    if codec == "zlib":
        return zlib.compress(planes, level)
    name, mod = _ZSTD  # type: ignore[misc]
    if name == "zstandard":
        return mod.ZstdCompressor(level=level).compress(planes)
    return mod.compress(planes, level)


def _inflate(codec: str, payload: bytes, nbytes: int) -> bytes:
    """Decompress a payload into at most ``nbytes`` + 1 bytes (zlib
    reads a limit of 0 as unbounded), so a frame that lies about its
    size cannot inflate past it."""
    try:
        if codec == "zlib":
            inflater = zlib.decompressobj()
            raw = inflater.decompress(payload, nbytes + 1)
            ended = inflater.eof and not inflater.unconsumed_tail
        else:
            name, mod = _ZSTD  # type: ignore[misc]
            if name == "zstandard":
                raw = mod.ZstdDecompressor().decompress(
                    payload, max_output_size=nbytes + 1)
            else:
                raw = mod.decompress(payload)
            ended = True
    except Exception as exc:
        # Corrupt payload bytes surface as codec-specific errors
        # (zlib.error, ZstdError); containers promise one typed error.
        raise TraceContainerError(
            f"undecodable {codec} chunk payload: {exc}") from exc
    if not ended:
        raise TraceContainerError(
            f"{codec} payload does not end within {nbytes} bytes")
    return raw


def _tokens(codec: str, version: int, payload: Union[bytes, memoryview],
            count: int) -> np.ndarray:
    """A chunk's ``count`` tokens from its stored payload: inflate,
    check the length, and put version-2 byte planes back in token
    order.  Raw payloads come back as zero-copy views."""
    nbytes = count * 8
    if codec != "raw":
        payload = _inflate(codec, payload, nbytes)
    if len(payload) != nbytes:
        raise TraceContainerError(
            f"payload decoded to {len(payload)} bytes, expected {nbytes}")
    if codec == "raw" or version == 1:
        return np.frombuffer(payload, dtype="<u8")
    planes = np.frombuffer(payload, dtype=np.uint8).reshape(8, count)
    return np.ascontiguousarray(planes.T).view("<u8").reshape(count)


# -- token packing --------------------------------------------------------

def pack_tokens(addresses: np.ndarray, kinds: np.ndarray) -> np.ndarray:
    """(addresses, packed kinds byte) -> uint64 token array, the
    profiler's ``addr | kinds << 32`` convention."""
    return (addresses.astype(np.uint64) & _MASK32) \
        | (kinds.astype(np.uint64) << np.uint64(32))


def unpack_tokens(tokens: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """uint64 token array -> (uint32 addresses, uint8 kinds byte)."""
    return ((tokens & _MASK32).astype(np.uint32),
            (tokens >> np.uint64(32)).astype(np.uint8))


def cache_chunks(token_chunks: Iterable[np.ndarray],
                 ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Adapt a token-chunk stream for the out-of-core cache kernels:
    yields ``(addresses, writes)`` per chunk, with hardware-register
    references dropped (``ReferenceTrace.memory_only`` semantics).
    Empty chunks are skipped — the kernels' chunk protocol carries no
    information in them."""
    for chunk in token_chunks:
        addrs, kinds = unpack_tokens(np.asarray(chunk, dtype=np.uint64))
        mask = (kinds >> 4) != REGION_HW
        addrs, kinds = addrs[mask], kinds[mask]
        if len(addrs):
            yield addrs, (kinds & 0x0F) == KIND_WRITE


def reference_counts(token_chunks: Iterable[np.ndarray]) -> dict:
    """``ReferenceTrace.counts()``-shaped region/kind totals from a
    token-chunk stream, one chunk resident at a time."""
    from ..emulator.profiling import _kind_histogram, kind_totals
    histogram = np.zeros(256, dtype=np.uint64)
    for chunk in token_chunks:
        histogram += _kind_histogram(np.asarray(chunk, dtype=np.uint64))
    return kind_totals(histogram)


# -- writer ---------------------------------------------------------------

class ContainerWriter:
    """Incremental PTRC writer.

    Feed it uint64 token blocks of any size with :meth:`append_tokens`
    (the profiler's flush path calls it chunk by chunk during replay);
    it re-chunks them to ``chunk_tokens`` and writes one frame per
    chunk.  :meth:`close` flushes the tail, then writes index,
    manifest and footer.  Until ``close`` returns the file has no
    footer — a crash leaves a torn but salvageable prefix.
    """

    def __init__(self, path, *, codec: str = "zlib",
                 chunk_tokens: int = DEFAULT_CHUNK_TOKENS,
                 session: Optional[dict] = None):
        _check_codec(codec)
        if chunk_tokens < 1:
            raise TraceContainerError("chunk_tokens must be >= 1")
        self.path = os.fspath(path)
        self.codec = codec
        self.chunk_tokens = int(chunk_tokens)
        self.session = dict(session or {})
        self._buf = np.empty(self.chunk_tokens, dtype=np.uint64)
        self._fill = 0
        self._entries: List[tuple] = []
        self._digest = sha256()
        self._tokens = 0
        self._closed = False
        self._manifest: Optional[dict] = None
        self._fh = open(self.path, "wb")
        try:
            self._fh.write(_HEADER.pack(
                MAGIC, VERSION, codec.encode("ascii").ljust(8, b"\0"),
                self.chunk_tokens, 0))
        except BaseException:
            self._fh.close()
            raise

    # -- feeding ----------------------------------------------------------
    def append_tokens(self, tokens: np.ndarray) -> None:
        if self._closed:
            raise TraceContainerError("writer is closed")
        tokens = np.ascontiguousarray(tokens, dtype=np.uint64)
        pos = 0
        n = len(tokens)
        while pos < n:
            take = min(self.chunk_tokens - self._fill, n - pos)
            self._buf[self._fill:self._fill + take] = tokens[pos:pos + take]
            self._fill += take
            pos += take
            if self._fill == self.chunk_tokens:
                self._emit(self._buf)
                self._fill = 0

    def append_reference(self, addresses: np.ndarray,
                         kinds: np.ndarray) -> None:
        """Convenience: append an (addresses, kinds) block."""
        self.append_tokens(pack_tokens(addresses, kinds))

    def _emit(self, chunk: np.ndarray) -> None:
        chunk = chunk.astype("<u8", copy=False)
        self._digest.update(chunk)
        crc = zlib.crc32(chunk)
        payload = _encode(self.codec, chunk)
        first = int(chunk[0] & _MASK32)
        last = int(chunk[-1] & _MASK32)
        self._fh.write(_FRAME.pack(FRAME_MAGIC, len(payload), len(chunk),
                                   crc, first, last))
        offset = self._fh.tell()
        self._fh.write(payload)
        self._entries.append((offset, len(payload), len(chunk),
                              crc, first, last))
        self._tokens += len(chunk)

    # -- finishing --------------------------------------------------------
    @property
    def tokens_written(self) -> int:
        return self._tokens + self._fill

    @property
    def manifest(self) -> Optional[dict]:
        return self._manifest

    def close(self) -> dict:
        """Flush the tail chunk, write index + manifest + footer, and
        return the manifest."""
        if self._closed:
            return self._manifest  # type: ignore[return-value]
        if self._fill:
            self._emit(self._buf[:self._fill])
            self._fill = 0
        index = np.zeros(len(self._entries), dtype=_INDEX_DTYPE)
        for i, entry in enumerate(self._entries):
            index[i] = entry
        index_blob = index.tobytes()
        manifest = {
            "format": "PTRC",
            "version": VERSION,
            "codec": self.codec,
            "chunk_tokens": self.chunk_tokens,
            "tokens": self._tokens,
            "chunks": len(self._entries),
            "payload_bytes": int(index["nbytes"].sum()) if len(index) else 0,
            "digest": self._digest.hexdigest(),
            "session": self.session,
        }
        manifest_blob = json.dumps(
            manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
        index_offset = self._fh.tell()
        self._fh.write(index_blob)
        manifest_offset = self._fh.tell()
        self._fh.write(manifest_blob)
        self._fh.write(_FOOTER.pack(
            index_offset, len(index_blob), manifest_offset,
            len(manifest_blob), self._tokens, zlib.crc32(index_blob),
            FOOTER_MAGIC))
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._closed = True
        self._manifest = manifest
        return manifest

    def abort(self) -> None:
        """Close the handle without finalizing (leaves a torn file)."""
        if not self._closed:
            self._fh.close()
            self._closed = True

    def __enter__(self) -> "ContainerWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


# -- reader ---------------------------------------------------------------

#: How a torn container is recovered from the command line.
_SALVAGE_HINT = "try palm-repro trace verify PATH --salvage OUT.ptrc"


class TraceContainer:
    """A PTRC file opened for reading.

    Raw-codec chunks come back as zero-copy ``uint64`` views over one
    shared mmap; compressed chunks are decoded one bounded window at a
    time.  Either way :meth:`chunks` never materializes more than one
    chunk of raw tokens.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._fh = open(self.path, "rb")
        try:
            size = os.fstat(self._fh.fileno()).st_size
            head = self._fh.read(HEADER_SIZE)
            if head[:len(MAGIC)] != MAGIC:
                raise TraceContainerError(
                    f"{self.path}: bad magic {head[:len(MAGIC)]!r} "
                    "(not a PTRC file)")
            if size < HEADER_SIZE + FOOTER_SIZE:
                raise TraceContainerError(
                    f"{self.path}: too short to be a PTRC container "
                    f"(torn tail? {_SALVAGE_HINT})")
            magic, version, codec_raw, chunk_tokens, _flags = \
                _HEADER.unpack(head)
            if version not in READ_VERSIONS:
                raise TraceContainerError(
                    f"{self.path}: unsupported PTRC version {version}")
            self.version = version
            self.codec = codec_raw.rstrip(b"\0").decode("ascii", "replace")
            _check_codec(self.codec)
            self.chunk_tokens = chunk_tokens
            self._fh.seek(size - FOOTER_SIZE)
            (index_offset, index_nbytes, manifest_offset, manifest_nbytes,
             tokens, index_crc, footer_magic) = \
                _FOOTER.unpack(self._fh.read(FOOTER_SIZE))
            if footer_magic != FOOTER_MAGIC:
                raise TraceContainerError(
                    f"{self.path}: missing footer — torn container "
                    f"(writer died before close; {_SALVAGE_HINT})")
            end = size - FOOTER_SIZE
            if (index_offset + index_nbytes > end
                    or manifest_offset + manifest_nbytes > end):
                raise TraceContainerError(
                    f"{self.path}: footer points past the end of the file")
            self._fh.seek(index_offset)
            index_blob = self._fh.read(index_nbytes)
            if len(index_blob) != index_nbytes \
                    or zlib.crc32(index_blob) != index_crc:
                raise TraceContainerError(
                    f"{self.path}: index block corrupt")
            self.index = np.frombuffer(index_blob, dtype=_INDEX_DTYPE)
            self._fh.seek(manifest_offset)
            try:
                self.manifest = json.loads(
                    self._fh.read(manifest_nbytes).decode("utf-8"))
            except ValueError as exc:  # UnicodeDecodeError is one too
                raise TraceContainerError(
                    f"{self.path}: manifest corrupt: {exc}") from exc
            if not isinstance(self.manifest, dict) \
                    or not isinstance(self.manifest.get("digest"), str):
                raise TraceContainerError(
                    f"{self.path}: manifest corrupt: not a PTRC manifest")
            self.tokens = int(tokens)
            if int(self.index["tokens"].sum()) != self.tokens:
                raise TraceContainerError(
                    f"{self.path}: index token total "
                    f"{int(self.index['tokens'].sum())} != footer "
                    f"{self.tokens}")
            self._check_index(index_offset)
            # Only the raw codec hands out zero-copy views into the
            # file, so only it needs the mapping; compressed chunks
            # are pread() one at a time — touched map pages would
            # otherwise stay resident and streaming RSS would grow
            # with the file instead of staying one-chunk flat.
            self._mmap = None
            if size > 0 and self.codec == "raw":
                import mmap as _mmap
                self._mmap = _mmap.mmap(self._fh.fileno(), 0,
                                        access=_mmap.ACCESS_READ)
        except BaseException:
            self._fh.close()
            raise

    def _check_index(self, index_offset: int) -> None:
        """Every payload must end before the index block, and a raw
        payload must hold exactly its tokens — so :meth:`chunk` never
        reads outside the frames region."""
        offsets = self.index["offset"]
        nbytes = self.index["nbytes"].astype(np.uint64)
        limit = np.uint64(index_offset)
        # Two comparisons, so a huge offset cannot wrap the sum.
        past = (offsets > limit) | (nbytes > limit - offsets)
        if self.codec == "raw":
            past |= nbytes != self.index["tokens"].astype(np.uint64) * 8
        if past.any():
            raise TraceContainerError(
                f"{self.path}: index entry {int(np.flatnonzero(past)[0])} "
                "lies outside the frames region")

    # -- introspection ----------------------------------------------------
    @property
    def digest(self) -> str:
        return self.manifest["digest"]

    @property
    def n_chunks(self) -> int:
        return len(self.index)

    def __len__(self) -> int:
        return self.tokens

    # -- access -----------------------------------------------------------
    def chunk(self, i: int) -> np.ndarray:
        """Chunk ``i`` as a uint64 token array (zero-copy for raw)."""
        entry = self.index[i]
        offset = int(entry["offset"])
        nbytes = int(entry["nbytes"])
        count = int(entry["tokens"])
        if self._mmap is not None:
            payload = memoryview(self._mmap)[offset:offset + nbytes]
        else:
            payload = os.pread(self._fh.fileno(), nbytes, offset)
        try:
            return _tokens(self.codec, self.version, payload, count)
        except TraceContainerError as exc:
            raise TraceContainerError(
                f"{self.path}: chunk {i}: {exc}") from exc

    def chunks(self, start: int = 0,
               stop: Optional[int] = None) -> Iterator[np.ndarray]:
        """Iterate token chunks ``start..stop`` (bounded memory)."""
        stop = len(self.index) if stop is None else stop
        for i in range(start, stop):
            yield self.chunk(i)

    def reference_chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Iterate ``(addresses, kinds)`` pairs, one per chunk."""
        for chunk in self.chunks():
            yield unpack_tokens(chunk)

    def cache_chunks(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Iterate ``(addresses, writes)`` pairs for the out-of-core
        cache kernels (hardware references dropped)."""
        return cache_chunks(self.chunks())

    def counts(self) -> dict:
        """``ReferenceTrace.counts()``-shaped totals, streamed chunk by
        chunk (the whole trace is never resident)."""
        return reference_counts(self.chunks())

    def tokens_array(self) -> np.ndarray:
        """The whole trace as one uint64 array (materializes!  For
        small traces and tests; population archives should stream)."""
        if not len(self.index):
            return np.empty(0, dtype=np.uint64)
        return np.concatenate(list(self.chunks()))

    def reference_trace(self):
        """The whole trace as a ReferenceTrace (materializes!)."""
        from ..emulator.profiling import ReferenceTrace
        addrs, kinds = unpack_tokens(self.tokens_array())
        return ReferenceTrace(addresses=addrs, kinds=kinds)

    # -- integrity --------------------------------------------------------
    def verify(self, deep: bool = True) -> dict:
        """Check per-chunk crc32s and the manifest digest.  Returns a
        report dict; raises :class:`TraceContainerError` on the first
        mismatch.  ``deep=False`` returns the structure already checked
        at open (offsets and sizes in bounds), without decoding
        payloads."""
        report = {"chunks": len(self.index), "tokens": self.tokens,
                  "codec": self.codec, "deep": bool(deep)}
        if not deep:
            return report
        digest = sha256()
        for i, entry in enumerate(self.index):
            chunk = self.chunk(i)
            if zlib.crc32(chunk) != int(entry["crc32"]):
                raise TraceContainerError(
                    f"{self.path}: chunk {i} crc32 mismatch")
            if len(chunk):
                if int(chunk[0] & _MASK32) != int(entry["first"]) \
                        or int(chunk[-1] & _MASK32) != int(entry["last"]):
                    raise TraceContainerError(
                        f"{self.path}: chunk {i} first/last address "
                        "mismatch")
            digest.update(chunk)
        if digest.hexdigest() != self.digest:
            raise TraceContainerError(
                f"{self.path}: digest mismatch — manifest says "
                f"{self.digest[:12]}…, stream is "
                f"{digest.hexdigest()[:12]}…")
        report["digest"] = self.digest
        return report

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                # Raw chunk views handed out earlier are still alive;
                # the mapping is released with the last of them.
                pass
            self._mmap = None
        self._fh.close()

    def __enter__(self) -> "TraceContainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def open_chunk_source(path) -> Union[TraceContainer, "CampaignTraces"]:
    """A chunk source for the out-of-core cache layer: a single PTRC
    file, or a fleet campaign directory (streams every archived
    session trace, see :class:`repro.fleet.journal.CampaignTraces`)."""
    path = os.fspath(path)
    if os.path.isdir(path):
        from ..fleet.journal import CampaignTraces
        return CampaignTraces(path)
    return TraceContainer(path)


def write_container(tokens: Union[np.ndarray, Iterable[np.ndarray]],
                    path, **kwargs) -> dict:
    """Write a token array (or an iterable of token blocks) to a PTRC
    file; returns the manifest."""
    with ContainerWriter(path, **kwargs) as writer:
        if isinstance(tokens, np.ndarray):
            writer.append_tokens(tokens)
        else:
            for block in tokens:
                writer.append_tokens(np.asarray(block, dtype=np.uint64))
    return writer.manifest  # type: ignore[return-value]


# -- torn-tail recovery ---------------------------------------------------

def scan_frames(path) -> Tuple[List[dict], List[Tuple[str, str]], dict]:
    """Walk chunk frames from the header, ignoring index and footer.

    The recovery primitive behind salvage: returns ``(entries,
    problems, info)`` where ``entries`` are index-record dicts for
    every intact chunk prefix, ``problems`` is a list of ``(code,
    message)`` describing where and why the walk stopped, and ``info``
    carries the parsed header fields.  A clean, footer-complete file
    scans with no problems (the index/manifest/footer region is
    recognized and skipped).
    """
    problems: List[Tuple[str, str]] = []
    entries: List[dict] = []
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(HEADER_SIZE)
        if len(head) < HEADER_SIZE:
            return [], [("truncated-header",
                         f"file is {size} bytes, header needs "
                         f"{HEADER_SIZE}")], {}
        magic, version, codec_raw, chunk_tokens, _flags = \
            _HEADER.unpack(head)
        if magic != MAGIC:
            return [], [("bad-magic",
                         f"magic {magic!r} is not {MAGIC!r}")], {}
        codec = codec_raw.rstrip(b"\0").decode("ascii", "replace")
        info = {"version": version, "codec": codec,
                "chunk_tokens": chunk_tokens, "size": size}
        if version not in READ_VERSIONS:
            return [], [("bad-version",
                         f"unsupported version {version}")], info
        try:
            _check_codec(codec)
        except TraceContainerError as exc:
            return [], [("bad-codec", str(exc))], info
        pos = HEADER_SIZE
        while pos < size:
            fh.seek(pos)
            frame_head = fh.read(FRAME_HEADER_SIZE)
            if len(frame_head) < FRAME_HEADER_SIZE:
                problems.append((
                    "torn-frame-header",
                    f"chunk {len(entries)}: only "
                    f"{len(frame_head)} of {FRAME_HEADER_SIZE} header "
                    f"bytes at offset {pos}"))
                break
            fmagic, nbytes, count, crc, first, last = \
                _FRAME.unpack(frame_head)
            if fmagic != FRAME_MAGIC:
                # Most likely the index block of a complete file —
                # stop quietly; a trailing-garbage diagnosis belongs
                # to the caller comparing against the footer.
                break
            payload = fh.read(nbytes)
            if len(payload) < nbytes:
                problems.append((
                    "torn-chunk",
                    f"chunk {len(entries)}: only {len(payload)} of "
                    f"{nbytes} payload bytes at offset "
                    f"{pos + FRAME_HEADER_SIZE}"))
                break
            try:
                tokens = _tokens(codec, version, payload, count)
            except TraceContainerError as exc:
                problems.append((
                    "undecodable-chunk",
                    f"chunk {len(entries)}: payload does not decode "
                    f"to the header's {count} tokens: {exc}"))
                break
            if zlib.crc32(tokens) != crc:
                problems.append((
                    "corrupt-chunk",
                    f"chunk {len(entries)}: crc mismatch "
                    f"(header says {count} tokens, crc {crc:#010x})"))
                break
            entries.append({"offset": pos + FRAME_HEADER_SIZE,
                            "nbytes": nbytes, "tokens": count,
                            "crc32": crc, "first": first, "last": last})
            pos += FRAME_HEADER_SIZE + nbytes
    return entries, problems, info


def recover_container(path, out_path, *,
                      session: Optional[dict] = None) -> Tuple[dict, dict]:
    """Rewrite the intact chunk prefix of a (possibly torn) container
    as a clean, footer-complete PTRC file at ``out_path``.

    Returns ``(manifest, recovery)`` where ``recovery`` reports what
    was kept and dropped.  Raises :class:`TraceContainerError` when
    nothing recoverable remains (bad magic / truncated header).
    """
    entries, problems, info = scan_frames(path)
    if not entries and problems and problems[0][0] in (
            "truncated-header", "bad-magic", "bad-version", "bad-codec"):
        raise TraceContainerError(
            f"{os.fspath(path)}: unrecoverable: {problems[0][1]}")
    codec = info.get("codec", "zlib")
    chunk_tokens = info.get("chunk_tokens", DEFAULT_CHUNK_TOKENS)
    kept_tokens = 0
    with open(path, "rb") as src, \
            ContainerWriter(out_path, codec=codec,
                            chunk_tokens=chunk_tokens,
                            session=session) as writer:
        for entry in entries:
            src.seek(entry["offset"])
            payload = src.read(entry["nbytes"])
            writer.append_tokens(_tokens(codec, info["version"], payload,
                                         entry["tokens"]))
            kept_tokens += entry["tokens"]
    recovery = {
        "chunks_kept": len(entries),
        "tokens_kept": kept_tokens,
        "problems": [{"code": code, "message": msg}
                     for code, msg in problems],
    }
    return writer.manifest, recovery  # type: ignore[return-value]
