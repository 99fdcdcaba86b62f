"""Address traces: the profiler's reference traces, the PTRC streaming
container, dinero interchange, and synthetic desktop workloads for the
Figure 7 comparison."""

from ..emulator.profiling import ReferenceTrace
from .container import (
    DEFAULT_CHUNK_TOKENS,
    ContainerWriter,
    TraceContainer,
    TraceContainerError,
    available_codecs,
    open_chunk_source,
    recover_container,
    scan_frames,
    write_container,
)
from .desktop import DesktopTraceConfig, generate_desktop_trace
from .dinero import (
    DineroFormatError,
    read_dinero_chunks,
    write_dinero_chunks,
)

__all__ = [
    "ReferenceTrace",
    "DesktopTraceConfig",
    "generate_desktop_trace",
    "DEFAULT_CHUNK_TOKENS",
    "ContainerWriter",
    "TraceContainer",
    "TraceContainerError",
    "available_codecs",
    "open_chunk_source",
    "recover_container",
    "scan_frames",
    "write_container",
    "DineroFormatError",
    "read_dinero_chunks",
    "write_dinero_chunks",
]
