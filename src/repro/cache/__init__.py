"""The cache simulator and memory-hierarchy model (the §4 case study)."""

from .cache import (
    Cache,
    CacheConfig,
    CacheStats,
    POLICY_FIFO,
    POLICY_LRU,
    POLICY_RANDOM,
    WRITE_BACK,
    WRITE_THROUGH,
)
from .hierarchy import (
    RegionMix,
    T_FLASH_MISS,
    T_HIT,
    T_RAM_MISS,
    effective_access_time,
    effective_access_time_eq1,
    no_cache_access_time,
)
from .kernels import (
    KernelUnsupported,
    simulate,
    simulate_auto,
    to_line_addresses,
)
from .sampling import (
    SampleEstimate,
    estimate_miss_rate,
    full_miss_rate,
    sample_intervals,
    sampling_error_study,
)
from .writebuffer import (
    WriteBuffer,
    WriteBufferResult,
    simulate_with_write_buffer,
)
from .sweep import (
    PAPER_ASSOCIATIVITIES,
    PAPER_LINE_SIZES,
    PAPER_SIZES,
    SweepPoint,
    SweepWorkerError,
    grid_by_config,
    paper_configurations,
    subsample_trace,
    sweep_parallel,
)

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheStats",
    "POLICY_LRU",
    "POLICY_FIFO",
    "POLICY_RANDOM",
    "WRITE_THROUGH",
    "WRITE_BACK",
    "RegionMix",
    "T_HIT",
    "T_RAM_MISS",
    "T_FLASH_MISS",
    "effective_access_time",
    "effective_access_time_eq1",
    "no_cache_access_time",
    "to_line_addresses",
    "KernelUnsupported",
    "simulate",
    "simulate_auto",
    "PAPER_SIZES",
    "PAPER_LINE_SIZES",
    "PAPER_ASSOCIATIVITIES",
    "SweepPoint",
    "SampleEstimate",
    "estimate_miss_rate",
    "full_miss_rate",
    "sample_intervals",
    "sampling_error_study",
    "paper_configurations",
    "SweepWorkerError",
    "sweep_parallel",
    "grid_by_config",
    "subsample_trace",
    "WriteBuffer",
    "WriteBufferResult",
    "simulate_with_write_buffer",
]
