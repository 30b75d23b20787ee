"""Trace/schedule-driven memory-system simulation and cost models."""

from .address_map import AddressMap, Extent
from .dram import DramChannel
from .results import (
    SimResult,
    geomean,
    geomean_speedup,
    relative_energy,
)
from .perf import compute_seconds, make_result, memory_seconds
from .energy import EnergyBreakdown, energy_of, offchip_energy_j, onchip_energy_j
from .trace import (
    auto_granularity,
    program_trace_arrays,
    program_trace_bytes,
)
from .engine import CacheEngine, EngineOptions, ScheduleEngine
from .cluster_timing import (
    Cluster,
    cluster_seconds,
    describe_clusters,
    form_clusters,
)

__all__ = [
    "AddressMap",
    "Extent",
    "DramChannel",
    "SimResult",
    "geomean",
    "geomean_speedup",
    "relative_energy",
    "compute_seconds",
    "make_result",
    "memory_seconds",
    "EnergyBreakdown",
    "energy_of",
    "offchip_energy_j",
    "onchip_energy_j",
    "auto_granularity",
    "program_trace_arrays",
    "program_trace_bytes",
    "CacheEngine",
    "EngineOptions",
    "ScheduleEngine",
    "Cluster",
    "cluster_seconds",
    "describe_clusters",
    "form_clusters",
]
