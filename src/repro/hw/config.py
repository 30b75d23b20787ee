"""Accelerator architecture configuration (Table V + Table VII).

One :class:`AcceleratorConfig` instance parameterises every simulator and
cost model: buffer capacity, PE count, cache geometry, DRAM bandwidth and
CHORD's metadata table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

KIB = 1024
MIB = 1024 * 1024
GB = 1_000_000_000


def mib_to_bytes(mib: float) -> int:
    """An SRAM size given in MiB (CLI flags, wire fields) in bytes;
    ``ValueError`` on an infinite or NaN size, which ``int()`` would
    otherwise raise as an ``OverflowError`` nothing expects."""
    if not math.isfinite(mib):
        raise ValueError(f"SRAM size must be a finite number of MiB, "
                         f"got {mib}")
    return int(mib * MIB)


@dataclass(frozen=True)
class AcceleratorConfig:
    """Hardware parameters of the modelled accelerator.

    Defaults reproduce Table V: 4 MB SRAM, 16384 MAC units, 16 B lines,
    8-way cache associativity, 1 GHz clock, 64-entry/512-bit RIFF index
    table.  Bandwidth defaults to 1 TB/s; Fig. 12/16 also use 250 GB/s.
    """

    sram_bytes: int = 4 * MIB
    n_macs: int = 16384
    line_bytes: int = 16
    cache_associativity: int = 8
    dram_bandwidth_bytes_per_s: float = 1000 * GB
    clock_hz: float = 1e9
    chord_entries: int = 64
    chord_entry_bits: int = 512
    #: Fraction of on-chip SRAM reserved for the explicit pipeline buffer +
    #: input staging when CHORD is active; the rest is CHORD's data array.
    #: SCORE sizes pipeline stages to a handful of tiles (Sec. V-C), so the
    #: reservation is small.
    pipeline_fraction: float = 0.125
    #: Register file bytes per PE cluster available to hold the small tensor
    #: of a skewed GEMM (Sec. V-B "the register file can store all of the
    #: small tensor").
    rf_bytes: int = 32 * KIB

    def __post_init__(self) -> None:
        if self.sram_bytes <= 0 or self.n_macs <= 0:
            raise ValueError("sram_bytes and n_macs must be positive")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a positive power of two")
        if self.cache_associativity <= 0:
            raise ValueError("associativity must be positive")
        if not (0.0 <= self.pipeline_fraction < 1.0):
            raise ValueError("pipeline_fraction must be in [0, 1)")
        if not self.dram_bandwidth_bytes_per_s > 0:
            raise ValueError("dram_bandwidth_bytes_per_s must be positive")
        if not math.isfinite(self.dram_bandwidth_bytes_per_s):
            raise ValueError("dram_bandwidth_bytes_per_s must be finite")

    # -- derived geometry -------------------------------------------------------

    @property
    def n_lines(self) -> int:
        return self.sram_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        """Cache sets when the SRAM is organised as a set-associative cache."""
        return self.n_lines // self.cache_associativity

    @property
    def chord_data_bytes(self) -> int:
        """CHORD data-array capacity (SRAM minus pipeline reservation)."""
        return int(self.sram_bytes * (1.0 - self.pipeline_fraction))

    @property
    def pipeline_buffer_bytes(self) -> int:
        return self.sram_bytes - self.chord_data_bytes

    # -- derived rates ------------------------------------------------------------

    @property
    def peak_macs_per_s(self) -> float:
        """Peak MAC throughput (one MAC per unit per cycle)."""
        return self.n_macs * self.clock_hz

    @property
    def dram_bytes_per_cycle(self) -> float:
        return self.dram_bandwidth_bytes_per_s / self.clock_hz

    @property
    def ridge_ops_per_byte(self) -> float:
        """Roofline ridge point: minimum AI for compute-bound operation."""
        return self.peak_macs_per_s / self.dram_bandwidth_bytes_per_s

    # -- variants ------------------------------------------------------------------

    def with_bandwidth(self, bytes_per_s: float) -> "AcceleratorConfig":
        return replace(self, dram_bandwidth_bytes_per_s=bytes_per_s)

    def with_sram(self, sram_bytes: int) -> "AcceleratorConfig":
        return replace(self, sram_bytes=sram_bytes)

    def describe(self) -> str:
        return (
            f"AcceleratorConfig(SRAM={self.sram_bytes // MIB}MB, "
            f"MACs={self.n_macs}, line={self.line_bytes}B, "
            f"assoc={self.cache_associativity}, "
            f"BW={self.dram_bandwidth_bytes_per_s / GB:.0f}GB/s, "
            f"clock={self.clock_hz / 1e9:.1f}GHz)"
        )


def default_config(cfg: Optional[AcceleratorConfig]) -> AcceleratorConfig:
    """None-sentinel resolution: a fresh Table V config when ``cfg`` is None.

    Experiment/engine signatures take ``cfg: Optional[AcceleratorConfig] =
    None`` instead of a shared module-level default instance, so no two
    callers can ever alias (and accidentally share) one config object.
    """
    return AcceleratorConfig() if cfg is None else cfg


#: The paper's two evaluated bandwidth points (Table V).
BANDWIDTH_POINTS: Tuple[float, ...] = (250 * GB, 1000 * GB)

DEFAULT_CONFIG = AcceleratorConfig()
