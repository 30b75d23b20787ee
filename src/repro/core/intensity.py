"""Arithmetic intensity and roofline arithmetic (Sec. III-A, Fig. 2).

Implements Eq. (3)/(4): the best possible arithmetic intensity of a GEMM
whose operands begin and end in DRAM, its limit N/2 ops/word for skewed
shapes, and the roofline throughput ``min(peak, AI × BW)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


def gemm_macs(m: int, k: int, n: int) -> int:
    """MAC count of a dense GEMM Z[m,n] += A[m,k] B[k,n]."""
    return m * k * n


def gemm_min_dram_words(m: int, k: int, n: int) -> int:
    """Minimum DRAM word traffic: each operand touched once (MK+KN+MN)."""
    return m * k + k * n + m * n


def best_arithmetic_intensity_words(m: int, k: int, n: int) -> float:
    """Eq. (3): best-case ops per *word* moved for an isolated GEMM."""
    return gemm_macs(m, k, n) / gemm_min_dram_words(m, k, n)


def best_arithmetic_intensity(m: int, k: int, n: int, word_bytes: int = 4) -> float:
    """Best-case ops per *byte* moved for an isolated GEMM."""
    return best_arithmetic_intensity_words(m, k, n) / word_bytes


def skewed_limit_words(n: int) -> float:
    """Eq. (4): lim_{K/M→0, K=N} AI = N/2 ops/word.

    For CG's N ≤ 16 and 4-byte words this is ≤ 2 ops/byte — memory bound on
    any realistic machine (Fig. 2).
    """
    return n / 2.0


@dataclass(frozen=True)
class Roofline:
    """A classic roofline: compute peak + memory bandwidth.

    ``peak_ops_per_s`` counts MACs/s (the paper plots GigaMuls/s);
    ``bandwidth_bytes_per_s`` is DRAM bandwidth.
    """

    peak_ops_per_s: float
    bandwidth_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.peak_ops_per_s <= 0 or self.bandwidth_bytes_per_s <= 0:
            raise ValueError("roofline parameters must be positive")

    @property
    def ridge_intensity(self) -> float:
        """AI (ops/byte) above which the machine is compute bound."""
        return self.peak_ops_per_s / self.bandwidth_bytes_per_s

    def attainable(self, ai_ops_per_byte: float) -> float:
        """Attainable throughput (ops/s) at arithmetic intensity ``ai``."""
        if ai_ops_per_byte <= 0:
            raise ValueError("arithmetic intensity must be positive")
        return min(self.peak_ops_per_s, ai_ops_per_byte * self.bandwidth_bytes_per_s)

    def is_memory_bound(self, ai_ops_per_byte: float) -> bool:
        return ai_ops_per_byte < self.ridge_intensity

    def series(self, ai_points: Sequence[float]) -> Tuple[Tuple[float, float], ...]:
        """(AI, attainable ops/s) pairs — the data behind Fig. 2(b)."""
        return tuple((ai, self.attainable(ai)) for ai in ai_points)


def effective_intensity(total_macs: float, dram_bytes: float) -> float:
    """Achieved ops/byte of a whole program run (inter-op reuse included)."""
    if dram_bytes <= 0:
        return float("inf")
    return total_macs / dram_bytes
