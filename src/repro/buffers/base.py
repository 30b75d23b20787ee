"""Common buffer-model types.

All on-chip storage models expose access statistics in the same shape so the
simulation engine and energy model can treat them uniformly (Table III rows
are different mechanisms, same interface).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class BufferStats:
    """Access counters accumulated by a buffer model.

    ``dram_read_bytes``/``dram_write_bytes`` are the bytes the buffer had to
    move to/from DRAM on behalf of its accesses — the quantity every
    performance and energy figure in the paper is built from.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    dram_read_bytes: int = 0
    dram_write_bytes: int = 0

    @property
    def dram_bytes(self) -> int:
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "BufferStats") -> "BufferStats":
        return BufferStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            writebacks=self.writebacks + other.writebacks,
            dram_read_bytes=self.dram_read_bytes + other.dram_read_bytes,
            dram_write_bytes=self.dram_write_bytes + other.dram_write_bytes,
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "dram_read_bytes": self.dram_read_bytes,
            "dram_write_bytes": self.dram_write_bytes,
            "hit_rate": self.hit_rate,
        }
