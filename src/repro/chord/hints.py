"""The SCORE→CHORD interface: coarse-grained per-tensor reuse metadata.

CHORD is *hybrid*: placement/replacement decisions are made in hardware at
cycle level, but they consume high-level, per-tensor information computed
once by the software scheduler — global address range, reuse distance,
reuse frequency, and the list of future consuming operations (Sec. V-C,
Table III last row).  This module derives that metadata from the dependency
DAG; its size is O(nodes + edges), which is the whole point of Sec. VI-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

from ..core.dag import TensorDag


@dataclass(frozen=True)
class TensorHints:
    """Reuse metadata for one tensor, as SCORE hands it to CHORD."""

    name: str
    total_bytes: int
    producer_index: Optional[int]       # program index of producing op (None = input)
    consumer_indices: Tuple[int, ...]   # sorted program indices of consumers
    is_program_output: bool

    @property
    def frequency(self) -> int:
        """Total reuse count (RIFF's ``Freq`` column, Fig. 10)."""
        return len(self.consumer_indices)

    @property
    def first_distance(self) -> Optional[int]:
        """Ops from production to first use (RIFF's ``Dist`` column)."""
        if not self.consumer_indices:
            return None
        born = self.producer_index if self.producer_index is not None else 0
        return self.consumer_indices[0] - born

    def next_use_after(self, op_index: int) -> Optional[int]:
        """First consumer strictly after ``op_index`` (None = dead)."""
        for c in self.consumer_indices:
            if c > op_index:
                return c
        return None

    def remaining_frequency(self, op_index: int) -> int:
        """Number of uses still ahead of ``op_index``."""
        return sum(1 for c in self.consumer_indices if c > op_index)

    def last_use(self) -> Optional[int]:
        return self.consumer_indices[-1] if self.consumer_indices else None


class ReuseHints:
    """Per-tensor :class:`TensorHints` for a whole program."""

    def __init__(self, by_tensor: Dict[str, TensorHints]) -> None:
        self._by_tensor = dict(by_tensor)

    @classmethod
    def from_dag(cls, dag: TensorDag) -> "ReuseHints":
        """Derive hints for every tensor of ``dag`` (program order)."""
        outputs = set(dag.program_outputs())
        hints: Dict[str, TensorHints] = {}
        for t in dag.tensors:
            producer = dag.producer_of(t.name)
            consumers = tuple(sorted(dag.op_index(c) for c in dag.consumers_of(t.name)))
            hints[t.name] = TensorHints(
                name=t.name,
                total_bytes=t.bytes,
                producer_index=dag.op_index(producer) if producer is not None else None,
                consumer_indices=consumers,
                is_program_output=t.name in outputs,
            )
        return cls(hints)

    @cached_property
    def walk_lookups(self) -> Tuple[Dict[str, int], Dict[str, bool],
                                    Dict[str, Optional[int]]]:
        """Per-tensor bytes, cold-input flag (no producer) and last use as
        flat dicts: the CHORD walk's loop-invariant lookups, built once
        per hints object and so once per SCORE plan."""
        hints = self._by_tensor.values()
        return ({h.name: h.total_bytes for h in hints},
                {h.name: h.producer_index is None for h in hints},
                {h.name: h.last_use() for h in hints})

    def get(self, tensor: str) -> TensorHints:
        try:
            return self._by_tensor[tensor]
        except KeyError:
            raise KeyError(f"no hints for tensor {tensor!r}") from None

    def __contains__(self, tensor: str) -> bool:
        return tensor in self._by_tensor

    def __iter__(self):
        return iter(self._by_tensor.values())

    def __len__(self) -> int:
        return len(self._by_tensor)
