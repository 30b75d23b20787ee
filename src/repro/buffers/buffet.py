"""Buffet: explicit-decoupled data orchestration (Pellauer et al. [33]).

A buffet is a credit-managed FIFO window over a scratchpad: a *filler* pushes
values in order, a *consumer* reads relative to the window head and issues
``shrink`` to retire the oldest values, freeing credits for the filler.
This gives scratchpad-level area/energy with hardware-managed
synchronisation (Table III row 3) — but placement is still fully explicit,
which is why arbitrary-DAG allocation stays intractable (Sec. VI-B).

The model tracks credits and window indices exactly; fills beyond capacity
block (reported via ``can_fill``) rather than silently spilling — buffets
have no implicit overflow path (that's what Tailors adds).
"""

from __future__ import annotations

from .base import BufferStats


class BuffetError(RuntimeError):
    pass


class Buffet:
    """Credit-based sliding-window buffer.

    Indices are element positions in the logical stream pushed by the
    filler.  ``read(i)`` requires ``head <= i < head + occupancy``.
    """

    def __init__(self, capacity_elems: int) -> None:
        if capacity_elems <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity_elems
        self.head = 0          # stream index of oldest resident element
        self.tail = 0          # stream index one past newest resident element
        self.stats = BufferStats()

    @property
    def occupancy(self) -> int:
        return self.tail - self.head

    @property
    def credits(self) -> int:
        """Free slots available to the filler."""
        return self.capacity - self.occupancy

    def can_fill(self, n: int = 1) -> bool:
        return n <= self.credits

    def fill(self, n: int = 1) -> None:
        """Filler pushes ``n`` elements (staged from upstream storage)."""
        if n < 0:
            raise ValueError("fill count must be non-negative")
        if n > self.credits:
            raise BuffetError(
                f"fill of {n} exceeds credits {self.credits} "
                "(buffets block, they do not spill)"
            )
        self.tail += n
        self.stats.dram_read_bytes += n
        self.stats.accesses += n

    def read(self, index: int) -> None:
        """Consumer reads stream position ``index`` (must be resident)."""
        if not (self.head <= index < self.tail):
            raise BuffetError(
                f"read of index {index} outside resident window "
                f"[{self.head}, {self.tail})"
            )
        self.stats.accesses += 1
        self.stats.hits += 1

    def update(self, index: int) -> None:
        """Consumer updates a resident position in place (partial sums)."""
        self.read(index)

    def shrink(self, n: int = 1) -> None:
        """Retire the ``n`` oldest elements, freeing credits."""
        if n < 0:
            raise ValueError("shrink count must be non-negative")
        if n > self.occupancy:
            raise BuffetError(f"shrink of {n} exceeds occupancy {self.occupancy}")
        self.head += n
        self.stats.evictions += n
