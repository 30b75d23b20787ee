"""CHORD: the hybrid implicit/explicit tensor-granularity buffer (Sec. VI).

The model is exact at byte granularity but O(tensors) per event, because
CHORD's own policies are defined on contiguous tensor *slices*:

* a tensor's resident bytes are always a **prefix** ``[0, resident_end)``
  of the tensor (PRELUDE keeps the head, spills/evicts the tail);
* dirty bytes are a prefix of the resident prefix: production writes the
  whole tensor dirty; evictions shrink from the tail (writing back the
  dirty overlap); read-miss refetches re-extend the prefix with *clean*
  bytes (DRAM already holds them).

Events are issued by the engine once per (operation, tensor) — a production
writes the whole tensor through PRELUDE/RIFF, a consumption reads it
(prefix hits, tail misses).  ``retire`` implements the explicit half of the
hybrid: SCORE knows each tensor's last consumer, so dead tensors free their
space without writeback, and program outputs drain to DRAM exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..buffers.base import BufferStats
from .hints import ReuseHints
from .metadata import RiffIndexTable, TensorEntry
from .prelude import prelude_fill
from .riff import RiffPolicy

#: Occupancy samples the recorder keeps before it decimates 2:1.
HISTORY_LIMIT = 8192


@dataclass
class _Resident:
    entry: TensorEntry
    total: int
    resident_end: int = 0   # bytes of the tensor's head kept on-chip
    dirty_end: int = 0      # dirty prefix (<= resident_end)


class ChordBuffer:
    """PRELUDE + RIFF over a fixed-capacity data array.

    Parameters
    ----------
    capacity_bytes:
        Data-array capacity.
    hints:
        SCORE's per-tensor reuse metadata (:class:`ReuseHints`).
    use_riff:
        Disable for the PRELUDE-only configuration (Fig. 16c).
    table:
        Optional pre-built :class:`RiffIndexTable`; default 64×512 bit.
    base_addrs:
        Optional global base address per tensor (cosmetic — drives the
        index-table address fields; a bump allocator is used otherwise).

    Stats convention: ``hits``/``misses``/``accesses`` count **bytes** (the
    natural unit of slice-granularity events); ``dram_*_bytes`` are bytes as
    everywhere else.

    Occupancy is O(1) per event: ``used_bytes`` is an incrementally
    maintained counter (every resident-prefix change adjusts it), not a
    per-event sum over residents; :meth:`audit_used_bytes` recomputes the
    slow sum for invariant checks.
    """

    def __init__(
        self,
        capacity_bytes: int,
        hints: ReuseHints,
        use_riff: bool = True,
        table: Optional[RiffIndexTable] = None,
        base_addrs: Optional[Mapping[str, int]] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.hints = hints
        self.riff: Optional[RiffPolicy] = RiffPolicy(hints) if use_riff else None
        self.table = table if table is not None else RiffIndexTable()
        self.stats = BufferStats()
        self._resident: Dict[str, _Resident] = {}
        self._base_addrs = dict(base_addrs or {})
        self._bump = 0
        self._used_bytes = 0
        #: Per-tensor traffic attribution (bytes): hit / miss / spill /
        #: writeback — feeds the engine's audit report.
        self.per_tensor: Dict[str, Dict[str, int]] = {}
        #: Occupancy history: (op_index, used_bytes) samples after events,
        #: decimated 2:1 whenever :data:`HISTORY_LIMIT` accumulate so memory
        #: stays bounded on million-event runs — feeds the timeline renderer.
        self.history: list = []
        self._history_stride = 1
        self._event_count = 0

    def _account(self, tensor: str, field_name: str, nbytes: int) -> None:
        if nbytes <= 0:
            return
        rec = self.per_tensor.setdefault(
            tensor, {"hit": 0, "miss": 0, "spill": 0, "writeback": 0}
        )
        rec[field_name] += nbytes

    def _record(self, op_index: int) -> None:
        """Append an occupancy sample (decimating 2:1 at the size limit)."""
        self._event_count += 1
        if self._event_count % self._history_stride:
            return
        self.history.append((op_index, self._used_bytes))
        if len(self.history) >= HISTORY_LIMIT:
            # Keep every other sample; future events sample half as often.
            del self.history[::2]
            self._history_stride *= 2

    # -- occupancy ---------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def audit_used_bytes(self) -> int:
        """O(tensors) recomputation of occupancy (invariant checking only)."""
        return sum(r.resident_end for r in self._resident.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def resident_bytes(self, tensor: str) -> int:
        r = self._resident.get(tensor)
        return r.resident_end if r is not None else 0

    def is_tracked(self, tensor: str) -> bool:
        return tensor in self._resident

    # -- internals -----------------------------------------------------------------

    def _base_addr(self, tensor: str, total: int) -> int:
        if tensor not in self._base_addrs:
            self._base_addrs[tensor] = self._bump
            self._bump += total
        return self._base_addrs[tensor]

    def _track(self, tensor: str, total: int) -> Optional[_Resident]:
        r = self._resident.get(tensor)
        if r is not None:
            return r
        if len(self.table) >= self.table.n_entries:
            # Index table exhausted: the tensor cannot be tracked and
            # bypasses CHORD entirely (hardware has nowhere to put its
            # metadata).  SCORE's retirement keeps this from happening in
            # practice; the no-retire ablation exercises it.
            return None
        base = self._base_addr(tensor, total)
        entry = self.table.allocate(tensor, base, base + total)
        h = self.hints.get(tensor)
        entry.frequency = h.frequency
        entry.distance = h.first_distance or 0
        r = _Resident(entry=entry, total=total)
        self._resident[tensor] = r
        return r

    def _untrack(self, tensor: str) -> None:
        r = self._resident.pop(tensor, None)
        if r is not None:
            self._used_bytes -= r.resident_end
            self.table.release(tensor)

    def _evict_tail(self, victim: str, nbytes: int) -> int:
        """Shrink ``victim``'s resident prefix from the tail.

        Dirty evicted bytes are written back to DRAM.  Returns bytes freed.
        """
        r = self._resident[victim]
        take = min(nbytes, r.resident_end)
        if take <= 0:
            return 0
        new_end = r.resident_end - take
        writeback = max(0, r.dirty_end - new_end)
        if writeback:
            self.stats.dram_write_bytes += writeback
            self.stats.writebacks += writeback
            self._account(victim, "writeback", writeback)
        r.resident_end = new_end
        r.dirty_end = min(r.dirty_end, new_end)
        r.entry.end_chord = r.entry.start_tensor + new_end
        self._used_bytes -= take
        self.stats.evictions += take
        if r.resident_end == 0:
            self._untrack(victim)
        return take

    def _insert(self, tensor: str, nbytes: int, op_index: int, dirty: bool) -> int:
        """PRELUDE fill with RIFF steals; returns bytes made resident."""
        r = self._track(tensor, self.hints.get(tensor).total_bytes)
        if r is None:
            return 0  # untracked (table full): everything bypasses to DRAM
        decision = prelude_fill(nbytes, self.free_bytes)
        inserted = decision.inserted
        remaining = decision.spilled
        # RIFF: displace lower-priority tensors' tails to keep filling.
        while remaining > 0 and self.riff is not None:
            victim = self.riff.select_victim(
                resident=list(self._resident), incoming=tensor, op_index=op_index
            )
            if victim is None:
                break
            freed = self._evict_tail(victim, remaining)
            if freed == 0:
                break
            inserted += freed
            remaining -= freed
        if inserted:
            r.resident_end += inserted
            self._used_bytes += inserted
            if dirty:
                r.dirty_end = r.resident_end
            r.entry.end_chord = r.entry.start_tensor + r.resident_end
            if r.resident_end > r.total:
                raise AssertionError(
                    f"resident bytes {r.resident_end} exceed tensor size {r.total}"
                )
        if r.resident_end == 0:
            self._untrack(tensor)
        return inserted

    # -- events ---------------------------------------------------------------------

    def write(self, tensor: str, op_index: int, nbytes: Optional[int] = None,
              dirty: bool = True) -> int:
        """Production of ``tensor`` at program position ``op_index``.

        The head fills on-chip (free space first, then RIFF steals); the
        spilled tail goes straight to DRAM (PRELUDE).  Returns the number of
        bytes that became resident.
        """
        h = self.hints.get(tensor)
        n = h.total_bytes if nbytes is None else nbytes
        if n < 0:
            raise ValueError("write bytes must be non-negative")
        self.stats.accesses += n
        inserted = self._insert(tensor, n, op_index, dirty=dirty)
        spilled = n - inserted
        if spilled and dirty:
            self.stats.dram_write_bytes += spilled
            self._account(tensor, "spill", spilled)
        if self.is_tracked(tensor):
            self._resident[tensor].entry.record_access(hit=spilled == 0)
        self._record(op_index)
        return inserted

    def read(self, tensor: str, op_index: int,
             nbytes: Optional[int] = None) -> int:
        """Consumption of ``tensor`` by the op at ``op_index``.

        The resident prefix hits; the tail is fetched from DRAM.  Missed
        bytes are offered back to PRELUDE (clean) when the tensor still has
        uses after this op.  Returns hit bytes.
        """
        h = self.hints.get(tensor)
        n = h.total_bytes if nbytes is None else nbytes
        if n < 0:
            raise ValueError("read bytes must be non-negative")
        r = self._resident.get(tensor)
        hit = min(n, r.resident_end) if r is not None else 0
        miss = n - hit
        self.stats.accesses += n
        self.stats.hits += hit
        self.stats.misses += miss
        self._account(tensor, "hit", hit)
        if miss:
            self.stats.dram_read_bytes += miss
            self._account(tensor, "miss", miss)
            if h.next_use_after(op_index) is not None:
                self._insert(tensor, miss, op_index, dirty=False)
        if self.is_tracked(tensor):
            self._resident[tensor].entry.record_access(hit=miss == 0)
        self._record(op_index)
        return hit

    # -- explicit lifetime management (the hybrid's explicit half) --------------------

    def retire(self, tensor: str) -> None:
        """Free a tensor whose last consumer has run.

        Program outputs drain their dirty resident bytes to DRAM; dead
        intermediates are discarded without traffic.
        """
        r = self._resident.get(tensor)
        if r is None:
            return
        h = self.hints.get(tensor)
        if h.is_program_output and r.dirty_end:
            self.stats.dram_write_bytes += r.dirty_end
            self.stats.writebacks += r.dirty_end
            self._account(tensor, "writeback", r.dirty_end)
        self._untrack(tensor)

    def finalize(self) -> None:
        """End of program: drain every remaining dirty program output."""
        for name in list(self._resident):
            self.retire(name)

    def describe(self) -> str:
        lines = [
            f"ChordBuffer({self.used_bytes}/{self.capacity_bytes} B used, "
            f"{len(self._resident)} tensors, riff={'on' if self.riff else 'off'})"
        ]
        for name, r in sorted(self._resident.items()):
            lines.append(
                f"  {name}: resident {r.resident_end}/{r.total} B "
                f"(dirty {r.dirty_end}), end_chord={r.entry.end_chord:#x}"
            )
        return "\n".join(lines)
