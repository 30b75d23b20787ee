"""Set-associative cache simulator with pluggable replacement policies.

This models the paper's Flex+LRU and Flex+BRRIP baselines: *every* access of
the best-intra-op schedule goes through an implicitly managed cache
(write-allocate, write-back).  The simulator is exact at line granularity; a
``granularity`` knob in the trace layer lets multi-gigabyte streaming traces
coarsen g lines into one block while scaling the set count by 1/g, which
preserves streaming/capacity behaviour (validated in tests).

Two backends produce byte-identical :class:`BufferStats`:

``vector`` (default)
    Array-state simulation in *conflict-free batches* — maximal
    contiguous runs of the trace in which every set index appears at
    most once — so hit detection, victim choice, fills and writeback
    accounting are whole-batch numpy ops instead of a Python loop with
    an ``np.nonzero`` per access.  Within a batch the per-set states
    cannot interact, and batches are processed in trace order, so the
    result is exactly the sequential simulation.

``reference``
    The original scalar per-access loop over per-set policy objects, kept
    as the golden model for the parity suite.

Replacement policies implement per-set state: :class:`LruPolicy`,
:class:`SrripPolicy` and :class:`BrripPolicy` live in sibling modules and
provide both the scalar and the array-state (``vec_*``) protocol.

A trace whose :class:`TraceFootprint` fits the cache needs neither
backend: no set ever overflows, so no policy is ever asked for a victim
and the stats follow from the footprint alone (the cache engine
resolves such points without building a cache).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Protocol, Tuple

import numpy as np

from .base import BufferStats

#: Hard ceiling on blocks expanded into memory at once by
#: :meth:`SetAssociativeCache.access_arrays` — keeps multi-GB streaming
#: traces in bounded memory (a chunk of 2^20 int64 blocks is ~8 MB).
DEFAULT_CHUNK_ACCESSES = 1 << 20


def check_backend(backend: str) -> None:
    """Refuse a name other than the batched kernel and the scalar oracle."""
    if backend not in ("vector", "reference"):
        raise ValueError(f"unknown cache backend {backend!r}")


class ReplacementPolicy(Protocol):
    """Per-set replacement state machine (scalar reference protocol).

    The cache owns the tag/dirty arrays; a policy only maintains per-set
    recency state over way indices: ``on_hit`` records a re-reference,
    ``choose_victim`` picks the way to replace, ``on_fill`` records an
    insertion.  The vectorized backend needs the ``vec_*`` family as
    well (see :class:`VectorReplacementPolicy`).
    """

    def make_set_state(self, assoc: int) -> object: ...

    def on_hit(self, state: object, way: int) -> None: ...

    def choose_victim(self, state: object) -> int: ...

    def on_fill(self, state: object, way: int) -> None: ...


class VectorReplacementPolicy(Protocol):
    """Array-state replacement protocol for the vectorized backend.

    ``rows`` are set indices, ``ways`` the matching way indices, ``times``
    the global access order positions (strictly increasing).  Each call
    covers one conflict-free batch, so its rows are unique.
    ``vec_on_fill`` receives fills in trace order — policies with global
    counters (BRRIP's bimodal throttle) rely on it.
    """

    def make_vector_state(self, n_sets: int, assoc: int) -> object: ...

    def vec_on_hit(self, state: object, rows: np.ndarray,
                   ways: np.ndarray, times: np.ndarray) -> None: ...

    def vec_choose_victims(self, state: object, rows: np.ndarray) -> np.ndarray: ...

    def vec_on_fill(self, state: object, rows: np.ndarray,
                    ways: np.ndarray, times: np.ndarray) -> None: ...


def cache_sets(capacity_bytes: int, line_bytes: int,
               associativity: int) -> int:
    """The set count of a cache geometry; ``ValueError`` when the
    geometry is not a positive whole number of sets."""
    if capacity_bytes <= 0 or line_bytes <= 0 or associativity <= 0:
        raise ValueError("cache geometry must be positive")
    n_lines = capacity_bytes // line_bytes
    if n_lines == 0 or n_lines % associativity:
        raise ValueError(
            f"capacity {capacity_bytes}B / line {line_bytes}B must be a "
            f"multiple of associativity {associativity}"
        )
    return n_lines // associativity


def _merged(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The disjoint, ascending ``[lo, hi)`` rows covering the same
    integers as the given intervals (touching ones merge)."""
    if lo.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi)
    heads = np.flatnonzero(np.concatenate(([True], lo[1:] > reach[:-1])))
    tails = np.append(heads[1:], lo.size) - 1
    return np.column_stack((lo[heads], reach[tails]))


@dataclass(frozen=True)
class TraceFootprint:
    """The blocks a trace touches at one block size.

    ``blocks`` and ``written`` are disjoint ascending ``[lo, hi)`` block
    intervals: every block the trace accesses, and every block it
    writes.  ``accesses`` is the trace's block-access count.  All three
    depend on the trace and the block size alone, never on the cache.

    When :meth:`fits` a cache, no set ever holds more distinct blocks
    than it has ways, so nothing is evicted under any policy: each
    distinct block misses once, every other access hits, and the final
    flush writes back each written block once (:meth:`stats`).
    """

    blocks: np.ndarray
    written: np.ndarray
    accesses: int

    @classmethod
    def of(cls, starts: np.ndarray, nbytes: np.ndarray,
           is_write: np.ndarray, block_bytes: int) -> "TraceFootprint":
        """The footprint of the trace ``[starts[i], starts[i] + nbytes[i])``
        (zero-byte rows touch nothing)."""
        keep = nbytes > 0
        first = starts[keep] // block_bytes
        end = (starts[keep] + nbytes[keep] - 1) // block_bytes + 1
        w = is_write[keep]
        return cls(blocks=_merged(first, end),
                   written=_merged(first[w], end[w]),
                   accesses=int((end - first).sum()))

    @staticmethod
    def _count(intervals: np.ndarray) -> int:
        return int((intervals[:, 1] - intervals[:, 0]).sum())

    def fits(self, n_sets: int, assoc: int) -> bool:
        """Whether every set index ``r`` has at most ``assoc`` footprint
        blocks ``b`` with ``b % n_sets == r``.

        An interval of length L covers every set ``L // n_sets`` times,
        plus once each the ``L % n_sets`` sets from its start's.  When
        even every partial wrap landing on one set would fit, that
        bound decides in O(intervals); otherwise a difference array over
        two wraps of the sets adds them up, in O(intervals + n_sets).
        """
        if self._count(self.blocks) > n_sets * assoc:
            return False
        lo, hi = self.blocks[:, 0], self.blocks[:, 1]
        wraps = int(((hi - lo) // n_sets).sum())
        first = lo % n_sets
        end = first + (hi - lo) % n_sets
        partials = int(np.count_nonzero(end > first))
        if wraps + partials <= assoc:
            return True
        if wraps >= assoc:
            return False
        covered = np.cumsum(np.bincount(first, minlength=2 * n_sets)
                            - np.bincount(end, minlength=2 * n_sets))
        per_set = covered[:n_sets] + covered[n_sets:2 * n_sets]
        return wraps + int(per_set.max()) <= assoc

    def stats(self, block_bytes: int) -> BufferStats:
        """The stats, after the final flush, of a replay that fits."""
        misses = self._count(self.blocks)
        writebacks = self._count(self.written)
        return BufferStats(accesses=self.accesses,
                           hits=self.accesses - misses, misses=misses,
                           writebacks=writebacks,
                           dram_read_bytes=misses * block_bytes,
                           dram_write_bytes=writebacks * block_bytes)


class SetAssociativeCache:
    """A write-back, write-allocate set-associative cache.

    Parameters
    ----------
    capacity_bytes / line_bytes / associativity:
        Geometry; ``capacity = sets * associativity * line_bytes``.
    policy:
        A :class:`ReplacementPolicy` instance (LRU, BRRIP, ...).
    backend:
        ``"vector"`` or ``"reference"``.  Both backends produce identical
        stats; the vector backend is an order of magnitude faster on
        streams.
    """

    def __init__(
        self,
        capacity_bytes: int,
        line_bytes: int,
        associativity: int,
        policy: ReplacementPolicy,
        backend: str = "vector",
    ) -> None:
        n_sets = cache_sets(capacity_bytes, line_bytes, associativity)
        check_backend(backend)
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.assoc = associativity
        self.n_sets = n_sets
        self.policy = policy
        self.backend = backend
        self.stats = BufferStats()
        # Per-set parallel arrays: tags, valid (tag != -1), dirty.
        self._tags = np.full((self.n_sets, self.assoc), -1, dtype=np.int64)
        self._dirty = np.zeros((self.n_sets, self.assoc), dtype=bool)
        if backend == "vector":
            self._vstate = policy.make_vector_state(self.n_sets, self.assoc)
            self._tick = 0  # global access-order clock (LRU timestamps)
        else:
            self._pol_state: List[object] = [
                policy.make_set_state(self.assoc) for _ in range(self.n_sets)
            ]

    # -- single access ----------------------------------------------------------

    def access_line(self, block: int, is_write: bool) -> bool:
        """Access one line-aligned block address; returns hit/miss.

        ``block`` is the address divided by ``line_bytes``.
        """
        if self.backend == "vector":
            return bool(self._run_batch(np.array([block], dtype=np.int64),
                                        np.array([is_write]))[0])
        return self._access_line_reference(block, is_write)

    def _access_line_reference(self, block: int, is_write: bool) -> bool:
        set_idx = block % self.n_sets
        tag = block // self.n_sets
        tags = self._tags[set_idx]
        state = self._pol_state[set_idx]
        self.stats.accesses += 1
        hit_ways = np.nonzero(tags == tag)[0]
        if hit_ways.size:
            way = int(hit_ways[0])
            self.stats.hits += 1
            self.policy.on_hit(state, way)
            if is_write:
                self._dirty[set_idx, way] = True
            return True
        # Miss: allocate (write-allocate for writes too).  Invalid ways are
        # filled before the replacement policy is consulted.
        self.stats.misses += 1
        self.stats.dram_read_bytes += self.line_bytes
        invalid = np.nonzero(tags == -1)[0]
        if invalid.size:
            victim = int(invalid[0])
        else:
            victim = self.policy.choose_victim(state)
            self.stats.evictions += 1
            if self._dirty[set_idx, victim]:
                self.stats.writebacks += 1
                self.stats.dram_write_bytes += self.line_bytes
        tags[victim] = tag
        self._dirty[set_idx, victim] = is_write
        self.policy.on_fill(state, victim)
        return False

    # -- vectorized kernel --------------------------------------------------------

    def _run_batch(self, blocks: np.ndarray, writes: np.ndarray) -> np.ndarray:
        """Resolve one conflict-free batch (unique set index per access).

        Returns the per-access hit mask.  Because no set appears twice, the
        per-set states are independent within the batch; the only cross-set
        coupling — BRRIP's global fill counter — is preserved by handing
        fills to ``vec_on_fill`` in trace order.
        """
        n = blocks.shape[0]
        sets = blocks % self.n_sets
        tags = blocks // self.n_sets
        times = self._tick + np.arange(n, dtype=np.int64)
        self._tick += n
        rows = self._tags[sets]                         # (n, assoc) snapshot
        hit_mat = rows == tags[:, None]
        hit_mask = hit_mat.any(axis=1)
        n_hits = int(hit_mask.sum())
        self.stats.accesses += n
        self.stats.hits += n_hits
        self.stats.misses += n - n_hits

        if n_hits:
            h_sets = sets[hit_mask]
            h_ways = hit_mat[hit_mask].argmax(axis=1)
            self.policy.vec_on_hit(self._vstate, h_sets, h_ways, times[hit_mask])
            hw = writes[hit_mask]
            self._dirty[h_sets[hw], h_ways[hw]] = True

        n_miss = n - n_hits
        if n_miss:
            miss_mask = ~hit_mask
            m_sets = sets[miss_mask]
            m_tags = tags[miss_mask]
            m_writes = writes[miss_mask]
            invalid_mat = rows[miss_mask] == -1
            has_inv = invalid_mat.any(axis=1)
            victims = invalid_mat.argmax(axis=1)   # first invalid way, if any
            full = ~has_inv
            n_evict = int(full.sum())
            if n_evict:
                chosen = self.policy.vec_choose_victims(self._vstate, m_sets[full])
                victims[full] = chosen
                self.stats.evictions += n_evict
                n_wb = int(self._dirty[m_sets[full], chosen].sum())
                self.stats.writebacks += n_wb
                self.stats.dram_write_bytes += n_wb * self.line_bytes
            self.stats.dram_read_bytes += n_miss * self.line_bytes
            self._tags[m_sets, victims] = m_tags
            self._dirty[m_sets, victims] = m_writes
            self.policy.vec_on_fill(self._vstate, m_sets, victims,
                                    times[miss_mask])
        return hit_mask

    def _simulate_blocks(self, blocks: np.ndarray, writes: np.ndarray) -> None:
        """Simulate an in-order block stream in conflict-free batches.

        Batch boundaries come from a suffix-minimum over the next-occurrence
        index of each access's set: for a batch starting at ``s``, the first
        position that re-uses a set already in the batch is exactly
        ``min(next_occurrence[i] for i >= s)`` — O(trace) to precompute and
        O(1) per batch, so conflict-heavy traces degrade gracefully instead
        of quadratically.
        """
        n = blocks.size
        if n == 0:
            return
        sets = blocks % self.n_sets
        order = np.argsort(sets, kind="stable")
        next_occ = np.full(n, n, dtype=np.int64)
        sorted_sets = sets[order]
        same = sorted_sets[1:] == sorted_sets[:-1]
        next_occ[order[:-1][same]] = order[1:][same]
        sufmin = np.minimum.accumulate(next_occ[::-1])[::-1]
        s = 0
        while s < n:
            e = int(sufmin[s])       # next_occ[i] > i, so e > s always
            self._run_batch(blocks[s:e], writes[s:e])
            s = e

    # -- streams ------------------------------------------------------------------

    def access_range(self, start_byte: int, n_bytes: int, is_write: bool) -> None:
        """Stream all lines overlapping byte range [start, start+n)."""
        if n_bytes <= 0:
            return
        if self.backend == "vector":
            self.access_arrays(np.array([start_byte], dtype=np.int64),
                               np.array([n_bytes], dtype=np.int64),
                               np.array([is_write], dtype=bool))
            return
        first = start_byte // self.line_bytes
        last = (start_byte + n_bytes - 1) // self.line_bytes
        for b in range(first, last + 1):
            self.access_line(b, is_write)

    def access_arrays(
        self,
        starts: np.ndarray,
        nbytes: np.ndarray,
        is_write: np.ndarray,
    ) -> None:
        """Replay a trace given as parallel arrays, one row per byte range
        ``[starts[i], starts[i] + nbytes[i])`` accessed with ``is_write[i]``.

        The vector backend expands the ranges to block addresses and
        simulates them through the batched kernel in chunks of C =
        :data:`DEFAULT_CHUNK_ACCESSES` blocks: chunk k is blocks
        [k·C, (k+1)·C) of the whole expanded stream, splitting a range
        where a boundary falls, so memory is bounded by the chunk, not
        the trace.  The reference
        backend replays range by range (:meth:`access_range`).
        """
        starts = np.asarray(starts, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        if self.backend == "reference":
            for start, n, w in zip(starts.tolist(), nbytes.tolist(),
                                   is_write.tolist()):
                self.access_range(start, n, w)
            return
        keep = nbytes > 0
        if not keep.all():
            starts, nbytes, is_write = starts[keep], nbytes[keep], is_write[keep]
        if starts.size == 0:
            return
        first = starts // self.line_bytes
        counts = (starts + nbytes - 1) // self.line_bytes - first + 1
        ends = np.cumsum(counts)          # stream position after each range
        begins = ends - counts
        # Block at stream position p of range k is first[k] + p - begins[k].
        offset = first - begins
        total = int(ends[-1])

        def expand(lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
            i = int(np.searchsorted(ends, lo, side="right"))
            j = int(np.searchsorted(begins, hi, side="left"))
            c = np.minimum(ends[i:j], hi) - np.maximum(begins[i:j], lo)
            blocks = np.repeat(offset[i:j], c)
            blocks += np.arange(lo, hi, dtype=np.int64)
            return blocks, np.repeat(is_write[i:j], c)

        chunk = DEFAULT_CHUNK_ACCESSES
        for lo in range(0, total, chunk):
            self._simulate_blocks(*expand(lo, min(lo + chunk, total)))

    def flush(self) -> None:
        """Write back all dirty lines (end-of-program drain)."""
        dirty_count = int(self._dirty.sum())
        self.stats.writebacks += dirty_count
        self.stats.dram_write_bytes += dirty_count * self.line_bytes
        self._dirty[:] = False

    def resident_lines(self) -> int:
        return int((self._tags != -1).sum())
