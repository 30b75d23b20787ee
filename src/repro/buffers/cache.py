"""Set-associative cache simulator with pluggable replacement policies.

This models the paper's Flex+LRU and Flex+BRRIP baselines: *every* access of
the best-intra-op schedule goes through an implicitly managed cache
(write-allocate, write-back).  The simulator is exact at line granularity; a
``granularity`` knob in the trace layer lets multi-gigabyte streaming traces
coarsen g lines into one block while scaling the set count by 1/g, which
preserves streaming/capacity behaviour (validated in tests).

Two backends produce byte-identical :class:`BufferStats`:

``vector`` (default when the policy supports it)
    Array-state simulation.  Each chunk of the trace first tries the
    *eviction-free* closed form: when every set's valid ways plus the
    chunk's distinct non-resident blocks in it fit the associativity, no
    access can evict, so misses are the distinct new blocks and the
    policy only sees one fill per new block and one hit per re-touched
    line.  Deciding that costs O(chunk + cache lines) — a presence mask
    and a per-set count, no sort — so chunks that overflow fall through
    almost for free.  Those are resolved in *conflict-free batches* —
    maximal contiguous runs of the trace in which every set index
    appears at most once — so hit detection, victim choice, fills and
    writeback accounting are whole-batch numpy ops instead of a Python
    loop with an ``np.nonzero`` per access.  Within a batch the per-set
    states cannot interact, and batches are processed in trace order,
    so the result is exactly the sequential simulation.

``reference``
    The original scalar per-access loop over per-set policy objects, kept
    as the golden model for the parity suite and as the fallback for
    custom policies that only implement the scalar protocol.

Replacement policies implement per-set state: :class:`LruPolicy` and
:class:`BrripPolicy` live in sibling modules and provide both the scalar
and the array-state (``vec_*``) protocol.
"""

from __future__ import annotations

from typing import Iterable, List, Protocol

import numpy as np

from .base import BufferStats

#: Hard ceiling on blocks expanded into memory at once by
#: :meth:`SetAssociativeCache.access_arrays` — keeps multi-GB streaming
#: traces in bounded memory (a chunk of 2^20 int64 blocks is ~8 MB).
DEFAULT_CHUNK_ACCESSES = 1 << 20

_VECTOR_METHODS = ("make_vector_state", "vec_on_hit",
                   "vec_choose_victims", "vec_on_fill")


class ReplacementPolicy(Protocol):
    """Per-set replacement state machine (scalar reference protocol).

    The cache owns the tag/dirty arrays; a policy only maintains per-set
    recency state over way indices: ``on_hit`` records a re-reference,
    ``choose_victim`` picks the way to replace, ``on_fill`` records an
    insertion.  Policies that additionally implement the ``vec_*`` family
    (see :class:`VectorReplacementPolicy`) unlock the vectorized backend.
    """

    def make_set_state(self, assoc: int) -> object: ...

    def on_hit(self, state: object, way: int) -> None: ...

    def choose_victim(self, state: object) -> int: ...

    def on_fill(self, state: object, way: int) -> None: ...


class VectorReplacementPolicy(Protocol):
    """Array-state replacement protocol for the vectorized backend.

    ``rows`` are set indices, ``ways`` the matching way indices, ``times``
    the global access order positions (strictly increasing).  Two rules
    hold for every ``vec_on_hit`` / ``vec_on_fill`` call:

    * a row may repeat, but each (row, way) pair appears at most once —
      the eviction-free closed form fills and hits several ways of one
      set in one call, so each pair must be an independent update;
    * ``vec_on_hit`` sees each line once, at its *last* hit time — a line
      hit k times in a chunk arrives as one entry, so the hook must give
      the same state as those k hits in order (LRU recency and RRIP hit
      promotion do; a hit-frequency counter would not).

    ``vec_choose_victims`` rows are unique within one call.
    ``vec_on_fill`` receives fills in trace order — policies with global
    counters (BRRIP's bimodal throttle) rely on it.
    """

    def make_vector_state(self, n_sets: int, assoc: int) -> object: ...

    def vec_on_hit(self, state: object, rows: np.ndarray,
                   ways: np.ndarray, times: np.ndarray) -> None: ...

    def vec_choose_victims(self, state: object, rows: np.ndarray) -> np.ndarray: ...

    def vec_on_fill(self, state: object, rows: np.ndarray,
                    ways: np.ndarray, times: np.ndarray) -> None: ...


def supports_vector(policy: object) -> bool:
    """Whether ``policy`` implements the array-state protocol."""
    return all(callable(getattr(policy, m, None)) for m in _VECTOR_METHODS)


class SetAssociativeCache:
    """A write-back, write-allocate set-associative cache.

    Parameters
    ----------
    capacity_bytes / line_bytes / associativity:
        Geometry; ``capacity = sets * associativity * line_bytes``.
    policy:
        A :class:`ReplacementPolicy` instance (LRU, BRRIP, ...).
    backend:
        ``"vector"``, ``"reference"``, or ``"auto"`` (vector when the
        policy supports it).  Both backends produce identical stats; the
        vector backend is an order of magnitude faster on streams.
    """

    def __init__(
        self,
        capacity_bytes: int,
        line_bytes: int,
        associativity: int,
        policy: ReplacementPolicy,
        backend: str = "auto",
    ) -> None:
        if capacity_bytes <= 0 or line_bytes <= 0 or associativity <= 0:
            raise ValueError("cache geometry must be positive")
        n_lines = capacity_bytes // line_bytes
        if n_lines == 0 or n_lines % associativity:
            raise ValueError(
                f"capacity {capacity_bytes}B / line {line_bytes}B must be a "
                f"multiple of associativity {associativity}"
            )
        if backend == "auto":
            backend = "vector" if supports_vector(policy) else "reference"
        if backend not in ("vector", "reference"):
            raise ValueError(f"unknown cache backend {backend!r}")
        if backend == "vector" and not supports_vector(policy):
            raise ValueError(
                f"policy {type(policy).__name__} lacks the vec_* protocol "
                "required by the vector backend"
            )
        self.capacity_bytes = capacity_bytes
        self.line_bytes = line_bytes
        self.assoc = associativity
        self.n_sets = n_lines // associativity
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

    def _resolve_eviction_free(self, blocks: np.ndarray,
                               writes: np.ndarray) -> bool:
        """Resolve a whole chunk in closed form if it cannot evict.

        The chunk fits when every set's valid ways plus its distinct
        non-resident blocks number at most ``assoc`` (valid ways are a
        prefix: fills take the first invalid way and nothing invalidates a
        line).  Then every miss is compulsory and the replacement policy
        is never asked for a victim, so the chunk's effect is a function
        of each block's first and last touch:

        * misses are the distinct non-resident blocks, hits the rest;
        * new blocks fill their set's free ways in order of first touch,
          through one ``vec_on_fill`` in trace order (BRRIP's global
          counter sees the sequential fill order);
        * every re-touched line gets one ``vec_on_hit`` at its last touch;
        * dirty bits OR in the block's writes.

        Returns ``False``, having changed nothing, when the chunk does not
        fit.  That verdict costs O(chunk + cache lines) — a presence mask
        and a per-set count, no sort — so overflowing traces pay almost
        nothing before falling through to the batch kernel.
        """
        n = blocks.shape[0]
        n_sets, assoc = self.n_sets, self.assoc
        lines = n_sets * assoc
        lo = int(blocks.min())
        span = int(blocks.max()) - lo + 1
        # The work arrays below are span-sized, so bound them by the
        # cache.  A wider chunk may still fit and then takes the batch
        # kernel instead; on the paper's cache points none did, and the
        # fitting ones span under 0.8x the lines.
        if span > 2 * lines:
            return False
        offs = blocks - lo
        seen = np.zeros(span, dtype=bool)
        seen[offs] = True
        if np.count_nonzero(seen) > lines:
            return False
        distinct = np.flatnonzero(seen)
        d_blocks = distinct + lo
        d_sets = d_blocks % n_sets
        # Residency: only blocks of sets that hold a valid way can hit.
        valid = np.count_nonzero(self._tags != -1, axis=1)
        resident = np.zeros(distinct.size, dtype=bool)
        occupied = np.flatnonzero(valid[d_sets])
        hit_mat = (self._tags[d_sets[occupied]]
                   == (d_blocks[occupied] // n_sets)[:, None])
        occupied_hit = hit_mat.any(axis=1)
        resident[occupied[occupied_hit]] = True
        new_per_set = np.bincount(d_sets[~resident], minlength=n_sets)
        if (valid + new_per_set).max() > assoc:
            return False

        pos = np.arange(n, dtype=np.int64)
        first = np.full(span, n, dtype=np.int64)
        np.minimum.at(first, offs, pos)
        last = np.full(span, -1, dtype=np.int64)
        np.maximum.at(last, offs, pos)
        dirty = np.zeros(span, dtype=bool)
        dirty[offs[writes]] = True
        way = np.empty(span, dtype=np.int64)
        r_offs = distinct[resident]
        way[r_offs] = hit_mat[occupied_hit].argmax(axis=1)

        # Fills, in trace order of first touch: each set's new blocks take
        # its free ways in turn, after the valid prefix.
        is_first = np.zeros(n, dtype=bool)
        is_first[first[distinct[~resident]]] = True
        f_pos = np.flatnonzero(is_first)
        f_blocks = blocks[f_pos]
        f_sets = f_blocks % n_sets
        order = np.argsort(f_sets, kind="stable")
        first_free = valid - (np.cumsum(new_per_set) - new_per_set)
        f_ways = np.empty_like(order)
        f_ways[order] = first_free[f_sets[order]] + np.arange(order.size)
        f_offs = f_blocks - lo
        way[f_offs] = f_ways
        self._tags[f_sets, f_ways] = f_blocks // n_sets
        self._dirty[f_sets, f_ways] = dirty[f_offs]
        self.policy.vec_on_fill(self._vstate, f_sets, f_ways,
                                self._tick + f_pos)

        # Hits: one per re-touched line (resident, or filled and touched
        # again), at its last touch, in trace order.
        self._dirty[d_sets[resident], way[r_offs]] |= dirty[r_offs]
        retouched = resident | (last[distinct] != first[distinct])
        is_last = np.zeros(n, dtype=bool)
        is_last[last[distinct[retouched]]] = True
        h_pos = np.flatnonzero(is_last)
        h_blocks = blocks[h_pos]
        self.policy.vec_on_hit(self._vstate, h_blocks % n_sets,
                               way[h_blocks - lo], self._tick + h_pos)

        n_miss = f_pos.size
        self._tick += n
        self.stats.accesses += n
        self.stats.hits += n - n_miss
        self.stats.misses += n_miss
        self.stats.dram_read_bytes += n_miss * self.line_bytes
        return True

    def _simulate_blocks(self, blocks: np.ndarray, writes: np.ndarray) -> None:
        """Simulate an in-order block stream: in closed form when the chunk
        cannot evict (:meth:`_resolve_eviction_free`), else in
        conflict-free batches.

        Batch boundaries come from a suffix-minimum over the next-occurrence
        index of each access's set: for a batch starting at ``s``, the first
        position that re-uses a set already in the batch is exactly
        ``min(next_occurrence[i] for i >= s)`` — O(trace) to precompute and
        O(1) per batch, so conflict-heavy traces degrade gracefully instead
        of quadratically.
        """
        n = blocks.shape[0]
        if n == 0 or self._resolve_eviction_free(blocks, writes):
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
        chunk_accesses: int = DEFAULT_CHUNK_ACCESSES,
    ) -> None:
        """Replay a trace given as parallel arrays, one row per byte range
        ``[starts[i], starts[i] + nbytes[i])`` accessed with ``is_write[i]``.

        The vector backend expands the ranges to block addresses and
        simulates them through the batched kernel in chunks of
        ``chunk_accesses`` blocks: chunk k is blocks [k·C, (k+1)·C) of the
        whole expanded stream, splitting a range where a boundary falls,
        so memory is bounded by the chunk, not the trace.  The reference
        backend replays range by range (:meth:`access_range`).
        """
        if chunk_accesses <= 0:
            raise ValueError("chunk_accesses must be positive")
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
        for lo in range(0, total, chunk_accesses):
            hi = min(lo + chunk_accesses, total)
            i = int(np.searchsorted(ends, lo, side="right"))
            j = int(np.searchsorted(begins, hi, side="left"))
            c = np.minimum(ends[i:j], hi) - np.maximum(begins[i:j], lo)
            blocks = np.repeat(offset[i:j], c)
            blocks += np.arange(lo, hi, dtype=np.int64)
            self._simulate_blocks(blocks, np.repeat(is_write[i:j], c))

    def access_segments(
        self,
        segments: Iterable,
        chunk_accesses: int = DEFAULT_CHUNK_ACCESSES,
    ) -> None:
        """Replay an iterable of :class:`~repro.sim.trace.StreamSegment`:
        a thin adapter that packs the segments into arrays and calls
        :meth:`access_arrays`.  The segments are held as compact arrays
        (one row per segment), never as expanded blocks.
        """
        starts: List[int] = []
        sizes: List[int] = []
        writes: List[bool] = []
        for seg in segments:
            starts.append(seg.start)
            sizes.append(seg.nbytes)
            writes.append(seg.is_write)
        self.access_arrays(np.array(starts, dtype=np.int64),
                           np.array(sizes, dtype=np.int64),
                           np.array(writes, dtype=bool), chunk_accesses)

    def flush(self) -> None:
        """Write back all dirty lines (end-of-program drain)."""
        dirty_count = int(self._dirty.sum())
        self.stats.writebacks += dirty_count
        self.stats.dram_write_bytes += dirty_count * self.line_bytes
        self._dirty[:] = False

    def resident_lines(self) -> int:
        return int((self._tags != -1).sum())
