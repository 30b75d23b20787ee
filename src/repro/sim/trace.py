"""Stream-segment traces for the cache baselines (Flex+LRU / Flex+BRRIP).

The best-intra-op schedule streams every operand once per op: large
operands tile-interleaved (a tile of each input is read while a tile of the
output is written), small operands read up front.  The cache baselines push
exactly this access stream through an implicitly-managed cache; whatever
inter-op reuse the cache captures is whatever survives its replacement
policy — the comparison Fig. 12 makes.

Traces are sequences of :class:`StreamSegment` (byte ranges + R/W flavour),
packed for replay into three parallel arrays (:func:`program_trace_arrays`).
:data:`INTERLEAVE_CHUNK` sets how finely concurrent operand streams are
woven together (real engines fetch tiles round-robin).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..core.dag import TensorDag
from ..core.einsum import EinsumOp
from .address_map import AddressMap

#: Bytes of each large operand (and of the output) streamed per
#: round-robin turn when an op's streams are interleaved.
INTERLEAVE_CHUNK = 4096


@dataclass(frozen=True)
class StreamSegment:
    """A contiguous byte range accessed with one flavour."""

    tensor: str
    start: int      # global byte address
    nbytes: int
    is_write: bool

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("segment size must be non-negative")


def _chunks(base: int, nbytes: int, chunk: int) -> Iterator[Tuple[int, int]]:
    off = 0
    while off < nbytes:
        n = min(chunk, nbytes - off)
        yield base + off, n
        off += n


def op_trace(
    op: EinsumOp,
    dag: TensorDag,
    amap: AddressMap,
    rf_bytes: int = 32 * 1024,
) -> List[StreamSegment]:
    """The access stream of one op under the best-intra-op schedule.

    Small operands (≤ ``rf_bytes``) are read whole up front (they park in
    the RF); large operands and the output stream in
    :data:`INTERLEAVE_CHUNK` slices, round-robin, modelling
    tile-synchronous dataflow.
    """
    segments: List[StreamSegment] = []
    small: List[StreamSegment] = []
    streams: List[Iterator[Tuple[int, int]]] = []
    stream_meta: List[Tuple[str, bool]] = []

    for t in op.inputs:
        ext = amap.get(t.name)
        if t.bytes <= rf_bytes:
            small.append(StreamSegment(t.name, ext.base, ext.nbytes, is_write=False))
        else:
            streams.append(_chunks(ext.base, ext.nbytes, INTERLEAVE_CHUNK))
            stream_meta.append((t.name, False))
    out_ext = amap.get(op.output.name)
    if op.output.bytes <= rf_bytes:
        small.append(StreamSegment(op.output.name, out_ext.base, out_ext.nbytes, is_write=True))
    else:
        streams.append(_chunks(out_ext.base, out_ext.nbytes, INTERLEAVE_CHUNK))
        stream_meta.append((op.output.name, True))

    segments.extend(small)
    live = list(range(len(streams)))
    while live:
        nxt: List[int] = []
        for i in live:
            try:
                base, n = next(streams[i])
            except StopIteration:
                continue
            name, is_write = stream_meta[i]
            segments.append(StreamSegment(name, base, n, is_write=is_write))
            nxt.append(i)
        live = nxt
    return segments


def iter_program_trace(
    dag: TensorDag,
    amap: AddressMap,
    rf_bytes: int = 32 * 1024,
) -> Iterator[StreamSegment]:
    """Whole-program trace as a generator: ops in program order.

    Only one op's segments are materialized at a time.
    ``program_trace_arrays`` packs it into the arrays the cache engine
    replays; ``program_trace`` is the eager list form (small traces,
    tests).
    """
    for op in dag.ops:
        yield from op_trace(op, dag, amap, rf_bytes=rf_bytes)


def program_trace_arrays(
    dag: TensorDag,
    amap: AddressMap,
    rf_bytes: int = 32 * 1024,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whole-program trace as three parallel arrays, one row a segment:
    ``(start, nbytes, is_write)`` as int64, int64 and bool.

    The compact form the cache engine keeps on a DAG and replays through
    :meth:`SetAssociativeCache.access_arrays`: ~17 bytes a segment
    (cg/G2_circuit/N=16's ~344k segments are ~6 MB), where the expanded
    block stream would be 8 bytes a *line* (~100 MB for the same trace).
    """
    starts: List[int] = []
    sizes: List[int] = []
    writes: List[bool] = []
    for seg in iter_program_trace(dag, amap, rf_bytes=rf_bytes):
        starts.append(seg.start)
        sizes.append(seg.nbytes)
        writes.append(seg.is_write)
    return (np.array(starts, dtype=np.int64), np.array(sizes, dtype=np.int64),
            np.array(writes, dtype=bool))


def program_trace(
    dag: TensorDag,
    amap: AddressMap,
    rf_bytes: int = 32 * 1024,
) -> List[StreamSegment]:
    """Whole-program trace: ops in program order (eager list form)."""
    return list(iter_program_trace(dag, amap, rf_bytes=rf_bytes))


def trace_bytes(segments: Iterable[StreamSegment]) -> int:
    """Total bytes touched by a trace (sanity metric)."""
    return sum(s.nbytes for s in segments)


def program_trace_bytes(dag: TensorDag) -> int:
    """Total bytes a program trace will touch, without materializing it.

    Every op streams each input once and its output once, so the total is
    pure operand arithmetic — this is what sizes ``auto_granularity`` for
    the streaming path (equality with ``trace_bytes(program_trace(...))``
    is pinned in tests).
    """
    return sum(
        sum(t.bytes for t in op.inputs) + op.output.bytes for op in dag.ops
    )


#: Default access budget for ``auto_granularity``.  Sized for the
#: vectorized cache backend (tens of millions of accesses per second);
#: the pre-vectorization scalar loop forced this down to 2M, coarsening
#: multi-GB traces 10x more than necessary.
DEFAULT_TARGET_ACCESSES = 20_000_000


def auto_granularity(
    total_bytes: int,
    line_bytes: int,
    target_accesses: int = DEFAULT_TARGET_ACCESSES,
) -> int:
    """Coarsening factor g so a trace simulates in ~``target_accesses``.

    g consecutive lines form one block; the cache scales its set count by
    1/g at equal capacity, preserving streaming/capacity behaviour (tests
    pin shape preservation).  Always a power of two.
    """
    if total_bytes <= 0:
        return 1
    g = 1
    while total_bytes // (line_bytes * g) > target_accesses:
        g *= 2
    return g
