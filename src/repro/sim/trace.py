"""The cache trace of the Flex+LRU / Flex+BRRIP baselines.

The best-intra-op schedule streams every operand once per op: large
operands tile-interleaved (a tile of each input is read while a tile of the
output is written), small operands read up front.  The cache baselines push
exactly this access stream through an implicitly-managed cache; whatever
inter-op reuse the cache captures is whatever survives its replacement
policy — the comparison Fig. 12 makes.

A trace is three parallel arrays, one row per byte range
(:func:`program_trace_arrays`), built in one vectorised pass.
:data:`INTERLEAVE_CHUNK` sets how finely concurrent operand streams are
woven together (real engines fetch tiles round-robin).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.dag import TensorDag
from .address_map import AddressMap

#: Bytes of each large operand (and of the output) streamed per
#: round-robin turn when an op's streams are interleaved.
INTERLEAVE_CHUNK = 4096


def program_trace_arrays(
    dag: TensorDag,
    amap: AddressMap,
    rf_bytes: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whole-program trace as three parallel arrays, one row a byte range:
    ``(start, nbytes, is_write)`` as int64, int64 and bool.

    Ops run in program order.  Within an op, small operands
    (≤ ``rf_bytes``) come first, read whole (they park in the RF): the
    inputs, then the output, one row each.  Large operands and the output
    follow in :data:`INTERLEAVE_CHUNK` slices, round-robin, modelling
    tile-synchronous dataflow: round r holds the r-th slice of every
    stream still running, in operand order.  One ``lexsort`` over
    (op, round, operand slot) yields that order.

    The compact form the cache engine keeps on a DAG and replays through
    :meth:`SetAssociativeCache.access_arrays`: ~17 bytes a row
    (cg/G2_circuit/N=16's ~344k rows are ~6 MB), where the expanded
    block stream would be 8 bytes a *line* (~100 MB for the same trace).
    """
    def operands():
        for i, op in enumerate(dag.ops):
            for j, t in enumerate((*op.inputs, op.output)):
                ext = amap.get(t.name)
                yield i, j, ext.base, ext.nbytes, j == len(op.inputs)

    op_idx, slot, base, size, write = np.array(
        list(operands()), dtype=np.int64).reshape(-1, 5).T
    small = size <= rf_bytes
    # A small operand is one row; a large one, one row per slice.
    counts = np.where(small, 1, -(-size // INTERLEAVE_CHUNK))
    row = np.repeat(np.arange(size.size), counts)
    k = np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    offset = k * INTERLEAVE_CHUNK
    nbytes = np.where(small[row], size[row],
                      np.minimum(INTERLEAVE_CHUNK, size[row] - offset))
    order = np.lexsort((slot[row], np.where(small[row], -1, k), op_idx[row]))
    return ((base[row] + offset)[order], nbytes[order],
            write[row][order].astype(bool))


def program_trace_bytes(dag: TensorDag) -> int:
    """Total bytes a program trace will touch, without materializing it.

    Every op streams each input once and its output once, so the total is
    pure operand arithmetic — this is what sizes ``auto_granularity`` for
    the streaming path (equality with the sum of
    :func:`program_trace_arrays`' ``nbytes`` is pinned in tests).
    """
    return sum(
        sum(t.bytes for t in op.inputs) + op.output.bytes for op in dag.ops
    )


#: Default access budget for ``auto_granularity``.  Sized for the
#: vectorized cache backend (tens of millions of accesses per second);
#: the pre-vectorization scalar loop forced this down to 2M, coarsening
#: multi-GB traces 10x more than necessary.
DEFAULT_TARGET_ACCESSES = 20_000_000


def auto_granularity(total_bytes: int, line_bytes: int) -> int:
    """Coarsening factor g so a trace simulates in
    ~:data:`DEFAULT_TARGET_ACCESSES` accesses.

    g consecutive lines form one block; the cache scales its set count by
    1/g at equal capacity, preserving streaming/capacity behaviour (tests
    pin shape preservation).  Always a power of two.
    """
    if total_bytes <= 0:
        return 1
    g = 1
    while total_bytes // (line_bytes * g) > DEFAULT_TARGET_ACCESSES:
        g *= 2
    return g
