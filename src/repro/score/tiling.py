"""Tiling of skewed operations (Sec. V-B "Tiling").

Skewed GEMMs have one large tensor (tiled along the dominant rank, one tile
stationary at a time) and one small tensor (resident in the register file,
streamed).
"""

from __future__ import annotations

import math
from typing import Optional

from ..core.classify import ClassifiedDag
from ..core.einsum import EinsumOp
from ..hw.config import AcceleratorConfig
from .loop_order import natural_loop_order
from .schedule_ir import LoopOrder, OpSchedule


def _largest_input(op: EinsumOp) -> Optional[str]:
    """Input tensor with the biggest footprint (the stationary one)."""
    if not op.inputs:
        return None
    return max(op.inputs, key=lambda t: t.bytes).name


def choose_tiling(
    op: EinsumOp,
    classified: ClassifiedDag,
    cfg: AcceleratorConfig,
    order: Optional[LoopOrder] = None,
) -> OpSchedule:
    """Tile ``op`` along its outermost rank so one tile of the *output*
    fits a pipeline stage budget.

    The stage budget is an eighth of the pipeline buffer: a realized
    pipeline needs two tiles resident (double buffering) plus headroom for
    hold windows, and tests pin that ``2 * tile_bytes`` always fits.
    """
    if order is None:
        order = natural_loop_order(op, classified)
    tile_rank = order.outermost
    rank = op.rank(tile_rank)
    out = op.output
    # Bytes of output (or largest operand carrying the rank) per unit of the
    # tiled rank.
    carrier = out if out.has_rank(tile_rank) else op.input_named(_largest_input(op) or out.name)
    if carrier.has_rank(tile_rank):
        bytes_per_unit = max(1, carrier.bytes // rank.size)
    else:
        bytes_per_unit = max(1, carrier.bytes // rank.size)
    stage_budget = max(cfg.line_bytes, cfg.pipeline_buffer_bytes // 8)
    tile_size = max(1, min(rank.size, stage_budget // bytes_per_unit))
    n_tiles = math.ceil(rank.size / tile_size)
    small = tuple(
        t.name for t in op.inputs if t.bytes <= cfg.rf_bytes and t.name != _largest_input(op)
    )
    return OpSchedule(
        op_name=op.name,
        loop_order=order,
        tile_rank=tile_rank,
        tile_size=tile_size,
        n_tiles=n_tiles,
        stationary_tensor=_largest_input(op),
        rf_tensors=small,
    )


def tile_bytes_of(op: EinsumOp, sched: OpSchedule) -> int:
    """Bytes of one output tile under ``sched`` (pipeline stage size)."""
    out = op.output
    if sched.tile_rank and out.has_rank(sched.tile_rank):
        per_unit = max(1, out.bytes // op.rank(sched.tile_rank).size)
        return per_unit * sched.tile_size
    return out.bytes

