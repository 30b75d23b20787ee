"""Tiling of skewed operations (Sec. V-B "Tiling").

Skewed GEMMs have one large tensor (tiled along the dominant rank, one tile
stationary at a time) and one small tensor (resident in the register file,
streamed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.einsum import EinsumOp
from ..hw.config import AcceleratorConfig
from .schedule_ir import LoopOrder, OpSchedule


@dataclass(frozen=True)
class OpTiling:
    """What one op's tiling reads from the DAG: its loop order, the
    extent of the tiled (outermost) rank, and the byte sizes the stage
    budget is divided by.  :meth:`schedule` adds the SRAM geometry."""

    op_name: str
    order: LoopOrder
    rank_size: int                  # extent of the tiled rank
    carrier_per_unit: int           # carrier bytes per unit of that rank
    out_per_unit: Optional[int]     # output bytes per unit; None: not tiled
    out_bytes: int
    stationary: Optional[str]       # the largest input
    inputs: Tuple[Tuple[str, int], ...]  # (name, bytes) of every input

    @classmethod
    def of(cls, op: EinsumOp, order: LoopOrder) -> "OpTiling":
        rank = op.rank(order.outermost)
        out = op.output
        stationary = (max(op.inputs, key=lambda t: t.bytes).name
                      if op.inputs else None)
        tiled = out.has_rank(order.outermost)
        # The output carries the tiled rank, or else the largest operand.
        carrier = out if tiled else op.input_named(stationary or out.name)
        return cls(
            op_name=op.name,
            order=order,
            rank_size=rank.size,
            carrier_per_unit=max(1, carrier.bytes // rank.size),
            out_per_unit=max(1, out.bytes // rank.size) if tiled else None,
            out_bytes=out.bytes,
            stationary=stationary,
            inputs=tuple((t.name, t.bytes) for t in op.inputs),
        )

    def schedule(self, cfg: AcceleratorConfig) -> OpSchedule:
        """Tile along the outermost rank so one tile of the *output* fits
        a pipeline stage budget.

        The stage budget is an eighth of the pipeline buffer: a realized
        pipeline needs two tiles resident (double buffering) plus headroom
        for hold windows, and tests pin that ``2 * tile_bytes`` always
        fits.
        """
        stage_budget = max(cfg.line_bytes, cfg.pipeline_buffer_bytes // 8)
        tile_size = max(1, min(self.rank_size,
                               stage_budget // self.carrier_per_unit))
        return OpSchedule(
            op_name=self.op_name,
            loop_order=self.order,
            tile_rank=self.order.outermost,
            tile_size=tile_size,
            n_tiles=math.ceil(self.rank_size / tile_size),
            stationary_tensor=self.stationary,
            rf_tensors=tuple(name for name, nbytes in self.inputs
                             if nbytes <= cfg.rf_bytes
                             and name != self.stationary),
        )

    def tile_bytes(self, tile_size: int) -> int:
        """Bytes of one output tile of ``tile_size`` (pipeline stage size)."""
        if self.out_per_unit is None:
            return self.out_bytes
        return self.out_per_unit * tile_size
