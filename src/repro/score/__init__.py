"""SCORE: scheduler for complex inter-operation reuse (Sec. V)."""

from .schedule_ir import (
    LoopOrder,
    OpSchedule,
    RealizedHold,
    RealizedPipeline,
    Route,
    Schedule,
    TensorPlacement,
)
from .loop_order import (
    consumer_shares_outermost,
    natural_loop_order,
    pipeline_conditions_met,
    producer_streams_outermost,
    schedule_adjacent,
)
from .tiling import choose_tiling, tile_bytes_of
from .swizzle import (
    LayoutChoice,
    choose_all_layouts,
    choose_layout,
    desired_major_dim,
    producer_major_dim,
    total_swizzles,
)
from .binding import BindingOptions, place_tensors, realize_holds, realize_pipelines
from .scheduler import Score, ScoreOptions, schedule_program
from .searchspace import (
    SearchSpaceReport,
    chord_design_points,
    compare_search_spaces,
    log10_comb,
    log10_factorial,
    log10_op_by_op_space,
    log10_scratchpad_space,
    log10_slice_allocation,
)
from .multinode import NocTrafficComparison, compare_noc_traffic

__all__ = [
    "LoopOrder",
    "OpSchedule",
    "RealizedHold",
    "RealizedPipeline",
    "Route",
    "Schedule",
    "TensorPlacement",
    "consumer_shares_outermost",
    "natural_loop_order",
    "pipeline_conditions_met",
    "producer_streams_outermost",
    "schedule_adjacent",
    "choose_tiling",
    "tile_bytes_of",
    "LayoutChoice",
    "choose_all_layouts",
    "choose_layout",
    "desired_major_dim",
    "producer_major_dim",
    "total_swizzles",
    "BindingOptions",
    "place_tensors",
    "realize_holds",
    "realize_pipelines",
    "Score",
    "ScoreOptions",
    "schedule_program",
    "SearchSpaceReport",
    "chord_design_points",
    "compare_search_spaces",
    "log10_comb",
    "log10_factorial",
    "log10_op_by_op_space",
    "log10_scratchpad_space",
    "log10_slice_allocation",
    "NocTrafficComparison",
    "compare_noc_traffic",
]
