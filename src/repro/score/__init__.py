"""SCORE: scheduler for complex inter-operation reuse (Sec. V).

The package exports the scheduler, its plan and its output; the passes
behind them (loop order, tiling, swizzle, binding) are imported from
their modules.
"""

from .schedule_ir import (
    LoopOrder,
    OpSchedule,
    RealizedHold,
    RealizedPipeline,
    Route,
    Schedule,
    TensorPlacement,
)
from .tiling import OpTiling
from .swizzle import LayoutChoice
from .scheduler import Score, ScoreOptions, ScorePlan
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
    "OpTiling",
    "LayoutChoice",
    "Score",
    "ScoreOptions",
    "ScorePlan",
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
