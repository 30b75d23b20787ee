"""Capability matrices — Tables II and III as the paper tabulates them.

The rows are data; the ``table2``/``table3`` experiments check their
claims against live DAGs and buffer models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .report import render_table


@dataclass(frozen=True)
class SchedulerCapabilities:
    """One Table II row."""

    name: str
    intra_op_reuse: bool
    parallel_multicast: bool
    inter_op_pipelining: bool
    delayed_hold: bool
    delayed_writeback: bool
    swizzle_minimization: bool
    part_implicit_buffer: bool
    scope: str


SCHEDULER_ROWS: Tuple[SchedulerCapabilities, ...] = (
    SchedulerCapabilities(
        "MAESTRO/Timeloop/CoSA/GAMMA/... (op-by-op)",
        True, False, False, False, False, False, False,
        "Just within-op reuse.",
    ),
    SchedulerCapabilities(
        "FusedCNN/FLAT/FlashAttention/ISOSceles/TileFlow/OMEGA",
        True, False, True, False, False, False, False,
        "Adjacent ops only, no delayed dependency.",
    ),
    SchedulerCapabilities(
        "SET/TANGRAM",
        True, True, True, True, False, False, False,
        "Adjacent ops + delayed hold.",
    ),
    SchedulerCapabilities(
        "SCORE (this work)",
        True, True, True, True, True, True, True,
        "Adjacent ops + delayed hold and writeback.",
    ),
)


def scheduler_capability_table() -> str:
    """Table II as text."""
    headers = [
        "Scheduler", "Intra-op", "Multicast", "Pipelining",
        "Del.hold", "Del.writeback", "Swizzle-min", "Part-implicit", "Scope",
    ]
    rows = [
        [
            r.name,
            r.intra_op_reuse, r.parallel_multicast, r.inter_op_pipelining,
            r.delayed_hold, r.delayed_writeback, r.swizzle_minimization,
            r.part_implicit_buffer, r.scope,
        ]
        for r in SCHEDULER_ROWS
    ]
    return render_table(headers, rows, title="Table II: scheduler capabilities")


@dataclass(frozen=True)
class BufferCapabilities:
    """One Table III row."""

    name: str
    exposure: str            # implicit / explicit / hybrid
    granularity: str         # line / tile / object
    placement_policy: str
    online_policy: bool
    hw_overhead: str         # lowest / low / highest
    sw_burden: str           # lowest / low / high / highest
    remarks: str


BUFFER_ROWS: Tuple[BufferCapabilities, ...] = (
    BufferCapabilities(
        "Cache", "implicit", "line", "fully agnostic", True, "highest", "lowest",
        "Workload-agnostic, myopic line-level replacement, per-line tags.",
    ),
    BufferCapabilities(
        "Scratchpad", "explicit", "line", "fully controlled", False, "lowest", "highest",
        "Programmer owns the local address map; offline programming.",
    ),
    BufferCapabilities(
        "Buffets", "explicit", "tile (credit)", "fully controlled", False, "low", "high",
        "Credit scoreboarding eases synchronisation over scratchpads.",
    ),
    BufferCapabilities(
        "Tailors", "hybrid", "tile + word", "controlled except overbooked", True, "low", "high",
        "Buffets + implicit word-level replacement of overbooked tails.",
    ),
    BufferCapabilities(
        "CHORD (this work)", "hybrid", "object", "object-aware, coarse control", True, "low", "low",
        "Cycle-level implicit replacement; needs only tensor address ranges "
        "+ DAG reuse metadata.",
    ),
)


def buffer_capability_table() -> str:
    """Table III as text."""
    headers = [
        "Mechanism", "Exposure", "Granularity", "Placement policy",
        "Online", "HW overhead", "SW burden", "Remarks",
    ]
    rows = [
        [
            r.name, r.exposure, r.granularity, r.placement_policy,
            r.online_policy, r.hw_overhead, r.sw_burden, r.remarks,
        ]
        for r in BUFFER_ROWS
    ]
    return render_table(headers, rows, title="Table III: buffer mechanisms")
