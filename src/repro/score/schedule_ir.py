"""Schedule intermediate representation — SCORE's output (Fig. 5).

A :class:`Schedule` binds every operation to a loop order + tiling and every
tensor to a *placement*: which buffer each consumer reads it from
(register file / pipeline buffer / hold slot / CHORD / DRAM) and where the
producer writes it.  Realized pipelines and holds record the edges whose
co-dependence conditions were actually satisfiable on the target hardware —
classification says an edge *may* pipeline; realization says it *does*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..core.classify import ClassifiedDag
from ..core.dag import TensorDag
from ..chord.hints import ReuseHints


class Route(enum.Enum):
    """Where a consumer reads a tensor from / a producer writes it to."""

    REGISTER_FILE = "rf"       # small tensor resident in the RF
    PIPELINE = "pipeline"      # adjacent realized pipeline stage
    HOLD = "hold"              # held tiles in the pipeline buffer
    CHORD = "chord"            # hybrid buffer (CELLO) — partial on-chip reuse
    DRAM = "dram"              # straight to/from DRAM (explicit baselines)


@dataclass(frozen=True)
class LoopOrder:
    """Concrete loop nest of one op: ``ranks`` outermost-first, ``parallel``
    marks pfor ranks (Sec. II-A example schedules)."""

    ranks: Tuple[str, ...]
    parallel: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.ranks)) != len(self.ranks):
            raise ValueError(f"duplicate ranks in loop order {self.ranks}")
        for p in self.parallel:
            if p not in self.ranks:
                raise ValueError(f"parallel rank {p!r} not in loop order {self.ranks}")

    @property
    def outermost(self) -> str:
        return self.ranks[0]


@dataclass(frozen=True)
class OpSchedule:
    """Per-op schedule: loop order, tiling of the dominant rank, and which
    operands are stationary vs streamed from the RF (Sec. V-B Tiling)."""

    op_name: str
    loop_order: LoopOrder
    tile_rank: Optional[str]          # tiled (usually dominant) rank
    tile_size: int                    # extent of one tile along tile_rank
    n_tiles: int
    stationary_tensor: Optional[str]  # the large tensor kept stationary
    rf_tensors: Tuple[str, ...]       # small tensors streamed from the RF

    def __post_init__(self) -> None:
        if self.n_tiles <= 0 or self.tile_size <= 0:
            raise ValueError("tiling must be positive")


@dataclass(frozen=True)
class RealizedPipeline:
    """An adjacent producer→consumer edge actually run as a pipeline."""

    src: str
    dst: str
    tensor: str
    tile_bytes: int


@dataclass(frozen=True)
class RealizedHold:
    """A delayed-hold edge satisfied by holding tiles in the pipeline
    buffer until the downstream consumer runs (Fig. 6)."""

    src: str
    dst: str
    tensor: str
    depth: int          # intervening pipeline stages
    window_bytes: int   # resident hold window


@dataclass(frozen=True)
class TensorPlacement:
    """Routing of one tensor: per-consumer read route + producer write route
    + the layout chosen by swizzle minimization."""

    tensor: str
    write_route: Route
    consumer_routes: Mapping[str, Route]
    major_rank: Optional[str]        # chosen storage-major rank
    swizzled_consumers: Tuple[str, ...]  # consumers needing a layout transform

    def route_for(self, consumer: str) -> Route:
        try:
            return self.consumer_routes[consumer]
        except KeyError:
            raise KeyError(
                f"op {consumer!r} is not a consumer of tensor {self.tensor!r}"
            ) from None


@dataclass
class Schedule:
    """Complete SCORE output for one program."""

    dag: TensorDag
    classified: ClassifiedDag
    op_schedules: Dict[str, OpSchedule]
    placements: Dict[str, TensorPlacement]
    pipelines: Dict[Tuple[str, str, str], RealizedPipeline]
    holds: Dict[Tuple[str, str, str], RealizedHold]
    hints: ReuseHints

    def placement(self, tensor: str) -> TensorPlacement:
        try:
            return self.placements[tensor]
        except KeyError:
            raise KeyError(f"tensor {tensor!r} has no placement") from None

    def op_schedule(self, op_name: str) -> OpSchedule:
        try:
            return self.op_schedules[op_name]
        except KeyError:
            raise KeyError(f"op {op_name!r} has no schedule") from None

    @property
    def n_pipelined_edges(self) -> int:
        return len(self.pipelines)

    @property
    def n_held_edges(self) -> int:
        return len(self.holds)

    def chord_tensors(self) -> Tuple[str, ...]:
        """Tensors any of whose consumers read through CHORD."""
        out = []
        for name, p in self.placements.items():
            if p.write_route is Route.CHORD or Route.CHORD in p.consumer_routes.values():
                out.append(name)
        return tuple(out)

    def describe(self) -> str:
        lines = [
            f"Schedule: {len(self.op_schedules)} ops, "
            f"{self.n_pipelined_edges} pipelined edges, "
            f"{self.n_held_edges} held edges"
        ]
        for name, p in self.placements.items():
            routes = ", ".join(f"{c}={r.value}" for c, r in p.consumer_routes.items())
            lines.append(f"  {name}: write={p.write_route.value} [{routes}]")
        return "\n".join(lines)
