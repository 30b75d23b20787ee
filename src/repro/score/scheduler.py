"""SCORE: the top-level scheduler (Sec. V, Fig. 5).

``Score.schedule`` runs the whole pipeline:

1. classify tensor-level dependencies (Algorithm 2);
2. fix per-op loop orders (dominant rank outermost) and tilings;
3. choose per-tensor layouts minimizing swizzle;
4. realize pipelines and holds, steering the rest to CHORD;
5. emit the coarse-grained per-tensor reuse hints CHORD's policies consume.

SCORE deliberately does **not** search buffer allocations: that is the
1e80-choice trap of Sec. VI-B.  Its output is O(nodes + edges) of metadata,
and CHORD's implicit policies make the cycle-level decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..chord.hints import ReuseHints
from ..core.classify import ClassifiedDag, classify_dependencies
from ..core.dag import TensorDag
from ..hw.config import DEFAULT_CONFIG, AcceleratorConfig
from ..sim.phases import timed
from .binding import (EdgeKey, HoldCandidate, LayoutFacts, hold_candidates,
                      layout_facts, pipeline_candidates, place_tensors,
                      realize_holds, realize_pipelines)
from .loop_order import natural_loop_order
from .schedule_ir import OpSchedule, Schedule
from .swizzle import choose_all_layouts
from .tiling import OpTiling


@dataclass(frozen=True)
class ScoreOptions:
    """Scheduler feature switches (each is an ablation axis)."""

    enable_pipelining: bool = True
    enable_holds: bool = True
    minimize_swizzle: bool = True


@dataclass(frozen=True)
class ScorePlan:
    """Everything SCORE derives from one DAG alone, for one
    :class:`ScoreOptions`: Algorithm 2, the reuse hints, each op's
    :class:`OpTiling`, the pipeline and hold candidates and the
    per-tensor layout facts.  Nothing in it reads the SRAM size;
    :meth:`bind` adds that."""

    dag: TensorDag
    classified: ClassifiedDag
    hints: ReuseHints
    ops: Tuple[OpTiling, ...]
    pipelines: Tuple[EdgeKey, ...]
    holds: Tuple[HoldCandidate, ...]
    layouts: Dict[str, LayoutFacts]

    @classmethod
    def build(cls, dag: TensorDag, classified: ClassifiedDag,
              options: ScoreOptions) -> "ScorePlan":
        orders = {op.name: natural_loop_order(op, classified) for op in dag.ops}
        layouts = choose_all_layouts(dag, orders,
                                     minimize=options.minimize_swizzle)
        return cls(
            dag=dag,
            classified=classified,
            hints=ReuseHints.from_dag(dag),
            ops=tuple(OpTiling.of(op, orders[op.name]) for op in dag.ops),
            pipelines=(pipeline_candidates(classified, orders, layouts)
                       if options.enable_pipelining else ()),
            holds=(hold_candidates(classified)
                   if options.enable_holds else ()),
            layouts=layout_facts(dag, layouts),
        )

    def tile_bytes(self, op_schedules: Dict[str, OpSchedule]) -> Dict[str, int]:
        """Bytes of one output tile of every op under ``op_schedules``."""
        return {t.op_name: t.tile_bytes(op_schedules[t.op_name].tile_size)
                for t in self.ops}

    def bind(self, cfg: AcceleratorConfig) -> Schedule:
        """The :class:`Schedule` of this plan on ``cfg``'s SRAM geometry."""
        op_schedules = {t.op_name: t.schedule(cfg) for t in self.ops}
        tiles = self.tile_bytes(op_schedules)
        pipelines = realize_pipelines(self.pipelines, tiles, cfg)
        holds = realize_holds(self.holds, tiles, pipelines, cfg)
        return Schedule(
            dag=self.dag,
            classified=self.classified,
            op_schedules=op_schedules,
            placements=place_tensors(
                self.hints, [t.op_name for t in self.ops], self.layouts,
                pipelines, holds, cfg),
            pipelines=pipelines,
            holds=holds,
            hints=self.hints,
        )


class Score:
    """The SCORE scheduler."""

    def __init__(
        self,
        cfg: Optional[AcceleratorConfig] = None,
        options: Optional[ScoreOptions] = None,
    ) -> None:
        self.cfg = DEFAULT_CONFIG if cfg is None else cfg
        self.options = ScoreOptions() if options is None else options

    def plan(self, dag: TensorDag,
             classified: Optional[ClassifiedDag] = None) -> ScorePlan:
        """The :class:`ScorePlan` of ``dag`` under this scheduler's options.

        Without ``classified`` it is kept on the DAG
        (:meth:`TensorDag.derived`, key ``("score-plan", options)``) next
        to Algorithm 2 (``"classified"``), so every later schedule of
        the DAG, at any SRAM size, reuses it.  With ``classified`` it is
        built afresh from it and not kept.
        """
        options = self.options
        if classified is not None:
            return ScorePlan.build(dag, classified, options)
        return dag.derived(("score-plan", options), lambda: ScorePlan.build(
            dag, dag.derived("classified", lambda: classify_dependencies(dag)),
            options))

    def schedule(self, dag: TensorDag,
                 classified: Optional[ClassifiedDag] = None) -> Schedule:
        """Produce a full :class:`Schedule` for ``dag``: its plan
        (:meth:`plan`) bound to this scheduler's config.

        The plan holds what reads the DAG alone: steps 1, 3 and 5, the
        loop orders, each op's tiling facts, the pipeline candidates
        (adjacent, pipelineable, conditions 2–4, not swizzled), the
        hold candidates with their hops and depth, and each tensor's
        major rank and swizzled consumers.  Binding reads only
        ``pipeline_buffer_bytes``, ``rf_bytes`` and ``line_bytes``: it
        sizes the tiles, keeps the stages whose ``2·tile`` fits the
        pipeline buffer and the holds whose chain pipelines and whose
        window fits, and routes each tensor to the RF, a pipeline, a
        hold or CHORD from its reuse hints.  The call is
        reported to the phase hook as ``"schedule"``.
        """
        return timed("schedule",
                     lambda: self.plan(dag, classified).bind(self.cfg))
