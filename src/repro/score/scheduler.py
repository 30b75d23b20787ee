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

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..chord.hints import ReuseHints
from ..core.classify import ClassifiedDag, classify_dependencies
from ..core.dag import TensorDag
from ..hw.config import DEFAULT_CONFIG, AcceleratorConfig
from ..sim.phases import timed
from .binding import BindingOptions, place_tensors, realize_holds, realize_pipelines
from .loop_order import natural_loop_order
from .schedule_ir import LoopOrder, Schedule
from .swizzle import choose_all_layouts
from .tiling import choose_tiling


@dataclass(frozen=True)
class ScoreOptions:
    """Scheduler feature switches (each is an ablation axis)."""

    enable_pipelining: bool = True
    enable_holds: bool = True
    minimize_swizzle: bool = True

    def binding(self) -> BindingOptions:
        return BindingOptions(
            enable_pipelining=self.enable_pipelining,
            enable_holds=self.enable_holds,
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

    def schedule(self, dag: TensorDag,
                 classified: Optional[ClassifiedDag] = None) -> Schedule:
        """Produce a full :class:`Schedule` for ``dag``.

        Steps 1, 3 and 5 and the loop orders read the DAG alone, never
        the SRAM size.  Without ``classified`` they come from the DAG's
        derived cache (:meth:`TensorDag.derived`): Algorithm 2, the
        natural loop orders, the layouts (keyed by ``minimize_swizzle``)
        and the reuse hints, computed by the first schedule of the DAG
        and shared by every later one.  Tiling, pipeline and hold
        realisation and placement read ``pipeline_buffer_bytes`` and
        ``rf_bytes``, so they run on every call.  A caller that passes
        ``classified`` gets every stage computed afresh from it.  The
        call is reported to the phase hook as ``"schedule"``.
        """
        return timed("schedule", lambda: self._schedule(dag, classified))

    def _schedule(self, dag: TensorDag,
                  classified: Optional[ClassifiedDag]) -> Schedule:
        minimize = self.options.minimize_swizzle
        if classified is None:
            cdag = dag.derived("classified",
                               lambda: classify_dependencies(dag))
            orders = dag.derived("loop-orders",
                                 lambda: _loop_orders(dag, cdag))
            layouts = dag.derived(
                ("layouts", minimize),
                lambda: choose_all_layouts(dag, orders, minimize=minimize))
            hints = dag.derived("reuse-hints",
                                lambda: ReuseHints.from_dag(dag))
        else:
            cdag = classified
            orders = _loop_orders(dag, cdag)
            layouts = choose_all_layouts(dag, orders, minimize=minimize)
            hints = ReuseHints.from_dag(dag)
        op_schedules = {
            op.name: choose_tiling(op, cdag, self.cfg, order=orders[op.name])
            for op in dag.ops
        }
        pipelines = realize_pipelines(
            cdag, op_schedules, layouts, self.cfg, self.options.binding()
        )
        holds = realize_holds(
            cdag, op_schedules, pipelines, self.cfg, self.options.binding()
        )
        placements = place_tensors(cdag, pipelines, holds, layouts, self.cfg)
        return Schedule(
            dag=dag,
            classified=cdag,
            op_schedules=op_schedules,
            placements=placements,
            pipelines=pipelines,
            holds=holds,
            hints=hints,
        )


def _loop_orders(dag: TensorDag, cdag: ClassifiedDag) -> Dict[str, LoopOrder]:
    return {op.name: natural_loop_order(op, cdag) for op in dag.ops}


def schedule_program(
    dag: TensorDag,
    cfg: Optional[AcceleratorConfig] = None,
    options: Optional[ScoreOptions] = None,
) -> Schedule:
    """Convenience one-shot: classify + schedule ``dag``."""
    return Score(cfg, options).schedule(dag)
