"""FLAT-like oracle pipelined baseline (Table IV row 4).

FLAT pipelines between two adjacent operations *when possible*; a tensor
with delayed downstream consumers is not treated as a pipeline instance
("pipeline just consumes the tensor without writeback").  We realize
pipelines with SCORE's own machinery (holds disabled) — a tensor is fully
on-chip iff **every** consumer is a realized adjacent pipeline, which for
FLAT means single-consumer intermediates like the GNN's ``AX``.  On CG no
intermediate qualifies (each has a delayed consumer), so FLAT collapses to
the Flexagon oracle — exactly the paper's Fig. 12 observation.
"""

from __future__ import annotations

from typing import Set

from ..core.dag import TensorDag
from ..hw.config import AcceleratorConfig
from ..score.scheduler import Score, ScoreOptions
from ..score.schedule_ir import Route, Schedule
from ..sim.perf import make_result
from ..sim.results import SimResult
from .flexagon import onchip_accesses, oracle_traffic


def covered_tensors(schedule: Schedule) -> Set[str]:
    """Tensors that never touch DRAM: all consumers fed on-chip.

    With SCORE's placement semantics this is precisely ``write_route ==
    PIPELINE`` (all consumer routes are PIPELINE/HOLD and the tensor is not
    a program output).
    """
    return {
        name
        for name, p in schedule.placements.items()
        if p.write_route is Route.PIPELINE
    }


def flat_schedule(dag: TensorDag, cfg: AcceleratorConfig) -> Schedule:
    """SCORE restricted to FLAT's capability: adjacent pipelining only."""
    return Score(cfg, ScoreOptions(enable_pipelining=True, enable_holds=False)).schedule(dag)


def run_flat(dag: TensorDag, cfg: AcceleratorConfig,
             workload_name: str = "workload") -> SimResult:
    """Simulate the FLAT-like configuration (oracle pipelined dataflow)."""
    schedule = flat_schedule(dag, cfg)
    covered = covered_tensors(schedule)
    reads, writes = oracle_traffic(dag, covered=covered)
    return make_result(
        config="FLAT",
        workload=workload_name,
        total_macs=dag.total_macs,
        dram_read_bytes=reads,
        dram_write_bytes=writes,
        cfg=cfg,
        onchip_accesses={"buffet": onchip_accesses(dag, cfg)},
    )
