"""Explicit oracle staging: Flexagon, FLAT and SET (Table IV).

The oracle operation-by-operation dataflow: every op achieves its best
possible intra-op reuse (MK + KN + MN cold accesses — the small tensor
parks in the RF, the large tensor streams once), and **all ops begin and
end in DRAM**.  This is the upper bound for op-by-op accelerators
(Flexagon's flexible loop orders reach it for every shape/sparsity mix),
and the reference every figure normalises against.  FLAT and SET run the
same oracle minus the tensors their SCORE schedule keeps fully on chip
(:func:`covered_tensors`).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..core.dag import TensorDag
from ..hw.config import AcceleratorConfig
from ..score.schedule_ir import Route, Schedule
from ..sim.perf import make_result
from ..sim.results import SimResult


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


def _oracle_bytes(dag: TensorDag) -> Tuple[Dict[str, int], Dict[str, int], int, int]:
    """Per-tensor oracle read and write bytes of ``dag`` and their totals,
    kept on the DAG (``derived``): none of it reads the SRAM size."""
    def compute():
        reads: Dict[str, int] = {}
        writes: Dict[str, int] = {}
        for op in dag.ops:
            for t in op.inputs:
                reads[t.name] = reads.get(t.name, 0) + dag.tensor(t.name).bytes
            out = op.output.name
            writes[out] = writes.get(out, 0) + dag.tensor(out).bytes
        return reads, writes, sum(reads.values()), sum(writes.values())
    return dag.derived("oracle-bytes", compute)


def oracle_traffic(dag: TensorDag,
                   covered: Optional[Set[str]] = None) -> Tuple[int, int]:
    """Op-by-op cold DRAM traffic, minus fully on-chip (*covered*) tensors.

    Reads: every input of every op is staged once per consuming op (the
    oracle's per-op cold accesses — A is re-read each CG iteration).
    Writes: every produced tensor drains once.  A covered tensor (realized
    pipeline/hold satisfies *all* its consumers) skips both its write and
    all its reads.
    """
    reads, writes, total_reads, total_writes = _oracle_bytes(dag)
    for name in covered or ():
        total_reads -= reads.get(name, 0)
        total_writes -= writes.get(name, 0)
    return total_reads, total_writes


def onchip_accesses(dag: TensorDag, cfg: AcceleratorConfig) -> int:
    """Buffet/scratchpad line accesses: every operand byte is staged and
    touched once per op."""
    _, _, total_reads, total_writes = _oracle_bytes(dag)
    return (total_reads + total_writes) // cfg.line_bytes


def run_oracle(dag: TensorDag, cfg: AcceleratorConfig, covered: Set[str],
               config_name: str, workload_name: str) -> SimResult:
    """Simulate oracle staging with the ``covered`` tensors on chip."""
    reads, writes = oracle_traffic(dag, covered=covered)
    return make_result(
        config=config_name,
        workload=workload_name,
        total_macs=dag.total_macs,
        dram_read_bytes=reads,
        dram_write_bytes=writes,
        cfg=cfg,
        onchip_accesses={"buffet": onchip_accesses(dag, cfg)},
    )
