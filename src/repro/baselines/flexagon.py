"""Best intra-layer explicit baseline — "Flexagon-like" (Table IV row 1).

The oracle operation-by-operation dataflow: every op achieves its best
possible intra-op reuse (MK + KN + MN cold accesses — the small tensor
parks in the RF, the large tensor streams once), and **all ops begin and
end in DRAM**.  This is the upper bound for op-by-op accelerators
(Flexagon's flexible loop orders reach it for every shape/sparsity mix),
and the reference every figure normalises against.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..core.dag import TensorDag
from ..hw.config import AcceleratorConfig
from ..sim.perf import make_result
from ..sim.results import SimResult


def oracle_traffic(dag: TensorDag,
                   covered: Optional[Set[str]] = None) -> Tuple[int, int]:
    """Op-by-op cold DRAM traffic, minus fully on-chip (*covered*) tensors.

    Reads: every input of every op is staged once per consuming op (the
    oracle's per-op cold accesses — A is re-read each CG iteration).
    Writes: every produced tensor drains once.  A covered tensor (realized
    pipeline/hold satisfies *all* its consumers) skips both its write and
    all its reads.
    """
    covered = covered or set()
    reads = 0
    writes = 0
    for op in dag.ops:
        for t in op.inputs:
            if t.name not in covered:
                reads += dag.tensor(t.name).bytes
        if op.output.name not in covered:
            writes += dag.tensor(op.output.name).bytes
    return reads, writes


def onchip_accesses(dag: TensorDag, cfg: AcceleratorConfig) -> int:
    """Buffet/scratchpad line accesses: every operand byte is staged and
    touched once per op."""
    total = 0
    for op in dag.ops:
        total += sum(dag.tensor(t.name).bytes for t in op.inputs)
        total += dag.tensor(op.output.name).bytes
    return total // cfg.line_bytes


def run_flexagon(dag: TensorDag, cfg: AcceleratorConfig,
                 workload_name: str = "workload") -> SimResult:
    """Simulate the best-intra-op explicit configuration."""
    reads, writes = oracle_traffic(dag)
    return make_result(
        config="Flexagon",
        workload=workload_name,
        total_macs=dag.total_macs,
        dram_read_bytes=reads,
        dram_write_bytes=writes,
        cfg=cfg,
        onchip_accesses={"buffet": onchip_accesses(dag, cfg)},
    )
