"""SET-like baseline: pipelining + delayed hold (Table IV last row).

SET/TANGRAM-class schedulers additionally satisfy *delayed-hold*
dependencies by keeping tiles alive in on-chip buffers until the
downstream consumer runs — enough for ResNet's skip connections (where SET
matches CELLO, Fig. 16a) but not for CG's delayed-*writeback* tensors
(where SET collapses to FLAT/Flexagon).
"""

from __future__ import annotations

from ..core.dag import TensorDag
from ..hw.config import AcceleratorConfig
from ..score.scheduler import Score, ScoreOptions
from ..score.schedule_ir import Schedule
from ..sim.perf import make_result
from ..sim.results import SimResult
from .flat import covered_tensors
from .flexagon import onchip_accesses, oracle_traffic


def set_schedule(dag: TensorDag, cfg: AcceleratorConfig) -> Schedule:
    """SCORE restricted to SET's capability: pipelining + holds."""
    return Score(cfg, ScoreOptions(enable_pipelining=True, enable_holds=True)).schedule(dag)


def run_set(dag: TensorDag, cfg: AcceleratorConfig,
            workload_name: str = "workload") -> SimResult:
    """Simulate the SET-like configuration."""
    schedule = set_schedule(dag, cfg)
    covered = covered_tensors(schedule)
    reads, writes = oracle_traffic(dag, covered=covered)
    return make_result(
        config="SET",
        workload=workload_name,
        total_macs=dag.total_macs,
        dram_read_bytes=reads,
        dram_write_bytes=writes,
        cfg=cfg,
        onchip_accesses={"buffet": onchip_accesses(dag, cfg)},
    )
