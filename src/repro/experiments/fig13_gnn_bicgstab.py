"""Fig. 13: GNN (cora, protein) and BiCGStab (NASA4704, fv1, shallow_water1).

GNN panels: CELLO should match FLAT (the only reusable tensor is the
pipelineable AX) and both beat the op-by-op baselines; for cora the cache
policies fall below Flexagon (large feature map).  BiCGStab panels (N=1):
same ordering as CG — CELLO on top via delayed-writeback reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..analysis.report import render_table
from ..baselines.configs import MAIN_CONFIGS
from ..baselines.runner import run_workload_config
from ..hw.config import AcceleratorConfig, default_config
from ..sim.results import SimResult
from ..workloads.registry import (
    all_bicgstab_workloads,
    all_gnn_workloads,
)
from .common import prewarm_grid


@dataclass(frozen=True)
class Fig13Panel:
    workload: str
    family: str
    results: Dict[str, SimResult]


def run(
    cfg: Optional[AcceleratorConfig] = None,
    configs: Sequence[str] = MAIN_CONFIGS,
    jobs: Optional[int] = 1,
) -> Tuple[Fig13Panel, ...]:
    cfg = default_config(cfg)
    workloads = (*all_gnn_workloads(), *all_bicgstab_workloads())
    prewarm_grid(workloads, configs, [cfg], jobs=jobs)
    panels = []
    for w in workloads:
        results = {
            c: run_workload_config(w, c, cfg)
            for c in configs
        }
        panels.append(Fig13Panel(w.name, w.family, results))
    return tuple(panels)


def report(
    cfg: Optional[AcceleratorConfig] = None,
    configs: Sequence[str] = MAIN_CONFIGS,
    jobs: Optional[int] = 1,
) -> str:
    cfg = default_config(cfg)
    panels = run(cfg, configs=configs, jobs=jobs)
    rows = []
    for p in panels:
        row = [p.workload]
        for c in configs:
            row.append(p.results[c].throughput_gmacs)
        rows.append(row)
    headers = ["workload"] + [f"{c} GMAC/s" for c in configs]
    table = render_table(
        headers, rows,
        title="Fig. 13: GNN and BiCGStab performance (higher is better)",
    )
    gnn = [p for p in panels if p.family == "gnn"]
    checks = []
    for p in gnn:
        flat = p.results["FLAT"].throughput_gmacs
        cello = p.results["CELLO"].throughput_gmacs
        checks.append(f"{p.workload}: CELLO/FLAT = {cello / flat:.2f}")
    return table + "\nGNN parity check (paper: CELLO == FLAT): " + "; ".join(checks)


def main() -> None:  # pragma: no cover
    print(report())


if __name__ == "__main__":  # pragma: no cover
    main()
