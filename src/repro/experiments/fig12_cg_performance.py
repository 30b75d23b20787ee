"""Fig. 12: CG performance across datasets, block widths and bandwidths.

Grid: {fv1, shallow_water1, G2_circuit} × N ∈ {1, 16} × {250, 1000} GB/s,
all Table IV main configurations.  Reports GigaMACs/s (the paper's
GigaFPMuls/s) plus each configuration's position on the roofline
(achieved intensity), and the CELLO-vs-best-baseline speedup per panel
with the cross-panel geomean (paper headline: 4x geomean).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..analysis.report import render_table
from ..baselines.configs import MAIN_CONFIGS
from ..baselines.runner import run_workload_config
from ..hw.config import AcceleratorConfig, BANDWIDTH_POINTS, default_config
from ..sim.results import SimResult, geomean
from ..workloads.registry import CG_DATASETS, CG_N_VALUES, cg_workload
from .common import bandwidth_label, prewarm_grid


@dataclass(frozen=True)
class Fig12Panel:
    """One bar group of Fig. 12."""

    dataset: str
    n: int
    bandwidth: float
    results: Dict[str, SimResult]

    def speedup_of(self, config: str, baseline: str = "Flexagon") -> float:
        return self.results[config].speedup_over(self.results[baseline])


def run(
    cfg: Optional[AcceleratorConfig] = None,
    configs: Sequence[str] = MAIN_CONFIGS,
    bandwidths: Sequence[float] = BANDWIDTH_POINTS,
    datasets=CG_DATASETS,
    n_values: Sequence[int] = CG_N_VALUES,
    iterations: int = 10,
    jobs: Optional[int] = 1,
) -> Tuple[Fig12Panel, ...]:
    # Bandwidth variants share one simulation, so the prewarm grid only
    # spans (dataset × N) × config at the base cfg.
    cfg = default_config(cfg)
    prewarm_grid(
        [cg_workload(ds, n, iterations=iterations)
         for ds in datasets for n in n_values],
        configs, [cfg], jobs=jobs,
    )
    panels = []
    for ds in datasets:
        for n in n_values:
            w = cg_workload(ds, n, iterations=iterations)
            for bw in bandwidths:
                c = cfg.with_bandwidth(bw)
                results = {
                    name: run_workload_config(w, name, c) for name in configs
                }
                panels.append(Fig12Panel(ds.name, n, bw, results))
    return tuple(panels)


def cello_geomean_speedup(panels: Sequence[Fig12Panel],
                          baseline: str = "Flexagon") -> float:
    return geomean(p.speedup_of("CELLO", baseline) for p in panels)


def report(
    cfg: Optional[AcceleratorConfig] = None,
    configs: Sequence[str] = MAIN_CONFIGS,
    iterations: int = 10,
    jobs: Optional[int] = 1,
) -> str:
    cfg = default_config(cfg)
    panels = run(cfg, configs=configs, iterations=iterations, jobs=jobs)
    rows = []
    for p in panels:
        row = [p.dataset, p.n, bandwidth_label(p.bandwidth)]
        for c in configs:
            row.append(p.results[c].throughput_gmacs)
        row.append(p.speedup_of("CELLO"))
        rows.append(row)
    headers = ["dataset", "N", "BW"] + [f"{c} GMAC/s" for c in configs] + ["CELLO/Flex"]
    table = render_table(headers, rows, title="Fig. 12: CG performance (higher is better)")
    gm = cello_geomean_speedup(panels)
    return table + f"\nCELLO geomean speedup over Flexagon: {gm:.2f}x (paper: ~4x)"


def main() -> None:  # pragma: no cover
    print(report())


if __name__ == "__main__":  # pragma: no cover
    main()
