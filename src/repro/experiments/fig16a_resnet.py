"""Fig. 16(a): ResNet conv3_x block — performance and off-chip energy,
including the SET baseline.

Expected shape: at 1 TB/s every configuration is compute bound (equal
performance); at 250 GB/s the op-by-op baseline drops while pipelined
configs stay compute bound.  Energy: SET == CELLO < FLAT < Flexagon
(SET handles the delayed-hold skip connection; FLAT does not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..analysis.report import render_table
from ..baselines.runner import run_workload_config
from ..hw.config import AcceleratorConfig, BANDWIDTH_POINTS, default_config
from ..sim.results import SimResult
from ..workloads.registry import resnet_workload
from .common import bandwidth_label, prewarm_grid

CONFIGS: Tuple[str, ...] = ("Flexagon", "Flex+LRU", "Flex+BRRIP", "FLAT", "SET", "CELLO")


@dataclass(frozen=True)
class Fig16aPanel:
    bandwidth: float
    results: Dict[str, SimResult]


def run(
    cfg: Optional[AcceleratorConfig] = None,
    configs: Sequence[str] = CONFIGS,
    bandwidths: Sequence[float] = BANDWIDTH_POINTS,
    jobs: Optional[int] = 1,
) -> Tuple[Fig16aPanel, ...]:
    cfg = default_config(cfg)
    w = resnet_workload()
    prewarm_grid([w], configs, [cfg], jobs=jobs)
    panels = []
    for bw in bandwidths:
        c = cfg.with_bandwidth(bw)
        results = {
            name: run_workload_config(w, name, c)
            for name in configs
        }
        panels.append(Fig16aPanel(bw, results))
    return tuple(panels)


def report(
    cfg: Optional[AcceleratorConfig] = None,
    configs: Sequence[str] = CONFIGS,
    jobs: Optional[int] = 1,
) -> str:
    cfg = default_config(cfg)
    panels = run(cfg, configs=configs, jobs=jobs)
    perf_rows = []
    for p in panels:
        perf_rows.append(
            [bandwidth_label(p.bandwidth)]
            + [p.results[c].throughput_gmacs for c in configs]
        )
    perf = render_table(
        ["BW"] + [f"{c} GMAC/s" for c in configs],
        perf_rows,
        title="Fig. 16(a) performance (higher is better)",
    )
    base = panels[0].results["Flexagon"].dram_bytes
    energy_rows = [[
        "relative off-chip energy",
        *[p_res.dram_bytes / base for p_res in
          (panels[0].results[c] for c in configs)],
    ]]
    energy = render_table(
        ["metric"] + list(configs),
        energy_rows,
        title="Fig. 16(a) energy relative to Flexagon (lower is better)",
        precision=3,
    )
    set_vs_cello = (
        panels[0].results["SET"].dram_bytes
        / panels[0].results["CELLO"].dram_bytes
    )
    return (
        perf + "\n\n" + energy
        + f"\nSET/CELLO traffic ratio: {set_vs_cello:.3f} (paper: SET == CELLO on ResNet)"
    )


def main() -> None:  # pragma: no cover
    print(report())


if __name__ == "__main__":  # pragma: no cover
    main()
