"""Fig. 14: off-chip energy, relative to BestIntra+Exp, geomeaned per
workload family.

Off-chip energy is proportional to DRAM traffic, so the figure reduces to
traffic ratios; the paper reports CELLO cutting 64-83 % (4x geomean).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..analysis.report import render_table
from ..baselines.configs import MAIN_CONFIGS
from ..baselines.runner import run_workload_config
from ..hw.config import AcceleratorConfig, default_config
from ..sim.results import geomean
from ..workloads.registry import (
    all_bicgstab_workloads,
    all_cg_workloads,
    all_gnn_workloads,
)
from .common import prewarm_grid


@dataclass(frozen=True)
class Fig14Row:
    """Relative off-chip energy of one family (geomean across datasets)."""

    family: str
    relative: Dict[str, float]   # config -> energy / Flexagon energy


def _family_workloads():
    return {
        "PDE solvers (CG)": all_cg_workloads(),
        "PDE solvers (BiCGStab)": all_bicgstab_workloads(),
        "GNN": all_gnn_workloads(),
    }


def run(
    cfg: Optional[AcceleratorConfig] = None,
    configs: Sequence[str] = MAIN_CONFIGS,
    jobs: Optional[int] = 1,
) -> Tuple[Fig14Row, ...]:
    cfg = default_config(cfg)
    prewarm_grid(
        [w for workloads in _family_workloads().values() for w in workloads],
        configs, [cfg], jobs=jobs,
    )
    rows = []
    for family, workloads in _family_workloads().items():
        ratios: Dict[str, list] = {c: [] for c in configs}
        for w in workloads:
            res = {
                c: run_workload_config(w, c, cfg)
                for c in configs
            }
            base = res["Flexagon"].dram_bytes
            for c in configs:
                ratios[c].append(res[c].dram_bytes / base)
        rows.append(Fig14Row(
            family=family,
            relative={c: geomean(v) for c, v in ratios.items()},
        ))
    return tuple(rows)


def cello_reduction_range(rows: Sequence[Fig14Row]) -> Tuple[float, float]:
    """(min, max) % reduction of CELLO vs Flexagon across families."""
    reductions = [100.0 * (1.0 - r.relative["CELLO"]) for r in rows]
    return min(reductions), max(reductions)


def report(
    cfg: Optional[AcceleratorConfig] = None,
    configs: Sequence[str] = MAIN_CONFIGS,
    jobs: Optional[int] = 1,
) -> str:
    cfg = default_config(cfg)
    rows = run(cfg, configs=configs, jobs=jobs)
    table_rows = [
        [r.family] + [r.relative[c] for c in configs] for r in rows
    ]
    table = render_table(
        ["workload family"] + list(configs),
        table_rows,
        title="Fig. 14: off-chip energy relative to Flexagon (lower is better)",
        precision=3,
    )
    lo, hi = cello_reduction_range(rows)
    return table + (
        f"\nCELLO off-chip energy reduction: {lo:.0f}% .. {hi:.0f}% "
        "(paper: 64% to 83%)"
    )


def main() -> None:  # pragma: no cover
    print(report())


if __name__ == "__main__":  # pragma: no cover
    main()
