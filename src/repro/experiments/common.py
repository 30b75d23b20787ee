"""Shared helpers for the per-figure experiment modules."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..hw.config import GB, AcceleratorConfig
from ..workloads.registry import Workload


def bandwidth_label(bytes_per_s: float) -> str:
    return f"{bytes_per_s / GB:.0f}GB/s"


def prewarm_grid(
    workloads: Iterable[Workload],
    configs: Sequence[str],
    cfgs: Iterable[AcceleratorConfig],
    jobs: Optional[int] = 1,
) -> int:
    """Pre-simulate workloads × configs × cfgs across processes.

    No-op for ``jobs=1`` (the serial path simulates lazily); ``jobs=None``
    means one worker per core.  Outputs are unaffected either way — the
    experiment loops below replay from the warm cache — so every ``run()``
    stays byte-identical to its serial result.
    """
    if jobs is not None and jobs <= 1:
        return 0
    from ..orchestrator.parallel import prewarm
    from ..orchestrator.spec import SweepPoint

    return prewarm(
        [
            SweepPoint(w.name, c, cfg)
            for w in workloads
            for c in configs
            for cfg in cfgs
        ],
        jobs=jobs,
    )

