"""Pipeline-aware cluster timing (the Fig. 8 space-time schedule).

The headline results use the roofline bound (time = max(compute, DRAM)),
which the paper justifies by memory-boundedness.  This module provides the
finer model for compute-bound regimes: SCORE's binding partitions the
program into *clusters* — maximal chains of realized pipelines plus the
sequential ops between them.  Within a cluster, stages run concurrently on
partitions of the PE array and the cluster's latency is governed by its
slowest stage (rate-limiting step) plus the pipeline fill/drain:

    t_cluster = (n_tiles + depth − 1) × t_stage_max

Sequential ops serialise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..hw.config import AcceleratorConfig
from ..score.schedule_ir import Schedule


@dataclass(frozen=True)
class Cluster:
    """A chain of ops bound to concurrent pipeline stages."""

    ops: Tuple[str, ...]

    @property
    def depth(self) -> int:
        return len(self.ops)


def form_clusters(schedule: Schedule) -> List[Cluster]:
    """Partition program order into pipeline clusters.

    Consecutive ops joined by a realized pipeline edge share a cluster;
    everything else forms singleton clusters.
    """
    dag = schedule.dag
    names = list(dag.op_names)
    clusters: List[Cluster] = []
    current: List[str] = []
    for i, name in enumerate(names):
        if not current:
            current = [name]
            continue
        prev = current[-1]
        tensor = dag.op(prev).output.name
        if (prev, name, tensor) in schedule.pipelines:
            current.append(name)
        else:
            clusters.append(Cluster(tuple(current)))
            current = [name]
    if current:
        clusters.append(Cluster(tuple(current)))
    return clusters


def stage_seconds(op_name: str, schedule: Schedule, cfg: AcceleratorConfig,
                  pe_share: float) -> float:
    """Datapath time of one op on a ``pe_share`` fraction of the PE array."""
    macs = schedule.dag.op(op_name).macs
    return macs / (cfg.peak_macs_per_s * pe_share)


def cluster_seconds(cluster: Cluster, schedule: Schedule,
                    cfg: AcceleratorConfig) -> float:
    """Latency of one cluster under stage-concurrent execution.

    Stages split the PE array proportionally to their MAC counts (the
    work-balanced binding of Fig. 8's bottom schedule), so every stage
    would ideally take the same time; the fill/drain term charges the
    pipeline depth against the tile count.
    """
    if cluster.depth == 1:
        return stage_seconds(cluster.ops[0], schedule, cfg, pe_share=1.0)
    total_macs = sum(schedule.dag.op(o).macs for o in cluster.ops)
    if total_macs == 0:
        return 0.0
    shares = {
        o: max(schedule.dag.op(o).macs / total_macs, 1e-9) for o in cluster.ops
    }
    t_stage = max(
        stage_seconds(o, schedule, cfg, pe_share=shares[o]) for o in cluster.ops
    )
    n_tiles = max(
        schedule.op_schedule(o).n_tiles for o in cluster.ops
    )
    # t_stage already covers all tiles of the slowest stage; fill/drain adds
    # (depth - 1) single-tile steps.
    per_tile = t_stage / n_tiles
    return t_stage + (cluster.depth - 1) * per_tile


def describe_clusters(schedule: Schedule, cfg: AcceleratorConfig) -> str:
    """Human-readable space-time binding (the Fig. 8 bottom row)."""
    lines = ["Pipeline clusters (space-time binding):"]
    for c in form_clusters(schedule):
        t = cluster_seconds(c, schedule, cfg) * 1e6
        arrow = " -> ".join(c.ops)
        lines.append(f"  [{t:9.3f} us] {arrow}")
    return "\n".join(lines)
