"""Multi-node NoC traffic model (Sec. V-B "Scalable Dataflow", Fig. 8).

When execution spans several nodes, SCORE splits the *dominant* rank across
nodes and pipelines sub-tensors within a node, so only the small (N×N') side
tensors cross the NoC.  The alternative — splitting the DAG op-by-op across
nodes — ships the skewed M×N intermediates around.

For the running example (pipelining between CG ops 4 and 5):

* op-split strategy moves ``SIZE_R = M*N`` words through the NoC;
* dominant-rank split moves ``N*N'*(hops_broadcast + hops_reduce)`` words.

Since M >> N·hops, the dominant-rank split wins by orders of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class NocConfig:
    """A 2-D mesh of compute nodes."""

    n_nodes: int = 16

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError("n_nodes must be positive")

    @property
    def mesh_side(self) -> int:
        return max(1, int(math.ceil(math.sqrt(self.n_nodes))))

    @property
    def broadcast_hops(self) -> int:
        """Hops for a row+column tree broadcast on the mesh."""
        return max(1, 2 * (self.mesh_side - 1))

    @property
    def reduce_hops(self) -> int:
        """Hops for the mirror-image reduction tree."""
        return self.broadcast_hops


def op_split_traffic_words(m: int, n: int) -> int:
    """Words moved when the skewed M×N intermediate crosses the NoC
    (Fig. 8 top: each operator owns a region of PEs and ships its whole
    output to the next operator's region)."""
    return m * n


def rank_split_traffic_words(n: int, n_prime: int, noc: NocConfig) -> int:
    """Words×hops moved when the dominant rank is split across nodes
    (Fig. 8 bottom: only the small N×N' tensor is broadcast and the partial
    N×N' results reduced)."""
    return n * n_prime * (noc.broadcast_hops + noc.reduce_hops)

