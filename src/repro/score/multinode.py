"""Multi-node scalable dataflow (Sec. V-B "Scalable Dataflow", Fig. 8).

SCORE parallelises the *dominant* rank across nodes so pipelining stays
inside a node and only small tensors cross the NoC: each node owns an
``M/nodes`` slab of every skewed tensor and the N×N' Greek tensors are
broadcast/reduced.  This module compares that split's NoC traffic against
the naive operator-split (top of Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.noc import NocConfig, op_split_traffic_words, rank_split_traffic_words


@dataclass(frozen=True)
class NocTrafficComparison:
    """Fig. 8's two strategies for one pipelined pair of operations."""

    m: int
    n: int
    n_prime: int
    noc: NocConfig
    op_split_words: int
    rank_split_words: int

    @property
    def advantage(self) -> float:
        return self.op_split_words / max(1, self.rank_split_words)

    def describe(self) -> str:
        return (
            f"M={self.m}, N={self.n}: op-split moves {self.op_split_words} "
            f"words, rank-split moves {self.rank_split_words} words "
            f"({self.advantage:.0f}x less)"
        )


def compare_noc_traffic(m: int, n: int, n_prime: int,
                        noc: NocConfig = NocConfig()) -> NocTrafficComparison:
    """Traffic of shipping the skewed intermediate vs broadcasting/reducing
    the small tensor (the paper's ops 4↔5 example)."""
    return NocTrafficComparison(
        m=m, n=n, n_prime=n_prime, noc=noc,
        op_split_words=op_split_traffic_words(m, n),
        rank_split_words=rank_split_traffic_words(n, n_prime, noc),
    )
