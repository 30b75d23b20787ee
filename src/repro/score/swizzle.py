"""Swizzle (layout transformation) minimization — Challenge 4 / Sec. V-B.

A tensor with several consumers should be stored so that as many consumers
as possible traverse it in storage order.  Because rank *names* are per-op
bindings (CG's ``S`` is ``(m,n)`` at its producer but ``(k,n)`` at line 2a),
the vote is over storage **dimension positions**: each consumer desires the
tensor major in the dimension its loop nest reaches first (outermost), and
SCORE picks the majority, ties broken toward the producer's natural write
order (a free layout).  Losing consumers are *swizzled*: they must either
transform the tensor (an extra round trip) or forgo pipelining.

For the paper's workloads the vote is unanimous (everything wants the
skewed rank major), so CELLO runs swizzle-free; the ablation bench disables
minimization to show the cost of a wrong layout.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.dag import TensorDag
from ..core.tensor import TensorSpec
from .schedule_ir import LoopOrder


@dataclass(frozen=True)
class LayoutChoice:
    """Chosen storage-major dimension for one tensor + consumers that
    disagree (and therefore need a layout transform)."""

    tensor: str
    major_dim: Optional[int]
    swizzled_consumers: Tuple[str, ...]

    @property
    def n_swizzles(self) -> int:
        return len(self.swizzled_consumers)


def _first_order_dim(bound: TensorSpec, order: LoopOrder) -> Optional[int]:
    """Dimension position of the first loop rank (outermost-first) that is a
    rank of ``bound``; None when the op never indexes the tensor by a loop
    rank (degenerate)."""
    for r in order.ranks:
        for dim, rank in enumerate(bound.ranks):
            if rank.name == r:
                return dim
    return None


def desired_major_dim(
    dag: TensorDag, consumer: str, tensor: str, order: LoopOrder
) -> Optional[int]:
    """The storage dimension ``consumer`` wants major (slowest-varying):
    the dimension of its binding reached outermost in its loop nest."""
    bound = dag.op(consumer).input_named(tensor)
    return _first_order_dim(bound, order)


def producer_major_dim(
    dag: TensorDag, tensor: str, orders: Dict[str, LoopOrder]
) -> int:
    """The dimension the producer writes major for free (its outermost loop
    rank on the output); dimension 0 for program inputs (as stored)."""
    producer = dag.producer_of(tensor)
    if producer is None:
        return 0
    spec = dag.op(producer).output
    dim = _first_order_dim(spec, orders[producer])
    return 0 if dim is None else dim


def choose_layout(
    dag: TensorDag,
    tensor: str,
    orders: Dict[str, LoopOrder],
    minimize: bool = True,
) -> LayoutChoice:
    """Pick the storage-major dimension for ``tensor``.

    With ``minimize=True`` (SCORE), the majority desire wins, ties broken
    toward the producer's free write order.  With ``minimize=False``
    (ablation), the producer's order is kept regardless of consumers.
    """
    consumers = dag.consumers_of(tensor)
    prod_major = producer_major_dim(dag, tensor, orders)
    desires: Dict[str, Optional[int]] = {
        c: desired_major_dim(dag, c, tensor, orders[c]) for c in consumers
    }
    if not minimize or not consumers:
        major = prod_major
    else:
        votes = Counter(d for d in desires.values() if d is not None)
        if votes:
            best = max(votes.items(), key=lambda kv: (kv[1], kv[0] == prod_major))
            major = best[0]
        else:
            major = prod_major
    swizzled = tuple(
        c for c, d in desires.items() if d is not None and d != major
    )
    return LayoutChoice(tensor=tensor, major_dim=major, swizzled_consumers=swizzled)


def choose_all_layouts(
    dag: TensorDag,
    orders: Dict[str, LoopOrder],
    minimize: bool = True,
) -> Dict[str, LayoutChoice]:
    """Layout choice for every tensor of the program."""
    return {
        t.name: choose_layout(dag, t.name, orders, minimize=minimize)
        for t in dag.tensors
    }

