"""Tensor dependency DAG.

The DAG's nodes are :class:`~repro.core.einsum.EinsumOp` operations and its
edges carry tensors from producer to consumer (Fig. 1).  This module provides
the graph machinery Algorithm 2 needs:

* *transitive edges* — an edge is transitive when it is **not** on the longest
  path between its endpoints (footnote 5), i.e. a longer route exists;
* *longest paths* — the node sequence Algorithm 2 walks to decide
  delayed-hold vs delayed-writeback;
* per-tensor consumer lists, liveness, and reuse distance/frequency metadata
  consumed by CHORD's RIFF policy.

Program order is the topological order in which operations were appended;
builders construct DAGs in execution order so reuse distances measured in
"number of operations" are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Set, Tuple,
    TypeVar,
)

from .einsum import EinsumOp
from .tensor import TensorSpec

T = TypeVar("T")


@dataclass(frozen=True)
class Edge:
    """A producer→consumer tensor flow.

    ``src`` produced ``tensor``; ``dst`` consumes it.  ``src`` is ``None``
    for program inputs (tensors with no producer inside the DAG, e.g. the
    sparse matrix A) — those edges are not classified by Algorithm 2 but do
    feed CHORD's reuse metadata.
    """

    src: Optional[str]
    dst: str
    tensor: str

    def key(self) -> Tuple[Optional[str], str, str]:
        return (self.src, self.dst, self.tensor)


class FrozenDagError(RuntimeError):
    """``add_op`` on a frozen (shared) DAG."""


class TensorDag:
    """A DAG of einsum operations linked by tensor flows."""

    def __init__(self) -> None:
        self._ops: Dict[str, EinsumOp] = {}
        self._order: List[str] = []
        self._producer: Dict[str, str] = {}
        self._tensors: Dict[str, TensorSpec] = {}
        self._consumers: Dict[str, List[str]] = {}
        self._longest_cache: Dict[Tuple[str, str], Optional[Tuple[str, ...]]] = {}
        self._derived: Dict[Hashable, object] = {}
        self._frozen = False

    # -- construction -------------------------------------------------------

    def add_op(self, op: EinsumOp) -> EinsumOp:
        """Append ``op`` in program order, linking its tensors.

        Inputs must either be program inputs (never produced) or have been
        produced by an earlier op; this enforces topological construction.
        The operation is atomic: a validation failure leaves the DAG
        untouched (no phantom consumer entries).  A frozen DAG raises
        :class:`FrozenDagError`.
        """
        if self._frozen:
            raise FrozenDagError(
                f"cannot add op {op.name!r}: this DAG is frozen because it is "
                "shared (registry.workload_dag memoises one DAG per workload "
                "name); build a fresh one with Workload.build() and extend "
                "that instead"
            )
        if op.name in self._ops:
            raise ValueError(f"duplicate op name {op.name!r}")
        # Validate everything before mutating any structure.
        for t in op.inputs:
            self._check_tensor(t)
        out = op.output
        if out.name in self._producer:
            raise ValueError(
                f"tensor {out.name!r} produced twice ({self._producer[out.name]!r} "
                f"and {op.name!r}); use versioned names (e.g. 'X@1')"
            )
        self._check_tensor(out)
        # Commit.
        for t in op.inputs:
            self._tensors.setdefault(t.name, t)
            self._consumers.setdefault(t.name, []).append(op.name)
        self._tensors.setdefault(out.name, out)
        self._producer[out.name] = op.name
        self._consumers.setdefault(out.name, [])
        self._ops[op.name] = op
        self._order.append(op.name)
        self._longest_cache.clear()
        self._derived.clear()
        return op

    def freeze(self) -> "TensorDag":
        """Make the DAG immutable (``add_op`` raises); returns ``self``."""
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    def derived(self, key: Hashable, compute: Callable[[], T]) -> T:
        """Memoise ``compute()``, an analysis of this DAG alone, under ``key``.

        SCORE's capacity-independent stages and the cache trace are cached
        here so every later point of a shared DAG reuses them; ``add_op``
        drops the lot.  No lock: two threads that miss together both
        compute, and ``setdefault`` hands both the first value stored.
        The values are pure functions of the DAG, so they are equal
        either way.  Callers must treat the value as read-only.
        """
        try:
            return self._derived[key]  # type: ignore[return-value]
        except KeyError:
            return self._derived.setdefault(key, compute())  # type: ignore[return-value]

    def _check_tensor(self, t: TensorSpec) -> None:
        existing = self._tensors.get(t.name)
        if existing is None:
            return
        if existing.shape != t.shape or existing.word_bytes != t.word_bytes:
            raise ValueError(
                f"tensor {t.name!r} redefined with conflicting spec: "
                f"{existing.shape} vs {t.shape}"
            )

    # -- lookups --------------------------------------------------------------

    def op(self, name: str) -> EinsumOp:
        try:
            return self._ops[name]
        except KeyError:
            raise KeyError(f"unknown op {name!r}") from None

    def tensor(self, name: str) -> TensorSpec:
        try:
            return self._tensors[name]
        except KeyError:
            raise KeyError(f"unknown tensor {name!r}") from None

    @property
    def ops(self) -> Tuple[EinsumOp, ...]:
        return tuple(self._ops[n] for n in self._order)

    @property
    def total_macs(self) -> int:
        """MACs of the whole program, summed once and kept (``derived``)."""
        return self.derived("total-macs",
                            lambda: sum(op.macs for op in self.ops))

    @property
    def op_names(self) -> Tuple[str, ...]:
        return tuple(self._order)

    @property
    def tensors(self) -> Tuple[TensorSpec, ...]:
        return tuple(self._tensors.values())

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, op_name: str) -> bool:
        return op_name in self._ops

    def op_index(self, name: str) -> int:
        """Program-order position of op ``name``."""
        try:
            return self._order.index(name)
        except ValueError:
            raise KeyError(f"unknown op {name!r}") from None

    def producer_of(self, tensor: str) -> Optional[str]:
        """Name of the op producing ``tensor``; None for program inputs."""
        self.tensor(tensor)
        return self._producer.get(tensor)

    def consumers_of(self, tensor: str) -> Tuple[str, ...]:
        """Ops consuming ``tensor``, in program order."""
        self.tensor(tensor)
        return tuple(self._consumers.get(tensor, ()))

    def program_inputs(self) -> Tuple[str, ...]:
        """Tensors consumed but never produced inside the DAG."""
        return tuple(t for t in self._tensors if t not in self._producer)

    def program_outputs(self) -> Tuple[str, ...]:
        """Tensors produced but never consumed inside the DAG."""
        return tuple(
            t for t in self._tensors
            if t in self._producer and not self._consumers.get(t)
        )

    # -- edges -----------------------------------------------------------------

    def edges(self, include_inputs: bool = False) -> Tuple[Edge, ...]:
        """All producer→consumer edges, in consumer program order, built
        once per DAG (``derived``).

        ``include_inputs`` adds edges whose source is a program input
        (``src=None``).
        """
        return self.derived(("edges", include_inputs), lambda: tuple(
            Edge(src=self._producer.get(t.name), dst=dst_name, tensor=t.name)
            for dst_name in self._order for t in self._ops[dst_name].inputs
            if include_inputs or t.name in self._producer))

    def out_edges(self, op_name: str) -> Tuple[Edge, ...]:
        """Edges carrying ``op_name``'s output tensor to its consumers."""
        op = self.op(op_name)
        return tuple(
            Edge(src=op_name, dst=c, tensor=op.output.name)
            for c in self.consumers_of(op.output.name)
        )

    # -- graph structure --------------------------------------------------------

    def successors(self, op_name: str) -> Tuple[str, ...]:
        """Ops consuming any tensor produced by ``op_name`` (dedup, ordered)."""
        op = self.op(op_name)
        seen: List[str] = []
        for c in self.consumers_of(op.output.name):
            if c not in seen:
                seen.append(c)
        return tuple(seen)

    def predecessors(self, op_name: str) -> Tuple[str, ...]:
        op = self.op(op_name)
        seen: List[str] = []
        for t in op.inputs:
            p = self._producer.get(t.name)
            if p is not None and p not in seen:
                seen.append(p)
        return tuple(seen)

    def longest_path(self, src: str, dst: str) -> Optional[Tuple[str, ...]]:
        """Longest node sequence from ``src`` to ``dst`` (inclusive).

        Returns ``None`` when ``dst`` is unreachable from ``src``.  Distance
        is counted in edges; ties are broken toward the path discovered first
        in program order (deterministic).
        """
        key = (src, dst)
        if key in self._longest_cache:
            return self._longest_cache[key]
        self.op(src)
        self.op(dst)
        # DP over program order restricted to positions in (src, dst].
        start = self.op_index(src)
        end = self.op_index(dst)
        best_len: Dict[str, int] = {src: 0}
        best_prev: Dict[str, Optional[str]] = {src: None}
        if end >= start:
            for name in self._order[start: end + 1]:
                if name == src:
                    continue
                for p in self.predecessors(name):
                    if p in best_len:
                        cand = best_len[p] + 1
                        if cand > best_len.get(name, -1):
                            best_len[name] = cand
                            best_prev[name] = p
        if dst not in best_len:
            self._longest_cache[key] = None
            return None
        path: List[str] = [dst]
        while best_prev[path[-1]] is not None:
            path.append(best_prev[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        result = tuple(path)
        self._longest_cache[key] = result
        return result

    def is_transitive_edge(self, edge: Edge) -> bool:
        """True when ``edge`` is not on the longest src→dst path (fn. 5).

        Equivalently: a path of length > 1 exists from src to dst.
        """
        if edge.src is None:
            raise ValueError("input edges have no transitivity")
        path = self.longest_path(edge.src, edge.dst)
        assert path is not None, "edge endpoints must be connected"
        return len(path) > 2

    def path_edge_tensor(self, src: str, dst: str) -> Optional[str]:
        """Tensor flowing on the direct edge src→dst (None if no edge)."""
        dst_op = self.op(dst)
        for t in dst_op.inputs:
            if self._producer.get(t.name) == src:
                return t.name
        return None

    # -- reuse metadata (feeds CHORD) ---------------------------------------------

    def reuse_frequency(self, tensor: str) -> int:
        """Total number of consuming operations (RIFF's ``Freq``)."""
        return len(self.consumers_of(tensor))

    def reuse_distances(self, tensor: str) -> Tuple[int, ...]:
        """Op-count gaps between birth and each use (RIFF's ``Dist``).

        Distance of a use = (consumer index) − (producer index); program
        inputs measure from op 0.
        """
        p = self.producer_of(tensor)
        born = self.op_index(p) if p is not None else 0
        return tuple(self.op_index(c) - born for c in self.consumers_of(tensor))

    def last_use_index(self, tensor: str) -> Optional[int]:
        """Program index of the final consumer (None when never consumed)."""
        cs = self.consumers_of(tensor)
        if not cs:
            return None
        return max(self.op_index(c) for c in cs)

    def next_use_after(self, tensor: str, op_index: int) -> Optional[int]:
        """Program index of the first use strictly after ``op_index``."""
        nxt = [self.op_index(c) for c in self.consumers_of(tensor) if self.op_index(c) > op_index]
        return min(nxt) if nxt else None

    # -- export -----------------------------------------------------------------

    def to_networkx(self):
        """Export as a ``networkx.MultiDiGraph`` (for analysis/visualisation)."""
        import networkx as nx

        g = nx.MultiDiGraph()
        for name in self._order:
            g.add_node(name, op=self._ops[name])
        for e in self.edges():
            g.add_edge(e.src, e.dst, tensor=e.tensor)
        return g

    def describe(self) -> str:
        lines = [f"TensorDag: {len(self)} ops, {len(self._tensors)} tensors"]
        for op in self.ops:
            lines.append("  " + op.describe())
        return "\n".join(lines)
