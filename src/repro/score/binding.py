"""Operand→buffer binding: realizing pipelines/holds and steering the rest
to CHORD (Sec. V-C "SCORE-CHORD Interface", Fig. 5 third box).

Classification says which edges *may* pipeline; binding checks the
schedule- and capacity-dependent conditions and produces per-tensor routes:

* small tensors (fit the register file) live in the RF;
* one adjacent pipelineable consumer per tensor can read from the pipeline
  buffer (double-buffered tiles) when the co-dependence conditions hold;
* delayed-hold consumers read held tiles, provided every hop of their
  longest path is itself a realized pipeline and the hold window fits;
* everything else — sequential and delayed-writeback consumers, plus any
  tensor that must survive beyond the pipeline — goes through CHORD.

A tensor whose consumers are all satisfied on-chip and which is not a
program output is never written back at all.

Each pass is split in two.  The *candidates* (:func:`pipeline_candidates`,
:func:`hold_candidates`, :func:`layout_facts`) read the DAG alone and are
part of SCORE's per-DAG plan; the *realize/place* half reads only the
tile sizes, ``pipeline_buffer_bytes`` and ``rf_bytes``.  Placement reads
each tensor's size, producer, consumers and output flag from the plan's
:class:`~repro.chord.hints.ReuseHints`.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..chord.hints import ReuseHints
from ..core.classify import ClassifiedDag, DependencyType
from ..core.dag import TensorDag
from ..hw.config import AcceleratorConfig
from .loop_order import pipeline_conditions_met, schedule_adjacent
from .schedule_ir import (
    LoopOrder,
    RealizedHold,
    RealizedPipeline,
    Route,
    TensorPlacement,
)
from .swizzle import LayoutChoice

EdgeKey = Tuple[str, str, str]


class HoldCandidate(NamedTuple):
    """A delayed-hold edge, the hops of its longest path, and its depth."""

    key: EdgeKey
    hops: Tuple[Tuple[str, str, Optional[str]], ...]
    depth: int          # intervening pipeline stages


class LayoutFacts(NamedTuple):
    """The layout half of placing one tensor: its major rank and the
    consumers that read it swizzled."""

    major_rank: Optional[str]
    swizzled_consumers: Tuple[str, ...]


def pipeline_candidates(
    classified: ClassifiedDag,
    orders: Dict[str, LoopOrder],
    layouts: Dict[str, LayoutChoice],
) -> Tuple[EdgeKey, ...]:
    """Pass 1's candidates: adjacent pipelineable edges that meet the
    co-dependence conditions (2–4) under ``orders`` and ``layouts``."""
    dag = classified.dag
    out: List[EdgeKey] = []
    for edge in dag.edges():
        if classified.dep_of(edge) is not DependencyType.PIPELINEABLE:
            continue
        assert edge.src is not None
        if not schedule_adjacent(dag.op_index(edge.src), dag.op_index(edge.dst)):
            continue
        swizzled = edge.dst in layouts[edge.tensor].swizzled_consumers
        if pipeline_conditions_met(edge, classified, orders[edge.src],
                                   orders[edge.dst], swizzled):
            out.append((edge.src, edge.dst, edge.tensor))
    return tuple(out)


def realize_pipelines(
    candidates: Tuple[EdgeKey, ...],
    tiles: Dict[str, int],
    cfg: AcceleratorConfig,
) -> Dict[EdgeKey, RealizedPipeline]:
    """Pass 1: the candidates whose producer's tile (``tiles``, bytes per
    op) double-buffers in the pipeline buffer."""
    realized: Dict[EdgeKey, RealizedPipeline] = {}
    for key in candidates:
        src, dst, tensor = key
        tile = tiles[src]
        if 2 * tile > cfg.pipeline_buffer_bytes:
            continue  # cannot double-buffer a stage of this size
        realized[key] = RealizedPipeline(
            src=src, dst=dst, tensor=tensor, tile_bytes=tile)
    return realized


def hold_candidates(classified: ClassifiedDag) -> Tuple[HoldCandidate, ...]:
    """Pass 2's candidates: every delayed-hold edge with the hops of its
    longest src→dst path (a hop with no direct edge has tensor None)."""
    dag = classified.dag
    out: List[HoldCandidate] = []
    for edge in dag.edges():
        if classified.dep_of(edge) is not DependencyType.DELAYED_HOLD:
            continue
        assert edge.src is not None
        path = dag.longest_path(edge.src, edge.dst)
        assert path is not None and len(path) > 2
        hops = tuple((a, b, dag.path_edge_tensor(a, b))
                     for a, b in zip(path, path[1:]))
        out.append(HoldCandidate((edge.src, edge.dst, edge.tensor), hops,
                                 len(path) - 2))
    return tuple(out)


def realize_holds(
    candidates: Tuple[HoldCandidate, ...],
    tiles: Dict[str, int],
    pipelines: Dict[EdgeKey, RealizedPipeline],
    cfg: AcceleratorConfig,
) -> Dict[EdgeKey, RealizedHold]:
    """Pass 2: delayed-hold edges whose carrier chain actually pipelines.

    The tile can only ride the pipeline buffer to its delayed consumer if
    every hop of the longest src→dst path is a realized pipeline; the hold
    window (depth+2 tiles) must fit alongside the stages.
    """
    realized: Dict[EdgeKey, RealizedHold] = {}
    for cand in candidates:
        if not all(hop in pipelines for hop in cand.hops):
            continue
        src, dst, tensor = cand.key
        window = (cand.depth + 2) * tiles[src]
        if window > cfg.pipeline_buffer_bytes:
            continue
        realized[cand.key] = RealizedHold(
            src=src, dst=dst, tensor=tensor,
            depth=cand.depth, window_bytes=window,
        )
    return realized


def layout_facts(dag: TensorDag,
                 layouts: Dict[str, LayoutChoice]) -> Dict[str, LayoutFacts]:
    """Pass 3's per-tensor layout facts."""
    out: Dict[str, LayoutFacts] = {}
    for spec in dag.tensors:
        layout = layouts[spec.name]
        major = layout.major_dim
        out[spec.name] = LayoutFacts(
            major_rank=(spec.ranks[major].name
                        if major is not None and major < len(spec.ranks)
                        else None),
            swizzled_consumers=layout.swizzled_consumers,
        )
    return out


def place_tensors(
    hints: ReuseHints,
    op_names: Sequence[str],
    layouts: Dict[str, LayoutFacts],
    pipelines: Dict[EdgeKey, RealizedPipeline],
    holds: Dict[EdgeKey, RealizedHold],
    cfg: AcceleratorConfig,
) -> Dict[str, TensorPlacement]:
    """Pass 3: per-tensor write route and per-consumer read routes.

    ``hints`` gives each tensor's size, output flag and its producer's
    and consumers' program indices, which ``op_names`` names."""
    placements: Dict[str, TensorPlacement] = {}
    for h in hints:
        name = h.name
        producer = (None if h.producer_index is None
                    else op_names[h.producer_index])
        small = h.total_bytes <= cfg.rf_bytes
        routes: Dict[str, Route] = {}
        for i in h.consumer_indices:
            c = op_names[i]
            if small:
                routes[c] = Route.REGISTER_FILE
            elif producer is not None and (producer, c, name) in pipelines:
                routes[c] = Route.PIPELINE
            elif producer is not None and (producer, c, name) in holds:
                routes[c] = Route.HOLD
            else:
                routes[c] = Route.CHORD
        if producer is None:
            write_route = Route.DRAM  # program inputs are born in DRAM
        elif small:
            write_route = Route.REGISTER_FILE
        elif routes and all(
            r in (Route.PIPELINE, Route.HOLD) for r in routes.values()
        ) and not h.is_program_output:
            write_route = Route.PIPELINE  # fully consumed on-chip: no writeback
        else:
            write_route = Route.CHORD
        layout = layouts[name]
        placements[name] = TensorPlacement(
            tensor=name,
            write_route=write_route,
            consumer_routes=routes,
            major_rank=layout.major_rank,
            swizzled_consumers=layout.swizzled_consumers,
        )
    return placements
