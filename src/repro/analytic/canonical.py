"""Canonicalisation: (DAG + SCORE schedule) → normalised traffic program.

The schedule engine walks the program and routes every (op, operand)
event through RF, the pipeline buffer, CHORD, or DRAM.  This module
performs the *same walk once, symbolically*: capacity-independent events
collapse into per-tensor :class:`~repro.analytic.formulas.Term` sums,
pipelined producer→consumer chains are fused (their tensors never touch
DRAM and carry the ``fused`` class), and only the CHORD-routed events —
the single capacity-dependent part of the machine — survive as a compact
``(kind, tensor, op_index)`` stream for the capacity model.

Reuse classes come from Algorithm 2 (:mod:`repro.core.classify`) via the
schedule's own :class:`~repro.core.classify.ClassifiedDag`, so the
canonical program records *why* each tensor's traffic behaves the way it
does: ``delayed-writeback`` tensors are the ones whose traffic moves
with buffer capacity, ``fused``/``streaming`` tensors are provably
capacity-independent, and program ``input`` tensors reload from DRAM on
their first CHORD consumption no matter the capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..core.classify import DependencyType
from ..score.schedule_ir import Route, Schedule
from .formulas import BOTH, READ, WRITE, Term, TensorFormula

#: Chord-event kinds (compact ints: the capacity model replays millions
#: of these across a tuning run).
EV_WRITE = 0
EV_READ = 1
EV_RETIRE = 2

#: One CHORD event: (kind, tensor index, op index).
ChordEvent = Tuple[int, int, int]


@dataclass(frozen=True)
class TensorFacts:
    """Schedule-independent reuse metadata of one tensor (mirrors the
    SCORE→CHORD hints, indexed for the capacity model)."""

    name: str
    total_bytes: int
    producer_index: Optional[int]
    consumer_indices: Tuple[int, ...]
    is_program_output: bool
    traffic_class: str


@dataclass(frozen=True)
class CanonicalProgram:
    """The normalised traffic program one evaluation runs against.

    ``kind`` is ``"engine"`` (CELLO-class schedules executed against the
    buffer hierarchy) or ``"oracle"`` (explicit baselines whose traffic
    is a pure covered-set sum).  Byte counters (``rf_bytes`` etc.) feed
    the on-chip access/energy accounting and are capacity-independent.
    """

    kind: str
    tensors: Tuple[TensorFacts, ...]
    index_of: Mapping[str, int]
    formulas: Tuple[TensorFormula, ...]
    chord_events: Tuple[ChordEvent, ...]
    rf_bytes: int
    pipe_bytes: int
    chord_access_bytes: int
    operand_bytes: int    # oracle on-chip staging (0 for engine programs)
    total_macs: int

    def formula_of(self, tensor: str) -> TensorFormula:
        return self.formulas[self.index_of[tensor]]


#: Most-constrained-wins ordering when a tensor feeds consumers over
#: edges of different dependency types.
_CLASS_RANK = (
    DependencyType.DELAYED_WRITEBACK,
    DependencyType.DELAYED_HOLD,
    DependencyType.PIPELINEABLE,
    DependencyType.SEQUENTIAL,
)
_CLASS_NAME = {
    DependencyType.DELAYED_WRITEBACK: "delayed-writeback",
    DependencyType.DELAYED_HOLD: "delayed-hold",
    DependencyType.PIPELINEABLE: "pipelineable",
    DependencyType.SEQUENTIAL: "sequential",
}


def _traffic_class(schedule: Schedule, name: str, chord_routed: bool) -> str:
    """Resolve one tensor's reuse class from Algorithm 2 + its placement."""
    placement = schedule.placement(name)
    if placement.write_route is Route.PIPELINE:
        return "fused"          # all consumers fed on-chip: node fusion
    if not chord_routed:
        return "streaming"      # RF / drain / direct: capacity-independent
    if schedule.dag.producer_of(name) is None:
        return "input"          # cold reload, then capacity-managed
    deps = {
        schedule.classified.consumer_dep(name, c)
        for c in schedule.dag.consumers_of(name)
    }
    for dep in _CLASS_RANK:
        if dep in deps:
            return _CLASS_NAME[dep]
    return "sequential"


def _facts(schedule: Schedule) -> Tuple[Tuple[TensorFacts, ...], Dict[str, int]]:
    dag = schedule.dag
    chord_routed = set(schedule.chord_tensors())
    facts: List[TensorFacts] = []
    index: Dict[str, int] = {}
    for t in dag.tensors:
        h = schedule.hints.get(t.name)
        index[t.name] = len(facts)
        facts.append(TensorFacts(
            name=t.name,
            total_bytes=h.total_bytes,
            producer_index=h.producer_index,
            consumer_indices=h.consumer_indices,
            is_program_output=h.is_program_output,
            traffic_class=_traffic_class(schedule, t.name, t.name in chord_routed),
        ))
    return tuple(facts), index


def canonicalize(schedule: Schedule) -> CanonicalProgram:
    """Lower a SCORE schedule to its canonical traffic program.

    Performs the schedule engine's event walk once, symbolically — the
    resulting program reproduces the engine's DRAM traffic exactly when
    evaluated (closed form when the CHORD working set fits, via the
    capacity recurrence when it does not).
    """
    dag = schedule.dag
    facts, index = _facts(schedule)
    total_of = {f.name: f.total_bytes for f in facts}

    # Per-(tensor, kind) aggregated byte counts → terms.
    agg: Dict[Tuple[str, str], int] = {}

    def add(name: str, kind: str, nbytes: int) -> None:
        agg[(name, kind)] = agg.get((name, kind), 0) + nbytes

    events: List[ChordEvent] = []
    touched: Set[str] = set()
    cold_read_seen: Set[str] = set()
    chord_candidates = set(schedule.chord_tensors())
    rf_bytes = pipe_bytes = chord_access_bytes = 0

    for i, op in enumerate(dag.ops):
        for t in op.inputs:
            name = t.name
            placement = schedule.placement(name)
            route = placement.route_for(op.name)
            nbytes = total_of[name]
            if (op.name in placement.swizzled_consumers
                    and route is not Route.REGISTER_FILE):
                add(name, "swizzle", nbytes)
            if route is Route.REGISTER_FILE:
                if dag.producer_of(name) is None and name not in touched:
                    add(name, "cold-read", nbytes)
                rf_bytes += nbytes
            elif route in (Route.PIPELINE, Route.HOLD):
                pipe_bytes += nbytes
            elif route is Route.CHORD:
                events.append((EV_READ, index[name], i))
                chord_access_bytes += nbytes
                if dag.producer_of(name) is None and name not in cold_read_seen:
                    # First CHORD consumption of a cold tensor misses in
                    # full regardless of capacity.
                    add(name, "chord-cold-read", nbytes)
                    cold_read_seen.add(name)
            elif route is Route.DRAM:
                add(name, "direct-read", nbytes)
            touched.add(name)

        out_name = op.output.name
        wr = schedule.placement(out_name).write_route
        nbytes = total_of[out_name]
        if wr is Route.REGISTER_FILE:
            rf_bytes += nbytes
        elif wr is Route.PIPELINE:
            pipe_bytes += nbytes
        elif wr is Route.CHORD:
            events.append((EV_WRITE, index[out_name], i))
            chord_access_bytes += nbytes
        elif wr is Route.DRAM:
            add(out_name, "direct-write", nbytes)
        touched.add(out_name)

        # Explicit retirement points (evaluation skips them when the
        # retire knob is off).  Only CHORD-routable tensors can be
        # resident, so others would be no-ops.
        for t in op.inputs:
            h = schedule.hints.get(t.name)
            if h.last_use() == i and t.name in chord_candidates:
                events.append((EV_RETIRE, index[t.name], i))

    for name in dag.program_outputs():
        wr = schedule.placement(name).write_route
        if wr in (Route.REGISTER_FILE, Route.PIPELINE):
            add(name, "output-drain", total_of[name])
        elif wr is Route.CHORD:
            # Written dirty in full; drains once at retire/finalize.
            add(name, "chord-drain", total_of[name])

    formulas = _build_formulas(facts, agg)
    return CanonicalProgram(
        kind="engine",
        tensors=facts,
        index_of=index,
        formulas=formulas,
        chord_events=tuple(events),
        rf_bytes=rf_bytes,
        pipe_bytes=pipe_bytes,
        chord_access_bytes=chord_access_bytes,
        operand_bytes=0,
        total_macs=dag.total_macs,
    )


def canonicalize_oracle(dag, covered: Set[str]) -> CanonicalProgram:
    """Canonical program of an explicit oracle baseline.

    Covered tensors (every consumer fed by a realized pipeline/hold) are
    the fused nodes: they contribute no terms.  Everything else stages
    once per consuming op and drains once on production — closed form by
    construction, with no capacity dependence at all.
    """
    facts: List[TensorFacts] = []
    index: Dict[str, int] = {}
    outputs = set(dag.program_outputs())
    for t in dag.tensors:
        index[t.name] = len(facts)
        consumers = tuple(sorted(dag.op_index(c) for c in dag.consumers_of(t.name)))
        producer = dag.producer_of(t.name)
        facts.append(TensorFacts(
            name=t.name,
            total_bytes=t.bytes,
            producer_index=dag.op_index(producer) if producer else None,
            consumer_indices=consumers,
            is_program_output=t.name in outputs,
            traffic_class="fused" if t.name in covered else "streaming",
        ))

    agg: Dict[Tuple[str, str], int] = {}
    operand_bytes = 0
    for op in dag.ops:
        for t in op.inputs:
            operand_bytes += dag.tensor(t.name).bytes
            if t.name not in covered:
                agg[(t.name, "oracle-read")] = (
                    agg.get((t.name, "oracle-read"), 0) + dag.tensor(t.name).bytes
                )
        out = op.output.name
        operand_bytes += dag.tensor(out).bytes
        if out not in covered:
            agg[(out, "oracle-write")] = (
                agg.get((out, "oracle-write"), 0) + dag.tensor(out).bytes
            )

    formulas = _build_formulas(tuple(facts), agg)
    return CanonicalProgram(
        kind="oracle",
        tensors=tuple(facts),
        index_of=index,
        formulas=formulas,
        chord_events=(),
        rf_bytes=0,
        pipe_bytes=0,
        chord_access_bytes=0,
        operand_bytes=operand_bytes,
        total_macs=dag.total_macs,
    )


_TERM_DIRECTION = {
    "cold-read": READ,
    "direct-read": READ,
    "oracle-read": READ,
    "chord-cold-read": READ,
    "direct-write": WRITE,
    "output-drain": WRITE,
    "oracle-write": WRITE,
    "chord-drain": WRITE,
    "swizzle": BOTH,
}


def _build_formulas(
    facts: Tuple[TensorFacts, ...],
    agg: Mapping[Tuple[str, str], int],
) -> Tuple[TensorFormula, ...]:
    by_tensor: Dict[str, List[Term]] = {f.name: [] for f in facts}
    for (name, kind), nbytes in sorted(agg.items()):
        by_tensor[name].append(Term(
            kind=kind,
            nbytes=nbytes,
            direction=_TERM_DIRECTION[kind],
            gated_by="charge_swizzle" if kind == "swizzle" else "",
        ))
    return tuple(
        TensorFormula(
            tensor=f.name,
            traffic_class=f.traffic_class,
            terms=tuple(by_tensor[f.name]),
            capacity_dependent=f.traffic_class
            in ("input", "sequential", "pipelineable",
                "delayed-hold", "delayed-writeback"),
        )
        for f in facts
    )
