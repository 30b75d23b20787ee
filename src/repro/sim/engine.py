"""Execution engines: schedule-driven (CELLO-class) and trace-driven
(cache-class).

``ScheduleEngine`` walks the program in order, routing every tensor event
through the buffer its SCORE placement names: register file, pipeline
buffer, hold slots, or CHORD.  ``CacheEngine`` replays the best-intra-op
stream trace through a set-associative cache.  Both emit a
:class:`~repro.sim.results.SimResult` built on the roofline performance
model, so every Table IV configuration is directly comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from ..buffers.cache import ReplacementPolicy, SetAssociativeCache
from ..chord.buffer import ChordBuffer
from ..chord.metadata import RiffIndexTable
from ..core.dag import TensorDag
from ..hw.config import AcceleratorConfig
from ..score.schedule_ir import Route, Schedule
from .address_map import AddressMap
from .dram import DramChannel
from .perf import make_result
# set_phase_hook/get_phase_hook are re-exported: the daemon, the pool
# workers and the layer ladder install the hook through this module.
from .phases import get_phase_hook, set_phase_hook  # noqa: F401
from .results import SimResult
from .trace import auto_granularity, program_trace_arrays, program_trace_bytes


def address_map(dag: TensorDag, line_bytes: int) -> AddressMap:
    """``AddressMap.for_dag``, kept on the DAG per ``line_bytes`` (the map
    reads tensor sizes alone, so every point of a DAG shares it)."""
    return dag.derived(("address-map", line_bytes),
                       lambda: AddressMap.for_dag(dag, line_bytes=line_bytes))


@dataclass(frozen=True)
class EngineOptions:
    """Behavioural switches of the schedule-driven engine (ablation axes)."""

    use_riff: bool = True           # RIFF replacement (off = PRELUDE-only)
    explicit_retire: bool = True    # free dead tensors at last use
    charge_swizzle: bool = True     # charge a DRAM round trip per swizzle
    chord_entries: Optional[int] = None  # override index-table capacity


class ScheduleEngine:
    """Runs a SCORE :class:`Schedule` against CHORD + pipeline buffer + RF."""

    def __init__(self, cfg: AcceleratorConfig,
                 options: Optional[EngineOptions] = None) -> None:
        self.cfg = cfg
        # None-sentinel: each engine owns a fresh options instance, so no
        # two engines ever alias a shared module-level default.
        self.options = EngineOptions() if options is None else options
        #: The CHORD instance of the most recent ``run`` — kept for
        #: post-mortem auditing (per-tensor traffic, occupancy timeline).
        self.last_chord: Optional[ChordBuffer] = None
        self.last_dram: Optional[DramChannel] = None

    def run(self, schedule: Schedule, config_name: str = "cello",
            workload_name: str = "workload") -> SimResult:
        cfg = self.cfg
        dag = schedule.dag
        hints = schedule.hints
        amap = address_map(dag, cfg.line_bytes)
        entries = self.options.chord_entries or cfg.chord_entries
        chord = ChordBuffer(
            capacity_bytes=cfg.chord_data_bytes,
            hints=hints,
            use_riff=self.options.use_riff,
            table=RiffIndexTable(entries, cfg.chord_entry_bits),
            base_addrs=amap.base_addrs(),
            # The recorder is opt-in at the buffer level; the engine always
            # opts in because post-mortem observability is its job.
            record_history=True,
        )
        dram = DramChannel()
        rf_bytes_touched = 0
        pipe_bytes_touched = 0
        touched: Set[str] = set()

        # Per-tensor lookups are loop-invariant: placement, size, cold-input
        # status and last use never change mid-program, so resolve them once
        # instead of per (op, operand) event in the inner loops.
        placement_of: Dict[str, object] = {}
        nbytes_of: Dict[str, int] = {}
        is_cold_input: Dict[str, bool] = {}
        last_use_of: Dict[str, Optional[int]] = {}
        for t in dag.tensors:
            name = t.name
            placement_of[name] = schedule.placement(name)
            nbytes_of[name] = t.bytes
            is_cold_input[name] = dag.producer_of(name) is None
            last_use_of[name] = hints.get(name).last_use()

        hook = get_phase_hook()
        t_account = time.perf_counter() if hook is not None else 0.0
        for i, op in enumerate(dag.ops):
            for t in op.inputs:
                name = t.name
                placement = placement_of[name]
                route = placement.route_for(op.name)
                nbytes = nbytes_of[name]
                if (
                    self.options.charge_swizzle
                    and op.name in placement.swizzled_consumers
                    and route is not Route.REGISTER_FILE
                ):
                    # Layout transform: stream the tensor out and back in
                    # its new order before this consumer can run.
                    dram.read(nbytes, reason="swizzle")
                    dram.write(nbytes, reason="swizzle")
                if route is Route.REGISTER_FILE:
                    if is_cold_input[name] and name not in touched:
                        dram.read(nbytes, reason="cold-input")
                    rf_bytes_touched += nbytes
                elif route in (Route.PIPELINE, Route.HOLD):
                    pipe_bytes_touched += nbytes
                elif route is Route.CHORD:
                    chord.read(name, i)
                elif route is Route.DRAM:
                    dram.read(nbytes, reason="direct")
                touched.add(name)

            out_name = op.output.name
            wr = placement_of[out_name].write_route
            nbytes = nbytes_of[out_name]
            if wr is Route.REGISTER_FILE:
                rf_bytes_touched += nbytes
            elif wr is Route.PIPELINE:
                pipe_bytes_touched += nbytes
            elif wr is Route.CHORD:
                chord.write(out_name, i)
            elif wr is Route.DRAM:
                dram.write(nbytes, reason="direct")
            touched.add(out_name)

            if self.options.explicit_retire:
                for t in op.inputs:
                    if last_use_of[t.name] == i:
                        chord.retire(t.name)

        chord.finalize()
        if hook is not None:
            hook("chord-accounting", time.perf_counter() - t_account)
        # Program outputs that never routed through CHORD (small RF-resident
        # results like a GNN's logits) still drain to DRAM exactly once.
        for name in dag.program_outputs():
            if placement_of[name].write_route in (
                Route.REGISTER_FILE, Route.PIPELINE
            ):
                dram.write(nbytes_of[name], reason="output-drain")
        dram.merge_stats(
            chord.stats.dram_read_bytes, chord.stats.dram_write_bytes, "chord"
        )
        self.last_chord = chord
        self.last_dram = dram
        total_macs = sum(op.macs for op in dag.ops)
        onchip = {
            "chord": chord.stats.accesses // cfg.line_bytes,
            "rf": rf_bytes_touched // cfg.line_bytes,
            "pipeline": pipe_bytes_touched // cfg.line_bytes,
        }
        return make_result(
            config=config_name,
            workload=workload_name,
            total_macs=total_macs,
            dram_read_bytes=dram.read_bytes,
            dram_write_bytes=dram.write_bytes,
            cfg=cfg,
            onchip_accesses=onchip,
        )


class CacheEngine:
    """Replays the best-intra-op trace through an implicit cache
    (the Flex+LRU / Flex+BRRIP baselines).

    The trace depends on the DAG, ``rf_bytes`` and the line size alone,
    never on the cache, so it is kept on the DAG
    (:meth:`TensorDag.derived`) as three compact segment arrays
    (:func:`~repro.sim.trace.program_trace_arrays`) and every later run
    of the DAG replays it without regenerating it.  The expanded block
    stream is never kept: on cg/G2_circuit/N=16 it is ~18x the arrays.
    :meth:`SetAssociativeCache.access_arrays` expands and resolves it in
    bounded chunks as batched array kernels, at 3–5 M accesses per second
    on real traces when the cache evicts.  The eviction-free closed form
    reads per-chunk facts that are kept on the DAG too, next to the
    trace, for each chunk with no more distinct blocks than the cache
    has lines, up to :data:`~repro.buffers.cache.KEPT_FACTS_BYTES` per
    trace (4.9 MB for cg/fv1/N=1); their one-off build is reported as
    ``trace-gen``, while facts above the bound are rebuilt at each point
    inside ``cache-kernel``.  From kept facts a fitting chunk resolves at
    ~50 M accesses per second without being expanded.  ``backend``
    selects the cache implementation (``"reference"`` replays the scalar
    per-access loop range by range, for parity tests and benchmarking).
    """

    def __init__(
        self,
        cfg: AcceleratorConfig,
        policy: ReplacementPolicy,
        granularity: Optional[int] = None,
        backend: str = "auto",
    ) -> None:
        self.cfg = cfg
        self.policy = policy
        self.granularity = granularity
        self.backend = backend

    def run(self, dag: TensorDag, config_name: str = "cache",
            workload_name: str = "workload") -> SimResult:
        cfg = self.cfg
        total = program_trace_bytes(dag)
        g = self.granularity or auto_granularity(total, cfg.line_bytes)
        block_bytes = cfg.line_bytes * g
        cache = SetAssociativeCache(
            capacity_bytes=cfg.sram_bytes,
            line_bytes=block_bytes,
            associativity=cfg.cache_associativity,
            policy=self.policy,
            backend=self.backend,
        )
        key = ("cache-trace", cfg.rf_bytes, cfg.line_bytes)
        hook = get_phase_hook()
        t0 = time.perf_counter() if hook is not None else 0.0
        starts, nbytes, writes = dag.derived(key, lambda: program_trace_arrays(
            dag, address_map(dag, cfg.line_bytes), rf_bytes=cfg.rf_bytes))
        t1 = time.perf_counter() if hook is not None else 0.0
        # The closed form's chunk facts are trace work: kept on the DAG
        # next to the trace, and their build time is reported as trace-gen.
        built = []

        def memo(chunk_key, compute):
            def build():
                t = time.perf_counter()
                value = compute()
                built.append(time.perf_counter() - t)
                return value
            return dag.derived(key + chunk_key, build)

        cache.access_arrays(starts, nbytes, writes, memo=memo)
        cache.flush()
        if hook is not None:
            t2 = time.perf_counter()
            hook("trace-gen", t1 - t0 + sum(built))
            hook("cache-kernel", t2 - t1 - sum(built))
        total_macs = sum(op.macs for op in dag.ops)
        return make_result(
            config=config_name,
            workload=workload_name,
            total_macs=total_macs,
            dram_read_bytes=cache.stats.dram_read_bytes,
            dram_write_bytes=cache.stats.dram_write_bytes,
            cfg=cfg,
            onchip_accesses={"cache": cache.stats.accesses * g},
        )
