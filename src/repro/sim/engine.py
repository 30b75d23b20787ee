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
from dataclasses import dataclass
from typing import Optional, Set, Tuple

from ..buffers.cache import (ReplacementPolicy, SetAssociativeCache,
                             TraceFootprint, cache_sets, check_backend)
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
from .trace import auto_granularity, program_trace_arrays


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
        chord = ChordBuffer(
            capacity_bytes=cfg.chord_data_bytes,
            hints=hints,
            use_riff=self.options.use_riff,
            table=RiffIndexTable(cfg.chord_entries, cfg.chord_entry_bits),
            base_addrs=amap.base_addrs(),
        )
        dram = DramChannel()
        rf_bytes_touched = 0
        pipe_bytes_touched = 0
        touched: Set[str] = set()
        placement_of = schedule.placements
        nbytes_of, is_cold_input, last_use_of = hints.walk_lookups

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
        onchip = {
            "chord": chord.stats.accesses // cfg.line_bytes,
            "rf": rf_bytes_touched // cfg.line_bytes,
            "pipeline": pipe_bytes_touched // cfg.line_bytes,
        }
        return make_result(
            config=config_name,
            workload=workload_name,
            total_macs=dag.total_macs,
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
    (:meth:`TensorDag.derived`) as three compact segment arrays, built
    in one vectorised pass (:func:`~repro.sim.trace.program_trace_arrays`),
    and their byte total, and every later run of the DAG replays it
    without regenerating it.  The expanded block stream is never kept: on
    cg/G2_circuit/N=16 it is ~18x the arrays.  Next to the trace, per
    block size, the DAG keeps its
    :class:`~repro.buffers.cache.TraceFootprint` (the merged block
    intervals it touches and writes); both builds are reported as
    ``trace-gen``.  A point whose footprint fits every set of the cache
    cannot evict, so it resolves from the footprint in O(intervals +
    sets) with no cache built: one miss per distinct block, one
    writeback per written block.  Any other point replays the trace
    through :meth:`SetAssociativeCache.access_arrays`, which expands it
    in bounded chunks into the batch kernel (3–5 M accesses per second
    on real traces).  ``backend`` selects the cache implementation;
    ``"reference"`` always replays, through the scalar per-access loop
    range by range, as the oracle for parity tests and benchmarking.
    """

    def __init__(
        self,
        cfg: AcceleratorConfig,
        policy: ReplacementPolicy,
        granularity: Optional[int] = None,
        backend: str = "vector",
    ) -> None:
        check_backend(backend)
        self.cfg = cfg
        self.policy = policy
        self.granularity = granularity
        self.backend = backend

    def run(self, dag: TensorDag, config_name: str = "cache",
            workload_name: str = "workload") -> SimResult:
        cfg = self.cfg
        key = ("cache-trace", cfg.rf_bytes, cfg.line_bytes)
        hook = get_phase_hook()
        t0 = time.perf_counter() if hook is not None else 0.0
        starts, nbytes, writes, total = dag.derived(
            key, lambda: _trace(dag, cfg))
        g = self.granularity or auto_granularity(total, cfg.line_bytes)
        block_bytes = cfg.line_bytes * g
        assoc = cfg.cache_associativity
        n_sets = cache_sets(cfg.sram_bytes, block_bytes, assoc)
        footprint = None
        if self.backend == "vector":
            footprint = dag.derived(key + (block_bytes,), lambda: (
                TraceFootprint.of(starts, nbytes, writes, block_bytes)))
        t1 = time.perf_counter() if hook is not None else 0.0
        if footprint is not None and footprint.fits(n_sets, assoc):
            stats = footprint.stats(block_bytes)
        else:
            cache = SetAssociativeCache(
                capacity_bytes=cfg.sram_bytes,
                line_bytes=block_bytes,
                associativity=assoc,
                policy=self.policy,
                backend=self.backend,
            )
            cache.access_arrays(starts, nbytes, writes)
            cache.flush()
            stats = cache.stats
        if hook is not None:
            hook("trace-gen", t1 - t0)
            hook("cache-kernel", time.perf_counter() - t1)
        return make_result(
            config=config_name,
            workload=workload_name,
            total_macs=dag.total_macs,
            dram_read_bytes=stats.dram_read_bytes,
            dram_write_bytes=stats.dram_write_bytes,
            cfg=cfg,
            onchip_accesses={"cache": stats.accesses * g},
        )


def _trace(dag: TensorDag, cfg: AcceleratorConfig) -> Tuple:
    """The cache trace's (starts, nbytes, is_write) arrays and byte total."""
    starts, nbytes, writes = program_trace_arrays(
        dag, address_map(dag, cfg.line_bytes), rf_bytes=cfg.rf_bytes)
    return starts, nbytes, writes, int(nbytes.sum())
