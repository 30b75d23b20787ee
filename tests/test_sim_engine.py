"""Tests for the schedule-driven engine (CELLO executor) and the cache
engine: conservation invariants and option behaviour."""

from dataclasses import replace

import pytest

from repro.buffers.lru import LruPolicy
from repro.core.dag import TensorDag
from repro.hw.config import AcceleratorConfig
from repro.score.scheduler import Score, ScoreOptions
from repro.sim.engine import CacheEngine, EngineOptions, ScheduleEngine
from repro.sim.trace import program_trace_bytes
from repro.workloads.cg import CgProblem, build_cg_dag
from repro.workloads.gnn import build_gnn_dag, protein_problem
from repro.workloads.matrices import FV1
from repro.workloads.registry import resnet_workload

CFG = AcceleratorConfig()


def cg_dag(n=16, iters=2, matrix=FV1):
    return build_cg_dag(CgProblem(matrix=matrix, n=n, iterations=iters))


class TestScheduleEngine:
    def test_inputs_are_read_at_least_once(self):
        dag = cg_dag()
        sched = Score(CFG).schedule(dag)
        r = ScheduleEngine(CFG).run(sched)
        # Cold compulsory traffic: every program input must be fetched once.
        cold = sum(dag.tensor(t).bytes for t in dag.program_inputs())
        assert r.dram_read_bytes >= cold * 0.99

    def test_outputs_are_written_exactly_once_when_fitting(self):
        # Small problem: everything resident; writes = program outputs only.
        dag = cg_dag(n=1, iters=2)
        sched = Score(CFG).schedule(dag)
        r = ScheduleEngine(CFG).run(sched)
        outs = sum(dag.tensor(t).bytes for t in dag.program_outputs())
        assert r.dram_write_bytes == outs

    def test_traffic_never_exceeds_oracle(self):
        """CELLO can only remove traffic relative to the op-by-op oracle."""
        from repro.baselines.flexagon import oracle_traffic

        for n in (1, 16):
            dag = cg_dag(n=n, iters=3)
            sched = Score(CFG).schedule(dag)
            r = ScheduleEngine(CFG).run(sched)
            reads, writes = oracle_traffic(dag)
            assert r.dram_bytes <= reads + writes

    def test_riff_off_is_never_better(self):
        dag = cg_dag(n=16, iters=3)
        sched = Score(CFG).schedule(dag)
        with_riff = ScheduleEngine(CFG, EngineOptions(use_riff=True)).run(sched)
        without = ScheduleEngine(CFG, EngineOptions(use_riff=False)).run(sched)
        assert with_riff.dram_bytes <= without.dram_bytes

    def test_no_retire_is_never_better(self):
        dag = cg_dag(n=16, iters=3)
        sched = Score(CFG).schedule(dag)
        retire = ScheduleEngine(CFG, EngineOptions(explicit_retire=True)).run(sched)
        hoard = ScheduleEngine(
            replace(CFG, chord_entries=1024),
            EngineOptions(explicit_retire=False),
        ).run(sched)
        assert retire.dram_bytes <= hoard.dram_bytes

    def test_dropping_riff_and_retire_together_is_worst(self):
        dag = cg_dag()
        sched = Score(CFG).schedule(dag)
        no_riff = ScheduleEngine(CFG, EngineOptions(use_riff=False)).run(sched)
        big_table = replace(CFG, chord_entries=4096)
        no_retire = ScheduleEngine(
            big_table, EngineOptions(explicit_retire=False)
        ).run(sched)
        neither = ScheduleEngine(big_table, EngineOptions(
            use_riff=False, explicit_retire=False
        )).run(sched)
        assert neither.dram_bytes >= no_riff.dram_bytes
        assert neither.dram_bytes >= no_retire.dram_bytes

    def test_forced_bad_layout_pays_swizzle_round_trips(self):
        """CG's natural layouts agree, so swizzle minimization costs no
        traffic; forcing a transform on every streaming consumer of a
        skewed tensor charges a DRAM round trip each time."""
        dag = cg_dag()
        sched = Score(CFG).schedule(dag)
        good = ScheduleEngine(CFG).run(sched).dram_bytes
        raw = Score(CFG, ScoreOptions(minimize_swizzle=False)).schedule(dag)
        assert ScheduleEngine(CFG).run(raw).dram_bytes == good
        sched.placements = {
            name: replace(p, swizzled_consumers=tuple(p.consumer_routes))
            if dag.tensor(name).bytes > CFG.rf_bytes and p.consumer_routes
            else p
            for name, p in sched.placements.items()
        }
        assert ScheduleEngine(CFG).run(sched).dram_bytes > 1.5 * good

    def test_macs_independent_of_engine_options(self):
        dag = cg_dag()
        sched = Score(CFG).schedule(dag)
        a = ScheduleEngine(CFG).run(sched)
        b = ScheduleEngine(CFG, EngineOptions(use_riff=False)).run(sched)
        assert a.total_macs == b.total_macs == sum(op.macs for op in dag.ops)

    def test_onchip_access_accounting(self):
        dag = cg_dag()
        sched = Score(CFG).schedule(dag)
        r = ScheduleEngine(CFG).run(sched)
        assert set(r.onchip_accesses) == {"chord", "rf", "pipeline"}
        assert r.onchip_accesses["chord"] > 0
        assert r.onchip_accesses["pipeline"] > 0  # realized pipelines

    def test_resnet_intermediates_never_touch_dram(self):
        dag = resnet_workload().build()
        sched = Score(CFG).schedule(dag)
        r = ScheduleEngine(CFG).run(sched)
        inputs = sum(dag.tensor(t).bytes for t in dag.program_inputs())
        outputs = sum(dag.tensor(t).bytes for t in dag.program_outputs())
        assert r.dram_bytes == inputs + outputs

    def test_gnn_single_consumer_input_not_reinserted(self):
        dag = build_gnn_dag(protein_problem())
        sched = Score(CFG).schedule(dag)
        r = ScheduleEngine(CFG).run(sched)
        # X and Adj are read once; AX pipelines; H drains once.
        inputs = sum(dag.tensor(t).bytes for t in dag.program_inputs())
        outputs = sum(dag.tensor(t).bytes for t in dag.program_outputs())
        assert r.dram_bytes == inputs + outputs


class TestCacheEngine:
    def test_granularity_preserves_shape(self):
        """Coarsened simulation must stay within ~25% of exact traffic for
        streaming workloads (the coarsening contract)."""
        dag = cg_dag(n=16, iters=1)
        exact = CacheEngine(CFG, LruPolicy(), granularity=1).run(dag)
        coarse = CacheEngine(CFG, LruPolicy(), granularity=8).run(dag)
        ratio = coarse.dram_bytes / exact.dram_bytes
        assert 0.75 < ratio < 1.25

    def test_auto_granularity_used_when_unset(self):
        dag = cg_dag(n=1, iters=1)
        r = CacheEngine(CFG, LruPolicy()).run(dag)
        assert r.dram_bytes > 0

    def test_trace_total_is_kept_with_the_trace(self):
        """The byte total that sizes the granularity is kept with the
        trace arrays, equals ``program_trace_bytes``, and ``add_op``
        drops it with them."""
        ops = cg_dag(n=1, iters=1).ops
        dag = TensorDag()
        for op in ops[:-1]:
            dag.add_op(op)
        key = ("cache-trace", CFG.rf_bytes, CFG.line_bytes)
        for added in (None, ops[-1]):
            if added is not None:
                dag.add_op(added)
                assert key not in dag._derived
            CacheEngine(CFG, LruPolicy()).run(dag)
            _, nbytes, _, total = dag._derived[key]
            assert total == program_trace_bytes(dag) == nbytes.sum()

    def test_cache_traffic_at_least_compulsory(self):
        dag = cg_dag(n=16, iters=1)
        r = CacheEngine(CFG, LruPolicy(), granularity=4).run(dag)
        distinct = sum(t.bytes for t in dag.tensors)
        assert r.dram_read_bytes >= 0.9 * distinct
