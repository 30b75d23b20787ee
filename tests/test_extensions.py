"""Tests for the extension modules: SRRIP, CHORD timeline/audit, cluster
timing and the MLP chain negative control."""

from dataclasses import replace

import pytest

from repro.buffers.cache import SetAssociativeCache
from repro.buffers.lru import LruPolicy
from repro.buffers.srrip import SrripPolicy
from repro.baselines.runner import run_workload_config
from repro.chord.buffer import ChordBuffer
from repro.chord.hints import ReuseHints, TensorHints
from repro.chord.timeline import occupancy_series, render_occupancy, traffic_audit
from repro.hw.config import AcceleratorConfig
from repro.score.scheduler import Score
from repro.sim.cluster_timing import cluster_seconds, describe_clusters, form_clusters
from repro.sim.engine import EngineOptions, ScheduleEngine
from repro.workloads.cg import CgProblem, build_cg_dag
from repro.workloads.dnn import MlpProblem, build_mlp_dag
from repro.workloads.matrices import FV1, SHALLOW_WATER1
from repro.workloads.registry import Workload, cg_workload, resnet_workload

CFG = AcceleratorConfig()


class TestSrrip:
    def test_always_long_insertion(self):
        p = SrripPolicy()
        st = p.make_set_state(4)
        for w in range(4):
            p.on_fill(st, w)
        assert st.rrpv == [2, 2, 2, 2]

    def test_usable_in_cache(self):
        cache = SetAssociativeCache(1024, 16, 4, SrripPolicy())
        for b in range(200):
            cache.access_line(b, False)
        assert cache.stats.misses == 200


class TestChordObservability:
    def _run(self):
        dag = build_cg_dag(CgProblem(matrix=SHALLOW_WATER1, n=16, iterations=3))
        sched = Score(CFG).schedule(dag)
        engine = ScheduleEngine(CFG)
        engine.run(sched)
        return engine.last_chord

    def test_history_recorded(self):
        chord = self._run()
        assert chord is not None
        assert len(chord.history) > 0
        assert all(u <= chord.capacity_bytes for _, u in chord.history)

    def test_history_recorded_under_every_engine_option(self):
        sched = Score(CFG).schedule(
            build_cg_dag(CgProblem(matrix=FV1, n=16, iterations=2)))
        for options, cfg in (
            (EngineOptions(use_riff=False), CFG),
            (EngineOptions(explicit_retire=False),
             replace(CFG, chord_entries=4096)),
            (EngineOptions(charge_swizzle=False), CFG),
        ):
            engine = ScheduleEngine(cfg, options)
            engine.run(sched)
            assert len(engine.last_chord.history) > 0

    def test_occupancy_series_downsamples(self):
        chord = self._run()
        series = occupancy_series(chord, buckets=10)
        assert 1 <= len(series) <= 11

    def test_render_occupancy(self):
        chord = self._run()
        art = render_occupancy(chord, width=40, height=6)
        assert "|" in art and "capacity" in art

    def test_traffic_audit_lists_heavy_tensors(self):
        chord = self._run()
        audit = traffic_audit(chord)
        assert "hit rate" in audit
        # The skewed CG tensors must appear in the audit.
        assert any(name in audit for name in ("P@1", "X@1", "S@0", "R@1", "A"))

    def test_per_tensor_accounting_conserves(self):
        chord = self._run()
        total_miss = sum(r["miss"] for r in chord.per_tensor.values())
        assert total_miss == chord.stats.misses

    def test_empty_buffer_renders(self):
        hints = ReuseHints({})
        chord = ChordBuffer(100, hints)
        assert "no CHORD events" in render_occupancy(chord)


class TestClusterTiming:
    @pytest.fixture(scope="class")
    def cg_sched(self):
        dag = build_cg_dag(CgProblem(matrix=FV1, n=16, iterations=2))
        return Score(CFG).schedule(dag)

    def test_clusters_partition_program(self, cg_sched):
        clusters = form_clusters(cg_sched)
        ops = [o for c in clusters for o in c.ops]
        assert ops == list(cg_sched.dag.op_names)

    def test_pipelined_pairs_share_cluster(self, cg_sched):
        clusters = form_clusters(cg_sched)
        by_op = {}
        for i, c in enumerate(clusters):
            for o in c.ops:
                by_op[o] = i
        # 1 -> 2a and 4 -> 5 are realized pipelines -> same cluster.
        assert by_op["1:spmm@0"] == by_op["2a:gram@0"]
        assert by_op["4:rupd@0"] == by_op["5:gram@0"]
        # 3 -> 4 is not pipelined -> different clusters.
        assert by_op["3:xupd@0"] != by_op["4:rupd@0"]

    def test_resnet_is_one_big_cluster(self):
        sched = Score(CFG).schedule(resnet_workload().build())
        clusters = form_clusters(sched)
        assert max(c.depth for c in clusters) == 5  # pre..add chain

    def test_cluster_time_bounded_by_serial_time(self, cg_sched):
        # Stage-concurrent execution can't beat perfect parallelism or lose
        # to full serialisation by more than fill/drain.
        for c in form_clusters(cg_sched):
            serial = sum(
                cg_sched.dag.op(o).macs for o in c.ops
            ) / CFG.peak_macs_per_s
            t = cluster_seconds(c, cg_sched, CFG)
            assert t >= serial * 0.99  # can't exceed the work bound
            assert t <= serial * (1 + c.depth)

    def test_describe_runs(self, cg_sched):
        text = describe_clusters(cg_sched, CFG)
        assert "us" in text


class TestMlpChain:
    def test_chain_structure(self):
        dag = build_mlp_dag(MlpProblem(batch=256, widths=(256, 256, 256)))
        assert len(dag) == 2
        assert dag.consumers_of("H@1") == ("fc@1",)

    def test_no_delayed_dependencies(self):
        from repro.core.classify import classify_dependencies

        dag = build_mlp_dag()
        s = classify_dependencies(dag).summary()
        assert s["delayed_hold"] == 0
        assert s["delayed_writeback"] == 0
        assert s["pipelineable"] == len(dag) - 1

    def test_cello_wins_nothing_over_flat_on_chains(self):
        """The negative control: on linear DNN chains CELLO == FLAT == SET,
        while pipelining still beats op-by-op."""
        problem = MlpProblem()
        w = Workload(
            name="mlp/control", family="dnn",
            build=lambda: build_mlp_dag(problem),
        )
        flat = run_workload_config(w, "FLAT", CFG)
        sett = run_workload_config(w, "SET", CFG)
        cello = run_workload_config(w, "CELLO", CFG)
        assert cello.dram_bytes == flat.dram_bytes == sett.dram_bytes
        assert flat.dram_bytes < run_workload_config(w, "Flexagon", CFG).dram_bytes

    def test_validation(self):
        with pytest.raises(ValueError):
            MlpProblem(batch=0)
        with pytest.raises(ValueError):
            MlpProblem(widths=(64,))


class TestFig01Fig07:
    def test_report_contains_both_dags(self):
        from repro.experiments import fig01_fig07_dag

        rep = fig01_fig07_dag.report(iterations=2)
        assert "1:spmm@0" in rep
        assert "add:residual@0" in rep
        assert "~~>" in rep       # delayed writeback present in CG
        assert "-->(hold)" in rep  # hold present in ResNet
