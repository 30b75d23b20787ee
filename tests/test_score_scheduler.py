"""Tests for SCORE: loop orders, tiling, binding and placements."""

import pytest

from repro.baselines.configs import resolve_config
from repro.baselines.flexagon import (covered_tensors, onchip_accesses,
                                      oracle_traffic)
from repro.core.classify import classify_dependencies
from repro.hw.config import MIB, AcceleratorConfig
from repro.score.binding import place_tensors, realize_holds, realize_pipelines
from repro.score.loop_order import natural_loop_order, schedule_adjacent
from repro.score.schedule_ir import LoopOrder, Route
from repro.score.scheduler import Score, ScoreOptions
from repro.workloads import registry
from repro.workloads.cg import CgProblem, build_cg_dag
from repro.workloads.gnn import build_gnn_dag, cora_problem, protein_problem
from repro.workloads.matrices import FV1, SHALLOW_WATER1
from repro.workloads.registry import resolve_workload, workload_dag
from repro.workloads.resnet import build_resnet_block_dag

CFG = AcceleratorConfig()


@pytest.fixture(scope="module")
def cg_sched():
    dag = build_cg_dag(CgProblem(matrix=FV1, n=16, iterations=2))
    return Score(CFG).schedule(dag)


@pytest.fixture(scope="module")
def resnet_sched():
    return Score(CFG).schedule(build_resnet_block_dag())


@pytest.fixture(scope="module")
def gnn_sched():
    return Score(CFG).schedule(build_gnn_dag(protein_problem()))


class TestLoopOrder:
    def test_dominant_rank_outermost(self, cg_sched):
        cdag = cg_sched.classified
        op = cg_sched.dag.op("1:spmm@0")
        order = natural_loop_order(op, cdag)
        assert order.outermost == "m"

    def test_contraction_before_small_uncontracted(self, cg_sched):
        # SpMM traverses row -> nonzero -> column (m, k, n).
        op = cg_sched.dag.op("1:spmm@0")
        order = natural_loop_order(op, cg_sched.classified)
        assert order.ranks == ("m", "k", "n")

    def test_gram_contracted_outermost(self, cg_sched):
        op = cg_sched.dag.op("2a:gram@0")
        order = natural_loop_order(op, cg_sched.classified)
        assert order.outermost == "k2"

    def test_balanced_node_leads_uncontracted(self, resnet_sched):
        op = resnet_sched.dag.op("c1:conv@0")
        order = natural_loop_order(op, resnet_sched.classified)
        assert order.outermost == "m"
        assert order.outermost not in op.contracted

    def test_parallel_ranks_are_innermost(self, cg_sched):
        op = cg_sched.dag.op("1:spmm@0")
        order = natural_loop_order(op, cg_sched.classified)
        assert order.parallel == order.ranks[-2:]

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ValueError):
            LoopOrder(ranks=("m", "m"))

    def test_parallel_must_be_in_ranks(self):
        with pytest.raises(ValueError):
            LoopOrder(ranks=("m",), parallel=("q",))

    def test_schedule_adjacent(self):
        assert schedule_adjacent(3, 4)
        assert not schedule_adjacent(3, 5)
        assert not schedule_adjacent(4, 3)


class TestTiling:
    def test_tile_covers_rank(self, cg_sched):
        dag = cg_sched.dag
        for tiling in Score(CFG).plan(dag).ops:
            s = tiling.schedule(CFG)
            rank = dag.op(s.op_name).rank(s.tile_rank)
            assert s.n_tiles * s.tile_size >= rank.size
            assert s.tile_size <= rank.size

    def test_tile_fits_double_buffered_stage(self, cg_sched):
        tiles = Score(CFG).plan(cg_sched.dag).tile_bytes(
            cg_sched.op_schedules)
        assert set(tiles) == set(cg_sched.dag.op_names)
        for tb in tiles.values():
            assert 2 * tb <= CFG.pipeline_buffer_bytes

    def test_small_tensors_assigned_to_rf(self, cg_sched):
        s = cg_sched.op_schedule("3:xupd@0")
        assert "Lambda@0" in s.rf_tensors

    def test_stationary_is_largest_input(self, cg_sched):
        s = cg_sched.op_schedule("1:spmm@0")
        assert s.stationary_tensor == "A"


class TestCgPlacements:
    def test_s_pipelines_into_gram_and_chords_to_rupd(self, cg_sched):
        p = cg_sched.placement("S@0")
        assert p.route_for("2a:gram@0") is Route.PIPELINE
        assert p.route_for("4:rupd@0") is Route.CHORD
        assert p.write_route is Route.CHORD  # has a delayed consumer

    def test_r_pipelines_into_gram(self, cg_sched):
        p = cg_sched.placement("R@1")
        assert p.route_for("5:gram@0") is Route.PIPELINE
        assert p.route_for("7:pupd@0") is Route.CHORD
        assert p.route_for("4:rupd@1") is Route.CHORD

    def test_x_goes_through_chord_despite_pipelineable_edge(self, cg_sched):
        # 3 -> 3' is classified pipelineable but not schedule-adjacent.
        p = cg_sched.placement("X@1")
        assert p.route_for("3:xupd@1") is Route.CHORD

    def test_small_tensors_live_in_rf(self, cg_sched):
        for name in ("Delta@0", "Lambda@0", "Gamma@1", "Phi@0"):
            p = cg_sched.placement(name)
            assert p.write_route is Route.REGISTER_FILE

    def test_input_a_routes_to_chord(self, cg_sched):
        p = cg_sched.placement("A")
        assert p.write_route is Route.DRAM      # program input born in DRAM
        assert all(r is Route.CHORD for r in p.consumer_routes.values())

    def test_no_swizzles_in_cg(self, cg_sched):
        for p in cg_sched.placements.values():
            assert p.swizzled_consumers == ()

    def test_pipeline_count(self, cg_sched):
        # Per iteration: 1->2a (S) and 4->5 (R).
        assert cg_sched.n_pipelined_edges == 4  # 2 per iteration x 2 iters


class TestResNetPlacements:
    def test_skip_tensor_fully_onchip(self, resnet_sched):
        p = resnet_sched.placement("T0@0")
        assert p.route_for("c1:conv@0") is Route.PIPELINE
        assert p.route_for("add:residual@0") is Route.HOLD
        assert p.write_route is Route.PIPELINE  # all consumers covered

    def test_chain_intermediates_fully_onchip(self, resnet_sched):
        for t in ("T1@0", "T2@0", "T3@0"):
            assert resnet_sched.placement(t).write_route is Route.PIPELINE

    def test_hold_window_fits(self, resnet_sched):
        assert resnet_sched.n_held_edges == 1
        hold = next(iter(resnet_sched.holds.values()))
        assert hold.depth == 3
        assert hold.window_bytes <= CFG.pipeline_buffer_bytes


def _cfg_with_pipeline_buffer(nbytes):
    """A config whose pipeline buffer holds exactly ``nbytes``."""
    cfg = AcceleratorConfig(sram_bytes=2 * nbytes, pipeline_fraction=0.5)
    assert cfg.pipeline_buffer_bytes == nbytes
    return cfg


class TestCapacityBoundary:
    """``score.binding`` is the one home of the pipeline and hold
    capacity rules: a stage needs ``2·tile`` bytes, a hold of depth d
    ``(d+2)·tile``.  Each must fit at exactly that size and not one byte
    below it."""

    def _plan(self, sched, options=ScoreOptions()):
        return Score(CFG, options).plan(sched.dag)

    def _pipelines(self, sched, cfg):
        plan = self._plan(sched)
        return realize_pipelines(
            plan.pipelines, plan.tile_bytes(sched.op_schedules), cfg)

    def _assert_stage_boundary(self, sched):
        assert sched.pipelines
        for key, stage in sched.pipelines.items():
            need = 2 * stage.tile_bytes
            assert key in self._pipelines(
                sched, _cfg_with_pipeline_buffer(need))
            assert key not in self._pipelines(
                sched, _cfg_with_pipeline_buffer(need - 1))

    def _holds(self, sched, pipelines, cfg=CFG, options=ScoreOptions()):
        plan = self._plan(sched, options)
        return realize_holds(plan.holds, plan.tile_bytes(sched.op_schedules),
                             pipelines, cfg)

    def test_stage_fits_at_exactly_two_tiles(self, resnet_sched):
        self._assert_stage_boundary(resnet_sched)

    def test_cg_stages_fit_at_exactly_two_tiles(self, cg_sched):
        self._assert_stage_boundary(cg_sched)

    def test_gnn_stages_fit_at_exactly_two_tiles(self, gnn_sched):
        self._assert_stage_boundary(gnn_sched)

    def test_hold_fits_at_exactly_depth_plus_two_tiles(self, resnet_sched):
        (key, hold), = resnet_sched.holds.items()
        tile = self._plan(resnet_sched).tile_bytes(
            resnet_sched.op_schedules)[hold.src]
        need = (hold.depth + 2) * tile
        assert hold.window_bytes == need

        def holds(cfg):
            return self._holds(resnet_sched, resnet_sched.pipelines, cfg)

        realized = holds(_cfg_with_pipeline_buffer(need))
        assert realized[key].window_bytes == need
        assert key not in holds(_cfg_with_pipeline_buffer(need - 1))

    def test_hold_needs_every_hop_pipelined(self, resnet_sched):
        (key, hold), = resnet_sched.holds.items()
        path = resnet_sched.dag.longest_path(hold.src, hold.dst)
        assert key in self._holds(resnet_sched, resnet_sched.pipelines)
        for a, b in zip(path, path[1:]):
            hop = (a, b, resnet_sched.dag.path_edge_tensor(a, b))
            assert hop in resnet_sched.pipelines
            broken = {k: v for k, v in resnet_sched.pipelines.items()
                      if k != hop}
            assert key not in self._holds(resnet_sched, broken)

    def test_disabled_pipelining_realizes_no_stage(self, resnet_sched):
        plan = self._plan(resnet_sched, ScoreOptions(enable_pipelining=False))
        assert plan.pipelines == ()
        assert plan.bind(CFG).pipelines == {}

    def test_disabled_holds_realize_no_hold(self, resnet_sched):
        assert self._holds(resnet_sched, resnet_sched.pipelines,
                           options=ScoreOptions(enable_holds=False)) == {}


def _cfg_with_rf(nbytes):
    """A config whose register file holds exactly ``nbytes``."""
    cfg = AcceleratorConfig(rf_bytes=nbytes)
    assert cfg.rf_bytes == nbytes
    return cfg


class TestRegisterFileBoundary:
    """``place_tensors`` keeps a tensor in the register file when its
    whole footprint fits ``rf_bytes``: a register file of exactly the
    tensor's size holds it, one byte less does not."""

    def _placements(self, sched, cfg):
        plan = Score(CFG).plan(sched.dag)
        return place_tensors(plan.hints, [op.name for op in sched.dag.ops],
                             plan.layouts, sched.pipelines, sched.holds, cfg)

    def test_tensor_at_exactly_rf_capacity_lives_in_rf(self, cg_sched):
        nbytes = cg_sched.dag.tensor("Lambda@0").bytes
        p = self._placements(cg_sched, _cfg_with_rf(nbytes))["Lambda@0"]
        assert p.write_route is Route.REGISTER_FILE
        assert p.consumer_routes
        assert all(r is Route.REGISTER_FILE
                   for r in p.consumer_routes.values())

    def test_tensor_one_byte_over_rf_capacity_leaves_rf(self, cg_sched):
        nbytes = cg_sched.dag.tensor("Lambda@0").bytes
        p = self._placements(cg_sched, _cfg_with_rf(nbytes - 1))["Lambda@0"]
        assert p.write_route is not Route.REGISTER_FILE
        assert Route.REGISTER_FILE not in p.consumer_routes.values()

    def test_small_program_input_is_still_born_in_dram(self, cg_sched):
        nbytes = cg_sched.dag.tensor("Gamma@0").bytes
        assert cg_sched.dag.producer_of("Gamma@0") is None
        p = self._placements(cg_sched, _cfg_with_rf(nbytes))["Gamma@0"]
        assert p.write_route is Route.DRAM
        assert all(r is Route.REGISTER_FILE
                   for r in p.consumer_routes.values())


class TestGnnPlacements:
    def test_intermediate_pipelines(self, gnn_sched):
        p = gnn_sched.placement("AX@0")
        assert p.route_for("comb@0") is Route.PIPELINE
        assert p.write_route is Route.PIPELINE


class TestOptions:
    def test_disable_pipelining(self):
        dag = build_cg_dag(CgProblem(matrix=FV1, n=16, iterations=1))
        sched = Score(CFG, ScoreOptions(enable_pipelining=False)).schedule(dag)
        assert sched.n_pipelined_edges == 0
        p = sched.placement("S@0")
        assert p.route_for("2a:gram@0") is Route.CHORD

    def test_disable_holds_degrades_skip_to_chord(self):
        sched = Score(CFG, ScoreOptions(enable_holds=False)).schedule(
            build_resnet_block_dag()
        )
        p = sched.placement("T0@0")
        assert p.route_for("add:residual@0") is Route.CHORD
        assert p.write_route is Route.CHORD

    def test_chord_tensors_listing(self, cg_sched):
        chord = cg_sched.chord_tensors()
        assert "S@0" in chord
        assert "X@1" in chord
        assert "Delta@0" not in chord


#: The smoke grid's four DAGs, the ResNet block and one random program.
PLAN_WORKLOADS = ("cg/fv1/N=1", "bicgstab/fv1/N=1", "gnn/cora",
                  "mg/fv1/N=1", "resnet/conv3_x", "rand/s=2/ops=24/f=3/k=8")
#: Every Table IV row that runs a SCORE schedule.
PLAN_CONFIGS = ("FLAT", "SET", "PRELUDE-only", "CELLO")
#: SRAM sizes in interleaved order, then a non-default register file: a
#: plan that kept anything of one geometry would show at the next.
PLAN_GEOMETRIES = tuple(
    AcceleratorConfig(sram_bytes=int(mb * MIB))
    for mb in (0.25, 64, 1, 4, 4.0005)
) + (AcceleratorConfig(rf_bytes=4096),)


def _schedule_fields(sched):
    return (sched.op_schedules, sched.placements, sched.pipelines,
            sched.holds)


def _plain_oracle(dag, covered, line_bytes):
    """The oracle's traffic and buffet accesses, summed op by op."""
    reads = writes = staged = 0
    for op in dag.ops:
        for t in op.inputs:
            staged += dag.tensor(t.name).bytes
            if t.name not in covered:
                reads += dag.tensor(t.name).bytes
        staged += dag.tensor(op.output.name).bytes
        if op.output.name not in covered:
            writes += dag.tensor(op.output.name).bytes
    return reads, writes, staged // line_bytes


class TestPlanIsCapacityIndependent:
    """SCORE keeps one plan per DAG and ScoreOptions and binds it to each
    point's SRAM geometry.  On one shared memoised DAG, every bound
    schedule must equal the schedule of a freshly built DAG, and the
    ``classified=`` path (built afresh, never kept) must agree; the
    oracle's per-DAG byte totals must equal a plain re-summation."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        registry.clear_dag_cache()
        yield
        registry.clear_dag_cache()

    @pytest.mark.parametrize("name", PLAN_WORKLOADS)
    def test_bound_plan_equals_fresh_schedule(self, name):
        workload = resolve_workload(name)
        dag = workload_dag(workload)
        for cfg in PLAN_GEOMETRIES:
            fresh = workload.build()
            classified = classify_dependencies(fresh)
            for config in PLAN_CONFIGS:
                score = Score(cfg, resolve_config(config).score)
                got = score.schedule(dag)
                want = _schedule_fields(score.schedule(fresh))
                assert _schedule_fields(got) == want, (config, cfg)
                assert _schedule_fields(
                    score.schedule(fresh, classified)) == want
                for covered in (set(), covered_tensors(got)):
                    reads, writes, staged = _plain_oracle(
                        fresh, covered, cfg.line_bytes)
                    assert oracle_traffic(dag, covered) == (reads, writes)
                    assert onchip_accesses(dag, cfg) == staged
        # one plan per ScoreOptions, however many sizes were bound
        plans = [k for k in dag._derived
                 if isinstance(k, tuple) and k[0] == "score-plan"]
        assert len(plans) == len({resolve_config(c).score
                                  for c in PLAN_CONFIGS})
