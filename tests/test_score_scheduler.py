"""Tests for SCORE: loop orders, tiling, binding and placements."""

import pytest

from repro.core.classify import classify_dependencies
from repro.hw.config import AcceleratorConfig
from repro.score.binding import (
    BindingOptions,
    place_tensors,
    realize_holds,
    realize_pipelines,
)
from repro.score.loop_order import natural_loop_order, schedule_adjacent
from repro.score.schedule_ir import LoopOrder, Route
from repro.score.scheduler import Score, ScoreOptions
from repro.score.swizzle import choose_all_layouts
from repro.score.tiling import choose_tiling, tile_bytes_of
from repro.workloads.cg import CgProblem, build_cg_dag
from repro.workloads.gnn import build_gnn_dag, cora_problem, protein_problem
from repro.workloads.matrices import FV1, SHALLOW_WATER1
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
        cdag = cg_sched.classified
        for op in dag.ops:
            s = choose_tiling(op, cdag, CFG)
            rank = op.rank(s.tile_rank)
            assert s.n_tiles * s.tile_size >= rank.size
            assert s.tile_size <= rank.size

    def test_tile_fits_double_buffered_stage(self, cg_sched):
        dag = cg_sched.dag
        for op in dag.ops:
            s = cg_sched.op_schedule(op.name)
            tb = tile_bytes_of(op, s)
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

    def _pipelines(self, sched, cfg):
        orders = {name: s.loop_order for name, s in sched.op_schedules.items()}
        layouts = choose_all_layouts(sched.dag, orders)
        return realize_pipelines(sched.classified, sched.op_schedules,
                                 layouts, cfg, BindingOptions())

    def _assert_stage_boundary(self, sched):
        assert sched.pipelines
        for key, stage in sched.pipelines.items():
            need = 2 * stage.tile_bytes
            assert key in self._pipelines(
                sched, _cfg_with_pipeline_buffer(need))
            assert key not in self._pipelines(
                sched, _cfg_with_pipeline_buffer(need - 1))

    def _holds(self, sched, pipelines, cfg=CFG, options=BindingOptions()):
        return realize_holds(sched.classified, sched.op_schedules,
                             pipelines, cfg, options)

    def test_stage_fits_at_exactly_two_tiles(self, resnet_sched):
        self._assert_stage_boundary(resnet_sched)

    def test_cg_stages_fit_at_exactly_two_tiles(self, cg_sched):
        self._assert_stage_boundary(cg_sched)

    def test_gnn_stages_fit_at_exactly_two_tiles(self, gnn_sched):
        self._assert_stage_boundary(gnn_sched)

    def test_hold_fits_at_exactly_depth_plus_two_tiles(self, resnet_sched):
        (key, hold), = resnet_sched.holds.items()
        tile = tile_bytes_of(resnet_sched.dag.op(hold.src),
                             resnet_sched.op_schedule(hold.src))
        need = (hold.depth + 2) * tile
        assert hold.window_bytes == need

        def holds(cfg):
            return realize_holds(resnet_sched.classified,
                                 resnet_sched.op_schedules,
                                 resnet_sched.pipelines, cfg, BindingOptions())

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
        orders = {name: s.loop_order
                  for name, s in resnet_sched.op_schedules.items()}
        layouts = choose_all_layouts(resnet_sched.dag, orders)
        assert realize_pipelines(
            resnet_sched.classified, resnet_sched.op_schedules, layouts,
            CFG, BindingOptions(enable_pipelining=False)) == {}

    def test_disabled_holds_realize_no_hold(self, resnet_sched):
        assert self._holds(resnet_sched, resnet_sched.pipelines,
                           options=BindingOptions(enable_holds=False)) == {}


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
        orders = {name: s.loop_order for name, s in sched.op_schedules.items()}
        layouts = choose_all_layouts(sched.dag, orders)
        return place_tensors(sched.classified, sched.pipelines, sched.holds,
                             layouts, cfg)

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
