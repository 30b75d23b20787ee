"""Tests for swizzle minimization, search space and Fig. 8 multi-node
NoC traffic."""

import math

import pytest

from repro.core.classify import classify_dependencies
from repro.hw.noc import NocConfig, op_split_traffic_words, rank_split_traffic_words
from repro.score.loop_order import natural_loop_order
from repro.score.multinode import compare_noc_traffic
from repro.score.searchspace import (
    chord_design_points,
    compare_search_spaces,
    log10_comb,
    log10_factorial,
    log10_op_by_op_space,
    log10_scratchpad_space,
    log10_slice_allocation,
)
from repro.score.swizzle import choose_all_layouts, choose_layout
from repro.workloads.cg import CgProblem, build_cg_dag
from repro.workloads.matrices import FV1


def _swizzles(layouts):
    return sum(c.n_swizzles for c in layouts.values())


class TestSwizzle:
    @pytest.fixture(scope="class")
    def cg(self):
        dag = build_cg_dag(CgProblem(matrix=FV1, n=16, iterations=2))
        cdag = classify_dependencies(dag)
        orders = {op.name: natural_loop_order(op, cdag) for op in dag.ops}
        return dag, orders

    def test_cg_is_swizzle_free(self, cg):
        dag, orders = cg
        layouts = choose_all_layouts(dag, orders, minimize=True)
        assert _swizzles(layouts) == 0

    def test_skewed_tensors_major_dim_zero(self, cg):
        dag, orders = cg
        layouts = choose_all_layouts(dag, orders)
        for name in ("S@0", "R@1", "P@1", "X@1"):
            assert layouts[name].major_dim == 0

    def test_majority_vote_counts_consumers(self, cg):
        dag, orders = cg
        # S@0 has two consumers, both wanting dim 0.
        choice = choose_layout(dag, "S@0", orders)
        assert choice.swizzled_consumers == ()

    def test_minimization_never_loses(self, cg):
        dag, orders = cg
        minimized = choose_all_layouts(dag, orders, minimize=True)
        raw = choose_all_layouts(dag, orders, minimize=False)
        # Majority vote can only reduce the number of layout transforms.
        assert _swizzles(minimized) <= _swizzles(raw)
        assert _swizzles(minimized) == 0

    def test_raw_swizzles_only_on_rf_small_tensors(self, cg):
        # Without minimization the only disagreements in CG are on the tiny
        # Greek tensors (ties in rank extents), which live in the RF and
        # never stream — the engine does not charge them.
        dag, orders = cg
        raw = choose_all_layouts(dag, orders, minimize=False)
        for name, choice in raw.items():
            if choice.swizzled_consumers:
                assert dag.tensor(name).bytes <= 32 * 1024


class TestSearchSpace:
    def test_log10_comb_matches_math(self):
        assert log10_comb(10, 3) == pytest.approx(math.log10(120))

    def test_log10_factorial(self):
        assert log10_factorial(5) == pytest.approx(math.log10(120))

    def test_slice_allocation_matches_stars_and_bars(self):
        # C(size+4, 4) for 5 tensors.
        size = 100
        expected = math.log10(math.comb(size + 4, 4))
        assert log10_slice_allocation(size, 5) == pytest.approx(expected)

    def test_scratchpad_space_is_astronomical(self):
        size_words = (4 * 1024 * 1024) // 4
        tensors = [size_words] * 5
        lg = log10_scratchpad_space(size_words, tensors, time_steps=4)
        assert lg > 60  # intractable, as Sec. VI-B argues

    def test_scratchpad_scales_with_time_steps(self):
        lg1 = log10_scratchpad_space(1000, [1000] * 3, time_steps=1)
        lg3 = log10_scratchpad_space(1000, [1000] * 3, time_steps=3)
        assert lg3 == pytest.approx(3 * lg1)

    def test_op_by_op_much_smaller_than_dag_level(self):
        size = (4 * 1024 * 1024) // 4
        assert log10_op_by_op_space(size) < log10_scratchpad_space(size, [size] * 5)

    def test_chord_points_are_dag_sized(self):
        dag = build_cg_dag(CgProblem(matrix=FV1, n=16, iterations=10))
        pts = chord_design_points(dag)
        assert 100 <= pts <= 1000  # the paper's ~1e2 order

    def test_compare_report(self):
        dag = build_cg_dag(CgProblem(matrix=FV1, n=16, iterations=1))
        rep = compare_search_spaces(dag)
        assert rep.chord_points < 100
        assert rep.log10_scratchpad > rep.log10_op_by_op
        assert "CHORD" in rep.describe()


class TestMultiNode:
    def test_rank_split_wins_for_skewed_shapes(self):
        c = compare_noc_traffic(m=81920, n=16, n_prime=16, noc=NocConfig(16))
        assert c.advantage > 100  # orders of magnitude (Sec. V-B)

    def test_advantage_is_the_traffic_ratio(self):
        noc = NocConfig(16)
        c = compare_noc_traffic(m=100000, n=16, n_prime=8, noc=noc)
        assert c.op_split_words == op_split_traffic_words(100000, 16)
        assert c.rank_split_words == rank_split_traffic_words(16, 8, noc)
        assert c.advantage == c.op_split_words / c.rank_split_words
        assert "op-split moves 1600000 words" in c.describe()

    def test_op_split_scales_with_m(self):
        small = compare_noc_traffic(m=1000, n=16, n_prime=16)
        big = compare_noc_traffic(m=100000, n=16, n_prime=16)
        assert big.advantage > small.advantage
