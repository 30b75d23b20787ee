"""Tests for repro.core.dag (graph machinery Algorithm 2 depends on)."""

import pytest

from repro.core.dag import Edge, TensorDag
from repro.core.einsum import EinsumOp
from repro.core.ranks import Rank
from repro.core.tensor import dense_tensor


def _t(name, m=8, n=8):
    return dense_tensor(name, (Rank("m", m), Rank("n", n)))


def _op(name, inputs, output):
    return EinsumOp(
        name=name,
        inputs=tuple(_t(i) for i in inputs),
        output=_t(output),
    )


def chain_dag(*names):
    """a -> b -> c ... linear chain; first tensor is a program input."""
    dag = TensorDag()
    tensors = [f"T{i}" for i in range(len(names) + 1)]
    for i, name in enumerate(names):
        dag.add_op(_op(name, [tensors[i]], tensors[i + 1]))
    return dag


def diamond_dag():
    """src feeds mid and dst; mid feeds dst: src->dst is transitive."""
    dag = TensorDag()
    dag.add_op(_op("src", ["In"], "S"))
    dag.add_op(_op("mid", ["S"], "M"))
    dag.add_op(EinsumOp(
        name="dst",
        inputs=(_t("S"), _t("M")),
        output=_t("Out"),
    ))
    return dag


class TestConstruction:
    def test_program_order_preserved(self):
        dag = chain_dag("a", "b", "c")
        assert dag.op_names == ("a", "b", "c")
        assert dag.op_index("b") == 1

    def test_duplicate_op_rejected(self):
        dag = chain_dag("a")
        with pytest.raises(ValueError):
            dag.add_op(_op("a", ["T1"], "T9"))

    def test_double_production_rejected(self):
        dag = chain_dag("a")
        with pytest.raises(ValueError):
            dag.add_op(_op("b", ["T0"], "T1"))

    def test_conflicting_shape_rejected(self):
        dag = chain_dag("a")
        bad = EinsumOp(
            name="b",
            inputs=(dense_tensor("T1", (Rank("m", 99), Rank("n", 8))),),
            output=_t("T2"),
        )
        with pytest.raises(ValueError):
            dag.add_op(bad)

    def test_unknown_lookups_raise(self):
        dag = chain_dag("a")
        with pytest.raises(KeyError):
            dag.op("zzz")
        with pytest.raises(KeyError):
            dag.tensor("zzz")
        with pytest.raises(KeyError):
            dag.op_index("zzz")


class TestTotals:
    def test_total_macs_is_kept_and_dropped_by_add_op(self):
        dag = diamond_dag()
        macs = dag.total_macs
        assert macs == sum(op.macs for op in dag.ops) > 0
        assert dag.derived("total-macs", lambda: None) == macs
        dag.add_op(_op("tail", ["Out"], "Tail"))
        assert dag.total_macs == sum(op.macs for op in dag.ops) > macs


class TestTopology:
    def test_producer_and_consumers(self):
        dag = diamond_dag()
        assert dag.producer_of("S") == "src"
        assert dag.producer_of("In") is None
        assert dag.consumers_of("S") == ("mid", "dst")

    def test_program_inputs_outputs(self):
        dag = diamond_dag()
        assert dag.program_inputs() == ("In",)
        assert dag.program_outputs() == ("Out",)

    def test_successors_predecessors(self):
        dag = diamond_dag()
        assert dag.successors("src") == ("mid", "dst")
        assert set(dag.predecessors("dst")) == {"src", "mid"}

    def test_edges(self):
        dag = diamond_dag()
        keys = {e.key() for e in dag.edges()}
        assert ("src", "mid", "S") in keys
        assert ("src", "dst", "S") in keys
        assert ("mid", "dst", "M") in keys
        # Input edges only when asked.
        assert all(e.src is not None for e in dag.edges())
        with_inputs = dag.edges(include_inputs=True)
        assert any(e.src is None and e.tensor == "In" for e in with_inputs)


class TestLongestPath:
    def test_direct_edge(self):
        dag = chain_dag("a", "b")
        assert dag.longest_path("a", "b") == ("a", "b")

    def test_diamond_prefers_long_route(self):
        dag = diamond_dag()
        assert dag.longest_path("src", "dst") == ("src", "mid", "dst")

    def test_unreachable_returns_none(self):
        dag = TensorDag()
        dag.add_op(_op("a", ["In1"], "T1"))
        dag.add_op(_op("b", ["In2"], "T2"))
        assert dag.longest_path("a", "b") is None

    def test_transitive_edge_detection(self):
        dag = diamond_dag()
        direct = Edge(src="src", dst="dst", tensor="S")
        adjacent = Edge(src="src", dst="mid", tensor="S")
        assert dag.is_transitive_edge(direct)
        assert not dag.is_transitive_edge(adjacent)

    def test_input_edge_has_no_transitivity(self):
        dag = diamond_dag()
        with pytest.raises(ValueError):
            dag.is_transitive_edge(Edge(src=None, dst="src", tensor="In"))

    def test_path_edge_tensor(self):
        dag = diamond_dag()
        assert dag.path_edge_tensor("src", "mid") == "S"
        assert dag.path_edge_tensor("mid", "src") is None


class TestReuseMetadata:
    def test_frequency(self):
        dag = diamond_dag()
        assert dag.reuse_frequency("S") == 2
        assert dag.reuse_frequency("Out") == 0

    def test_distances(self):
        dag = diamond_dag()
        # S born at op 0; used at ops 1 and 2.
        assert dag.reuse_distances("S") == (1, 2)

    def test_last_and_next_use(self):
        dag = diamond_dag()
        assert dag.last_use_index("S") == 2
        assert dag.next_use_after("S", 0) == 1
        assert dag.next_use_after("S", 1) == 2
        assert dag.next_use_after("S", 2) is None
        assert dag.last_use_index("Out") is None

    def test_to_networkx_roundtrip(self):
        dag = diamond_dag()
        g = dag.to_networkx()
        assert set(g.nodes) == {"src", "mid", "dst"}
        assert g.number_of_edges() == 3
