"""Tests for the simulation substrate: address map, trace, perf, energy,
results and the DRAM ledger."""

import bisect

import numpy as np
import pytest

from repro.core.dag import TensorDag
from repro.hw.config import AcceleratorConfig
from repro.sim.address_map import AddressMap
from repro.sim.dram import DramChannel
from repro.sim.energy import energy_of, offchip_energy_j, onchip_energy_j
from repro.sim.perf import compute_seconds, make_result, memory_seconds
from repro.sim.results import SimResult, geomean, geomean_speedup, relative_energy
from repro.sim import trace as sim_trace
from repro.sim.trace import (INTERLEAVE_CHUNK, auto_granularity,
                             program_trace_arrays)
from repro.workloads.cg import CgProblem, build_cg_dag
from repro.workloads.matrices import FV1

CFG = AcceleratorConfig()


class TestAddressMap:
    def test_extents_are_disjoint_and_aligned(self):
        amap = AddressMap(line_bytes=16)
        a = amap.add("A", 100)
        b = amap.add("B", 50)
        assert a.end <= b.base
        assert a.base % 16 == 0
        assert b.base % 16 == 0

    def test_duplicate_rejected(self):
        amap = AddressMap()
        amap.add("A", 10)
        with pytest.raises(ValueError):
            amap.add("A", 10)

    def test_for_dag_maps_everything(self):
        dag = build_cg_dag(CgProblem(matrix=FV1, n=16, iterations=1))
        amap = AddressMap.for_dag(dag)
        for t in dag.tensors:
            assert t.name in amap
            assert amap.get(t.name).nbytes == t.bytes

    def test_contains_and_get(self):
        amap = AddressMap()
        amap.add("A", 10)
        assert "A" in amap
        with pytest.raises(KeyError):
            amap.get("B")


def op_rows(dag, amap, rf_bytes):
    """Each op's slice of the program trace, by op name: a list of
    ``(tensor, start, nbytes, is_write)`` rows, tensors attributed by
    their extents."""
    starts, nbytes, writes = program_trace_arrays(dag, amap, rf_bytes)
    names = [t.name for t in dag.tensors]
    bases = [amap.get(n).base for n in names]
    slices, lo = {}, 0
    for op in dag.ops:
        n = sum(1 if t.bytes <= rf_bytes else -(-t.bytes // INTERLEAVE_CHUNK)
                for t in (*op.inputs, op.output))
        slices[op.name] = [
            (names[bisect.bisect_right(bases, start) - 1], start, size, w)
            for start, size, w in zip(starts[lo:lo + n].tolist(),
                                      nbytes[lo:lo + n].tolist(),
                                      writes[lo:lo + n].tolist())]
        lo += n
    assert lo == starts.size
    return slices


class TestTrace:
    @pytest.fixture(scope="class")
    def cg(self):
        dag = build_cg_dag(CgProblem(matrix=FV1, n=16, iterations=1))
        return dag, AddressMap.for_dag(dag, line_bytes=CFG.line_bytes)

    def test_op_slice_covers_all_operands(self, cg):
        dag, amap = cg
        rows = op_rows(dag, amap, CFG.rf_bytes)["1:spmm@0"]
        by_tensor = {}
        for tensor, _, size, _ in rows:
            by_tensor[tensor] = by_tensor.get(tensor, 0) + size
        assert by_tensor["A"] == dag.tensor("A").bytes
        assert by_tensor["P@0"] == dag.tensor("P@0").bytes
        assert by_tensor["S@0"] == dag.tensor("S@0").bytes

    def test_output_rows_are_writes(self, cg):
        dag, amap = cg
        for tensor, _, _, is_write in op_rows(dag, amap, CFG.rf_bytes)[
                "1:spmm@0"]:
            assert is_write == (tensor == "S@0")

    @pytest.mark.parametrize("rf_bytes", [0, 1024, CFG.rf_bytes])
    def test_small_operands_first_then_round_robin(self, cg, rf_bytes):
        """Every op's slice: its small operands whole, inputs then the
        output, then the r-th slice of every large stream still running,
        round by round."""
        dag, amap = cg
        slices = op_rows(dag, amap, rf_bytes)
        for op in dag.ops:
            operands = [(t, False) for t in op.inputs] + [(op.output, True)]
            expected = [(t.name, amap.get(t.name).base, t.bytes, w)
                        for t, w in operands if t.bytes <= rf_bytes]
            large = [(t, w) for t, w in operands if t.bytes > rf_bytes]
            offset = 0
            while any(offset < t.bytes for t, _ in large):
                expected += [
                    (t.name, amap.get(t.name).base + offset,
                     min(INTERLEAVE_CHUNK, t.bytes - offset), w)
                    for t, w in large if offset < t.bytes]
                offset += INTERLEAVE_CHUNK
            assert slices[op.name] == expected, op.name

    def test_large_streams_interleave(self, cg):
        dag, amap = cg
        rows = [r for r in op_rows(dag, amap, CFG.rf_bytes)["1:spmm@0"]
                if r[0] in ("A", "P@0")]
        # Chunks of A and P alternate rather than A finishing first.
        first_ten = [tensor for tensor, *_ in rows[:10]]
        assert "A" in first_ten and "P@0" in first_ten

    def test_program_trace_bytes_equal_oracle(self, cg):
        dag, amap = cg
        _, nbytes, _ = program_trace_arrays(dag, amap, CFG.rf_bytes)
        oracle = sum(
            sum(dag.tensor(t.name).bytes for t in op.inputs)
            + dag.tensor(op.output.name).bytes
            for op in dag.ops
        )
        assert nbytes.sum() == oracle

    def test_arrays_have_fixed_dtypes(self, cg):
        dag, amap = cg
        arrays = program_trace_arrays(dag, amap, CFG.rf_bytes)
        assert [a.dtype for a in arrays] == [np.int64, np.int64, bool]
        empty = program_trace_arrays(TensorDag(), AddressMap(), CFG.rf_bytes)
        assert [(a.size, a.dtype) for a in empty] == [
            (0, np.int64), (0, np.int64), (0, bool)]

    def test_auto_granularity_bounds_accesses(self, monkeypatch):
        monkeypatch.setattr(sim_trace, "DEFAULT_TARGET_ACCESSES", 1_000_000)
        g = auto_granularity(10**9, 16)
        assert (10**9) // (16 * g) <= 1_000_000
        assert g & (g - 1) == 0  # power of two
        assert auto_granularity(0, 16) == 1


class TestPerfModel:
    def test_compute_seconds(self):
        assert compute_seconds(16384 * 10**9, CFG) == pytest.approx(1.0)

    def test_memory_seconds(self):
        assert memory_seconds(10**12, CFG) == pytest.approx(1.0)

    def test_roofline_takes_max(self):
        r = make_result("c", "w", total_macs=16384 * 10**9,
                        dram_read_bytes=0, dram_write_bytes=10**11, cfg=CFG)
        assert r.time_s == pytest.approx(1.0)  # compute bound
        assert not r.memory_bound

    def test_memory_bound_detection(self):
        r = make_result("c", "w", total_macs=1000,
                        dram_read_bytes=10**9, dram_write_bytes=0, cfg=CFG)
        assert r.memory_bound

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            compute_seconds(-1, CFG)
        with pytest.raises(ValueError):
            memory_seconds(-1, CFG)


class TestResults:
    def _r(self, dram, macs=1000):
        return make_result("c", "w", macs, dram, 0, CFG)

    def test_speedup(self):
        fast, slow = self._r(100), self._r(400)
        assert fast.speedup_over(slow) == pytest.approx(4.0)

    def test_dram_reduction(self):
        a, b = self._r(100), self._r(400)
        assert a.dram_reduction_vs(b) == pytest.approx(0.75)

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_geomean_speedup(self):
        fast = [self._r(100), self._r(100)]
        slow = [self._r(200), self._r(800)]
        assert geomean_speedup(fast, slow) == pytest.approx(4.0)

    def test_relative_energy(self):
        res = {"a": self._r(100), "b": self._r(50)}
        rel = relative_energy(res, "a")
        assert rel == {"a": 1.0, "b": 0.5}

    def test_effective_intensity(self):
        r = self._r(dram=500, macs=1000)
        assert r.effective_intensity == pytest.approx(2.0)

    def test_as_dict_keys(self):
        d = self._r(10).as_dict()
        assert {"config", "workload", "dram_bytes", "throughput_gmacs"} <= set(d)


class TestEnergy:
    def test_offchip_energy_scales_with_traffic(self):
        assert offchip_energy_j(2000) == pytest.approx(2 * offchip_energy_j(1000))

    def test_onchip_charges_structures(self):
        e = onchip_energy_j({"cache": 1000, "chord": 1000}, CFG)
        assert e["cache"] > e["chord"]  # tag probes cost extra

    def test_unknown_structure_uses_small_cost(self):
        e = onchip_energy_j({"rf": 100}, CFG)
        assert e["rf"] > 0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            onchip_energy_j({"cache": -1}, CFG)

    def test_energy_of_result(self):
        r = make_result("c", "w", 1000, 1000, 1000, CFG,
                        onchip_accesses={"chord": 10})
        e = energy_of(r, CFG)
        assert e.total_j == pytest.approx(e.offchip_j + e.onchip_j)
        assert e.offchip_j > 0


class TestDramChannel:
    def test_ledger(self):
        d = DramChannel()
        d.read(100, "cold")
        d.write(50, "spill")
        assert d.total_bytes == 150
        assert d.by_reason == {"cold": 100, "spill": 50}

    def test_merge_stats(self):
        d = DramChannel()
        d.merge_stats(10, 20, "chord")
        assert d.read_bytes == 10
        assert d.write_bytes == 20

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DramChannel().read(-1)
