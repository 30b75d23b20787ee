"""Edge-case and failure-injection tests for the engines and schedule IR."""

from dataclasses import replace

import pytest

from repro.buffers.brrip import BrripPolicy
from repro.buffers.lru import LruPolicy
from repro.hw.config import AcceleratorConfig
from repro.score.schedule_ir import Route, TensorPlacement
from repro.score.scheduler import Score
from repro.sim.engine import CacheEngine, EngineOptions, ScheduleEngine
from repro.workloads.cg import CgProblem, build_cg_dag
from repro.workloads.matrices import FV1

CFG = AcceleratorConfig()


def small_cg():
    return build_cg_dag(CgProblem(matrix=FV1, n=16, iterations=2))


class TestSwizzleCharging:
    def test_forced_swizzle_charges_round_trip(self):
        dag = small_cg()
        sched = Score(CFG).schedule(dag)
        base = ScheduleEngine(CFG).run(sched)
        # Force one streaming consumer of S@0 to be swizzled.
        p = sched.placements["S@0"]
        sched.placements["S@0"] = replace(p, swizzled_consumers=("4:rupd@0",))
        forced = ScheduleEngine(CFG).run(sched)
        s_bytes = dag.tensor("S@0").bytes
        assert forced.dram_bytes == base.dram_bytes + 2 * s_bytes

    def test_swizzle_charge_can_be_disabled(self):
        dag = small_cg()
        sched = Score(CFG).schedule(dag)
        p = sched.placements["S@0"]
        sched.placements["S@0"] = replace(p, swizzled_consumers=("4:rupd@0",))
        base = ScheduleEngine(CFG, EngineOptions(charge_swizzle=False)).run(sched)
        clean_sched = Score(CFG).schedule(dag)
        clean = ScheduleEngine(CFG).run(clean_sched)
        assert base.dram_bytes == clean.dram_bytes

    def test_rf_swizzles_never_charged(self):
        dag = small_cg()
        sched = Score(CFG).schedule(dag)
        base = ScheduleEngine(CFG).run(sched)
        p = sched.placements["Lambda@0"]  # RF-resident small tensor
        sched.placements["Lambda@0"] = replace(
            p, swizzled_consumers=tuple(p.consumer_routes)
        )
        forced = ScheduleEngine(CFG).run(sched)
        assert forced.dram_bytes == base.dram_bytes


class TestDirectDramRoute:
    def test_direct_routes_charge_full_tensor(self):
        dag = small_cg()
        sched = Score(CFG).schedule(dag)
        # Rewire S@0 entirely to DRAM-direct (a scratchpad-less fallback).
        p = sched.placements["S@0"]
        routes = {c: Route.DRAM for c in p.consumer_routes}
        sched.placements["S@0"] = TensorPlacement(
            tensor="S@0", write_route=Route.DRAM, consumer_routes=routes,
            major_rank=p.major_rank, swizzled_consumers=(),
        )
        r = ScheduleEngine(CFG).run(sched)
        s_bytes = dag.tensor("S@0").bytes
        # One write + one read per consumer, uncachable.
        assert r.dram_bytes >= s_bytes * (1 + len(routes))


class TestPlacementApi:
    def test_route_for_unknown_consumer_raises(self):
        dag = small_cg()
        sched = Score(CFG).schedule(dag)
        with pytest.raises(KeyError):
            sched.placement("S@0").route_for("not-a-consumer")

    def test_unknown_tensor_placement_raises(self):
        dag = small_cg()
        sched = Score(CFG).schedule(dag)
        with pytest.raises(KeyError):
            sched.placement("nope")
        with pytest.raises(KeyError):
            sched.op_schedule("nope")


class TestCacheEngineShapes:
    @pytest.mark.parametrize("policy_cls", [LruPolicy, BrripPolicy])
    def test_coarsening_preserves_shape_across_policies(self, policy_cls):
        dag = build_cg_dag(CgProblem(matrix=FV1, n=1, iterations=1))
        exact = CacheEngine(CFG, policy_cls(), granularity=1).run(dag)
        coarse = CacheEngine(CFG, policy_cls(), granularity=4).run(dag)
        assert 0.7 < coarse.dram_bytes / exact.dram_bytes < 1.3


class TestEngineAudit:
    def test_last_chord_exposed(self):
        sched = Score(CFG).schedule(small_cg())
        eng = ScheduleEngine(CFG)
        assert eng.last_chord is None
        eng.run(sched)
        assert eng.last_chord is not None
        assert eng.last_dram is not None
        assert eng.last_dram.total_bytes > 0

    def test_dram_ledger_attribution(self):
        sched = Score(CFG).schedule(small_cg())
        eng = ScheduleEngine(CFG)
        r = eng.run(sched)
        reasons = eng.last_dram.by_reason
        assert sum(reasons.values()) == r.dram_bytes
        assert any(k.startswith("chord") for k in reasons)
