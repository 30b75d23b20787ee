"""One DAG per workload per process, and the analyses kept on it.

``registry.workload_dag`` hands every point of a registry workload the
same frozen DAG, which keeps SCORE's capacity-independent stages and the
cache trace (``TensorDag.derived``).  These tests pin three things:

* the shared DAG is immutable, and hand-rolled workloads never share;
* a point computed on the shared DAG equals the same point on a freshly
  built DAG with empty caches, for every Table IV config, Flex+SRRIP and
  a CELLO knob variant, at SRAM sizes where the cache path evicts and
  where it resolves in closed form;
* a second point of a workload at a new SRAM size builds no DAG, runs no
  Algorithm 2 and generates no trace (the gain, guarded by call counts
  rather than timing);
* the cache path's chunk facts are built once per DAG for a trace that
  fits, never kept for one that overflows the cache, and kept only up to
  ``KEPT_FACTS_BYTES`` per trace.
"""

import random
import sys
import threading
import time

import pytest

from repro.baselines import runner
from repro.baselines.configs import config_names, run_config
from repro.buffers import cache as cache_mod
from repro.core import classify as core_classify
from repro.core.dag import FrozenDagError, TensorDag
from repro.hw.config import MIB, AcceleratorConfig
from repro.orchestrator.parallel import _simulate_payload
from repro.score import scheduler
from repro.sim import engine as sim_engine
from repro.sim import trace as sim_trace
from repro.workloads import registry
from repro.workloads.registry import (
    Workload,
    random_dag_workload,
    resolve_workload,
    workload_dag,
)

#: The CI fabric-smoke grid's four DAGs (the smoke-cold benchmark's).
SMOKE = ("cg/fv1/N=1", "bicgstab/fv1/N=1", "gnn/cora", "mg/fv1/N=1")
CONFIGS = (*config_names(), "Flex+SRRIP", "CELLO[riff=0,swz=0]")
#: 1 MiB evicts on the cache path; 4 MiB + 512·k resolves in closed form
#: for the solver traces (gnn/cora overflows both).
SRAM_SIZES = (1 * MIB, 4 * MIB - 512 * 37, 4 * MIB + 512 * 1023)


@pytest.fixture(autouse=True)
def fresh_memo():
    registry.clear_dag_cache()
    runner.clear_cache()
    runner.set_store(None)
    yield
    registry.clear_dag_cache()
    runner.clear_cache()


class TestSharedDag:
    def test_memoised_dag_is_frozen(self):
        dag = workload_dag(resolve_workload("cg/fv1/N=1"))
        assert dag.frozen
        fresh = resolve_workload("gnn/cora").build()
        with pytest.raises(FrozenDagError, match="build a fresh one"):
            dag.add_op(fresh.ops[0])
        assert len(dag) == len(resolve_workload("cg/fv1/N=1").build())

    def test_fresh_builds_stay_mutable(self):
        dag = resolve_workload("cg/fv1/N=1").build()
        assert not dag.frozen
        assert workload_dag(resolve_workload("cg/fv1/N=1")) is not dag

    def test_equal_names_share_one_dag(self):
        a = workload_dag(resolve_workload("gnn/cora"))
        b = workload_dag(registry.all_workloads()["gnn/cora"])
        assert a is b

    def test_hand_rolled_workloads_build_fresh(self):
        calls = []

        def build():
            calls.append(1)
            return resolve_workload("gnn/cora").build()

        custom = Workload(name="custom/cora-copy", family="custom",
                          build=build)
        first, second = workload_dag(custom), workload_dag(custom)
        assert first is not second and len(calls) == 2
        assert not first.frozen

    def test_memo_is_bounded_oldest_first(self):
        cap = registry._DAG_CACHE_CAP
        names = [random_dag_workload(seed, n_ops=3).name
                 for seed in range(cap + 1)]
        for name in names:
            workload_dag(resolve_workload(name))
        assert len(registry._DAG_CACHE) == cap
        assert names[0] not in registry._DAG_CACHE
        assert names[-1] in registry._DAG_CACHE

    def test_add_op_drops_derived_analyses(self):
        dag = TensorDag()
        src = resolve_workload("cg/fv1/N=1").build()
        dag.add_op(src.ops[0])
        assert dag.derived("k", lambda: len(dag)) == 1
        dag.add_op(src.ops[1])
        assert dag.derived("k", lambda: len(dag)) == 2


def _points():
    """Each (workload, config) once, shuffled.  Within the cache configs
    and within the schedule-driven ones, a workload's configs rotate
    through the SRAM sizes, so every trace and every SCORE stage kept on
    the shared DAG is reused at a size other than the one that filled it
    (one size per point keeps gnn/cora's ~1 s cache runs affordable)."""
    cache = [c for c in CONFIGS if c.startswith("Flex+")]
    schedule = [c for c in CONFIGS if c not in cache]
    points = [(w, c, SRAM_SIZES[(wi + k) % len(SRAM_SIZES)])
              for wi, w in enumerate(SMOKE)
              for group in (cache, schedule)
              for k, c in enumerate(group)]
    random.Random(14).shuffle(points)
    return points


def test_shared_dag_matches_a_fresh_build():
    """Every point on the memoised DAG equals the point on a freshly
    built DAG whose caches start empty."""
    for name, config, sram in _points():
        cfg = AcceleratorConfig(sram_bytes=sram)
        shared = run_config(config, workload_dag(resolve_workload(name)),
                            cfg, workload_name=name)
        fresh = run_config(config, resolve_workload(name).build(), cfg,
                           workload_name=name)
        assert shared.to_dict() == fresh.to_dict(), (name, config, sram)


class TestSecondPointCount:
    """The gain itself: a second point of a workload at a new SRAM size
    builds no DAG, classifies nothing and generates no trace."""

    @pytest.fixture
    def spies(self, monkeypatch):
        calls = {"dag": 0, "classify": 0, "op_trace": 0}
        init = TensorDag.__init__
        classify = core_classify.classify_dependencies
        op_trace = sim_trace.op_trace

        def spy_init(self, *args, **kwargs):
            calls["dag"] += 1
            init(self, *args, **kwargs)

        def spy_classify(*args, **kwargs):
            calls["classify"] += 1
            return classify(*args, **kwargs)

        def spy_op_trace(*args, **kwargs):
            calls["op_trace"] += 1
            return op_trace(*args, **kwargs)

        monkeypatch.setattr(TensorDag, "__init__", spy_init)
        monkeypatch.setattr(scheduler, "classify_dependencies", spy_classify)
        monkeypatch.setattr(sim_trace, "op_trace", spy_op_trace)
        return calls

    @pytest.mark.parametrize("name", ["cg/fv1/N=1", "mg/fv1/N=1"])
    def test_runner_path(self, spies, name):
        workload = resolve_workload(name)
        for config in config_names():
            runner.run_workload_config(workload, config,
                                       AcceleratorConfig(sram_bytes=4 * MIB))
        assert min(spies.values()) > 0      # the first point paid for all
        spies.update(dag=0, classify=0, op_trace=0)
        for config in config_names():
            runner.run_workload_config(
                workload, config,
                AcceleratorConfig(sram_bytes=4 * MIB + 512 * 7))
        assert spies == {"dag": 0, "classify": 0, "op_trace": 0}

    def test_pool_worker_path(self, spies):
        """``_simulate_payload`` (a pool worker's entry point) shares the
        process's memo the same way."""
        cfg = AcceleratorConfig(sram_bytes=3 * MIB)
        for config in ("CELLO", "Flex+LRU"):
            _simulate_payload(("cg/fv1/N=1", config, cfg))
        spies.update(dag=0, classify=0, op_trace=0)
        for config in ("CELLO", "Flex+LRU"):
            _simulate_payload(("cg/fv1/N=1", config,
                               cfg.with_sram(3 * MIB + 512)))
        assert spies == {"dag": 0, "classify": 0, "op_trace": 0}


class TestChunkFacts:
    """The eviction-free closed form's per-chunk facts, kept on the DAG
    next to the cache trace."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = {"distinct": 0, "facts": 0}
        distinct = cache_mod._distinct_count
        facts = cache_mod.ChunkFacts.of

        def spy_distinct(*args):
            calls["distinct"] += 1
            return distinct(*args)

        def spy_facts(*args):
            calls["facts"] += 1
            return facts(*args)

        monkeypatch.setattr(cache_mod, "_distinct_count", spy_distinct)
        monkeypatch.setattr(cache_mod.ChunkFacts, "of", spy_facts)
        return calls

    @staticmethod
    def kept_facts(dag):
        return [v for v in dag._derived.values()
                if isinstance(v, cache_mod.ChunkFacts)]

    def test_second_fitting_size_builds_no_facts(self, builds):
        dag = workload_dag(resolve_workload("cg/fv1/N=1"))
        run_config("Flex+LRU", dag, AcceleratorConfig(sram_bytes=4 * MIB))
        assert builds == {"distinct": 1, "facts": 1}
        builds.update(distinct=0, facts=0)
        for config in ("Flex+LRU", "Flex+BRRIP"):
            for sram in (4 * MIB + 512 * 7, int(3.5 * MIB)):
                run_config(config, dag, AcceleratorConfig(sram_bytes=sram))
        assert builds == {"distinct": 0, "facts": 0}
        assert len(self.kept_facts(dag)) == 1

    def test_overflowing_trace_keeps_no_facts(self, builds):
        """Every chunk of cg/fv1/N=16 spans more blocks than twice a
        4 MiB cache's lines or holds more distinct blocks than it has
        lines: each is rejected before any facts are built."""
        dag = workload_dag(resolve_workload("cg/fv1/N=16"))
        run_config("Flex+LRU", dag, AcceleratorConfig(sram_bytes=4 * MIB))
        assert builds["facts"] == 0
        assert self.kept_facts(dag) == []

    def test_kept_facts_are_bounded_per_trace(self, builds):
        """gnn/cora's three chunks fit a 16 MiB cache, but each one's
        facts (~33 MB) exceed its share of ``KEPT_FACTS_BYTES``: they are
        built at every point and none is kept.  cg/fv1/N=1's facts fit
        the bound and are kept."""
        dag = workload_dag(resolve_workload("gnn/cora"))
        for config in ("Flex+LRU", "Flex+BRRIP"):
            run_config(config, dag, AcceleratorConfig(sram_bytes=16 * MIB))
        assert builds["facts"] == 6
        assert self.kept_facts(dag) == []
        dag = workload_dag(resolve_workload("cg/fv1/N=1"))
        run_config("Flex+LRU", dag, AcceleratorConfig(sram_bytes=16 * MIB))
        kept = self.kept_facts(dag)
        assert kept and sum(
            f.blocks.size for f in kept) * cache_mod.FACT_BYTES_PER_BLOCK \
            <= cache_mod.KEPT_FACTS_BYTES

    def test_facts_build_is_reported_as_trace_gen(self, monkeypatch):
        """The facts are a function of the DAG alone, so their build
        counts as trace generation, not as the cache kernel."""
        facts = cache_mod.ChunkFacts.of

        def slow_facts(*args):
            time.sleep(0.5)
            return facts(*args)

        monkeypatch.setattr(cache_mod.ChunkFacts, "of", slow_facts)
        dag = workload_dag(resolve_workload("cg/fv1/N=1"))
        seen = {}
        sim_engine.set_phase_hook(
            lambda phase, s: seen.setdefault(phase, []).append(s))
        try:
            run_config("Flex+LRU", dag, AcceleratorConfig())
        finally:
            sim_engine.set_phase_hook(None)
        assert set(seen) == {"trace-gen", "cache-kernel"}
        assert seen["trace-gen"][0] >= 0.5
        assert seen["cache-kernel"][0] < 0.5


def test_phase_hook_sees_dag_build_on_misses_only():
    seen = {}
    sim_engine.set_phase_hook(
        lambda phase, s: seen.setdefault(phase, []).append(s))
    try:
        workload = resolve_workload("cg/fv1/N=1")
        for sram in (4 * MIB, 4 * MIB + 512):
            run_config("Flex+LRU", workload_dag(workload),
                       AcceleratorConfig(sram_bytes=sram))
            run_config("CELLO", workload_dag(workload),
                       AcceleratorConfig(sram_bytes=sram))
    finally:
        sim_engine.set_phase_hook(None)
    assert len(seen["dag-build"]) == 1
    assert len(seen["schedule"]) == 2
    # trace-gen is still reported on a memo hit, as near-zero time
    assert len(seen["trace-gen"]) == 2
    assert seen["trace-gen"][1] < seen["trace-gen"][0]


def test_racing_threads_share_one_build_and_equal_analyses():
    """Daemon executor threads fill the memo and the derived caches
    concurrently.  With more threads than cores and a tiny switch
    interval, every thread still gets the one DAG per name, each name is
    built once, and every schedule equals the serial one.  Five rounds,
    because one build takes only a few milliseconds to race."""
    names = ["cg/fv1/N=1", "mg/fv1/N=1"]
    cfg = AcceleratorConfig()
    serial = {n: run_config("CELLO", resolve_workload(n).build(), cfg,
                            workload_name=n).to_dict() for n in names}
    builds, got, errors = [], [], []

    def work(barrier, i):
        try:
            name = names[i % 2]
            barrier.wait(timeout=30)
            dag = workload_dag(resolve_workload(name))
            result = run_config("CELLO", dag, cfg, workload_name=name)
            got.append((name, dag, result.to_dict()))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    sim_engine.set_phase_hook(
        lambda phase, s: builds.append(phase) if phase == "dag-build" else None)
    try:
        for _ in range(5):
            registry.clear_dag_cache()
            builds.clear()
            got.clear()
            barrier = threading.Barrier(8)
            threads = [threading.Thread(target=work, args=(barrier, i))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == [] and len(got) == 8
            assert len(builds) == len(names)
            for name in names:
                assert len({id(dag) for n, dag, _ in got if n == name}) == 1
                assert all(r == serial[name] for n, _, r in got if n == name)
    finally:
        sys.setswitchinterval(interval)
        sim_engine.set_phase_hook(None)
