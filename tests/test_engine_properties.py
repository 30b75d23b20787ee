"""Property tests: engine invariants on randomized DAGs, and the
grid-vs-random tuner agreement property.

The random einsum-DAG generator (:mod:`repro.workloads.random_dag`)
produces arbitrary valid programs; these suites assert what must hold
for *every* such program:

* after any :meth:`ScheduleEngine.run`, CHORD's incrementally-maintained
  occupancy counter equals the O(tensors) audit recomputation;
* DRAM traffic is non-negative, and CHORD byte conservation holds
  (hits + misses == read bytes requested);
* the cache baselines move DRAM traffic in whole lines (the generator
  guarantees line-aligned tensor footprints, so any misalignment would
  be an engine bug);
* a tuner grid search and a full-budget random search agree on the best
  point whenever the random budget covers the grid.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import runner
from repro.buffers.brrip import BrripPolicy
from repro.buffers.lru import LruPolicy
from repro.hw.config import KIB, AcceleratorConfig
from repro.score.scheduler import Score
from repro.sim.engine import CacheEngine, EngineOptions, ScheduleEngine
from repro.tuner import GridStrategy, RandomStrategy, TuneSpace, tune
from repro.workloads.random_dag import RandomDagProblem, build_random_dag

#: Small SRAM so random programs actually contend for capacity.
CFG = AcceleratorConfig(sram_bytes=256 * KIB)

#: Problem-shape strategy: enough variety to hit PRELUDE spills, RIFF
#: steals, table exhaustion (no-retire), and swizzle charges.
PROBLEMS = st.builds(
    RandomDagProblem,
    seed=st.integers(0, 10_000),
    n_ops=st.integers(2, 18),
    fanout=st.integers(0, 5),
    skew=st.integers(0, 4),
)

OPTION_COMBOS = [
    EngineOptions(),
    EngineOptions(use_riff=False),
    EngineOptions(explicit_retire=False),
    EngineOptions(use_riff=False, explicit_retire=False, charge_swizzle=False),
]


class TestScheduleEngineProperties:
    @given(problem=PROBLEMS)
    @settings(max_examples=40, deadline=None)
    def test_occupancy_audit_matches_incremental_counter(self, problem):
        dag = build_random_dag(problem)
        schedule = Score(CFG).schedule(dag)
        for options in OPTION_COMBOS:
            engine = ScheduleEngine(CFG, options)
            engine.run(schedule)
            chord = engine.last_chord
            assert chord is not None
            assert chord.audit_used_bytes() == chord.used_bytes
            assert chord.used_bytes <= chord.capacity_bytes

    @given(problem=PROBLEMS)
    @settings(max_examples=40, deadline=None)
    def test_dram_traffic_non_negative_and_conserved(self, problem):
        dag = build_random_dag(problem)
        schedule = Score(CFG).schedule(dag)
        for options in OPTION_COMBOS:
            engine = ScheduleEngine(CFG, options)
            result = engine.run(schedule)
            assert result.dram_read_bytes >= 0
            assert result.dram_write_bytes >= 0
            stats = engine.last_chord.stats
            # CHORD byte conservation: every missed read byte was fetched
            # from DRAM, and nothing else was (reads never over-fetch).
            assert stats.dram_read_bytes == stats.misses

    @given(problem=PROBLEMS, policy=st.sampled_from(["lru", "brrip"]))
    @settings(max_examples=25, deadline=None)
    def test_cache_engine_traffic_is_line_aligned(self, problem, policy):
        dag = build_random_dag(problem)
        # The generator guarantees line-aligned tensor footprints, so the
        # cache's whole-line transfers must keep traffic line-aligned.
        for t in dag.tensors:
            assert t.bytes % CFG.line_bytes == 0
        eng = CacheEngine(
            CFG, LruPolicy() if policy == "lru" else BrripPolicy(),
            granularity=1,
        )
        result = eng.run(dag)
        assert result.dram_read_bytes >= 0
        assert result.dram_write_bytes >= 0
        assert result.dram_read_bytes % CFG.line_bytes == 0
        assert result.dram_write_bytes % CFG.line_bytes == 0

    @given(problem=PROBLEMS)
    @settings(max_examples=15, deadline=None)
    def test_runs_are_reproducible(self, problem):
        dag = build_random_dag(problem)
        schedule = Score(CFG).schedule(dag)
        a = ScheduleEngine(CFG).run(schedule)
        b = ScheduleEngine(CFG).run(schedule)
        assert a == b


class TestGridRandomAgreementProperty:
    @pytest.fixture(autouse=True)
    def _fresh_runner_state(self):
        runner.clear_cache()
        runner.reset_simulation_count()
        runner.set_store(None)
        yield
        runner.clear_cache()
        runner.set_store(None)

    @given(rand_seed=st.integers(0, 1000), dag_seed=st.integers(0, 50))
    @settings(max_examples=8, deadline=None)
    def test_full_budget_random_equals_grid_best(self, rand_seed, dag_seed):
        """When the random budget covers the whole grid, both strategies
        see the same evaluations and must name the same best point."""
        workload = f"rand/s={dag_seed}/ops=8/f=2/k=2"
        space = TuneSpace(chord_entries=(64, 8))
        grid = tune(workload, space=space, strategy=GridStrategy(),
                    base_cfg=CFG, objectives=("runtime", "dram"))
        rand = tune(workload, space=space,
                    strategy=RandomStrategy(budget=len(space), seed=rand_seed),
                    base_cfg=CFG, objectives=("runtime", "dram"))
        assert rand.best.point == grid.best.point
        assert rand.best.objectives == grid.best.objectives


class TestNoSharedDefaultInstances:
    """Regression for the shared default-instance arguments: every engine
    constructs its own options; experiment ``run()`` signatures resolve
    ``cfg=None`` to a fresh config per call."""

    def test_two_engines_never_alias_options(self):
        a = ScheduleEngine(CFG)
        b = ScheduleEngine(CFG)
        assert a.options is not b.options
        assert a.options == b.options

    def test_explicit_options_are_kept_by_reference(self):
        options = EngineOptions(use_riff=False)
        assert ScheduleEngine(CFG, options).options is options

    def test_score_instances_never_alias_options(self):
        assert Score().options is not Score().options

    def test_experiment_run_resolves_none_cfg_per_call(self):
        from repro.experiments import fig15_area_energy
        from repro.hw.config import default_config

        assert default_config(None) is not default_config(None)
        assert fig15_area_energy.run() == fig15_area_energy.run()
