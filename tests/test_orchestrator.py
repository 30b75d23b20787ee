"""Tests for the orchestrator: sweep specs, parallel execution, and the
persistent result store."""

import json

import pytest

from repro.baselines import runner
from repro.experiments.common import prewarm_grid
from repro.hw.config import MIB, AcceleratorConfig
from repro.orchestrator import (
    ResultStore,
    SweepPoint,
    SweepSpec,
    prewarm,
    result_key,
    run_points,
    run_sweep,
)
from repro.orchestrator import store as store_mod
from repro.sim.results import SimResult
from repro.workloads.matrices import FV1
from repro.workloads.registry import all_workloads, cg_workload, resolve_workload

CFG = AcceleratorConfig()

#: Tiny but real sweep: 2-iteration CG, two block widths, two configs.
SPEC = SweepSpec(
    workloads=("cg/fv1/N=1@it2", "cg/fv1/N=16@it2"),
    configs=("Flexagon", "CELLO"),
)


@pytest.fixture(autouse=True)
def _fresh_runner_state():
    runner.clear_cache()
    runner.reset_simulation_count()
    runner.set_store(None)
    yield
    runner.clear_cache()
    runner.set_store(None)


def sample_result() -> SimResult:
    return SimResult(
        config="CELLO", workload="cg/fv1/N=1", total_macs=123456,
        dram_read_bytes=1000, dram_write_bytes=200,
        compute_s=1e-5, memory_s=2e-5,
        onchip_accesses={"chord": 42, "rf": 7},
    )


class TestSimResultRoundTrip:
    def test_to_from_dict_identity(self):
        r = sample_result()
        assert SimResult.from_dict(r.to_dict()) == r

    def test_survives_json(self):
        r = sample_result()
        assert SimResult.from_dict(json.loads(json.dumps(r.to_dict()))) == r

    def test_missing_onchip_defaults_empty(self):
        d = sample_result().to_dict()
        del d["onchip_accesses"]
        assert SimResult.from_dict(d).onchip_accesses == {}


class TestResolveWorkload:
    def test_round_trips_every_registered_name(self):
        for name in all_workloads():
            assert resolve_workload(name).name == name

    def test_iteration_suffix(self):
        w = resolve_workload("cg/fv1/N=4@it3")
        assert w.name == "cg/fv1/N=4@it3"
        assert w.family == "cg"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            resolve_workload("madeup/thing")
        with pytest.raises(KeyError):
            resolve_workload("cg/not_a_matrix/N=1")


class TestSweepSpec:
    def test_pattern_expansion(self):
        spec = SweepSpec(workloads=("gnn/*",), configs=("CELLO",))
        assert [p.workload for p in spec.points()] == ["gnn/cora", "gnn/protein"]

    def test_literal_unmatched_name_kept(self):
        spec = SweepSpec(workloads=("cg/fv1/N=1@it2",), configs=("CELLO",))
        assert [p.workload for p in spec.points()] == ["cg/fv1/N=1@it2"]

    def test_cfg_variants_cross_product(self):
        spec = SweepSpec(
            workloads=("gnn/cora",), configs=("CELLO",),
            sram_bytes=(1 * MIB, 4 * MIB), bandwidths=(250e9, 1000e9),
        )
        assert len(spec.points()) == 4
        srams = {p.cfg.sram_bytes for p in spec.points()}
        assert srams == {1 * MIB, 4 * MIB}

    def test_bandwidth_variants_share_traffic_key(self):
        spec = SweepSpec(
            workloads=("gnn/cora",), configs=("CELLO",),
            bandwidths=(250e9, 1000e9),
        )
        keys = {p.key() for p in spec.points()}
        assert len(spec.points()) == 2 and len(keys) == 1


class TestParallelExecution:
    def test_parallel_matches_serial(self):
        serial = run_sweep(SPEC, jobs=1)
        runner.clear_cache()
        parallel = run_sweep(SPEC, jobs=2)
        assert serial == parallel

    def test_prewarm_counts_and_caches(self):
        n = prewarm(SPEC.points(), jobs=2)
        assert n == len(SPEC.points())
        assert runner.simulation_count() == n
        # Everything is cached now: replay simulates nothing.
        run_sweep(SPEC, jobs=1)
        assert runner.simulation_count() == n

    def test_prewarm_skips_unresolvable(self):
        bogus = SweepPoint("not/registered", "CELLO", CFG)
        assert prewarm([bogus], jobs=2) == 0

    def test_run_points_rejects_unresolvable(self):
        with pytest.raises(KeyError):
            run_points([SweepPoint("not/registered", "CELLO", CFG)], jobs=1)


class TestResultStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        key = result_key("CELLO", "cg/fv1/N=1", CFG, None)
        r = sample_result()
        store.put(key, r)
        assert store.get(key) == r

    def test_persists_across_instances(self, tmp_path):
        key = result_key("CELLO", "cg/fv1/N=1", CFG, None)
        ResultStore(tmp_path).put(key, sample_result())
        reopened = ResultStore(tmp_path)
        assert len(reopened) == 1
        assert reopened.get(key) == sample_result()

    def test_miss_is_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(result_key("CELLO", "none", CFG, None)) is None

    def test_schema_bump_invalidates(self, tmp_path):
        key = result_key("CELLO", "cg/fv1/N=1", CFG, None)
        ResultStore(tmp_path, schema_version=1).put(key, sample_result())
        bumped = ResultStore(tmp_path, schema_version=2)
        assert len(bumped) == 0
        assert bumped.stale == 1
        assert bumped.get(key) is None

    def test_clear_removes_files(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(result_key("CELLO", "cg/fv1/N=1", CFG, None), sample_result())
        legacy = tmp_path / "stats.json"   # an older version's run ledger
        legacy.write_text("{}")
        assert store.clear() == 1
        assert not store.path.exists() and not legacy.exists()
        assert len(ResultStore(tmp_path)) == 0

    def test_torn_trailing_line_ignored(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(result_key("CELLO", "cg/fv1/N=1", CFG, None), sample_result())
        with store.path.open("a") as fh:
            fh.write('{"v": 1, "key": [truncated')
        assert len(ResultStore(tmp_path)) == 1

    def test_warm_store_means_zero_simulations(self, tmp_path):
        runner.set_store(ResultStore(tmp_path))
        run_sweep(SPEC, jobs=2)
        first = runner.simulation_count()
        assert first == len(SPEC.points())
        # Fresh process-local state, same disk: everything replays.
        runner.clear_cache()
        runner.reset_simulation_count()
        runner.set_store(ResultStore(tmp_path))
        run_sweep(SPEC, jobs=2)
        assert runner.simulation_count() == 0

    def test_unwritable_location_degrades_to_memory(self, tmp_path, capsys):
        blocked = tmp_path / "file"
        blocked.write_text("not a directory")
        store = ResultStore(blocked / "nested")
        key = result_key("CELLO", "cg/fv1/N=1", CFG, None)
        store.put(key, sample_result())          # must not raise
        assert store.get(key) == sample_result()  # in-memory tier still works
        assert "unwritable" in capsys.readouterr().err

    def test_lookups_leave_no_trace(self, tmp_path):
        """``get`` is a plain lookup: a hit or a miss changes neither the
        store object nor its directory."""
        store = ResultStore(tmp_path)
        key = result_key("CELLO", "cg/fv1/N=1", CFG, None)
        store.put(key, sample_result())
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        state = dict(vars(store))
        for _ in range(3):
            assert store.get(key) == sample_result()
            assert store.get(result_key("CELLO", "none", CFG, None)) is None
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert sorted(before) == [store_mod.RESULTS_FILE]
        assert vars(store).keys() == state.keys()
        for name in ("hits", "misses", "simulations"):
            assert not hasattr(store, name)

    def test_concurrent_puts_and_gets_agree(self, tmp_path):
        import threading

        store = ResultStore(tmp_path)
        keys = [result_key("CELLO", f"cg/fv1/N={n}", CFG, None)
                for n in range(1, 33)]
        seen = []

        def worker(chunk):
            for key in chunk:
                store.put(key, sample_result())
                seen.append(store.get(key))

        threads = [threading.Thread(target=worker, args=(keys[i::4],))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == [sample_result()] * len(keys)
        assert len(store) == len(keys)
        reopened = ResultStore(tmp_path)
        assert all(reopened.get(key) == sample_result() for key in keys)

    def test_clear_removes_a_lone_old_ledger(self, tmp_path):
        legacy = tmp_path / "stats.json"   # an older version's run ledger
        legacy.write_text('{"cumulative": {"hits": 1}}')
        assert ResultStore(tmp_path).clear() == 0
        assert list(tmp_path.iterdir()) == []


class TestRunnerTiers:
    """The runner's two result tiers: the process-local memo in front of
    the persistent store."""

    def test_peek_promotes_a_store_hit_into_the_memo(self, tmp_path,
                                                     monkeypatch):
        key = result_key("CELLO", "cg/fv1/N=1", CFG, None)
        store = ResultStore(tmp_path)
        store.put(key, sample_result())
        runner.set_store(store)
        assert runner.peek(key) == sample_result()

        def unreachable(_key):
            raise AssertionError("a promoted key must not reach the store")

        monkeypatch.setattr(store, "get", unreachable)
        assert runner.peek(key) == sample_result()
        assert runner.simulation_count() == 0

    def test_warm_repeats_simulate_once_and_store_once(self, tmp_path):
        store = ResultStore(tmp_path)
        runner.set_store(store)
        workload = resolve_workload("cg/fv1/N=1@it2")
        results = [runner.run_workload_config(workload, "CELLO", CFG)
                   for _ in range(3)]
        assert results[0] == results[1] == results[2]
        assert runner.simulation_count() == 1
        assert len(store) == 1
        assert len(store.path.read_text().splitlines()) == 1


class TestCliIntegration:
    def test_sweep_and_cache_commands(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        argv = ["sweep", "--workloads", "cg/fv1/N=1@it2",
                "--configs", "Flexagon,CELLO", "--jobs", "2",
                "--cache-dir", cache]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "CELLO" in out and "Sweep: 2 points" in out
        assert runner.simulation_count() == 2

        assert main(["cache", "stat", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "entries:        2" in out
        assert "cg/fv1/N=1@it2" in out and "2 entries" in out

        # Second, warm run: every point replays from disk.
        runner.clear_cache()
        runner.reset_simulation_count()
        assert main(argv) == 0
        capsys.readouterr()
        assert runner.simulation_count() == 0
        assert main(["cache", "stat", "--cache-dir", cache]) == 0
        assert "entries:        2" in capsys.readouterr().out

        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert "cleared 2" in capsys.readouterr().out

    def test_cache_commands_ignore_and_remove_an_old_run_ledger(
            self, tmp_path, capsys):
        from repro.cli import main

        cache = tmp_path / "cache"
        ResultStore(cache).put(result_key("CELLO", "cg/fv1/N=1", CFG, None),
                               sample_result())
        # The run-counter ledger older versions wrote beside the results.
        ledger = cache / "stats.json"
        ledger.write_text(json.dumps({
            "last_run": {"hits": 3, "misses": 2, "simulations": 2},
            "cumulative": {"hits": 9, "misses": 4, "simulations": 4}}))
        assert main(["cache", "stat", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "entries:        1" in out
        assert "last run" not in out and "cumulative" not in out
        assert "hits" not in out and "misses" not in out
        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        assert "cleared 1" in capsys.readouterr().out
        assert not ledger.exists() and not (cache / "results.jsonl").exists()

    @pytest.mark.parametrize("argv, written", [
        (["fig2"], []),
        (["sweep", "--workloads", "cg/fv1/N=1@it2", "--configs", "CELLO"],
         [store_mod.RESULTS_FILE]),
        (["tune", "cg/fv1/N=1@it2", "--sram-mb", "4", "--entries", "64"],
         [store_mod.RESULTS_FILE]),
    ], ids=["experiment", "sweep", "tune"])
    def test_runs_write_no_run_ledger(self, tmp_path, capsys, argv, written):
        """Experiment, sweep and tune runs write their results to the
        store directory and nothing else (fig2 simulates nothing)."""
        from repro.cli import main

        cache = tmp_path / "cache"
        assert main([*argv, "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        found = sorted(p.name for p in cache.iterdir()) \
            if cache.exists() else []
        assert found == written
        assert not hasattr(store_mod, "STATS_FILE")

    def test_experiment_honours_no_cache(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "unused"))
        assert main(["fig2", "--no-cache"]) == 0
        capsys.readouterr()
        assert not (tmp_path / "unused").exists()

    def test_unknown_sweep_config_errors(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--configs", "NotAConfig"]) == 2
        assert "unknown config" in capsys.readouterr().err

    def test_invalid_sweep_grid_errors(self, capsys):
        from repro.cli import main

        for flag, value, needle in (("--sram-mb", "0", "sram_bytes"),
                                    ("--bandwidth-gb", "-5", "bandwidth")):
            assert main(["sweep", "--workloads", "cg/fv1/N=1",
                         "--configs", "CELLO", flag, value]) == 2
            err = capsys.readouterr().err
            assert err.startswith("invalid sweep grid: ") and needle in err

    def test_unknown_sweep_workload_errors(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--workloads", "totally/bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err and "gnn/cora" in err


class TestOrchestratorPool:
    """The resident pool behind the service daemon (and its fallbacks)."""

    def test_serial_pool_declines_work(self):
        from repro.orchestrator import OrchestratorPool

        with OrchestratorPool(jobs=1) as pool:
            assert pool.warm() is False
            assert pool.run_payloads(
                [("cg/fv1/N=1@it2", "CELLO", CFG)]) is None
            assert pool.snapshot()["batches"] == 0

    @pytest.mark.parametrize("jobs", [0, -5])
    def test_out_of_range_width_is_refused(self, jobs):
        from repro.orchestrator import OrchestratorPool
        from repro.orchestrator.parallel import SettingError

        with pytest.raises(SettingError, match="jobs must be at least 1"):
            OrchestratorPool(jobs)
        with pytest.raises(SettingError) as refused:
            prewarm([SweepPoint("cg/fv1/N=1@it2", "CELLO", CFG)], jobs=jobs)
        assert (refused.value.setting, refused.value.value) == ("jobs", jobs)

    def test_pool_reused_across_batches(self):
        from repro.orchestrator import OrchestratorPool

        points = [SweepPoint("cg/fv1/N=1@it2", c, CFG)
                  for c in ("Flexagon", "CELLO")]
        with OrchestratorPool(jobs=2) as pool:
            if not pool.warm():
                pytest.skip("no process-pool support in this sandbox")
            assert prewarm(points[:1], pool=pool) == 1
            assert prewarm(points, pool=pool) == 1  # only the uncached one
            snap = pool.snapshot()
            assert snap["batches"] == 2 and snap["payloads"] == 2
            assert not snap["broken"]
        # Pool-dispatched results equal direct serial simulation.
        parallel = [runner.run_workload_config(
            resolve_workload(p.workload), p.config, p.cfg) for p in points]
        runner.clear_cache()
        serial = [runner.run_workload_config(
            resolve_workload(p.workload), p.config, p.cfg) for p in points]
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]

    def test_broken_pool_falls_back_to_serial(self, monkeypatch):
        from repro.orchestrator import OrchestratorPool
        from repro.orchestrator import parallel as parallel_mod

        pool = OrchestratorPool(jobs=2)
        monkeypatch.setattr(
            OrchestratorPool, "_ensure",
            lambda self: (_ for _ in ()).throw(OSError("no forks here")))
        # Each infrastructure failure counts a strike; prewarm still
        # completes serially every time.
        assert pool.warm() is False
        assert pool.strikes == 1 and not pool.broken
        points = [SweepPoint("cg/fv1/N=1@it2", "CELLO", CFG)]
        assert prewarm(points, pool=pool) == 1
        assert runner.simulation_count() == 1
        assert pool.strikes == 2 and not pool.broken
        # The third strike retires the pool to the serial path for good.
        assert pool.warm() is False
        assert pool.broken
        runner.clear_cache()
        assert prewarm(points, pool=pool) == 1  # still works, serially

    def test_pool_rebuilds_after_a_dead_worker(self):
        """A dead worker costs one batch (run serially by the caller) and
        one strike; the next batch runs on a rebuilt executor."""
        import os
        import signal
        import time
        from concurrent.futures.process import BrokenProcessPool

        from repro.orchestrator import OrchestratorPool

        payloads = [("cg/fv1/N=1@it2", "CELLO", CFG)]
        with OrchestratorPool(jobs=2) as pool:
            if not pool.warm():
                pytest.skip("no process-pool support on this platform")
            executor = pool._pool
            os.kill(executor.submit(os.getpid).result(), signal.SIGKILL)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    executor.submit(int)
                except BrokenProcessPool:
                    break
                time.sleep(0.01)
            assert pool.run_payloads(payloads) is None
            assert pool.strikes == 1 and not pool.broken
            encoded = pool.run_payloads(payloads)
            assert encoded is not None and len(encoded) == 1
            assert pool._pool is not executor
            assert pool.snapshot()["batches"] == 1

    def test_shared_pool_routes_prewarm(self):
        from repro.orchestrator import (
            OrchestratorPool,
            get_shared_pool,
            set_shared_pool,
        )

        assert get_shared_pool() is None
        pool = OrchestratorPool(jobs=2)
        set_shared_pool(pool)
        try:
            assert get_shared_pool() is pool
            points = [SweepPoint("cg/fv1/N=1@it2", c, CFG)
                      for c in ("Flexagon", "CELLO")]
            # jobs=1 call still routes through the installed shared pool
            # (or its serial fallback when pools are unavailable).
            assert prewarm(points, jobs=1) == 2
            assert runner.peek(points[0].key()) is not None
        finally:
            set_shared_pool(None)
            pool.close()
        assert get_shared_pool() is None


class TestPrewarmGrid:
    """``experiments.common.prewarm_grid``, the figures' parallel warm-up."""

    WORKLOADS = (cg_workload(FV1, n=1, iterations=2),
                 cg_workload(FV1, n=16, iterations=2))
    CONFIGS = ("Flexagon", "CELLO")

    def test_serial_is_a_no_op(self):
        assert prewarm_grid(self.WORKLOADS, self.CONFIGS, [CFG], jobs=1) == 0
        assert runner.simulation_count() == 0

    def test_parallel_warms_every_point_once(self):
        assert prewarm_grid(self.WORKLOADS, self.CONFIGS, [CFG], jobs=2) == 4
        assert runner.simulation_count() == 4
        for w in self.WORKLOADS:
            for c in self.CONFIGS:
                assert runner.peek(SweepPoint(w.name, c, CFG).key()) is not None
        assert prewarm_grid(self.WORKLOADS, self.CONFIGS, [CFG], jobs=2) == 0
