"""Edge cases of the human-facing report renderers: empty job tables,
failed-job rows, degenerate Pareto fronts, dominated incumbents, and the
fidelity accounting line.

The happy paths run constantly under the CLI and loopback suites; what
breaks in the field is the empty/failed/degenerate input a renderer sees
exactly once — so each of those gets pinned here.
"""

import dataclasses

from repro.analysis.service_report import (
    render_jobs,
    render_metrics,
    summarize_sweep_outcome,
    sweep_outcome_rows,
)
from repro.analysis.tuner_report import (
    ANALYTIC_ERROR_BOUND,
    render_fidelity_line,
    render_tune_result,
)
from repro.hw.config import GB, MIB, AcceleratorConfig
from repro.service.client import PointResult, SweepOutcome
from repro.sim.perf import make_result
from repro.tuner.space import TunePoint
from repro.tuner.tuner import TuneEval, TuneResult


def _result(dram_read=1000, dram_write=100):
    return make_result(config="CELLO", workload="w", total_macs=10_000,
                       dram_read_bytes=dram_read, dram_write_bytes=dram_write,
                       cfg=AcceleratorConfig(), onchip_accesses={"T": 5_000})


def _eval(runtime, dram, point=None, fidelity="exact"):
    point = point or TunePoint()
    # Memory-bound result whose traffic (and so runtime) tracks the dram
    # objective, keeping the rendered headroom ratios exact.
    return TuneEval(point=point, config=point.config_name(),
                    objectives={"runtime": runtime, "dram": dram},
                    result=_result(dram_read=int(dram * 1_000_000),
                                   dram_write=0),
                    fidelity=fidelity)


def _tune_result(evaluations, incumbent, **kwargs):
    defaults = dict(workload="w", strategy="grid",
                    objectives=("runtime", "dram"),
                    evaluations=tuple(evaluations), incumbent=incumbent,
                    n_simulations=len(evaluations))
    defaults.update(kwargs)
    return TuneResult(**defaults)


class TestJobsTable:
    def test_empty_registry_renders_guidance_not_a_table(self):
        out = render_jobs([])
        assert out == "no jobs tracked (submit one with 'repro submit')"

    def test_failed_job_row_shows_the_error(self):
        out = render_jobs([
            {"id": "j1", "kind": "sweep", "state": "done", "done": 4,
             "total": 4, "simulations": 4, "summary": "ok"},
            {"id": "j2", "kind": "sweep", "state": "error", "done": 1,
             "total": 4, "error": "unknown workload 'nope'"},
        ])
        assert "Jobs: 2" in out
        assert "unknown workload 'nope'" in out
        assert "1/4" in out  # partial progress of the failed job

    def test_row_tolerates_missing_fields(self):
        # A job dict from an older/newer server may omit counters.
        out = render_jobs([{"id": "j1"}])
        assert "j1" in out and "0/0" in out


class TestStatusRendering:
    """What the retired ``stats``/``topology`` views showed, now lines
    of the one ``render_metrics`` report."""

    def test_fresh_server_metrics_render_zero_counters(self):
        out = render_metrics({"role": "shard", "protocol": 8,
                              "uptime_s": 0.0, "points_streamed": 0,
                              "simulations": 0, "hits_total": 0,
                              "coalesced_total": 0, "shed_total": 0,
                              "rates": {}, "queue_clients": {},
                              "pool": {"jobs": 2, "batches": 0,
                                       "payloads": 0, "broken": False},
                              "store": None})
        assert "uptime 0.0 s" in out
        assert ("pool:            2 worker(s), 0 batches / 0 payloads"
                in out) and "broken" not in out
        assert "points streamed: 0" in out
        assert "sims/s:          0.0 (over 60 s)" in out
        assert "warm hits:       0" in out
        assert "coalesced:       0" in out
        assert "shed:            0" in out
        assert "jobs:            none" in out
        assert "store:           disabled" in out

    def test_store_and_broken_pool_lines(self):
        out = render_metrics({
            "role": "shard", "protocol": 8, "uptime_s": 10.0,
            "host": "127.0.0.1", "port": 8642,
            "points_streamed": 20, "simulations": 5,
            "hits_total": 12, "coalesced_total": 3, "shed_total": 0,
            "jobs": {"done": 2, "error": 1}, "rates": {},
            "queue_clients": {},
            "pool": {"jobs": 4, "batches": 3, "payloads": 20,
                     "broken": True},
            "store": {"directory": "/tmp/cache", "schema_version": 3,
                      "entries": 7},
        })
        assert ("pool:            4 worker(s), 3 batches / 20 payloads "
                "[broken: serial fallback]") in out
        assert "address:         127.0.0.1:8642" in out
        assert "2 done, 1 error" in out
        assert "store:           /tmp/cache (schema v3)" in out
        assert "store entries:   7" in out
        assert "warm hits:       12" in out
        assert "coalesced:       3" in out

    def test_warm_hits_and_coalesced_are_separate_lines(self):
        # The daemon reports the dedup sources separately; there is no
        # aggregate-ratio line.
        out = render_metrics({
            "role": "shard", "uptime_s": 10.0, "points_streamed": 20,
            "simulations": 5, "hits_total": 9, "coalesced_total": 6,
            "shed_total": 2, "rates": {},
        })
        assert "warm hits:       9" in out
        assert "coalesced:       6" in out
        assert "shed:            2" in out
        assert "answered without simulating" not in out

    def test_gateway_metrics_render_ring_and_shard_protocols(self):
        out = render_metrics({
            "role": "gateway", "protocol": 4, "host": "127.0.0.1",
            "port": 9000, "replicas": 64, "requeued_total": 5,
            "uptime_s": 10.0, "points_streamed": 20, "jobs": {"done": 2},
            "shards_healthy": 1, "shards_total": 2, "rates": {},
            "shards": [
                {"id": "127.0.0.1:8643", "healthy": True, "protocol": 4,
                 "deaths": 0, "requeued": 0, "error": None},
                {"id": "127.0.0.1:8644", "healthy": False, "protocol": None,
                 "deaths": 1, "requeued": 5,
                 "error": "unreachable: refused"},
            ],
        })
        assert "Metrics: gateway (protocol v4" in out
        assert "address:         127.0.0.1:9000" in out
        assert "hash ring:       64 virtual node(s) per shard" in out
        assert "requeued total:  5" in out
        assert "shards healthy:  1/2" in out
        assert "2 done" in out
        header = next(line for line in out.splitlines()
                      if line.startswith("shard "))
        assert header.split()[:3] == ["shard", "health", "proto"]
        up = next(line for line in out.splitlines()
                  if line.startswith("127.0.0.1:8643"))
        down = next(line for line in out.splitlines()
                    if line.startswith("127.0.0.1:8644"))
        assert up.split()[1:3] == ["up", "v4"]
        assert down.split()[1:3] == ["DOWN", "?"]
        assert "unreachable: refused" in down


class TestMetricsRendering:
    def test_shard_metrics_render_every_operational_counter(self):
        out = render_metrics({
            "role": "shard", "protocol": 5, "uptime_s": 12.5,
            "jobs": {"done": 3}, "points_streamed": 40,
            "simulations": 10, "hits_total": 20, "coalesced_total": 8,
            "shed_total": 2, "queue_depth": 3, "max_pending": 64,
            "in_flight": 5,
            "queue_clients": {"alice": 2, "bob": 1},
            "rates": {"window_s": 60.0, "sims_per_s": 1.25,
                      "points_per_s": 5.0, "analytic_evals_per_s": 0.0},
            "store": {"entries": 10, "corrupt": 0, "stale": 0,
                      "duplicates": 2},
        })
        assert "Metrics: shard (protocol v5" in out
        assert "sims/s:          1.25 (over 60 s)" in out
        assert "warm hits:       20" in out
        assert "coalesced:       8" in out
        assert "shed:            2" in out
        assert "queue depth:     3/64 (+5 in flight)" in out
        assert "alice" in out and "2 queued" in out
        assert "store entries:   10" in out
        assert "2 duplicates" in out
        assert "check disk" not in out  # corrupt == 0: no scare line

    def test_shard_metrics_flag_corrupt_store_records(self):
        out = render_metrics({
            "role": "shard", "protocol": 5, "uptime_s": 1.0,
            "rates": {}, "queue_clients": {},
            "store": {"entries": 1, "corrupt": 3, "stale": 0,
                      "duplicates": 0},
        })
        assert "3 corrupt" in out
        assert "corrupt records growing; check disk" in out

    def test_shard_metrics_report_no_store_lookup_rate(self):
        """The warm-hit counter is the one hit count shown; lookup
        counters an older shard still sends are not rendered."""
        out = render_metrics({
            "role": "shard", "protocol": 7, "uptime_s": 1.0,
            "hits_total": 4, "rates": {}, "queue_clients": {},
            "store": {"entries": 2, "hits": 0, "misses": 7,
                      "hit_rate": 0.0, "corrupt": 0},
        })
        assert "warm hits:       4" in out
        assert "store entries:   2" in out
        assert "hit rate" not in out and "misses" not in out

    def test_shard_metrics_without_a_store(self):
        out = render_metrics({"role": "shard", "protocol": 5,
                              "uptime_s": 0.0, "rates": {},
                              "queue_clients": {}, "store": None})
        assert "store:           disabled" in out

    def test_gateway_metrics_render_shard_health_table(self):
        out = render_metrics({
            "role": "gateway", "protocol": 5, "uptime_s": 30.0,
            "jobs": {"done": 1, "running": 1}, "points_streamed": 100,
            "requeued_total": 7, "shards_healthy": 2, "shards_total": 3,
            "rates": {"window_s": 60.0, "points_per_s": 3.5},
            "shards": [
                {"id": "127.0.0.1:8643", "healthy": True, "deaths": 0,
                 "requeued": 0, "error": None},
                {"id": "127.0.0.1:8644", "healthy": False, "deaths": 2,
                 "requeued": 7, "error": "unreachable: refused"},
            ],
        })
        assert "Metrics: gateway (protocol v5" in out
        assert "points/s:        3.5 (over 60 s)" in out
        assert "requeued total:  7" in out
        assert "shards healthy:  2/3" in out
        assert "DOWN" in out and "unreachable: refused" in out


class TestSweepOutcome:
    def _outcome(self, n_points):
        points = [
            PointResult(workload="w", config="CELLO", sram_bytes=4 * MIB,
                        bandwidth_bytes_per_s=256 * GB, result=_result())
            for _ in range(n_points)
        ]
        return SweepOutcome(job_id="j9", points=points, simulations=1,
                            hits=n_points - 1 if n_points else 0,
                            coalesced=0, elapsed_s=0.25)

    def test_summary_line_is_greppable(self):
        line = summarize_sweep_outcome(self._outcome(3))
        assert line == ("job j9: 3 points  simulations: 1  warm hits: 2  "
                        "coalesced: 0  requeued: 0  elapsed: 0.250s\n"
                        "simulations re-run: 1")

    def test_requeued_points_surface_in_the_summary(self):
        outcome = dataclasses.replace(self._outcome(3), requeued=2)
        line = summarize_sweep_outcome(outcome)
        assert "requeued: 2" in line

    def test_empty_outcome_summarises_cleanly(self):
        line = summarize_sweep_outcome(self._outcome(0))
        assert "0 points" in line and "simulations: 1" in line

    def test_rows_mirror_the_points(self):
        rows = sweep_outcome_rows(self._outcome(2).points)
        assert len(rows) == 2
        assert rows[0][0] == "w" and rows[0][1] == "CELLO"
        assert rows[0][2] == 4.0  # MiB


class TestTuneResultRendering:
    def test_single_point_front_renders(self):
        only = _eval(10.0, 5.0)
        out = render_tune_result(_tune_result([only], only))
        assert "1 Pareto point(s) from 1 evaluation(s)" in out
        assert "pareto+best+fixed CELLO" in out
        assert "1.00x runtime" in out  # best == incumbent: no headroom

    def test_dominated_incumbent_gets_its_own_row(self):
        better = _eval(5.0, 2.0,
                       point=TunePoint(sram_bytes=1 * MIB, chord_entries=4))
        incumbent = _eval(10.0, 4.0)
        out = render_tune_result(_tune_result([better, incumbent], incumbent))
        assert "fixed CELLO (dominated)" in out
        assert "2.00x runtime" in out and "2.00x DRAM" in out

    def test_analytic_entries_are_tagged(self):
        fast = _eval(5.0, 2.0,
                     point=TunePoint(sram_bytes=1 * MIB, chord_entries=4),
                     fidelity="analytic")
        incumbent = _eval(10.0, 4.0)
        tr = _tune_result([fast, incumbent], incumbent, fidelity="hybrid",
                          n_analytic=1, analytic_max_rel_error=0.001)
        out = render_tune_result(tr)
        assert "pareto+best+analytic" in out
        assert "fidelity: hybrid" in out

    def test_exact_run_renders_no_fidelity_line(self):
        only = _eval(10.0, 5.0)
        out = render_tune_result(_tune_result([only], only))
        assert "fidelity:" not in out


class TestFidelityLine:
    def _tr(self, err):
        only = _eval(10.0, 5.0)
        return _tune_result([only], only, fidelity="hybrid", n_analytic=7,
                            analytic_max_rel_error=err, n_simulations=2)

    def test_no_resimulated_prediction(self):
        line = render_fidelity_line(self._tr(None))
        assert "max analytic error n/a (no prediction re-simulated)" in line
        assert "7 analytic-priced evaluation(s)" in line

    def test_error_within_bound(self):
        line = render_fidelity_line(self._tr(ANALYTIC_ERROR_BOUND))
        assert "within 2% bound" in line and "EXCEEDS" not in line

    def test_error_exceeding_bound_is_flagged(self):
        line = render_fidelity_line(self._tr(0.05))
        assert "EXCEEDS 2% bound" in line
        assert "5.0000%" in line
