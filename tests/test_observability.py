"""Tracing, latency-histogram and Prometheus-exporter tests.

Three layers, mirroring how the observability tentpole is built:

* **Units** — the log-bucketed :class:`~repro.service.metrics.Histogram`
  (pinned bucket bounds, le-inclusive boundaries, exact mergeability,
  quantile error bounds, and a hypothesis property that merging shard
  histograms equals histogramming the pooled samples), the
  :class:`~repro.service.tracing.SpanContext` wire discipline, and the
  per-point engine phase hook.
* **Rendering** — :func:`~repro.service.promexport.render_prometheus`
  output for both roles, validated by the same stdlib checker CI runs
  (``tools/check_prom.py``), plus an HTTP round-trip against a live
  :class:`~repro.service.promexport.PromExporter`.
* **Loopback e2e** — a traced submission against a real daemon: every
  request-log record of the sweep shares one ``trace_id``, the client
  learns it from ``accepted``/``done``, the latency histograms pick up
  the request, the engine phases fill the phase histograms (pool
  workers included), and an untraced client's messages carry no trace
  fields.
"""

import importlib.util
import io
import json
import math
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic.backend import clear_model_cache
from repro.baselines.configs import run_config
from repro.hw.config import AcceleratorConfig
from repro.service import (
    DEFAULT_BUCKETS,
    Histogram,
    HistogramFamily,
    PROM_CONTENT_TYPE,
    PromExporter,
    RequestLog,
    ServiceError,
    SpanContext,
    attach_trace,
    parse_trace_fields,
    render_prometheus,
    workload_family,
)
from repro.service.protocol import ProtocolError
from repro.sim import engine as sim_engine
from repro.workloads import registry
from repro.workloads.registry import resolve_workload
from test_service import (
    BANDWIDTH_GB,
    CONFIGS,
    WORKLOAD,
    ServerThread,
    _reset_runner,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _check_prom():
    """Import ``tools/check_prom.py`` the way ``test_docs`` imports its
    checker — the gate CI runs must be the gate the tests pin."""
    spec = importlib.util.spec_from_file_location(
        "check_prom", REPO_ROOT / "tools" / "check_prom.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# ---------------------------------------------------------------------------
# Histogram units
# ---------------------------------------------------------------------------

class TestHistogram:
    def test_default_buckets_are_pinned(self):
        """The fabric-wide bounds are wire format: changing them breaks
        mergeability against running shards, so a change must be loud."""
        assert DEFAULT_BUCKETS == (
            0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
            0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 300.0,
        )

    def test_boundaries_are_le_inclusive(self):
        """A value exactly on a bound lands in that bound's bucket —
        matching the Prometheus ``le`` (less-or-equal) convention."""
        hist = Histogram(buckets=(1.0, 2.0, 4.0))
        hist.observe(1.0)      # on the first bound -> bucket 0
        hist.observe(1.0001)   # just past it       -> bucket 1
        hist.observe(2.0)      # on the second      -> bucket 1
        hist.observe(4.0)      # on the last        -> bucket 2
        assert hist.counts == [1, 2, 1, 0]

    def test_overflow_lands_in_the_implicit_inf_bucket(self):
        hist = Histogram(buckets=(1.0, 2.0))
        hist.observe(2.5)
        assert hist.counts == [0, 0, 1]
        assert hist.count == 1 and hist.sum == pytest.approx(2.5)

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(buckets=())

    def test_merge_is_bucketwise_addition_and_associative(self):
        def build(values):
            h = Histogram(buckets=(1.0, 2.0, 4.0))
            for v in values:
                h.observe(v)
            return h

        a, b, c = build([0.5, 3.0]), build([1.5]), build([9.0, 0.1])
        left = build([]).merge(a).merge(b).merge(c)
        right = build([]).merge(a).merge(build([]).merge(b).merge(c))
        pooled = build([0.5, 3.0, 1.5, 9.0, 0.1])
        for merged in (left, right):
            assert merged.counts == pooled.counts
            assert merged.count == pooled.count
            assert merged.sum == pytest.approx(pooled.sum)

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(ValueError, match="different bounds"):
            Histogram(buckets=(1.0, 2.0)).merge(Histogram(buckets=(1.0,)))

    def test_quantile_interpolates_within_the_covering_bucket(self):
        hist = Histogram(buckets=(1.0, 2.0, 4.0))
        for _ in range(4):
            hist.observe(1.5)  # all mass in the (1, 2] bucket
        # rank q*4 inside a 4-count bucket spanning (1, 2]
        assert hist.quantile(0.5) == pytest.approx(1.5)
        assert hist.quantile(1.0) == pytest.approx(2.0)

    def test_quantile_error_bounded_by_bucket_width(self):
        """The estimate can be off, but never outside the covering
        bucket — the documented error bound of fixed-bucket quantiles."""
        hist = Histogram()  # DEFAULT_BUCKETS
        samples = [0.0007, 0.003, 0.004, 0.018, 0.018, 0.07, 0.4, 1.7]
        for v in samples:
            hist.observe(v)
        for q in (0.5, 0.9, 0.99):
            # the covering bucket holds the ceil(q*n)-th ranked sample
            exact = sorted(samples)[math.ceil(q * len(samples)) - 1]
            i = next(j for j, b in enumerate(DEFAULT_BUCKETS) if exact <= b)
            lo = DEFAULT_BUCKETS[i - 1] if i else 0.0
            assert lo <= hist.quantile(q) <= DEFAULT_BUCKETS[i]

    def test_quantile_edge_cases(self):
        empty = Histogram(buckets=(1.0, 2.0))
        assert empty.quantile(0.5) == 0.0
        with pytest.raises(ValueError, match="quantile"):
            empty.quantile(0.0)
        with pytest.raises(ValueError, match="quantile"):
            empty.quantile(1.5)
        overflow = Histogram(buckets=(1.0, 2.0))
        overflow.observe(50.0)
        assert overflow.quantile(0.99) == 2.0  # clamps to the last bound

    def test_snapshot_round_trips(self):
        hist = Histogram(buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(9.0)
        snap = json.loads(json.dumps(hist.snapshot()))  # wire-safe
        back = Histogram.from_snapshot(snap)
        assert back.bounds == hist.bounds
        assert back.counts == hist.counts
        assert back.count == hist.count
        assert back.sum == pytest.approx(hist.sum)
        with pytest.raises(ValueError, match="counts"):
            Histogram.from_snapshot({**snap, "counts": [1]})

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.floats(min_value=0.0, max_value=1000.0,
                                       allow_nan=False),
                             max_size=30),
                    min_size=1, max_size=5))
    def test_merging_shards_equals_histogramming_the_pool(self, shards):
        """The load-bearing property: per-shard histograms merged at the
        gateway are indistinguishable from one histogram fed every
        sample — counts exactly, sum to float tolerance."""
        merged = Histogram()
        for samples in shards:
            shard = Histogram()
            for v in samples:
                shard.observe(v)
            merged.merge(shard)
        pooled = Histogram()
        for v in (v for samples in shards for v in samples):
            pooled.observe(v)
        assert merged.counts == pooled.counts
        assert merged.count == pooled.count
        assert merged.sum == pytest.approx(pooled.sum)


class TestHistogramFamily:
    def test_series_materialise_per_label_tuple(self):
        fam = HistogramFamily(("op", "family", "priority"))
        fam.observe(("sweep", "cg", "bulk"), 0.2)
        fam.observe(("sweep", "cg", "bulk"), 0.3)
        fam.observe(("ping", "-", "-"), 0.001)
        items = dict(fam.items())
        assert set(items) == {("sweep", "cg", "bulk"), ("ping", "-", "-")}
        assert items[("sweep", "cg", "bulk")].count == 2

    def test_label_arity_is_enforced(self):
        fam = HistogramFamily(("op",))
        with pytest.raises(ValueError, match="expected 1 labels"):
            fam.observe(("sweep", "extra"), 0.1)

    def test_snapshot_and_merged_by_round_trip(self):
        fam = HistogramFamily(("op", "family"))
        fam.observe(("sweep", "cg"), 0.2)
        fam.observe(("sweep", "mg"), 0.4)
        fam.observe(("tune", "cg"), 1.0)
        snap = json.loads(json.dumps(fam.snapshot()))
        assert snap["labels"] == ["op", "family"]
        assert set(snap["series"]) == {"sweep|cg", "sweep|mg", "tune|cg"}
        by_op = HistogramFamily.merged_by(snap, "op")
        assert by_op["sweep"].count == 2
        assert by_op["tune"].count == 1
        by_family = HistogramFamily.merged_by(snap, "family")
        assert by_family["cg"].count == 2


# ---------------------------------------------------------------------------
# Tracing units
# ---------------------------------------------------------------------------

class TestSpanContext:
    def test_new_root_mints_wire_format_ids(self):
        root = SpanContext.new_root()
        assert len(root.trace_id) == 16
        assert len(root.span_id) == 8
        int(root.trace_id, 16) and int(root.span_id, 16)  # hex or raise
        assert root.parent_span is None

    def test_child_links_to_the_caller_span(self):
        root = SpanContext.new_root()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_span == root.span_id
        assert child.span_id != root.span_id

    def test_anonymous_caller_yields_a_parentless_child(self):
        """A trace_id-only request (no span_id) makes the receiver the
        recorded root — parent omitted, not an empty string."""
        child = SpanContext("ab" * 8, "").child()
        assert child.parent_span is None
        assert "parent_span" not in child.log_fields()

    def test_log_fields_omit_parent_at_the_root(self):
        root = SpanContext("ab" * 8, "cd" * 4)
        assert root.log_fields() == {"trace_id": "ab" * 8,
                                     "span_id": "cd" * 4}
        hop = root.child()
        assert hop.log_fields() == {"trace_id": "ab" * 8,
                                    "span_id": hop.span_id,
                                    "parent_span": "cd" * 4}


class TestWireTraceFields:
    def test_attach_none_leaves_the_request_untouched(self):
        """The untraced byte-identity guarantee at its source: an untraced
        request gains no keys at all."""
        req = {"type": "sweep", "workloads": ["cg/*"]}
        before = json.dumps(req, sort_keys=True)
        assert attach_trace(req, None) is req
        assert json.dumps(req, sort_keys=True) == before

    def test_attach_stamps_the_senders_span(self):
        ctx = SpanContext("ab" * 8, "cd" * 4, parent_span="ef" * 4)
        req = attach_trace({"type": "sweep"}, ctx)
        # the parent never travels: receivers derive linkage by minting
        # a child of the *sender's* span id
        assert req == {"type": "sweep", "trace_id": "ab" * 8,
                       "span_id": "cd" * 4}

    def test_parse_absent_fields_returns_none(self):
        assert parse_trace_fields({"type": "ping"}) is None

    def test_parse_round_trips_attached_fields(self):
        ctx = SpanContext.new_root()
        caller = parse_trace_fields(attach_trace({"type": "sweep"}, ctx))
        assert caller == SpanContext(ctx.trace_id, ctx.span_id)

    def test_parse_accepts_a_trace_id_only(self):
        caller = parse_trace_fields({"trace_id": "ab" * 8})
        assert caller is not None
        assert caller.span_id == ""

    def test_parse_rejects_malformed_fields(self):
        with pytest.raises(ProtocolError, match="requires a 'trace_id'"):
            parse_trace_fields({"span_id": "cd" * 4})
        for bad in ("UPPER", "not hex!", "", 7, "a" * 65):
            with pytest.raises(ProtocolError, match="hex"):
                parse_trace_fields({"trace_id": bad})
            with pytest.raises(ProtocolError, match="hex"):
                parse_trace_fields({"trace_id": "ab" * 8, "span_id": bad})

    def test_workload_family_labels(self):
        assert workload_family(["cg/fv1/N=16"]) == "cg"
        assert workload_family(["cg/fv1/N=16", "cg/fv2/N=4"]) == "cg"
        assert workload_family(["cg/fv1/N=16", "mg/fv1/N=1"]) == "multi"
        assert workload_family([]) == "-"


# ---------------------------------------------------------------------------
# Engine phase profiling
# ---------------------------------------------------------------------------

class TestPhaseHook:
    def test_engines_emit_named_phases_when_hooked(self):
        """With a hook installed, the cache engine splits trace-gen from
        kernel replay, SCORE reports its schedule and the schedule engine
        reports chord accounting; with no hook, engine runs pay nothing
        and emit nothing."""
        seen = {}
        sim_engine.set_phase_hook(
            lambda phase, s: seen.setdefault(phase, []).append(s))
        try:
            workload = resolve_workload(WORKLOAD)
            dag = workload.build()
            run_config("Flex+LRU", dag, AcceleratorConfig(),
                       workload_name=workload.name)
            run_config("CELLO", dag, AcceleratorConfig(),
                       workload_name=workload.name)
        finally:
            sim_engine.set_phase_hook(None)
        assert set(seen) == {"trace-gen", "cache-kernel", "schedule",
                             "chord-accounting"}
        assert all(s >= 0.0 for timings in seen.values() for s in timings)
        assert sim_engine.get_phase_hook() is None


# ---------------------------------------------------------------------------
# Prometheus rendering and the exporter
# ---------------------------------------------------------------------------

def _shard_metrics_msg():
    latency = HistogramFamily(("op", "family", "priority"))
    latency.observe(("sweep", "cg", "bulk"), 0.2)
    latency.observe(("ping", "-", "-"), 0.0002)
    phases = HistogramFamily(("phase",))
    phases.observe(("trace-gen",), 0.01)
    phases.observe(("cache-kernel",), 0.03)
    return {
        "type": "metrics", "role": "shard", "server": "repro-service",
        "protocol": 6, "uptime_s": 12.5, "points_streamed": 3,
        "simulations": 2, "hits_total": 1, "coalesced_total": 0,
        "shed_total": 1, "queue_depth": 0, "max_pending": 1024,
        "in_flight": 0, "queue_clients": {"tenant-a": 2},
        "jobs": {"done": 2, "running": 1},
        "rates": {"sims_per_s": 0.5, "points_per_s": 1.5,
                  "analytic_evals_per_s": 0.0, "window_s": 60.0},
        "store": {"entries": 2, "corrupt": 0},
        "latency": latency.snapshot(), "phases": phases.snapshot(),
    }


def _gateway_metrics_msg():
    latency = HistogramFamily(("op", "family", "priority"))
    latency.observe(("sweep", "multi", "interactive"), 1.2)
    return {
        "type": "metrics", "role": "gateway", "server": "repro-gateway",
        "protocol": 6, "uptime_s": 99.0, "points_streamed": 16,
        "requeued_total": 3, "shards_healthy": 2, "shards_total": 3,
        "jobs": {"done": 4},
        "rates": {"points_per_s": 2.0, "window_s": 60.0},
        "shards": [
            {"id": "s0", "healthy": True, "deaths": 0, "requeued": 0},
            {"id": "s1", "healthy": False, "deaths": 1, "requeued": 3},
            {"id": "s2", "healthy": True, "deaths": 0, "requeued": 0},
        ],
        "latency": latency.snapshot(),
    }


class TestRenderPrometheus:
    def test_shard_exposition_passes_the_ci_checker(self):
        text = render_prometheus(_shard_metrics_msg())
        assert _check_prom().check_text(text, "shard") == []
        assert '# TYPE repro_request_duration_seconds histogram' in text
        assert 'le="+Inf"' in text
        assert 'repro_request_duration_seconds_bucket{op="sweep",' \
               'family="cg",priority="bulk",le="0.25"} 1' in text
        assert 'repro_phase_duration_seconds_count{phase="trace-gen"} 1' \
            in text
        assert "repro_simulations_total 2" in text
        assert 'repro_queue_client_depth{client="tenant-a"} 2' in text
        assert "repro_store_entries 2" in text
        assert "repro_store_corrupt_lines_total 0" in text

    def test_store_families_describe_the_store(self):
        """Only the store's size and skipped records are exported; lookup
        counters an older shard still sends are not."""
        msg = _shard_metrics_msg()
        msg["store"] = {"entries": 2, "hits": 0, "misses": 7,
                        "hit_rate": 0.0, "corrupt": 1}
        text = render_prometheus(msg)
        assert _check_prom().check_text(text, "shard") == []
        families = sorted(line.split()[2] for line in text.splitlines()
                          if line.startswith("# TYPE repro_store_"))
        assert families == ["repro_store_corrupt_lines_total",
                            "repro_store_entries"]
        assert "repro_store_corrupt_lines_total 1" in text

    def test_gateway_exposition_passes_the_ci_checker(self):
        text = render_prometheus(_gateway_metrics_msg())
        assert _check_prom().check_text(text, "gateway") == []
        assert 'repro_shard_healthy{shard="s1"} 0' in text
        assert 'repro_shard_requeued_total{shard="s1"} 3' in text
        assert "repro_requeued_points_total 3" in text
        assert "repro_request_duration_seconds_sum" in text

    def test_bucket_counts_are_cumulative_and_counted(self):
        hist = Histogram(buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 9.0):
            hist.observe(v)
        fam = {"labels": ["op"], "series": {"sweep": hist.snapshot()}}
        text = render_prometheus({"role": "shard", "latency": fam})
        lines = [l for l in text.splitlines()
                 if l.startswith("repro_request_duration_seconds")]
        assert lines == [
            'repro_request_duration_seconds_bucket{op="sweep",le="1.0"} 1',
            'repro_request_duration_seconds_bucket{op="sweep",le="2.0"} 2',
            'repro_request_duration_seconds_bucket{op="sweep",le="+Inf"} 3',
            'repro_request_duration_seconds_sum{op="sweep"} 11.0',
            'repro_request_duration_seconds_count{op="sweep"} 3',
        ]

    def test_checker_rejects_broken_expositions(self):
        """The gate must actually gate: feed it the failure modes it
        exists to catch."""
        check_text = _check_prom().check_text
        assert check_text("repro_x 1\n") != []           # no TYPE
        assert check_text("# TYPE repro_x counter\nrepro_x -1\n") != []
        bad_hist = ('# TYPE h histogram\n'
                    'h_bucket{le="1.0"} 5\nh_bucket{le="+Inf"} 3\n'
                    'h_sum 1\nh_count 3\n')
        assert any("cumulative" in p for p in check_text(bad_hist))
        no_inf = ('# TYPE h histogram\n'
                  'h_bucket{le="1.0"} 1\nh_sum 1\nh_count 1\n')
        assert any("+Inf" in p for p in check_text(no_inf))
        assert check_text("not a sample line at all\n") != []


class TestPromExporter:
    def test_http_round_trip_and_404(self):
        exporter = PromExporter(_shard_metrics_msg, port=0)
        port = exporter.start()
        try:
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=10) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == PROM_CONTENT_TYPE
                body = resp.read().decode("utf-8")
            assert _check_prom().check_text(body, "http") == []
            assert "repro_role_info" in body
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/other", timeout=10)
            assert excinfo.value.code == 404
        finally:
            exporter.stop()

    def test_snapshot_failure_is_a_503_not_a_crash(self):
        def boom():
            raise RuntimeError("loop is gone")

        exporter = PromExporter(boom, port=0)
        port = exporter.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=10)
            assert excinfo.value.code == 503
        finally:
            exporter.stop()


# ---------------------------------------------------------------------------
# Loopback end-to-end: one daemon, traced and untraced clients
# ---------------------------------------------------------------------------

class TestTracedLoopback:
    @pytest.fixture
    def traced_server(self, tmp_path):
        _reset_runner()
        stream = io.StringIO()
        server = ServerThread(cache_dir=str(tmp_path / "cache"),
                              request_log=RequestLog(stream),
                              prom_port=0)
        with server as srv:
            yield srv, stream
        _reset_runner()

    def _records(self, stream):
        return [json.loads(line) for line in
                stream.getvalue().splitlines() if line]

    def test_traced_submit_threads_one_trace_id_through_the_daemon(
            self, traced_server):
        srv, stream = traced_server
        with srv.client(client_id="tracer", trace=True) as client:
            outcome = client.submit_sweep([WORKLOAD], configs=list(CONFIGS),
                                          bandwidth_gb=list(BANDWIDTH_GB))
            # the done message taught the client its trace id (each
            # later request() mints a fresh trace, so capture it now)
            assert outcome.trace_id == client.last_trace_id
            assert outcome.trace_id is not None
            client.ping()
            metrics = client.metrics()

        records = self._records(stream)
        by_op = {r["op"]: r for r in records}
        sweep = by_op["sweep"]
        assert sweep["trace_id"] == outcome.trace_id
        # the daemon minted its own span under the client's root
        assert len(sweep["span_id"]) == 8
        assert len(sweep["parent_span"]) == 8
        assert sweep["span_id"] != sweep["parent_span"]
        assert sweep["outcome"] == "done"
        assert sweep["duration_s"] >= 0.0
        # query ops are traced too (each request() call is a new trace)
        assert "trace_id" in by_op["ping"]
        assert by_op["ping"]["parent_span"] != sweep["parent_span"]

        # the sweep landed in the latency histograms under its family
        by_opname = HistogramFamily.merged_by(metrics["latency"], "op")
        assert by_opname["sweep"].count == 1
        series = metrics["latency"]["series"]
        assert any(key.startswith("sweep|cg|") for key in series)
        # ... and the phase hook decomposed the simulations
        phase_names = set(
            HistogramFamily.merged_by(metrics["phases"], "phase"))
        assert "chord-accounting" in phase_names

        # the same snapshot scrapes cleanly over --prom-port
        with urllib.request.urlopen(
                f"http://127.0.0.1:{srv.service.prom_port}/metrics",
                timeout=10) as resp:
            body = resp.read().decode("utf-8")
        assert _check_prom().check_text(body, "scrape") == []
        assert "repro_request_duration_seconds_bucket" in body
        assert "repro_phase_duration_seconds_bucket" in body

    def test_profiled_daemon_reports_the_store_sync_phase(
            self, traced_server):
        """The store sync before a cold request shows as phase ``store``,
        so a slow sync is visible on a live daemon, not only as rising
        latency.  An all-warm resubmission skips the sync."""
        srv, _ = traced_server
        with srv.client() as client:
            client.submit_sweep([WORKLOAD], configs=["CELLO"])
            cold = client.metrics()
            client.submit_sweep([WORKLOAD], configs=["CELLO"])
            warm = client.metrics()
        cold_phases = HistogramFamily.merged_by(cold["phases"], "phase")
        warm_phases = HistogramFamily.merged_by(warm["phases"], "phase")
        assert cold_phases["store"].count == 1
        assert warm_phases["store"].count == 1

    def test_profiled_daemon_builds_each_workload_once(self, traced_server):
        """A cold sweep over two workloads at three SRAM sizes reports
        ``schedule`` for every schedule-driven point but ``dag-build``
        once per workload: the daemon process builds each DAG on its
        first cold point and reuses it after that."""
        srv, _ = traced_server
        registry.clear_dag_cache()
        workloads = [WORKLOAD, "mg/fv1/N=1"]
        with srv.client() as client:
            outcome = client.submit_sweep(workloads, configs=list(CONFIGS),
                                          sram_mb=[3.0, 3.5, 4.0])
            metrics = client.metrics()
        assert outcome.simulations == 2 * len(CONFIGS) * 3
        phases = HistogramFamily.merged_by(metrics["phases"], "phase")
        assert phases["dag-build"].count == len(workloads)
        # Flexagon never schedules; CELLO does, once a point
        assert phases["schedule"].count == len(workloads) * 3

    def test_predict_times_phases_without_simulating(self, traced_server):
        """The phase histograms time engine work of any request, not
        only of simulated points: an analytic ``predict`` compiles its
        model through SCORE in the daemon, so on a fresh daemon it
        leaves a ``schedule`` series while ``simulations`` stays 0."""
        srv, _ = traced_server
        registry.clear_dag_cache()
        clear_model_cache()
        with srv.client() as client:
            client.predict(WORKLOAD, "CELLO", sram_mb=4.0)
            metrics = client.metrics()
        assert metrics["simulations"] == 0
        phases = HistogramFamily.merged_by(metrics["phases"], "phase")
        assert phases["schedule"].count == 1
        assert phases["dag-build"].count == 1

    def test_pool_workers_ship_every_phase(self, tmp_path):
        """A default two-worker daemon fills every phase histogram for a
        cold sweep: the workers time the engine phases and ship them back
        with each result, and the daemon times its own store sync."""
        _reset_runner()
        registry.clear_dag_cache()  # forked workers build their own DAGs
        try:
            with ServerThread(cache_dir=str(tmp_path / "cache"),
                              jobs=2) as srv:
                if srv.service.pool.broken:
                    pytest.skip("no process-pool support on this platform")
                with srv.client() as client:
                    outcome = client.submit_sweep(
                        [WORKLOAD], configs=["Flexagon", "CELLO",
                                             "Flex+LRU"])
                    metrics = client.metrics()
        finally:
            _reset_runner()
        assert outcome.simulations == 3
        assert metrics["pool"]["payloads"] == 3
        phases = HistogramFamily.merged_by(metrics["phases"], "phase")
        assert set(phases) == {"dag-build", "schedule", "trace-gen",
                               "cache-kernel", "chord-accounting", "store"}

    def test_untraced_client_leaves_no_trace_fields(self, traced_server):
        srv, stream = traced_server
        with srv.client(client_id="plain") as client:
            outcome = client.submit_sweep([WORKLOAD], configs=list(CONFIGS),
                                          bandwidth_gb=list(BANDWIDTH_GB))
        assert outcome.trace_id is None
        assert client.last_trace_id is None
        for record in self._records(stream):
            assert "trace_id" not in record
            assert "span_id" not in record

    def test_malformed_trace_fields_get_a_typed_error(self, traced_server):
        srv, _ = traced_server
        with srv.client() as client:
            with pytest.raises(ServiceError, match="hex"):
                client.request({"op": "sweep",
                                "workloads": [WORKLOAD],
                                "configs": list(CONFIGS),
                                "trace_id": "NOT-HEX"})
