"""End-to-end tests for the sharded simulation fabric: a gateway over
real ``repro serve`` subprocesses, with faults injected by the
:mod:`fabric` chaos harness.

Three layers:

* ``TestGatewayFabric`` — one healthy 3-shard fabric shared by the
  module: byte-identity against the direct engines, cluster-wide
  single-flight, the ``points``/``metrics`` ops, predict/tune
  forwarding, and listener fuzzing.
* ``TestChaos`` — one fabric per test, each broken differently: shard
  SIGKILLed mid-stream, connection dropped mid-stream, acks delayed past
  the gateway's read timeout, and a fabric with no live shards at all.
  Every such test pins the same three invariants: the job still
  completes with every point, ``requeued`` says so, and the shared store
  holds exactly one record per distinct traffic key (no duplicate
  simulations, ever).  The load-shedding test runs its one shard
  in-process behind a gateway thread, so it can hold the shard's
  dispatcher with a gate while the queue is full.
* ``TestStalledShard`` — a DOWN shard that accepts connections and never
  answers: jobs on the survivors must not wait for its ping timeout.
"""

import io
import json
import os
import signal
import socket
import threading
import time

import pytest

from fabric import (
    EndpointProcess,
    Fabric,
    GatewayThread,
    busiest_proxy,
    distinct_keys,
    duplicate_store_keys,
    fuzz_exchange,
    fuzz_payloads,
    store_record_keys,
)
from repro.baselines.configs import run_config
from repro.hw.config import GB, MIB, AcceleratorConfig
from repro.orchestrator.spec import SweepSpec
from repro.orchestrator.store import ResultStore
from repro.service import JobFailed, RequestLog, ServiceError
from repro.service.protocol import PROTOCOL_VERSION, encode_message
from repro.workloads.registry import resolve_workload
from test_service import (
    BANDWIDTH_GB,
    CONFIGS,
    DISTINCT_KEYS,
    WORKLOAD,
    ServerThread,
    _reset_runner,
    expected_results,
    held_dispatcher,
)

#: The chaos grid: 4 workloads x 2 configs x 1 bandwidth = 8 points with
#: 8 distinct traffic keys, so every point is its own simulation and a
#: busiest-of-3 victim owns >= 3 of them (pigeonhole).
CHAOS_WORKLOADS = ("cg/fv1/N=1", "bicgstab/fv1/N=1", "gnn/cora",
                   "mg/fv1/N=1")
CHAOS_CONFIGS = ("Flexagon", "CELLO")
CHAOS_BANDWIDTH_GB = 1000.0
CHAOS_POINTS = 8


def chaos_points():
    """The same points the gateway will build from the chaos request —
    used to compute the real ring assignment before picking a victim."""
    return SweepSpec(workloads=CHAOS_WORKLOADS, configs=CHAOS_CONFIGS,
                     bandwidths=(CHAOS_BANDWIDTH_GB * GB,)).points()


def submit_chaos(client):
    return client.submit_sweep(
        list(CHAOS_WORKLOADS), configs=list(CHAOS_CONFIGS),
        bandwidth_gb=[CHAOS_BANDWIDTH_GB])


def fingerprint(outcome):
    """Order-sensitive byte-level identity of a sweep outcome."""
    return [(p.workload, p.config, p.bandwidth_bytes_per_s,
             json.dumps(p.result.to_dict(), sort_keys=True))
            for p in outcome.points]


def wait_until(predicate, timeout_s=15.0, interval_s=0.2):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return predicate()


@pytest.fixture(scope="module")
def fabric3(tmp_path_factory):
    """One healthy 3-shard fabric shared by the non-chaos tests."""
    cache = tmp_path_factory.mktemp("fabric-cache")
    with Fabric(str(cache), n_shards=3) as fab:
        yield fab


class TestGatewayFabric:
    def test_ping_names_the_gateway_and_counts_shards(self, fabric3):
        with fabric3.client() as client:
            pong = client.ping()
        assert pong["type"] == "pong"
        assert pong["protocol"] == PROTOCOL_VERSION
        assert pong["server"] == "repro-gateway"
        assert pong["shards_healthy"] == 3
        assert pong["shards_total"] == 3

    def test_metrics_report_the_ring_and_every_shard(self, fabric3):
        with fabric3.client() as client:
            metrics = client.metrics()
        assert metrics["type"] == "metrics"
        assert metrics["role"] == "gateway"
        assert metrics["protocol"] == PROTOCOL_VERSION
        assert metrics["replicas"] == 64
        assert metrics["port"] == fabric3.gateway.port
        shards = {s["id"]: s for s in metrics["shards"]}
        assert set(shards) == {p.id for p in fabric3.proxies}
        assert all(s["healthy"] and s["protocol"] == PROTOCOL_VERSION
                   for s in shards.values())

    def test_merged_stream_byte_identical_to_direct_engine(self, fabric3):
        """The acceptance bar: a gateway over 3 shards answers the
        standard grid byte-identically to the engines, with exactly one
        simulation per distinct traffic key, and a warm resubmit
        re-simulates nothing."""
        with fabric3.client() as client:
            cold = client.submit_sweep([WORKLOAD], configs=list(CONFIGS),
                                       bandwidth_gb=list(BANDWIDTH_GB))
            warm = client.submit_sweep([WORKLOAD], configs=list(CONFIGS),
                                       bandwidth_gb=list(BANDWIDTH_GB))
        assert cold.simulations == DISTINCT_KEYS
        assert cold.hits == 0 and cold.requeued == 0
        got = [json.dumps(p.result.to_dict(), sort_keys=True)
               for p in cold.points]
        want = [json.dumps(r.to_dict(), sort_keys=True)
                for r in expected_results()]
        assert got == want  # merged stream preserves submission order
        assert warm.simulations == 0
        assert warm.hits == DISTINCT_KEYS
        assert fingerprint(warm) == fingerprint(cold)
        assert duplicate_store_keys(fabric3.results_file()) == []

    def test_concurrent_clients_single_flight_across_the_cluster(
            self, fabric3):
        """Cluster-wide single flight: identical grids from concurrent
        clients route each key to the same shard, where the shard-local
        dedup makes the whole fabric simulate it exactly once."""
        grid = dict(workloads=["mg/fv1/N=1", "gnn/cora"],
                    configs=["Flexagon", "CELLO"],
                    bandwidth_gb=[CHAOS_BANDWIDTH_GB])
        n_keys = 4
        n_clients = 3
        outcomes = [None] * n_clients
        errors = []

        def worker(i):
            try:
                with fabric3.client() as client:
                    outcomes[i] = client.submit_sweep(
                        grid["workloads"], configs=grid["configs"],
                        bandwidth_gb=grid["bandwidth_gb"])
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert all(o is not None for o in outcomes)
        assert sum(o.simulations for o in outcomes) == n_keys
        for o in outcomes:
            assert o.simulations + o.hits + o.coalesced == n_keys
        reference = fingerprint(outcomes[0])
        for o in outcomes[1:]:
            assert fingerprint(o) == reference
        assert duplicate_store_keys(fabric3.results_file()) == []

    def test_points_op_streams_in_submission_order(self, fabric3):
        """An explicit point list through the gateway: results come
        back in the submitted order even though the points scatter
        across shards, and match the direct engines byte for byte."""
        points = SweepSpec(
            workloads=(WORKLOAD,), configs=CONFIGS,
            bandwidths=tuple(bw * GB for bw in BANDWIDTH_GB)).points()
        with fabric3.client() as client:
            outcome = client.submit_points(points)
        assert [(p.workload, p.config, p.bandwidth_bytes_per_s)
                for p in outcome.points] \
            == [(p.workload, p.config, p.cfg.dram_bandwidth_bytes_per_s)
                for p in points]
        got = [json.dumps(p.result.to_dict(), sort_keys=True)
               for p in outcome.points]
        want = [json.dumps(r.to_dict(), sort_keys=True)
                for r in expected_results()]
        assert got == want

    def test_jobs_metrics_and_cancel_through_the_gateway(self, fabric3):
        with fabric3.client() as client:
            outcome = client.submit_sweep([WORKLOAD],
                                          configs=list(CONFIGS),
                                          bandwidth_gb=[1000.0])
            jobs = {j["id"]: j for j in client.jobs()}
            metrics = client.metrics()
            with pytest.raises(ServiceError, match="unknown job"):
                client.cancel("j999")
        assert outcome.job_id in jobs
        assert jobs[outcome.job_id]["state"] == "done"
        assert metrics["type"] == "metrics"
        assert metrics["role"] == "gateway"
        assert metrics["shards_healthy"] == 3
        assert metrics["points_streamed"] >= len(outcome.points)

    def test_predict_forwarded_to_a_shard(self, fabric3):
        with fabric3.client() as client:
            reply = client.predict(WORKLOAD, "CELLO")
            with pytest.raises(ServiceError, match="no analytic model"):
                client.predict(WORKLOAD, "Flex+LRU")
        assert reply["type"] == "predict"
        assert reply["fidelity"] == "analytic"
        workload = resolve_workload(WORKLOAD)
        direct = run_config("CELLO", workload.build(), AcceleratorConfig(),
                            workload_name=workload.name)
        assert reply["result"]["dram_read_bytes"] == direct.dram_read_bytes
        assert reply["result"]["dram_write_bytes"] == direct.dram_write_bytes

    def test_tune_forwarded_matches_direct_tuner(self, fabric3):
        from repro.tuner import TuneResult, TuneSpace, make_strategy, tune

        with fabric3.client() as client:
            data = client.submit_tune(WORKLOAD, strategy="grid",
                                      sram_mb=(4.0,), entries=(64,))
        via_gateway = TuneResult.from_dict(data)
        _reset_runner()  # the direct run below must not inherit state
        try:
            direct = tune(
                WORKLOAD,
                space=TuneSpace(chord_entries=(64,), sram_bytes=(4 * MIB,)),
                strategy=make_strategy("grid"), jobs=1)
        finally:
            _reset_runner()
        assert via_gateway.workload == direct.workload
        assert len(via_gateway.evaluations) == len(direct.evaluations)
        assert [dict(e.objectives) for e in via_gateway.evaluations] \
            == [dict(e.objectives) for e in direct.evaluations]
        assert via_gateway.incumbent.config == direct.incumbent.config

    def test_gateway_survives_hostile_frames(self, fabric3):
        """Every fuzz frame gets a JSON error (never a crash, never a
        hang), and the gateway still routes real work afterwards."""
        for payload in fuzz_payloads():
            replies = fuzz_exchange(fabric3.gateway.port, payload)
            if any(line.strip() for line in payload.split(b"\n")):
                assert replies, f"no reply to {payload[:40]!r}"
            assert all(r.get("type") == "error" for r in replies), payload
        with fabric3.client() as client:
            pong = client.ping()
        assert pong["shards_healthy"] == 3


class TestChaos:
    """One fabric per test; each test breaks it a different way."""

    def _arm(self, tmp_path, **gateway_kwargs):
        """Build a fabric for the chaos grid and return it with the
        index of the proxy that owns the most points (the victim)."""
        points = chaos_points()
        assert len(points) == CHAOS_POINTS
        assert distinct_keys(points) == CHAOS_POINTS
        gateway_kwargs.setdefault("ping_timeout_s", 2.0)
        gateway_kwargs.setdefault("health_interval_s", 0.5)
        fab = Fabric(str(tmp_path / "cache"), n_shards=3, **gateway_kwargs)
        victim = busiest_proxy(fab.proxies, points)
        return fab, victim, points

    def _check_store_exactly_once(self, fab, points):
        """The no-duplicate-work invariant, from the store's own record:
        exactly one append per distinct traffic key."""
        assert duplicate_store_keys(fab.results_file()) == []
        assert set(store_record_keys(fab.results_file())) \
            == {ResultStore.key_str(p.key()) for p in points}

    def test_killed_shard_mid_sweep_requeues_without_duplicates(
            self, tmp_path):
        """The flagship chaos run: SIGKILL the busiest shard right after
        its first streamed result.  The sweep must still complete with
        all 8 points, report the re-hashed remainder, and a warm
        resubmit must re-run zero simulations."""
        fab, victim, points = self._arm(tmp_path)
        fab.proxies[victim].plan.kill_after_results = 1
        with fab:
            with fab.client() as client:
                out = submit_chaos(client)
                warm = submit_chaos(client)
                metrics = client.metrics()
        assert not fab.shards[victim].alive
        assert len(out.points) == CHAOS_POINTS
        assert len(set(fingerprint(out))) == CHAOS_POINTS
        # The victim owned >= 3 keys (busiest of 3 shards over 8 keys)
        # and streamed exactly 1 before dying: >= 2 must be re-hashed.
        assert out.requeued >= 2
        assert warm.requeued == 0
        assert warm.simulations == 0  # nothing was simulated twice
        assert warm.hits == CHAOS_POINTS
        assert fingerprint(warm) == fingerprint(out)
        self._check_store_exactly_once(fab, points)
        assert metrics["requeued_total"] == out.requeued
        health = {s["id"]: s["healthy"] for s in metrics["shards"]}
        assert health[fab.proxies[victim].id] is False
        assert sum(health.values()) == 2

    def test_trace_id_spans_every_hop_including_the_requeue(
            self, tmp_path):
        """One traced submission through a dying fabric: the client's
        trace_id appears on the gateway's sweep record, on the requeue
        record the gateway mints when the victim dies, and in the shard
        processes' own request logs — with parent_span links forming the
        hop tree client → gateway → (shards | requeue → survivors)."""
        shard_log = tmp_path / "shard_logs.jsonl"
        gw_stream = io.StringIO()
        fab, victim, points = self._arm(
            tmp_path, request_log=RequestLog(gw_stream),
            shard_args=["--log-json", str(shard_log)])
        fab.proxies[victim].plan.kill_after_results = 1
        with fab:
            with fab.client(client_id="tracer", trace=True) as client:
                out = submit_chaos(client)
        assert len(out.points) == CHAOS_POINTS
        assert out.requeued >= 2
        assert out.trace_id is not None

        gw_records = [json.loads(line) for line in
                      gw_stream.getvalue().splitlines() if line]
        sweep = next(r for r in gw_records if r["op"] == "sweep")
        assert sweep["trace_id"] == out.trace_id
        assert sweep["outcome"] == "done"
        # the gateway span hangs off the client's root span
        assert sweep["parent_span"]
        requeue = next(r for r in gw_records if r["op"] == "requeue")
        assert requeue["trace_id"] == out.trace_id
        assert requeue["parent_span"] == sweep["span_id"]
        assert requeue["points"] >= 2
        assert f"shard {fab.proxies[victim].id}" in requeue["error"]

        shard_records = [json.loads(line) for line in
                         shard_log.read_text().splitlines() if line]
        hops = [r for r in shard_records
                if r.get("trace_id") == out.trace_id]
        assert hops, "no shard record carried the client's trace id"
        parents = {r["parent_span"] for r in hops}
        # primary partitions hang off the gateway's sweep span; the
        # failover partitions hang off the requeue span it minted
        assert sweep["span_id"] in parents
        assert requeue["span_id"] in parents
        assert all(r["outcome"] == "done" for r in hops)
        self._check_store_exactly_once(fab, points)

    def test_dropped_connection_requeues_and_shard_recovers(
            self, tmp_path):
        """Sever only the streaming connection: the shard process stays
        alive, its unstreamed points are re-hashed onto the survivors,
        and the health loop re-admits it afterwards."""
        fab, victim, points = self._arm(tmp_path)
        fab.proxies[victim].plan.drop_after_results = 1
        with fab:
            with fab.client() as client:
                out = submit_chaos(client)
                warm = submit_chaos(client)
            assert fab.shards[victim].alive
            assert len(out.points) == CHAOS_POINTS
            assert out.requeued >= 2
            assert warm.simulations == 0
            assert fingerprint(warm) == fingerprint(out)
            self._check_store_exactly_once(fab, points)

            # The drop fires once; the next health ping must bring the
            # shard back into the ring.
            def all_healthy():
                with fab.client() as c:
                    return c.ping()["shards_healthy"] == 3

            assert wait_until(all_healthy, timeout_s=15.0)

    def test_delayed_acks_hit_the_read_timeout_and_requeue(self, tmp_path):
        """A sick-but-alive shard whose result lines stall longer than
        the gateway's per-read timeout is treated exactly like a dead
        one: its batch is re-hashed and nothing is simulated twice."""
        fab, victim, points = self._arm(
            tmp_path, shard_read_timeout_s=0.5, ping_timeout_s=5.0)
        fab.proxies[victim].plan.delay_results_s = 2.0
        with fab:
            with fab.client() as client:
                out = submit_chaos(client)
                # Disarm before resubmitting: the victim may have been
                # re-admitted by a health ping (pings are not delayed).
                fab.proxies[victim].plan.delay_results_s = 0.0
                warm = submit_chaos(client)
            assert fab.shards[victim].alive  # sick, not dead
            assert len(out.points) == CHAOS_POINTS
            # No result beat the timeout, so the victim's whole batch
            # (>= 3 points) was re-hashed.
            assert out.requeued >= 3
            assert warm.simulations == 0
            assert fingerprint(warm) == fingerprint(out)
            self._check_store_exactly_once(fab, points)

    def test_shed_bulk_job_retries_through_the_gateway_without_duplicates(
            self, tmp_path, monkeypatch):
        """Load shedding end to end across the fabric: a shard with a
        one-slot queue sheds a second tenant's bulk partition with the
        typed ``overloaded`` error, the gateway passes the code through,
        the client backs off and resubmits — and when the dust settles
        nothing was simulated twice.

        Determinism comes from holding the shard's dispatcher: the shard
        runs in-process with ``max_pending=1`` behind a gateway, and its
        dispatcher waits on a gate with the first tenant's first point
        while the second keeps the queue full.  The second tenant's
        admission check therefore always sheds; its first backoff opens
        the gate.
        """
        from repro.service import Overloaded

        points = chaos_points()
        cache = tmp_path / "cache"
        _reset_runner()
        try:
            with ServerThread(cache_dir=str(cache), max_pending=1) as srv, \
                    GatewayThread([("127.0.0.1", srv.port)]) as gw, \
                    held_dispatcher(monkeypatch) as gate:
                a_done = {}

                def tenant_a():
                    with gw.client(client_id="tenant-a") as client:
                        a_done["outcome"] = client.submit_sweep(
                            list(CHAOS_WORKLOADS),
                            configs=list(CHAOS_CONFIGS),
                            bandwidth_gb=[CHAOS_BANDWIDTH_GB],
                            priority="bulk")

                thread = threading.Thread(target=tenant_a)
                thread.start()
                try:
                    assert wait_until(
                        lambda: srv.service._queue.qsize() >= 1,
                        timeout_s=30.0, interval_s=0.005)

                    retries = []

                    def open_gate(n, delay, exc):
                        retries.append(exc)
                        gate.set()

                    with gw.client(client_id="tenant-b") as client:
                        out_b = client.submit_sweep(
                            list(CHAOS_WORKLOADS[:2]),
                            configs=list(CHAOS_CONFIGS), sram_mb=[2.0],
                            bandwidth_gb=[CHAOS_BANDWIDTH_GB],
                            priority="bulk", overload_retries=12,
                            on_retry=open_gate)
                        warm_b = client.submit_sweep(
                            list(CHAOS_WORKLOADS[:2]),
                            configs=list(CHAOS_CONFIGS), sram_mb=[2.0],
                            bandwidth_gb=[CHAOS_BANDWIDTH_GB],
                            priority="bulk", overload_retries=12)
                finally:
                    gate.set()
                    thread.join(timeout=300)
                assert not thread.is_alive()
                with srv.client() as probe:
                    shard_metrics = probe.metrics()
        finally:
            _reset_runner()

        # The shed fired, carried its typed fields through the gateway,
        # and the retry loop absorbed it.
        assert retries, "tenant B was never shed"
        assert all(isinstance(exc, Overloaded) for exc in retries)
        assert all(exc.retry_after_s > 0 for exc in retries)
        assert shard_metrics["shed_total"] >= 1

        # Both tenants' jobs completed in full...
        assert len(a_done["outcome"].points) == CHAOS_POINTS
        assert len(out_b.points) == 4
        assert warm_b.simulations == 0
        assert warm_b.hits == 4
        assert fingerprint(warm_b) == fingerprint(out_b)
        # ...and the shed/retry cycle duplicated zero simulations: the
        # store holds exactly one record per distinct key across both
        # tenants' grids.
        b_points = SweepSpec(workloads=CHAOS_WORKLOADS[:2],
                             configs=CHAOS_CONFIGS,
                             sram_bytes=(2 * MIB,),
                             bandwidths=(CHAOS_BANDWIDTH_GB * GB,)
                             ).points()
        results = cache / "results.jsonl"
        assert duplicate_store_keys(results) == []
        assert set(store_record_keys(results)) == {
            ResultStore.key_str(p.key()) for p in [*points, *b_points]}

    def test_no_healthy_shards_is_a_clean_error(self, tmp_path):
        """A gateway whose every shard is unreachable must still start,
        answer pings, and fail submissions with actionable errors — not
        hang or crash."""
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        placeholder.bind(("127.0.0.1", 0))
        dead_port = placeholder.getsockname()[1]
        placeholder.close()
        with GatewayThread([("127.0.0.1", dead_port)],
                           health_interval_s=30.0) as gw:
            with gw.client() as client:
                pong = client.ping()
                assert pong["shards_healthy"] == 0
                assert pong["shards_total"] == 1
                with pytest.raises(JobFailed, match="no healthy shards"):
                    client.submit_sweep([WORKLOAD], configs=["CELLO"])
                with pytest.raises(ServiceError,
                                   match="no healthy shards"):
                    client.submit_tune(WORKLOAD, strategy="grid",
                                       sram_mb=(4.0,), entries=(64,))
                with pytest.raises(ServiceError,
                                   match="no healthy shards"):
                    client.predict(WORKLOAD, "CELLO")
                metrics = client.metrics()
        assert metrics["shards"][0]["healthy"] is False
        assert metrics["shards"][0]["error"]

    def test_gateway_started_before_its_shard_serves_the_first_submit(
            self, tmp_path):
        """The boot race: a gateway that comes up before its shard marks
        it DOWN on its initial sweep.  With no health pass due for 30 s,
        only the on-demand re-probe can admit the shard, and the first
        submit must succeed through it."""
        placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        _reset_runner()
        try:
            with GatewayThread([("127.0.0.1", port)],
                               health_interval_s=30.0) as gw:
                with gw.client() as client:
                    assert client.ping()["shards_healthy"] == 0
                with ServerThread(port=port,
                                  cache_dir=str(tmp_path / "cache")):
                    with gw.client() as client:
                        out = client.submit_sweep([WORKLOAD],
                                                  configs=["CELLO"])
                        assert client.ping()["shards_healthy"] == 1
        finally:
            _reset_runner()
        assert len(out.points) == 1
        assert out.simulations == 1


class _SilentShard:
    """A listener that accepts connections and never answers: a stalled
    shard process that the kernel still accepts connections for.
    ``accepted`` counts the connections it took.  With ``reply`` it
    answers every request line with that message instead."""

    def __init__(self, port: int = 0, reply=None) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", port))
        self._sock.listen(16)
        self.addr = self._sock.getsockname()
        self.accepted = 0
        self._reply = reply
        self._held = []
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # closed
            self.accepted += 1
            self._held.append(conn)
            if self._reply is not None:
                threading.Thread(target=self._answer, args=(conn,),
                                 daemon=True).start()

    def _answer(self, conn: socket.socket) -> None:
        try:
            for _ in conn.makefile("rb"):
                conn.sendall(encode_message(self._reply))
        except OSError:
            pass  # closed

    def close(self) -> None:
        # Closing a listener does not wake a thread blocked in accept()
        # on Linux; shutting it down does.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # platforms that refuse shutdown on a listener
        self._sock.close()
        for conn in self._held:
            conn.close()
        self._thread.join(timeout=10)


def _free_port() -> int:
    placeholder = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    placeholder.bind(("127.0.0.1", 0))
    port = placeholder.getsockname()[1]
    placeholder.close()
    return port


class TestStalledShard:
    """A DOWN shard that hangs must not hold up jobs on the survivors:
    the on-demand re-probe skips shards whose last failure was a
    timeout, and shares one probe between concurrent callers."""

    PING_TIMEOUT_S = 3.0
    #: A warm job through a healthy shard takes milliseconds; this bound
    #: is far below the ping timeout it must not pay.
    FAST_S = 1.0

    def _timed_submit(self, gw, sram_mb):
        t0 = time.monotonic()
        with gw.client() as client:
            out = client.submit_sweep([WORKLOAD], configs=["CELLO"],
                                      sram_mb=[sram_mb])
        return out, time.monotonic() - t0

    def test_a_shard_that_never_answers_costs_jobs_nothing(self, tmp_path):
        silent = _SilentShard()
        _reset_runner()
        try:
            with ServerThread(cache_dir=str(tmp_path / "cache")) as srv, \
                    GatewayThread([("127.0.0.1", srv.port), silent.addr],
                                  ping_timeout_s=self.PING_TIMEOUT_S,
                                  health_interval_s=60.0) as gw:
                probes_at_boot = silent.accepted
                self._timed_submit(gw, 4.0)  # cold: warms the point
                for _ in range(3):
                    out, elapsed = self._timed_submit(gw, 4.0)
                    assert out.hits == 1
                    assert elapsed < self.FAST_S
                t0 = time.monotonic()
                with gw.client() as client:
                    assert client.ping()["shards_healthy"] == 1
                    assert client.metrics()["shards_healthy"] == 1
                assert time.monotonic() - t0 < self.FAST_S
                assert silent.accepted == probes_at_boot == 1
        finally:
            _reset_runner()
            silent.close()

    def test_a_shard_that_starts_hanging_costs_one_shared_probe(
            self, tmp_path):
        """The shard refused connections at boot, so it is re-probed;
        then it starts to hang.  Concurrent jobs wait on one probe,
        and once it times out no later job waits at all."""
        port = _free_port()
        _reset_runner()
        silent = None
        try:
            with ServerThread(cache_dir=str(tmp_path / "cache")) as srv, \
                    GatewayThread([("127.0.0.1", srv.port),
                                   ("127.0.0.1", port)],
                                  ping_timeout_s=self.PING_TIMEOUT_S,
                                  health_interval_s=60.0) as gw:
                self._timed_submit(gw, 4.0)  # refused: re-probed quickly
                silent = _SilentShard(port)
                results = []
                jobs = [threading.Thread(
                    target=lambda: results.append(
                        self._timed_submit(gw, 4.0)))
                    for _ in range(3)]
                for job in jobs:
                    job.start()
                for job in jobs:
                    job.join(timeout=60)
                assert len(results) == 3
                assert all(out.hits == 1 for out, _ in results)
                assert all(elapsed < self.PING_TIMEOUT_S + self.FAST_S
                           for _, elapsed in results)
                assert silent.accepted == 1
                out, elapsed = self._timed_submit(gw, 4.0)
                assert elapsed < self.FAST_S
                assert silent.accepted == 1
        finally:
            _reset_runner()
            if silent is not None:
                silent.close()


class TestProtocolMismatch:
    """Shards, gateway and client ship from one build: a shard that
    pings with another protocol version is DOWN, with a reason that
    names both versions, and jobs route around it."""

    def test_a_shard_on_another_protocol_is_down_and_routed_around(
            self, tmp_path):
        stale = _SilentShard(reply={"type": "pong",
                                    "server": "repro-service",
                                    "protocol": PROTOCOL_VERSION - 1})
        _reset_runner()
        try:
            with ServerThread(cache_dir=str(tmp_path / "cache")) as srv, \
                    GatewayThread([("127.0.0.1", srv.port), stale.addr],
                                  health_interval_s=60.0) as gw:
                with gw.client() as client:
                    metrics = client.metrics()
                    out = client.submit_sweep(
                        [WORKLOAD], configs=list(CONFIGS),
                        bandwidth_gb=list(BANDWIDTH_GB))
                    assert client.ping()["shards_healthy"] == 1
                live_id = f"127.0.0.1:{srv.port}"
        finally:
            _reset_runner()
            stale.close()
        shards = {s["id"]: s for s in metrics["shards"]}
        down = shards[f"127.0.0.1:{stale.addr[1]}"]
        assert down["healthy"] is False
        assert down["protocol"] == PROTOCOL_VERSION - 1
        assert f"v{PROTOCOL_VERSION - 1}" in down["error"]
        assert f"v{PROTOCOL_VERSION}" in down["error"]
        assert "restart the shard with this build" in down["error"]
        assert shards[live_id]["healthy"] is True
        assert len(out.points) == len(CONFIGS) * len(BANDWIDTH_GB)
        assert out.simulations == DISTINCT_KEYS
        assert out.requeued == 0


def _proc_stat(pid: int):
    """Fields of ``/proc/<pid>/stat`` after the command name, or
    ``None`` when the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _children(pid: int):
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None and int(stat[1]) == pid:
                kids.append(int(entry))
    return kids


def _running(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc"),
                    reason="reads worker pids from /proc")
class TestSigterm:
    """SIGTERM stops either role like a ``shutdown`` op: exit status 0,
    and every pool worker exits with the daemon."""

    @pytest.mark.parametrize("role", ["serve", "gateway"])
    def test_sigterm_exits_cleanly_with_its_workers(self, role):
        if role == "serve":
            argv = ["serve", "--jobs", "2", "--no-cache", "--port", "0"]
        else:
            argv = ["gateway", "--port", "0",
                    "--shards", f"127.0.0.1:{_free_port()}"]
        endpoint = EndpointProcess(argv)
        try:
            workers = _children(endpoint.proc.pid)
            if role == "serve":
                assert len(workers) >= 2
            endpoint.proc.send_signal(signal.SIGTERM)
            assert endpoint.proc.wait(timeout=30) == 0
        finally:
            if endpoint.alive:
                endpoint.proc.kill()
                endpoint.proc.wait(timeout=30)
        assert wait_until(lambda: not any(_running(w) for w in workers),
                          timeout_s=10.0)
