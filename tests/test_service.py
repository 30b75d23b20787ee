"""Loopback end-to-end tests for the simulation service.

The server runs in-process on a background thread (its own asyncio
loop), clients connect over real local TCP — so these tests cover the
full wire path: framing, job lifecycle, single-flight dedup, warm
resubmission, cancellation, backpressure plumbing and the CLI verbs.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.baselines import runner
from repro.baselines.configs import run_config
from repro.cli import main
from repro.hw.config import GB, MIB, AcceleratorConfig
from repro.orchestrator.spec import SweepSpec
from repro.service import (
    JobFailed,
    ServiceClient,
    ServiceConnectionError,
    ServiceError,
    SimulationService,
)
from repro.service.protocol import (
    KNOWN_OPS,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_message,
    parse_request,
    request_to_points,
    request_to_spec,
    tune_request,
)
from repro.sim.perf import make_result
from repro.workloads.registry import resolve_workload

#: The standard small grid: 2 configs × 2 bandwidths = 4 points sharing
#: 2 distinct traffic keys (traffic is bandwidth-independent).
WORKLOAD = "cg/fv1/N=1"
CONFIGS = ("Flexagon", "CELLO")
BANDWIDTH_GB = (1000.0, 250.0)
DISTINCT_KEYS = 2


def _reset_runner():
    runner.clear_cache()
    runner.reset_simulation_count()
    runner.set_store(None)


class ServerThread:
    """Run a SimulationService on a daemon thread for the test's duration."""

    def __init__(self, **kwargs):
        kwargs.setdefault("port", 0)
        kwargs.setdefault("jobs", 1)
        kwargs.setdefault("batch_window_s", 0.0)
        self.service = SimulationService(**kwargs)
        self._thread = threading.Thread(
            target=self._run, name="repro-service-test", daemon=True)

    def _run(self):
        try:
            asyncio.run(self.service.run())
        except OSError:
            pass  # startup failure is visible via service.startup_error

    def __enter__(self):
        self._thread.start()
        assert self.service.wait_started(timeout=30)
        assert self.service.startup_error is None
        return self

    def __exit__(self, *exc_info):
        self.service.request_stop()
        self._thread.join(timeout=30)
        assert not self._thread.is_alive()

    @property
    def port(self):
        return self.service.port

    def client(self, **kwargs):
        kwargs.setdefault("timeout", 60.0)
        return ServiceClient(port=self.port, **kwargs)


@pytest.fixture
def server(tmp_path):
    _reset_runner()
    with ServerThread(cache_dir=str(tmp_path / "cache")) as srv:
        yield srv
    _reset_runner()


def submit_standard(client):
    return client.submit_sweep([WORKLOAD], configs=list(CONFIGS),
                               bandwidth_gb=list(BANDWIDTH_GB))


def expected_results():
    """The same grid simulated directly through the engines — no runner
    caches, no service — as the byte-identity reference."""
    out = []
    workload = resolve_workload(WORKLOAD)
    for config in CONFIGS:
        base = run_config(config, workload.build(), AcceleratorConfig(),
                          workload_name=workload.name)
        for bw in BANDWIDTH_GB:
            cfg = AcceleratorConfig(dram_bandwidth_bytes_per_s=bw * GB)
            out.append(make_result(
                config=base.config, workload=base.workload,
                total_macs=base.total_macs,
                dram_read_bytes=base.dram_read_bytes,
                dram_write_bytes=base.dram_write_bytes,
                cfg=cfg, onchip_accesses=base.onchip_accesses))
    return out


class TestProtocol:
    def test_request_roundtrip(self):
        req = parse_request(encode_message({"op": "ping"}))
        assert req == {"op": "ping"}

    def test_rejects_bad_frames(self):
        for line in (b"not json\n", b"[1,2]\n", b'{"op":"warp"}\n'):
            with pytest.raises(ProtocolError):
                parse_request(line)

    def test_rejects_oversized_message(self):
        with pytest.raises(ProtocolError):
            encode_message({"op": "sweep",
                            "workloads": ["x" * (MAX_LINE_BYTES + 10)]})

    def test_sweep_spec_conversion(self):
        spec = request_to_spec({
            "op": "sweep", "workloads": [WORKLOAD],
            "configs": list(CONFIGS), "sram_mb": [4, 1],
            "bandwidth_gb": [1000.0]})
        assert spec.workloads == (WORKLOAD,)
        assert spec.sram_bytes == (4 * MIB, 1 * MIB)
        assert len(spec.points()) == 4

    def test_simulate_op_is_retired(self):
        assert "simulate" not in KNOWN_OPS
        with pytest.raises(ProtocolError, match="unknown op 'simulate'"):
            parse_request(encode_message({"op": "simulate",
                                          "workload": WORKLOAD,
                                          "config": "CELLO"}))

    def test_rejects_unknown_config_and_bad_fields(self):
        with pytest.raises(ProtocolError, match="unknown config"):
            request_to_spec({"op": "sweep", "workloads": [WORKLOAD],
                             "configs": ["NotAConfig"]})
        with pytest.raises(ProtocolError, match="workloads"):
            request_to_spec({"op": "sweep", "workloads": [1, 2]})
        with pytest.raises(ProtocolError, match="sram_mb"):
            request_to_spec({"op": "sweep", "workloads": [WORKLOAD],
                             "sram_mb": ["big"]})
        with pytest.raises(ProtocolError,
                           match="invalid sweep grid: dram_bandwidth"):
            request_to_spec({"op": "sweep", "workloads": [WORKLOAD],
                             "bandwidth_gb": [-5]})

    @pytest.mark.parametrize("value", [-5, 0])
    @pytest.mark.parametrize("point_field,grid_field", [
        ("bandwidth_bytes_per_s", "bandwidth_gb"),
        ("sram_bytes", "sram_mb"),
    ])
    def test_points_and_sweep_give_one_reason(self, value, point_field,
                                              grid_field):
        """A non-positive size fails the one check AcceleratorConfig
        makes, with the same reason in a points and a sweep request."""
        def reason(parse, req, prefix):
            with pytest.raises(ProtocolError) as info:
                parse(req)
            message = str(info.value)
            assert message.startswith(prefix)
            return message[len(prefix):]

        via_points = reason(request_to_points, {
            "op": "points",
            "points": [{"workload": WORKLOAD, "config": "CELLO",
                        point_field: value}]}, "points[0]: ")
        via_sweep = reason(request_to_spec, {
            "op": "sweep", "workloads": [WORKLOAD],
            grid_field: [value]}, "invalid sweep grid: ")
        assert via_points == via_sweep
        assert via_points.endswith("must be positive")


class TestServiceEndToEnd:
    def test_ping(self, server):
        with server.client() as client:
            pong = client.ping()
        assert pong["type"] == "pong"
        assert pong["protocol"] == PROTOCOL_VERSION

    def test_results_byte_identical_to_direct_engine(self, server):
        with server.client() as client:
            outcome = submit_standard(client)
        assert outcome.simulations == DISTINCT_KEYS
        assert outcome.hits == 0 and outcome.coalesced == 0
        got = [json.dumps(p.result.to_dict(), sort_keys=True)
               for p in outcome.points]
        want = [json.dumps(r.to_dict(), sort_keys=True)
                for r in expected_results()]
        assert got == want

    def test_result_point_carries_exactly_the_sweep_axes(self, server):
        seen = []
        with server.client() as client:
            client.submit_sweep([WORKLOAD], configs=["CELLO"],
                                on_message=seen.append)
        points = [m["point"] for m in seen if m["type"] == "result"]
        assert len(points) == 1
        assert set(points[0]) == {"workload", "config", "sram_bytes",
                                  "bandwidth_bytes_per_s"}

    def test_warm_resubmission_zero_simulations(self, server):
        with server.client() as client:
            first = submit_standard(client)
            second = submit_standard(client)
        assert first.simulations == DISTINCT_KEYS
        assert second.simulations == 0
        assert second.hits == DISTINCT_KEYS
        assert ([p.result.to_dict() for p in first.points]
                == [p.result.to_dict() for p in second.points])

    def test_concurrent_clients_single_flight(self, server):
        n_clients = 4
        outcomes = [None] * n_clients
        errors = []

        def worker(i):
            try:
                with server.client() as client:
                    outcomes[i] = submit_standard(client)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert all(o is not None for o in outcomes)
        # The acceptance bar: at most one simulation per distinct point,
        # across every concurrently-submitting client.
        assert runner.simulation_count() == DISTINCT_KEYS
        assert sum(o.simulations for o in outcomes) == DISTINCT_KEYS
        for o in outcomes:
            # Every distinct key was either simulated by this job,
            # answered warm, or coalesced onto another job's flight.
            assert o.simulations + o.hits + o.coalesced == DISTINCT_KEYS
        reference = [p.result.to_dict() for p in outcomes[0].points]
        for o in outcomes[1:]:
            assert [p.result.to_dict() for p in o.points] == reference

    def test_store_warm_across_server_restart(self, tmp_path):
        _reset_runner()
        cache = str(tmp_path / "cache")
        try:
            with ServerThread(cache_dir=cache) as srv:
                with srv.client() as client:
                    first = submit_standard(client)
            _reset_runner()  # cold process tiers; only the disk store is warm
            with ServerThread(cache_dir=cache) as srv:
                with srv.client() as client:
                    second = submit_standard(client)
            assert first.simulations == DISTINCT_KEYS
            assert second.simulations == 0
            assert second.hits == DISTINCT_KEYS
        finally:
            _reset_runner()

    def test_jobs_listing_and_stats(self, server):
        with server.client() as client:
            outcome = submit_standard(client)
            jobs = client.jobs()
            stats = client.stats()
        listed = {j["id"]: j for j in jobs}
        assert outcome.job_id in listed
        job = listed[outcome.job_id]
        assert job["state"] == "done"
        assert job["simulations"] == DISTINCT_KEYS
        assert job["done"] == job["total"] == len(outcome.points)
        assert stats["type"] == "stats"
        assert stats["simulations"] == DISTINCT_KEYS
        assert stats["points_streamed"] == len(outcome.points)
        assert stats["store"]["workloads"] == {WORKLOAD: DISTINCT_KEYS}

    def test_stats_merges_external_store_appends(self, server, tmp_path):
        """A one-shot CLI process appending to the shared cache directory
        becomes visible to the daemon at the next stats reload."""
        from repro.orchestrator import ResultStore
        from repro.orchestrator.store import result_key

        with server.client() as client:
            before = client.stats()["store"]["entries"]
            external = ResultStore(server.service.store.directory)
            key = result_key("CELLO", "gnn/cora", AcceleratorConfig(), None)
            external.put(key, expected_results()[0])
            after = client.stats()["store"]
        assert after["entries"] == before + 1
        assert after["workloads"].get("gnn/cora") == 1

    def test_tune_job_matches_direct_tuner(self, server):
        from repro.tuner import TuneResult, TuneSpace, make_strategy, tune

        with server.client() as client:
            data = client.submit_tune(WORKLOAD, strategy="grid",
                                      sram_mb=(4.0,), entries=(64,))
        via_service = TuneResult.from_dict(data)
        direct = tune(
            WORKLOAD,
            space=TuneSpace(chord_entries=(64,), sram_bytes=(4 * MIB,)),
            strategy=make_strategy("grid"), jobs=1)
        assert via_service.workload == direct.workload
        assert len(via_service.evaluations) == len(direct.evaluations)
        assert [dict(e.objectives) for e in via_service.evaluations] \
            == [dict(e.objectives) for e in direct.evaluations]
        assert via_service.incumbent.config == direct.incumbent.config

    def test_unknown_workload_job_errors(self, server):
        with server.client() as client:
            with pytest.raises(JobFailed, match="unknown workload"):
                client.submit_sweep(["nope/zz"], configs=["CELLO"])

    def test_cancel_unknown_job_errors(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError, match="unknown job"):
                client.cancel("j999")

    def test_cancel_finished_job_errors(self, server):
        with server.client() as client:
            outcome = submit_standard(client)
            with pytest.raises(ServiceError, match="already done"):
                client.cancel(outcome.job_id)


class TestPredict:
    """The analytic ``predict`` op: single response, zero simulations."""

    def test_predict_matches_direct_engine(self, server):
        with server.client() as client:
            reply = client.predict(WORKLOAD, "CELLO")
        assert reply["type"] == "predict"
        assert reply["fidelity"] == "analytic"
        workload = resolve_workload(WORKLOAD)
        direct = run_config("CELLO", workload.build(), AcceleratorConfig(),
                            workload_name=workload.name)
        assert reply["result"]["dram_read_bytes"] == direct.dram_read_bytes
        assert reply["result"]["dram_write_bytes"] == direct.dram_write_bytes
        # The whole point of the op: nothing was simulated.
        assert runner.simulation_count() == 0

    def test_predict_capacity_point_changes_regime(self, server):
        with server.client() as client:
            big = client.predict("cg/fv1/N=16", "CELLO", sram_mb=16.0)
            small = client.predict("cg/fv1/N=16", "CELLO", sram_mb=1.0)
        assert small["regime"] == "recurrence"
        assert big["regime"] in ("closed-form", "recurrence")
        assert (small["result"]["dram_read_bytes"]
                >= big["result"]["dram_read_bytes"])

    def test_predict_unsupported_config_errors(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError, match="no analytic model.*"
                               "'repro submit --workloads cg/fv1/N=1 "
                               "--configs Flex\\+LRU'"):
                client.predict(WORKLOAD, "Flex+LRU")
        assert runner.simulation_count() == 0

    def test_predict_unknown_workload_errors(self, server):
        with server.client() as client:
            with pytest.raises(ServiceError, match="unknown workload"):
                client.predict("nope/zz", "CELLO")

    def test_predict_bad_fields_error(self, server):
        raw = TestWireErrors()
        for payload, needle in (
            (b'{"op": "predict", "workload": "cg/fv1/N=1", '
             b'"config": "CELLO", "sram_mb": -1}\n', "sram_mb"),
            (b'{"op": "predict", "workload": "cg/fv1/N=1", '
             b'"config": "CELLO", "entries": 0}\n', "entries"),
            (b'{"op": "predict", "workload": "cg/fv1/N=1", '
             b'"config": "NotAConfig"}\n', "unknown config"),
            (b'{"op": "predict", "workload": "cg/fv1/N=1"}\n', "config"),
        ):
            reply = raw._raw(server, payload)
            assert reply["type"] == "error"
            assert needle in reply["error"]


class TestTuneFidelity:
    """The ``fidelity`` tune field, end to end."""

    def test_hybrid_tune_over_wire_matches_exact_front(self, server):
        from repro.tuner import TuneResult

        with server.client() as client:
            hybrid = TuneResult.from_dict(client.submit_tune(
                WORKLOAD, strategy="grid", sram_mb=(4.0,), entries=(64, 16),
                fidelity="hybrid"))
            exact = TuneResult.from_dict(client.submit_tune(
                WORKLOAD, strategy="grid", sram_mb=(4.0,), entries=(64, 16)))
        assert hybrid.fidelity == "hybrid"
        assert hybrid.n_analytic > 0
        assert hybrid.analytic_max_rel_error is not None
        assert exact.fidelity == "exact"
        assert [(e.point, e.vector) for e in hybrid.front] \
            == [(e.point, e.vector) for e in exact.front]

    def test_exact_request_has_no_fidelity_field(self):
        # Only a non-default fidelity goes on the wire: the default
        # request shape is pinned.
        assert "fidelity" not in tune_request(WORKLOAD)
        assert tune_request(WORKLOAD, fidelity="hybrid")["fidelity"] \
            == "hybrid"

    def test_bad_fidelity_wire_error(self, server):
        reply = TestWireErrors()._raw(
            server, b'{"op": "tune", "workload": "cg/fv1/N=1", '
                    b'"fidelity": "psychic"}\n')
        assert reply["type"] == "error"
        assert "fidelity" in reply["error"]

    def test_submit_tune_fidelity_verb(self, server, capsys):
        assert main(["submit", "--port", str(server.port),
                     "--tune", WORKLOAD, "--entries", "64",
                     "--tune-sram-mb", "4", "--fidelity", "hybrid"]) == 0
        out = capsys.readouterr().out
        assert "fidelity: hybrid" in out


class TestDisconnect:
    """EOF mid-conversation must explain itself (daemon restarts)."""

    def _half_open_server(self):
        """A fake daemon that accepts, reads one line, then hangs up —
        the client-visible shape of a daemon dying mid-stream."""
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)

        def run():
            conn, _ = sock.accept()
            with conn:
                conn.makefile("rb").readline()
            sock.close()

        t = threading.Thread(target=run, daemon=True)
        t.start()
        return sock.getsockname()[1], t

    def test_mid_stream_eof_names_the_daemon_and_retry(self):
        port, t = self._half_open_server()
        with ServiceClient(port=port, timeout=10) as client:
            with pytest.raises(ServiceConnectionError) as info:
                client.ping()
        t.join(timeout=10)
        text = str(info.value)
        assert "stopped or restarted" in text
        assert "retry" in text
        assert "repro serve" in text

    def test_submit_cli_reports_restart_guidance(self, capsys):
        port, t = self._half_open_server()
        assert main(["submit", "--port", str(port),
                     "--workloads", WORKLOAD]) == 2
        t.join(timeout=10)
        err = capsys.readouterr().err
        assert "submit failed" in err
        assert "retry the submission" in err

    def _role_announcing_server(self, role):
        """A fake endpoint that answers exactly one request with a pong
        naming its role, then hangs up — the client-visible shape of a
        gateway (or daemon) restarting between two requests."""
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)

        def run():
            conn, _ = sock.accept()
            with conn:
                rfile = conn.makefile("rb")
                rfile.readline()
                conn.sendall(encode_message(
                    {"type": "pong", "server": role,
                     "protocol": PROTOCOL_VERSION}))
                rfile.readline()  # second request: read it, answer nothing
            sock.close()

        t = threading.Thread(target=run, daemon=True)
        t.start()
        return sock.getsockname()[1], t

    def test_eof_after_gateway_pong_says_restart_the_gateway(self):
        """A dead gateway loses no shard state — the guidance must say
        to restart the *gateway* and promise warm hits, not tell the
        user to restart daemons that are still running."""
        port, t = self._role_announcing_server("repro-gateway")
        with ServiceClient(port=port, timeout=10) as client:
            assert client.ping()["server"] == "repro-gateway"
            with pytest.raises(ServiceConnectionError) as info:
                client.ping()
        t.join(timeout=10)
        text = str(info.value)
        assert "repro gateway" in text
        assert "shards" in text and "warm hits" in text
        assert "'repro serve'" not in text

    def test_eof_after_shard_pong_says_restart_the_daemon(self):
        port, t = self._role_announcing_server("repro-service")
        with ServiceClient(port=port, timeout=10) as client:
            assert client.ping()["server"] == "repro-service"
            with pytest.raises(ServiceConnectionError) as info:
                client.ping()
        t.join(timeout=10)
        text = str(info.value)
        assert "shard daemon stopped or restarted" in text
        assert "'repro serve'" in text
        assert "gateway" not in text

    def test_server_stop_mid_job_surfaces_service_error(self, tmp_path,
                                                        monkeypatch):
        """A real daemon stopping under a streaming sweep: the client
        must get a ServiceError (either the explanatory EOF or a reset),
        never a silent hang or an unhandled socket exception."""
        _reset_runner()
        original = SimulationService._execute_batch

        def slow_batch(self, batch):
            time.sleep(0.4)
            return original(self, batch)

        monkeypatch.setattr(SimulationService, "_execute_batch", slow_batch)
        try:
            srv = ServerThread(cache_dir=str(tmp_path / "cache"),
                               max_batch=1)
            with srv:
                with srv.client() as client:
                    client._send({"op": "sweep", "workloads": [WORKLOAD],
                                  "configs": ["Flexagon", "CELLO", "FLAT",
                                              "SET"]})
                    accepted = client._recv()
                    assert accepted["type"] == "accepted"
                    srv.service.request_stop()
                    with pytest.raises(ServiceError):
                        while True:
                            msg = client._recv()
                            if msg["type"] in ("done", "cancelled"):
                                break
                            if msg["type"] == "error":
                                raise ServiceError(str(msg.get("error")))
        finally:
            _reset_runner()


class TestCancellation:
    def test_cancel_stops_a_running_job(self, tmp_path, monkeypatch):
        """Slow each batch down, cancel mid-job, expect a 'cancelled'
        terminal message with fewer points streamed than submitted."""
        _reset_runner()
        original = SimulationService._execute_batch

        def slow_batch(self, batch):
            time.sleep(0.4)
            return original(self, batch)

        monkeypatch.setattr(SimulationService, "_execute_batch", slow_batch)
        try:
            with ServerThread(cache_dir=str(tmp_path / "cache"),
                              max_batch=1) as srv:
                with srv.client() as submitter, srv.client() as canceller:
                    submitter._send({
                        "op": "sweep", "workloads": [WORKLOAD],
                        "configs": ["Flexagon", "CELLO", "Flex+BRRIP",
                                    "FLAT"]})
                    accepted = submitter._recv()
                    assert accepted["type"] == "accepted"
                    job_id = accepted["job"]
                    assert canceller.cancel(job_id)["type"] == "ok"
                    terminal = None
                    while terminal is None:
                        msg = submitter._recv()
                        if msg["type"] in ("cancelled", "done", "error"):
                            terminal = msg
                    assert terminal["type"] == "cancelled"
                    assert terminal["job"] == job_id
                    assert terminal["done"] < 4
                    jobs = {j["id"]: j for j in canceller.jobs()}
                    assert jobs[job_id]["state"] == "cancelled"
        finally:
            _reset_runner()


class TestWireErrors:
    """Raw-socket clients sending hostile input."""

    def _raw(self, server, payload: bytes) -> dict:
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=30) as sock:
            sock.sendall(payload)
            reader = sock.makefile("r", encoding="utf-8")
            return json.loads(reader.readline())

    def test_garbage_line(self, server):
        reply = self._raw(server, b"!!! not json at all\n")
        assert reply["type"] == "error"
        assert "JSON" in reply["error"]

    def test_non_object_message(self, server):
        reply = self._raw(server, b"[1, 2, 3]\n")
        assert reply["type"] == "error"

    def test_unknown_op(self, server):
        reply = self._raw(server, b'{"op": "frobnicate"}\n')
        assert reply["type"] == "error"
        assert "unknown op" in reply["error"]

    def test_oversized_line_rejected(self, server):
        junk = b'{"op": "ping", "pad": "' + b"x" * MAX_LINE_BYTES + b'"}\n'
        reply = self._raw(server, junk)
        assert reply["type"] == "error"
        assert "exceeds" in reply["error"]

    def test_empty_sweep_grid_errors(self, server):
        reply = self._raw(
            server, b'{"op": "sweep", "workloads": ["zz-no-match-*"]}\n')
        assert reply["type"] == "error"

    def test_non_positive_bandwidth_errors_before_simulating(self, server):
        reply = self._raw(
            server, b'{"op": "sweep", "workloads": ["cg/fv1/N=1"], '
                    b'"configs": ["CELLO"], "bandwidth_gb": [-5]}\n')
        assert reply["type"] == "error"
        assert "dram_bandwidth_bytes_per_s must be positive" in reply["error"]
        assert runner.simulation_count() == 0

    def test_tune_bad_field_types_error(self, server):
        for payload, field in (
            (b'{"op": "tune", "workload": "cg/fv1/N=1", '
             b'"sram_mb": ["4"]}\n', "sram_mb"),
            (b'{"op": "tune", "workload": "cg/fv1/N=1", '
             b'"budget": true}\n', "budget"),
            (b'{"op": "tune", "workload": "cg/fv1/N=1", '
             b'"entries": [0]}\n', "entries"),
            (b'{"op": "tune", "workload": 7}\n', "workload"),
        ):
            reply = self._raw(server, payload)
            assert reply["type"] == "error"
            assert field in reply["error"]


class TestServiceCli:
    def test_submit_and_jobs_verbs(self, server, capsys):
        port = str(server.port)
        assert main(["submit", "--port", port, "--workloads", WORKLOAD,
                     "--configs", "Flexagon,CELLO"]) == 0
        out = capsys.readouterr().out
        assert "Sweep job" in out and "simulations: 2" in out

        # Warm resubmission through the CLI: zero re-simulations.
        assert main(["submit", "--port", port, "--workloads", WORKLOAD,
                     "--configs", "Flexagon,CELLO"]) == 0
        assert "simulations: 0" in capsys.readouterr().out

        assert main(["jobs", "--port", port]) == 0
        out = capsys.readouterr().out
        assert "Jobs: 2" in out and "done" in out

        assert main(["jobs", "--port", port, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "Service stats" in out and WORKLOAD in out

    def test_submit_tune_verb(self, server, capsys):
        assert main(["submit", "--port", str(server.port),
                     "--tune", WORKLOAD, "--entries", "64",
                     "--tune-sram-mb", "4"]) == 0
        out = capsys.readouterr().out
        assert "Tuned cg/fv1/N=1" in out and "Pareto" in out

    def test_submit_without_payload_errors(self, server, capsys):
        assert main(["submit", "--port", str(server.port)]) == 2
        assert "nothing to submit" in capsys.readouterr().err

    def test_submit_unknown_config_errors_locally(self, server, capsys):
        assert main(["submit", "--port", str(server.port),
                     "--workloads", WORKLOAD,
                     "--configs", "NotAConfig"]) == 2
        assert "unknown config" in capsys.readouterr().err

    def test_submit_unknown_workload_errors_from_server(self, server,
                                                        capsys):
        assert main(["submit", "--port", str(server.port),
                     "--workloads", "nope/zz"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_jobs_cancel_unknown_errors(self, server, capsys):
        assert main(["jobs", "--port", str(server.port),
                     "--cancel", "j999"]) == 2
        assert "unknown job" in capsys.readouterr().err

    def test_shutdown_verb_stops_server(self, tmp_path, capsys):
        _reset_runner()
        try:
            srv = ServerThread(cache_dir=str(tmp_path / "cache"))
            with srv:
                assert main(["jobs", "--port", str(srv.port),
                             "--shutdown"]) == 0
                assert "shutting down" in capsys.readouterr().out
                srv._thread.join(timeout=30)
                assert not srv._thread.is_alive()
        finally:
            _reset_runner()

    def test_shutdown_completes_despite_idle_connection(self, tmp_path):
        """An idle client parked in readline must not block shutdown
        (Python >= 3.12.1 Server.wait_closed would wait on its handler)."""
        _reset_runner()
        try:
            srv = ServerThread(cache_dir=str(tmp_path / "cache"))
            with srv:
                idle = srv.client()  # connected, never sends a request
                try:
                    with srv.client() as active:
                        active.shutdown()
                    srv._thread.join(timeout=15)
                    assert not srv._thread.is_alive()
                finally:
                    idle.close()
        finally:
            _reset_runner()

    def test_cli_verbs_without_server_error(self, capsys):
        # Grab a port that is certainly closed.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = str(probe.getsockname()[1])
        assert main(["submit", "--port", free_port,
                     "--workloads", WORKLOAD]) == 2
        assert "no repro service reachable" in capsys.readouterr().err
        assert main(["jobs", "--port", free_port]) == 2
        assert "no repro service reachable" in capsys.readouterr().err

    def test_serve_port_in_use_errors(self, capsys):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            taken = str(holder.getsockname()[1])
            assert main(["serve", "--port", taken, "--no-cache"]) == 2
        assert "cannot serve" in capsys.readouterr().err

    def test_client_connection_error_type(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(ServiceConnectionError):
            ServiceClient(port=free_port, timeout=5)


class TestPointsOp:
    """The explicit-point-list op against a lone daemon —
    the op a gateway uses to ship ring partitions to its shards."""

    def _points(self):
        return SweepSpec(
            workloads=(WORKLOAD,), configs=CONFIGS,
            bandwidths=tuple(bw * GB for bw in BANDWIDTH_GB)).points()

    def test_points_matches_sweep_byte_identical(self, server):
        with server.client() as client:
            via_points = client.submit_points(self._points())
            via_sweep = submit_standard(client)
        assert via_points.simulations == DISTINCT_KEYS
        # The sweep re-states the same grid: every key is already warm,
        # proving the two ops share one traffic-key space.
        assert via_sweep.simulations == 0
        assert via_sweep.hits == DISTINCT_KEYS
        assert [json.dumps(p.result.to_dict(), sort_keys=True)
                for p in via_points.points] \
            == [json.dumps(r.to_dict(), sort_keys=True)
                for r in expected_results()]
        assert [p.result.to_dict() for p in via_sweep.points] \
            == [p.result.to_dict() for p in via_points.points]

    def test_point_wire_roundtrip_keys_identically(self):
        from repro.orchestrator.spec import SweepPoint

        for point in self._points():
            again = SweepPoint.from_wire(point.to_wire())
            assert again.key() == point.key()
            assert again.cfg == point.cfg

    def test_malformed_points_wire_errors(self, server):
        raw = TestWireErrors()
        for payload, needle in (
            (b'{"op": "points"}\n', "points"),
            (b'{"op": "points", "points": []}\n', "non-empty"),
            (b'{"op": "points", "points": [7]}\n', "points[0]"),
            (b'{"op": "points", "points": [{"workload": "w"}]}\n',
             "points[0]"),
        ):
            reply = raw._raw(server, payload)
            assert reply["type"] == "error"
            assert needle in reply["error"]


class TestTopologyOp:
    def test_lone_daemon_reports_itself_as_one_shard(self, server):
        with server.client() as client:
            topo = client.topology()
        assert topo["type"] == "topology"
        assert topo["role"] == "shard"
        assert topo["protocol"] == PROTOCOL_VERSION
        assert topo["port"] == server.port
        assert topo["store"] == str(server.service.store.directory)
        assert topo["workers"] >= 1


class TestShardFuzz:
    """The shared hostile-frame corpus against a lone daemon's listener
    (test_fabric.py runs the same corpus against a gateway)."""

    def test_shard_survives_hostile_frames(self, server):
        from fabric import fuzz_exchange, fuzz_payloads

        for payload in fuzz_payloads():
            replies = fuzz_exchange(server.port, payload)
            if any(line.strip() for line in payload.split(b"\n")):
                assert replies, f"no reply to {payload[:40]!r}"
            assert all(r.get("type") == "error" for r in replies), payload
        with server.client() as client:
            assert client.ping()["type"] == "pong"
