"""Observability-layer tests: rate meters, the fair queue, priority
classification, structured request logs, the ``metrics`` wire op, load
shedding with client retry, multi-tenant fairness, and the
byte-stability of the streamed sweep messages.

The unit tests pin the scheduling/counting primitives with injected
clocks and in-memory streams; the loopback tests drive a real daemon
over TCP the same way ``tests/test_service.py`` does (its harness is
imported here).  Shedding is made deterministic by holding the
dispatcher with a gate (``held_dispatcher``): with ``max_pending=1``
and ``MAX_BATCH`` patched to 1 the dispatcher waits on the gate with
its first point while the second keeps the queue full, so an admission
check before the test opens the gate always sees zero free slots — no
sleeps, no racing the simulator.
"""

import asyncio
import io
import json
import socket
import threading
import time

import pytest

from repro.baselines import runner
from repro.service import (
    FairQueue,
    Overloaded,
    RateMeter,
    RequestLog,
    classify_priority,
)
from repro.service import server as service_server
from repro.service.protocol import KNOWN_OPS, encode_message
from test_service import (
    BANDWIDTH_GB,
    CONFIGS,
    DISTINCT_KEYS,
    WORKLOAD,
    ServerThread,
    _reset_runner,
    held_dispatcher,
    submit_standard,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


class TestRateMeter:
    def test_young_meter_divides_by_uptime_not_window(self):
        clock = FakeClock()
        meter = RateMeter(window_s=60.0, clock=clock)
        clock.t = 2.0
        meter.record(4)
        assert meter.rate() == pytest.approx(2.0)

    def test_old_events_fall_out_of_the_window(self):
        clock = FakeClock()
        meter = RateMeter(window_s=10.0, clock=clock)
        meter.record(100)
        clock.t = 11.0  # the burst is now outside the window
        meter.record(5)
        assert meter.rate() == pytest.approx(0.5)

    def test_total_is_lifetime_and_monotone(self):
        clock = FakeClock()
        meter = RateMeter(window_s=1.0, clock=clock)
        meter.record(3)
        clock.t = 100.0
        meter.record(2)
        assert meter.total == 5
        assert meter.rate() == pytest.approx(2.0)

    def test_nonpositive_records_are_ignored(self):
        meter = RateMeter(window_s=10.0, clock=FakeClock())
        meter.record(0)
        meter.record(-4)
        assert meter.total == 0 and meter.rate() == 0.0


class TestClassifyPriority:
    def test_explicit_choice_wins_over_size(self):
        assert classify_priority("bulk", 1) == "bulk"
        assert classify_priority("interactive", 10_000) == "interactive"

    def test_size_decides_when_unspecified(self):
        assert classify_priority(None, 64) == "interactive"
        assert classify_priority(None, 65) == "bulk"


def run(coro):
    return asyncio.run(coro)


class TestFairQueue:
    def test_round_robin_interleaves_tenants(self):
        async def go():
            q = FairQueue(10)
            for item in ("a1", "a2", "a3"):
                await q.put(item, client="alice")
            await q.put("b1", client="bob")
            return [q.get_nowait() for _ in range(4)]

        # alice's backlog does not starve bob: he is served after one
        # alice entry, not after three.
        assert run(go()) == ["a1", "b1", "a2", "a3"]

    def test_interactive_jumps_own_bulk_backlog(self):
        async def go():
            q = FairQueue(10)
            await q.put("sweep", client="alice", priority="bulk")
            await q.put("probe", client="alice", priority="interactive")
            return [q.get_nowait() for _ in range(2)]

        assert run(go()) == ["probe", "sweep"]

    def test_full_queue_sheds_with_retry_hint(self):
        # What the server's admission check reads before it sheds.
        async def go():
            q = FairQueue(2)
            assert q.free_slots() == 2
            await q.put("x", client="a")
            assert q.free_slots() == 1
            await q.put("y", client="b")
            return q.free_slots(), q.overload_reason(), q.retry_after_s()

        free, reason, hint = run(go())
        assert free == 0
        assert reason == "queue full (2/2 pending across 2 client(s))"
        assert 0.1 <= hint <= 30.0

    def test_blocking_put_waits_for_a_slot(self):
        async def go():
            q = FairQueue(1)
            await q.put("first", client="a")
            admitted = []

            async def putter():
                await q.put("second", client="a")
                admitted.append(True)

            task = asyncio.ensure_future(putter())
            await asyncio.sleep(0)
            assert not admitted  # blocked: queue is full
            assert q.get_nowait() == "first"
            await task
            return admitted and q.get_nowait() == "second"

        assert run(go())

    def test_get_blocks_until_an_item_arrives(self):
        async def go():
            q = FairQueue(4)
            task = asyncio.ensure_future(q.get())
            await asyncio.sleep(0)
            assert not task.done()
            await q.put("late", client="a")
            return await task

        assert run(go()) == "late"

    def test_get_nowait_empty_raises_queue_empty(self):
        async def go():
            q = FairQueue(4)
            with pytest.raises(asyncio.QueueEmpty):
                q.get_nowait()

        run(go())

    def test_drained_lane_leaves_the_rotation(self):
        async def go():
            q = FairQueue(10)
            await q.put("a1", client="alice")
            await q.put("b1", client="bob")
            q.get_nowait()  # alice drained and removed
            await q.put("b2", client="bob")
            return [q.get_nowait() for _ in range(2)], q.client_depths()

        # No empty alice lane burning turns: bob drains back-to-back.
        assert run(go()) == (["b1", "b2"], {})


class TestRequestLog:
    def _records(self, fn):
        stream = io.StringIO()
        fn(RequestLog(stream))
        return [json.loads(line) for line in
                stream.getvalue().splitlines()]

    def test_one_compact_json_line_per_request(self):
        [rec] = self._records(lambda log: log.log(
            "sweep", client="alice", job="j1", points=4, sims=2,
            hits=1, coalesced=1, duration_s=0.25, outcome="done"))
        assert rec["client"] == "alice" and rec["op"] == "sweep"
        assert rec["job"] == "j1"
        assert (rec["points"], rec["sims"], rec["hits"],
                rec["coalesced"]) == (4, 2, 1, 1)
        assert rec["duration_s"] == 0.25 and rec["outcome"] == "done"
        assert "error" not in rec and isinstance(rec["ts"], float)

    def test_trace_fields_ride_along_only_when_traced(self):
        [traced, untraced] = self._records(lambda log: (
            log.log("points", trace={"trace_id": "ab" * 8,
                                     "span_id": "cd" * 4,
                                     "parent_span": "ef" * 4}),
            log.log("points")))
        assert traced["trace_id"] == "ab" * 8
        assert traced["span_id"] == "cd" * 4
        assert traced["parent_span"] == "ef" * 4
        for field in ("trace_id", "span_id", "parent_span"):
            assert field not in untraced

    def test_anonymous_client_and_error_fields(self):
        [rec] = self._records(lambda log: log.log(
            "tune", outcome="shed", error="overloaded: queue full"))
        assert rec["client"] == "anon"
        assert rec["outcome"] == "shed"
        assert rec["error"] == "overloaded: queue full"

    def test_dead_stream_never_raises(self):
        stream = io.StringIO()
        log = RequestLog(stream)
        stream.close()
        log.log("ping")  # must not blow up the serving path


@pytest.fixture
def server(tmp_path):
    _reset_runner()
    with ServerThread(cache_dir=str(tmp_path / "cache")) as srv:
        yield srv
    _reset_runner()


class TestMetricsOp:
    def test_counters_are_monotone_under_concurrent_clients(self, server):
        outcomes = []

        def one_client(name):
            with server.client(client_id=name) as client:
                outcomes.append(submit_standard(client))

        threads = [threading.Thread(target=one_client, args=(name,))
                   for name in ("alice", "bob")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(outcomes) == 2

        with server.client() as client:
            first = client.metrics()
            second = client.metrics()

        assert first["type"] == "metrics" and first["role"] == "shard"
        assert first["protocol"] >= 5
        # 2 clients x 4 points sharing DISTINCT_KEYS traffic keys: each
        # key was simulated exactly once, and the second job's claims
        # were answered by a warm hit or by coalescing onto the
        # in-flight simulation (the split between the two is a
        # scheduling race; their sum is not — claims are per distinct
        # key, bandwidth variants dedup inside the job).
        assert first["simulations"] == DISTINCT_KEYS
        assert (first["hits_total"] + first["coalesced_total"]
                == DISTINCT_KEYS)
        assert first["shed_total"] == 0
        assert first["points_streamed"] == 8
        assert first["rates"]["sims_per_s"] > 0
        assert first["rates"]["window_s"] > 0
        assert first["queue_depth"] == 0 and first["max_pending"] >= 1
        store = first["store"]
        assert store["entries"] == DISTINCT_KEYS
        assert store["corrupt"] == 0
        # Polling must never move a counter backwards.
        for key in ("points_streamed", "simulations", "hits_total",
                    "coalesced_total", "shed_total"):
            assert second[key] >= first[key]
        assert second["uptime_s"] >= first["uptime_s"]

    def test_warm_resubmit_counts_as_hits_not_coalesced(self, server):
        with server.client(client_id="alice") as client:
            submit_standard(client)
            before = client.metrics()
            outcome = submit_standard(client)
            after = client.metrics()
        assert outcome.simulations == 0
        # Nothing was in flight on the resubmit, so every distinct-key
        # claim is a warm store hit — the split distinguishes exactly
        # this from coalescing behind another client's in-flight work.
        assert after["hits_total"] == before["hits_total"] + DISTINCT_KEYS
        assert after["coalesced_total"] == before["coalesced_total"]
        assert after["simulations"] == before["simulations"]

    def test_store_block_and_warm_hits_count_what_happened(self, tmp_path):
        """A cold 2-key sweep simulates 2 keys; a warm resubmit is
        answered by 2 warm hits; a second daemon on the same directory
        answers from disk with no new simulation.  The ``store`` block
        describes the store, and counts no lookups."""
        cache = str(tmp_path / "cache")
        _reset_runner()
        with ServerThread(cache_dir=cache) as srv:
            with srv.client() as client:
                cold = client.metrics()
                submit_standard(client)
                mid = client.metrics()
                submit_standard(client)
                warm = client.metrics()
        assert cold["hits_total"] == 0 and cold["simulations"] == 0
        assert mid["simulations"] == DISTINCT_KEYS
        assert mid["hits_total"] == 0
        assert warm["simulations"] == DISTINCT_KEYS
        assert warm["hits_total"] == DISTINCT_KEYS
        assert sorted(warm["store"]) == sorted((
            "directory", "schema_version", "entries", "stale",
            "duplicates", "corrupt"))
        assert warm["store"]["entries"] == DISTINCT_KEYS

        # A fresh process state on the same directory: the store answers.
        _reset_runner()
        with ServerThread(cache_dir=cache) as srv:
            with srv.client() as client:
                outcome = submit_standard(client)
                again = client.metrics()
        _reset_runner()
        assert outcome.simulations == 0 and outcome.hits == DISTINCT_KEYS
        assert again["simulations"] == 0
        assert again["hits_total"] == DISTINCT_KEYS
        assert again["store"]["entries"] == DISTINCT_KEYS
        # Stopping a service leaves only the results in the directory.
        assert [p.name for p in (tmp_path / "cache").iterdir()] \
            == ["results.jsonl"]

    def test_metrics_cli_verb_renders_and_emits_json(self, server, capsys):
        from repro.cli import main

        with server.client() as client:
            submit_standard(client)
        assert main(["metrics", "--port", str(server.port)]) == 0
        out = capsys.readouterr().out
        assert "Metrics: shard" in out
        assert "sims/s:" in out and "warm hits:" in out
        assert main(["metrics", "--port", str(server.port),
                     "--json"]) == 0
        msg = json.loads(capsys.readouterr().out)
        assert msg["simulations"] == DISTINCT_KEYS


class TestLoadShedding:
    @pytest.fixture
    def tiny_server(self, tmp_path, monkeypatch):
        # max_pending=1 + a held dispatcher: the dispatcher takes its
        # single-point batch and waits on the gate, so a second queued
        # point keeps the queue full until the test opens the gate —
        # admission checks before that deterministically see no slot.
        _reset_runner()
        monkeypatch.setattr(service_server, "MAX_BATCH", 1)
        with ServerThread(cache_dir=str(tmp_path / "cache"),
                          max_pending=1) as srv, \
                held_dispatcher(monkeypatch) as gate:
            yield srv, gate
        _reset_runner()

    def _fill_queue(self, srv):
        """Submit a 2-point interactive sweep in the background and wait
        until its second point is sitting in the (size-1) queue."""
        outcome = {}

        def filler():
            with srv.client(client_id="filler") as client:
                outcome["filler"] = client.submit_sweep(
                    [WORKLOAD], configs=[CONFIGS[0]],
                    sram_mb=[1.0, 2.0], bandwidth_gb=[BANDWIDTH_GB[0]])

        thread = threading.Thread(target=filler)
        thread.start()
        deadline = time.monotonic() + 30
        while srv.service._queue is None \
                or srv.service._queue.qsize() < 1:
            assert time.monotonic() < deadline, "queue never filled"
            time.sleep(0.005)
        return thread, outcome

    def test_bulk_is_shed_with_typed_error_then_retry_succeeds(
            self, tiny_server):
        srv, gate = tiny_server
        thread, filled = self._fill_queue(srv)
        try:
            with srv.client(client_id="bulky") as client:
                with pytest.raises(Overloaded) as exc_info:
                    client.submit_sweep(
                        [WORKLOAD], configs=[CONFIGS[1]],
                        bandwidth_gb=list(BANDWIDTH_GB),
                        priority="bulk", overload_retries=0)
                assert exc_info.value.retry_after_s > 0
                assert "overloaded" in str(exc_info.value)

                # Same submission with retries enabled: it is shed again
                # while the gate is shut, the first backoff opens it, and
                # the retry is admitted and completes without
                # re-simulating anything another client already ran.
                retries = []

                def open_gate(n, delay, exc):
                    retries.append((n, delay))
                    gate.set()

                outcome = client.submit_sweep(
                    [WORKLOAD], configs=[CONFIGS[1]],
                    bandwidth_gb=list(BANDWIDTH_GB),
                    priority="bulk", overload_retries=50,
                    on_retry=open_gate)
                assert retries, "retry path never fired"
                assert all(delay <= 60.0 for _, delay in retries)
                assert len(outcome.points) == 2
                metrics = client.metrics()
            assert metrics["shed_total"] >= 2  # the no-retry try + >=1 retry
            # The shed-then-retry cycle duplicated no simulations:
            # every key in the store was simulated exactly once.
            assert metrics["simulations"] == 3  # 2 filler srams + 1 CELLO
        finally:
            gate.set()
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert len(filled["filler"].points) == 2

    def test_tune_is_shed_before_bulk_capacity_is_reached(
            self, tiny_server):
        # Tune searches are the lowest tier: with max_pending=1 the tune
        # shed threshold is one queued entry, which _fill_queue pins.
        srv, gate = tiny_server
        thread, _ = self._fill_queue(srv)
        try:
            with srv.client(client_id="tuner") as client:
                with pytest.raises(Overloaded) as exc_info:
                    client.submit_tune(WORKLOAD, strategy="grid",
                                       budget=4, sram_mb=[4.0],
                                       entries=[64])
            assert exc_info.value.retry_after_s > 0
            assert "tune searches are shed first" in str(exc_info.value)
        finally:
            gate.set()
            thread.join(timeout=120)
            assert not thread.is_alive()

    def test_interactive_is_never_shed_it_queues(self, tiny_server):
        # The probe is admitted (``accepted``) while the queue is full;
        # only then does the test open the gate and let it through.
        srv, gate = tiny_server
        thread, _ = self._fill_queue(srv)

        def open_on_accept(msg):
            if msg.get("type") == "accepted":
                assert srv.service._queue.free_slots() == 0
                gate.set()

        try:
            with srv.client(client_id="probe") as client:
                outcome = client.submit_sweep(
                    [WORKLOAD], configs=[CONFIGS[1]],
                    bandwidth_gb=[BANDWIDTH_GB[0]],
                    on_message=open_on_accept,
                    overload_retries=0)  # would raise if shed
            assert len(outcome.points) == 1
            assert gate.is_set()
        finally:
            gate.set()
            thread.join(timeout=120)
            assert not thread.is_alive()


class TestFairnessUnderLoad:
    def test_interactive_tenant_is_not_starved_by_a_bulk_sweep(
            self, tmp_path, monkeypatch):
        """Two tenants: one submits a wide bulk sweep, the other a
        1-point probe after the bulk backlog is queued.  Round-robin
        lanes must finish the probe long before the sweep — under
        the old single FIFO the probe waited out the whole backlog."""
        _reset_runner()
        finished = {}
        monkeypatch.setattr(service_server, "MAX_BATCH", 1)
        with ServerThread(cache_dir=str(tmp_path / "cache")) as srv:
            bulk_started = threading.Event()

            def bulk_tenant():
                with srv.client(client_id="bulk-co") as client:
                    def saw_accept(msg):
                        if msg.get("type") == "accepted":
                            bulk_started.set()
                    outcome = client.submit_sweep(
                        [WORKLOAD], configs=list(CONFIGS),
                        sram_mb=[float(m) for m in range(1, 13)],
                        bandwidth_gb=[BANDWIDTH_GB[0]],
                        priority="bulk", on_message=saw_accept)
                finished["bulk"] = time.monotonic()
                finished["bulk_points"] = len(outcome.points)

            thread = threading.Thread(target=bulk_tenant)
            thread.start()
            assert bulk_started.wait(timeout=60)
            with srv.client(client_id="interactive-co") as client:
                probe = client.submit_sweep(
                    [WORKLOAD], configs=[CONFIGS[0]], sram_mb=[16.0],
                    bandwidth_gb=[BANDWIDTH_GB[0]])
            finished["probe"] = time.monotonic()
            thread.join(timeout=300)
            assert not thread.is_alive()
        _reset_runner()
        assert len(probe.points) == 1
        assert finished["bulk_points"] == 24
        # The probe landed mid-backlog and still finished first.
        assert finished["probe"] < finished["bulk"]


class TestRequestLogWiring:
    def test_server_logs_submissions_and_queries(self, tmp_path):
        _reset_runner()
        stream = io.StringIO()
        with ServerThread(cache_dir=str(tmp_path / "cache"),
                          request_log=RequestLog(stream)) as srv:
            with srv.client(client_id="alice") as client:
                client.ping()
                submit_standard(client)
        _reset_runner()
        records = [json.loads(line) for line in
                   stream.getvalue().splitlines()]
        by_op = {rec["op"]: rec for rec in records}
        assert by_op["ping"]["client"] == "alice"
        assert by_op["ping"]["outcome"] == "ok"
        assert by_op["ping"]["duration_s"] >= 0
        sweep = by_op["sweep"]
        assert sweep["client"] == "alice" and sweep["outcome"] == "done"
        assert sweep["points"] == 4
        assert sweep["sims"] == DISTINCT_KEYS
        assert sweep["job"].startswith("j")
        assert sweep["duration_s"] > 0
        # Untraced traffic never grows trace fields in its records.
        assert "trace_id" not in sweep and "trace_id" not in by_op["ping"]


class TestProtocolV4Stability:
    def _exchange(self, port, request):
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=60) as sock:
            sock.sendall(encode_message(request))
            sock.shutdown(socket.SHUT_WR)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        return [json.loads(line) for line in data.split(b"\n")
                if line.strip()]

    def test_v4_sweep_replies_carry_no_new_fields(self, server):
        """A client that sends no ``client``/``priority`` must read
        back exactly the base message shapes — the scheduling
        and metrics work must not leak fields into the stream."""
        messages = self._exchange(server.port, {
            "op": "sweep", "workloads": [WORKLOAD],
            "configs": list(CONFIGS),
            "bandwidth_gb": list(BANDWIDTH_GB)})
        by_type = {}
        for msg in messages:
            by_type.setdefault(msg["type"], []).append(msg)
        [accepted] = by_type["accepted"]
        assert set(accepted) == {"type", "job", "kind", "points"}
        assert len(by_type["result"]) == 4
        for result in by_type["result"]:
            assert set(result) == {"type", "job", "index", "done",
                                   "total", "point", "result"}
        [done] = by_type["done"]
        assert set(done) == {"type", "job", "points", "simulations",
                             "hits", "coalesced", "elapsed_s"}
        assert done["points"] == 4
        assert done["simulations"] == DISTINCT_KEYS

    def test_retired_status_ops_are_unknown_and_the_connection_serves_on(
            self, server):
        """``stats`` and ``topology`` folded into ``metrics``: each is
        an ``unknown op`` error naming the known ops, and the next
        request on the same connection is answered."""
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=60) as sock:
            for op in ("stats", "topology", "jobs", "metrics"):
                sock.sendall(encode_message({"op": op}))
            sock.shutdown(socket.SHUT_WR)
            replies = [json.loads(line) for line in
                       sock.makefile("rb").read().split(b"\n")
                       if line.strip()]
        stats, topology, jobs, metrics = replies
        for reply, op in ((stats, "stats"), (topology, "topology")):
            assert reply["type"] == "error"
            assert reply["error"] == (f"unknown op {op!r}; known: "
                                      f"{', '.join(KNOWN_OPS)}")
        assert "stats" not in KNOWN_OPS and "topology" not in KNOWN_OPS
        assert jobs["type"] == "jobs"
        assert metrics["type"] == "metrics"

    def test_bad_client_field_is_a_protocol_error_not_a_hang(
            self, server):
        [err] = self._exchange(server.port, {
            "op": "sweep", "workloads": [WORKLOAD], "client": 42})
        assert err["type"] == "error"
        assert "client" in err["error"]
