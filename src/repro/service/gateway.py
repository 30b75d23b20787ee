"""The sharded-fabric gateway daemon.

``repro gateway`` fronts N independent ``repro serve`` shards and makes
them look like one daemon to an unmodified
:class:`~repro.service.client.ServiceClient`.  The trick that keeps the
single-daemon guarantees intact is *routing by traffic key*: every sweep
point is assigned to a shard by consistent hash
(:class:`~repro.service.hashing.HashRing`) of the same
bandwidth-independent key the result store and the runner cache use.
Points that would share one simulation therefore always land on the
same shard, so that shard's local single-flight table remains a
globally correct dedup — no cross-shard locks, no coordination
protocol.

What the gateway does per sweep/points job:

* partition the point list across *healthy* shards by hashed key,
* ship each partition as one protocol-v4 ``points`` op,
* merge the per-shard streams back into the client's stream in strict
  global submission order, passing each ``point``/``result`` payload
  through verbatim (byte-identical to what a lone daemon would send),
* on a shard death mid-stream (EOF, connection reset, read timeout),
  re-hash only that shard's unfinished points over the survivors and
  keep going — the ``done`` message reports how many points were
  ``requeued``.

Requeue never duplicates simulations when the shards share a cache
directory: the dying shard's completed results are already on disk
(single atomic append per record), and every shard reloads the store
before claiming cold keys (:meth:`SimulationService._sync_store`), so
requeued-but-already-simulated keys resolve as warm hits.

Tune jobs are forwarded whole to one shard (chosen by hash of the
workload name) and their stream proxied; they are **not** requeued on
shard death — a tuner's search state lives in the shard.  ``predict``
fails over across healthy shards.  A shard ``error`` reply (a
deterministic simulation failure) fails the job without requeue:
re-running it elsewhere would fail the same way.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..orchestrator.spec import SweepPoint
from ..orchestrator.store import ResultStore
from ..workloads.registry import all_workloads, is_resolvable
from .hashing import DEFAULT_REPLICAS, EmptyRing, HashRing
from .jobs import Job, JobRegistry, JobState, workload_family
from .metrics import DEFAULT_WINDOW_S, HistogramFamily, RateMeter
from .promexport import PromExporter
from .protocol import (
    DEFAULT_HOST,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    parse_request,
    parse_submit_fields,
    points_request,
    request_to_points,
    request_to_spec,
)
from .reqlog import RequestLog
from .scheduling import classify_priority
from .tracing import SpanContext, attach_trace, parse_trace_fields


class _JobCancelled(Exception):
    """Internal control flow: a gateway job observed its cancel event."""


class _NoHealthyShards(Exception):
    """Internal control flow: routing found zero live shards."""


class _ShardJobError(Exception):
    """A shard reported a terminal job error; carries the typed fields
    (``code`` / ``retry_after_s``) so an ``overloaded`` shed by a shard
    reaches the gateway's client intact and its retry logic still
    works."""

    def __init__(self, shard_id: str, error: str,
                 code: Optional[str] = None,
                 retry_after_s: Optional[float] = None) -> None:
        super().__init__(f"shard {shard_id}: {error}")
        self.code = code
        self.retry_after_s = retry_after_s


def parse_shard_addrs(specs: Sequence[str]) -> List[Tuple[str, int]]:
    """Parse ``host:port`` / bare-``port`` shard specs (CLI ``--shards``).

    Rejects duplicates: the ring treats shard ids as distinct nodes, and
    listing one shard twice would silently skew its key share.
    """
    addrs: List[Tuple[str, int]] = []
    seen = set()
    for spec in specs:
        text = spec.strip()
        host, _, port_text = text.rpartition(":")
        if not host:
            host = DEFAULT_HOST
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(
                f"bad shard address {spec!r}: expected host:port or port")
        if not (0 < port < 65536):
            raise ValueError(f"bad shard address {spec!r}: port out of range")
        addr = (host, port)
        if addr in seen:
            raise ValueError(f"duplicate shard address {spec!r}")
        seen.add(addr)
        addrs.append(addr)
    if not addrs:
        raise ValueError("a gateway needs at least one shard address")
    return addrs


@dataclass
class ShardState:
    """The gateway's view of one backend daemon."""

    id: str                       # "host:port" — also the ring node id
    host: str
    port: int
    healthy: bool = False
    #: The last failure was a timeout (no answer within the ping or read
    #: timeout), not a quick refusal.  A job re-probes only DOWN shards
    #: that failed quickly, so a shard that hangs costs no job a timeout.
    stalled: bool = False
    protocol: Optional[int] = None
    last_error: Optional[str] = None
    deaths: int = 0               # times this shard failed mid-job
    requeued: int = 0             # points re-hashed off this shard's deaths

    def snapshot(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "host": self.host,
            "port": self.port,
            "healthy": self.healthy,
            "protocol": self.protocol,
            "deaths": self.deaths,
            "requeued": self.requeued,
            "error": self.last_error,
        }


class GatewayService:
    """The daemon behind ``repro gateway``.

    Lifecycle mirrors :class:`~repro.service.server.SimulationService`
    (:meth:`run` / :meth:`wait_started` / :meth:`request_stop`) so the
    same thread harnesses drive both.  The gateway holds no simulation
    state of its own — no pool, no store — which is why restarting it
    loses nothing but in-flight client conversations.
    """

    def __init__(self,
                 shards: Sequence[Tuple[str, int]],
                 host: str = DEFAULT_HOST,
                 port: int = 0,
                 replicas: int = DEFAULT_REPLICAS,
                 health_interval_s: float = 2.0,
                 ping_timeout_s: float = 5.0,
                 shard_read_timeout_s: float = 600.0,
                 keep_jobs: int = 256,
                 request_log: Optional[RequestLog] = None,
                 metrics_window_s: float = DEFAULT_WINDOW_S,
                 prom_port: Optional[int] = None) -> None:
        self.host = host
        self.port = port
        self.replicas = max(1, replicas)
        self.health_interval_s = max(0.05, health_interval_s)
        self.ping_timeout_s = max(0.05, ping_timeout_s)
        self.shard_read_timeout_s = max(0.05, shard_read_timeout_s)
        self.registry = JobRegistry(keep=keep_jobs)
        self.request_log = request_log
        self.startup_error: Optional[BaseException] = None
        self.points_streamed = 0
        self.requeued_total = 0
        self.prom_port = prom_port
        self._points_meter = RateMeter(metrics_window_s)
        self._latency = HistogramFamily(("op", "family", "priority"))
        self._prom: Optional[PromExporter] = None
        self._shards: "Dict[str, ShardState]" = {}
        for shard_host, shard_port in shards:
            state = ShardState(id=f"{shard_host}:{shard_port}",
                               host=shard_host, port=shard_port)
            if state.id in self._shards:
                raise ValueError(f"duplicate shard {state.id}")
            self._shards[state.id] = state
        if not self._shards:
            raise ValueError("a gateway needs at least one shard")
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._t0 = 0.0
        #: In-flight health probes by shard id, shared by every caller.
        self._probes: "Dict[str, asyncio.Task]" = {}

    # -- lifecycle -------------------------------------------------------------

    async def run(self, announce=None) -> None:
        """Serve until a ``shutdown`` op or :meth:`request_stop`."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_conn, self.host, self.port or 0,
                limit=MAX_LINE_BYTES)
        except OSError as exc:
            self.startup_error = exc
            self._started.set()
            raise
        self.port = server.sockets[0].getsockname()[1]
        # One initial sweep of the shard table before accepting work so
        # the first job routes around shards that never came up.
        await asyncio.gather(*(self._probe(s) for s in self._shards.values()))
        health = asyncio.create_task(self._health_loop())
        self._t0 = time.monotonic()
        if self.prom_port is not None:
            try:
                self._prom = PromExporter(self.metrics_snapshot,
                                          host=self.host,
                                          port=self.prom_port)
                self.prom_port = self._prom.start()
            except OSError as exc:
                self.startup_error = exc
                self._started.set()
                server.close()
                health.cancel()
                await asyncio.gather(health, return_exceptions=True)
                raise
        self._started.set()
        if announce is not None:
            healthy = sum(1 for s in self._shards.values() if s.healthy)
            prom_desc = (f", prometheus: :{self.prom_port}/metrics"
                         if self._prom is not None else "")
            announce(f"repro gateway listening on {self.host}:{self.port} "
                     f"(shards: {healthy}/{len(self._shards)} healthy, "
                     f"ring replicas: {self.replicas}{prom_desc})")
        try:
            await self._stop.wait()
        finally:
            # Same rationale as the shard daemon: close without
            # wait_closed() so an idle client cannot hang shutdown.
            server.close()
            tasks = [health, *self._probes.values()]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            if self._prom is not None:
                await self._loop.run_in_executor(None, self._prom.stop)
                self._prom = None

    def wait_started(self, timeout: Optional[float] = None) -> bool:
        """Block (from another thread) until the gateway accepts
        connections; check :attr:`startup_error` on ``True``."""
        return self._started.wait(timeout)

    def request_stop(self) -> None:
        """Thread-safe shutdown trigger (SIGINT handler, test teardown)."""
        loop, stop = self._loop, self._stop
        if loop is None or stop is None:
            return
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:
            pass  # loop already closed — the gateway stopped on its own

    # -- shard health ----------------------------------------------------------

    async def _health_loop(self) -> None:
        """Re-ping every shard on a fixed cadence.

        Detects deaths between jobs and *resurrections*: a restarted
        shard re-enters the ring, and — consistent hashing — reclaims
        exactly the keys it owned before, nothing else moves.
        """
        while True:
            await asyncio.sleep(self.health_interval_s)
            await asyncio.gather(
                *(self._probe(s) for s in self._shards.values()))

    async def _probe(self, shard: ShardState) -> None:
        """Ping ``shard``, joining the probe already in flight if there
        is one, so concurrent jobs and the health loop open one
        connection between them."""
        task = self._probes.get(shard.id)
        if task is None:
            task = asyncio.ensure_future(self._check_shard(shard))
            self._probes[shard.id] = task
            task.add_done_callback(
                lambda _: self._probes.pop(shard.id, None))
        # Shielded: a caller that is cancelled (its client went away)
        # must not cancel the probe the other callers are waiting on.
        await asyncio.shield(task)

    async def _check_shard(self, shard: ShardState) -> None:
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(shard.host, shard.port,
                                        limit=MAX_LINE_BYTES),
                self.ping_timeout_s)
        except (OSError, asyncio.TimeoutError) as exc:
            self._mark_unhealthy(shard, f"unreachable: {exc or 'timeout'}",
                                 exc)
            return
        try:
            writer.write(encode_message({"op": "ping"}))
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(),
                                          self.ping_timeout_s)
            msg = decode_message(line) if line else {}
            protocol = msg.get("protocol")
            if msg.get("type") != "pong" or not isinstance(protocol, int):
                raise ProtocolError("did not answer ping with a pong")
            shard.protocol = protocol
            if protocol < 4:
                # The fan-out runs on the v4 `points` op; an old daemon
                # would reject every partition, so fail it up front.
                raise ProtocolError(
                    f"speaks protocol v{protocol}, gateway needs v4+")
            shard.healthy = True
            shard.stalled = False
            shard.last_error = None
        except (OSError, asyncio.TimeoutError, ProtocolError,
                ValueError) as exc:
            self._mark_unhealthy(shard, str(exc) or "ping timeout", exc)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _mark_unhealthy(self, shard: ShardState, reason: str,
                        cause: BaseException) -> None:
        if shard.healthy:
            shard.deaths += 1
        shard.healthy = False
        shard.stalled = isinstance(cause, asyncio.TimeoutError)
        shard.last_error = reason

    async def _reprobe_down(self) -> None:
        """Ping, now, every DOWN shard whose last failure was quick.

        Called before a job picks its shards and before ``ping`` and
        ``metrics`` report shard health, so a shard that came up since
        the last health pass serves this job and is counted.  This
        closes the boot race: a gateway started alongside its shards
        marks them DOWN on its initial sweep (connection refused), and
        would otherwise answer "no healthy shards" until the next pass.

        A shard that refuses connections fails such a probe within one
        network round trip.  A ``stalled`` shard (its last
        probe or read timed out: a host that drops connection attempts,
        or a process that accepts and never answers) is left to the
        health loop, so it costs no caller a timeout.  A shard that goes
        from refusing to hanging costs the callers that reach it first
        one ping timeout, shared through :meth:`_probe`.  A requeue does
        not re-probe: failover routes over the survivors only.
        """
        await asyncio.gather(*(self._probe(s)
                               for s in self._shards.values()
                               if not s.healthy and not s.stalled))

    def _healthy_ring(self) -> HashRing:
        healthy = [s.id for s in self._shards.values() if s.healthy]
        if not healthy:
            raise _NoHealthyShards
        return HashRing(healthy, replicas=self.replicas)

    # -- connection handling ---------------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter,
                    msg: Dict[str, object]) -> None:
        writer.write(encode_message(msg))
        await writer.drain()

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    await self._send(writer, {
                        "type": "error", "job": None,
                        "error": f"request line exceeds {MAX_LINE_BYTES} "
                                 "bytes"})
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    req = parse_request(line)
                except ProtocolError as exc:
                    await self._send(writer, {"type": "error", "job": None,
                                              "error": str(exc)})
                    continue
                if await self._handle_request(req, writer):
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; shard-side jobs keep warming stores
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(self, req: Dict[str, object],
                              writer: asyncio.StreamWriter) -> bool:
        """Serve one request; ``True`` closes the connection."""
        op = req["op"]
        t_start = time.monotonic()
        if op in ("ping", "metrics"):
            await self._reprobe_down()
        if op == "ping":
            healthy = sum(1 for s in self._shards.values() if s.healthy)
            await self._send(writer, {"type": "pong",
                                      "server": "repro-gateway",
                                      "protocol": PROTOCOL_VERSION,
                                      "shards_healthy": healthy,
                                      "shards_total": len(self._shards)})
        elif op == "jobs":
            await self._send(writer, {"type": "jobs",
                                      "jobs": self.registry.snapshots()})
        elif op == "stats":
            await self._send(writer, self._stats_msg())
        elif op == "metrics":
            await self._send(writer, self._metrics_msg())
        elif op == "topology":
            await self._send(writer, self._topology_msg())
        elif op == "predict":
            await self._forward_predict(req, writer)
        elif op == "cancel":
            await self._handle_cancel(req, writer)
        elif op == "shutdown":
            await self._send(writer, {"type": "ok", "stopping": True})
            assert self._stop is not None
            self._stop.set()
            return True
        elif op == "tune":
            await self._forward_tune(req, writer)
        else:  # "simulate" / "sweep" / "points"
            await self._merged_job(req, writer)
        if op not in ("simulate", "sweep", "points", "tune"):
            # Submissions log themselves with job context at finish.
            elapsed = time.monotonic() - t_start
            self._latency.observe((str(op), "-", "-"), elapsed)
            if self.request_log is not None:
                client = req.get("client")
                self.request_log.log(
                    str(op),
                    client=client if isinstance(client, str) else None,
                    trace=self._query_trace(req),
                    duration_s=elapsed)
        return False

    def _query_trace(self, req: Dict[str, object]
                     ) -> Optional[Dict[str, str]]:
        """Span fields for a query op's log record (queries answered by
        the gateway itself are leaf hops).  Malformed trace fields never
        fail an already-answered request — they just go unlogged."""
        try:
            caller = parse_trace_fields(req)
        except ProtocolError:
            return None
        return caller.child().log_fields() if caller is not None else None

    def _topology_msg(self) -> Dict[str, object]:
        return {
            "type": "topology",
            "role": "gateway",
            "protocol": PROTOCOL_VERSION,
            "host": self.host,
            "port": self.port,
            "replicas": self.replicas,
            "requeued_total": self.requeued_total,
            "shards": [s.snapshot() for s in self._shards.values()],
        }

    def _stats_msg(self) -> Dict[str, object]:
        healthy = sum(1 for s in self._shards.values() if s.healthy)
        return {
            "type": "stats",
            "role": "gateway",
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self._t0, 3),
            "jobs": self.registry.counts_by_state(),
            "points_streamed": self.points_streamed,
            "requeued_total": self.requeued_total,
            "shards_healthy": healthy,
            "shards_total": len(self._shards),
        }

    def _metrics_msg(self) -> Dict[str, object]:
        """Gateway-side operational counters; per-shard dedup and queue
        detail lives behind each shard's own ``metrics`` op."""
        healthy = sum(1 for s in self._shards.values() if s.healthy)
        return {
            "type": "metrics",
            "role": "gateway",
            "protocol": PROTOCOL_VERSION,
            "server": "repro-gateway",
            "uptime_s": round(time.monotonic() - self._t0, 3),
            "points_streamed": self.points_streamed,
            "requeued_total": self.requeued_total,
            "jobs": self.registry.counts_by_state(),
            "rates": {
                "window_s": self._points_meter.window_s,
                "points_per_s": round(self._points_meter.rate(), 4),
            },
            "latency": self._latency.snapshot(),
            "shards_healthy": healthy,
            "shards_total": len(self._shards),
            "shards": [s.snapshot() for s in self._shards.values()],
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """Thread-safe :meth:`_metrics_msg` for the Prometheus exporter:
        hops onto the event loop so scrape threads never read loop-owned
        state (registry, shard table) mid-mutation."""
        loop = self._loop
        if loop is None:
            raise RuntimeError("gateway not running")

        async def _snap() -> Dict[str, object]:
            return self._metrics_msg()

        return asyncio.run_coroutine_threadsafe(_snap(), loop).result(
            timeout=10)

    def _log_job(self, job: Job, outcome: Optional[str] = None) -> None:
        self._latency.observe((job.kind, job.family, job.priority),
                              job.elapsed_s())
        if self.request_log is None:
            return
        self.request_log.log(
            job.kind, client=job.client, job=job.id,
            trace=job.span.log_fields() if job.span is not None else None,
            points=job.total, sims=job.simulations, hits=job.hits,
            coalesced=job.coalesced, duration_s=job.elapsed_s(),
            outcome=outcome or job.state.value, error=job.error)

    async def _handle_cancel(self, req: Dict[str, object],
                             writer: asyncio.StreamWriter) -> None:
        job = self.registry.get(req.get("job"))
        if job is None:
            await self._send(writer, {
                "type": "error", "job": None,
                "error": f"unknown job {req.get('job')!r}"})
        elif job.kind == "tune":
            await self._send(writer, {
                "type": "error", "job": job.id,
                "error": "tune jobs cannot be cancelled"})
        elif job.finished_state:
            await self._send(writer, {
                "type": "error", "job": job.id,
                "error": f"job {job.id} already {job.state.value}"})
        else:
            job.cancel_event.set()
            await self._send(writer, {"type": "ok", "job": job.id})

    # -- merged sweep jobs -----------------------------------------------------

    async def _merged_job(self, req: Dict[str, object],
                          writer: asyncio.StreamWriter) -> None:
        """Fan a sweep/points job across the shards; stream the merge."""
        try:
            client, explicit_priority = parse_submit_fields(req)
            caller_span = parse_trace_fields(req)
            if req["op"] == "points":
                points: Sequence[SweepPoint] = request_to_points(req)
                summary = ", ".join(sorted({p.workload for p in points}))
            else:
                spec = request_to_spec(req)
                points = spec.points()
                summary = ", ".join(spec.workloads)
            if not points:
                raise ProtocolError(
                    "sweep matched no (workload, config) points")
            # Validate here, not on the shards: an unknown workload must
            # be one clean error, not N partial partition failures.
            bad = sorted({p.workload for p in points
                          if not is_resolvable(p.workload)})
            if bad:
                raise ProtocolError(
                    f"unknown workload(s): {', '.join(bad)}; known: "
                    f"{', '.join(sorted(all_workloads()))}")
        except (ProtocolError, ValueError) as exc:
            await self._send(writer, {"type": "error", "job": None,
                                      "error": str(exc)})
            return

        client = client or "anon"
        # Classify by the *whole* submission so each shard applies the
        # same scheduling class to its partition as a lone daemon would
        # to the full job.
        priority = classify_priority(explicit_priority, len(points))
        job = self.registry.create(str(req["op"]), summary=summary,
                                   client=client, priority=priority)
        job.total = len(points)
        job.family = workload_family(p.workload for p in points)
        if caller_span is not None:
            job.span = caller_span.child()
        accepted: Dict[str, object] = {"type": "accepted", "job": job.id,
                                       "kind": job.kind,
                                       "points": job.total}
        if job.span is not None:
            accepted["trace_id"] = job.span.trace_id
        await self._send(writer, accepted)
        job.state = JobState.RUNNING
        waiter = asyncio.ensure_future(job.cancel_event.wait())
        queue: "asyncio.Queue[Tuple[object, ...]]" = asyncio.Queue()
        tasks: "set[asyncio.Task]" = set()
        try:
            await self._run_merge(job, points, queue, tasks, waiter, writer)
        except _JobCancelled:
            job.finish(JobState.CANCELLED)
            await self._send(writer, {"type": "cancelled", "job": job.id,
                                      "done": job.done, "total": job.total})
        except _NoHealthyShards:
            error = ("no healthy shards: every backend daemon is down or "
                     "speaks a pre-v4 protocol; check 'repro jobs "
                     "--topology' and restart shards with 'repro serve'")
            job.finish(JobState.FAILED, error)
            await self._send(writer, {"type": "error", "job": job.id,
                                      "error": error})
        except (ConnectionError, asyncio.CancelledError):
            job.finish(JobState.FAILED, "client disconnected")
            raise
        except _ShardJobError as exc:
            # Pass a shard's typed error (notably an `overloaded` shed)
            # through with its fields so client-side retry still works.
            job.finish(JobState.FAILED, str(exc))
            msg: Dict[str, object] = {"type": "error", "job": job.id,
                                      "error": str(exc)}
            if exc.code is not None:
                msg["code"] = exc.code
            if exc.retry_after_s is not None:
                msg["retry_after_s"] = exc.retry_after_s
            await self._send(writer, msg)
        except Exception as exc:  # shard-reported simulation failure
            job.finish(JobState.FAILED, str(exc))
            await self._send(writer, {"type": "error", "job": job.id,
                                      "error": str(exc)})
        else:
            job.finish(JobState.DONE)
            done_msg: Dict[str, object] = {
                "type": "done", "job": job.id, "points": job.total,
                "simulations": job.simulations, "hits": job.hits,
                "coalesced": job.coalesced, "requeued": job.requeued,
                "elapsed_s": round(job.elapsed_s(), 3)}
            if job.span is not None:
                done_msg["trace_id"] = job.span.trace_id
            await self._send(writer, done_msg)
        finally:
            waiter.cancel()
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            self._log_job(job)

    async def _run_merge(self, job: Job, points: Sequence[SweepPoint],
                         queue: "asyncio.Queue[Tuple[object, ...]]",
                         tasks: "set[asyncio.Task]",
                         waiter: "asyncio.Future[object]",
                         writer: asyncio.StreamWriter) -> None:
        """The merge loop: spawn per-shard workers, stream results in
        global submission order, requeue a dead shard's leftovers."""
        indexed = list(enumerate(points))
        await self._reprobe_down()
        live_workers = self._spawn_workers(self._healthy_ring(), indexed,
                                           queue, tasks, job)
        buffered: Dict[int, Dict[str, object]] = {}
        next_index = 0
        while live_workers > 0:
            item = await self._next_item(queue, waiter)
            kind = item[0]
            if kind == "result":
                _, global_index, msg = item
                buffered[int(global_index)] = msg  # type: ignore[arg-type]
                while next_index in buffered:
                    shard_msg = buffered.pop(next_index)
                    job.done += 1
                    self.points_streamed += 1
                    self._points_meter.record(1)
                    await self._send(writer, {
                        "type": "result", "job": job.id,
                        "index": next_index, "done": job.done,
                        "total": job.total,
                        # Verbatim pass-through: byte-identity with a
                        # lone daemon lives or dies right here.
                        "point": shard_msg["point"],
                        "result": shard_msg["result"],
                    })
                    next_index += 1
                if job.cancelled:
                    raise _JobCancelled
            elif kind == "done":
                _, _, msg = item
                job.simulations += int(msg.get("simulations", 0))  # type: ignore[union-attr]
                job.hits += int(msg.get("hits", 0))  # type: ignore[union-attr]
                job.coalesced += int(msg.get("coalesced", 0))  # type: ignore[union-attr]
                live_workers -= 1
            elif kind == "dead":
                _, shard_id, remaining, reason = item
                live_workers -= 1
                remaining = list(remaining)  # type: ignore[arg-type]
                if remaining:
                    job.requeued += len(remaining)
                    self.requeued_total += len(remaining)
                    self._shards[str(shard_id)].requeued += len(remaining)
                    # The failover gets its own span (parent: the gateway
                    # job span) so a trace grep shows the requeue hop and
                    # every respawned partition hangs under it.
                    requeue_span = (job.span.child()
                                    if job.span is not None else None)
                    if requeue_span is not None and self.request_log:
                        self.request_log.log(
                            "requeue", client=job.client, job=job.id,
                            trace=requeue_span.log_fields(),
                            points=len(remaining),
                            error=f"shard {shard_id}: {reason}")
                    # Survivors only: the ring over the still-healthy
                    # shards moves exactly the dead shard's keys.
                    live_workers += self._spawn_workers(
                        self._healthy_ring(), remaining, queue, tasks, job,
                        span=requeue_span)
            else:  # "job-error"
                _, shard_id, msg = item
                raise _ShardJobError(
                    str(shard_id),
                    str(msg.get("error", "batch failed by shard")),  # type: ignore[union-attr]
                    code=msg.get("code"),  # type: ignore[union-attr]
                    retry_after_s=msg.get("retry_after_s"))  # type: ignore[union-attr]
        if next_index != job.total:
            raise RuntimeError(
                f"merge lost points: streamed {next_index} of {job.total}")

    def _spawn_workers(self, ring: HashRing,
                       indexed: Sequence[Tuple[int, SweepPoint]],
                       queue: "asyncio.Queue[Tuple[object, ...]]",
                       tasks: "set[asyncio.Task]",
                       job: Job,
                       span: Optional[SpanContext] = None) -> int:
        """Partition ``indexed`` points by hashed traffic key and start
        one worker per non-empty shard batch; returns the worker count.

        ``span`` is the span the partitions are sent under — the job
        span for the first fan-out, a requeue span on failover (``None``
        falls back to the job span).
        """
        if span is None:
            span = job.span
        batches: Dict[str, List[Tuple[int, SweepPoint]]] = {}
        for index, point in indexed:
            shard_id = ring.assign(ResultStore.key_str(point.key()))
            batches.setdefault(shard_id, []).append((index, point))
        for shard_id, batch in batches.items():
            task = asyncio.create_task(
                self._shard_worker(self._shards[shard_id], batch, queue,
                                   job, span))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        return len(batches)

    async def _next_item(self, queue: "asyncio.Queue[Tuple[object, ...]]",
                         waiter: "asyncio.Future[object]",
                         ) -> Tuple[object, ...]:
        getter = asyncio.ensure_future(queue.get())
        try:
            await asyncio.wait({getter, waiter},
                               return_when=asyncio.FIRST_COMPLETED)
        except asyncio.CancelledError:
            getter.cancel()
            raise
        if getter.done():
            return getter.result()
        getter.cancel()
        raise _JobCancelled

    async def _shard_worker(self, shard: ShardState,
                            batch: Sequence[Tuple[int, SweepPoint]],
                            queue: "asyncio.Queue[Tuple[object, ...]]",
                            job: Job,
                            span: Optional[SpanContext] = None) -> None:
        """Run one shard's partition; terminal queue item is exactly one
        of ``done`` (stream finished), ``dead`` (shard failed — carries
        the unstreamed remainder for requeue) or ``job-error`` (the
        shard reported a deterministic failure)."""
        streamed = 0
        writer: Optional[asyncio.StreamWriter] = None
        # Only tag partitions with tenant fields when the shard
        # advertises v5, and with trace fields when it advertises v6; a
        # mixed-version fabric keeps working untagged.
        tagged = (shard.protocol or 0) >= 5
        traced = (shard.protocol or 0) >= 6
        try:
            try:
                reader, writer = await asyncio.open_connection(
                    shard.host, shard.port, limit=MAX_LINE_BYTES)
                partition = points_request(
                    [p for _, p in batch],
                    client=job.client if tagged else None,
                    priority=job.priority if tagged else None)
                if traced:
                    attach_trace(partition, span)
                writer.write(encode_message(partition))
                await writer.drain()
                while True:
                    line = await asyncio.wait_for(reader.readline(),
                                                  self.shard_read_timeout_s)
                    if not line:
                        raise ConnectionError("shard closed the stream")
                    msg = decode_message(line)
                    kind = msg.get("type")
                    if kind == "result":
                        local = int(msg.get("index", streamed))  # type: ignore[arg-type]
                        if not (0 <= local < len(batch)):
                            raise ProtocolError(
                                f"shard sent result index {local} outside "
                                f"its batch of {len(batch)}")
                        streamed = local + 1
                        await queue.put(("result", batch[local][0], msg))
                    elif kind == "done":
                        await queue.put(("done", shard.id, msg))
                        return
                    elif kind in ("error", "cancelled"):
                        if "error" not in msg:
                            msg["error"] = f"batch {kind} by shard"
                        await queue.put(("job-error", shard.id, msg))
                        return
                    # anything else (heartbeats, future fields): ignore
            except (OSError, asyncio.TimeoutError, ProtocolError,
                    ValueError) as exc:
                reason = str(exc) or type(exc).__name__
                self._mark_unhealthy(shard, reason, exc)
                # Results the shard streamed before dying are merged and
                # (crucially) already on disk; only the rest re-hash.
                await queue.put(("dead", shard.id, batch[streamed:], reason))
        finally:
            if writer is not None:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    # -- forwarded ops ---------------------------------------------------------

    async def _forward_predict(self, req: Dict[str, object],
                               writer: asyncio.StreamWriter) -> None:
        """Predictions are stateless — any shard answers identically, so
        fail over across the healthy ones instead of routing."""
        reply: Optional[Dict[str, object]] = None
        await self._reprobe_down()
        for shard in self._shards.values():
            if not shard.healthy:
                continue
            shard_writer: Optional[asyncio.StreamWriter] = None
            try:
                reader, shard_writer = await asyncio.open_connection(
                    shard.host, shard.port, limit=MAX_LINE_BYTES)
                shard_writer.write(encode_message(req))
                await shard_writer.drain()
                line = await asyncio.wait_for(reader.readline(),
                                              self.shard_read_timeout_s)
                if not line:
                    raise ConnectionError("shard closed the stream")
                reply = decode_message(line)
                break
            except (OSError, asyncio.TimeoutError, ProtocolError,
                    ValueError) as exc:
                self._mark_unhealthy(
                    shard, str(exc) or type(exc).__name__, exc)
            finally:
                if shard_writer is not None:
                    shard_writer.close()
                    try:
                        await shard_writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass
        if reply is None:
            reply = {"type": "error", "job": None,
                     "error": "no healthy shards to answer predict; restart "
                              "shards with 'repro serve'"}
        await self._send(writer, reply)

    async def _forward_tune(self, req: Dict[str, object],
                            writer: asyncio.StreamWriter) -> None:
        """Proxy a tune job to one shard, chosen by hash of the workload
        so repeated tunes of one workload reuse that shard's warm state.

        No requeue on death: the search state lives in the shard, and
        replaying a half-run search elsewhere could double-count its
        simulation budget.  The client is told which restart to do.
        """
        workload = str(req.get("workload", ""))
        try:
            client, _ = parse_submit_fields(req)
            caller_span = parse_trace_fields(req)
        except ProtocolError as exc:
            await self._send(writer, {"type": "error", "job": None,
                                      "error": str(exc)})
            return
        await self._reprobe_down()
        try:
            shard_id = self._healthy_ring().assign(f"tune/{workload}")
        except _NoHealthyShards:
            await self._send(writer, {
                "type": "error", "job": None,
                "error": "no healthy shards to run tune; restart shards "
                         "with 'repro serve'"})
            return
        shard = self._shards[shard_id]
        job = self.registry.create("tune", summary=workload,
                                   client=client or "anon",
                                   priority="bulk")
        job.family = workload_family([workload])
        if caller_span is not None:
            job.span = caller_span.child()
        # The shard must parent its span to the *gateway's* span, not the
        # client's, so the hop tree nests client → gateway → shard.
        # Pre-v6 shards get the trace fields stripped instead.
        req = dict(req)
        req.pop("trace_id", None)
        req.pop("span_id", None)
        if (shard.protocol or 0) >= 6:
            attach_trace(req, job.span)
        shard_writer: Optional[asyncio.StreamWriter] = None

        def shard_died(exc: BaseException) -> Dict[str, object]:
            reason = str(exc) or type(exc).__name__
            self._mark_unhealthy(shard, reason, exc)
            error = (f"shard {shard.id} died mid-tune ({reason}); tune "
                     "jobs are not requeued — evaluations it completed "
                     "are warm in the result store, so resubmit once a "
                     "shard is back")
            job.finish(JobState.FAILED, error)
            return {"type": "error", "job": job.id, "error": error}

        try:
            try:
                reader, shard_writer = await asyncio.open_connection(
                    shard.host, shard.port, limit=MAX_LINE_BYTES)
                shard_writer.write(encode_message(req))
                await shard_writer.drain()
            except (OSError, asyncio.TimeoutError) as exc:
                await self._send(writer, shard_died(exc))
                return
            while True:
                # Keep shard reads in their own try so a *client*
                # disconnect (ConnectionError from self._send below, an
                # OSError too) is never misread as a shard death.
                try:
                    line = await asyncio.wait_for(reader.readline(),
                                                  self.shard_read_timeout_s)
                    if not line:
                        raise ConnectionError("shard closed the stream")
                    msg = decode_message(line)
                except (OSError, asyncio.TimeoutError, ProtocolError,
                        ValueError) as exc:
                    await self._send(writer, shard_died(exc))
                    return
                kind = msg.get("type")
                if kind == "accepted":
                    job.state = JobState.RUNNING
                if "job" in msg:
                    msg["job"] = job.id
                await self._send(writer, msg)
                if kind == "done":
                    job.finish(JobState.DONE)
                    return
                if kind == "error":
                    job.finish(JobState.FAILED,
                               str(msg.get("error", "tune failed")))
                    return
        except (ConnectionError, asyncio.CancelledError):
            if not job.finished_state:
                job.finish(JobState.FAILED, "client disconnected")
            raise
        finally:
            if job.finished_state:
                self._log_job(job)
            if shard_writer is not None:
                shard_writer.close()
                try:
                    await shard_writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
