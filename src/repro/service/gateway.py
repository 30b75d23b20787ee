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
* ship each partition as one ``points`` op,
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
import contextlib
import math
import time
from dataclasses import dataclass
from typing import (AsyncIterator, Awaitable, Callable, Dict, List, Mapping,
                    Optional, Sequence, Tuple)

from ..orchestrator.parallel import SettingError
from ..orchestrator.spec import SweepPoint
from ..orchestrator.store import ResultStore
from .endpoint import Endpoint, _JobCancelled, _TypedJobError
from .hashing import DEFAULT_REPLICAS, HashRing
from .jobs import Job, JobState, workload_family
from .protocol import (
    DEFAULT_HOST,
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    parse_submit_fields,
    points_request,
)
from .reqlog import RequestLog
from .tracing import SpanContext, attach_trace, parse_trace_fields


class _NoHealthyShards(Exception):
    """Routing found zero live shards."""

    def __init__(self) -> None:
        super().__init__(
            "no healthy shards: every backend daemon is down; check "
            "'repro metrics' and restart shards with 'repro serve'")


class _ShardDown(Exception):
    """A shard could not be reached, dropped or garbled its stream, or
    did not answer in time: the shard's fault, never the client's.
    ``stalled`` marks a timeout (see :attr:`ShardState.stalled`)."""

    def __init__(self, reason: str, stalled: bool = False) -> None:
        super().__init__(reason)
        self.stalled = stalled

    @classmethod
    def of(cls, exc: BaseException, prefix: str = "") -> "_ShardDown":
        return cls(prefix + (str(exc) or type(exc).__name__),
                   stalled=isinstance(exc, asyncio.TimeoutError))


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


class GatewayService(Endpoint):
    """The daemon behind ``repro gateway``: an :class:`Endpoint` that
    owns the shard table and routes every job through it.

    The gateway holds no simulation state of its own — no pool, no
    store — which is why restarting it loses nothing but in-flight
    client conversations.
    """

    def __init__(self,
                 shards: Sequence[Tuple[str, int]],
                 host: str = DEFAULT_HOST,
                 port: int = 0,
                 health_interval_s: float = 2.0,
                 ping_timeout_s: float = 5.0,
                 shard_read_timeout_s: float = 600.0,
                 request_log: Optional[RequestLog] = None,
                 prom_port: Optional[int] = None) -> None:
        for setting, seconds in (("health_interval_s", health_interval_s),
                                 ("ping_timeout_s", ping_timeout_s),
                                 ("shard_read_timeout_s",
                                  shard_read_timeout_s)):
            if not (math.isfinite(seconds) and seconds > 0):
                raise SettingError(setting, seconds,
                                   "a finite number of seconds above 0")
        super().__init__(host=host, port=port, request_log=request_log,
                         prom_port=prom_port)
        self.health_interval_s = health_interval_s
        self.ping_timeout_s = ping_timeout_s
        self.shard_read_timeout_s = shard_read_timeout_s
        self.requeued_total = 0
        self._shards: "Dict[str, ShardState]" = {}
        for shard_host, shard_port in shards:
            state = ShardState(id=f"{shard_host}:{shard_port}",
                               host=shard_host, port=shard_port)
            if state.id in self._shards:
                raise ValueError(f"duplicate shard {state.id}")
            self._shards[state.id] = state
        if not self._shards:
            raise ValueError("a gateway needs at least one shard")
        #: In-flight health probes by shard id, shared by every caller.
        self._probes: "Dict[str, asyncio.Task]" = {}

    # -- lifecycle -------------------------------------------------------------

    async def _start_role(self) -> List["asyncio.Task[None]"]:
        # One initial sweep of the shard table before accepting work so
        # the first job routes around shards that never came up.
        await asyncio.gather(*(self._probe(s) for s in self._shards.values()))
        return [asyncio.create_task(self._health_loop())]

    async def _stop_role(self) -> None:
        probes = list(self._probes.values())
        for task in probes:
            task.cancel()
        await asyncio.gather(*probes, return_exceptions=True)

    def _announce_line(self) -> str:
        healthy = sum(1 for s in self._shards.values() if s.healthy)
        prom_desc = (f", prometheus: :{self.prom_port}/metrics"
                     if self._prom is not None else "")
        return (f"repro gateway listening on {self.host}:{self.port} "
                f"(shards: {healthy}/{len(self._shards)} healthy, "
                f"ring replicas: {DEFAULT_REPLICAS}{prom_desc})")

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
            async with self._shard_conn(shard, {"op": "ping"},
                                        self.ping_timeout_s) as read:
                msg = await read()
            protocol = msg.get("protocol")
            if msg.get("type") != "pong" or not isinstance(protocol, int):
                raise _ShardDown("did not answer ping with a pong")
            shard.protocol = protocol
            if protocol != PROTOCOL_VERSION:
                # Shards, gateway and client ship from one build; a shard
                # from another would misread the fan-out's fields.
                raise _ShardDown(
                    f"speaks protocol v{protocol}, this gateway speaks "
                    f"v{PROTOCOL_VERSION}: restart the shard with this "
                    "build")
        except _ShardDown as exc:
            self._mark_unhealthy(shard, exc)
            return
        shard.healthy = True
        shard.stalled = False
        shard.last_error = None

    def _mark_unhealthy(self, shard: ShardState, down: _ShardDown) -> None:
        if shard.healthy:
            shard.deaths += 1
        shard.healthy = False
        shard.stalled = down.stalled
        shard.last_error = str(down)

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
        return HashRing(healthy)

    @contextlib.asynccontextmanager
    async def _shard_conn(self, shard: ShardState,
                          request: Mapping[str, object], timeout_s: float
                          ) -> AsyncIterator[
                              Callable[[], Awaitable[Dict[str, object]]]]:
        """Send ``request`` to ``shard`` on a new connection and yield
        ``read()``, which returns the shard's next message.

        The connect and every read are bounded by ``timeout_s``.  Each
        failure to connect, send or read, EOF included, raises
        :class:`_ShardDown`; anything else raised in the ``async with``
        body (a client that went away) passes through untouched.  The
        connection closes either way.
        """
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(shard.host, shard.port,
                                        limit=MAX_LINE_BYTES),
                timeout_s)
        except (OSError, asyncio.TimeoutError) as exc:
            raise _ShardDown.of(exc, "unreachable: ") from exc

        async def read() -> Dict[str, object]:
            try:
                line = await asyncio.wait_for(reader.readline(), timeout_s)
                if not line:
                    raise ConnectionError("shard closed the stream")
                return decode_message(line)
            except (OSError, asyncio.TimeoutError, ValueError) as exc:
                raise _ShardDown.of(exc) from exc

        try:
            try:
                writer.write(encode_message(request))
                await writer.drain()
            except (OSError, ValueError) as exc:
                raise _ShardDown.of(exc) from exc
            yield read
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- role ops --------------------------------------------------------------

    async def _handle_role_op(self, op: str, req: Dict[str, object],
                              writer: asyncio.StreamWriter) -> None:
        if op in ("ping", "metrics"):
            await self._reprobe_down()
        if op == "ping":
            healthy = sum(1 for s in self._shards.values() if s.healthy)
            await self._send(writer, {"type": "pong",
                                      "server": "repro-gateway",
                                      "protocol": PROTOCOL_VERSION,
                                      "shards_healthy": healthy,
                                      "shards_total": len(self._shards)})
        elif op == "metrics":
            await self._send(writer, self._metrics_msg())
        elif op == "predict":
            await self._forward_predict(req, writer)
        else:  # "tune"
            await self._forward_tune(req, writer)

    def _metrics_msg(self) -> Dict[str, object]:
        """The gateway's one status message: routing counters, the ring
        and the shard table.  Per-shard dedup, queue, pool and store
        detail lives behind each shard's own ``metrics`` op."""
        healthy = sum(1 for s in self._shards.values() if s.healthy)
        return {
            "type": "metrics",
            "role": "gateway",
            "protocol": PROTOCOL_VERSION,
            "server": "repro-gateway",
            "host": self.host,
            "port": self.port,
            "replicas": DEFAULT_REPLICAS,
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

    # -- merged sweep jobs -----------------------------------------------------

    def _done_extra(self, job: Job) -> Dict[str, object]:
        return {"requeued": job.requeued}

    async def _run_sweep(self, job: Job, points: Sequence[SweepPoint],
                         waiter: "asyncio.Future[object]",
                         writer: asyncio.StreamWriter) -> None:
        """The merge loop: spawn per-shard workers, stream results in
        global submission order, requeue a dead shard's leftovers."""
        queue: "asyncio.Queue[Tuple[object, ...]]" = asyncio.Queue()
        tasks: "set[asyncio.Task]" = set()
        try:
            await self._reprobe_down()
            live_workers = self._spawn_workers(
                self._healthy_ring(), list(enumerate(points)), queue, tasks,
                job)
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
                        # The failover gets its own span (parent: the
                        # gateway job span) so a trace grep shows the
                        # requeue hop and every respawned partition hangs
                        # under it.
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
                            self._healthy_ring(), remaining, queue, tasks,
                            job, span=requeue_span)
                else:  # "job-error"
                    # Pass a shard's typed error (notably an `overloaded`
                    # shed) through with its fields so client-side retry
                    # still works.
                    _, shard_id, msg = item
                    raise _TypedJobError(
                        f"shard {shard_id}: "
                        f"{msg.get('error', 'batch failed by shard')}",  # type: ignore[union-attr]
                        code=msg.get("code"),  # type: ignore[union-attr]
                        retry_after_s=msg.get("retry_after_s"))  # type: ignore[union-attr]
            if next_index != job.total:
                raise RuntimeError(
                    f"merge lost points: streamed {next_index} of {job.total}")
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

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
        partition = attach_trace(
            points_request([p for _, p in batch], client=job.client,
                           priority=job.priority), span)
        try:
            async with self._shard_conn(shard, partition,
                                        self.shard_read_timeout_s) as read:
                while True:
                    msg = await read()
                    kind = msg.get("type")
                    if kind == "result":
                        local = msg.get("index", streamed)
                        if not (isinstance(local, int)
                                and 0 <= local < len(batch)):
                            raise _ShardDown(
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
        except _ShardDown as exc:
            self._mark_unhealthy(shard, exc)
            # Results the shard streamed before dying are merged and
            # (crucially) already on disk; only the rest re-hash.
            await queue.put(("dead", shard.id, batch[streamed:], str(exc)))

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
            try:
                async with self._shard_conn(
                        shard, req, self.shard_read_timeout_s) as read:
                    reply = await read()
                break
            except _ShardDown as exc:
                self._mark_unhealthy(shard, exc)
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
        req = dict(req)
        req.pop("trace_id", None)
        req.pop("span_id", None)
        attach_trace(req, job.span)
        try:
            async with self._shard_conn(shard, req,
                                        self.shard_read_timeout_s) as read:
                while True:
                    msg = await read()
                    kind = msg.get("type")
                    if kind == "accepted":
                        job.state = JobState.RUNNING
                    if "job" in msg:
                        msg["job"] = job.id
                    # A failed send is the client going away: it raises
                    # ConnectionError, never _ShardDown.
                    await self._send(writer, msg)
                    if kind == "done":
                        job.finish(JobState.DONE)
                        return
                    if kind == "error":
                        job.finish(JobState.FAILED,
                                   str(msg.get("error", "tune failed")))
                        return
        except _ShardDown as exc:
            self._mark_unhealthy(shard, exc)
            error = (f"shard {shard.id} died mid-tune ({exc}); tune "
                     "jobs are not requeued — evaluations it completed "
                     "are warm in the result store, so resubmit once a "
                     "shard is back")
            job.finish(JobState.FAILED, error)
            await self._send(writer, {"type": "error", "job": job.id,
                                      "error": error})
        except (ConnectionError, asyncio.CancelledError):
            if not job.finished_state:
                job.finish(JobState.FAILED, "client disconnected")
            raise
        finally:
            if job.finished_state:
                self._log_job(job)
