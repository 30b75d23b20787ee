"""The daemon skeleton both service roles share.

A ``repro serve`` shard (:class:`~repro.service.server.SimulationService`)
and a ``repro gateway`` (:class:`~repro.service.gateway.GatewayService`)
are one endpoint with different insides.  :class:`Endpoint` holds what
they do the same way:

* the lifecycle — listener, Prometheus exporter, announce line, stop on
  a ``shutdown`` op, :meth:`Endpoint.request_stop` or SIGTERM, teardown;
* the connection loop and its line framing;
* the query ops every endpoint answers alike (``jobs``, ``cancel``,
  ``shutdown``) and the latency / request-log record of every query;
* a sweep/points job around its role-specific middle: validation, job
  creation, ``accepted``, and the terminal ``done`` / ``cancelled`` /
  ``error`` message.

A role fills in the hooks: :meth:`~Endpoint._start_role` and
:meth:`~Endpoint._stop_role`, :meth:`~Endpoint._announce_line`,
:meth:`~Endpoint._handle_role_op` for the ops whose answers differ,
:meth:`~Endpoint._metrics_msg`, and :meth:`~Endpoint._run_sweep` for how
a job's points become streamed results.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from typing import Dict, List, Mapping, Optional, Sequence

from ..orchestrator.spec import SweepPoint
from ..workloads.registry import all_workloads, is_resolvable
from .jobs import Job, JobRegistry, JobState, workload_family
from .metrics import HistogramFamily, RateMeter
from .promexport import PromExporter
from .protocol import (
    MAX_LINE_BYTES,
    SUBMIT_OPS,
    ProtocolError,
    encode_message,
    parse_request,
    parse_submit_fields,
    request_to_points,
    request_to_spec,
)
from .reqlog import RequestLog
from .scheduling import classify_priority
from .tracing import parse_trace_fields


class _JobCancelled(Exception):
    """Internal control flow: a job observed its cancel event."""


class _TypedJobError(Exception):
    """A job failure whose ``error`` message carries the typed fields
    (``code`` / ``retry_after_s``) — an ``overloaded`` shed relayed by a
    gateway — so the client's retry logic still sees them."""

    def __init__(self, error: str, code: Optional[str] = None,
                 retry_after_s: Optional[float] = None) -> None:
        super().__init__(error)
        self.fields = {name: value for name, value in
                       (("code", code), ("retry_after_s", retry_after_s))
                       if value is not None}


def _consume_exception(fut: "asyncio.Future[None]") -> None:
    """Done-callback that retrieves an abandoned future's exception so
    the event loop does not log 'exception was never retrieved'."""
    if not fut.cancelled():
        fut.exception()


class Endpoint:
    """Lifecycle, connection loop and shared ops of a service endpoint.

    Run it on the current event loop with :meth:`run`, or from a plain
    thread via ``asyncio.run(endpoint.run())`` + :meth:`wait_started` /
    :meth:`request_stop` (how the loopback tests drive both roles).
    """

    def __init__(self, host: str, port: int,
                 request_log: Optional[RequestLog],
                 prom_port: Optional[int]) -> None:
        self.host = host
        self.port = port
        self.registry = JobRegistry()
        self.request_log = request_log
        self.prom_port = prom_port
        self.startup_error: Optional[BaseException] = None
        self.points_streamed = 0
        self._points_meter = RateMeter()
        self._latency = HistogramFamily(("op", "family", "priority"))
        self._prom: Optional[PromExporter] = None
        self._started = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._t0 = 0.0

    # -- role hooks ------------------------------------------------------------

    async def _start_role(self) -> List["asyncio.Task[None]"]:
        """Role setup once the listener is bound; returns the background
        tasks that teardown cancels."""
        return []

    async def _stop_role(self) -> None:
        """Role teardown, after the background tasks are cancelled."""

    def _announce_line(self) -> str:
        raise NotImplementedError

    async def _handle_role_op(self, op: str, req: Dict[str, object],
                              writer: asyncio.StreamWriter) -> None:
        """Answer an op other than ``jobs``/``cancel``/``shutdown`` and
        the sweep submissions."""
        raise NotImplementedError

    def _metrics_msg(self) -> Dict[str, object]:
        raise NotImplementedError

    async def _admit(self, job: Job, points: Sequence[SweepPoint],
                     writer: asyncio.StreamWriter) -> bool:
        """Last check before a sweep job is accepted; ``False`` means the
        hook refused it and already answered the client."""
        return True

    async def _run_sweep(self, job: Job, points: Sequence[SweepPoint],
                         waiter: "asyncio.Future[object]",
                         writer: asyncio.StreamWriter) -> None:
        """Stream one ``result`` per point in submission order; raise
        :class:`_JobCancelled` once ``waiter`` (the cancel event) fires."""
        raise NotImplementedError

    def _done_extra(self, job: Job) -> Dict[str, object]:
        """Role fields of a sweep's ``done`` message, before ``elapsed_s``."""
        return {}

    # -- lifecycle -------------------------------------------------------------

    async def run(self, announce=None) -> None:
        """Serve until a ``shutdown`` op, :meth:`request_stop` or SIGTERM."""
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
        background: List["asyncio.Task[None]"] = []
        # On the main thread SIGTERM stops the endpoint like a
        # ``shutdown`` op, so pending points are failed and pool
        # workers joined.  A thread (the loopback tests) cannot install
        # signal handlers.  The handler goes in once the role has
        # started, so a pool forks its workers without it, and before
        # the announce line that tells a supervisor the endpoint is up.
        sigterm = threading.current_thread() is threading.main_thread()
        try:
            try:
                background = await self._start_role()
                self._t0 = time.monotonic()
                if self.prom_port is not None:
                    self._prom = PromExporter(self.metrics_snapshot,
                                              host=self.host,
                                              port=self.prom_port)
                    self.prom_port = self._prom.start()
            except Exception as exc:
                self.startup_error = exc
                raise
            finally:
                self._started.set()
            if sigterm:
                self._loop.add_signal_handler(signal.SIGTERM, self._stop.set)
            if announce is not None:
                announce(self._announce_line())
            await self._stop.wait()
        finally:
            if sigterm:
                self._loop.remove_signal_handler(signal.SIGTERM)
            # Close the listener without awaiting wait_closed(): since
            # Python 3.12.1 that would block on every connection handler,
            # and one idle client sitting in readline() would hang
            # shutdown forever.  Lingering handler tasks are cancelled by
            # asyncio.run()'s teardown instead.
            server.close()
            for task in background:
                task.cancel()
            await asyncio.gather(*background, return_exceptions=True)
            if self._prom is not None:
                await self._loop.run_in_executor(None, self._prom.stop)
                self._prom = None
            await self._stop_role()

    def wait_started(self, timeout: Optional[float] = None) -> bool:
        """Block (from another thread) until the endpoint accepts
        connections; check :attr:`startup_error` on ``True``."""
        return self._started.wait(timeout)

    def request_stop(self) -> None:
        """Thread-safe shutdown trigger (test teardown)."""
        loop, stop = self._loop, self._stop
        if loop is None or stop is None:
            return
        try:
            loop.call_soon_threadsafe(stop.set)
        except RuntimeError:
            pass  # loop already closed — the endpoint stopped on its own

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
                    # Line exceeded MAX_LINE_BYTES: protocol violation —
                    # report and drop the connection (resync is hopeless).
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
            pass  # client went away; any job it owned keeps warming stores
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
        if op == "jobs":
            await self._send(writer, {"type": "jobs",
                                      "jobs": self.registry.snapshots()})
        elif op == "cancel":
            await self._handle_cancel(req, writer)
        elif op == "shutdown":
            await self._send(writer, {"type": "ok", "stopping": True})
            assert self._stop is not None
            self._stop.set()
            return True
        elif op in ("sweep", "points"):
            await self._sweep_job(req, writer)
        else:
            await self._handle_role_op(str(op), req, writer)
        if op not in SUBMIT_OPS:
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

    def _query_trace(self, req: Mapping[str, object]
                     ) -> Optional[Dict[str, str]]:
        """Span fields for a query op's log record: queries are leaf
        hops, so the node span is minted here and never forwarded.
        Malformed trace fields on a query never fail the (already
        answered) request — they just go unlogged."""
        try:
            caller = parse_trace_fields(req)
        except ProtocolError:
            return None
        return caller.child().log_fields() if caller is not None else None

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

    def metrics_snapshot(self) -> Dict[str, object]:
        """Thread-safe :meth:`_metrics_msg` for the Prometheus exporter:
        hops onto the event loop so scrape threads never read loop-owned
        state (queue, registry, shard table) mid-mutation."""
        loop = self._loop
        if loop is None:
            raise RuntimeError("endpoint not running")

        async def _snap() -> Dict[str, object]:
            return self._metrics_msg()

        return asyncio.run_coroutine_threadsafe(_snap(), loop).result(
            timeout=10)

    def _log_job(self, job: Job, outcome: Optional[str] = None) -> None:
        final = outcome or job.state.value
        if final != "shed":
            # Shed jobs are refused at admission in microseconds; folding
            # them into the serve histogram would drag p50 down during
            # exactly the overload storms the histogram should expose.
            self._latency.observe((job.kind, job.family, job.priority),
                                  job.elapsed_s())
        if self.request_log is None:
            return
        self.request_log.log(
            job.kind, client=job.client, job=job.id,
            trace=job.span.log_fields() if job.span is not None else None,
            points=job.total, sims=job.simulations, hits=job.hits,
            coalesced=job.coalesced, duration_s=job.elapsed_s(),
            outcome=final, error=job.error)

    # -- job messages ----------------------------------------------------------

    @staticmethod
    def _accepted_msg(job: Job) -> Dict[str, object]:
        msg: Dict[str, object] = {"type": "accepted", "job": job.id,
                                  "kind": job.kind, "points": job.total}
        if job.span is not None:
            msg["trace_id"] = job.span.trace_id
        return msg

    def _done_msg(self, job: Job) -> Dict[str, object]:
        msg: Dict[str, object] = {
            "type": "done", "job": job.id, "points": job.total,
            "simulations": job.simulations, "hits": job.hits,
            "coalesced": job.coalesced, **self._done_extra(job),
            "elapsed_s": round(job.elapsed_s(), 3)}
        if job.span is not None:
            msg["trace_id"] = job.span.trace_id
        return msg

    # -- sweep jobs ------------------------------------------------------------

    async def _sweep_job(self, req: Dict[str, object],
                         writer: asyncio.StreamWriter) -> None:
        """One ``sweep``/``points`` job, start to finish."""
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
            # Validated before any work starts: behind a gateway an
            # unknown workload is one clean error, not N failed partitions.
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

        # A gateway classifies by the whole submission and forwards the
        # class, so each shard schedules its partition as a lone daemon
        # would the job.
        priority = classify_priority(explicit_priority, len(points))
        job = self.registry.create(str(req["op"]), summary=summary,
                                   client=client or "anon",
                                   priority=priority)
        job.total = len(points)
        job.family = workload_family(p.workload for p in points)
        if caller_span is not None:
            job.span = caller_span.child()
        if not await self._admit(job, points, writer):
            return
        await self._send(writer, self._accepted_msg(job))
        job.state = JobState.RUNNING
        waiter = asyncio.ensure_future(job.cancel_event.wait())
        try:
            await self._run_sweep(job, points, waiter, writer)
        except _JobCancelled:
            job.finish(JobState.CANCELLED)
            await self._send(writer, {"type": "cancelled", "job": job.id,
                                      "done": job.done, "total": job.total})
        except (ConnectionError, asyncio.CancelledError):
            job.finish(JobState.FAILED, "client disconnected")
            raise
        except Exception as exc:  # a simulation failure, here or on a shard
            job.finish(JobState.FAILED, str(exc))
            msg: Dict[str, object] = {"type": "error", "job": job.id,
                                      "error": str(exc)}
            if isinstance(exc, _TypedJobError):
                msg.update(exc.fields)
            await self._send(writer, msg)
        else:
            job.finish(JobState.DONE)
            await self._send(writer, self._done_msg(job))
        finally:
            waiter.cancel()
            self._log_job(job)
