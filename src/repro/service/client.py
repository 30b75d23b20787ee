"""Synchronous client for the simulation service.

A thin blocking wrapper over one TCP connection: build a request with
:mod:`repro.service.protocol`, send it, iterate response lines.  The
client is what the ``repro submit`` / ``repro jobs`` CLI verbs and the
loopback test suite use; anything else that can write JSON lines to a
socket (``nc``, another language) speaks the same protocol.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from ..orchestrator.spec import SweepPoint
from ..sim.results import SimResult
from .protocol import (
    DEFAULT_HOST,
    ERROR_OVERLOADED,
    MAX_LINE_BYTES,
    ProtocolError,
    decode_message,
    default_port,
    encode_message,
    points_request,
    predict_request,
    sweep_request,
    tune_request,
)
from .tracing import SpanContext, attach_trace


class ServiceError(RuntimeError):
    """The server reported an error, or the conversation broke down."""


class ServiceConnectionError(ServiceError):
    """No server reachable at the requested address."""


class JobFailed(ServiceError):
    """A submitted job ended in ``error`` or ``cancelled``."""

    def __init__(self, message: str, job_id: Optional[str] = None) -> None:
        super().__init__(message)
        self.job_id = job_id


class Overloaded(JobFailed):
    """The server shed this submission (typed ``overloaded`` error).

    Not a failure of the work itself: the server refused to queue it
    right now.  ``retry_after_s`` is the server's backoff hint; the
    submit helpers retry automatically (with exponential backoff and
    jitter) unless told not to.  Anything the server simulated before
    shedding is warm in its store, so a retry never duplicates work.
    """

    def __init__(self, message: str, job_id: Optional[str] = None,
                 retry_after_s: float = 1.0) -> None:
        super().__init__(message, job_id)
        self.retry_after_s = retry_after_s


def _job_error(msg: Mapping[str, object],
               job_id: Optional[str]) -> JobFailed:
    """The exception a job's terminal ``error`` message stands for: a
    typed :class:`Overloaded` for a shed submission (it carries the
    server's ``retry_after_s`` hint), :class:`JobFailed` otherwise."""
    error = str(msg.get("error", "job failed"))
    job = job_id or msg.get("job")
    if msg.get("code") == ERROR_OVERLOADED:
        return Overloaded(error, job,  # type: ignore[arg-type]
                          retry_after_s=float(
                              msg.get("retry_after_s", 1.0)))  # type: ignore[arg-type]
    return JobFailed(error, job)  # type: ignore[arg-type]


@dataclass(frozen=True)
class PointResult:
    """One streamed sweep point: where it ran and what came back."""

    workload: str
    config: str
    sram_bytes: int
    bandwidth_bytes_per_s: float
    result: SimResult


@dataclass(frozen=True)
class SweepOutcome:
    """A finished sweep job as the client saw it."""

    job_id: str
    points: List[PointResult]
    simulations: int
    hits: int
    coalesced: int
    elapsed_s: float
    #: Points re-hashed off a dead shard (always 0 on a single daemon).
    requeued: int = 0
    #: Trace id the fabric stamped on its request logs (tracing clients
    #: only; ``None`` when the submission was untraced).
    trace_id: Optional[str] = None


class ServiceClient:
    """One connection to a running ``repro serve`` daemon.

    Usable as a context manager; all methods block.  ``timeout`` bounds
    each socket operation — sweeps stream a line per point and tune jobs
    heartbeat every few seconds while searching, so even long jobs keep
    producing lines well within a generous timeout.
    """

    def __init__(self, host: str = DEFAULT_HOST,
                 port: Optional[int] = None,
                 timeout: float = 600.0,
                 client_id: Optional[str] = None,
                 trace: bool = False) -> None:
        self.host = host
        self.port = default_port() if port is None else port
        #: Tenant tag attached to every submission (fair scheduling,
        #: request logs); ``None`` submits as "anon".
        self.client_id = client_id
        #: Mint a root span per request: every hop the request takes
        #: through the fabric logs the same trace id.
        self.trace = trace
        #: Trace id of the most recent traced request — what to grep the
        #: fabric's request logs for.
        self.last_trace_id: Optional[str] = None
        try:
            self._sock = socket.create_connection((self.host, self.port),
                                                  timeout=timeout)
        except OSError as exc:
            raise ServiceConnectionError(
                f"no repro service reachable at {self.host}:{self.port} "
                f"({exc}); start one with 'repro serve'") from exc
        self._sock.settimeout(timeout)
        # Binary mode: the protocol's line bound is in bytes, so the
        # bounded readline below must count bytes, not characters.
        self._rfile = self._sock.makefile("rb")
        # What kind of endpoint answered ("repro-service" shard or
        # "repro-gateway"), learned from any message carrying a
        # ``server`` field; steers the mid-stream EOF diagnosis.
        self._server_role: Optional[str] = None

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- plumbing --------------------------------------------------------------

    def _send(self, msg: Mapping[str, object]) -> None:
        try:
            self._sock.sendall(encode_message(msg))
        except OSError as exc:
            raise ServiceError(f"send failed: {exc}") from exc

    def _recv(self) -> Dict[str, object]:
        try:
            # Bounded read: a rogue endpoint on this port must not be
            # able to balloon the client by streaming a newline-free
            # line (the server enforces the same bound on requests).
            line = self._rfile.readline(MAX_LINE_BYTES + 1)
        except OSError as exc:
            raise ServiceError(f"receive failed: {exc}") from exc
        if not line:
            # EOF mid-conversation: the endpoint went away (stopped,
            # restarted, or crashed) between our request and its reply.
            # What to restart depends on what we were talking to — a
            # gateway dying loses no shard state, while a lone daemon
            # dying means the daemon itself must come back.
            raise ServiceConnectionError(self._eof_diagnosis())
        if len(line) > MAX_LINE_BYTES or not line.endswith(b"\n"):
            raise ServiceError(
                f"server sent a line exceeding {MAX_LINE_BYTES} bytes")
        try:
            msg = decode_message(line)
        except ProtocolError as exc:
            raise ServiceError(f"bad server message: {exc}") from exc
        role = msg.get("server")
        if isinstance(role, str):
            self._server_role = role
        return msg

    def _eof_diagnosis(self) -> str:
        """Actionable message for a connection that died mid-stream."""
        where = f"{self.host}:{self.port}"
        if self._server_role == "repro-gateway":
            return (
                f"the repro gateway at {where} closed the connection "
                "mid-conversation — the gateway restarted or crashed; its "
                "shards (and their result stores) keep running "
                "independently, so restart the gateway with 'repro "
                "gateway' and resubmit: completed simulations will be "
                "warm hits")
        if self._server_role == "repro-service":
            return (
                f"the repro service at {where} closed the connection "
                "mid-conversation — the shard daemon stopped or "
                "restarted; completed simulations are in its result "
                "store, so reconnect and retry the submission (restart "
                "the daemon with 'repro serve' if it is down)")
        return (
            f"the repro endpoint at {where} closed the connection "
            "mid-conversation — the daemon or gateway there stopped or "
            "restarted; completed simulations persist in the result "
            "store, so reconnect and retry the submission (restart it "
            "with 'repro serve' for a daemon, 'repro gateway' for a "
            "gateway, if it is down)")

    def _traced(self, req: Mapping[str, object]) -> Mapping[str, object]:
        """Stamp a fresh root span onto ``req`` when tracing is on.

        One logical request = one trace: overload retries reuse the
        request dict, so every shed-and-resubmit cycle shows up under a
        single trace id in the request logs.
        """
        if not self.trace:
            return req
        span = SpanContext.new_root()
        self.last_trace_id = span.trace_id
        out = dict(req)
        attach_trace(out, span)
        return out

    def request(self, msg: Mapping[str, object]) -> Dict[str, object]:
        """Send one single-response op; raise on an ``error`` reply."""
        if self.client_id is not None and "client" not in msg:
            # Tag query ops too: the server's request log attributes
            # every op by its ``client`` field.
            msg = {**msg, "client": self.client_id}
        msg = self._traced(msg)
        self._send(msg)
        reply = self._recv()
        if reply.get("type") == "error":
            raise ServiceError(str(reply.get("error", "unknown error")))
        return reply

    # -- single-response ops ---------------------------------------------------

    def ping(self) -> Dict[str, object]:
        return self.request({"op": "ping"})

    def predict(self, workload: str, config: str,
                sram_mb: float = 4.0,
                bandwidth_gb: Optional[float] = None,
                entries: Optional[int] = None) -> Dict[str, object]:
        """Analytic traffic prediction of one point (no simulation).

        Returns the raw ``predict`` response: ``result`` holds the
        serialised :class:`~repro.sim.results.SimResult`, ``regime`` the
        analytic evaluation regime.  Raises :class:`ServiceError` for
        unsupported configs (cache policies simulate instead).
        """
        return self.request(predict_request(
            workload, config, sram_mb=sram_mb, bandwidth_gb=bandwidth_gb,
            entries=entries))

    def jobs(self) -> List[Dict[str, object]]:
        return list(self.request({"op": "jobs"})["jobs"])  # type: ignore[arg-type]

    def metrics(self) -> Dict[str, object]:
        """The endpoint's one status view: role, address, job counts,
        rates and latencies; a shard's queue, dedup split, pool and
        store, or a gateway's ring and shard health — safe to poll."""
        return self.request({"op": "metrics"})

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self.request({"op": "cancel", "job": job_id})

    def shutdown(self) -> Dict[str, object]:
        """Ask the server to stop; returns its acknowledgement."""
        return self.request({"op": "shutdown"})

    # -- job submission --------------------------------------------------------

    def _stream(self, req: Mapping[str, object],
                on_message: Optional[Callable[[Dict[str, object]], None]],
                ) -> Iterator[Dict[str, object]]:
        self._send(req)
        while True:
            msg = self._recv()
            if on_message is not None:
                on_message(msg)
            yield msg
            if msg.get("type") in ("done", "error", "cancelled"):
                return

    def submit_sweep(self, workloads: Sequence[str],
                     configs: Optional[Sequence[str]] = None,
                     sram_mb: Sequence[float] = (),
                     bandwidth_gb: Sequence[float] = (),
                     on_message: Optional[
                         Callable[[Dict[str, object]], None]] = None,
                     priority: Optional[str] = None,
                     overload_retries: int = 4,
                     on_retry: Optional[
                         Callable[[int, float, "Overloaded"], None]] = None,
                     ) -> SweepOutcome:
        """Submit a sweep and block until it finishes.

        ``on_message`` observes every raw response line (progress UIs);
        raises :class:`JobFailed` if the job errors or is cancelled.  A
        shed submission (:class:`Overloaded`) is resubmitted after a
        jittered backoff up to ``overload_retries`` times; ``on_retry``
        observes each backoff (attempt, delay_s, error).
        """
        req = sweep_request(workloads, configs=configs, sram_mb=sram_mb,
                            bandwidth_gb=bandwidth_gb,
                            client=self.client_id, priority=priority)
        return self._submit_with_retry(self._traced(req), on_message,
                                       overload_retries, on_retry)

    def submit_points(self, points: Sequence[SweepPoint],
                      on_message: Optional[
                          Callable[[Dict[str, object]], None]] = None,
                      priority: Optional[str] = None,
                      overload_retries: int = 4,
                      on_retry: Optional[
                          Callable[[int, float, "Overloaded"], None]] = None,
                      ) -> SweepOutcome:
        """Submit an explicit point list (the ``points`` op).

        A sharded gateway partitions a grid by traffic key, so each
        shard receives an arbitrary point subset — this is the op those
        partitions travel over, but it works against a lone daemon too.
        """
        req = points_request(points, client=self.client_id,
                             priority=priority)
        return self._submit_with_retry(self._traced(req), on_message,
                                       overload_retries, on_retry)

    def _submit_with_retry(self, req: Mapping[str, object],
                           on_message: Optional[
                               Callable[[Dict[str, object]], None]],
                           overload_retries: int,
                           on_retry: Optional[
                               Callable[[int, float, "Overloaded"], None]],
                           ) -> SweepOutcome:
        """Resubmit on :class:`Overloaded` with jittered exponential
        backoff.  The server leaves the connection open after an error
        reply, so retries reuse this connection; completed simulations
        are warm in the server's store, so a retry repeats no work."""
        attempt = 0
        while True:
            try:
                return self._collect_sweep(req, on_message)
            except Overloaded as exc:
                if attempt >= overload_retries:
                    raise
                delay = min(60.0, exc.retry_after_s * (2 ** attempt)
                            * random.uniform(0.5, 1.5))
                if on_retry is not None:
                    on_retry(attempt + 1, delay, exc)
                time.sleep(delay)
                attempt += 1

    def _collect_sweep(self, req: Mapping[str, object],
                       on_message: Optional[
                           Callable[[Dict[str, object]], None]],
                       ) -> SweepOutcome:
        """Drive one point-streaming job (``sweep``/``points``) to its
        terminal message and fold the stream into a :class:`SweepOutcome`."""
        job_id: Optional[str] = None
        points: List[PointResult] = []
        for msg in self._stream(req, on_message):
            kind = msg.get("type")
            if kind == "accepted":
                job_id = str(msg["job"])
            elif kind == "result":
                point = dict(msg["point"])  # type: ignore[arg-type]
                points.append(PointResult(
                    workload=str(point["workload"]),
                    config=str(point["config"]),
                    sram_bytes=int(point["sram_bytes"]),  # type: ignore[arg-type]
                    bandwidth_bytes_per_s=float(
                        point["bandwidth_bytes_per_s"]),  # type: ignore[arg-type]
                    result=SimResult.from_dict(
                        msg["result"]),  # type: ignore[arg-type]
                ))
            elif kind == "cancelled":
                raise JobFailed(f"job {job_id} was cancelled", job_id)
            elif kind == "error":
                raise _job_error(msg, job_id)
            elif kind == "done":
                return SweepOutcome(
                    job_id=str(msg["job"]),
                    points=points,
                    simulations=int(msg["simulations"]),  # type: ignore[arg-type]
                    hits=int(msg["hits"]),  # type: ignore[arg-type]
                    coalesced=int(msg["coalesced"]),  # type: ignore[arg-type]
                    elapsed_s=float(msg["elapsed_s"]),  # type: ignore[arg-type]
                    requeued=int(msg.get("requeued", 0)),  # type: ignore[arg-type]
                    trace_id=msg.get("trace_id"),  # type: ignore[arg-type]
                )
        raise ServiceError("stream ended without a terminal message")

    def submit_tune(self, workload: str,
                    strategy: str = "grid",
                    budget: int = 32,
                    seed: int = 0,
                    objectives: Optional[Sequence[str]] = None,
                    sram_mb: Sequence[float] = (4.0,),
                    entries: Sequence[int] = (64,),
                    include_baselines: bool = False,
                    fidelity: str = "exact",
                    on_message: Optional[
                        Callable[[Dict[str, object]], None]] = None,
                    ) -> Dict[str, object]:
        """Submit a tune job; returns the serialised
        :class:`~repro.tuner.TuneResult` dict (rebuild with
        ``TuneResult.from_dict``).
        """
        req = self._traced(tune_request(
            workload, strategy=strategy, budget=budget,
            seed=seed, objectives=objectives, sram_mb=sram_mb,
            entries=entries, include_baselines=include_baselines,
            fidelity=fidelity, client=self.client_id))
        job_id: Optional[str] = None
        tune_result: Optional[Dict[str, object]] = None
        for msg in self._stream(req, on_message):
            kind = msg.get("type")
            if kind == "accepted":
                job_id = str(msg["job"])
            elif kind == "tune-result":
                tune_result = dict(msg["result"])  # type: ignore[arg-type]
            elif kind == "error":
                raise _job_error(msg, job_id)
            elif kind == "done":
                if tune_result is None:
                    raise ServiceError("tune finished without a result")
                return tune_result
        raise ServiceError("stream ended without a terminal message")
