"""Reusable fault-injection harness for the sharded simulation fabric.

Everything the chaos tests (and ``tools/fabric_smoke.py``) need to stand
up a real fabric and break it deterministically:

* :class:`ShardProcess` — a genuine ``repro serve`` subprocess on an
  ephemeral port (an :class:`EndpointProcess`, which runs either role).
  Subprocesses, not threads: the runner's memo cache and store hook are
  process-global, so only separate processes exercise the store-mediated
  shard sync the gateway relies on — and only a process can be
  SIGKILLed mid-stream.
* :class:`ChaosProxy` — a line-aware TCP proxy wrapped around one shard.
  It counts streamed ``result`` lines and fires a :class:`FaultPlan` at
  an exact count: **kill** the shard process at step K, **drop** the
  connection mid-stream (shard survives), or **delay** every result past
  step K (delayed ack → gateway read-timeout requeue).  Counting wire
  lines instead of sleeping makes every failure deterministic — the
  fault lands between result K and K+1, every run.
* :class:`GatewayThread` — an in-process
  :class:`~repro.service.gateway.GatewayService` (it holds no
  process-global state, so a thread is enough) pointed at the proxies.
* :class:`Fabric` — the bundle: N proxied shards over one shared cache
  directory plus a gateway, as a context manager.
* :func:`fuzz_payloads` — hostile wire frames shared by the gateway and
  shard fuzz tests.

This module deliberately has no ``test_`` prefix: pytest imports it from
test files (``tests/`` is on ``sys.path``) but never collects it.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _sever(*socks: socket.socket) -> None:
    """Shutdown-then-close.  The shutdown matters: ``close()`` alone on
    a socket another thread is blocked reading does not release the open
    file description — the kernel sends no FIN and the remote end (the
    gateway) never sees EOF.  ``shutdown(SHUT_RDWR)`` tears the
    connection down immediately regardless of pending reads, which is
    exactly the abrupt death the chaos tests are injecting."""
    for sock in socks:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

_ANNOUNCE_RE = re.compile(r"listening on ([\w.\-]+):(\d+)")

#: Compact-JSON marker of a streamed sweep result on the wire
#: (``encode_message`` uses ``separators=(",", ":")``).
RESULT_MARKER = b'"type":"result"'


# -- real shard daemons --------------------------------------------------------


class EndpointProcess:
    """One ``python -m repro <argv>`` endpoint subprocess (``serve`` or
    ``gateway``); ``port`` is parsed from its announce line."""

    def __init__(self, argv: Sequence[str],
                 host: str = "127.0.0.1") -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        self.host = host
        self.port = self._await_announce(timeout_s=60.0)

    def _await_announce(self, timeout_s: float) -> int:
        """Parse the daemon's one announce line for its bound port."""
        lines: List[str] = []
        done = threading.Event()

        def read() -> None:
            assert self.proc.stdout is not None
            line = self.proc.stdout.readline()
            lines.append(line)
            done.set()

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        if not done.wait(timeout_s) or not lines or not lines[0]:
            self.proc.kill()
            raise RuntimeError("endpoint never announced its port")
        match = _ANNOUNCE_RE.search(lines[0])
        if match is None:
            self.proc.kill()
            raise RuntimeError(
                f"unexpected announce line: {lines[0]!r}")
        return int(match.group(2))

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL — the no-goodbye death the chaos tests need."""
        if self.alive:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def stop(self) -> None:
        """Polite shutdown for teardown paths."""
        if self.alive:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)


class ShardProcess(EndpointProcess):
    """One ``repro serve`` daemon subprocess on an ephemeral port."""

    def __init__(self, cache_dir: str, jobs: int = 1,
                 host: str = "127.0.0.1",
                 extra_args: Sequence[str] = ()) -> None:
        super().__init__(["serve", "--host", host, "--port", "0",
                          "--jobs", str(jobs), "--cache-dir",
                          str(cache_dir), *extra_args], host=host)


# -- the chaos proxy -----------------------------------------------------------


@dataclass
class FaultPlan:
    """What to break, armed by result count across the proxy's lifetime.

    ``kill_after_results=K``: after forwarding the K-th ``result`` line,
    SIGKILL the shard process, sever every connection, and stop
    accepting new ones (the shard is *gone*).

    ``drop_after_results=K``: after the K-th ``result`` line, sever the
    streaming connection only — the shard lives, later connections
    (health pings, requeues) succeed.  Fires once.

    ``delay_results_s``: sleep this long before forwarding each
    ``result`` line once ``delay_after_results`` lines have passed — a
    sick-but-alive shard whose acks outlast the gateway's read timeout.
    """

    kill_after_results: Optional[int] = None
    drop_after_results: Optional[int] = None
    delay_results_s: float = 0.0
    delay_after_results: int = 0


class ChaosProxy:
    """Line-aware TCP proxy in front of one shard.

    The gateway talks to the proxy's address; upstream bytes pass
    through verbatim, downstream bytes are re-framed into protocol lines
    so the proxy can count ``result`` messages and fire the fault plan
    at an exact step.
    """

    def __init__(self, shard: ShardProcess,
                 plan: Optional[FaultPlan] = None) -> None:
        self.shard = shard
        self.plan = plan or FaultPlan()
        self.results_forwarded = 0
        self.host = "127.0.0.1"
        self._lock = threading.Lock()
        self._closing = False
        self._conns: List[socket.socket] = []
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, 0))
        self._listener.listen(16)
        self.port = self._listener.getsockname()[1]
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               daemon=True)
        self._accept_thread.start()

    @property
    def addr(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def id(self) -> str:
        """The ring/shard id the gateway will use for this proxy."""
        return f"{self.host}:{self.port}"

    def close(self) -> None:
        with self._lock:
            if self._closing:
                return
            self._closing = True
            conns = list(self._conns)
        try:
            self._listener.close()
        except OSError:
            pass
        _sever(*conns)

    def _accept_loop(self) -> None:
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            try:
                upstream = socket.create_connection(
                    (self.shard.host, self.shard.port), timeout=30)
            except OSError:
                client.close()
                continue
            with self._lock:
                if self._closing:
                    client.close()
                    upstream.close()
                    return
                # Prune finished connections (health pings churn through
                # many) so the table tracks only live sockets.
                self._conns = [c for c in self._conns if c.fileno() != -1]
                self._conns.extend((client, upstream))
            threading.Thread(target=self._pump_up,
                             args=(client, upstream), daemon=True).start()
            threading.Thread(target=self._pump_down,
                             args=(upstream, client), daemon=True).start()

    def _pump_up(self, client: socket.socket,
                 upstream: socket.socket) -> None:
        """Client → shard: raw byte pass-through."""
        try:
            while True:
                data = client.recv(65536)
                if not data:
                    break
                upstream.sendall(data)
        except OSError:
            pass
        finally:
            # Half-close so the shard sees EOF but downstream keeps
            # flowing (the client sends one request, then only reads).
            try:
                upstream.shutdown(socket.SHUT_WR)
            except OSError:
                pass

    def _pump_down(self, upstream: socket.socket,
                   client: socket.socket) -> None:
        """Shard → client: line-framed, counting results, firing faults."""
        buffer = b""
        try:
            while True:
                chunk = upstream.recv(65536)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    line += b"\n"
                    if RESULT_MARKER in line:
                        if not self._forward_result(line, client):
                            return
                    else:
                        client.sendall(line)
        except OSError:
            pass
        finally:
            _sever(client, upstream)

    def _forward_result(self, line: bytes, client: socket.socket) -> bool:
        """Forward one result line, then fire any armed fault; returns
        ``False`` when the connection must stop pumping."""
        plan = self.plan
        with self._lock:
            self.results_forwarded += 1
            count = self.results_forwarded
        if (plan.delay_results_s > 0
                and count > plan.delay_after_results):
            time.sleep(plan.delay_results_s)
        client.sendall(line)
        if plan.kill_after_results is not None \
                and count >= plan.kill_after_results:
            # The real thing: the daemon process dies with no goodbye,
            # and this shard's address stops accepting connections.
            self.shard.kill()
            self.close()
            return False
        if plan.drop_after_results is not None \
                and count >= plan.drop_after_results:
            plan.drop_after_results = None  # fires once
            return False  # severs this connection; shard stays up
        return True


# -- the gateway, in-process ---------------------------------------------------


class GatewayThread:
    """Run a GatewayService on a daemon thread for the test's duration."""

    def __init__(self, shard_addrs: Sequence[Tuple[str, int]],
                 **kwargs) -> None:
        import asyncio

        from repro.service import GatewayService

        kwargs.setdefault("port", 0)
        self.gateway = GatewayService(shard_addrs, **kwargs)
        self._asyncio = asyncio
        self._thread = threading.Thread(
            target=self._run, name="repro-gateway-test", daemon=True)

    def _run(self) -> None:
        try:
            self._asyncio.run(self.gateway.run())
        except OSError:
            pass  # startup failure is visible via gateway.startup_error

    def __enter__(self) -> "GatewayThread":
        self._thread.start()
        assert self.gateway.wait_started(timeout=30)
        assert self.gateway.startup_error is None
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.gateway.request_stop()
        self._thread.join(timeout=30)
        assert not self._thread.is_alive()

    @property
    def port(self) -> int:
        return self.gateway.port

    def client(self, **kwargs):
        from repro.service import ServiceClient

        kwargs.setdefault("timeout", 120.0)
        return ServiceClient(port=self.port, **kwargs)


# -- the whole fabric ----------------------------------------------------------


class Fabric:
    """N proxied shard daemons over one shared cache dir, plus a gateway.

    The shared cache directory is load-bearing: it is the store-mediated
    sync channel that turns a dead shard's already-simulated points into
    warm hits on the survivors (zero duplicate simulations after a
    requeue).
    """

    def __init__(self, cache_dir: str, n_shards: int = 3,
                 plans: Optional[Dict[int, FaultPlan]] = None,
                 shard_args: Sequence[str] = (),
                 **gateway_kwargs) -> None:
        self.cache_dir = str(cache_dir)
        self.shards: List[ShardProcess] = []
        self.proxies: List[ChaosProxy] = []
        self.gateway_thread: Optional[GatewayThread] = None
        plans = plans or {}
        try:
            for i in range(n_shards):
                shard = ShardProcess(self.cache_dir, extra_args=shard_args)
                self.shards.append(shard)
                self.proxies.append(ChaosProxy(shard, plans.get(i)))
            self.gateway_thread = GatewayThread(
                [p.addr for p in self.proxies], **gateway_kwargs)
        except BaseException:
            self._teardown()
            raise

    def __enter__(self) -> "Fabric":
        assert self.gateway_thread is not None
        self.gateway_thread.__enter__()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._teardown(exc_info)

    def _teardown(self, exc_info: Tuple = (None, None, None)) -> None:
        if self.gateway_thread is not None \
                and self.gateway_thread._thread.is_alive():
            self.gateway_thread.__exit__(*exc_info)
        for proxy in self.proxies:
            proxy.close()
        for shard in self.shards:
            shard.stop()

    @property
    def gateway(self):
        assert self.gateway_thread is not None
        return self.gateway_thread.gateway

    def client(self, **kwargs):
        assert self.gateway_thread is not None
        return self.gateway_thread.client(**kwargs)

    def results_file(self) -> Path:
        return Path(self.cache_dir) / "results.jsonl"


# -- helpers shared by chaos tests and the smoke tool --------------------------


def assignment_by_proxy(proxies: Sequence[ChaosProxy],
                        points: Sequence[object]) -> Dict[int, List[object]]:
    """Group sweep points by the proxy (shard) the gateway will route
    them to — computed with the same ring the gateway builds, so a test
    can pick its chaos victim *after* learning the real assignment
    instead of hoping a hard-coded shard owns enough keys."""
    from repro.orchestrator.store import ResultStore
    from repro.service.hashing import HashRing

    ring = HashRing([p.id for p in proxies])
    index = {p.id: i for i, p in enumerate(proxies)}
    groups: Dict[int, List[object]] = {}
    for point in points:
        shard_id = ring.assign(ResultStore.key_str(point.key()))
        groups.setdefault(index[shard_id], []).append(point)
    return groups


def busiest_proxy(proxies: Sequence[ChaosProxy],
                  points: Sequence[object]) -> int:
    """Index of the proxy owning the most points — with >= len(proxies)
    + 1 distinct keys it owns >= 2 by pigeonhole, so killing it after
    result 1 always leaves something to requeue."""
    groups = assignment_by_proxy(proxies, points)
    return max(groups, key=lambda i: len(groups[i]))


def distinct_keys(points: Sequence[object]) -> int:
    from repro.orchestrator.store import ResultStore

    return len({ResultStore.key_str(p.key()) for p in points})


def duplicate_store_keys(results_file: Path) -> List[str]:
    """Traffic keys recorded more than once in a store file — must be
    empty after any chaos run, or the fabric double-simulated."""
    counts: Dict[str, int] = {}
    for key in store_record_keys(results_file):
        counts[key] = counts.get(key, 0) + 1
    return sorted(k for k, n in counts.items() if n > 1)


def store_record_keys(results_file: Path) -> List[str]:
    """Every traffic key appended to a store file, in append order, in
    :meth:`ResultStore.key_str` form (records hold the key as a JSON
    list).  Tolerates a torn final line — a SIGKILL can land mid-append."""
    keys: List[str] = []
    if not results_file.exists():
        return keys
    with results_file.open() as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError:
                continue
            key = record.get("key")
            if isinstance(key, list):
                keys.append(json.dumps(key, separators=(",", ":")))
    return keys


def fuzz_exchange(port: int, payload: bytes,
                  host: str = "127.0.0.1") -> List[dict]:
    """Send one hostile frame, half-close, and collect every reply line
    until the listener hangs up.  Both fuzz suites (gateway and shard)
    drive their listeners through this."""
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.settimeout(30)
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    return [json.loads(line) for line in data.split(b"\n") if line.strip()]


def fuzz_payloads(seed: int = 0) -> List[bytes]:
    """Hostile wire frames for both listener fuzz suites: truncated
    JSON, garbage bytes, wrong top-level types, unknown/missing ops,
    malformed point objects, and an oversized line."""
    rng = random.Random(seed)
    payloads = [
        b"\n",
        b"not json at all\n",
        b"{truncated\n",
        b'{"op": "sweep", "workloads": [\n',
        b"[1, 2, 3]\n",
        b'"just a string"\n',
        b"42\n",
        b'{"no_op_field": true}\n',
        b'{"op": "warp-core"}\n',
        b'{"op": 7}\n',
        b'{"op": "points"}\n',
        b'{"op": "points", "points": "nope"}\n',
        b'{"op": "points", "points": []}\n',
        b'{"op": "points", "points": [42]}\n',
        b'{"op": "points", "points": [{"workload": ""}]}\n',
        b'{"op": "sweep", "workloads": 9}\n',
        b"\xff\xfe\x00\x01garbage\n",
        b"x" * (1024 * 1024 + 64) + b"\n",  # over MAX_LINE_BYTES
    ]
    for _ in range(8):
        junk = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 80)))
        payloads.append(junk + b"\n")
    return payloads
