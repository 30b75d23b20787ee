"""Boot and tear down the service fabric the benchmark drives.

One fabric is four real ``python -m repro`` daemons on localhost:

* two ``repro serve --jobs 1`` shards over one shared result store, on
  a port pair whose hash ring splits the key space within 0.5% of even
  (random ports give anywhere from 42/58 to 58/42, which would move
  gateway latency from run to run),
* a ``repro gateway`` in front of them (consistent-hash fan-out),
* one ``repro serve --jobs 2`` daemon with its own store — the same two
  cores behind a single endpoint instead of a gateway.

Every daemon runs in its own session so teardown can reap the whole
process group (pool workers included) even if a daemon wedges.
"""

from __future__ import annotations

import os
import re
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

HOST = "127.0.0.1"
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0

#: Shard port pairs (p, p + 1) are scanned upward from here.
PORT_BASE = 28600
PORT_LIMIT = 29000
#: Largest departure from an even key split a shard port pair may have.
MAX_SKEW = 0.005

_ANNOUNCE = re.compile(r"listening on [\w.\-]+:(\d+)")


def _first_shard_share(ports: Tuple[int, int]) -> float:
    """The share of the key space the gateway's hash ring gives the
    first of ``ports``: every virtual node owns the arc up to it."""
    from repro.service.hashing import HashRing

    ring = HashRing([f"{HOST}:{port}" for port in ports])
    owned, prev = 0, ring._positions[-1] - (1 << 64)
    for pos, owner in zip(ring._positions, ring._owners):
        if owner == ring.shards[0]:
            owned += pos - prev
        prev = pos
    return owned / (1 << 64)


def _free(port: int) -> bool:
    """Whether a listener can bind ``port`` now.  The daemons bind with
    SO_REUSEADDR, so a port left in TIME_WAIT counts as free."""
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((HOST, port))
        except OSError:
            return False
    return True


def shard_ports() -> Tuple[int, int]:
    """The first free port pair whose ring is balanced within
    :data:`MAX_SKEW`.

    A balanced pair held by someone else (say, a fabric left behind by
    a killed run) is skipped with a note on stderr; every pair used is
    balanced, so runs stay comparable.
    """
    for port in range(PORT_BASE, PORT_LIMIT, 2):
        pair = (port, port + 1)
        if abs(_first_shard_share(pair) - 0.5) > MAX_SKEW:
            continue
        if _free(pair[0]) and _free(pair[1]):
            return pair
        print(f"layerbench: balanced shard ports {pair} are taken; "
              f"trying the next balanced pair", file=sys.stderr)
    raise RuntimeError(f"no free balanced shard port pair in "
                       f"[{PORT_BASE}, {PORT_LIMIT})")


class Daemon:
    """One ``python -m repro <role>`` subprocess."""

    def __init__(self, root: Path, args: List[str], log_path: Path,
                 port: int = 0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.role = args[0]
        self.port: Optional[int] = None
        self._log = log_path.open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args,
             "--host", HOST, "--port", str(port)],
            stdout=subprocess.PIPE, stderr=self._log, stdin=subprocess.DEVNULL,
            cwd=root, env=env, start_new_session=True)

    def await_port(self, deadline: float) -> int:
        """Block until the daemon announces its bound port."""
        assert self.proc.stdout is not None
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(0.0, remaining))
        line = self.proc.stdout.readline().decode() if ready else ""
        match = _ANNOUNCE.search(line)
        if match is None:
            log = Path(self._log.name).read_text(errors="replace")
            raise RuntimeError(f"{self.role} did not announce a port "
                               f"(got {line!r}); its log ends:\n{log[-2000:]}")
        self.port = int(match.group(1))
        return self.port

    def stop(self) -> None:
        """Ask for a clean shutdown, then reap the whole process group."""
        from repro.service import ServiceClient, ServiceError

        if self.proc.poll() is None and self.port is not None:
            try:
                with ServiceClient(HOST, self.port, timeout=10.0) as client:
                    client.shutdown()
            except (ServiceError, OSError):
                pass
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        assert self.proc.stdout is not None
        self.proc.stdout.close()
        self._log.close()


class Fabric:
    """Two shards on ``ports`` behind a gateway, plus one two-worker
    daemon on an ephemeral port."""

    def __init__(self, root: Path, work: Path,
                 ports: Tuple[int, int]) -> None:
        work.mkdir(parents=True)
        self.daemons: List[Daemon] = []
        t0 = time.monotonic()
        deadline = t0 + BOOT_TIMEOUT_S
        try:
            shards = [self._spawn(root, work, f"shard{i}", [
                "serve", "--jobs", "1",
                "--cache-dir", str(work / "shard-store")], port)
                for i, port in enumerate(ports)]
            self.direct = self._spawn(root, work, "direct", [
                "serve", "--jobs", "2",
                "--cache-dir", str(work / "direct-store")])
            for shard in shards:
                shard.await_port(deadline)
            shard_addrs = ",".join(f"{HOST}:{d.port}" for d in shards)
            self.gateway = self._spawn(root, work, "gateway", [
                "gateway", "--shards", shard_addrs])
            self.gateway.await_port(deadline)
            self.direct.await_port(deadline)
        except BaseException:
            self.stop()
            raise
        #: Wall seconds from the first spawn until every endpoint listens.
        self.boot_s = time.monotonic() - t0

    def _spawn(self, root: Path, work: Path, name: str,
               args: List[str], port: int = 0) -> Daemon:
        daemon = Daemon(root, args, work / f"{name}.log", port)
        self.daemons.append(daemon)
        return daemon

    def stop(self) -> None:
        # Gateway first, so it never health-checks a half-stopped shard.
        for daemon in sorted(self.daemons,
                             key=lambda d: d.role != "gateway"):
            daemon.stop()
        self.daemons = []
