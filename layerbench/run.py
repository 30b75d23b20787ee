"""Layer-ladder benchmark of the CELLO reproduction's simulation service.

Run from the root of a checkout::

    python3 layerbench/run.py --workload smoke-cold --seed 1 --seconds 30 --trace 0

The benchmark boots a real fabric (``fabric.py``) three times, timing
each boot, and keeps the last one.  For ``--seconds`` one closed-loop
client then submits a seeded stream of sweep requests (``inputs.py``);
every request goes to both the gateway (two one-worker shards) and the
single two-worker daemon, in alternating order.  Every answer is
checked, and the two endpoints must return the same results.
Afterwards a sample of the answered points is re-simulated in this
process and compared field by field.

``--trace 0`` reports the end-to-end metrics: mean and 70th-percentile
request latency per endpoint, and the median boot time.  ``--trace 1``
runs the same traffic, then the per-layer ladder (``ladder.py``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import inputs
from fabric import HOST, Fabric, shard_ports

SETUP_REPEATS = 3
#: Answered points re-simulated in-process and compared field by field.
ORACLE_POINTS = 4
#: Per-socket-operation client timeout: a wedged fabric fails the run
#: well inside its time limit instead of hanging it.
CLIENT_TIMEOUT_S = 30.0
#: Fewest answers per endpoint that make a mean and a p70 meaningful.
MIN_SAMPLES = 20
WORK_DIR = ".layerbench-work"
PATHS = ("gateway", "direct")

#: Metric name -> unit, in output order.
END_TO_END = {
    "gateway_mean_ms": "ms", "gateway_p70_ms": "ms",
    "direct_mean_ms": "ms", "direct_p70_ms": "ms",
    "setup_s": "s",
}
PER_LAYER = {
    "dag_build_ms": "ms", "classify_ms": "ms", "schedule_ms": "ms",
    "chord_walk_ms": "ms", "analytic_compile_ms": "ms",
    "analytic_eval_us": "us", "trace_gen_ms": "ms", "cache_kernel_ms": "ms",
    "kernel_accesses_per_s": "1/s",
    "store_put_us": "us", "store_get_us": "us", "pool_rtt_us": "us",
    "wire_rtt_us": "us", "gateway_rtt_us": "us",
    "direct_hit_ms": "ms", "gateway_hit_ms": "ms", "import_ms": "ms",
    "requests": "count", "points": "count",
}


class Traffic:
    """What the closed-loop client sent and observed."""

    def __init__(self, cold: bool) -> None:
        self.cold = cold
        self.latency: Dict[str, List[float]] = {p: [] for p in PATHS}
        self.attempted = 0
        self.failures: List[str] = []
        self.points = 0
        #: (requested point, result) of the first request both endpoints
        #: answered: the oracle's sample.  No other answer is kept, so the
        #: client's heap, and with it garbage-collection work inside timed
        #: requests, stays flat however many requests a run sends.
        self.sample: List[Tuple[tuple, object]] = []

    def serve(self, clients: dict, request, order: Sequence[str]) -> None:
        """Send ``request`` to each endpoint in ``order``; both must answer
        it with the same results."""
        outcomes = [self._submit(path, clients[path], request)
                    for path in order]
        if None in outcomes:
            return
        first, second = ([p.result for p in o.points] for o in outcomes)
        if first != second:
            self.failures.append(f"the endpoints disagree on {request}")
        elif not self.sample:
            self.sample = list(zip(request.points(), first))

    def _submit(self, path: str, client, request):
        from repro.service import ServiceError

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            outcome = client.submit_sweep(
                request.workloads, request.configs, request.sram_mb,
                request.bandwidth_gb, overload_retries=0)
        except ServiceError as exc:
            self.failures.append(f"{path}: {exc}")
            return None
        elapsed = time.perf_counter() - t0
        problem = self._check(request, outcome)
        if problem:
            self.failures.append(f"{path}: {problem}")
            return None
        self.latency[path].append(elapsed)
        self.points += len(outcome.points)
        return outcome

    def _check(self, request, outcome) -> Optional[str]:
        want = request.points()
        got = [(p.workload, p.config, p.sram_bytes, p.bandwidth_bytes_per_s)
               for p in outcome.points]
        if got != want:
            return f"answered {got} for {want}"
        keys = len({(w, c, s) for w, c, s, _ in want})
        if self.cold and (outcome.hits or outcome.simulations != keys):
            return (f"cold sweep of {keys} keys hit the store "
                    f"({outcome.simulations} simulations, {outcome.hits} "
                    f"hits)")
        if not self.cold and outcome.simulations:
            return f"warm sweep simulated {outcome.simulations} points"
        for p in outcome.points:
            r = p.result
            if (r.workload, r.config) != (p.workload, p.config) \
                    or r.dram_bytes <= 0 or r.time_s <= 0:
                return f"implausible result {r}"
        return None

    def oracle(self) -> List[str]:
        """A sample of answered points must match an in-process
        simulation."""
        from dataclasses import replace

        from repro.baselines import run_workload_config
        from repro.hw.config import AcceleratorConfig
        from repro.workloads.registry import resolve_workload

        if not self.sample:
            return ["no request was answered by both endpoints"]
        problems = []
        stride = max(1, len(self.sample) // ORACLE_POINTS)
        for point, got in self.sample[::stride][:ORACLE_POINTS]:
            workload, config, sram_bytes, bandwidth = point
            cfg = replace(AcceleratorConfig(), sram_bytes=sram_bytes,
                          dram_bandwidth_bytes_per_s=bandwidth)
            truth = run_workload_config(resolve_workload(workload), config,
                                        cfg).to_dict()
            if truth != got.to_dict():
                problems.append(f"{point}: service {got.to_dict()} != "
                                f"in-process {truth}")
        return problems


def _p70(values: List[float]) -> float:
    """The highest decile boundary with 10+ samples beyond it in every
    workload (fig12-cold answers ~35-50 requests per endpoint)."""
    return statistics.quantiles(values, n=10)[6]


def _drive(args: argparse.Namespace, fabric: Fabric, traffic: Traffic
           ) -> Dict[str, float]:
    """Run the traffic against ``fabric``; with ``--trace 1`` also time
    the wire and gateway rungs while the fabric is up."""
    from repro.service import ServiceClient

    clients = {"gateway": ServiceClient(HOST, fabric.gateway.port,
                                        timeout=CLIENT_TIMEOUT_S),
               "direct": ServiceClient(HOST, fabric.direct.port,
                                       timeout=CLIENT_TIMEOUT_S)}
    try:
        if not traffic.cold:
            warm = inputs.QUICKSTART
            for client in clients.values():
                client.submit_sweep(warm.workloads, warm.configs,
                                    warm.sram_mb, warm.bandwidth_gb)
        stream = inputs.request_stream(args.workload, args.seed)
        # Set-up garbage is collected and frozen now, so no collection of
        # it lands inside a timed request.
        gc.collect()
        gc.freeze()
        deadline = time.perf_counter() + args.seconds
        turn = 0
        while time.perf_counter() < deadline:
            # Both endpoints answer every request, in alternating order,
            # so their latencies cover the same mix.
            traffic.serve(clients, next(stream),
                          PATHS[::1 if turn % 2 else -1])
            turn += 1
        if not args.trace or not traffic.sample:
            return {}
        import ladder

        (workload, config, sram_bytes, bandwidth), _ = traffic.sample[0]
        try:
            return ladder.time_service_layers(
                clients["direct"], clients["gateway"],
                (workload, config, sram_bytes / (1 << 20), bandwidth / 1e9))
        except AssertionError as exc:
            traffic.failures.append(f"ladder: {exc}")
            return {}
    finally:
        for client in clients.values():
            client.close()


def _run(args: argparse.Namespace, root: Path, work: Path) -> dict:
    boots: List[float] = []
    traffic = Traffic(cold=args.workload != "warm")
    ports = shard_ports()
    fabric: Optional[Fabric] = None
    try:
        for i in range(SETUP_REPEATS):
            if fabric is not None:
                fabric.stop()
            fabric = Fabric(root, work / f"boot{i}", ports)
            boots.append(fabric.boot_s)
        metrics = _drive(args, fabric, traffic)
    finally:
        if fabric is not None:
            fabric.stop()
    failures = traffic.failures + traffic.oracle()

    if args.trace:
        import ladder

        try:
            metrics.update(ladder.time_engine_layers(
                inputs.LADDER_WORKLOADS, work / "ladder-store"))
        except AssertionError as exc:
            failures.append(f"ladder: {exc}")
        metrics["pool_rtt_us"] = ladder.time_pool_rtt()
        metrics["import_ms"] = ladder.time_import(root)
        metrics["requests"] = traffic.attempted
        metrics["points"] = traffic.points
        units = PER_LAYER
    else:
        metrics = {"setup_s": statistics.median(boots)}
        for path, samples in traffic.latency.items():
            if len(samples) < MIN_SAMPLES:
                failures.append(f"{path}: only {len(samples)} answers")
                continue
            # The mean, not the median: a fig12-cold request through the
            # gateway takes ~0.45 s when both cache-baseline keys hash to
            # one shard and ~0.3 s when they do not, at even odds, so the
            # median jumps between the two modes from run to run.
            metrics[f"{path}_mean_ms"] = statistics.fmean(samples) * 1e3
            metrics[f"{path}_p70_ms"] = _p70(samples) * 1e3
        units = END_TO_END
    for problem in failures[:20]:
        print(f"layerbench: FAILED {problem}", file=sys.stderr)
    print(f"layerbench: {args.workload} seed={args.seed}: "
          f"{traffic.attempted} requests "
          f"({len(traffic.latency['gateway'])} gateway, "
          f"{len(traffic.latency['direct'])} direct), "
          f"{traffic.points} points, boots {[round(b, 3) for b in boots]}, "
          f"shard ports {ports}",
          file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": traffic.attempted,
        "failed": len(traffic.failures),
        # A metric a failed run could not measure reads 0 (never a real
        # value): the run is already marked incorrect.
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("layerbench: no src/repro here; run from the root of a "
              "repro checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # A terminated run must still reach the finally blocks that stop
    # the daemons.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = root / WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    # Daemons and pool workers inherit this: every scratch file stays
    # inside the checkout.
    os.environ["TMPDIR"] = str(work)
    try:
        report = _run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass  # another run still owns a sibling directory
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
