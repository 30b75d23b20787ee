"""The layer ladder: host time of every layer a simulated point crosses.

The service answers a point by stacking these layers, bottom to top:

    DAG build -> dependency classification -> SCORE schedule
      -> CHORD walk                      (schedule-driven configs)
      -> trace generation -> cache kernel (cache baselines)
      -> analytic compile -> evaluate    (tune fast path, no simulation)
    -> roofline result -> result store -> pool IPC -> wire -> gateway hop

:func:`time_engine_layers` times the engine layers on registry DAGs: a
span around each call of the schedule-driven path, and the engine's own
phase hook inside a cache-baseline run.  :func:`time_service_layers`
times the rungs above the engine against the running fabric.  Apart
from that existing hook, spans are recorded by the benchmark around
calls into the program.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, TypeVar

from repro.analytic import model_for
from repro.baselines.configs import run_config
from repro.core.classify import classify_dependencies
from repro.hw.config import AcceleratorConfig
from repro.orchestrator.parallel import OrchestratorPool
from repro.orchestrator.store import ResultStore, result_key
from repro.score.scheduler import Score
from repro.service import ServiceClient
from repro.sim.engine import EngineOptions, ScheduleEngine, set_phase_hook
from repro.sim.trace import auto_granularity, program_trace_bytes
from repro.workloads.registry import resolve_workload

T = TypeVar("T")

#: Analytic evaluations per compiled model (one is a few microseconds).
ANALYTIC_EVALS = 200


class Spans:
    """Host seconds per layer, one entry per call."""

    def __init__(self) -> None:
        self.seconds: Dict[str, List[float]] = {}

    def record(self, layer: str, seconds: float) -> None:
        self.seconds.setdefault(layer, []).append(seconds)

    def time(self, layer: str, fn: Callable[[], T]) -> T:
        t0 = time.perf_counter()
        out = fn()
        self.record(layer, time.perf_counter() - t0)
        return out

    def mean(self, layer: str) -> float:
        return statistics.fmean(self.seconds[layer])

    def median(self, layer: str) -> float:
        return statistics.median(self.seconds[layer])


def time_engine_layers(workloads: Sequence[str],
                       store_dir: Path) -> Dict[str, float]:
    """Mean host time per DAG of each engine layer, plus store get/put.

    Every workload is built once and pushed through both engines: the
    schedule-driven rungs (classify, SCORE, CHORD walk) in the order
    ``baselines.cello.run_cello`` calls them, and a Flex+LRU run whose
    trace-generation and cache-kernel rungs come from the engine's own
    phase hook.
    """
    cfg = AcceleratorConfig()
    spans = Spans()
    accesses = 0
    results = []
    for name in workloads:
        workload = resolve_workload(name)
        dag = spans.time("dag-build", workload.build)
        classified = spans.time("classify",
                                lambda: classify_dependencies(dag))
        schedule = spans.time("schedule",
                              lambda: Score(cfg).schedule(dag, classified))
        chord = spans.time("chord-walk", lambda: ScheduleEngine(cfg).run(
            schedule, "CELLO", name))
        model = spans.time("analytic-compile",
                           lambda: model_for(workload, "CELLO", cfg))
        for _ in range(ANALYTIC_EVALS):
            predicted = spans.time("analytic-eval", lambda: model.evaluate(
                "CELLO", EngineOptions(), cfg))
        if predicted.result != chord:
            raise AssertionError(f"analytic model disagrees with the CHORD "
                                 f"walk on {name}: {predicted.result} != "
                                 f"{chord}")

        # The cache path runs through the service's own entry point; the
        # engine's phase hook splits it into lazy trace generation and
        # the kernel consuming it.
        set_phase_hook(spans.record)
        try:
            result = run_config("Flex+LRU", dag, cfg, name)
        finally:
            set_phase_hook(None)
        g = auto_granularity(program_trace_bytes(dag), cfg.line_bytes)
        accesses += result.onchip_accesses["cache"] // g
        results.append(result)

    # The store keys on (config, workload, cfg): give every result a run
    # of SRAM sizes so the index holds a shard-sized few hundred entries.
    store = ResultStore(store_dir)
    keys = [(result_key(r.config, r.workload,
                        cfg.with_sram(cfg.sram_bytes + 512 * i), None), r)
            for i in range(50) for r in results]
    for key, result in keys:
        spans.time("store-put", lambda: store.put(key, result))
    for key, result in keys:
        if spans.time("store-get", lambda: store.get(key)) != result:
            raise AssertionError(f"result store lost {key}")

    kernel_s = sum(spans.seconds["cache-kernel"])
    return {
        "dag_build_ms": spans.mean("dag-build") * 1e3,
        "classify_ms": spans.mean("classify") * 1e3,
        "schedule_ms": spans.mean("schedule") * 1e3,
        "chord_walk_ms": spans.mean("chord-walk") * 1e3,
        "analytic_compile_ms": spans.mean("analytic-compile") * 1e3,
        "analytic_eval_us": spans.mean("analytic-eval") * 1e6,
        "trace_gen_ms": spans.mean("trace-gen") * 1e3,
        "cache_kernel_ms": spans.mean("cache-kernel") * 1e3,
        "kernel_accesses_per_s": accesses / kernel_s,
        "store_put_us": spans.mean("store-put") * 1e6,
        "store_get_us": spans.mean("store-get") * 1e6,
    }


def time_pool_rtt(rounds: int = 50) -> float:
    """Median microseconds for one no-op round trip through every worker
    of a warm two-process orchestrator pool."""
    spans = Spans()
    with OrchestratorPool(2) as pool:
        if not pool.warm():
            raise RuntimeError("orchestrator pool could not start workers")
        for _ in range(rounds):
            spans.time("pool", pool.warm)
    return spans.median("pool") * 1e6


def time_service_layers(direct: ServiceClient, gateway: ServiceClient,
                        point: Sequence, rounds: int = 100
                        ) -> Dict[str, float]:
    """Wire and gateway-hop rungs against the live fabric.

    ``point`` is one (workload, config, sram_mb, bandwidth_gb) already
    simulated; submitting it once more to each endpoint first makes it a
    store hit on both, so the hit latencies time wire + store + merge
    with no simulation.
    """
    workload, config, sram_mb, bandwidth_gb = point
    spans = Spans()

    def hit(client: ServiceClient) -> None:
        outcome = client.submit_sweep([workload], [config], [sram_mb],
                                      [bandwidth_gb], overload_retries=0)
        if outcome.simulations or len(outcome.points) != 1:
            raise AssertionError(f"warm point re-simulated: {outcome}")

    for client in (direct, gateway):
        client.submit_sweep([workload], [config], [sram_mb], [bandwidth_gb],
                            overload_retries=0)
    for _ in range(rounds):
        spans.time("wire", direct.ping)
        spans.time("gateway-wire", gateway.ping)
        spans.time("direct-hit", lambda: hit(direct))
        spans.time("gateway-hit", lambda: hit(gateway))
    return {
        "wire_rtt_us": spans.median("wire") * 1e6,
        "gateway_rtt_us": spans.median("gateway-wire") * 1e6,
        "direct_hit_ms": spans.median("direct-hit") * 1e3,
        "gateway_hit_ms": spans.median("gateway-hit") * 1e3,
    }


def time_import(root: Path, rounds: int = 3) -> float:
    """Median milliseconds ``import repro.cli`` adds to a fresh
    interpreter (the fixed cost of every CLI invocation)."""
    env = {"PYTHONPATH": str(root / "src")}
    spans = Spans()
    for _ in range(rounds):
        for layer, code in (("bare", "pass"), ("import", "import repro.cli")):
            spans.time(layer, lambda: subprocess.run(
                [sys.executable, "-c", code], cwd=root, env=env, check=True))
    return (spans.median("import") - spans.median("bare")) * 1e3
