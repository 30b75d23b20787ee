"""Batch runner with two-tier memoisation.

Experiments sweep (workload × config × bandwidth); DRAM traffic is
bandwidth-independent, so the runner simulates traffic once per
(workload, config, SRAM size) and re-times it per bandwidth point — the
same shortcut the roofline model licenses.

Memoisation is layered:

* a process-local dict (always on), and
* an optional persistent :class:`~repro.orchestrator.store.ResultStore`
  (install with :func:`set_store`) that survives across invocations —
  the CLI enables it by default so ``python -m repro all`` is
  near-instant once warm.

The orchestrator's parallel runner seeds both layers via
:func:`seed_cache` so experiment modules replay pre-warmed sweeps
without re-simulating.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from ..hw.config import AcceleratorConfig
from ..orchestrator.store import ResultStore, result_key
from ..sim.perf import make_result
from ..sim.results import SimResult
from ..workloads.registry import Workload, workload_dag
from .configs import run_config

_CACHE: Dict[Tuple, SimResult] = {}
_STORE: Optional[ResultStore] = None
_SIMULATIONS = 0
#: The service daemon simulates on worker threads; the counter update is
#: a read-modify-write, so it takes a lock (dict tiers are single-op
#: atomic under the GIL and need none).
_SIM_LOCK = threading.Lock()


def clear_cache() -> None:
    """Drop the process-local tier (the persistent store is untouched)."""
    _CACHE.clear()


def set_store(store: Optional[ResultStore]) -> None:
    """Install (or with ``None`` remove) the persistent result store."""
    global _STORE
    _STORE = store


def get_store() -> Optional[ResultStore]:
    return _STORE


def simulation_count() -> int:
    """Traffic simulations actually executed or dispatched this process."""
    return _SIMULATIONS


def reset_simulation_count() -> None:
    global _SIMULATIONS
    _SIMULATIONS = 0


def count_simulations(n: int = 1) -> None:
    """Attribute ``n`` simulations (used by parallel workers' parent)."""
    global _SIMULATIONS
    with _SIM_LOCK:
        _SIMULATIONS += n


def peek(key: Tuple) -> Optional[SimResult]:
    """Cached base result for ``key``, consulting both tiers; no simulation.

    A store hit is promoted into the process-local dict.
    """
    base = _CACHE.get(key)
    if base is None and _STORE is not None:
        base = _STORE.get(key)
        if base is not None:
            _CACHE[key] = base
    return base


def seed_cache(key: Tuple, base: SimResult) -> None:
    """Insert a simulated base result into both cache tiers."""
    _CACHE[key] = base
    if _STORE is not None:
        _STORE.put(key, base)


def run_workload_config(
    workload: Workload,
    config: str,
    cfg: AcceleratorConfig,
) -> SimResult:
    """Run (memoised on traffic) and time under ``cfg``'s bandwidth."""
    key = result_key(config, workload.name, cfg)
    base = peek(key)
    if base is None:
        dag = workload_dag(workload)
        count_simulations()
        base = run_config(config, dag, cfg, workload_name=workload.name)
        seed_cache(key, base)
    # Re-time for this bandwidth (traffic is bandwidth-independent).
    return make_result(
        config=base.config,
        workload=base.workload,
        total_macs=base.total_macs,
        dram_read_bytes=base.dram_read_bytes,
        dram_write_bytes=base.dram_write_bytes,
        cfg=cfg,
        onchip_accesses=base.onchip_accesses,
    )

