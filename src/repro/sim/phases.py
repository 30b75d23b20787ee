"""The process-wide engine phase hook.

``hook(phase, seconds)`` is called once per phase of each simulated
point, with phases

* ``"dag-build"`` — a workload DAG built on a memo miss
  (:func:`repro.workloads.registry.workload_dag`; a hit reports nothing),
* ``"schedule"`` — one :meth:`repro.score.scheduler.Score.schedule` call,
* ``"trace-gen"`` — producing the cache baselines' address trace and
  the eviction-free closed form's chunk facts, both functions of the
  DAG alone (near zero when the DAG already holds them),
* ``"cache-kernel"`` — the set-associative replay, and
* ``"chord-accounting"`` — the schedule-driven op walk.

``None`` (the default) keeps the hot paths timer-free; the service
daemon installs a histogram-feeding hook under ``--phase-profile`` so
"simulation is slow" decomposes into which phase regressed.  Pool
workers install a local collector and ship the timings back with the
result (:mod:`repro.orchestrator.parallel`).  This module imports
nothing from the package, so any layer may report a phase.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, TypeVar

T = TypeVar("T")

_PHASE_HOOK: Optional[Callable[[str, float], None]] = None


def set_phase_hook(hook: Optional[Callable[[str, float], None]]) -> None:
    """Install (or with ``None`` remove) the process-wide phase hook."""
    global _PHASE_HOOK
    _PHASE_HOOK = hook


def get_phase_hook() -> Optional[Callable[[str, float], None]]:
    return _PHASE_HOOK


def timed(phase: str, fn: Callable[[], T]) -> T:
    """``fn()``, reported to the hook as ``phase`` when one is installed."""
    hook = _PHASE_HOOK
    if hook is None:
        return fn()
    t0 = time.perf_counter()
    out = fn()
    hook(phase, time.perf_counter() - t0)
    return out
