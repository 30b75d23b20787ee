"""The process-wide engine phase hook.

``hook(phase, seconds)`` is called once per phase of engine work, with
phases

* ``"dag-build"`` — a workload DAG built on a memo miss
  (:func:`repro.workloads.registry.workload_dag`; a hit reports nothing),
* ``"schedule"`` — one :meth:`repro.score.scheduler.Score.schedule` call,
* ``"trace-gen"`` — producing the cache baselines' address trace and
  its block footprint, both functions of the DAG alone (near zero when
  the DAG already holds them),
* ``"cache-kernel"`` — the footprint's fit check, and the
  set-associative replay when it does not fit, and
* ``"chord-accounting"`` — the schedule-driven op walk.

Engine work is not only simulation: an analytic ``predict`` and a hybrid
tune's model compile also build DAGs and call ``Score.schedule``, so
``dag-build`` and ``schedule`` gain observations with no simulated point.

``None`` (the default, and what one-shot CLI runs keep) leaves the hot
paths timer-free; the service daemon always installs a histogram-feeding
hook so "simulation is slow" decomposes into which phase regressed.
Pool workers install a local collector and ship the timings back with
the result (:mod:`repro.orchestrator.parallel`).  This module imports
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
