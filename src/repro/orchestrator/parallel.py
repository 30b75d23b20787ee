"""Parallel sweep execution over a process pool.

The simulators are pure Python and CPU-bound, so sweeps parallelise
across processes, not threads.  Workers receive only picklable payloads
— (workload *name*, config name, :class:`AcceleratorConfig`) — rebuild
the DAG via :func:`repro.workloads.registry.resolve_workload`, and ship
the finished :class:`SimResult` back as a plain dict.

Two guarantees:

* **Determinism** — results are returned in submission order and the
  caller-visible outputs are always assembled serially from the warm
  cache, so ``jobs=N`` is byte-identical to ``jobs=1``.
* **Graceful fallback** — any failure to parallelise (no ``fork``/
  semaphore support in the sandbox, unpicklable payload, broken pool)
  degrades to the serial path rather than erroring.

One-shot CLI sweeps pay worker-spawn cost per :func:`prewarm` call; a
long-running process (the service daemon, ``repro serve``) instead keeps
one :class:`OrchestratorPool` resident and installs it with
:func:`set_shared_pool`, after which every ``prewarm`` in the process —
including ones buried inside experiment modules and the tuner — routes
its batches through the warm pool.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..baselines import runner
from ..baselines.configs import run_config
from ..hw.config import AcceleratorConfig
from ..sim import engine as sim_engine
from ..sim.results import SimResult
from ..workloads.registry import (
    Workload,
    is_resolvable,
    resolve_workload,
    workload_dag,
)
from .spec import SweepPoint, SweepSpec

#: Payload shipped to a worker: everything needed to rebuild + simulate.
_Payload = Tuple[str, str, AcceleratorConfig]

#: A worker's reply: the payload's engine phase timings (seconds per
#: phase) and its encoded result.  Phase data crosses the process
#: boundary this way because a worker's in-process hook dies with the
#: worker; :func:`prewarm` replays it into the parent's installed hook.
_Reply = Tuple[Dict[str, float], Dict[str, object]]

#: Pool-infrastructure failures that trigger the serial fallback.
#: Simulation errors are deliberately NOT in this set — they propagate
#: exactly as the serial path would raise them.
_POOL_ERRORS = (OSError, BrokenExecutor, pickle.PicklingError)

#: Infrastructure strikes before a pool declines work permanently.  A
#: transient pool never gets a second call anyway; a resident daemon
#: pool gets a few chances to rebuild after a dead worker before
#: settling on the serial path for good.
_MAX_STRIKES = 3


def _is_shutdown_runtime_error(exc: RuntimeError) -> bool:
    """The ``RuntimeError`` an executor raises when raced by shutdown —
    infrastructure, unlike an engine bug raising ``RuntimeError``."""
    text = str(exc)
    return "after shutdown" in text or "interpreter shutdown" in text


def default_jobs() -> int:
    return os.cpu_count() or 1


class SettingError(ValueError):
    """A constructor setting (a service endpoint's or the pool's width)
    is out of range; it is refused, never clamped.  :attr:`setting` is
    the parameter's name, so the CLI can name the flag it came from."""

    def __init__(self, setting: str, value: object, rule: str) -> None:
        super().__init__(f"{setting} must be {rule}, got {value!r}")
        self.setting = setting
        self.value = value
        self.rule = rule


def _width(jobs: Optional[int]) -> int:
    """Worker processes for ``jobs``: one per core for ``None``."""
    if jobs is None:
        return default_jobs()
    if jobs < 1:
        raise SettingError("jobs", jobs, "at least 1 (None = one per core)")
    return jobs


def _noop(_: int) -> None:
    """Trivial worker task used to spawn pool processes eagerly."""
    return None


class OrchestratorPool:
    """A persistent process pool reused across sweep batches.

    ``ProcessPoolExecutor`` is thread-safe, so a daemon may push batches
    from several threads concurrently.  An infrastructure failure discards
    the executor and the next batch rebuilds it; after
    :data:`_MAX_STRIKES` failures the pool is ``broken`` for good and every
    later call returns ``None`` — callers then run the serial path,
    mirroring :func:`prewarm`'s transient-pool fallback.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = _width(jobs)
        self.broken = False
        self.strikes = 0          # infrastructure failures seen so far
        self.batches = 0          # successful parallel batches dispatched
        self.payloads = 0         # payloads simulated across those batches
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    def _ensure(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            return self._pool

    def _infra_failure(self) -> None:
        """Discard the executor; after :data:`_MAX_STRIKES` of these the
        pool declines work permanently (``broken``) instead of fork-
        looping a hopeless environment."""
        with self._lock:
            self.strikes += 1
            if self.strikes >= _MAX_STRIKES:
                self.broken = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _raced_shutdown(self) -> None:
        """This thread's ``map`` hit "cannot schedule new futures after
        shutdown".  If :meth:`close` retired the pool, ``broken`` is
        already set and there is nothing to do; otherwise we raced
        another thread's strike-triggered executor teardown — count our
        own strike rather than condemning the pool outright."""
        if not self.broken:
            self._infra_failure()

    def warm(self) -> bool:
        """Eagerly spawn the worker processes (one trivial task each), so
        the first real batch pays no fork latency.  Returns ``False`` when
        pool infrastructure is unavailable (the pool is then ``broken``
        and all work runs serially)."""
        if self.jobs <= 1 or self.broken:
            return False
        try:
            list(self._ensure().map(_noop, range(self.jobs)))
        except _POOL_ERRORS:
            self._infra_failure()
            return False
        except RuntimeError as exc:
            if _is_shutdown_runtime_error(exc):
                self._raced_shutdown()
                return False
            raise
        return True

    def run_payloads(self, payloads: Sequence[_Payload]
                     ) -> Optional[List[_Reply]]:
        """Simulate ``payloads`` across the workers, preserving order.

        Returns the workers' replies, or ``None`` when the caller should
        use the serial path (1-wide pool, broken infrastructure, or an
        empty batch).  Simulation errors propagate; infrastructure
        errors (worker death, no fork support, shutdown race) count a
        strike and fall back to serial for this batch — the engines do
        no I/O, so an ``OSError`` out of ``map`` is infrastructure too.
        """
        if self.jobs <= 1 or self.broken or not payloads:
            return None
        try:
            replies = list(self._ensure().map(_simulate_payload, payloads))
        except _POOL_ERRORS:
            self._infra_failure()
            return None
        except RuntimeError as exc:
            # A pool raced by shutdown is infrastructure; an engine bug
            # raising RuntimeError is a simulation error and propagates.
            if _is_shutdown_runtime_error(exc):
                self._raced_shutdown()
                return None
            raise
        with self._lock:
            self.batches += 1
            self.payloads += len(replies)
        return replies

    def snapshot(self) -> Dict[str, object]:
        """Counters for the service's ``metrics`` op."""
        return {
            "jobs": self.jobs,
            "broken": self.broken,
            "strikes": self.strikes,
            "batches": self.batches,
            "payloads": self.payloads,
        }

    def close(self) -> None:
        """Shut the workers down; the pool permanently declines further
        work (``broken``) so late callers take the serial path instead of
        resurrecting an orphan executor."""
        with self._lock:
            self.broken = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "OrchestratorPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


_SHARED_POOL: Optional[OrchestratorPool] = None


def set_shared_pool(pool: Optional[OrchestratorPool]) -> None:
    """Install (or with ``None`` remove) the process-wide resident pool.

    While installed, :func:`prewarm` calls that do not pass an explicit
    pool dispatch through it — at the *pool's* width, regardless of their
    ``jobs`` argument."""
    global _SHARED_POOL
    _SHARED_POOL = pool


def get_shared_pool() -> Optional[OrchestratorPool]:
    return _SHARED_POOL


def _simulate_payload(payload: _Payload) -> _Reply:
    """Worker entry point: resolve, build (once per workload per process,
    :func:`~repro.workloads.registry.workload_dag`), simulate, encode.

    Module-level (picklable) by construction; runs in the worker process.
    The payload's phase timings ride back with the encoded result.
    """
    name, config, cfg = payload
    phases: Dict[str, float] = {}
    previous = sim_engine.get_phase_hook()
    sim_engine.set_phase_hook(
        lambda phase, dt: phases.__setitem__(
            phase, phases.get(phase, 0.0) + dt))
    try:
        workload = resolve_workload(name)
        result = run_config(config, workload_dag(workload), cfg,
                            workload_name=workload.name)
    finally:
        sim_engine.set_phase_hook(previous)
    return phases, result.to_dict()


def _resolvable(points: Iterable[SweepPoint]) -> List[SweepPoint]:
    """Points whose workload names round-trip through the registry."""
    return [p for p in points if is_resolvable(p.workload)]


def prewarm(points: Sequence[SweepPoint], jobs: Optional[int] = None,
            pool: Optional[OrchestratorPool] = None) -> int:
    """Simulate every uncached point, ``jobs`` wide; returns #simulated.

    Results land in the runner's cache tiers (process dict + persistent
    store when installed), so subsequent serial code replays them.
    Unresolvable workload names are skipped — their owner still holds the
    real :class:`Workload` object and will simulate lazily in-process.

    An explicit ``pool`` (or an installed shared pool, see
    :func:`set_shared_pool`) is reused across calls at its own width;
    otherwise a transient pool spins up when ``jobs > 1``.
    """
    pool = pool if pool is not None else get_shared_pool()
    jobs = _width(jobs)
    todo: List[SweepPoint] = []
    seen = set()
    for p in _resolvable(points):
        key = p.key()
        if key in seen or runner.peek(key) is not None:
            continue
        seen.add(key)
        todo.append(p)
    if not todo:
        return 0

    payloads: List[_Payload] = [(p.workload, p.config, p.cfg) for p in todo]
    replies: Optional[List[_Reply]] = None
    if pool is not None:
        replies = pool.run_payloads(payloads)
    elif jobs > 1 and len(todo) > 1:
        with OrchestratorPool(min(jobs, len(todo))) as transient:
            replies = transient.run_payloads(payloads)
    if replies is not None:
        runner.count_simulations(len(todo))
        hook = sim_engine.get_phase_hook()
        for point, (phases, data) in zip(todo, replies):
            if hook is not None:  # the worker's timings, into this process's hook
                for phase, seconds in phases.items():
                    hook(phase, seconds)
            runner.seed_cache(point.key(), SimResult.from_dict(data))
        return len(todo)

    # Serial path: pool infrastructure unavailable (sandbox without fork/
    # semaphores, dead worker, unpicklable payload) or 1-wide request.
    for p in todo:
        runner.run_workload_config(resolve_workload(p.workload), p.config,
                                   p.cfg)
    return len(todo)


def run_points(points: Sequence[SweepPoint],
               jobs: Optional[int] = None) -> List[SimResult]:
    """Run every point and return results in ``points`` order.

    Each result is timed under its own point's bandwidth; shared traffic
    between bandwidth variants is simulated once.
    """
    points = list(points)
    prewarm(points, jobs=jobs)
    out: List[SimResult] = []
    for p in points:
        try:
            workload: Workload = resolve_workload(p.workload)
        except KeyError as exc:
            raise KeyError(
                f"sweep point {p.workload!r} is not registry-resolvable; "
                "run custom workloads through baselines.run_workload_config"
            ) from exc
        out.append(runner.run_workload_config(workload, p.config, p.cfg))
    return out


def run_sweep(spec: SweepSpec, jobs: Optional[int] = None) -> List[SimResult]:
    """Expand ``spec`` and run it; deterministic spec enumeration order."""
    return run_points(spec.points(), jobs=jobs)
