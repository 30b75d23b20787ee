"""Job records and the server-side job table.

A job is one client submission (``sweep``/``points``/``tune``).  Its
lifecycle::

    pending ──▶ running ──▶ done
                   │ ├────▶ failed     (simulation / search error)
                   │ └────▶ cancelled  (client `cancel` op)

``simulations`` / ``hits`` / ``coalesced`` partition a sweep job's
*distinct traffic keys* by how the server satisfied them: freshly
simulated by this job, answered from the warm result store, or attached
to another job's in-flight simulation (single-flight dedup).  A warm
resubmission is therefore ``simulations == 0`` by construction.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional

from .tracing import SpanContext


def workload_family(workloads: Iterable[str]) -> str:
    """Label value for per-family latency histograms: the shared first
    path segment of the job's workload names (``cg/fv1/N=16`` → ``cg``),
    ``multi`` for mixed-family jobs, ``-`` for none.  Families keep the
    label space bounded — full workload names are unbounded (every N is
    a new name) and would explode a histogram per point."""
    families = sorted({name.split("/", 1)[0] for name in workloads})
    if not families:
        return "-"
    return families[0] if len(families) == 1 else "multi"


class JobState(str, Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job can never leave.
FINAL_STATES = (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass
class Job:
    """One tracked submission; mutated only on the server's event loop
    (except ``cancel_event``, which is loop-safe by design)."""

    id: str
    kind: str                     # "sweep" | "points" | "tune"
    summary: str                  # short human description for listings
    client: str = "anon"          # tenant tag (fair scheduling, req logs)
    priority: str = "interactive"  # scheduling class: interactive | bulk
    state: JobState = JobState.PENDING
    total: int = 0                # points to stream (sweeps) / evals (tune)
    done: int = 0
    simulations: int = 0
    hits: int = 0
    coalesced: int = 0
    requeued: int = 0             # points re-hashed off a dead shard (gateway)
    family: str = "-"             # workload family label for latency metrics
    span: Optional[SpanContext] = None  # this node's span (traced requests)
    error: Optional[str] = None
    created: float = field(default_factory=time.monotonic)
    finished: Optional[float] = None
    cancel_event: asyncio.Event = field(default_factory=asyncio.Event,
                                        repr=False, compare=False)

    @property
    def cancelled(self) -> bool:
        return self.cancel_event.is_set()

    @property
    def finished_state(self) -> bool:
        return self.state in FINAL_STATES

    def elapsed_s(self) -> float:
        end = self.finished if self.finished is not None else time.monotonic()
        return end - self.created

    def finish(self, state: JobState, error: Optional[str] = None) -> None:
        self.state = state
        self.error = error
        self.finished = time.monotonic()

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe view for the ``jobs`` op and progress messages."""
        snap: Dict[str, object] = {
            "id": self.id,
            "kind": self.kind,
            "summary": self.summary,
            "client": self.client,
            "priority": self.priority,
            "state": self.state.value,
            "total": self.total,
            "done": self.done,
            "simulations": self.simulations,
            "hits": self.hits,
            "coalesced": self.coalesced,
            "requeued": self.requeued,
            "elapsed_s": round(self.elapsed_s(), 3),
            "error": self.error,
        }
        if self.span is not None:
            # Only traced jobs carry the field — untraced clients see
            # no trace_id key.
            snap["trace_id"] = self.span.trace_id
        return snap


class JobRegistry:
    """Insertion-ordered job table with bounded history.

    Finished jobs beyond ``keep`` are evicted oldest-first so a
    long-running daemon's table stays bounded; live jobs are never
    evicted.
    """

    def __init__(self, keep: int = 256) -> None:
        self.keep = max(1, keep)
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._ids = itertools.count(1)

    def create(self, kind: str, summary: str,
               client: str = "anon",
               priority: str = "interactive") -> Job:
        job = Job(id=f"j{next(self._ids)}", kind=kind, summary=summary,
                  client=client, priority=priority)
        self._jobs[job.id] = job
        self._trim()
        return job

    def get(self, job_id: object) -> Optional[Job]:
        if not isinstance(job_id, str):
            return None
        return self._jobs.get(job_id)

    def snapshots(self) -> List[Dict[str, object]]:
        return [job.snapshot() for job in self._jobs.values()]

    def counts_by_state(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self._jobs.values():
            counts[job.state.value] = counts.get(job.state.value, 0) + 1
        return counts

    def _trim(self) -> None:
        if len(self._jobs) <= self.keep:
            return
        for job_id, job in list(self._jobs.items()):
            if len(self._jobs) <= self.keep:
                break
            if job.finished_state:
                del self._jobs[job_id]

    def __len__(self) -> int:
        return len(self._jobs)
