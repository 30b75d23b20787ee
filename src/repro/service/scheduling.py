"""Fair scheduling and load shedding for the service batch queue.

The daemon used to feed its dispatcher from a single bounded FIFO, which
made backpressure global: one tenant submitting a 10k-point bulk sweep
filled the queue and every interactive client behind it waited out the
whole backlog.  :class:`FairQueue` replaces that FIFO with per-client
lanes drained round-robin:

* each client id owns one lane; the dispatcher takes one entry from a
  lane before rotating to the next, so a tenant's latency is bounded by
  the *number of tenants*, not by the depth of anyone else's backlog;
* within a lane, ``interactive`` entries are served before ``bulk``
  ones, so a tenant's own small probe is never stuck behind its own
  sweep;
* capacity is globally bounded (``max_pending``, the backpressure
  knob).  The server sheds at admission: a bulk submission arriving
  while the queue has no free slot is refused with a typed
  ``overloaded`` wire error (:meth:`FairQueue.overload_reason`,
  :meth:`FairQueue.retry_after_s`) instead of queueing.  Interactive
  work is never shed; it blocks on the bounded queue.

Shedding is tiered lowest-priority-first: tune searches (which occupy a
worker thread for their whole run) are refused once the queue passes
``TUNE_SHED_FRACTION`` of capacity; bulk sweeps are refused only when
no capacity is free at admission; interactive submissions always queue.

Everything here runs on the server's event loop; the waiting primitives
are futures (the same scheme ``asyncio.Queue`` uses), so the sync
``get_nowait`` needs no lock.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict, List, Optional

#: Wire-visible priority classes, highest first.
PRIORITIES = ("interactive", "bulk")

#: A submission with more points than this classifies as ``bulk`` when
#: the client did not say otherwise.
BULK_THRESHOLD = 64

#: Tune jobs are shed once the queue is this full (they are the lowest
#: tier: a whole search occupies a worker thread, not one queue slot).
TUNE_SHED_FRACTION = 0.5


def classify_priority(explicit: Optional[str], n_points: int) -> str:
    """The submission's scheduling class: the client's explicit choice
    when given, else by size against :data:`BULK_THRESHOLD`."""
    if explicit in PRIORITIES:
        return str(explicit)
    return "bulk" if n_points > BULK_THRESHOLD else "interactive"


class _Lane:
    """One client's pending entries, interactive ahead of bulk."""

    __slots__ = ("interactive", "bulk")

    def __init__(self) -> None:
        self.interactive: Deque[object] = deque()
        self.bulk: Deque[object] = deque()

    def __len__(self) -> int:
        return len(self.interactive) + len(self.bulk)

    def push(self, item: object, priority: str) -> None:
        (self.interactive if priority == "interactive"
         else self.bulk).append(item)

    def pop(self) -> object:
        return (self.interactive or self.bulk).popleft()


class FairQueue:
    """Bounded multi-tenant queue drained by round-robin.

    API mirrors the ``asyncio.Queue`` subset the dispatcher uses
    (``put``/``get``/``get_nowait``/``qsize``), with every put tagged by
    ``client`` and ``priority``.  ``get_nowait`` raises
    :class:`asyncio.QueueEmpty` so the dispatcher's drain loop is
    unchanged.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._lanes: Dict[str, _Lane] = {}
        self._order: Deque[str] = deque()   # clients with queued entries
        self._total = 0
        self._getters: List["asyncio.Future[None]"] = []
        self._putters: List["asyncio.Future[None]"] = []

    # -- introspection ---------------------------------------------------------

    def qsize(self) -> int:
        return self._total

    def client_depths(self) -> Dict[str, int]:
        """Queued entries per client (the metrics op's per-tenant view)."""
        return {c: len(lane) for c, lane in sorted(self._lanes.items())}

    def free_slots(self) -> int:
        """How many entries could be enqueued right now."""
        return self.maxsize - self._total

    def overload_reason(self) -> str:
        return (f"queue full ({self._total}/{self.maxsize} pending across "
                f"{len(self._order)} client(s))")

    def retry_after_s(self) -> float:
        """Backoff hint scaled to the backlog; small queues clear fast."""
        return round(min(30.0, max(0.1, 0.02 * self._total)), 3)

    # -- enqueue ---------------------------------------------------------------

    async def put(self, item: object, client: str = "anon",
                  priority: str = "interactive") -> None:
        """Enqueue, blocking while the queue is full (the backpressure
        path: interactive work and an admitted bulk job's own trickle)."""
        while self._total >= self.maxsize:
            fut = asyncio.get_running_loop().create_future()
            self._putters.append(fut)
            try:
                await fut
            finally:
                if fut in self._putters:
                    self._putters.remove(fut)
        lane = self._lanes.get(client)
        if lane is None:
            lane = self._lanes[client] = _Lane()
            self._order.append(client)
        lane.push(item, priority)
        self._total += 1
        self._wake(self._getters)

    # -- dequeue (round-robin) -------------------------------------------------

    def _pop_next(self) -> object:
        client = self._order.popleft()
        lane = self._lanes[client]
        item = lane.pop()
        self._total -= 1
        if len(lane):
            self._order.append(client)  # back of the rotation
        else:
            # Lane drained: drop the client from the rotation entirely
            # (an empty lane must not burn turns).
            del self._lanes[client]
        self._wake(self._putters)
        return item

    async def get(self) -> object:
        while self._total == 0:
            fut = asyncio.get_running_loop().create_future()
            self._getters.append(fut)
            try:
                await fut
            finally:
                if fut in self._getters:
                    self._getters.remove(fut)
        return self._pop_next()

    def get_nowait(self) -> object:
        if self._total == 0:
            raise asyncio.QueueEmpty
        return self._pop_next()

    @staticmethod
    def _wake(waiters: List["asyncio.Future[None]"]) -> None:
        # Wake everyone; each waiter re-checks its condition in a loop
        # (spurious wakeups are fine, lost wakeups are not).
        for fut in waiters:
            if not fut.done():
                fut.set_result(None)
