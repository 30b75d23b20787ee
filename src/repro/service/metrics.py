"""Live service counters: rate meters and latency histograms for the
``metrics`` op.

The service tier's throughput claims (sims/s, points/s, analytic
evals/s) are exported *from the serving loop* rather than reconstructed
from job tables after the fact.  A :class:`RateMeter` is the primitive:
an append-only event log pruned to a sliding window, so the reported
rate is "events over the last ``window_s`` seconds" — not a lifetime
average that flattens every burst.

Latency distributions ride on :class:`Histogram`, a log-bucketed
histogram with *fixed* bucket boundaries.  Fixed boundaries are the
load-bearing property: two histograms built from disjoint sample sets
(one per shard, say) merge by bucket-wise addition, and the merge is
associative and commutative — merging shard histograms is exactly
histogramming the pooled samples.  Quantiles are estimated by linear
interpolation inside the covering bucket, so the estimate error is
bounded by the bucket width (≤ the ~2.5x log spacing, relatively).

Meters are mutated only on the server's event loop (or under the
caller's own synchronisation), so they carry no locks.
:class:`HistogramFamily` *does* lock, because engine phase hooks
report from executor threads.  Clocks are injectable for deterministic
tests.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Mapping, Sequence, Tuple

#: Default sliding window for every exported rate.
DEFAULT_WINDOW_S = 60.0

#: Default latency bucket upper bounds in seconds: log-spaced 1-2.5-5
#: decades from 0.5 ms to 5 minutes.  Shared by every histogram in the
#: fabric so shard snapshots merge without resampling; an implicit
#: +Inf overflow bucket catches everything beyond the last bound.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 300.0,
)


class RateMeter:
    """Sliding-window event-rate meter.

    ``record(n)`` logs ``n`` events now; :meth:`rate` reports events per
    second over the trailing window.  A meter younger than its window
    divides by its uptime instead, so a daemon that simulated 4 points
    in its first 2 seconds reports 2/s, not 4/60.
    """

    def __init__(self, window_s: float = DEFAULT_WINDOW_S,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.window_s = max(1e-3, float(window_s))
        self._clock = clock
        self._events: Deque[Tuple[float, int]] = deque()
        self._t0 = clock()
        #: Lifetime event count (monotone; never pruned).
        self.total = 0

    def record(self, n: int = 1) -> None:
        if n <= 0:
            return
        self.total += n
        self._events.append((self._clock(), n))
        self._prune()

    def _prune(self) -> None:
        cutoff = self._clock() - self.window_s
        while self._events and self._events[0][0] < cutoff:
            self._events.popleft()

    def rate(self) -> float:
        """Events per second over ``min(window_s, uptime)``."""
        self._prune()
        elapsed = self._clock() - self._t0
        span = min(self.window_s, elapsed) if elapsed > 0 else self.window_s
        return sum(n for _, n in self._events) / span


class Histogram:
    """Log-bucketed histogram with fixed bounds and exact merging.

    ``observe(v)`` counts ``v`` into the first bucket whose upper bound
    is ``>= v`` (values beyond the last bound land in an implicit +Inf
    overflow bucket).  Because the bounds are fixed at construction and
    shared fabric-wide, :meth:`merge` is plain bucket-wise addition —
    associative, commutative, and identical to histogramming the pooled
    samples.  ``sum``/``count`` ride along so exporters can emit the
    Prometheus ``_sum``/``_count`` series and exact means.
    """

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds
        #: Per-bucket counts; the extra final slot is the +Inf overflow.
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place (same bounds)."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.sum += other.sum
        self.count += other.count
        return self

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``) by linear
        interpolation inside the covering bucket.  Overflow-bucket
        quantiles clamp to the last finite bound; an empty histogram
        reports 0."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cum = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cum + n >= rank:
                if i >= len(self.bounds):       # overflow bucket
                    return self.bounds[-1]
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                return lo + (hi - lo) * (rank - cum) / n
            cum += n
        return self.bounds[-1]

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe form carried by the ``metrics`` wire op."""
        return {"bounds": list(self.bounds),
                "counts": list(self.counts),
                "sum": round(self.sum, 9),
                "count": self.count}

    @classmethod
    def from_snapshot(cls, data: Mapping[str, object]) -> "Histogram":
        hist = cls(buckets=data["bounds"])  # type: ignore[arg-type]
        counts = [int(n) for n in data["counts"]]  # type: ignore[union-attr]
        if len(counts) != len(hist.counts):
            raise ValueError("snapshot counts do not match bucket bounds")
        hist.counts = counts
        hist.sum = float(data["sum"])  # type: ignore[arg-type]
        hist.count = int(data["count"])  # type: ignore[arg-type]
        return hist


class HistogramFamily:
    """A keyed set of same-bounds histograms, e.g. request latency per
    ``(op, workload family, priority)``.

    Series materialise on first observation.  A lock guards the map and
    the observations because engine phase hooks report from executor
    threads, not just the event loop; the wire form joins label values
    with ``|`` so the ``metrics`` op stays flat JSON.
    """

    SEP = "|"

    def __init__(self, label_names: Sequence[str],
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.label_names = tuple(label_names)
        self._buckets = tuple(float(b) for b in buckets)
        self._series: Dict[Tuple[str, ...], Histogram] = {}
        self._lock = threading.Lock()

    def observe(self, labels: Sequence[str], value: float) -> None:
        key = tuple(str(v) for v in labels)
        if len(key) != len(self.label_names):
            raise ValueError(f"expected {len(self.label_names)} labels, "
                             f"got {len(key)}")
        with self._lock:
            hist = self._series.get(key)
            if hist is None:
                hist = Histogram(self._buckets)
                self._series[key] = hist
            hist.observe(value)

    def items(self) -> List[Tuple[Tuple[str, ...], Histogram]]:
        with self._lock:
            return sorted(self._series.items())

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            series = {self.SEP.join(key): hist.snapshot()
                      for key, hist in sorted(self._series.items())}
        return {"labels": list(self.label_names), "series": series}

    @staticmethod
    def merged_by(snapshot: Mapping[str, object],
                  label: str) -> Dict[str, Histogram]:
        """Collapse a wire snapshot onto one label dimension — e.g.
        per-op aggregates for the p50/p90/p99 report lines."""
        labels: List[str] = list(snapshot.get("labels", ()))  # type: ignore[arg-type]
        idx = labels.index(label)
        merged: Dict[str, Histogram] = {}
        series: Mapping[str, Mapping[str, object]] = \
            snapshot.get("series", {})  # type: ignore[assignment]
        for key, data in series.items():
            name = key.split(HistogramFamily.SEP)[idx]
            hist = Histogram.from_snapshot(data)
            if name in merged:
                merged[name].merge(hist)
            else:
                merged[name] = hist
        return merged
