"""Structured JSON request logging (``--log-json``).

One JSON line per served request, written as it finishes: who asked
(``client``), what (``op``), how much work it was (``points`` /
``sims`` / ``hits`` / ``coalesced``), how long it took (``duration_s``)
and how it ended (``outcome``: ``ok``, ``done``, ``failed``,
``cancelled`` or ``shed``, plus ``error`` when there is one).  Traced
requests (:mod:`repro.service.tracing`) additionally carry
``trace_id`` / ``span_id`` / ``parent_span``, so one ``grep trace_id``
across the fabric's logs reconstructs a request's hop tree.  The format
is grep/jq-friendly by construction — no multi-line records, no prose.

Two clock domains, deliberately explicit: ``ts`` is *wall-clock*
(``time.time()``) — for humans and for correlating records across
machines — while ``duration_s`` is derived from ``time.monotonic()``
deltas measured around the request.  Never compute a latency by
subtracting two records' ``ts`` values: wall clocks step under NTP and
the two numbers may straddle an adjustment.  ``duration_s`` is the
latency; ``ts`` is only when-roughly-did-this-happen.

Writes happen from the event loop *and* from CLI teardown paths, so a
lock guards the stream; each record is flushed immediately (the log is
an operational signal, not a buffer to lose in a crash).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import IO, Dict, Mapping, Optional


class RequestLog:
    """Append-only JSON-lines request log over one text stream."""

    def __init__(self, stream: IO[str]) -> None:
        self._stream = stream
        self._lock = threading.Lock()

    @classmethod
    def open(cls, path: str) -> "RequestLog":
        """``-`` logs to stderr; anything else appends to that file."""
        if path == "-":
            return cls(sys.stderr)
        return cls(open(path, "a", encoding="utf-8"))

    def log(self, op: str, *,
            client: Optional[str] = None,
            job: Optional[str] = None,
            points: Optional[int] = None,
            sims: Optional[int] = None,
            hits: Optional[int] = None,
            coalesced: Optional[int] = None,
            duration_s: Optional[float] = None,
            trace: Optional[Mapping[str, str]] = None,
            outcome: str = "ok",
            error: Optional[str] = None) -> None:
        record: Dict[str, object] = {
            # Wall clock, for cross-machine correlation only — latency
            # math belongs to duration_s (monotonic-derived).
            "ts": round(time.time(), 6),
            "client": client or "anon",
            "op": op,
        }
        if trace:
            record.update(trace)
        if job is not None:
            record["job"] = job
        for name, value in (("points", points), ("sims", sims),
                            ("hits", hits), ("coalesced", coalesced)):
            if value is not None:
                record[name] = int(value)
        if duration_s is not None:
            record["duration_s"] = round(float(duration_s), 6)
        record["outcome"] = outcome
        if error is not None:
            record["error"] = error
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self._lock:
            try:
                self._stream.write(line)
                self._stream.flush()
            except (OSError, ValueError):
                pass  # a dead log stream must never take the service down
