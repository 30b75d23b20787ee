"""Distributed tracing across the simulation fabric.

A trace follows one client request through every hop it causes:
client → gateway → shard partitions → requeued failover partitions.
The client mints a ``trace_id`` (16 hex chars) and a root ``span_id``
(8 hex chars); each receiving node mints its *own* span whose parent is
the span id it was handed, then forwards ``(trace_id, its span_id)``
downstream.  Every :class:`~repro.service.reqlog.RequestLog` record a
traced request produces carries ``trace_id`` / ``span_id`` /
``parent_span``, so one ``grep trace_id`` over the fabric's request
logs reconstructs the full hop tree — including the extra spans the
gateway mints when a dead shard's points are requeued onto survivors.

Both fields are optional on the wire and *omitted when unset*, like
``client``/``priority`` and ``fidelity``: an untraced submission carries
no trace fields at all.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from .protocol import ProtocolError

#: Wire sizes, in hex characters.  A trace id is 64 random bits — wide
#: enough that a fleet-wide log grep never collides; span ids are 32
#: bits, scoped to one trace.
TRACE_ID_HEX = 16
SPAN_ID_HEX = 8

#: Accepted wire form: lowercase hex, bounded length.  Lenient on
#: length (other tracing systems mint 32-char ids) but strict on the
#: alphabet so ids stay grep- and label-safe.
_ID_RE = re.compile(r"^[0-9a-f]{1,64}$")


def new_trace_id() -> str:
    return os.urandom(TRACE_ID_HEX // 2).hex()


def new_span_id() -> str:
    return os.urandom(SPAN_ID_HEX // 2).hex()


@dataclass(frozen=True)
class SpanContext:
    """One node's position in a trace: its span and who called it."""

    trace_id: str
    span_id: str
    parent_span: Optional[str] = None

    @classmethod
    def new_root(cls, trace_id: Optional[str] = None) -> "SpanContext":
        """Mint a fresh root span — the client end of a trace."""
        return cls(trace_id=trace_id or new_trace_id(),
                   span_id=new_span_id())

    def child(self) -> "SpanContext":
        """Mint a span one hop below this one (same trace).  An
        anonymous caller (empty ``span_id``) yields a parentless child —
        the receiver becomes the root of the recorded tree."""
        return SpanContext(trace_id=self.trace_id, span_id=new_span_id(),
                           parent_span=self.span_id or None)

    def log_fields(self) -> Dict[str, str]:
        """The request-log fields of this span (parent omitted at the
        root so untraced-field absence and root-ness stay distinct)."""
        fields = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_span is not None:
            fields["parent_span"] = self.parent_span
        return fields


def attach_trace(req: Dict[str, object],
                 ctx: Optional[SpanContext]) -> Dict[str, object]:
    """Tag a wire request with the sender's span.

    ``None`` attaches nothing — the request stays untraced.  The *sender's* span id travels; the
    receiver minting a child from it is what links the hops.
    """
    if ctx is not None:
        req["trace_id"] = ctx.trace_id
        req["span_id"] = ctx.span_id
    return req


def parse_trace_fields(req: Mapping[str, object]) -> Optional[SpanContext]:
    """Validate the optional trace fields of an incoming request.

    Returns the *caller's* span context (the receiver should mint its
    own span via :meth:`SpanContext.child`), or ``None`` for untraced
    requests.  A ``trace_id`` without a ``span_id`` is accepted — the
    caller is anonymous and the receiver's span becomes a recorded
    root — but malformed ids are protocol errors like any other bad
    field.
    """
    trace_id = req.get("trace_id")
    span_id = req.get("span_id")
    if trace_id is None and span_id is None:
        return None
    if trace_id is None:
        raise ProtocolError("'span_id' requires a 'trace_id'")
    for name, value in (("trace_id", trace_id), ("span_id", span_id)):
        if value is None:
            continue
        if not isinstance(value, str) or not _ID_RE.match(value):
            raise ProtocolError(
                f"{name!r} must be a lowercase hex string (1-64 chars)")
    return SpanContext(trace_id=trace_id, span_id=span_id or "")
