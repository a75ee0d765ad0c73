"""Protocol event tracing — the prototyping-environment half of UNITES.

The abstract promises "a controlled prototyping environment for
monitoring, analyzing, and experimenting"; metrics aggregate, but protocol
debugging needs the *event stream*: which PDU was sent when, what was
retransmitted, when a segue happened, when delivery occurred.
``SessionTracer`` attaches to any live session's observer hook and records
a bounded ring of structured events with optional filtering; traces render
as a timeline for inspection or assertion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.tko.session import TKOSession

#: the event vocabulary sessions emit (see TKOSession._notify call sites)
EVENTS = (
    "connected",
    "pdu-sent",
    "pdu-received",
    "pdu-rejected",
    "retransmit",
    "deliver",
    "segue",
    "pause",
    "resume",
    "close",
    "abort",
)


@dataclass(frozen=True)
class TraceEvent:
    """One recorded protocol event."""

    time: float
    session: str              #: "<host>:<conn_id>"
    event: str
    details: dict = field(default_factory=dict)

    def render(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"{self.time:10.6f}  {self.session:<12}  {self.event:<13} {detail}"


class SessionTracer:
    """A bounded, filterable recorder attachable to many sessions."""

    def __init__(
        self,
        max_events: int = 10_000,
        events: Optional[Iterable[str]] = None,
    ) -> None:
        if max_events < 1:
            raise ValueError("trace buffer needs at least one slot")
        unknown = set(events or ()) - set(EVENTS)
        if unknown:
            raise ValueError(f"unknown trace events: {sorted(unknown)}")
        self._filter = set(events) if events is not None else None
        self._ring: Deque[TraceEvent] = deque(maxlen=max_events)
        self.dropped = 0
        self.counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def attach(self, session: "TKOSession") -> "SessionTracer":
        """Start recording this session's events (chainable)."""
        session.observers.append(self._observe)
        return self

    def detach(self, session: "TKOSession") -> None:
        try:
            session.observers.remove(self._observe)
        except ValueError:
            pass

    def _observe(self, event: str, session: "TKOSession", **details) -> None:
        if self._filter is not None and event not in self._filter:
            return
        self.counts[event] = self.counts.get(event, 0) + 1
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        # compact PDU references so the ring holds data, not live objects
        clean = {}
        for k, v in details.items():
            if k == "pdu":
                clean["type"] = v.ptype.value
                clean["seq"] = v.seq
            else:
                clean[k] = v
        self._ring.append(
            TraceEvent(
                time=session.now,
                session=f"{session.host.name}:{session.conn_id}",
                event=event,
                details=clean,
            )
        )

    # ------------------------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        return list(self._ring)

    def of_kind(self, event: str) -> List[TraceEvent]:
        return [e for e in self._ring if e.event == event]

    def between(self, t0: float, t1: float) -> List[TraceEvent]:
        return [e for e in self._ring if t0 <= e.time < t1]

    def render(self, last: Optional[int] = None) -> str:
        """The timeline as text (optionally only the last N events)."""
        events = self.events
        if last is not None:
            events = events[-last:]
        header = f"== trace: {len(self._ring)} events ({self.dropped} dropped) =="
        return "\n".join([header, *(e.render() for e in events)])

    def __len__(self) -> int:
        return len(self._ring)
