"""Workload base machinery and the receive-side quality tracker.

numpy is imported where a source builds its default generator or a
tracker computes a statistic, not with the module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.sim.kernel import Simulator
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class AppSource:
    """Base traffic source driving one sender object.

    Subclasses implement :meth:`_body` as a generator yielding inter-send
    delays.  ``messages_sent`` / ``bytes_sent`` are maintained by
    :meth:`emit`.  Senders that are not yet established raise; sources
    tolerate that by buffering nothing — workloads are started once the
    connection callback fires (or immediately for implicit setups).
    """

    def __init__(self, sim: Simulator, sender: Any, name: str, rng: Optional[np.random.Generator] = None) -> None:
        self.sim = sim
        self.sender = sender
        self.name = name
        if rng is None:
            import numpy as np

            rng = np.random.default_rng(0)
        self.rng = rng
        self.messages_sent = 0
        self.bytes_sent = 0
        self.send_errors = 0
        self._proc: Optional[Process] = None

    def start(self, delay: float = 0.0) -> None:
        if self._proc is not None:
            raise RuntimeError(f"source {self.name} already started")
        self._proc = Process(self.sim, self._body, name=self.name, start_delay=delay)

    def stop(self) -> None:
        if self._proc is not None:
            self._proc.kill()
            self._proc = None

    def emit(self, payload: bytes) -> None:
        try:
            self.sender.send(payload)
        except RuntimeError:
            self.send_errors += 1
            return
        self.messages_sent += 1
        self.bytes_sent += len(payload)

    def _body(self):  # pragma: no cover - overridden
        raise NotImplementedError
        yield


class DeliveryTracker:
    """Receive-side quality accounting shared by the experiments.

    Plug its :meth:`on_deliver` in as the delivery callback; it tracks
    count, bytes, latency distribution, and deadline violations — the
    application-perceived QoS that Stage II configurations are judged by.
    """

    def __init__(self, deadline: Optional[float] = None) -> None:
        self.deadline = deadline
        self.count = 0
        self.bytes = 0
        self.latencies: List[float] = []
        self.deadline_misses = 0
        self.first_at: Optional[float] = None
        self.last_at: Optional[float] = None
        self._now_fn: Optional[Callable[[], float]] = None

    def bind_clock(self, sim: Simulator) -> "DeliveryTracker":
        self._now_fn = lambda: sim.now
        return self

    def on_deliver(self, data: bytes, meta: Dict) -> None:
        self.count += 1
        self.bytes += len(data)
        lat = meta.get("latency", 0.0)
        self.latencies.append(lat)
        if self.deadline is not None and lat > self.deadline:
            self.deadline_misses += 1
        if self._now_fn is not None:
            now = self._now_fn()
            if self.first_at is None:
                self.first_at = now
            self.last_at = now

    # ------------------------------------------------------------------
    @property
    def mean_latency(self) -> float:
        import numpy as np

        return float(np.mean(self.latencies)) if self.latencies else 0.0

    @property
    def p95_latency(self) -> float:
        import numpy as np

        return float(np.percentile(self.latencies, 95)) if self.latencies else 0.0

    @property
    def jitter(self) -> float:
        import numpy as np

        return float(np.std(self.latencies)) if len(self.latencies) > 1 else 0.0

    def goodput_bps(self) -> float:
        if self.first_at is None or self.last_at is None or self.last_at <= self.first_at:
            return 0.0
        return self.bytes * 8.0 / (self.last_at - self.first_at)

    def deadline_miss_rate(self) -> float:
        return self.deadline_misses / self.count if self.count else 0.0


def make_source(kind: str, sim: Simulator, sender: Any, rng=None, **kw) -> AppSource:
    """Factory over the Table 1 application kinds."""
    from repro.apps.bulk import BulkSource
    from repro.apps.control import ControlLoopSource
    from repro.apps.rpc import RequestResponseClient
    from repro.apps.telnet import TelnetSource
    from repro.apps.video import CbrVideoSource, VbrVideoSource
    from repro.apps.voice import VoiceSource

    table = {
        "voice": VoiceSource,
        "video-cbr": CbrVideoSource,
        "video-vbr": VbrVideoSource,
        "bulk": BulkSource,
        "telnet": TelnetSource,
        "rpc": RequestResponseClient,
        "control": ControlLoopSource,
    }
    cls = table.get(kind)
    if cls is None:
        raise KeyError(f"unknown workload kind {kind!r}; choose from {sorted(table)}")
    return cls(sim, sender, rng=rng, **kw)
