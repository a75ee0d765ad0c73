"""Background / cross traffic generators.

Experiments need controllable congestion: cross traffic that fills switch
queues on the path under test, raising queueing delay and eventually causing
drop-tail loss.  Three classical source models are provided:

* ``PoissonLoad`` — memoryless packet arrivals (aggregate "many users");
* ``OnOffLoad`` — bursty two-state source (the paper's variable-bit-rate
  video and bursty TELNET/OLTP rows in Table 1);
* ``BackgroundLoad`` (CBR) — constant-rate filler used to pin utilization
  to an exact level.

All loads send plain frames between two nodes of an existing network; the
frames need no attached host at the sink (the node counts and discards
them), so loads can be aimed across any path segment.  The Poisson and
ON/OFF sources draw exponentials from their ``load:<name>`` stream, which
hands the stream to numpy at its first draw (``repro.sim.rng``).
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.frame import Frame
from repro.netsim.network import Network
from repro.sim.process import Process


class _LoadBase:
    """Common start/stop machinery for traffic sources."""

    def __init__(self, network: Network, src: str, dst: str, size: int, name: str) -> None:
        if src not in network.nodes or dst not in network.nodes:
            raise KeyError("traffic endpoints must be existing nodes")
        self.network = network
        self.src = src
        self.dst = dst
        self.size = int(size)
        self.name = name
        self.sent = 0
        self._proc: Optional[Process] = None

    def start(self, delay: float = 0.0) -> None:
        """Begin generating; may be called once per load instance."""
        if self._proc is not None:
            raise RuntimeError(f"load {self.name} already started")
        self._proc = Process(
            self.network.sim, self._body, name=self.name, start_delay=delay
        )

    def stop(self) -> None:
        """Cease generating immediately."""
        if self._proc is not None:
            self._proc.kill()
            self._proc = None

    def _emit(self) -> None:
        frame = Frame(
            self.src,
            self.dst,
            self.size,
            payload=("bg", self.name, self.sent),
            created_at=self.network.sim.now,
        )
        self.network.send(frame)
        self.sent += 1

    def _body(self):  # pragma: no cover - overridden
        raise NotImplementedError
        yield  # noqa: unreachable - marks this as a generator


class BackgroundLoad(_LoadBase):
    """Constant-bit-rate filler: ``rate_bps`` split into ``size``-byte frames."""

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        rate_bps: float,
        size: int = 1000,
        name: str = "cbr",
    ) -> None:
        super().__init__(network, src, dst, size, name)
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.interval = size * 8.0 / rate_bps

    def _body(self):
        while True:
            self._emit()
            yield self.interval


class PoissonLoad(_LoadBase):
    """Poisson arrivals at ``rate_pps`` packets/second."""

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        rate_pps: float,
        size: int = 1000,
        name: str = "poisson",
    ) -> None:
        super().__init__(network, src, dst, size, name)
        if rate_pps <= 0:
            raise ValueError("rate must be positive")
        self.rate_pps = rate_pps
        self._rng = network.rng.stream(f"load:{name}")

    def _body(self):
        while True:
            yield float(self._rng.exponential(1.0 / self.rate_pps))
            self._emit()


class OnOffLoad(_LoadBase):
    """Two-state bursty source: exponential ON/OFF periods, CBR while ON."""

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        peak_bps: float,
        mean_on: float = 0.4,
        mean_off: float = 0.6,
        size: int = 1000,
        name: str = "onoff",
    ) -> None:
        super().__init__(network, src, dst, size, name)
        if peak_bps <= 0 or mean_on <= 0 or mean_off <= 0:
            raise ValueError("peak rate and state durations must be positive")
        self.interval = size * 8.0 / peak_bps
        self.mean_on = mean_on
        self.mean_off = mean_off
        self._rng = network.rng.stream(f"load:{name}")

    @property
    def mean_rate_bps(self) -> float:
        """Long-run average offered rate."""
        duty = self.mean_on / (self.mean_on + self.mean_off)
        return duty * self.size * 8.0 / self.interval

    def _body(self):
        while True:
            on_end = float(self._rng.exponential(self.mean_on))
            t = 0.0
            while t < on_end:
                self._emit()
                yield self.interval
                t += self.interval
            yield float(self._rng.exponential(self.mean_off))
