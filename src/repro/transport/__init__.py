"""repro.transport — the pluggable substrate under the ADAPTIVE stack.

One CORTEX-style contract (:class:`TransportBackend` / :class:`Endpoint`
with explicit ``ETIMEDOUT``/``ECONNRESET`` recv results), three
substrates:

==============  =======  ============================================
backend         clock    use when
==============  =======  ============================================
``SimBackend``  sim      default; deterministic experiments — bit-
                         identical to the pre-refactor wiring
``LoopbackBackend``  wall  fast in-process wall-clock tests, no sockets
``UdpBackend``  wall     real OS processes exchanging datagrams
==============  =======  ============================================

See ``docs/transports.md`` for the full table, wire-format spec, and
sim-vs-wall clock rules.

``UdpBackend`` is resolved at first attribute access (PEP 562): its module
imports ``asyncio``, which a simulated world never runs.
"""

from repro.transport.base import (
    ECONNRESET,
    ETIMEDOUT,
    Endpoint,
    RecvResult,
    TransportBackend,
)
from repro.transport.fabric import RealFabric, VirtualLink
from repro.transport.impair import ImpairedFabric, ImpairmentSpec
from repro.transport.liveness import LivenessConfig, PeerLiveness
from repro.transport.loopback import LoopbackBackend, loopback_pair
from repro.transport.realtime import DriverWatchdog, RealtimeDriver, drive
from repro.transport.sim import SimBackend

__all__ = [
    "ECONNRESET",
    "ETIMEDOUT",
    "Endpoint",
    "RecvResult",
    "TransportBackend",
    "RealFabric",
    "VirtualLink",
    "ImpairedFabric",
    "ImpairmentSpec",
    "LivenessConfig",
    "PeerLiveness",
    "LoopbackBackend",
    "loopback_pair",
    "DriverWatchdog",
    "RealtimeDriver",
    "drive",
    "SimBackend",
    "UdpBackend",
]


def __getattr__(name: str):
    if name == "UdpBackend":
        from repro.transport.udp import UdpBackend

        globals()[name] = UdpBackend
        return UdpBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
