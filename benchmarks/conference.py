"""The teleconference world both dispatch gates time sends in.

``test_pipeline_dispatch`` and ``test_bytes_plane`` measure wall time per
send on the §2.1(B) teleconference configuration — derived through the
real Stage I/II transform, 512-byte messages at a 50 Hz conference tick —
between two hosts on a 10 Mb/s Ethernet path, and hold every route to
one simulated identity.  The world and the identity live here, once; each
gate keeps its own timing scheme.
"""

from repro.host.nic import Host
from repro.mantts.acd import ACD
from repro.mantts.monitor import NetworkState
from repro.mantts.transform import specify_scs
from repro.mantts.tsc import APP_PROFILES
from repro.netsim.profiles import ethernet_10, linear_path
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.tko.protocol import TKOProtocol

MESSAGES = 400
SEND_INTERVAL = 0.02            #: 50 messages/s conference tick
MESSAGE = b"\xa5" * 512
#: simulated instant the sender is connected by, and the first tick's base
START = 0.05


def teleconference_config():
    """Derive the teleconference SCS through the real Stage I/II path."""
    profile = APP_PROFILES["tele-conferencing"]
    acd = ACD(
        participants=("B",),
        quantitative=profile.quantitative(),
        qualitative=profile.qualitative(),
    )
    lan = NetworkState("A", "B", True, 0.004, 0.004, 10e6, 1500, 1e-6, 0.0, 0.0, 3)
    return specify_scs(acd, lan).config


class ConferenceWorld:
    """One conference world, its sender connected and ready to send."""

    def __init__(self, cfg):
        self.sim = sim = Simulator()
        rng = RngStreams(5)
        net = linear_path(sim, ethernet_10(), ("A", "B"), n_switches=2, rng=rng)
        self.ha = Host(sim, net, "A", mips=25.0)
        self.hb = Host(sim, net, "B", mips=25.0)
        pa = TKOProtocol(self.ha)
        pb = TKOProtocol(self.hb)
        self.delivered = delivered = []

        def on_session(s):
            s.on_deliver = lambda data, meta: delivered.append(len(data))

        pb.listen(7000, lambda pdu, frame: cfg, on_session)
        self.sender = pa.create_session(cfg, "B", 7000)
        self.sender.connect()
        sim.run(until=START)

    def identity(self):
        """What every route must simulate bit-identically."""
        return (
            len(self.delivered),
            sum(self.delivered),
            self.sim.now,
            self.sender.stats.pdus_sent,
            self.sender.stats.retransmissions,
            self.ha.cpu.instructions_retired,
            self.hb.cpu.instructions_retired,
        )
