"""SimBackend bit-identity: the acceptance-criterion equivalence test.

The churn scenario's identity fields (delivery digest above all) must be
byte-for-byte identical whether frames take the pre-refactor call path
(``Host.transmit`` straight into ``Network.send``) or cross the transport
backend interface (``SimBackend(route_frames=True)``'s counting proxy).
"""

from __future__ import annotations

from repro.core.churn import identity_fields, run_churn
from repro.core.system import AdaptiveSystem
from repro.netsim.profiles import ethernet_10, linear_path
from repro.transport import SimBackend


def test_churn_digest_identical_through_backend_interface():
    baseline = identity_fields(run_churn(25, seed=7))
    backend = SimBackend(route_frames=True)
    routed = identity_fields(run_churn(25, seed=7, transport=backend))
    assert routed == baseline
    # and the interface demonstrably carried the traffic
    assert backend.frames_routed > 0


def test_default_system_uses_sim_backend_with_raw_network():
    system = AdaptiveSystem(seed=3)
    assert isinstance(system.transport, SimBackend)
    assert system.sim is system.transport.simulator
    assert system.clock.domain == "sim"
    net = linear_path(system.sim, ethernet_10(), ("A", "B"), rng=system.rng)
    # default adopt is the identity: the very same Network object, so the
    # pre-refactor wiring is preserved object-for-object
    assert system.attach_network(net) is net
    assert system.network is net


def test_sim_clock_reads_simulator_time():
    system = AdaptiveSystem(seed=0)
    assert system.clock.now() == system.sim.now == 0.0
    system.sim.schedule(1.5, lambda: None)
    system.run(until=2.0)
    assert system.clock.now() == system.sim.now == 2.0
    assert system.clock.timestamp_ns() == int(2.0e9)
