"""CPU work nothing waits for is charged, not scheduled.

Deferred trailer-checksum charges, the app-boundary copy, instantiation
and segue bookkeeping all occupy the host CPU without a follow-up: they go
through ``Cpu.charge`` (``submit`` minus the heap event).  Before, seven
sites pushed an event whose callback did nothing — and the rendered
closures already charged two of them, so the executors disagreed on
event counts.  The frozen numbers below were read on ``32cb7ef`` (the
parent of this change): CPU counters and the delivered bytes must not have
moved, and the event count must be the old one minus those seven — and,
since a hop became one kernel event, minus the two a link used to spend
per frame on instants nothing observes.
"""

import hashlib

import pytest

from repro.tko.config import SessionConfig
from tests.conftest import EXECUTORS, TwoHosts

#: ``TwoHosts(seed=5)``, default SCS (trailer checksum), one 2,500-byte
#: message = two fragments, then a graceful close — on ``32cb7ef``
PARENT = {
    "a_instructions": 66296.0, "b_instructions": 75254.0,
    "a_busy": 0.0026518399999999995, "b_busy": 0.0030101599999999996,
    "delivered_sha256": "41b3cbce4b8d6714",
    "events": 123,          # reference and compiled; generated read 121
    "noop_completions": 7,  # 1 instantiate x 2 hosts, 2 send + 2 recv
                            # trailer charges, 1 app-boundary copy
}

#: What the same transfer dispatches with one event per hop, derived:
#:   9 frames (5 A->B, 4 B->A) x 3 hops, one ``Link._land`` each      = 27
#:   frames that found the wire busy, one ``Link._drain`` each        =  3
#:   CPU completions: 9 transmit (``Network.send``), 9 NIC interrupt
#:     (``handle_frame``), 9 demux (``_dispatch``), 8 ``_process``    = 35
#:   timers that fire (every one armed is cancelled first)            =  0
#: The three-event link spent 3 x 27 = 81 on the same hops:
#: 81 + 35 = 116 = ``events`` - ``noop_completions``.
EVENTS = 27 + 3 + 35


@pytest.mark.parametrize("kind", EXECUTORS)
def test_two_fragment_trailer_transfer_dispatches_no_noop(kind, cpu_spy, executors):
    callbacks, charges = cpu_spy
    with executors(kind):
        w = TwoHosts(seed=5)
        sender = w.transfer(SessionConfig(), [b"\xa5" * 2500], until=5.0)
        sender.close()
        w.sim.run(until=10.0)

    assert "noop" not in callbacks
    assert len(charges) == PARENT["noop_completions"]
    assert sender.stats.pdus_sent == 5 and len(w.delivered) == 1
    assert w.ha.cpu.instructions_retired == PARENT["a_instructions"]
    assert w.hb.cpu.instructions_retired == PARENT["b_instructions"]
    assert w.ha.cpu.busy_time == PARENT["a_busy"]
    assert w.hb.cpu.busy_time == PARENT["b_busy"]
    digest = hashlib.sha256(bytes(w.delivered[0][0])).hexdigest()
    assert digest.startswith(PARENT["delivered_sha256"])
    # both executors agree, and on exactly the old count less the
    # completions that did nothing and the instants nothing observed
    assert PARENT["events"] - PARENT["noop_completions"] == 3 * 27 + 35
    assert w.sim.events_dispatched == EVENTS
