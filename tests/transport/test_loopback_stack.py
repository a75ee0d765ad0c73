"""Two full ADAPTIVE systems over the in-process loopback substrate.

MANTTS negotiates across the fabric pair, TKO transfers data through the
versioned wire codec, and the PDU pool balances when the world quiesces
(the ISSUE 7 satellite's leak assertion) — all in wall-clock time, no
sockets, no subprocesses.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.system import AdaptiveSystem
from repro.mantts.acd import ACD
from repro.netsim.frame import Frame
from repro.tko.message import TKOMessage
from repro.tko.pdu import PDU_POOL, PduType
from repro.transport import LoopbackBackend, loopback_pair

SERVICE_PORT = 7000
#: hard wall-clock caps so a wedged substrate fails fast, never hangs CI
CONNECT_CAP = 20.0
TRANSFER_CAP = 20.0


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for c in sorted(chunks):
        h.update(c)
    return h.hexdigest()


def test_two_systems_negotiate_transfer_and_balance_pool():
    pool0 = (PDU_POOL.acquired, PDU_POOL.recycled)
    ta, tb = loopback_pair(seed=5)
    sys_a = AdaptiveSystem(seed=1, transport=ta)
    sys_b = AdaptiveSystem(seed=2, transport=tb)
    a = sys_a.node("A", mips=400.0)
    b = sys_b.node("B", mips=400.0)

    got = []
    b.mantts.register_service(SERVICE_PORT, on_deliver=lambda d, m: got.append(d))

    outcome = {}
    conn = a.mantts.open(
        ACD(participants=("B",), service_port=SERVICE_PORT),
        on_connected=lambda c: outcome.setdefault("connected", True),
        on_failed=lambda reason: outcome.setdefault("failed", reason),
    )
    sys_a.run(until=ta.clock.now() + CONNECT_CAP, stop_when=lambda: bool(outcome))
    assert outcome.get("connected"), f"negotiation failed: {outcome!r}"

    payloads = [f"{i:02d}:".encode() + bytes(range(256)) * 4 for i in range(8)]
    for p in payloads:
        conn.send(p)
    sys_a.run(until=ta.clock.now() + TRANSFER_CAP,
              stop_when=lambda: len(got) == len(payloads))
    assert len(got) == len(payloads), f"only {len(got)}/{len(payloads)} delivered"
    assert _digest(got) == _digest(payloads)

    conn.close()
    sys_a.run(until=ta.clock.now() + 1.0)

    # frames genuinely crossed the codec fabric
    assert ta.network.frames_sent > 0
    assert tb.network.frames_delivered > 0
    # the quiesced world returned every pooled shell it took
    d_acquired = PDU_POOL.acquired - pool0[0]
    d_recycled = PDU_POOL.recycled - pool0[1]
    assert d_recycled == d_acquired, (
        f"PDU pool leak: {d_acquired} acquired, {d_recycled} recycled"
    )
    # ... and every receive-side slab claim died with its delivery
    for fabric in (ta.network, tb.network):
        assert fabric.arena.leases_issued > 0
        assert fabric.arena.live_leases == 0
    ta.close()
    tb.close()


def test_wire_ref_released_on_unroutable_destination():
    backend = LoopbackBackend()
    fabric = backend.network
    pdu = PDU_POOL.acquire(PduType.DATA, 1)
    pdu.message = TKOMessage(b"doomed payload")
    pdu.retain()  # the wire ref, as the executor takes before framing
    r0, e0 = PDU_POOL.recycled, fabric.send_errors
    fabric.send(Frame("A", "nowhere", size=64, payload=pdu))
    pdu.release()  # the creator ref
    assert fabric.send_errors == e0 + 1
    assert PDU_POOL.recycled == r0 + 1  # both refs gone -> shell recycled


def test_wire_ref_released_on_encode_failure():
    backend = LoopbackBackend()
    fabric = backend.network
    pdu = PDU_POOL.acquire(PduType.DATA, 1)
    pdu.options = {"callback": object()}  # not JSON-encodable
    pdu.retain()
    r0, e0 = PDU_POOL.recycled, fabric.send_errors
    fabric.send(Frame("A", "B", size=64, payload=pdu))
    pdu.release()
    assert fabric.send_errors == e0 + 1
    assert PDU_POOL.recycled == r0 + 1


@pytest.mark.parametrize("field, value", [
    ("seq", 2 ** 64),          # wider than its wire field
    ("src_port", 70_000),
    ("window", -1),
    ("frag_count", 1.5),
    ("timestamp", None),
    ("checksum_placement", "middle"),
])
def test_wire_ref_released_when_a_field_does_not_fit_the_wire(field, value):
    """Refused at encode and counted as a send error, never truncated."""
    backend = LoopbackBackend()
    fabric = backend.network
    pdu = PDU_POOL.acquire(PduType.DATA, 1)
    setattr(pdu, field, value)
    pdu.retain()
    r0, e0 = PDU_POOL.recycled, fabric.send_errors
    fabric.send(Frame("A", "B", size=64, payload=pdu))
    pdu.release()
    assert fabric.send_errors == e0 + 1
    assert fabric.frames_sent == 0
    assert PDU_POOL.recycled == r0 + 1
