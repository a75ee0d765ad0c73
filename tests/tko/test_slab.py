"""SlabArena/SlabLease refcounting and the PDU-pool edges built on them.

The slab ownership discipline (docs/performance.md): ``store``/``alloc``
hand the caller one owning reference; zero-copy message ops retain on
share; the terminal points — ``materialize()``, ``PduPool.recycle``, the
codec's failure paths — release.  A quiesced endpoint must balance
(``leases_released == leases_issued``), same leak contract as the PDU
pool's ``recycled == acquired`` check.
"""

import pytest

from repro.tko.message import TKOMessage
from repro.tko.pdu import PDU, PDU_POOL, PduType
from repro.tko.slab import DEFAULT_SLAB_SIZE, SlabArena, SlabLease


class TestArenaBasics:
    def test_store_round_trips_bytes(self):
        arena = SlabArena()
        lease = arena.store(b"hello slab")
        assert bytes(lease.view) == b"hello slab"
        assert arena.leases_issued == 1
        assert arena.bytes_stored == 10
        assert lease.live

    def test_release_balances_and_is_idempotent(self):
        arena = SlabArena()
        lease = arena.store(b"x" * 64)
        lease.release()
        assert not lease.live
        assert arena.live_leases == 0
        lease.release()  # inert on a dead lease
        assert arena.leases_released == 1

    def test_retain_defers_release(self):
        arena = SlabArena()
        lease = arena.store(b"shared")
        lease.retain()
        lease.release()
        assert lease.live  # one claim still out
        lease.release()
        assert not lease.live
        assert arena.live_leases == 0

    def test_zero_byte_lease_is_born_released(self):
        arena = SlabArena()
        lease = arena.store(b"")
        assert not lease.live
        assert arena.leases_issued == arena.leases_released == 1
        lease.retain()   # no-ops: there is no slab to claim
        lease.release()
        assert arena.leases_released == 1

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            SlabArena().alloc(-1)


class TestSlabRecycling:
    def test_current_slab_rewinds_when_leases_die(self):
        arena = SlabArena(slab_size=256)
        a = arena.store(b"a" * 100)
        b = arena.store(b"b" * 100)
        a.release()
        b.release()
        # the still-current slab rewinds instead of sealing
        c = arena.store(b"c" * 200)
        assert bytes(c.view) == b"c" * 200
        assert arena.slabs_built == 1

    def test_sealed_slab_returns_to_free_list(self):
        arena = SlabArena(slab_size=128)
        first = arena.store(b"x" * 100)   # fills most of slab 1
        second = arena.store(b"y" * 100)  # seals slab 1, opens slab 2
        assert arena.slabs_built == 2
        first.release()                   # slab 1's last lease dies
        arena.store(b"z" * 120)           # seals slab 2 -> reuses slab 1
        assert arena.slabs_recycled == 1
        assert arena.slabs_built == 2
        second.release()

    def test_oversize_allocation_is_one_shot(self):
        arena = SlabArena(slab_size=64)
        lease = arena.store(b"q" * 200)
        assert bytes(lease.view) == b"q" * 200
        built = arena.slabs_built
        lease.release()
        arena.store(b"r" * 200).release()
        # oversize slabs are never pooled: each one is built fresh
        assert arena.slabs_built == built + 1
        assert arena.slabs_recycled == 0

    def test_free_list_is_bounded(self):
        arena = SlabArena(slab_size=64, max_free=1)
        leases = [arena.store(b"s" * 60) for _ in range(4)]
        for lease in leases:
            lease.release()
        assert len(arena._free) <= 1


class TestMessageLeasePropagation:
    def _slab_message(self, arena, payload):
        lease = arena.store(payload)
        msg = TKOMessage(lease.view)
        msg.attach_lease(lease)
        return msg, lease

    def test_clone_retains_and_both_release(self):
        arena = SlabArena()
        msg, lease = self._slab_message(arena, b"p" * 300)
        clone = msg.clone()
        assert lease.refs == 2
        msg.release_payload()
        assert lease.live  # the clone still claims the slab
        clone.release_payload()
        assert not lease.live
        assert arena.live_leases == 0

    def test_split_shares_one_lease_per_side(self):
        arena = SlabArena()
        msg, lease = self._slab_message(arena, b"s" * 100)
        left, right = msg.split(40)
        assert lease.refs == 3
        for part in (msg, left, right):
            part.release_payload()
        assert arena.live_leases == 0

    def test_materialize_is_a_terminal_point(self):
        arena = SlabArena()
        msg, lease = self._slab_message(arena, b"m" * 80)
        flat = msg.materialize()
        assert flat == b"m" * 80
        assert not lease.live
        # idempotent: a second materialize has no slab claim to drop
        assert msg.materialize() == b"m" * 80
        assert arena.live_leases == 0

    def test_pool_recycle_is_a_terminal_point(self):
        arena = SlabArena()
        msg, lease = self._slab_message(arena, b"r" * 128)
        pdu = PDU_POOL.acquire(PduType.DATA, 1)
        pdu.message = msg
        pdu.release()
        assert not lease.live
        assert arena.live_leases == 0


class TestPduPoolEdges:
    """Refcount edges the slab scheme leans on (Issue 9 satellite)."""

    def test_retransmit_clone_survives_original_recycle(self):
        # the retransmission queue's claim must outlive the wire's: the
        # clone retains the slab lease before the original shell recycles
        arena = SlabArena()
        lease = arena.store(b"d" * 256)
        msg = TKOMessage(lease.view)
        msg.attach_lease(lease)
        original = PDU_POOL.acquire(PduType.DATA, 7)
        original.message = msg
        clone = original.retransmit_clone()
        assert lease.refs == 2
        original.release()  # wire reference consumed -> shell recycled
        assert lease.live
        assert bytes(clone.message.segments_view()[0]) == b"d" * 256
        clone.message.release_payload()
        assert not lease.live

    def test_clone_for_retransmit_during_segue(self):
        """A mid-transfer mechanism swap must not unbalance the pool.

        Lossy path + reliable config => retransmit clones are in flight
        when ``segue`` swaps the detection mechanism; after the world
        quiesces and the sessions close, every acquired shell must have
        been recycled (delta-recycled == delta-acquired).
        """
        from repro.mechanisms.acknowledgment import SelectiveAck
        from repro.mechanisms.retransmission import SelectiveRepeat
        from repro.netsim.profiles import ethernet_10
        from repro.tko.config import SessionConfig
        from tests.conftest import TwoHosts

        acquired0 = PDU_POOL.acquired
        recycled0 = PDU_POOL.recycled

        # lossy enough to keep retransmit clones in flight at the segue
        profile = ethernet_10().scaled(ber=2e-5)
        w = TwoHosts(profile=profile, seed=3)
        cfg = SessionConfig()  # gbn + cumulative ACK, reliable by default
        w.listen(cfg)
        s = w.open(cfg)
        w.sim.run(until=0.05)
        t = 0.05
        for i in range(30):
            t += 0.01
            w.sim.run(until=t)
            s.send(b"\xa5" * 512)
            if i == 15:
                s.segue("recovery", SelectiveRepeat())
                s.segue("ack", SelectiveAck())
        w.sim.run(until=t + 3.0)
        assert s.stats.retransmissions > 0, "workload must exercise recovery"
        s.close()
        for rx in w.rx_sessions:
            rx.close()
        w.sim.run(until=t + 6.0)

        d_acquired = PDU_POOL.acquired - acquired0
        d_recycled = PDU_POOL.recycled - recycled0
        assert d_acquired > 0
        assert d_recycled == d_acquired, (
            f"pool leak: {d_acquired} shells acquired, "
            f"{d_recycled} recycled"
        )

    def test_pool_balances_after_impaired_transfer(self):
        from repro.transport.chaos import run_impaired_transfer

        res = run_impaired_transfer()
        assert res["digest_ok"]
        d_acquired, d_recycled = res["pool_delta"]
        assert d_acquired == d_recycled


class TestCodecFailureRelease:
    """No decode failure may leak a slab claim: every structural check
    runs before the allocation, and a failure after it releases."""

    #: Frame("A", "B"): envelope, then two one-byte names with their
    #: length bytes, then the fixed PDU header
    PDU_OFF = 20 + 4
    PFLAGS_OFF = PDU_OFF + 1
    PAYLOAD_LEN_OFF = PDU_OFF + 60
    TAIL_OFF = PDU_OFF + 72

    def _encode(self, payload=b"w" * 64, conn=3, **pdu_fields):
        from repro.netsim.frame import Frame, encode_frame

        pdu = PDU(PduType.DATA, conn, seq=1, message=TKOMessage(payload),
                  **pdu_fields)
        frame = Frame("A", "B", 512, payload=pdu)
        return encode_frame(frame)

    def _retail(self, body: bytes) -> bytes:
        """Append a fresh CRC trailer to a tampered CRC-less ``body``."""
        import struct
        import zlib

        return body + struct.pack("!I", zlib.crc32(body))

    def _refused(self, bad: bytes, match: str) -> None:
        from repro.netsim.frame import WireFormatError, decode_frame

        arena = SlabArena()
        with pytest.raises(WireFormatError, match=match):
            decode_frame(bad, arena=arena)
        assert arena.live_leases == 0

    def test_valid_datagram_stores_payload_in_arena(self):
        from repro.netsim.frame import decode_frame

        arena = SlabArena()
        frame = decode_frame(self._encode(), arena=arena)
        assert arena.live_leases == 1
        frame.payload.message.release_payload()
        assert arena.live_leases == 0

    def test_malformed_pdu_fields_release_the_lease(self):
        data = bytearray(self._encode()[:-4])
        # a type code outside the pinned table, re-trailed so the CRC
        # admits the datagram
        data[self.PDU_OFF] = 0xEE
        self._refused(self._retail(bytes(data)), "unknown PDU type code 238")

    def _options_not_an_object(self) -> bytes:
        body = self._encode(options={"k": 1})[:-4]
        assert body[self.TAIL_OFF + 4:self.TAIL_OFF + 11] == b'{"k":1}'
        return body.replace(b'{"k":1}', b'[1,2,3]')

    def _type_code_zero(self) -> bytes:
        data = bytearray(self._encode()[:-4])
        data[self.PDU_OFF] = 0
        return bytes(data)

    def _payload_without_message(self) -> bytes:
        data = bytearray(self._encode()[:-4])
        data[self.PFLAGS_OFF] &= ~0x01  # has_message clear, length still 64
        return bytes(data)

    def _sack_count_overrun(self) -> bytes:
        data = bytearray(self._encode(sack=(4, 6))[:-4])
        # claim more sack entries than the rest of the datagram holds
        data[self.TAIL_OFF:self.TAIL_OFF + 2] = (0xFFFF).to_bytes(2, "big")
        return bytes(data)

    def _placement_code_three(self) -> bytes:
        data = bytearray(self._encode()[:-4])
        data[self.PFLAGS_OFF] |= 0x30
        return bytes(data)

    def _undecodable_host_name(self) -> bytes:
        data = bytearray(self._encode()[:-4])
        data[21] = 0xFF  # the one byte of src: not UTF-8
        return bytes(data)

    @pytest.mark.parametrize("tamper, match", [
        ("_options_not_an_object", "not an object"),
        ("_type_code_zero", "unknown PDU type code 0"),
        ("_payload_without_message", "without a message"),
        ("_sack_count_overrun", "sack count overruns"),
        ("_placement_code_three", "placement"),
        ("_undecodable_host_name", "host name"),
    ])
    def test_crc_valid_but_malformed_tail_is_refused(self, tamper, match):
        """decode must not trust the shape of anything the CRC admits."""
        self._refused(self._retail(getattr(self, tamper)()), match)

    def test_trailing_garbage_releases_the_lease(self):
        self._refused(self._retail(self._encode()[:-4] + b"\x00"),
                      "trailing")

    def test_bad_frame_size_releases_the_lease(self):
        import struct

        from repro.netsim.frame import _FIXED

        data = bytearray(self._encode())
        # zero the semantic frame size, which Frame.__init__ would reject
        struct.pack_into("!I", data, _FIXED.size - 12, 0)
        self._refused(self._retail(bytes(data)[:-4]), "size")

    def test_failure_after_the_allocation_releases_the_lease(self, monkeypatch):
        from repro.netsim import frame as frame_mod

        data = self._encode()
        frame_mod.decode_frame(data)  # first use binds the tko classes

        def boom(*args, **kwargs):
            raise MemoryError("no room for a PDU")

        monkeypatch.setattr(frame_mod, "_PDU", boom)
        arena = SlabArena()
        with pytest.raises(MemoryError):
            frame_mod.decode_frame(data, arena=arena)
        assert arena.leases_issued == 1
        assert arena.live_leases == 0

    def test_damaged_datagram_never_allocates(self):
        from repro.netsim.frame import WireFormatError, decode_frame

        arena = SlabArena()
        data = bytearray(self._encode())
        data[len(data) // 2] ^= 0xFF  # CRC refuses before any allocation
        with pytest.raises(WireFormatError):
            decode_frame(bytes(data), arena=arena)
        assert arena.leases_issued == 0
