"""Unit tests for individual mechanisms outside a full session."""

import pytest

from repro.mechanisms.base import Mechanism
from repro.mechanisms.buffer_mgmt import FixedBuffers, VariableBuffers
from repro.mechanisms.delivery import MulticastDelivery
from repro.mechanisms.detection import Crc32, InternetChecksum, NoDetection
from repro.mechanisms.registry import MECHANISM_REGISTRY, build_mechanism
from repro.mechanisms.sequencing import Ordered, OrderedDedup, Unsequenced
from repro.tko.config import SessionConfig
from repro.tko.context import SLOTS
from repro.tko.message import TKOMessage
from repro.tko.pdu import PDU, PduType


class FakeStats:
    def __init__(self):
        self.corrupted_delivered = 0
        self.undetected_errors = 0
        self.checksum_rejections = 0


class FakeSession:
    """Just enough surface for mechanism unit tests."""

    def __init__(self):
        self.stats = FakeStats()
        import numpy as np

        self.rng = np.random.default_rng(0)


def data_pdu(payload=b"hello world"):
    return PDU(PduType.DATA, 1, message=TKOMessage(payload))


class TestDetection:
    def test_no_detection_accepts_corruption(self):
        d = NoDetection()
        s = FakeSession()
        d.bind(s)
        assert d.verify(data_pdu(), corrupted=True)
        assert s.stats.corrupted_delivered == 1

    def test_checksum_attaches_and_places(self):
        d = InternetChecksum(placement="trailer")
        d.bind(FakeSession())
        p = data_pdu()
        d.attach(p)
        assert p.checksum is not None
        assert p.checksum_placement == "trailer"
        assert d.overlaps_tx

    def test_header_placement_does_not_overlap(self):
        d = InternetChecksum(placement="header")
        assert not d.overlaps_tx

    def test_checksum_rejects_corrupted(self):
        d = InternetChecksum()
        s = FakeSession()
        d.bind(s)
        assert not d.verify(data_pdu(), corrupted=True)
        assert s.stats.checksum_rejections == 1

    def test_clean_pdu_accepted(self):
        d = Crc32()
        d.bind(FakeSession())
        assert d.verify(data_pdu(), corrupted=False)

    def test_crc_never_misses(self):
        d = Crc32()
        s = FakeSession()
        d.bind(s)
        for _ in range(500):
            assert not d.verify(data_pdu(), corrupted=True)
        assert s.stats.undetected_errors == 0

    def test_per_byte_cost_scales(self):
        spec = InternetChecksum().compile_stage()
        assert spec.send_per_byte > 0.0 and spec.recv_per_byte > 0.0

    def test_crc_costlier_than_checksum(self):
        crc, internet = Crc32().compile_stage(), InternetChecksum().compile_stage()
        assert crc.send_fixed >= internet.send_fixed
        assert crc.send_per_byte > internet.send_per_byte

    def test_bad_placement_rejected(self):
        with pytest.raises(ValueError):
            InternetChecksum(placement="middle")


class TestDeliveryUnits:
    def test_multicast_ack_aggregation(self):
        d = MulticastDelivery("g", ["B", "C", "D"])
        assert not d.ack_complete(5, "B")
        assert not d.ack_complete(5, "C")
        assert d.ack_complete(5, "D")

    def test_stale_member_ack_ignored(self):
        d = MulticastDelivery("g", ["B"])
        assert not d.ack_complete(1, "ghost")
        assert d.ack_complete(1, "B")

    def test_duplicate_acks_idempotent(self):
        d = MulticastDelivery("g", ["B", "C"])
        assert not d.ack_complete(2, "B")
        assert not d.ack_complete(2, "B")
        assert d.ack_complete(2, "C")

    def test_frame_dst_is_group(self):
        d = MulticastDelivery("conf", ["B"])
        assert d.frame_dst() == "conf"

    def test_pending_complete_after_departure(self):
        d = MulticastDelivery("g", ["B", "C"])
        d.ack_complete(3, "B")
        d._members = {"B"}  # C left
        assert d.pending_complete(3)

    def test_send_cost_grows_with_members(self):
        small = MulticastDelivery("g", ["B"])
        big = MulticastDelivery("g", ["B", "C", "D", "E"])
        assert big.compile_stage().send_fixed > small.compile_stage().send_fixed


class TestSequencingFlags:
    def test_flag_matrix(self):
        assert (Unsequenced.ordered, Unsequenced.dedup) == (False, False)
        assert (Ordered.ordered, Ordered.dedup) == (True, False)
        assert (OrderedDedup.ordered, OrderedDedup.dedup) == (True, True)


class TestRegistry:
    def test_every_slot_has_choices(self):
        for slot in SLOTS:
            assert MECHANISM_REGISTRY[slot]

    def test_build_for_default_config(self):
        cfg = SessionConfig()
        for slot in SLOTS:
            m = build_mechanism(slot, cfg)
            assert isinstance(m, Mechanism)
            assert m.category == slot

    def test_unknown_slot_rejected(self):
        with pytest.raises(KeyError):
            build_mechanism("quantum", SessionConfig())

    def test_registry_names_match_config_choices(self):
        from repro.tko.config import (
            ACK_CHOICES,
            CONNECTION_CHOICES,
            DETECTION_CHOICES,
            RECOVERY_CHOICES,
            SEQUENCING_CHOICES,
        )

        assert set(CONNECTION_CHOICES) == set(MECHANISM_REGISTRY["connection"])
        assert set(DETECTION_CHOICES) == set(MECHANISM_REGISTRY["detection"])
        assert set(ACK_CHOICES) == set(MECHANISM_REGISTRY["ack"])
        assert set(RECOVERY_CHOICES) == set(MECHANISM_REGISTRY["recovery"])
        assert set(SEQUENCING_CHOICES) == set(MECHANISM_REGISTRY["sequencing"])

    def test_buffer_mechanism_disciplines(self):
        assert FixedBuffers.discipline == "fixed"
        assert VariableBuffers.discipline == "variable"
