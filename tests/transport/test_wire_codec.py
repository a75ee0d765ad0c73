"""The versioned frame wire codec: round-trip fidelity and rejection."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.frame import (
    PDU_TYPE_CODES,
    PRIO_CONTROL,
    WIRE_MAGIC,
    WIRE_VERSION,
    Frame,
    WireFormatError,
    decode_frame,
    encode_frame,
    encode_frame_into,
)
from repro.tko.message import TKOMessage
from repro.tko.pdu import PDU, PduType
from repro.tko.slab import SlabArena

PDU_FIELDS = ("ptype", "conn_id", "src_port", "dst_port", "seq", "ack", "sack",
              "msg_id", "frag_index", "frag_count", "window", "timestamp",
              "options", "compact", "checksum", "checksum_placement",
              "aux_size")


def _data_frame() -> Frame:
    pdu = PDU(
        PduType.DATA,
        41,
        src_port=7001,
        dst_port=7000,
        seq=12,
        ack=9,
        sack=(3, 5, 7),
        msg_id=4,
        frag_index=1,
        frag_count=3,
        window=16,
        timestamp=1.25,
        options={"fec_group": 2, "piggy": {"rto": 0.25}},
        message=TKOMessage(b"\x00payload bytes\xff"),
        compact=True,
    )
    pdu.checksum = 0xDEAD
    pdu.checksum_placement = "trailer"
    pdu.aux_size = 8
    f = Frame("A", "B", size=1540, payload=pdu, priority=PRIO_CONTROL,
              created_at=2.5)
    f.hops = 3
    f.corrupted = True
    return f


def test_roundtrip_preserves_every_field():
    f = _data_frame()
    g = decode_frame(encode_frame(f))
    assert (g.src, g.dst, g.size, g.priority) == ("A", "B", 1540, PRIO_CONTROL)
    assert g.created_at == 2.5
    assert g.hops == 3
    assert g.corrupted is True
    p, q = f.payload, g.payload
    assert isinstance(q, PDU) and not q.pooled
    for field in PDU_FIELDS:
        assert getattr(q, field) == getattr(p, field), field
    assert q.ptype is PduType.DATA
    assert q.message.materialize() == b"\x00payload bytes\xff"


def test_roundtrip_payloadless_control_pdu():
    pdu = PDU(PduType.SYN_ACK, 7, options={"config": {"recovery": "gbn"}})
    f = Frame("init", "resp", size=64, payload=pdu, created_at=0.0)
    q = decode_frame(encode_frame(f)).payload
    assert q.ptype is PduType.SYN_ACK
    assert q.message is None
    assert q.options == {"config": {"recovery": "gbn"}}


def test_roundtrip_opaque_payload_dropped_but_frame_survives():
    # non-PDU payloads (test doubles) are not wire-encodable content;
    # the frame envelope still round-trips
    f = Frame("A", "B", size=100, payload=None)
    g = decode_frame(encode_frame(f))
    assert g.payload is None
    assert (g.src, g.dst, g.size) == ("A", "B", 100)


def test_semantic_size_is_preserved_not_recomputed():
    # receiver-side CPU charges and audit byte accounting key off
    # frame.size as the *sender's* cost model set it
    f = _data_frame()
    encoded = encode_frame(f)
    assert decode_frame(encoded).size == f.size
    assert len(encoded) != f.size


def test_multicast_frames_refused():
    pdu = PDU(PduType.DATA, 1, message=TKOMessage(b"x"))
    f = Frame("A", "G", size=10, payload=pdu, multicast_dsts=["B", "C"])
    with pytest.raises(WireFormatError, match="multicast"):
        encode_frame(f)


def test_unencodable_options_refused():
    pdu = PDU(PduType.DATA, 1, options={"cb": object()})
    f = Frame("A", "B", size=10, payload=pdu)
    with pytest.raises(WireFormatError, match="options"):
        encode_frame(f)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: b"XXXX" + d[4:],                     # bad magic
        lambda d: d[:4] + bytes([WIRE_VERSION + 1]) + d[5:],  # future version
        lambda d: d[: len(d) // 2],                    # truncated
        lambda d: d + b"\x00",                         # trailing garbage
        lambda d: b"",                                 # empty
    ],
)
def test_malformed_datagrams_raise(mutate):
    data = encode_frame(_data_frame())
    assert data[:4] == WIRE_MAGIC
    with pytest.raises(WireFormatError):
        decode_frame(mutate(data))


# ----------------------------------------------------------------------
# the format is pinned: golden bytes, the type-code table, the version
# ----------------------------------------------------------------------
GOLDEN_DATA = bytes.fromhex(
    "414450540301020200000048400400000000000005616c70686105627261766f"
    "012b1b591b5800000000000000000029000000000000000c0000000000000000"
    "00000000000000040000000100000003000000000000beef0000000000000008"
    "3ff40000000000007061796c6f616421da2ccaa7"
)
GOLDEN_ACK = bytes.fromhex(
    "41445054030100000000002c400800000000000005627261766f05616c706861"
    "02441b581b59000000000000000000290000000000000000000000000000000d"
    "0000000000000000000000000000000100000010000000000000000000000000"
    "40060000000000000002000000000000000f0000000000000011a56c4fed"
)

#: a datagram the version-2 codec (JSON PDU header) produced
V2_DATAGRAM = (
    b'ADPT\x02\x01\x02\x00\x00\x00\x00@\x00\x00\x00\x00\x00\x00\x00\x00'
    b'\x01A\x01B\x00\x00\x00\x93{"t":"data","c":41,"sp":0,"dp":0,"q":12,'
    b'"a":null,"k":null,"m":0,"fi":0,"fc":1,"w":0,"ts":0.0,"o":{},"cp":true,'
    b'"ck":null,"kp":null,"ax":0,"hm":true}\x00\x00\x00\x02v2\xe4\x8b\xa8\xf4'
)


def _golden_data_frame() -> Frame:
    pdu = PDU(PduType.DATA, 41, src_port=7001, dst_port=7000, seq=12,
              msg_id=4, frag_index=1, frag_count=3, timestamp=1.25,
              message=TKOMessage(b"payload!"))
    pdu.checksum = 0xBEEF
    pdu.checksum_placement = "trailer"
    f = Frame("alpha", "bravo", size=72, payload=pdu, created_at=2.5)
    f.hops = 2
    return f


def _golden_ack_frame() -> Frame:
    ack = PDU(PduType.ACK, 41, src_port=7000, dst_port=7001, ack=13,
              sack=(15, 17), window=16, timestamp=2.75, compact=False)
    return Frame("bravo", "alpha", size=44, payload=ack,
                 priority=PRIO_CONTROL, created_at=3.0)


@pytest.mark.parametrize("build, golden", [
    (_golden_data_frame, GOLDEN_DATA),
    (_golden_ack_frame, GOLDEN_ACK),
], ids=["data", "ack"])
def test_golden_bytes(build, golden):
    """An accidental layout change must fail loudly, both directions."""
    original = build()
    assert encode_frame(original).hex() == golden.hex()
    decoded = decode_frame(golden)
    assert (decoded.src, decoded.dst, decoded.size, decoded.hops) == (
        original.src, original.dst, original.size, original.hops)
    for field in PDU_FIELDS:
        assert getattr(decoded.payload, field) == getattr(original.payload, field)


def test_type_codes_are_pinned():
    # codes are wire format: appending a type is fine, renumbering is not
    assert PDU_TYPE_CODES == {
        "data": 1, "ack": 2, "nack": 3, "parity": 4, "syn": 5, "syn-ack": 6,
        "confirm": 7, "fin": 8, "fin-ack": 9, "config": 10, "config-ack": 11,
        "probe": 12, "probe-reply": 13,
    }
    assert {t.value for t in PduType} == set(PDU_TYPE_CODES)
    assert WIRE_VERSION == 3


def test_version_2_datagram_is_refused():
    with pytest.raises(WireFormatError, match="unsupported wire version 2"):
        decode_frame(V2_DATAGRAM)


def test_empty_options_never_touch_json(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("json used on a frame with empty options")

    monkeypatch.setattr(json, "dumps", forbidden)
    monkeypatch.setattr(json, "loads", forbidden)
    for build in (_golden_data_frame, _golden_ack_frame):
        original = build()
        decoded = decode_frame(encode_frame(original), arena=SlabArena())
        assert decoded.payload.seq == original.payload.seq
        assert decoded.payload.options == {}


@pytest.mark.parametrize("field, value", [
    ("seq", 2 ** 64),
    ("ack", -1),
    ("dst_port", 65_536),
    ("frag_index", 2 ** 32),
    ("checksum", 2 ** 32),
    ("window", 3.5),
    ("timestamp", "now"),
    ("sack", (1, 2 ** 64)),
    ("checksum_placement", "middle"),
    ("ptype", "data"),
])
def test_field_that_does_not_fit_is_refused_not_truncated(field, value):
    f = _golden_data_frame()
    setattr(f.payload, field, value)
    with pytest.raises(WireFormatError):
        encode_frame(f)


def test_envelope_field_that_does_not_fit_is_refused():
    f = _golden_data_frame()
    f.priority = 256
    with pytest.raises(WireFormatError):
        encode_frame(f)
    with pytest.raises(WireFormatError, match="host names"):
        encode_frame(Frame("h" * 256, "B", size=10))


def test_staging_buffer_is_reused_and_grown():
    buf = bytearray()
    big = _data_frame()
    first = bytes(encode_frame_into(big, buf))
    grown = len(buf)
    assert grown >= len(first)
    small = bytes(encode_frame_into(_golden_ack_frame(), buf))
    assert len(buf) == grown  # never shrunk
    assert small == GOLDEN_ACK  # stale bytes past the datagram never leak in


# ----------------------------------------------------------------------
# round-trip property over every PDU field
# ----------------------------------------------------------------------
_u16 = st.integers(0, 2 ** 16 - 1)
_u32 = st.integers(0, 2 ** 32 - 1)
_u64 = st.integers(0, 2 ** 64 - 1)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)
_names = st.text(max_size=24)


def _message(chunks, arena):
    """A message over ``chunks``: plain, or multi-segment slab-backed."""
    if arena is None:
        message = TKOMessage(b"")
        for chunk in chunks:
            message.concat(TKOMessage(chunk))
        return message
    message = TKOMessage(())
    for chunk in chunks:
        lease = arena.store(chunk)
        part = TKOMessage(lease.view)
        part.attach_lease(lease)
        message.concat(part)
        part.release_payload()
    return message


@settings(max_examples=200, deadline=None)
@given(
    ptype=st.sampled_from(list(PduType)),
    ints=st.tuples(_u64, _u16, _u16, _u64, _u64, _u32, _u32, _u32, _u32),
    ack=st.none() | _u64,
    checksum=st.none() | _u32,
    placement=st.sampled_from([None, "header", "trailer"]),
    sack=st.none() | st.lists(_u64, max_size=6).map(tuple),
    timestamp=st.floats(allow_nan=False),
    options=st.dictionaries(st.text(), _json, max_size=4),
    compact=st.booleans(),
    chunks=st.none() | st.lists(st.binary(max_size=300), max_size=3),
    slab_backed=st.booleans(),
    decode_into_arena=st.booleans(),
    src=_names, dst=_names,
    envelope=st.tuples(st.integers(1, 2 ** 32 - 1), st.integers(0, 255),
                       st.integers(0, 255), st.booleans(),
                       st.floats(allow_nan=False)),
)
def test_roundtrip_property(ptype, ints, ack, checksum, placement, sack,
                            timestamp, options, compact, chunks, slab_backed,
                            decode_into_arena, src, dst, envelope):
    conn_id, sp, dp, seq, msg_id, fi, fc, window, aux = ints
    send_arena = SlabArena(slab_size=256) if slab_backed else None
    message = None if chunks is None else _message(chunks, send_arena)
    pdu = PDU(ptype, conn_id, src_port=sp, dst_port=dp, seq=seq, ack=ack,
              sack=sack, msg_id=msg_id, frag_index=fi, frag_count=fc,
              window=window, timestamp=timestamp, options=options,
              message=message, compact=compact)
    pdu.checksum, pdu.checksum_placement, pdu.aux_size = checksum, placement, aux
    size, priority, hops, corrupted, created_at = envelope
    f = Frame(src, dst, size, payload=pdu, priority=priority,
              created_at=created_at)
    f.hops, f.corrupted = hops, corrupted

    recv_arena = SlabArena() if decode_into_arena else None
    g = decode_frame(encode_frame(f), arena=recv_arena)

    assert (g.src, g.dst, g.size, g.priority, g.hops, g.corrupted,
            g.created_at, g.heartbeat) == (
        src, dst, size, priority, hops, corrupted, created_at, False)
    q = g.payload
    assert not q.pooled
    for field in PDU_FIELDS:
        want = getattr(pdu, field)
        if field == "sack":
            want = want or None  # an empty sack rides as "no sack"
        assert getattr(q, field) == want, field
    if chunks is None:
        assert q.message is None
    else:
        assert q.message.materialize() == b"".join(chunks)
    if recv_arena is not None:
        assert recv_arena.live_leases == 0  # materialize was terminal
    if message is not None:
        message.release_payload()
    if send_arena is not None:
        assert send_arena.live_leases == 0
