"""Seeded wire-codec fuzz (ISSUE 8 satellite).

The wire codec carries a trailing CRC32 precisely so that a hostile path
flipping bytes can never silently re-frame a datagram.  The contract
under fuzz: for *any* mutation of a valid datagram, ``decode_frame``
either raises :class:`WireFormatError` or returns a frame whose
``(src, dst)`` — and PDU ``conn_id`` — match the original: a mis-decode
into a different conversation must be impossible.
"""

from __future__ import annotations

import random

import pytest

from repro.netsim.frame import (
    Frame,
    WireFormatError,
    decode_frame,
    encode_frame,
)
from repro.tko.message import TKOMessage
from repro.tko.pdu import PDU, PduType

_SEED = 0xADAB
_TRIALS = 400


def _frame(i: int = 0) -> Frame:
    pdu = PDU(
        PduType.DATA,
        42,
        src_port=7,
        dst_port=9,
        seq=i,
        ack=3,
        msg_id=1000 + i,
        window=8,
        timestamp=1.5,
        options={"config": {"recovery": "gbn"}},
        message=TKOMessage(bytes(range(256)) * 2),
    )
    f = Frame("alpha", "bravo", 1500, payload=pdu, created_at=2.25)
    return f


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """One adversarial edit: byte flips, truncation, garbage extension,
    or a random splice.  Guaranteed to differ from ``data``."""
    op = rng.randrange(4)
    out = bytearray(data)
    if op == 0:  # flip 1-4 bytes
        for _ in range(rng.randrange(1, 5)):
            pos = rng.randrange(len(out))
            out[pos] ^= rng.randrange(1, 256)
        return bytes(out)
    if op == 1:  # truncate
        return bytes(out[: rng.randrange(len(out))])
    if op == 2:  # extend with garbage
        return bytes(out) + bytes(
            rng.randrange(256) for _ in range(rng.randrange(1, 9)))
    # splice a random run
    start = rng.randrange(len(out))
    run = rng.randrange(1, 17)
    repl = bytes(rng.randrange(256) for _ in range(run))
    spliced = bytes(out[:start]) + repl + bytes(out[start + run:])
    return spliced if spliced != data else spliced + b"\x00"


def test_mutations_never_misdecode_src_dst():
    rng = random.Random(_SEED)
    refused = 0
    for i in range(_TRIALS):
        original = _frame(i)
        data = encode_frame(original)
        damaged = _mutate(data, rng)
        assert damaged != data
        try:
            decoded = decode_frame(damaged)
        except WireFormatError:
            refused += 1
            continue
        # astronomically unlikely (a CRC32 collision) — but if the codec
        # accepts, it must not have re-framed the conversation
        assert (decoded.src, decoded.dst) == (original.src, original.dst)
    # the CRC must be doing real work: essentially every edit is refused
    assert refused >= _TRIALS - 1


def test_every_truncation_prefix_is_refused():
    data = encode_frame(_frame())
    for n in range(len(data)):
        with pytest.raises(WireFormatError):
            decode_frame(data[:n])


def _frames():
    """One frame per wire shape: plain DATA, DATA with both tails, a
    payloadless ACK with a sack tail, a bare heartbeat envelope."""
    both_tails = _frame(1)
    both_tails.payload.sack = (5, 9)
    plain = _frame(2)
    plain.payload.options = {}
    ack = PDU(PduType.ACK, 42, src_port=9, dst_port=7, ack=4, sack=(6, 8),
              window=8)
    beacon = Frame("alpha", "bravo", 64, created_at=1.0)
    beacon.heartbeat = True
    return [plain, both_tails,
            Frame("bravo", "alpha", 44, payload=ack, created_at=2.5), beacon]


def _conversation(frame: Frame):
    pdu = frame.payload
    return (frame.src, frame.dst, pdu.conn_id if pdu is not None else None)


@pytest.mark.parametrize("index", range(4))
def test_truncation_and_byte_flips_at_every_offset(index):
    """Exhaustive, not sampled: cut the datagram at every length and
    damage every single byte three ways, with and without an arena."""
    from repro.tko.slab import SlabArena

    original = _frames()[index]
    data = encode_frame(original)
    arena = SlabArena()
    for use_arena in (None, arena):
        for n in range(len(data)):
            with pytest.raises(WireFormatError):
                decode_frame(data[:n], arena=use_arena)
        for pos in range(len(data)):
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(data)
                damaged[pos] ^= mask
                try:
                    decoded = decode_frame(bytes(damaged), arena=use_arena)
                except WireFormatError:
                    continue
                # CRC32 catches every single-byte error, so this is
                # unreachable — but acceptance must never re-frame
                assert _conversation(decoded) == _conversation(original)
    assert arena.leases_issued == 0  # damage is refused before allocation


def test_truncated_then_resealed_datagrams_never_misdecode():
    """The CRC is not the only guard: cut the body at every offset and
    append a *valid* trailer, so only the length checks stand between a
    short datagram and the parser."""
    import struct
    import zlib

    from repro.tko.slab import SlabArena

    arena = SlabArena()
    for original in _frames():
        body = encode_frame(original)[:-4]
        for n in range(len(body)):
            cut = body[:n]
            resealed = cut + struct.pack("!I", zlib.crc32(cut))
            try:
                decoded = decode_frame(resealed, arena=arena)
            except WireFormatError:
                continue
            pytest.fail(f"{n}-byte prefix decoded as {decoded!r}")
    assert arena.live_leases == 0


def test_single_byte_flip_reads_as_checksum_damage():
    data = bytearray(encode_frame(_frame()))
    # flip a byte inside the src-name region (past the fixed header) —
    # pre-CRC this was exactly the silent-reframe hazard
    data[len(data) // 2] ^= 0x40
    with pytest.raises(WireFormatError):
        decode_frame(bytes(data))


def test_valid_frame_roundtrips_unharmed():
    f = _frame(3)
    q = decode_frame(encode_frame(f))
    assert (q.src, q.dst, q.size) == (f.src, f.dst, f.size)
    assert q.created_at == f.created_at
    assert q.payload.seq == f.payload.seq
    assert q.payload.message.materialize() == f.payload.message.materialize()
    assert not q.heartbeat


def test_heartbeat_flag_roundtrips():
    f = Frame("alpha", "bravo", 64, created_at=1.0)
    f.heartbeat = True
    q = decode_frame(encode_frame(f))
    assert q.heartbeat
    assert q.payload is None
