"""Forward-error-correction recovery mechanisms.

The paper's second policy example (§3(C)): switch reliability from
"retransmission-based" to "forward error correction-based" when the
round-trip delay crosses a threshold (terrestrial → satellite route), since
a retransmission costs a full — now enormous — RTT while FEC repairs loss
with zero additional latency at the price of constant bandwidth overhead.

* ``FecXor`` — one XOR parity PDU per ``k`` data PDUs: repairs any single
  loss per group (overhead 1/k);
* ``FecRS`` — ``r`` Reed-Solomon parity PDUs per ``k`` data PDUs over
  GF(256) (:mod:`repro.mechanisms.gf256`): repairs up to ``r`` losses per
  group (overhead r/k).

Group metadata (member sequence numbers, fragment identities, original
sizes) rides the PARITY PDU as ``aux_size`` header bytes so the receiver
can rebuild the *exact* missing DATA PDUs, not just their payload bytes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.mechanisms import gf256
from repro.mechanisms.base import ErrorRecovery, StageSpec
from repro.tko.message import TKOMessage
from repro.tko.pdu import PDU, PduType

#: per-shard metadata bytes on a PARITY PDU (seq, msg, frag, size fields)
META_BYTES_PER_SHARD = 8
#: receiver keeps at most this many incomplete groups before purging oldest
GROUP_HORIZON = 64


def _payload_bytes(pdu: PDU) -> bytes:
    msg = pdu.message
    if msg is None:
        return b""
    return b"".join(bytes(s) for s in msg.segments_view())


class _FecBase(ErrorRecovery):
    """Shared grouping/reconstruction machinery for the FEC family."""

    __slots__ = ("_k", "_r", "_group", "_group_base", "_rx", "_rx_order")

    retransmits = False
    accept_out_of_order = True
    DISPATCH_SEND = 2
    DISPATCH_RECV = 2
    #: the sender group holds PDU references until parity is emitted, so a
    #: free-listed PDU could be recycled out from under the encoder
    POOL_SAFE = False

    #: instructions per payload byte spent encoding/decoding
    PER_BYTE = 0.5

    def __init__(self, k: Optional[int] = None, r: Optional[int] = None) -> None:
        super().__init__()
        self._k = k
        self._r = r
        # sender group under construction
        self._group: List[PDU] = []
        self._group_base: Optional[int] = None
        # receiver state: group_base -> {"data": {...}, "parity": {...}, ...}
        self._rx: Dict[int, dict] = {}
        self._rx_order: List[int] = []

    def bind(self, session) -> None:
        super().bind(session)
        if self._k is None:
            self._k = session.cfg.fec_k
        if self._r is None:
            self._r = self.default_r(session.cfg.fec_r)

    @staticmethod
    def default_r(cfg_r: int) -> int:
        return cfg_r

    @property
    def k(self) -> int:
        return int(self._k or 1)

    @property
    def r(self) -> int:
        return int(self._r or 1)

    def compile_stage(self) -> StageSpec:
        return StageSpec(
            slot=self.category,
            name=self.name,
            send_fixed=self.SEND_COST,
            send_per_byte=self.PER_BYTE,
            recv_fixed=self.RECV_COST,
            recv_per_byte=self.PER_BYTE,
            dispatch_send=self.DISPATCH_SEND,
            dispatch_recv=self.DISPATCH_RECV,
            overlaps_tx=False,
        )

    # ------------------------------------------------------------------
    # sender
    # ------------------------------------------------------------------
    def on_send(self, pdu: PDU) -> Iterable[PDU]:
        if self._group_base is None:
            self._group_base = pdu.seq
        pdu.options["fg"] = self._group_base
        self._group.append(pdu)
        if len(self._group) >= self.k:
            return self._emit_parity()
        return ()

    def flush(self) -> Iterable[PDU]:
        """Close out a partial group (called at session close)."""
        if self._group:
            return self._emit_parity()
        return ()

    def _emit_parity(self) -> List[PDU]:
        group = self._group
        base = self._group_base
        self._group = []
        self._group_base = None
        shards = [_payload_bytes(p) for p in group]
        metas = [
            {
                "seq": p.seq,
                "msg_id": p.msg_id,
                "frag_index": p.frag_index,
                "frag_count": p.frag_count,
                "size": len(s),
            }
            for p, s in zip(group, shards)
        ]
        parity_payloads = self.encode(shards)
        out: List[PDU] = []
        s = self.session
        for i, payload in enumerate(parity_payloads):
            parity = s.make_pdu(PduType.PARITY)
            parity.message = TKOMessage(payload, meter=s.copy_meter)
            parity.options.update(
                {"fg": base, "k": len(group), "r": len(parity_payloads), "index": i, "metas": metas}
            )
            parity.aux_size = META_BYTES_PER_SHARD * len(group)
            s.stats.parity_sent += 1
            out.append(parity)
        return out

    # ------------------------------------------------------------------
    # receiver
    # ------------------------------------------------------------------
    def _rx_group(self, base: int) -> dict:
        g = self._rx.get(base)
        if g is None:
            g = {"data": {}, "parity": {}, "metas": None, "done": False}
            self._rx[base] = g
            self._rx_order.append(base)
            while len(self._rx_order) > GROUP_HORIZON:
                victim = self._rx_order.pop(0)
                self._rx.pop(victim, None)
        return g

    def note_data_received(self, pdu: PDU) -> None:
        base = pdu.options.get("fg")
        if base is None:
            return
        g = self._rx_group(base)
        if not g["done"]:
            g["data"][pdu.seq] = _payload_bytes(pdu)

    def on_receive_repair(self, pdu: PDU) -> List[PDU]:
        base = pdu.options.get("fg")
        if base is None:
            return []
        g = self._rx_group(base)
        if g["done"]:
            return []
        g["parity"][pdu.options["index"]] = _payload_bytes(pdu)
        g["metas"] = pdu.options["metas"]
        g["k"] = pdu.options["k"]
        g["r"] = pdu.options["r"]
        return self._try_reconstruct(base)

    def repair_opportunity(self, pdu: PDU) -> List[PDU]:
        """Called after a DATA arrival: a late shard may complete a group."""
        base = pdu.options.get("fg")
        if base is None or base not in self._rx:
            return []
        g = self._rx[base]
        if g["done"] or g["metas"] is None:
            return []
        return self._try_reconstruct(base)

    def _try_reconstruct(self, base: int) -> List[PDU]:
        g = self._rx[base]
        metas = g["metas"]
        k = g["k"]
        seqs = [m["seq"] for m in metas]
        have = {s: g["data"][s] for s in seqs if s in g["data"]}
        missing = [m for m in metas if m["seq"] not in have]
        if not missing:
            g["done"] = True
            return []
        recovered = self.decode(k, g.get("r", self.r), metas, have, g["parity"])
        if recovered is None:
            return []
        g["done"] = True
        s = self.session
        out: List[PDU] = []
        for meta in missing:
            idx = seqs.index(meta["seq"])
            payload = recovered[idx][: meta["size"]]
            rebuilt = PDU(
                PduType.DATA,
                s.conn_id,
                seq=meta["seq"],
                msg_id=meta["msg_id"],
                frag_index=meta["frag_index"],
                frag_count=meta["frag_count"],
                options={"fg": base, "fec_reconstructed": True},
                message=TKOMessage(payload, meter=s.copy_meter),
                compact=s.cfg.compact_headers,
            )
            s.stats.fec_recoveries += 1
            out.append(rebuilt)
        return out

    # -- code-specific ----------------------------------------------------
    def encode(self, shards: List[bytes]) -> List[bytes]:
        raise NotImplementedError

    def decode(
        self,
        k: int,
        r: int,
        metas: List[dict],
        have: Dict[int, bytes],
        parity: Dict[int, bytes],
    ) -> Optional[List[bytes]]:
        """Return all k shards in group order, or None if unrecoverable."""
        raise NotImplementedError

    # FEC never retransmits; ACK processing is generic only.
    def on_ack(self, pdu: PDU, from_host: str = "") -> None:
        return None


class FecXor(_FecBase):
    """Single-parity XOR groups: repairs one loss per k."""

    __slots__ = ()

    name = "fec-xor"
    SEND_COST = 70.0
    RECV_COST = 30.0
    PER_BYTE = 0.5

    @staticmethod
    def default_r(cfg_r: int) -> int:
        return 1  # XOR supports exactly one parity shard

    def encode(self, shards: List[bytes]) -> List[bytes]:
        return [gf256.xor_encode(shards)]

    def decode(self, k, r, metas, have, parity):
        missing = [m for m in metas if m["seq"] not in have]
        if len(missing) != 1 or 0 not in parity:
            return None
        length = max(m["size"] for m in metas)
        rec = gf256.xor_recover(list(have.values()), parity[0], length)
        out: List[Optional[bytes]] = []
        for m in metas:
            out.append(have.get(m["seq"], rec))
        return out  # type: ignore[return-value]


class FecRS(_FecBase):
    """Reed-Solomon groups: repairs up to r losses per k."""

    __slots__ = ()

    name = "fec-rs"
    SEND_COST = 100.0
    RECV_COST = 60.0
    PER_BYTE = 2.0

    def encode(self, shards: List[bytes]) -> List[bytes]:
        return gf256.rs_encode(shards, self.r)

    def decode(self, k, r, metas, have, parity):
        if len(have) + len(parity) < k:
            return None
        length = max(m["size"] for m in metas)
        seqs = [m["seq"] for m in metas]
        data = {seqs.index(s): b for s, b in have.items()}
        try:
            return gf256.rs_decode(k, r, length, data, dict(parity))
        except (ValueError, np.linalg.LinAlgError):
            return None
