"""Delivery mechanisms: unicast vs multicast addressing and ACK aggregation.

Multicast is the capability whose *absence* makes TCP an underweight
configuration for teleconferencing (§2.2(B)), and whose membership dynamics
("participants join and leave the conversation", §2.1(B)) drive run-time
reconfiguration.  ``MulticastDelivery`` addresses frames to a group; the
network replicates them once per tree edge; reliable operation aggregates
per-member ACKs — a sequence number is complete only when *every* current
member has acknowledged it.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.mechanisms.base import Delivery, StageSpec


class UnicastDelivery(Delivery):
    """Single fixed peer."""

    __slots__ = ()

    name = "unicast"
    SEND_COST = 10.0
    RECV_COST = 10.0
    DISPATCH_SEND = 1
    DISPATCH_RECV = 1

    def destinations(self) -> List[str]:
        return [self.session.remote_host]

    def frame_dst(self) -> str:
        return self.session.remote_host

    def ack_complete(self, seq: int, from_host: str) -> bool:
        return True


class MulticastDelivery(Delivery):
    """Group-addressed frames with all-member ACK aggregation."""

    __slots__ = ("group", "_members", "_join_seq", "_acked")

    name = "multicast"
    SEND_COST = 40.0
    RECV_COST = 20.0
    DISPATCH_SEND = 2
    DISPATCH_RECV = 2

    def __init__(self, group: str, members: List[str]) -> None:
        super().__init__()
        self.group = group
        self._members: Set[str] = set(members)
        #: sequence number from which each member participates: a late
        #: joiner is only responsible for data sent after it joined —
        #: otherwise its silence on pre-join sequences would jam the
        #: sender's window forever
        self._join_seq: Dict[str, int] = {m: 0 for m in members}
        self._acked: Dict[int, Set[str]] = {}

    def destinations(self) -> List[str]:
        return sorted(self._members)

    def frame_dst(self) -> str:
        return self.group

    def _required(self, seq: int) -> Set[str]:
        return {m for m in self._members if self._join_seq.get(m, 0) <= seq}

    def ack_complete(self, seq: int, from_host: str) -> bool:
        if from_host not in self._members:
            return False  # stale ACK from a departed member
        got = self._acked.setdefault(seq, set())
        got.add(from_host)
        if got >= self._required(seq):
            self._acked.pop(seq, None)
            return True
        return False

    def membership_changed(self, members: List[str]) -> None:
        """Install a new member set; completion is re-evaluated.

        New members are responsible only from the next sequence number
        onward; departure can *complete* sequences that were only waiting
        on the leaver — so the session rechecks its outstanding queue.
        """
        new = set(members)
        joined = new - self._members
        if self.session is not None:
            next_seq = self.session.state.snd_nxt
        else:
            next_seq = 0
        for m in joined:
            self._join_seq[m] = next_seq
        for m in self._members - new:
            self._join_seq.pop(m, None)
        self._members = new
        if self.session is not None:
            # the member count feeds this stage's compiled send cost
            self.session.repipeline("delivery")
            self.session.recheck_acks()

    def pending_complete(self, seq: int) -> bool:
        """Would ``seq`` be complete under the current membership?"""
        got = self._acked.get(seq, set())
        return got >= self._required(seq)

    def compile_stage(self) -> StageSpec:
        return StageSpec(
            slot=self.category,
            name=self.name,
            # ACK-state bookkeeping grows with the member count
            send_fixed=self.SEND_COST + 5.0 * len(self._members),
            send_per_byte=0.0,
            recv_fixed=self.RECV_COST,
            recv_per_byte=0.0,
            dispatch_send=self.DISPATCH_SEND,
            dispatch_recv=self.DISPATCH_RECV,
            overlaps_tx=False,
        )

    def adopt(self, old: Delivery) -> None:
        if isinstance(old, MulticastDelivery):
            self._acked = old._acked
            self._members = old._members
