"""Sequencing mechanisms: ordering and duplicate policy at the receiver.

Table 1 shows "Order Sensitivity" varying from *low* (media streams, where
a late PDU is worse than a missing one) to *high* (file transfer).  Table 2
lists "sequenced/non-sequenced delivery" and "duplicate sensitivity" as
qualitative QoS parameters.  The concrete policies:

* ``Unsequenced`` — deliver in arrival order, duplicates included (voice);
* ``Ordered`` — hold out-of-order messages and release in sequence;
* ``OrderedDedup`` — ordered plus duplicate suppression (the byte-stream
  contract of the TCP-like baseline).

The mechanism object carries *policy*; the receive-window machinery in the
session enforces it, so a segue changes behaviour for all subsequent PDUs
without touching buffered state.
"""

from __future__ import annotations

from typing import ClassVar

from repro.mechanisms.base import Mechanism


class Sequencing(Mechanism):
    """Root of the sequencing hierarchy (policy flags + costs)."""

    __slots__ = ()

    category = "sequencing"
    #: hold out-of-order messages until their predecessors arrive
    ordered: ClassVar[bool] = False
    #: drop PDUs whose sequence number was already delivered
    dedup: ClassVar[bool] = False


class Unsequenced(Sequencing):
    """Arrival order, duplicates pass through."""

    __slots__ = ()

    name = "none"
    SEND_COST = 5.0
    RECV_COST = 10.0
    DISPATCH_SEND = 0
    DISPATCH_RECV = 1
    ordered = False
    dedup = False


class Ordered(Sequencing):
    """In-order release; duplicates of undelivered data tolerated."""

    __slots__ = ()

    name = "ordered"
    SEND_COST = 10.0
    RECV_COST = 60.0
    ordered = True
    dedup = False


class OrderedDedup(Sequencing):
    """In-order release with duplicate suppression."""

    __slots__ = ()

    name = "ordered-dedup"
    SEND_COST = 10.0
    RECV_COST = 80.0
    DISPATCH_RECV = 2
    ordered = True
    dedup = True
