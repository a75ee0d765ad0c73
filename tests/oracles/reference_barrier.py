"""The epoch oracle: the coordinator's barrier loop, kept verbatim.

:func:`coordinator_horizons` is ``ShardCoordinator._drive`` as it stood
while the parent process computed every epoch's horizon (``cccf311``),
up to the final stretch: it gathers every worker's ``next_event_time``,
routes the outboxes into per-shard pending queues, and decides each
epoch from those.  The shard workers now apply
:func:`repro.shard.worker.next_horizon` among themselves;
``tests/shard/test_epoch_rule.py`` drives both from one script and
checks that they run the same horizons and raise the same errors.

``team`` answers the old pipe protocol: ``recv(i)`` first returns
``("ready", i, next_t)``; then ``send(i, ("epoch", H, inbound))`` runs an
epoch and ``gather()`` returns one ``("state", next_t, outbox, events)``
per worker.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.shard.worker import ShardSyncError


def coordinator_horizons(team: Any, n: int, until: float, lookahead: float
                         ) -> Tuple[List[float], int, int]:
    """The horizons the old coordinator ran, then ``(epochs, stalls)``."""
    next_ts: List[Optional[float]] = [None] * n
    for i in range(n):
        _tag, shard_id, next_t = team.recv(i)
        next_ts[shard_id] = next_t

    pending: List[List[Any]] = [[] for _ in range(n)]
    horizons: List[float] = []
    epochs = 0
    stalls = 0
    last_n_min: Optional[float] = None
    last_events: Optional[int] = None
    max_epochs = int(until / lookahead) * 4 + 1024

    while True:
        candidates = [t for t in next_ts if t is not None]
        candidates += [msg[0] for box in pending for msg in box]
        n_min = min(candidates) if candidates else None
        if n_min is None:
            break  # every shard idle, nothing in flight: done early
        horizon = n_min + lookahead
        if horizon > until:
            break  # the final stretch covers the rest inclusively

        if epochs >= max_epochs:
            raise ShardSyncError(
                f"barrier exceeded {max_epochs} epochs before t={until} "
                f"(horizon {horizon:.9f})"
            )
        for i in range(n):
            team.send(i, ("epoch", horizon, pending[i]))
            pending[i] = []
        horizons.append(horizon)
        replies = team.gather()
        total_events = 0
        for i, (_tag, next_t, outbox, events) in enumerate(replies):
            next_ts[i] = next_t
            total_events += events
            for dst_shard, message in outbox:
                pending[dst_shard].append(message)
        epochs += 1
        if last_n_min is not None and n_min <= last_n_min:
            stalls += 1
            if total_events == last_events:
                raise ShardSyncError(
                    f"wedged barrier: horizon stuck at {horizon:.9f} "
                    f"with no events dispatched (epoch {epochs})"
                )
        last_n_min = n_min
        last_events = total_events
    return horizons, epochs, stalls
