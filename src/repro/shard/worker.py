"""The shard worker: one kernel process that meets its peers each epoch.

Runs inside a :class:`~repro.sweep.pool.WorkerTeam` child.  The builder
(an importable module-level callable, pickled by reference) constructs
this shard's runtime — full topology, locally-owned hosts, boundary
links converted to gateway mode — and the worker then runs the whole
epoch loop itself, talking to every other shard over a full mesh of
duplex pipes (one per pair of shards).  Each epoch:

1. it sends each peer exactly one message,
   ``(next_event_time, earliest arrival in flight, events dispatched,
   that peer's cross-shard messages)``;
2. it receives one such message from each peer;
3. every worker applies the same pure rule, :func:`next_horizon`, to
   the same reports, so all of them agree on ``N`` and ``H = N + L``
   without a coordinator in between;
4. it injects its inbound messages (future-timestamped by construction)
   and runs :meth:`~repro.sim.kernel.Simulator.run_until_horizon` —
   events strictly before ``H``.

When ``H`` would pass ``until`` the rule ends the loop and the worker
runs the *inclusive* final stretch ``run(until=...)``, exactly the serial
semantics; any cross-frames it generates arrive after ``until`` by the
lookahead bound, so they are provably never executed in a serial run
either.  It then sends ``("done", result)`` to the coordinator and exits.

To the coordinator (its pipe is otherwise silent) a worker sends
``("tick", epochs)`` at least every ``tick`` seconds while it is
computing or waiting, so a wedged shard is the one that goes quiet;
``("wedged", text)`` when the rule raises :class:`ShardSyncError`; and
``("lost", peer)`` when a peer's pipe closes under it, after which it
waits to be torn down.

The runtime object the builder returns needs ``sim``, ``gateway``, and
``collect()`` — see :class:`repro.core.churn.GroupedChurnScenario`.
"""

from __future__ import annotations

import pickle
import threading
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.tko.pdu import PDU_POOL
from repro.unites.obs.telemetry import TELEMETRY as _TELEMETRY


class ShardSyncError(RuntimeError):
    """The epoch barrier stopped making progress (wedged barrier)."""


#: one shard's epoch report: (next_event_time, earliest arrival it put in
#: flight, events dispatched so far); ``None`` times mean "nothing"
Report = Tuple[Optional[float], Optional[float], int]
#: what the rule carries between epochs: (epochs run, horizon stalls,
#: the last epoch's N, the events reported before it, whether it stalled)
EpochState = Tuple[int, int, Optional[float], Optional[int], bool]
START: EpochState = (0, 0, None, None, False)

#: a peer message pickled larger than this is written by a helper thread:
#: two shards both blocked writing to each other would never read
INLINE_LIMIT = 16 * 1024


def next_horizon(state: EpochState, reports: Sequence[Report], until: float,
                 lookahead: float) -> Tuple[Optional[float], EpochState]:
    """The epoch rule: the next horizon from every shard's report.

    ``N`` is the minimum over every shard's next-event time and every
    arrival still in flight, and ``H = N + L``.  Every event strictly
    before ``H`` is safe: the earliest anything anywhere can execute is
    ``N``, so the earliest message the epoch can *generate* arrives at
    ``>= N + L = H``.  Returns ``(None, state)`` when the final stretch is
    due (``H`` passes ``until``, or nothing is left anywhere), else
    ``(H, state')``.

    Raises :class:`ShardSyncError` on a wedged barrier — an epoch whose
    ``N`` did not advance and that dispatched no event, e.g. a
    zero-lookahead cycle that slipped past plan validation — or past a
    hard backstop of epochs.  The events of an epoch are known one
    exchange later, so that check runs before the next decision.
    """
    epochs, stalls, last_n, last_events, stalled = state
    events = sum(r[2] for r in reports)
    if stalled and events == last_events:
        raise ShardSyncError(
            f"wedged barrier: horizon stuck at {last_n + lookahead:.9f} "
            f"with no events dispatched (epoch {epochs})"
        )
    times = [t for r in reports for t in r[:2] if t is not None]
    if not times:
        return None, state  # every shard idle, nothing in flight: done early
    n_min = min(times)
    horizon = n_min + lookahead
    if horizon > until:
        return None, state  # the final stretch covers the rest inclusively
    # well above any live schedule's epoch count: the horizon advances by
    # >= lookahead whenever N advances, so a healthy run needs about
    # until/lookahead epochs
    max_epochs = int(until / lookahead) * 4 + 1024
    if epochs >= max_epochs:
        raise ShardSyncError(
            f"barrier exceeded {max_epochs} epochs before t={until} "
            f"(horizon {horizon:.9f})"
        )
    stalled = last_n is not None and n_min <= last_n
    return horizon, (epochs + 1, stalls + stalled, n_min, events, stalled)


def record_shard_metrics(shard_id: int, stats: Dict[str, Any]) -> None:
    """Export one shard's ``shard_*`` counters into the UNITES registry.

    Labelled ``shard="N"``; combined with the telemetry server's
    instance label this makes multi-process scrapes collision-free.
    """
    m = _TELEMETRY.metrics
    labels = {"shard": str(shard_id)}
    m.counter("shard_epochs_total", labels=labels,
              help="lookahead-barrier epochs this shard executed").inc(
                  stats.get("epochs", 0))
    m.counter("shard_horizon_stalls_total", labels=labels,
              help="epochs whose horizon did not advance").inc(
                  stats.get("horizon_stalls", 0))
    m.counter("shard_cross_frames_out_total", labels=labels,
              help="frames shipped across the shard boundary").inc(
                  stats.get("frames_out", 0))
    m.counter("shard_cross_frames_in_total", labels=labels,
              help="frames received across the shard boundary").inc(
                  stats.get("frames_in", 0))
    m.counter("shard_cross_bytes_out_total", labels=labels,
              help="wire bytes shipped across the shard boundary").inc(
                  stats.get("bytes_out", 0))
    m.gauge("shard_barrier_wait_seconds", labels=labels,
            help="wall-clock seconds this shard spent blocked waiting for "
                 "its peers' epoch messages"
            ).set(stats.get("barrier_wait_s", 0.0))


class _PeerLost(Exception):
    def __init__(self, peer: int) -> None:
        super().__init__(f"peer shard {peer} closed its pipe")
        self.peer = peer


class PeerExchange:
    """One shard's end of the epoch mesh, plus its liveness ticks.

    ``mesh`` lists every pair ``(i, j, end_i, end_j)``.  A forked worker
    inherits every end; it keeps its own and closes the rest at once, so
    a peer that dies leaves no copy of its end alive and this shard reads
    EOF instead of blocking on it.
    """

    def __init__(self, conn, shard_id: int, mesh, tick: float) -> None:
        self.conn = conn
        self.shard_id = shard_id
        self.tick = tick
        self.peers: List[Tuple[int, Any]] = []
        for i, j, end_i, end_j in mesh:
            if i == shard_id:
                self.peers.append((j, end_i))
                end_j.close()
            elif j == shard_id:
                self.peers.append((i, end_j))
                end_i.close()
            else:
                end_i.close()
                end_j.close()
        self.peers.sort(key=lambda p: p[0])
        self.n = len(self.peers) + 1
        self.epochs = 0
        self.wait_s = 0.0
        self._last_tick = perf_counter()

    def heartbeat(self, epochs: int) -> None:
        """Tick the coordinator if it has not heard from us for ``tick``."""
        self.epochs = epochs
        now = perf_counter()
        if now - self._last_tick >= self.tick:
            self.conn.send(("tick", self.epochs))
            self._last_tick = now

    def exchange(self, next_t: Optional[float], outbox, events: int
                 ) -> Tuple[List[Report], list]:
        """Send every peer its epoch message, then read theirs.

        Returns every shard's report (this one's included, indexed by
        shard id) and the cross-shard messages addressed to this shard.
        """
        boxes: Dict[int, list] = {j: [] for j, _ in self.peers}
        for dst, message in outbox:
            boxes[dst].append(message)
        earliest = min((m[0] for _, m in outbox), default=None)
        writers = []
        for j, end in self.peers:
            data = pickle.dumps((next_t, earliest, events, boxes[j]),
                                protocol=pickle.HIGHEST_PROTOCOL)
            if len(data) <= INLINE_LIMIT:
                try:
                    end.send_bytes(data)
                except OSError:
                    raise _PeerLost(j)
            else:
                writer = threading.Thread(target=_write_quietly,
                                          args=(end, data), daemon=True)
                writer.start()
                writers.append(writer)
        reports: List[Report] = [None] * self.n  # type: ignore[list-item]
        reports[self.shard_id] = (next_t, earliest, events)
        inbound: list = []
        w0 = perf_counter()
        for j, end in self.peers:
            try:
                while not end.poll(self.tick):
                    self.conn.send(("tick", self.epochs))
                    self._last_tick = perf_counter()
                peer_t, peer_earliest, peer_events, box = end.recv()
            except (EOFError, OSError):
                raise _PeerLost(j)
            reports[j] = (peer_t, peer_earliest, peer_events)
            inbound.extend(box)
        for writer in writers:
            writer.join()
        self.wait_s += perf_counter() - w0
        return reports, inbound


def _write_quietly(end, data: bytes) -> None:
    try:
        end.send_bytes(data)
    except OSError:
        pass  # the reading loop sees the same dead peer and reports it


def shard_worker_main(conn, shard_id: int, builder, builder_kw: Dict[str, Any],
                      mesh, until: float, lookahead: float, tick: float) -> None:
    """WorkerTeam entry point: build the shard world, then run its epochs."""
    peers = PeerExchange(conn, shard_id, mesh, tick)
    pool0 = (PDU_POOL.acquired, PDU_POOL.recycled)
    runtime = builder(shard_id=shard_id, **builder_kw)
    sim = runtime.sim
    gateway = runtime.gateway
    state, outbox = START, []
    try:
        while True:
            reports, inbound = peers.exchange(
                sim.next_event_time(), outbox, sim.events_dispatched)
            horizon, state = next_horizon(state, reports, until, lookahead)
            gateway.inject(inbound)
            if horizon is None:
                break
            sim.run_until_horizon(horizon)
            outbox = gateway.drain_outbox()
            peers.heartbeat(state[0])
    except ShardSyncError as exc:
        conn.send(("wedged", str(exc)))
        return
    except _PeerLost as exc:
        conn.send(("lost", exc.peer))
        # hold every other pipe open until the coordinator ends the team:
        # exiting now would make this shard's peers report it lost too
        conn.poll(None)
        return
    # the final stretch: frames it ships arrive after ``until`` (lookahead
    # bound) and are dropped here — their pooled payload references were
    # already consumed at egress
    sim.run(until=until)
    gateway.drain_outbox()

    result = dict(runtime.collect())
    result["shard_id"] = shard_id
    result["shard_epochs"] = state[0]
    result["shard_horizon_stalls"] = state[1]
    result["shard_barrier_wait_s"] = round(peers.wait_s, 6)
    result.update({f"shard_{k}": v for k, v in gateway.stats_dict().items()})
    # pool-balance proof: every pooled wire reference this shard acquired
    # was released (gateway egress included)
    result["pdu_acquired"] = PDU_POOL.acquired - pool0[0]
    result["pdu_recycled"] = PDU_POOL.recycled - pool0[1]
    conn.send(("done", result))
