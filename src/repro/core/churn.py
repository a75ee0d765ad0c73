"""Connection-scale churn: thousands of sessions opened, used and closed.

The C10K-style workload behind the scale benchmark (EXPERIMENTS.md row
"scale"): initiators open a large mixed-TSC population of adaptive
connections — voice conversations (implicit establishment), compressed
video (explicit 2-way), bulk file transfers (explicit 3-way) and telnet
(implicit, transactional) — in staggered waves, hold them concurrently
open for class-specific lifetimes, send a few class-sized messages each,
close them, and deterministically reopen a third of the population once
(churn).  One driver, :class:`ChurnScenario`, runs it in two worlds: one
host pair, and :class:`GroupedChurnScenario`'s shard-ready host groups.

Everything is derived from the system seed and connection index, so one
seed produces a bit-identical run: the receiver-side delivery digest,
establishment/close counts, and peak concurrency are compared across
repeated runs, under the executor and the test tree's oracle, and against
the frozen values in ``tests/golden.py``.
"""
from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.system import AdaptiveSystem
from repro.mantts.acd import ACD
from repro.mantts.qos import QualitativeQoS, QuantitativeQoS
from repro.netsim.network import Network
from repro.netsim.profiles import NetworkProfile, ethernet_10, linear_path
from repro.tko.templates import TemplateCache

SERVICE_PORT = 7000

#: connections opened per wave; waves start ``wave_interval`` apart
WAVE_SIZE = 50

#: in the grouped world, every ``CROSS_EVERY``-th connection of a group
#: is served across a trunk by the next group's remote responder
CROSS_EVERY = 4

#: trunk propagation delay between neighbouring groups — the shard
#: lookahead.  Long relative to the access links (5 ms vs 100 µs) so the
#: conservative barrier buys thousands of events per epoch, and carried
#: by a 155 Mb/s channel whose serialization times are incommensurate
#: with the 10 Mb/s access links (avoids exact float-time collisions
#: between cross-shard arrivals and local traffic).
TRUNK_DELAY = 5e-3


def trunk_profile() -> NetworkProfile:
    """ATM-like inter-group trunk (155 Mb/s, 5 ms, fiber BER)."""
    return NetworkProfile("trunk-155", 155e6, TRUNK_DELAY, 1e-9, 1500, 128)


@dataclass(frozen=True)
class ConnClass:
    """One traffic class of the churn population."""

    name: str
    acd_kw: dict
    lifetime: float        #: seconds between establishment and close
    message_bytes: int     #: padded payload size per message
    messages: int          #: messages sent per connection
    tsc: str               #: class-pool name (TSC value) for admission shares


#: The mixed population: two implicit classes (voice, telnet) and two
#: explicit ones (video 2-way, bulk 3-way) so both establishment styles
#: and the signalling path are exercised at scale.  Per-connection rates
#: are kept tiny relative to the 10 Mb/s path: the benchmark measures
#: connection-management overhead, not link saturation.
CLASSES: List[ConnClass] = [
    ConnClass(
        "voice",
        dict(
            quantitative=QuantitativeQoS(
                avg_throughput_bps=64_000, duration=600, loss_tolerance=0.05,
                message_size=160,
            ),
            qualitative=QualitativeQoS(isochronous=True, ordered=False,
                                       duplicate_sensitive=False),
            explicit_tsc="interactive-isochronous",
        ),
        4.0, 160, 2, "interactive-isochronous",
    ),
    ConnClass(
        "video",
        dict(
            quantitative=QuantitativeQoS(
                avg_throughput_bps=1_500_000, duration=600, loss_tolerance=0.02,
                message_size=1200,
            ),
            qualitative=QualitativeQoS(isochronous=True),
            explicit_tsc="distributional-isochronous",
        ),
        5.0, 1200, 2, "distributional-isochronous",
    ),
    ConnClass(
        "bulk",
        dict(
            quantitative=QuantitativeQoS(
                avg_throughput_bps=400_000, duration=600, message_size=1400,
            ),
            qualitative=QualitativeQoS(),
            explicit_tsc="non-real-time-non-isochronous",
        ),
        6.0, 1400, 3, "non-real-time-non-isochronous",
    ),
    ConnClass(
        "telnet",
        dict(
            quantitative=QuantitativeQoS(
                avg_throughput_bps=9_600, duration=600, message_size=64,
            ),
            qualitative=QualitativeQoS(transactional=True),
            explicit_tsc="non-real-time-non-isochronous",
        ),
        4.5, 64, 2, "non-real-time-non-isochronous",
    ),
]

#: identical class-pool shares on both hosts: isochronous classes are
#: guaranteed capacity no matter how many bulk opens arrive
CLASS_SHARES: Dict[str, float] = {
    "interactive-isochronous": 0.2,
    "distributional-isochronous": 0.4,
    "non-real-time-non-isochronous": 0.4,
}


class ChurnScenario:
    """Deterministic open/send/close churn of ``n_connections`` sessions.

    The one churn driver: waves of opens, then each connection's sends,
    close and reopen.  A world supplies only its topology (:meth:`_build`),
    who opens and who answers connection ``index`` (:meth:`_initiator`,
    :meth:`_responder_of`), its delivery digest (:meth:`_on_deliver`) and
    :meth:`collect`.  This one is initiator ``A`` and responder ``B``
    behind one switch.  Connection ``index`` is in group
    ``index % n_groups``; peak concurrency is the sum of per-group peaks.
    """

    #: one group: every connection is opened by ``A``
    n_groups = 1
    owned_groups = (0,)

    def __init__(
        self,
        n_connections: int = 1000,
        seed: int = 7,
        wave_interval: float = 0.02,
        reopen_every: int = 3,
        transport=None,
    ) -> None:
        if n_connections <= 0:
            raise ValueError("n_connections must be positive")
        self.n_connections = n_connections
        self.reopen_every = reopen_every

        # ``transport`` selects the substrate (default: fresh SimBackend);
        # the digest equivalence test passes route_frames=True here to
        # prove the backend interface is bit-identical to the old wiring.
        self.system = AdaptiveSystem(seed=seed, transport=transport)
        self.sim = self.system.sim
        self._build()

        self.delivered = 0
        self.established = 0
        self.failed = 0
        self.closed = 0
        self.reopened = 0
        self._live = {g: 0 for g in self.owned_groups}
        self._peak = {g: 0 for g in self.owned_groups}

        # staggered waves over *global* indices (identical schedule in
        # every build); a world opens only the connections it initiates
        owned = set(self.owned_groups)
        for start in range(0, n_connections, WAVE_SIZE):
            wave = [i for i in range(start, min(start + WAVE_SIZE, n_connections))
                    if i % self.n_groups in owned]
            if wave:
                delay = (start // WAVE_SIZE) * wave_interval
                self.sim.schedule(delay, lambda w=wave: self._open_wave(w))

    # ------------------------------------------------------------------
    def _build(self) -> None:
        # One switch on a fast LAN: explicit negotiations to a single peer
        # all share one signalling session, so the path must turn requests
        # around well inside NEGOTIATION_TIMEOUT even when hundreds queue.
        self.network = linear_path(
            self.sim, ethernet_10(), ("A", "B"), n_switches=1,
            rng=self.system.rng,
        )
        self.system.attach_network(self.network)
        # Generous budgets: admission must always succeed — the benchmark
        # studies connection-management scaling, not admission pressure.
        self.a = self.system.node(
            "A", mips=400.0, buffer_capacity=1 << 26, admission_bps=10e9,
        )
        self.b = self.system.node(
            "B", mips=400.0, buffer_capacity=1 << 26, admission_bps=10e9,
        )
        for node in (self.a, self.b):
            node.mantts.resources.configure_classes(CLASS_SHARES)
        self._delivery = hashlib.sha256()
        self.b.mantts.register_service(SERVICE_PORT, on_deliver=self._on_deliver)

    def _initiator(self, index: int):
        return self.a

    def _responder_of(self, index: int) -> str:
        return "B"

    def _class_of(self, index: int) -> ConnClass:
        return CLASSES[(index // self.n_groups) % len(CLASSES)]

    def _on_deliver(self, data: bytes, meta: dict) -> None:
        self.delivered += 1
        self._delivery.update(data)
        self._delivery.update(b"|")

    @property
    def live(self) -> int:
        """Connections established and not yet closed, over all groups."""
        return sum(self._live.values())

    # ------------------------------------------------------------------
    def _open_wave(self, indices: List[int]) -> None:
        for i in indices:
            self._open_one(i, reopen=(self.reopen_every > 0
                                      and i % self.reopen_every == 0))

    def _open_one(self, index: int, reopen: bool) -> None:
        cls = self._class_of(index)
        acd = ACD(participants=(self._responder_of(index),),
                  service_port=SERVICE_PORT, **cls.acd_kw)
        state = {"index": index, "cls": cls, "reopen": reopen}
        conn = self._initiator(index).mantts.open(
            acd,
            on_connected=lambda c, s=state: self._on_connected(c, s),
            on_failed=lambda reason, s=state: self._on_failed(reason, s),
        )
        state["conn"] = conn

    def _on_connected(self, conn, state: dict) -> None:
        self.established += 1
        cls: ConnClass = state["cls"]
        index: int = state["index"]
        g = index % self.n_groups
        self._live[g] += 1
        if self._live[g] > self._peak[g]:
            self._peak[g] = self._live[g]
        # class-sized messages, spread across the first part of the
        # lifetime; payload identifies (class, connection, message) so the
        # receiver-order digest is meaningful
        gap = cls.lifetime / (cls.messages + 2)
        for m in range(cls.messages):
            tag = f"{cls.name}:{index}:{m}:".encode()
            payload = tag + b"x" * max(0, cls.message_bytes - len(tag))
            self.sim.schedule(
                (m + 1) * gap, lambda c=conn, p=payload: self._send(c, p)
            )
        self.sim.schedule(cls.lifetime, lambda s=state: self._close(s))

    @staticmethod
    def _send(conn, payload: bytes) -> None:
        if not conn._failed and (conn.session is None or not conn.session.closed):
            conn.send(payload)

    def _close(self, state: dict) -> None:
        conn = state["conn"]
        if conn._failed:
            return
        conn.close()
        self.closed += 1
        self._live[state["index"] % self.n_groups] -= 1
        if state["reopen"]:
            state["reopen"] = False
            self.reopened += 1
            # deterministic churn: same class, fresh connection, shortly
            # after the close completes
            self.sim.schedule(
                0.05, lambda i=state["index"]: self._open_one(i, reopen=False)
            )

    def _on_failed(self, reason: str, state: dict) -> None:
        self.failed += 1

    # ------------------------------------------------------------------
    def run(self, until: float = 20.0) -> "ChurnScenario":
        self.system.run(until=until)
        return self

    def collect(self) -> Dict[str, object]:
        """Deterministic run metrics (no wall-clock — callers time run())."""
        mgr = self.a.mantts.manager
        snap = mgr.snapshot()
        return {
            "n_connections": self.n_connections,
            "established": self.established,
            "failed": self.failed,
            # why they failed (A's end reasons): detail, not identity
            "failed_by_reason": dict(sorted(mgr.failed_by_reason.items())),
            "closed": self.closed,
            "reopened": self.reopened,
            "delivered": self.delivered,
            "peak_concurrent": sum(self._peak.values()),
            "delivery_digest": self._delivery.hexdigest(),
            "final_time": round(self.sim.now, 9),
            "events_dispatched": self.sim.events_dispatched,
            "timer_group_coalesced": snap["timer_group_coalesced"],
            "probe_cache_hits": snap["probe_cache_hits"],
            "scs_cache_hits": snap["scs_cache_hits"],
        }


def run_churn(
    n_connections: int = 1000,
    seed: int = 7,
    duration: float = 20.0,
    **kw,
) -> Dict[str, object]:
    """Build, run, and collect one churn scenario (the benchmark entry)."""
    scenario = ChurnScenario(n_connections=n_connections, seed=seed, **kw)
    return scenario.run(until=duration).collect()


def identity_fields(metrics: Dict[str, object]) -> Dict[str, object]:
    """The subset of churn metrics that must be bit-identical for one seed
    across repeated runs, executors, and serial and sharded builds.

    ``peak_concurrent`` is the sum of per-group peaks (well-defined under
    any partition).  Event and cache/coalescing counters are bookkeeping,
    not outcome, and are excluded — ``events_dispatched`` because shard
    kernels legitimately dispatch different bookkeeping events (wave
    lambdas, injected arrivals) than one serial kernel."""
    keys = (
        "n_connections", "established", "failed", "closed", "reopened",
        "delivered", "peak_concurrent", "delivery_digest", "final_time",
    )
    return {k: metrics[k] for k in keys}


#: the serial ≡ sharded identity of grouped churn is the same payload
grouped_identity_fields = identity_fields


# ======================================================================
# grouped / shard-aware churn (the one-world parallel scale scenario)
# ======================================================================
class GroupedChurnScenario(ChurnScenario):
    """Mixed-TSC churn across ``n_groups`` host groups — the shard-ready
    one-world topology (see ``docs/sharding.md``).

    Each group ``g`` has an initiator ``A{g}`` and a local responder
    ``B{g}`` on switch ``s{g}`` over 10 Mb/s access links, plus a
    *remote-service* responder ``R{g}`` attached **directly to the
    previous group's switch** ``s{(g-1)%G}`` over a long-delay trunk.
    Every ``CROSS_EVERY``-th connection of group ``g`` terminates on
    ``R{(g+1)%G}``, so the probed path ``A{g} -> s{g} -> R{(g+1)%G}``
    crosses exactly one trunk whose near half group ``g`` owns: under
    sharding, every link a network monitor ever samples carries live,
    single-writer state that evolves identically to the serial run.
    Trunk delay = lookahead.

    The same constructor builds the serial world (``shard_id=None``) and
    each worker's world (``shard_id=k``): the **full topology always
    exists** (routing and static path attributes must agree everywhere;
    link RNG streams are name-derived, so construction is order-safe),
    but hosts, services, template caches, and connection waves are only
    instantiated for locally-owned groups, and boundary-egress links are
    converted to gateway mode.  Each group gets its own
    :class:`~repro.tko.templates.TemplateCache` — in serial *and* shard
    builds — so template warming never couples groups across a shard
    boundary.

    The churn itself is :class:`ChurnScenario`'s.  The delivery digest is
    assembled per global connection index (parsed from the payload tag),
    so per-shard partial digests merge into a value bit-identical to the
    serial digest: :func:`merge_conn_digests`.
    """

    def __init__(
        self,
        n_connections: int = 1000,
        n_groups: int = 4,
        seed: int = 7,
        wave_interval: float = 0.02,
        reopen_every: int = 3,
        shard_id: Optional[int] = None,
        n_shards: int = 1,
        mode: str = "coalesced",
    ) -> None:
        # ``mode`` selects nothing: the frozen bench harness
        # (bench/workloads.py) still passes ``mode="coalesced"``, so the
        # keyword is accepted with that one value until bench/ drops it.
        if mode != "coalesced":
            raise ValueError(f"unknown manager mode {mode!r}")
        if n_groups < 1:
            raise ValueError("need at least one group")
        if n_shards > n_groups:
            raise ValueError("cannot have more shards than groups")
        if shard_id is not None and not (0 <= shard_id < n_shards):
            raise ValueError(f"shard_id {shard_id} outside [0, {n_shards})")
        self.n_groups = n_groups
        self.shard_id = shard_id
        self.n_shards = n_shards

        from repro.shard.partition import ShardPlan

        self.plan = ShardPlan.from_groups(
            [{f"A{g}", f"B{g}", f"R{g}", f"s{g}"} for g in range(n_groups)],
            max(n_shards, 1),
        )
        if shard_id is None:
            self.owned_groups = list(range(n_groups))
        else:
            self.owned_groups = [
                g for g in range(n_groups)
                if self.plan.shard_of(f"s{g}") == shard_id
            ]
        super().__init__(n_connections, seed, wave_interval, reopen_every)

    def _build(self) -> None:
        sim, G = self.sim, self.n_groups

        # --- full topology, identical in every build -------------------
        net = Network(sim, self.system.rng)
        access, trunk = ethernet_10(), trunk_profile()
        for g in range(G):
            net.add_node(f"s{g}")
        for g in range(G):
            for host in (f"A{g}", f"B{g}", f"R{g}"):
                net.add_node(host)
            for host, prof in ((f"A{g}", access), (f"B{g}", access)):
                net.add_link(
                    host, f"s{g}",
                    bandwidth_bps=prof.bandwidth_bps, delay=prof.delay,
                    ber=prof.ber, queue_limit=prof.queue_limit, mtu=prof.mtu,
                )
            # the trunk: R{g} hangs off the *previous* group's switch
            net.add_link(
                f"s{(g - 1) % G}", f"R{g}",
                bandwidth_bps=trunk.bandwidth_bps, delay=trunk.delay,
                ber=trunk.ber, queue_limit=trunk.queue_limit, mtu=trunk.mtu,
            )
        self.network = self.system.attach_network(net)

        # --- locally-owned groups only ---------------------------------
        self.nodes: Dict[str, object] = {}
        for g in self.owned_groups:
            cache = TemplateCache()
            for name in (f"A{g}", f"B{g}", f"R{g}"):
                node = self.system.node(
                    name, mips=400.0, buffer_capacity=1 << 26,
                    admission_bps=10e9,
                )
                node.mantts.resources.configure_classes(CLASS_SHARES)
                node.protocol.synthesizer.templates = cache
                self.nodes[name] = node
            for name in (f"B{g}", f"R{g}"):
                self.nodes[name].mantts.register_service(
                    SERVICE_PORT, on_deliver=self._on_deliver
                )

        # --- boundary links -> gateway mode (shard builds only) --------
        self.gateway = None
        self.lookahead = None
        if self.shard_id is not None and self.n_shards > 1:
            from repro.shard.gateway import ShardGateway, make_boundary

            self.lookahead = self.plan.lookahead(self.network)
            self.gateway = ShardGateway(sim, self.network, self.shard_id)
            for (u, v), (su, sv) in self.plan.boundary_links(
                    self.network).items():
                if su == self.shard_id:
                    make_boundary(self.network.links[(u, v)],
                                  self.gateway, sv, v)

        self._conn_digests: Dict[int, "hashlib._Hash"] = {}

    def _initiator(self, index: int):
        return self.nodes[f"A{index % self.n_groups}"]

    def _responder_of(self, index: int) -> str:
        g = index % self.n_groups
        cross = self.n_groups > 1 and (index // self.n_groups) % CROSS_EVERY == 0
        return f"R{(g + 1) % self.n_groups}" if cross else f"B{g}"

    def _on_deliver(self, data: bytes, meta: dict) -> None:
        self.delivered += 1
        index = int(data.split(b":", 3)[1])
        h = self._conn_digests.get(index)
        if h is None:
            h = self._conn_digests[index] = hashlib.sha256()
        h.update(data)
        h.update(b"|")

    def collect(self) -> Dict[str, object]:
        """Deterministic metrics; in a shard build these are *partial*
        (this shard's share) and merge via :func:`merge_sharded_metrics`."""
        digests = {i: h.hexdigest() for i, h in self._conn_digests.items()}
        return {
            "n_connections": self.n_connections,
            "n_groups": self.n_groups,
            "established": self.established,
            "failed": self.failed,
            # why they failed (the owned initiators' end reasons): detail,
            # not identity
            "failed_by_reason": dict(sorted(sum(
                (self.nodes[f"A{g}"].mantts.manager.failed_by_reason
                 for g in self.owned_groups), Counter()).items())),
            "closed": self.closed,
            "reopened": self.reopened,
            "delivered": self.delivered,
            # sum of per-group peaks: well-defined under any sharding
            "peak_concurrent": sum(self._peak.values()),
            "conn_digests": digests,
            "delivery_digest": merge_conn_digests(digests),
            "final_time": round(self.sim.now, 9),
            "events_dispatched": self.sim.events_dispatched,
            # per world: a shard worker's only voice is this dict
            "quiescence": self.system.check_quiescent(),
        }


def merge_conn_digests(digests: Dict[int, str]) -> str:
    """Canonical receiver-side digest over per-connection sub-digests.

    Folding in global-connection-index order makes the digest independent
    of *which process* observed each delivery while still covering every
    payload byte and per-connection arrival order — the quantity that
    must be bit-identical between serial and sharded runs.
    """
    acc = hashlib.sha256()
    for index in sorted(digests):
        acc.update(f"{index}:{digests[index]}|".encode())
    return acc.hexdigest()


def grouped_duration(n_connections: int, wave_interval: float = 0.02) -> float:
    """Simulated horizon covering every open, reopen, and close.

    Wave span + the longest lifetime twice (original + reopen) + slack
    for establishment/teardown signalling.  Serial and sharded entry
    points must use the same value — both call this.
    """
    waves = (n_connections + WAVE_SIZE - 1) // WAVE_SIZE
    longest = max(c.lifetime for c in CLASSES)
    return waves * wave_interval + 2 * longest + 2.0


def run_grouped_churn(
    n_connections: int = 1000,
    n_groups: int = 4,
    seed: int = 7,
    duration: Optional[float] = None,
    **kw,
) -> Dict[str, object]:
    """Build, run, and collect one *serial* grouped-churn world."""
    scenario = GroupedChurnScenario(
        n_connections=n_connections, n_groups=n_groups, seed=seed, **kw,
    )
    if duration is None:
        duration = grouped_duration(n_connections, kw.get("wave_interval", 0.02))
    return scenario.run(until=duration).collect()


def build_churn_shard(shard_id: int, **kw) -> GroupedChurnScenario:
    """Shard-worker builder (importable by reference; see
    :func:`repro.shard.worker.shard_worker_main`)."""
    return GroupedChurnScenario(shard_id=shard_id, **kw)


def run_sharded_churn(
    n_connections: int = 1000,
    n_shards: int = 2,
    n_groups: int = 4,
    seed: int = 7,
    duration: Optional[float] = None,
    recv_timeout: float = 300.0,
    **kw,
) -> Dict[str, object]:
    """Run the grouped scenario across ``n_shards`` kernel processes.

    Returns the aggregated metrics (comparable to
    :func:`run_grouped_churn` via :func:`grouped_identity_fields`) plus
    ``coordinator`` barrier stats and the raw per-shard results.
    """
    from repro.shard.coordinator import ShardCoordinator

    if duration is None:
        duration = grouped_duration(n_connections, kw.get("wave_interval", 0.02))
    coordinator = ShardCoordinator(
        builder=build_churn_shard,
        builder_kw=dict(
            n_connections=n_connections, n_groups=n_groups,
            seed=seed, n_shards=n_shards, **kw,
        ),
        n_shards=n_shards,
        until=duration,
        lookahead=TRUNK_DELAY,
        recv_timeout=recv_timeout,
    )
    out = coordinator.run()
    return merge_sharded_metrics(out["shards"], out["coordinator"])


def merge_sharded_metrics(
    shards: List[Dict[str, object]], coordinator: Dict[str, object]
) -> Dict[str, object]:
    """Fold per-shard partial results into serial-comparable metrics."""
    digests: Dict[int, str] = {}
    for result in shards:
        for index, digest in result["conn_digests"].items():
            if index in digests:
                raise ValueError(
                    f"connection {index} delivered on two shards"
                )
            digests[index] = digest
    merged: Dict[str, object] = {
        "n_connections": shards[0]["n_connections"],
        "n_groups": shards[0]["n_groups"],
        "n_shards": len(shards),
        "established": sum(r["established"] for r in shards),
        "failed": sum(r["failed"] for r in shards),
        "failed_by_reason": dict(sorted(sum(
            (Counter(r["failed_by_reason"]) for r in shards),
            Counter()).items())),
        "closed": sum(r["closed"] for r in shards),
        "reopened": sum(r["reopened"] for r in shards),
        "delivered": sum(r["delivered"] for r in shards),
        "peak_concurrent": sum(r["peak_concurrent"] for r in shards),
        "delivery_digest": merge_conn_digests(digests),
        "final_time": max(r["final_time"] for r in shards),
        "events_dispatched": sum(r["events_dispatched"] for r in shards),
        "coordinator": dict(coordinator),
        "shards": shards,
    }
    return merged
