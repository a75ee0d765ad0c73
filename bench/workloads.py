"""The five canonical workloads, built only from public ``repro`` calls.

Every workload is a class with the same three steps, so the runner can
time them identically:

* ``Workload(seed, size)`` builds the world (counted as set-up);
* ``run()`` is the timed section;
* ``outcome()`` validates the outputs and returns the result dictionary
  (unit-operation counts, latency samples, payload bits, the clock span
  they were delivered over, a ``sim_digest`` of everything that must
  repeat exactly, and the public layer counters).

Nothing under ``src/`` is changed or patched here.  The churn worlds are
observed by subclassing the scenario and extending the callbacks it
already has; the stream worlds are wired from ``AdaptiveSystem`` the way
``PointToPointScenario`` wires them, but with a tagged source so that
delivery can be checked message by message.

Inputs come from ``--seed``: the system RNG streams (bit errors, VBR
frame sizes, talk spurts), the path length of the stream worlds, the
wave spacing of the churn worlds and the payload bytes.  The fault
*plan* of ``media_fault`` is part of the workload definition, like its
topology: tail latency under a different fault plan is a different
workload, not a noise sample of this one.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.apps.workloads import AppSource, make_source
from repro.core import churn
from repro.core.system import AdaptiveSystem
from repro.mantts.acd import ACD
from repro.mantts.tsc import APP_PROFILES
from repro.netsim.faults import FaultInjector, FaultSchedule
from repro.netsim.profiles import dual_path, ethernet_10, fddi_100, linear_path
from repro.shard.coordinator import ShardCoordinator
from repro.tko.genexec import codegen_stats
from repro.tko.pdu import PDU_POOL
from repro.transport.loopback import loopback_pair

SERVICE_PORT = 7000

#: full sizes: about 2.5 s of host time per timed run on the 2-core box
#: the bounds were measured on (see README.md for the measurements)
SIZES: Dict[str, Dict[str, Any]] = {
    "churn_mixed": {"connections": 800, "horizon_s": 20.0},
    "bulk_stream": {"total_bytes": 36 * 1024 * 1024, "chunk_bytes": 8192},
    "media_fault": {"sessions_per_kind": 2, "sim_s": 24.0, "faults": 24},
    "loopback_transfer": {"messages": 16_000, "window": 16, "msg_bytes": 1024},
    "sharded_world": {"connections": 750, "groups": 4, "shards": 2},
}

#: the size fields that shrink for warm-up and ``--quick`` runs
_SCALED = ("connections", "total_bytes", "sim_s", "faults", "messages")


def scaled(name: str, fraction: float) -> Dict[str, Any]:
    """The workload's size with every extensive field times ``fraction``."""
    size = dict(SIZES[name])
    for key in _SCALED:
        if key in size:
            value = size[key] * fraction
            size[key] = value if key == "sim_s" else max(1, int(round(value)))
    if "messages" in size:  # whole windows only
        w = size["window"]
        size["messages"] = max(w, size["messages"] // w * w)
    if "total_bytes" in size:
        size["total_bytes"] = max(size["chunk_bytes"], size["total_bytes"])
    if "connections" in size:
        size["connections"] = max(8, size["connections"])
    return size


def _unit(seed: int, salt: str) -> float:
    """A seed-derived number in [-1, 1) for continuous input jitter."""
    return random.Random(f"{seed}|{salt}").uniform(-1.0, 1.0)


def _digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


class _PoolLedger:
    """PDU-pool balance over one world's lifetime (a leak detector)."""

    def __init__(self) -> None:
        self.acquired0 = PDU_POOL.acquired
        self.recycled0 = PDU_POOL.recycled
        self.reused0 = PDU_POOL.reused

    def counters(self) -> Dict[str, float]:
        acquired = PDU_POOL.acquired - self.acquired0
        recycled = PDU_POOL.recycled - self.recycled0
        reused = PDU_POOL.reused - self.reused0
        return {
            "tko.pdu_pool_reuse_frac": reused / acquired if acquired else 0.0,
            "tko.pdu_pool_leaked": float(acquired - recycled),
        }


def _require_balanced_pool(counters: Dict[str, float], errors: List[str]) -> None:
    leaked = counters["tko.pdu_pool_leaked"]
    if leaked:
        errors.append(f"PDU pool leaked {leaked:.0f} shells at quiesce")


class _Traceable:
    """Worlds with one telemetry clock: the traced run attaches to it."""

    def trace(self) -> None:
        import spans

        spans.attach(self.system)


def _session_counters(sessions: List[Any]) -> Dict[str, float]:
    """TKO counters summed over the sender sessions a world opened."""
    msgs = sum(s.stats.msgs_sent for s in sessions)
    pdus = sum(s.stats.pdus_sent for s in sessions)
    retx = sum(s.stats.retransmissions for s in sessions)
    fast = sum(getattr(s.executor, "fast_sends", 0) for s in sessions)
    return {
        "tko.pdus_sent": float(pdus),
        "tko.retransmissions": float(retx),
        "tko.retx_frac": retx / pdus if pdus else 0.0,
        "tko.fast_path_frac": fast / msgs if msgs else 0.0,
        "mantts.reconfigurations": float(
            sum(s.stats.reconfigurations for s in sessions)),
    }


def _system_counters(systems: List[AdaptiveSystem], payload_bytes: int,
                     messages: int) -> Dict[str, float]:
    """Counters every world exposes: kernel, links, hosts, caches."""
    out: Dict[str, float] = {
        "sim.events": float(sum(s.sim.events_dispatched for s in systems))}
    links = getattr(systems[0].network, "links", None)   # real fabrics have none
    if links:
        stats = [link.stats for link in links.values()]
        out["netsim.frames"] = float(sum(s.enqueued for s in stats))
        out["netsim.drops"] = float(sum(
            s.dropped_overflow + s.dropped_down + s.dropped_mtu for s in stats))
    nodes = [n for s in systems for n in s.nodes.values()]
    copies = sum(n.host.copy_meter.copies for n in nodes)
    copied = sum(n.host.copy_meter.bytes_copied for n in nodes)
    out["host.copies_per_msg"] = copies / messages if messages else 0.0
    out["host.bytes_copied_per_payload_byte"] = (
        copied / payload_bytes if payload_bytes else 0.0)
    # a session shape misses the template cache once, when first stored
    synthesizers = [n.protocol.synthesizer for n in nodes]
    sessions = sum(s.sessions_synthesized for s in synthesizers)
    shapes = sum(len(c) for c in {id(s.templates): s.templates
                                  for s in synthesizers}.values())
    out["tko.template_hit_frac"] = 1.0 - shapes / sessions if sessions else 0.0
    snaps = [n.mantts.manager.snapshot() for n in nodes]
    out["host.connmgr_timer_coalesced"] = sum(
        s["timer_group_coalesced"] for s in snaps)
    out["host.connmgr_probe_cache_hits"] = sum(s["probe_cache_hits"] for s in snaps)
    opened = sum(s["conn_opened_total"] for s in snaps)
    out["mantts.scs_cache_hit_frac"] = (
        sum(s["scs_cache_hits"] for s in snaps) / opened if opened else 0.0)
    return out


# ======================================================================
# churn worlds: observed through the callbacks the scenarios already have
# ======================================================================
_CLASS_BY_NAME = {c.name.encode(): c for c in churn.CLASSES}


def _reliable(cls: churn.ConnClass) -> bool:
    quant, qual = cls.acd_kw["quantitative"], cls.acd_kw["qualitative"]
    return (quant.loss_tolerance == 0.0 and qual.ordered
            and qual.duplicate_sensitive)


class _LifecycleProbe:
    """Mixin recording set-up latency and per-connection delivery.

    Sits in front of ``ChurnScenario`` / ``GroupedChurnScenario`` in the
    MRO; each hook records and then defers to the scenario's own method,
    so the simulated behaviour (and its delivery digest) is unchanged.
    """

    def __init__(self, **kw) -> None:
        self.open_at: Dict[int, float] = {}
        self.setup_ms: List[float] = []
        self.established_by_index: Dict[int, int] = {}
        self.rx: Dict[int, List[int]] = {}
        self.sessions: List[Any] = []
        self.payload_bytes = 0
        self.bad_payloads = 0
        self.last_delivery = 0.0
        super().__init__(**kw)
        _condition_lan(self.network, kw["seed"])

    def _open_one(self, index: int, reopen: bool) -> None:
        self.open_at[index] = self.system.sim.now
        super()._open_one(index, reopen)

    def _on_connected(self, conn, state: dict) -> None:
        index = state["index"]
        self.setup_ms.append((self.system.sim.now - self.open_at[index]) * 1e3)
        self.established_by_index[index] = (
            self.established_by_index.get(index, 0) + 1)
        self.sessions.append(conn.session)
        super()._on_connected(conn, state)

    def _on_deliver(self, data: bytes, meta: dict) -> None:
        super()._on_deliver(data, meta)
        data = bytes(data)
        name, index, m, pad = data.split(b":", 3)
        cls = _CLASS_BY_NAME[name]
        want = max(0, cls.message_bytes - (len(data) - len(pad)))
        if pad != b"x" * want:
            self.bad_payloads += 1
        self.payload_bytes += len(data)
        self.last_delivery = self.system.sim.now
        self.rx.setdefault(int(index), []).append(int(m))

    # ------------------------------------------------------------------
    def lifecycle_report(self, class_of) -> Dict[str, Any]:
        """Validate exactly-once in-order delivery per reliable lifecycle."""
        broken = 0
        for index, generations in self.established_by_index.items():
            cls = class_of(index)
            if not _reliable(cls):
                continue
            if self.rx.get(index, []) != list(range(cls.messages)) * generations:
                broken += 1
        return {
            "setup_ms": self.setup_ms,
            "broken_lifecycles": broken,
            "bad_payloads": self.bad_payloads,
            "payload_bytes": self.payload_bytes,
            "delivered": sum(len(v) for v in self.rx.values()),
            "last_delivery": self.last_delivery,
        }


def _wave_interval(seed: int) -> float:
    """Seeded wave spacing: 20 ms +/- 2 %, so set-up latency (which
    depends on how far successive waves' negotiations overlap) moves
    smoothly with the seed instead of repeating to the last digit."""
    return 0.02 * (1.0 + 0.02 * _unit(seed, "wave-interval"))


def _condition_lan(network, seed: int) -> None:
    """Make the churn LAN error free and give it a seeded length.

    Bit errors: on the stock 1e-6 LAN about 30 of 29,000 frames are
    corrupted, and *which* 30 decides whether the one signalling session
    the negotiations share stalls for a retransmission timeout;
    open->connected p50 then lands anywhere between 100 and 480 ms from
    seed to seed (README.md, "Findings").  A regression bound cannot sit
    on that, so the churn worlds measure the control path on a clean LAN
    (``Network.set_link_ber``), where set-up latency is queueing.

    Length: every propagation delay is stretched by 0-10 %, drawn from the
    seed, so simulated latencies move smoothly with it.  Never shrunk:
    the shard lookahead (``TRUNK_DELAY``) must stay a lower bound.
    """
    stretch = 1.05 + 0.05 * _unit(seed, "lan-length")
    for (u, v), link in network.links.items():
        network.set_link_ber(u, v, 0.0, bidirectional=False)
        link.delay *= stretch


class _ProbedChurn(_LifecycleProbe, churn.ChurnScenario):
    pass


class _ProbedGroupedChurn(_LifecycleProbe, churn.GroupedChurnScenario):
    def __init__(self, traced: bool = False, **kw) -> None:
        super().__init__(**kw)
        self._pool = _PoolLedger()
        self._recorder = None
        if traced:
            # worker side of a traced run: same wrappers and telemetry as
            # the single-process worlds (see spans.py)
            import spans

            self._recorder = spans.attach(self.system, fresh=True)

    def collect(self) -> Dict[str, object]:
        out = dict(super().collect())
        report = self.lifecycle_report(self._class_of)
        messages = report["delivered"]
        out["bench"] = {
            **report,
            "counters": {
                **_system_counters([self.system], report["payload_bytes"], messages),
                **_session_counters(self.sessions),
                **self._pool.counters(),
            },
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "trace": (None if self._recorder is None
                      else self._recorder.finish()),
        }
        return out


def build_probed_shard(shard_id: int, **kw) -> _ProbedGroupedChurn:
    """Shard-worker builder (module level: workers import it by name)."""
    return _ProbedGroupedChurn(shard_id=shard_id, **kw)


def _lifecycle_outcome(report: Dict[str, Any], metrics: Dict[str, Any],
                       errors: List[str]) -> Dict[str, Any]:
    """The shared result shape of the two churn worlds."""
    attempted = metrics["established"] + metrics["failed"]
    failed = metrics["failed"] + report["broken_lifecycles"]
    if report["bad_payloads"]:
        errors.append(f"{report['bad_payloads']} delivered payloads damaged")
    if report["broken_lifecycles"]:
        errors.append(f"{report['broken_lifecycles']} reliable connections not "
                      "delivered exactly once in order")
    if metrics["failed"]:
        errors.append(f"{metrics['failed']} opens failed")
    return {
        "attempted": attempted,
        "failed": failed,
        "latency_ms": report["setup_ms"],
        "payload_bits": report["payload_bytes"] * 8,
        "clock_s": report["last_delivery"],   # first open is at t = 0
    }


class ChurnMixed(_Traceable):
    """``ChurnScenario``: mixed-TSC open/send/close churn on one host pair."""

    name = "churn_mixed"

    def __init__(self, seed: int, size: Dict[str, Any]) -> None:
        self.size = size
        self.pool = _PoolLedger()
        self.codegen0 = codegen_stats["rendered"]
        self.scenario = _ProbedChurn(
            n_connections=size["connections"], seed=seed,
            wave_interval=_wave_interval(seed),
        )
        self.system = self.scenario.system

    def run(self) -> None:
        self.scenario.run(until=self.size["horizon_s"])

    def outcome(self) -> Dict[str, Any]:
        sc = self.scenario
        metrics = sc.collect()
        report = sc.lifecycle_report(lambda i: churn.CLASSES[i % len(churn.CLASSES)])
        errors: List[str] = []
        out = _lifecycle_outcome(report, metrics, errors)
        counters = {
            **_system_counters([sc.system], report["payload_bytes"], report["delivered"]),
            **_session_counters(sc.sessions),
            **self.pool.counters(),
            "tko.codegen_rendered": float(codegen_stats["rendered"] - self.codegen0),
        }
        _require_balanced_pool(counters, errors)
        out.update(
            errors=errors, counters=counters,
            sim_digest=_digest(churn.identity_fields(metrics),
                               metrics["events_dispatched"], report["setup_ms"]),
        )
        return out


class ShardedWorld:
    """Grouped churn across shard worker processes, checked against a
    serial run of the same world."""

    name = "sharded_world"

    def __init__(self, seed: int, size: Dict[str, Any]) -> None:
        self.size = size
        self.kw = dict(
            n_connections=size["connections"], n_groups=size["groups"],
            mode="coalesced", seed=seed, wave_interval=_wave_interval(seed),
        )
        self.until = churn.grouped_duration(
            size["connections"], wave_interval=self.kw["wave_interval"])
        self.coordinator = ShardCoordinator(
            builder=build_probed_shard,
            builder_kw=dict(self.kw, n_shards=size["shards"]),
            n_shards=size["shards"], until=self.until,
            lookahead=churn.TRUNK_DELAY, recv_timeout=120.0,
        )
        self.merged: Optional[Dict[str, Any]] = None

    def trace(self) -> None:
        # the workers enable telemetry on their own systems as they build
        self.coordinator.builder_kw["traced"] = True

    def run(self) -> None:
        out = self.coordinator.run()
        self.merged = churn.merge_sharded_metrics(out["shards"], out["coordinator"])

    def serial_reference(self) -> Dict[str, Any]:
        """One serial run of the same world: identity fields + its wall."""
        scenario = _ProbedGroupedChurn(**self.kw)
        w0 = perf_counter()
        scenario.run(until=self.until)
        wall = perf_counter() - w0
        return {"digest": _digest(churn.grouped_identity_fields(scenario.collect())),
                "wall_s": wall}

    def outcome(self) -> Dict[str, Any]:
        merged = self.merged
        shards = [r["bench"] for r in merged["shards"]]
        report = {
            "setup_ms": sorted(ms for b in shards for ms in b["setup_ms"]),
            "broken_lifecycles": sum(b["broken_lifecycles"] for b in shards),
            "bad_payloads": sum(b["bad_payloads"] for b in shards),
            "payload_bytes": sum(b["payload_bytes"] for b in shards),
            "last_delivery": max(b["last_delivery"] for b in shards),
        }
        errors: List[str] = []
        out = _lifecycle_outcome(report, merged, errors)
        identity = churn.grouped_identity_fields(merged)
        for r in merged["shards"]:
            if r["pdu_acquired"] != r["pdu_recycled"]:
                errors.append(f"shard {r['shard_id']} leaked "
                              f"{r['pdu_acquired'] - r['pdu_recycled']} PDU shells")
        coord = merged["coordinator"]
        counters: Dict[str, float] = {}
        for b in shards:  # extensive counters add; fractions are averaged
            for key, value in b["counters"].items():
                counters[key] = counters.get(key, 0.0) + value
        for key in counters:
            if key.endswith("_frac") or key.startswith("host.copies") \
                    or key.startswith("host.bytes_copied"):
                counters[key] /= len(shards)
        counters.update({
            "shard.epochs": float(coord["epochs"]),
            "shard.barrier_wait_s": coord["barrier_wait_s"],
            "shard.cross_frames": float(coord["cross_frames"]),
            "shard.cross_bytes": float(coord["cross_bytes"]),
            "shard.frames_per_epoch":
                coord["cross_frames"] / coord["epochs"] if coord["epochs"] else 0.0,
        })
        out.update(
            errors=errors, counters=counters,
            sim_digest=_digest(identity, report["setup_ms"]),
            identity_digest=_digest(identity),
            worker_maxrss_kb=sum(b["maxrss_kb"] for b in shards),
            worker_traces=[b["trace"] for b in shards if b["trace"]],
            worker_wait_s=[r["shard_barrier_wait_s"] for r in merged["shards"]],
        )
        return out


# ======================================================================
# stream worlds: AdaptiveSystem wired as PointToPointScenario wires it
# ======================================================================
class TaggedSource(AppSource):
    """Reliable-class source whose messages carry ``tag:seq:`` + seeded
    filler, so the receiver can check order, uniqueness and content."""

    def __init__(self, sim, sender, seed: int, tag: str, sizes, gap: float,
                 limit: Optional[int] = None) -> None:
        super().__init__(sim, sender, tag)
        self.tag = tag
        self.sizes = sizes      #: callable seq -> message size in bytes
        self.gap = gap
        self.limit = limit
        rng = random.Random(f"{seed}|{tag}|filler")
        self.filler = rng.randbytes(16 * 1024)

    def payload(self, seq: int) -> bytes:
        head = f"{self.tag}:{seq:08d}:".encode()
        return head + self.filler[len(head):self.sizes(seq)]

    def _body(self):
        seq = 0
        while self.limit is None or seq < self.limit:
            self.emit(self.payload(seq))
            seq += 1
            yield self.gap


class _TaggedSink:
    """Receiver for one :class:`TaggedSource`: exactly once, in order,
    payload intact."""

    def __init__(self) -> None:
        self.source: Optional[TaggedSource] = None   #: set once it is built
        self.next_seq = 0
        self.errors = 0
        self.latency_ms: List[float] = []
        self.bytes = 0
        self.last_at = 0.0

    def on_deliver(self, data: bytes, meta: dict) -> None:
        data = bytes(data)
        seq = int(data.split(b":", 2)[1])
        if seq != self.next_seq or data != self.source.payload(seq):
            self.errors += 1
        self.next_seq = seq + 1
        self.latency_ms.append(meta["latency"] * 1e3)
        self.bytes += len(data)
        self.last_at = meta["sent_at"] + meta["latency"]


class _CountingSink:
    """Receiver for a loss-tolerant media stream: counts, never judges."""

    def __init__(self) -> None:
        self.count = 0
        self.bytes = 0

    def on_deliver(self, data: bytes, meta: dict) -> None:
        self.count += 1
        self.bytes += len(data)


def _acd_for(app: str, port: int) -> ACD:
    profile = APP_PROFILES[app]
    return ACD(participants=("B",), quantitative=profile.quantitative(),
               qualitative=profile.qualitative(), service_port=port)


def _path_scale(seed: int) -> float:
    """Seeded path length: propagation delay +/- 5 % of the profile's."""
    return 1.0 + 0.05 * _unit(seed, "path-length")


class _StreamWorld(_Traceable):
    """Common shape of ``bulk_stream`` and ``media_fault``."""

    def _build_hosts(self, seed: int, network_for) -> None:
        self.pool = _PoolLedger()
        self.codegen0 = codegen_stats["rendered"]
        self.system = AdaptiveSystem(seed=seed)
        self.system.attach_network(network_for(self.system))
        self.a = self.system.node("A", mips=400.0)
        self.b = self.system.node("B", mips=400.0)
        self.open_failures: List[str] = []
        self.connections: List[Any] = []

    def _open(self, app: str, port: int, sink, **kw):
        self.b.mantts.register_service(port, on_deliver=sink.on_deliver)
        conn = self.a.mantts.open(
            _acd_for(app, port), on_failed=self.open_failures.append, **kw)
        self.connections.append(conn)
        return conn

    def _quiesce(self, sources, drain: float) -> None:
        """Stop sending, let reliable streams drain, close, settle.

        Closing sessions hold PDUs until their last timers run out, so the
        settle is long in simulated time; it costs few events."""
        sim = self.system.sim
        for source in sources:
            source.stop()
        self.system.run(until=sim.now + drain)
        for conn in self.connections:
            if not conn._failed:
                conn.close()
        self.system.run(until=sim.now + 60.0)

    def _counters(self, payload_bytes: int, messages: int) -> Dict[str, float]:
        sessions = [c.session for c in self.connections if c.session is not None]
        actions = sum(len(c.adaptation.events) for c in self.connections
                      if c.adaptation is not None)
        return {
            **_system_counters([self.system], payload_bytes, messages),
            **_session_counters(sessions),
            **self.pool.counters(),
            "tko.codegen_rendered": float(codegen_stats["rendered"] - self.codegen0),
            "mantts.adaptation_actions": float(actions),
        }


class BulkStream(_StreamWorld):
    """One file-transfer session streaming 8 KiB messages over FDDI."""

    name = "bulk_stream"

    def __init__(self, seed: int, size: Dict[str, Any]) -> None:
        self.size = size
        profile = fddi_100()
        profile = profile.scaled(delay=profile.delay * _path_scale(seed))
        self._build_hosts(seed, lambda system: linear_path(
            system.sim, profile, ("A", "B"), n_switches=3, rng=system.rng))
        self.sink = _TaggedSink()
        conn = self._open("file-transfer", SERVICE_PORT, self.sink)
        chunk = size["chunk_bytes"]
        self.n_messages = math.ceil(size["total_bytes"] / chunk)
        # BulkSource's pacing: hand control back every 0.5 ms and let the
        # transport's window, not the source, govern the rate
        self.source = TaggedSource(self.system.sim, conn, seed, "bulk",
                                   lambda seq: chunk, gap=0.0005,
                                   limit=self.n_messages)
        self.sink.source = self.source
        self.source.start(0.05)
        # 100 Mb/s moves the volume in total_bytes*8/1e8 s; 3x covers the
        # window-limited rate actually achieved
        self.horizon = 0.05 + 3.0 * size["total_bytes"] * 8 / profile.bandwidth_bps + 1.0

    def run(self) -> None:
        self.system.run(until=self.horizon)
        self._quiesce([self.source], drain=0.0)

    def outcome(self) -> Dict[str, Any]:
        sink, errors = self.sink, []
        sent = self.source.messages_sent
        missing = sent - sink.next_seq
        if self.open_failures:
            errors.append(f"open failed: {self.open_failures[0]}")
        if sent != self.n_messages:
            errors.append(f"source sent {sent} of {self.n_messages} messages")
        if sink.errors or missing:
            errors.append(f"{sink.errors} misordered/damaged, {missing} missing")
        counters = self._counters(sink.bytes, len(sink.latency_ms))
        _require_balanced_pool(counters, errors)
        return {
            "attempted": self.n_messages + 1,
            "failed": len(self.open_failures) + sink.errors + max(0, missing),
            "latency_ms": sink.latency_ms,
            "payload_bits": sink.bytes * 8,
            "clock_s": sink.last_at - 0.05,     # first send to last delivery
            "errors": errors,
            "counters": counters,
            "sim_digest": _digest(sink.latency_ms, sink.bytes,
                                  self.system.sim.events_dispatched),
        }


#: the media_fault fault plan: FaultSchedule.random(FAULT_PLAN_SEED, ...)
#: over every link of the dual path.  Chosen once (not per --seed) because
#: it exercises every adaptation action -- failover, retune, restore,
#: segue, mid-stream renegotiation, degrade -- while the reliable session
#: still delivers everything; see the module docstring.
FAULT_PLAN_SEED = 2

#: standing bit-error rate of the primary path (a marginal fibre span;
#: fddi_100 itself is 1e-9).  About 1.6 % of the reliable session's frames
#: are hit, so its latency tail is made of ~50 independent loss events and
#: p99 sits on the one-retransmission-timeout plateau instead of flipping
#: between "no loss in the top 1 %" and "several" from seed to seed.
PRIMARY_BER = 1.2e-6

_MEDIA_KINDS = (
    ("full-motion-video-compressed", "video-cbr", {"fps": 30.0, "frame_bytes": 6000}),
    ("tele-conferencing", "video-vbr", {"fps": 30.0, "mean_frame_bytes": 512}),
    ("voice-conversation", "voice", {}),
)


class MediaFault(_StreamWorld):
    """Isochronous media plus one reliable session over a faulty dual path."""

    name = "media_fault"

    def __init__(self, seed: int, size: Dict[str, Any]) -> None:
        self.size = size
        scale = _path_scale(seed)
        primary, backup = fddi_100(), ethernet_10()
        self._build_hosts(seed, lambda system: dual_path(
            system.sim, primary.scaled(delay=primary.delay * scale, ber=PRIMARY_BER),
            backup.scaled(delay=backup.delay * scale), rng=system.rng))
        sim, rng = self.system.sim, self.system.rng
        self.media: List[Any] = []
        port = SERVICE_PORT
        for k in range(size["sessions_per_kind"]):
            for app, kind, kw in _MEDIA_KINDS:
                port += 1
                sink = _CountingSink()
                conn = self._open(app, port, sink, adaptation=True)
                source = make_source(kind, sim, conn,
                                     rng=rng.stream(f"bench-{kind}-{k}"), **kw)
                source.start(0.05)
                self.media.append((source, sink))
        # the reliable background session: 100 messages/s of seeded sizes,
        # the only stream whose latency no playout buffer pins
        sizes = random.Random(f"{seed}|background-sizes")
        size_of = [sizes.randint(256, 1400) for _ in range(4096)]
        self.sink = _TaggedSink()
        conn = self._open("file-transfer", port + 1, self.sink, adaptation=True)
        self.source = TaggedSource(sim, conn, seed, "bg",
                                   lambda seq: size_of[seq % 4096], gap=0.01)
        self.sink.source = self.source
        self.source.start(0.05)
        plan = FaultSchedule.random(
            FAULT_PLAN_SEED, list(self.system.network.links),
            horizon=size["sim_s"] * 0.9, n_faults=size["faults"])
        self.injector = FaultInjector(sim, self.system.network, plan).arm()

    def run(self) -> None:
        self.system.run(until=self.size["sim_s"])
        self._quiesce([s for s, _ in self.media] + [self.source], drain=3.0)

    def outcome(self) -> Dict[str, Any]:
        sink, errors = self.sink, []
        sent = self.source.messages_sent
        missing = sent - sink.next_seq
        if self.open_failures:
            errors.append(f"open failed: {self.open_failures[0]}")
        if sink.errors or missing:
            errors.append(f"reliable session: {sink.errors} misordered/damaged, "
                          f"{missing} missing")
        media_sent = sum(s.messages_sent for s, _ in self.media)
        media_bytes = sum(k.bytes for _, k in self.media)
        media_got = sum(k.count for _, k in self.media)
        counters = self._counters(sink.bytes + media_bytes,
                                  len(sink.latency_ms) + media_got)
        counters["mechanisms.media_delivered_frac"] = (
            media_got / media_sent if media_sent else 0.0)
        # tko.pdu_pool_leaked is reported but not enforced here: frames that
        # are corrupted or dropped on a failed link keep their pooled shell
        # at this commit (README.md, "Findings"), so the pool cannot balance
        # on an impaired path; the other four workloads do enforce it
        return {
            # unit operation: one reliable-class application message (the
            # isochronous streams tolerate loss by contract; what they
            # deliver shows in goodput_mbps)
            "attempted": sent + len(self.connections),
            "failed": len(self.open_failures) + sink.errors + max(0, missing),
            "latency_ms": sink.latency_ms,
            "payload_bits": (sink.bytes + media_bytes) * 8,
            "clock_s": self.size["sim_s"],
            "errors": errors,
            "counters": counters,
            "sim_digest": _digest(sink.latency_ms, media_got, media_bytes,
                                  self.injector.trace,
                                  self.system.sim.events_dispatched),
        }


# ======================================================================
# loopback_transfer: two systems, one thread, the real wall clock
# ======================================================================
class LoopbackTransfer(_Traceable):
    """Closed loop, one client, window W: send W messages, drive both
    worlds until all W are delivered, repeat.  In-process -- no socket,
    no NIC; every frame still crosses the v2 wire codec."""

    name = "loopback_transfer"
    CONNECT_CAP = 20.0
    WINDOW_CAP = 20.0

    def __init__(self, seed: int, size: Dict[str, Any]) -> None:
        self.size = size
        self.pool = _PoolLedger()
        self.ta, self.tb = loopback_pair(seed=seed)
        self.sys_a = AdaptiveSystem(seed=seed, transport=self.ta)
        self.sys_b = AdaptiveSystem(seed=seed + 1, transport=self.tb)
        self.a = self.sys_a.node("A", mips=400.0)
        self.b = self.sys_b.node("B", mips=400.0)
        self.system = self.sys_a   # telemetry is process-wide: covers both
        self.got = 0
        self.bad = 0
        self.next_seq = 0
        rng = random.Random(f"{seed}|loopback-filler")
        self.filler = rng.randbytes(size["msg_bytes"])
        self.b.mantts.register_service(SERVICE_PORT, on_deliver=self._on_deliver)
        outcome: Dict[str, Any] = {}
        self.conn = self.a.mantts.open(
            ACD(participants=("B",), service_port=SERVICE_PORT),
            on_connected=lambda c: outcome.setdefault("connected", True),
            on_failed=lambda reason: outcome.setdefault("failed", reason),
        )
        self.sys_a.run(until=self.ta.clock.now() + self.CONNECT_CAP,
                       stop_when=lambda: bool(outcome))
        if not outcome.get("connected"):
            raise RuntimeError("loopback connect failed: "
                               + str(outcome.get("failed", "timed out")))
        self.window_ms: List[float] = []
        self.wall_s = 0.0

    def _payload(self, seq: int) -> bytes:
        head = f"lo:{seq:08d}:".encode()
        return head + self.filler[len(head):]

    def _on_deliver(self, data: bytes, meta: dict) -> None:
        if bytes(data) != self._payload(self.next_seq):
            self.bad += 1
        self.next_seq += 1
        self.got += 1

    def run(self) -> None:
        conn, clock, window = self.conn, self.ta.clock, self.size["window"]
        run, payload = self.sys_a.run, self._payload
        sent = 0
        t_start = perf_counter()
        while sent < self.size["messages"]:
            target = sent + window
            w0 = perf_counter()
            for seq in range(sent, target):
                conn.send(payload(seq))
            # poll=0: the loop is closed, so never sleep while a window
            # is in flight
            run(until=clock.now() + self.WINDOW_CAP,
                stop_when=lambda: self.got >= target, poll=0.0)
            self.window_ms.append((perf_counter() - w0) * 1e3)
            if self.got < target:
                break   # a window timed out: counted as failed below
            sent = target
        self.wall_s = perf_counter() - t_start
        conn.close()
        leaked = lambda: (PDU_POOL.acquired - self.pool.acquired0
                          != PDU_POOL.recycled - self.pool.recycled0)
        run(until=clock.now() + 0.05)
        run(until=clock.now() + 5.0, stop_when=lambda: not leaked())

    def outcome(self) -> Dict[str, Any]:
        errors: List[str] = []
        n = self.size["messages"]
        missing = n - self.got
        if missing or self.bad:
            errors.append(f"{missing} messages missing, {self.bad} misordered/damaged")
        fa, fb = self.ta.network, self.tb.network
        leases = sum(f.arena.live_leases for f in (fa, fb))
        payload = self.got * self.size["msg_bytes"]
        counters = {
            **_system_counters([self.sys_a, self.sys_b], payload, self.got),
            **_session_counters([self.conn.session]),
            **self.pool.counters(),
            "transport.frames_sent": float(fa.frames_sent + fb.frames_sent),
            "transport.send_errors": float(fa.send_errors + fb.send_errors),
            "transport.slab_leases_live": float(leases),
        }
        _require_balanced_pool(counters, errors)
        # transport.slab_leases_live is reported, not enforced: at this
        # commit the receive path never releases a decoded payload's lease
        # (README.md, "Findings"); one lease per delivered frame stays live
        self.ta.close()
        self.tb.close()
        return {
            "attempted": n + 1,
            "failed": missing + self.bad,
            "latency_ms": self.window_ms,
            "payload_bits": payload * 8,
            "clock_s": self.wall_s,
            "wall_s": self.wall_s,      # the transfer loop, not the quiesce
            "errors": errors,
            "counters": counters,
            "sim_digest": "",   # wall-clock world: nothing repeats exactly
        }


WORKLOADS = {
    cls.name: cls
    for cls in (ChurnMixed, BulkStream, MediaFault, LoopbackTransfer, ShardedWorld)
}
