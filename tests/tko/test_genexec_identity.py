"""Rendered closures: bit-identity, fast-path engagement, fallback contract.

``repro.tko.genexec`` renders one specialized send/recv closure per
session shape; the executor binds it at first use and its guard hands
whatever it does not specialize for to ``general_send``.  Three families
of guarantees:

* **identity** — on the connection-churn workload the shipped executor
  produces the same delivery digest as the oracle, per seed, and both
  reproduce the frozen values in ``tests/golden.py``.
* **engagement** — on a shape it specializes for (teleconference SCS,
  wire-size ``bytes`` payloads) every send takes the rendered closure;
  ``fast_sends`` counts them so identity checks cannot pass vacuously.
* **fallback** — anything the fast path does not specialize for
  (telemetry on, observers attached, protocol-graph layers, mutable
  buffers, multi-fragment messages) drops to the general route *before*
  consuming any state, so behaviour stays bit-identical.  The comparison
  run calls ``general_send`` directly and must count no fast send.
"""

from __future__ import annotations

import pytest

from repro.core.churn import identity_fields, run_churn
from repro.mantts.acd import ACD
from repro.mantts.monitor import NetworkState
from repro.mantts.transform import specify_scs
from repro.mantts.tsc import APP_PROFILES
from repro.tko import genexec
from repro.unites.obs.telemetry import TELEMETRY

from tests import golden
from tests.conftest import EXECUTORS, TwoHosts


def teleconference_config():
    """The §2.1(B) teleconference SCS via the real Stage I/II transform.

    The richest config that runs the fast path: tracked delivery,
    retransmission recovery, Internet-checksum trailer, window+rate
    transmission control.
    """
    profile = APP_PROFILES["tele-conferencing"]
    acd = ACD(
        participants=("B",),
        quantitative=profile.quantitative(),
        qualitative=profile.qualitative(),
    )
    lan = NetworkState("A", "B", True, 0.004, 0.004, 10e6, 1500, 1e-6, 0.0, 0.0, 3)
    return specify_scs(acd, lan).config


def conference_run(cfg, payloads, mutate=None, general=False):
    """Run one A→B conference; return ``(identity tuple, fast_sends)``.
    ``mutate(world, sender)`` runs after connect, before the sends (for
    fallback-trigger setups); ``general`` sends through the executor's
    general route, never offering the rendered closure the payload."""
    w = TwoHosts(seed=5)
    w.listen(cfg)
    sender = w.open(cfg)
    w.sim.run(until=0.05)
    if mutate is not None:
        mutate(w, sender)
    send = sender.executor.general_send if general else sender.send
    t = 0.05
    for data in payloads:
        t += 0.02
        w.sim.run(until=t)
        send(data)
    w.sim.run(until=t + 2.0)
    identity = (
        len(w.delivered),
        sum(len(d) for d, _ in w.delivered),
        w.sim.now,
        sender.stats.pdus_sent,
        sender.stats.retransmissions,
        w.ha.cpu.instructions_retired,
        w.hb.cpu.instructions_retired,
    )
    return identity, sender.executor.fast_sends


class TestChurnIdentity:
    """The delivery digest is the cross-executor identity check."""

    # ids keep the "coalesced-" prefix they had when the matrix also had
    # a manager-mode axis, so test-history tooling still finds them
    @pytest.mark.parametrize(
        "seed", [pytest.param(s, id=f"coalesced-{s}") for s in (1, 2, 3)])
    def test_executors_bit_identical(self, seed, executors):
        for kind in EXECUTORS:
            with executors(kind):
                ident = identity_fields(run_churn(40, seed=seed))
            assert ident == golden.CHURN_40[seed], (
                f"{kind} diverged from the golden run at seed {seed}"
            )


class TestFastPathEngagement:
    def test_wire_size_bytes_take_fast_path(self):
        cfg = teleconference_config()
        payloads = [b"\xa5" * 512] * 50
        general, general_fast = conference_run(cfg, payloads, general=True)
        rendered, fast = conference_run(cfg, payloads)
        assert general_fast == 0
        assert fast == len(payloads), "every send must take the fast path"
        assert rendered == general

    def test_warm_template_records_codegen_shape(self):
        # the template cache's diagnostic linkage: a warmed template
        # remembers which generated-closure shape serves it
        cfg = teleconference_config()
        w = TwoHosts(seed=5)
        w.listen(cfg)
        sender = w.open(cfg)
        w.sim.run(until=0.1)
        template = w.pa.synthesizer.templates.peek(cfg)
        assert template is not None
        assert template.codegen == sender.executor.codegen_key
        assert template.codegen[-3:] == ("window-rate", "retransmit", "internet")

    def test_codegen_factory_is_shared_across_sessions(self):
        cfg = teleconference_config()
        before = dict(genexec.codegen_stats)
        conference_run(cfg, [b"x" * 64] * 3)
        mid = dict(genexec.codegen_stats)
        conference_run(cfg, [b"x" * 64] * 3)
        after = dict(genexec.codegen_stats)
        assert mid["installed"] > before["installed"]
        assert after["installed"] > mid["installed"]
        # the second world re-uses the first world's rendered factories
        assert after["rendered"] == mid["rendered"]
        assert after["factory_hits"] > mid["factory_hits"]


class TestFallback:
    """Unspecialized shapes must fall back — and stay bit-identical."""

    def _identical_with_fallback(self, payloads, mutate=None, engaged=0):
        cfg = teleconference_config()
        general, general_fast = conference_run(cfg, payloads, mutate, general=True)
        guarded, fast = conference_run(cfg, payloads, mutate)
        assert general_fast == 0
        assert fast == engaged
        assert guarded == general

    def test_bytearray_payload_falls_back(self):
        # mutable buffers: the general route's ctor snapshots them, the
        # fast path would alias them
        self._identical_with_fallback([bytearray(b"\xa5" * 256)] * 20)

    def test_multi_fragment_message_falls_back(self):
        # larger than the segment size → segmentation loop, not the
        # single-PDU fast path
        self._identical_with_fallback([b"\xa5" * 60_000] * 5)

    def test_observers_force_fallback(self):
        def attach(world, sender):
            sender.observers.append(lambda event, session, **details: None)

        self._identical_with_fallback([b"\xa5" * 256] * 20, mutate=attach)

    def test_telemetry_forces_fallback(self):
        cfg = teleconference_config()
        payloads = [b"\xa5" * 256] * 20
        try:
            TELEMETRY.enable()
            _, fast = conference_run(cfg, payloads)
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert fast == 0

    def test_mixed_traffic_splits_between_paths(self):
        # alternating wire-size bytes and mutable buffers: only the
        # former engage, and the stream stays identical to the general route
        payloads = []
        for i in range(20):
            payloads.append(b"\xa5" * 256 if i % 2 == 0 else bytearray(b"\x5a" * 256))
        self._identical_with_fallback(payloads, engaged=10)
