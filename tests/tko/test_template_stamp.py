"""A template hit *stamps* a session: shared artefacts, fresh state.

What is a function of (config signature, host ``CpuCosts``) — the
compiled pipeline and the generated-closure artefacts riding on it — is
made once and shared through the ``Template``; what a session may never
use (its random stream, its send closure, its receive closure) is made at
first use; ``recompile`` invalidates installed closures instead of
rebuilding them.  None of that may be observable in what a session *is*:

* **equality with cold synthesis** — for every Table 1 profile on two
  reference paths, a session stamped from a warm template (retuned
  numbers, a sibling that segued, another host's cost table) has the
  charges, codegen shape, mechanism classes and live numeric parameters
  of a cold synthesis of the same configuration;
* **sharing** — hits on one host hold the *same* pipeline object, hosts
  with different ``CpuCosts`` never do, a diverged session leaves it;
* **first use and invalidation** — closures appear in
  ``executor.__dict__`` only once their direction is used, disappear on
  segue / update_config / repipeline, and the next use binds against the
  new mechanisms while ``fast_sends`` keeps counting;
* **cost gate** — the GC-tracked objects one hit creates stay bounded.
"""

from __future__ import annotations

import gc
import math
import statistics

import pytest

from repro.core.churn import ChurnScenario
from repro.host.cpu import CpuCosts
from repro.host.nic import Host
from repro.mantts.acd import ACD
from repro.mantts.monitor import NetworkState
from repro.mantts.transform import specify_scs
from repro.mantts.tsc import APP_PROFILES
from repro.mechanisms.acknowledgment import SelectiveAck
from repro.mechanisms.buffer_mgmt import FixedBuffers, VariableBuffers
from repro.mechanisms.retransmission import GoBackN, SelectiveRepeat
from repro.sim.rng import RngStreams
from repro.tko.config import SessionConfig
from repro.tko.pdu import PduType
from repro.tko.synthesizer import TKOSynthesizer
from repro.unites.obs.telemetry import TELEMETRY

from tests.conftest import TwoHosts

PATHS = {
    "lan": NetworkState("A", "B", True, 0.004, 0.004, 10e6, 1500, 1e-6, 0.0, 0.0, 3),
    # long and lossy: the isochronous profiles come out as FEC shapes
    "sat": NetworkState("A", "B", True, 0.3, 0.3, 1.5e6, 1500, 1e-5, 0.2, 0.0, 4),
}
OTHER_COSTS = CpuCosts(interrupt=3000, layer_fixed=500, virtual_dispatch=30,
                       header_parse_aligned=80)


def profile_config(app: str, path: str) -> SessionConfig:
    """The SCS Stage I/II derive for one Table 1 profile (unicast, so the
    shape is cacheable — group sessions never touch the template cache)."""
    profile = APP_PROFILES[app]
    acd = ACD(participants=("B",), quantitative=profile.quantitative(),
              qualitative=profile.qualitative())
    return specify_scs(acd, PATHS[path]).config


#: every Table 1 profile on both paths, plus the shapes MANTTS does not
#: derive from them: live ``fec_r``, header checksums over legacy headers
#: under a reconfigurable binding, stop-and-wait
CONFIGS = {f"{app}@{path}": profile_config(app, path)
           for app in APP_PROFILES for path in PATHS}
CONFIGS["fec-rs"] = SessionConfig(
    connection="implicit", transmission="rate", rate_pps=400.0, ack="none",
    recovery="fec-rs", fec_k=4, fec_r=2, sequencing="none", jitter="playout")
CONFIGS["crc-header-legacy"] = SessionConfig(
    detection="crc32", checksum_placement="header", compact_headers=False,
    binding="reconfigurable")
CONFIGS["stop-and-wait"] = SessionConfig(
    connection="explicit-2way", transmission="stop-and-wait")


def retuned(cfg: SessionConfig) -> SessionConfig:
    """Same signature (same template), every numeric knob moved."""
    out = cfg.with_(
        window=cfg.window + 3, fec_k=cfg.fec_k + 2,
        # XOR pins one parity shard whatever the config asks for
        fec_r=cfg.fec_r + (cfg.recovery == "fec-rs"),
        playout_delay=cfg.playout_delay + 0.031,
        rate_pps=None if cfg.rate_pps is None else cfg.rate_pps * 1.5,
    )
    assert out.signature() == cfg.signature()
    return out


class Bench:
    """One synthesizer (one template cache) serving hosts A and C, where
    C runs a different CPU cost table."""

    def __init__(self) -> None:
        self.w = TwoHosts(seed=3)
        self.syn = TKOSynthesizer()
        self.a = self.w.ha
        self.c = Host(self.w.sim, self.w.net, "C", costs=OTHER_COSTS)
        self._ids = iter(range(1, 1000))

    def make(self, cfg: SessionConfig, host=None):
        n = next(self._ids)
        return self.syn.instantiate(host or self.a, cfg, n, 9000 + n, "B", 7000)


def closure_vars(fn) -> dict:
    """What a rendered function bound per session: its default arguments."""
    code = fn.__code__
    names = code.co_varnames[:code.co_argcount]
    return dict(zip(names[-len(fn.__defaults__):], fn.__defaults__))


def fingerprint(session) -> dict:
    """Everything a stamp could get wrong, read off a live session."""
    ctx, exe = session.context, session.executor
    tx, rec, jit = ctx.get("transmission"), ctx.get("recovery"), ctx.get("jitter")
    window = getattr(tx, "effective_window", None)
    return {
        "charges": exe.pipeline.charge_bindings(),
        "codegen_key": exe.codegen_key,
        "classes": {slot: type(mech) for slot, mech in ctx.items()},
        "rate_pps": getattr(tx, "rate_pps", None),
        "fec": (getattr(rec, "k", None), getattr(rec, "r", None)),
        "playout_delay": getattr(jit, "playout_delay", None),
        "window": window() if window is not None else session.cfg.window,
        "pooling": session._pooling,
    }


def cold(cfg: SessionConfig, costs=None) -> dict:
    """Fingerprint of a synthesis that can share nothing: a fresh world,
    a fresh cache, the first session of its shape."""
    b = Bench()
    host = b.a if costs is None else Host(b.w.sim, b.w.net, "D", costs=costs)
    assert len(b.syn.templates) == 0
    return fingerprint(b.make(cfg, host))


@pytest.mark.parametrize("name", sorted(CONFIGS))
class TestStampEqualsColdSynthesis:
    def test_cold_miss_warms_the_template(self, name):
        cfg = CONFIGS[name]
        b = Bench()
        first = b.make(cfg)
        t = b.syn.templates.peek(cfg)
        assert t.plan is not None and t.specs is not None
        assert t.pipelines == {b.a.cpu.costs: first.executor.pipeline}
        assert t.codegen == first.executor.codegen_key
        assert fingerprint(first) == cold(cfg)

    def test_warm_hit_with_retuned_numbers(self, name):
        cfg = CONFIGS[name]
        b = Bench()
        first = b.make(cfg)
        hit = b.make(retuned(cfg))
        assert hit.executor.pipeline is first.executor.pipeline
        assert fingerprint(hit) == cold(retuned(cfg))
        assert fingerprint(hit) != fingerprint(first)  # the numbers are live

    def test_warm_hit_after_a_sibling_segued(self, name):
        cfg = CONFIGS[name]
        b = Bench()
        first, sibling = b.make(cfg), b.make(cfg)
        swap = (FixedBuffers if cfg.buffer == "variable" else VariableBuffers)
        sibling.segue("buffer", swap())
        # the sibling left the shared pipeline; the template did not follow
        assert sibling.executor.pipeline is not first.executor.pipeline
        assert (sibling.executor.pipeline.charge_bindings()
                != first.executor.pipeline.charge_bindings())
        after = b.make(cfg)
        assert after.executor.pipeline is first.executor.pipeline
        assert fingerprint(after) == cold(cfg)
        assert type(after.context.get("buffer")) is not swap

    def test_other_cost_table_gets_its_own_pipeline(self, name):
        cfg = CONFIGS[name]
        b = Bench()
        on_a = [b.make(cfg), b.make(cfg)]
        on_c = [b.make(cfg, b.c), b.make(cfg, b.c)]
        assert on_a[0].executor.pipeline is on_a[1].executor.pipeline
        assert on_c[0].executor.pipeline is on_c[1].executor.pipeline
        assert on_a[0].executor.pipeline is not on_c[0].executor.pipeline
        assert len(b.syn.templates.peek(cfg).pipelines) == 2
        assert fingerprint(on_c[1]) == cold(cfg, OTHER_COSTS)
        assert fingerprint(on_a[1]) == cold(cfg)
        assert (fingerprint(on_c[1])["charges"]
                != fingerprint(on_a[1])["charges"])


# ----------------------------------------------------------------------
RELIABLE = SessionConfig(connection="implicit")  # sliding-window, GBN, trailer


def transfer_world(cfg=RELIABLE):
    w = TwoHosts(seed=5)
    w.listen(cfg)
    sender = w.open(cfg)
    return w, sender


def _segue_to_sr(w, sender):
    for s in (sender, w.rx_sessions[0]):
        s.segue("recovery", SelectiveRepeat())
        s.segue("ack", SelectiveAck())


def _update_config(w, sender):
    sender.update_config(sender.cfg.with_(window=5))


def _repipeline(w, sender):
    sender.repipeline("delivery")


class TestFirstUseClosures:
    def test_nothing_is_bound_until_a_direction_is_used(self):
        w, sender = transfer_world()
        assert not {"send", "handle_frame"} & set(sender.executor.__dict__)
        sender.send(b"x" * 300)
        assert "send" in sender.executor.__dict__
        assert "handle_frame" not in sender.executor.__dict__
        w.sim.run(until=1.0)
        assert len(w.delivered) == 1
        assert "handle_frame" in sender.executor.__dict__  # the ACK came back
        receiver = w.rx_sessions[0]
        assert "handle_frame" in receiver.executor.__dict__
        assert "send" not in receiver.executor.__dict__   # it only received

    @pytest.mark.parametrize("reconfigure", [_segue_to_sr, _update_config,
                                             _repipeline])
    def test_recompile_invalidates_and_next_use_rebinds(self, reconfigure):
        w, sender = transfer_world()
        sender.send(b"a" * 300)
        w.sim.run(until=1.0)
        exe = sender.executor
        old_send, old_recv = exe.__dict__["send"], exe.__dict__["handle_frame"]
        old_pipe = exe.pipeline
        assert exe.fast_sends == 1

        reconfigure(w, sender)
        assert not {"send", "handle_frame"} & set(exe.__dict__)
        assert exe.pipeline is not old_pipe and exe.pipeline.codegen is None

        sender.send(b"b" * 300)
        assert exe.__dict__["send"] is not old_send
        assert exe.fast_sends == 2          # counts across the invalidation
        w.sim.run(until=2.0)
        assert exe.__dict__["handle_frame"] is not old_recv
        assert [bytes(d) for d, _ in w.delivered] == [b"a" * 300, b"b" * 300]

    def test_send_after_gbn_to_sr_segue_is_tracked_under_sr(self):
        w, sender = transfer_world()
        sender.send(b"a" * 300)
        w.sim.run(until=1.0)
        gbn = sender.context.get("recovery")
        assert type(gbn) is GoBackN
        gbn_timer = gbn._timer  # a segued-out mechanism lets go of its timer
        assert closure_vars(sender.executor.send)["rec_timer"] is gbn_timer
        _segue_to_sr(w, sender)
        sr = sender.context.get("recovery")
        sender.send(b"b" * 300)
        bound = closure_vars(sender.executor.send)
        assert bound["rec_timer"] is sr._timer and sr._timer.armed
        assert not gbn_timer.armed and gbn._timer is None
        assert list(sender.state.outstanding) == [1]
        w.sim.run(until=2.0)
        assert not sender.state.outstanding and len(w.delivered) == 2

    def test_update_config_rebinds_the_live_window(self):
        w, sender = transfer_world()
        sender.send(b"a" * 300)
        assert closure_vars(sender.executor.send)["WIN"] == RELIABLE.window
        _update_config(w, sender)
        sender.send(b"b" * 300)
        assert closure_vars(sender.executor.send)["WIN"] == 5

    @pytest.mark.parametrize("sent_before_close", [True, False])
    def test_send_on_a_closed_session_still_raises(self, sent_before_close):
        w, sender = transfer_world()
        if sent_before_close:
            sender.send(b"a" * 300)
        w.sim.run(until=1.0)
        sender.close()
        w.sim.run(until=2.0)
        assert sender.closed
        with pytest.raises(RuntimeError):
            sender.send(b"late")

    def test_closure_bound_under_telemetry_falls_back_then_engages(self):
        w, sender = transfer_world()
        try:
            TELEMETRY.enable()
            sender.send(b"a" * 300)     # first use, with telemetry on
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert "send" in sender.executor.__dict__
        assert sender.executor.fast_sends == 0 and sender.stats.msgs_sent == 1
        sender.send(b"b" * 300)         # same closure, guard now clear
        assert sender.executor.fast_sends == 1

    def test_closure_bound_with_an_observer_falls_back_then_engages(self):
        w, sender = transfer_world()
        seen = []
        sender.observers.append(lambda event, session, **kw: seen.append(event))
        sender.send(b"a" * 300)
        assert sender.executor.fast_sends == 0 and "pdu-sent" in seen
        sender.observers.clear()
        sender.send(b"b" * 300)
        assert sender.executor.fast_sends == 1


class TestShadowingSeams:
    """The two places an instance ``__dict__`` is part of the contract;
    every other per-connection object has none."""

    def test_handle_ack_shadowed_on_the_session_is_what_an_ack_meets(self):
        w, sender = transfer_world()
        assert vars(sender) == {}
        seen, handle_ack = [], sender._handle_ack

        def spy(pdu, from_host):
            seen.append((pdu.ack, from_host))
            handle_ack(pdu, from_host)

        sender._handle_ack = spy
        sender.send(b"a" * 300)
        w.sim.run(until=1.0)
        assert seen == [(1, "B")] and not sender.state.outstanding
        assert list(vars(sender)) == ["_handle_ack"]

    def test_executor_dict_holds_the_rendered_closures_and_nothing_else(self):
        w, sender = transfer_world()
        exe = sender.executor
        assert vars(exe) == {}
        sender.send(b"a" * 300)
        assert list(vars(exe)) == ["send"]
        w.sim.run(until=1.0)
        assert sorted(vars(exe)) == ["handle_frame", "send"]
        sender.close()
        w.sim.run(until=2.0)
        assert sender.closed and vars(exe) == {} and exe.fast_sends == 1


# ----------------------------------------------------------------------
class TestFirstUseRng:
    """``TKOSession.rng`` exists once drawn from and dies with its session,
    so the stream table tracks live sessions that met a corrupted frame —
    not every session ever opened."""

    @staticmethod
    def _error_free_churn(n: int):
        sc = ChurnScenario(n_connections=n, seed=7)
        for u, v in sc.network.links:
            sc.network.set_link_ber(u, v, 0.0, bidirectional=False)
        sc.run(until=20.0)
        assert sc.collect()["established"] >= n
        return sc.system.rng._streams

    def test_stream_table_does_not_grow_with_connections_opened(self):
        small, large = self._error_free_churn(10), self._error_free_churn(40)
        assert len(small) == len(large)
        assert not [name for name in large if name.startswith("session:")]

    @pytest.mark.parametrize("missed", [True, False])
    def test_miss_draw_is_the_eager_streams_first_draw(self, missed,
                                                       monkeypatch):
        w = TwoHosts(seed=9)
        session = w.pa.create_session(SessionConfig(), "B", 7000)
        name = f"session:A:{session.conn_id}"
        assert name not in w.rng
        # what a generator built in __init__ would have drawn first
        eager = RngStreams(9).stream(name).random()
        det = session.context.get("detection")
        assert det.MISS_P > 0.0
        # the draw is observable through the miss decision: < MISS_P misses
        monkeypatch.setattr(
            type(det), "MISS_P", math.nextafter(eager, 1.0) if missed else eager)
        pdu = session.make_pdu(PduType.DATA)
        assert det.verify(pdu, corrupted=True) is missed
        assert session.stats.undetected_errors == int(missed)
        assert name in w.rng
        session.abort("done")
        assert name not in w.rng


# ----------------------------------------------------------------------
#: GC-tracked objects one template hit may create.  139 on this shape
#: when every hit built its own pipeline, generator, bindings dict and
#: both closures; 49 now (py3.11) — the session, its state, its nine
#: fresh mechanisms and the executor's prebound entry points.
HIT_OBJECT_BUDGET = 52


def test_template_hit_object_budget():
    cfg = profile_config("tele-conferencing", "lan")
    b = Bench()
    keep = [b.make(cfg) for _ in range(3)]      # warm the template
    gc.collect()
    gc.disable()
    try:
        deltas = []
        for _ in range(100):
            before = len(gc.get_objects())
            keep.append(b.make(cfg))
            deltas.append(len(gc.get_objects()) - before)
    finally:
        gc.enable()
    assert statistics.median(deltas) <= HIT_OBJECT_BUDGET, deltas[:10]
