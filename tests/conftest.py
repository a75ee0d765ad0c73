"""Shared fixtures: assembled two-host worlds and tiny builders."""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import settings

from repro.host.nic import Host
from repro.netsim.profiles import ethernet_10, linear_path
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams
from repro.tko import session as session_module
from repro.tko.config import SessionConfig
from repro.tko.protocol import TKOProtocol
from tests.oracles.reference import ReferenceExecutor

#: ``--hypothesis-profile=ci``: a deeper, reproducible search for the CI
#: jobs that run one property file; Tier-1 keeps Hypothesis' default budget
settings.register_profile("ci", max_examples=500, derandomize=True,
                          deadline=None)


class TwoHosts:
    """A↔B over Ethernet with TKO protocols and delivery capture."""

    def __init__(self, profile=None, n_switches: int = 2, seed: int = 0, mips: float = 25.0):
        self.sim = Simulator()
        self.rng = RngStreams(seed)
        self.net = linear_path(
            self.sim, profile or ethernet_10(), ("A", "B"), n_switches=n_switches, rng=self.rng
        )
        self.ha = Host(self.sim, self.net, "A", mips=mips)
        self.hb = Host(self.sim, self.net, "B", mips=mips)
        self.pa = TKOProtocol(self.ha)
        self.pb = TKOProtocol(self.hb)
        self.delivered: list = []
        self.rx_sessions: list = []

    def listen(self, cfg: SessionConfig | None = None, port: int = 7000):
        def factory(pdu, frame):
            if cfg is not None:
                return cfg
            carried = pdu.options.get("cfg")
            if isinstance(carried, dict):
                c = SessionConfig.from_dict(carried)
                if c.delivery == "multicast":
                    c = c.with_(delivery="unicast", connection="implicit")
                return c
            return SessionConfig(connection="implicit")

        def on_session(s):
            s.on_deliver = lambda data, meta: self.delivered.append((data, meta))
            self.rx_sessions.append(s)

        self.pb.listen(port, factory, on_session)

    def open(self, cfg: SessionConfig, port: int = 7000, **callbacks):
        s = self.pa.create_session(cfg, "B", port, **callbacks)
        s.connect()
        return s

    def transfer(self, cfg: SessionConfig, messages, until: float = 10.0):
        """Round-trip helper: listen, open, send all, run; returns sender."""
        self.listen()
        s = self.open(cfg)
        for m in messages:
            s.send(m)
        self.sim.run(until=until)
        return s


#: simulated seconds after a run's horizon in which every wait still open
#: there — a handshake or a FIN exchange, at the default 0.5 s initial RTO —
#: runs out its retries (0.5 · (2^6 − 1) = 31.5 s) and its last PDU lands
SETTLE_S = 40.0


def leaks(violations) -> list:
    """The lines of a ``check_quiescent()`` result that are leaks, not
    busyness (``not quiescent: …``): for a world read before it settled.
    By category, never by connection id, so renumbering connections moves
    no test."""
    return [v for v in violations if not v.startswith("not quiescent: ")]


def kernel_handler_labels() -> set:
    """Every ``kernel_handler_seconds{handler=…}`` label the process-wide
    telemetry has timed so far — what the repo benchmark's ledger reads."""
    from repro.unites.obs.telemetry import TELEMETRY

    return {dict(metric.labels)["handler"]
            for metric in TELEMETRY.metrics.collect()
            if metric.name == "kernel_handler_seconds"}


#: what a world can run under: the executor ``TKOSession`` constructs, or
#: the behavioural oracle of ``tests/oracles/`` substituted for it
EXECUTORS = ("shipped", "oracle")


@pytest.fixture
def executors():
    """``with executors(kind):`` — every session constructed inside the
    block (receivers are built when their first frame arrives, so wrap the
    run too) gets executor ``kind``.  The oracle is substituted for the
    one name ``repro.tko.session`` constructs; pytest undoes the patch at
    block exit, however the block ends."""

    @contextlib.contextmanager
    def under(kind: str):
        assert kind in EXECUTORS, kind
        with pytest.MonkeyPatch.context() as patch:
            if kind == "oracle":
                patch.setattr(session_module, "CompiledExecutor", ReferenceExecutor)
            yield

    return under


@pytest.fixture
def cpu_spy(monkeypatch):
    """Record every ``Cpu.submit`` callback name and every ``Cpu.charge``
    amount, process-wide, for the duration of one test: ``(names,
    charges)``.  Work nothing waits for must show up in the second list,
    never in the first as a callback that does nothing."""
    from repro.host.cpu import Cpu

    names, charges = [], []
    submit, charge = Cpu.submit, Cpu.charge

    def spy_submit(self, instructions, fn, *args):
        names.append(getattr(fn, "__name__", type(fn).__name__))
        return submit(self, instructions, fn, *args)

    def spy_charge(self, instructions):
        charges.append(instructions)
        return charge(self, instructions)

    monkeypatch.setattr(Cpu, "submit", spy_submit)
    monkeypatch.setattr(Cpu, "charge", spy_charge)
    return names, charges


@pytest.fixture
def world():
    return TwoHosts()


@pytest.fixture
def sim():
    return Simulator()
