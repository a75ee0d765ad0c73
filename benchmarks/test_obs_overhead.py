"""UNITES-X overhead: disabled telemetry AND audit must be free (within 5%).

The tentpole discipline is that every hot-path instrumentation site
guards with a single ``if TELEMETRY.enabled:`` test — and, since the
audit plane, every lifecycle/protocol hook with ``if AUDIT.enabled:``
plus the session observer walk with ``if self.observers:``.  This
benchmark enforces the bound on the hottest path of all — the kernel
dispatch loop — by timing the same E6-style bulk workload two ways:

* **baseline** — ``Simulator.run`` monkeypatched to the function
  :func:`_run_uninstrumented` derives from it: the shipping loop minus
  exactly its one ``tele.enabled`` test;
* **disabled** — the shipping ``run`` with telemetry *and* audit off
  (the default).  The workload traverses every audit hook site
  (``create_session``, ``_accept``, send/deliver notify points), so the
  ≤5% gate covers the auditor and flight-recorder guards too.

Runs are ABAB-interleaved and the minimum of N is compared (minimum, not
mean: scheduling noise only ever adds time).  Enabled-telemetry and
enabled-audit runs are also timed and reported, but not bounded — paying
for what you turn on is the deal.  Both loops must also finish the
workload at the same ``events_dispatched`` and ``sim.now``, so a baseline
that dispatches differently fails the gate instead of biasing the ratio.
"""

import inspect
import textwrap
import time

import pytest

from repro.core.scenario import PointToPointScenario
from repro.netsim.profiles import fddi_100
from repro.sim import kernel
from repro.sim.kernel import Simulator
from repro.tko.config import SessionConfig
from repro.unites.obs.audit import AUDIT, QoSContract
from repro.unites.obs.telemetry import TELEMETRY
from repro.unites.present import render_table

from benchmarks.conftest import record

ROUNDS = 5
MAX_DISABLED_OVERHEAD = 1.05


def _run_uninstrumented():
    """``Simulator.run`` recompiled with its ``tele.enabled`` test deleted.

    Derived from the shipping source, so the baseline cannot drift from
    the loop it is a baseline for; if ``run`` stops spelling its guard
    this way, or grows a second one, the assertions fail instead of the
    ratio going quiet.
    """
    src = textwrap.dedent(inspect.getsource(Simulator.run))
    guard = "if tele.enabled:"
    assert src.count(guard) == 1 and src.count("tele.enabled") == 1, (
        f"Simulator.run no longer has exactly one {guard!r}")
    # ``if False:`` is folded away at compile time, leaving the else arm
    src = src.replace(guard, "if False:")
    scope = {}
    exec(compile(src, "<Simulator.run minus telemetry>", "exec"), vars(kernel), scope)
    run = scope["run"]
    assert "enabled" not in run.__code__.co_names
    return run


def _workload(telemetry: bool, audit: bool = False):
    """Run the E6 bulk transfer once.

    Returns ``(wall seconds, events dispatched, final sim time)``.
    """
    if audit:
        AUDIT.enable(window=0.25)
    scenario = PointToPointScenario(
        config=SessionConfig(window=30, segment_size=None),
        workload="bulk",
        workload_kw={"total_bytes": 2_000_000, "chunk_bytes": 16_384},
        profile=fddi_100().scaled(ber=0.0),
        duration=8.0,
        seed=29,
        mips=25.0,
    )
    if telemetry:
        scenario.system.enable_telemetry()
    if audit:
        # full auditor + flight-recorder machinery on the data path:
        # send-side observer now, delivery-side via the demux peer-watch
        AUDIT.attach_session(
            scenario.sender_session,
            QoSContract(
                connection="bench", avg_throughput_bps=1e3,
                peak_throughput_bps=1e3, max_latency=5.0, max_jitter=5.0,
                loss_tolerance=1.0, ordered=True, captured_at=0.0,
            ),
        )
    t0 = time.perf_counter()
    scenario.run(8.0)
    elapsed = time.perf_counter() - t0
    sim = scenario.system.sim
    if telemetry:
        TELEMETRY.disable()
        TELEMETRY.reset()
    if audit:
        AUDIT.disable()
        AUDIT.reset()
    return elapsed, sim.events_dispatched, sim.now


@pytest.mark.timing
def test_obs_overhead_disabled_is_free(benchmark, monkeypatch):
    TELEMETRY.disable()
    TELEMETRY.reset()
    AUDIT.disable()
    AUDIT.reset()

    uninstrumented = _run_uninstrumented()

    def measure():
        baseline, disabled = [], []
        events = 0
        for _ in range(ROUNDS):
            # A: true no-telemetry dispatch loop
            monkeypatch.setattr(Simulator, "run", uninstrumented)
            t, events, now = _workload(telemetry=False)
            baseline.append(t)
            monkeypatch.undo()
            # B: shipping loop, telemetry + audit disabled (the default)
            assert not TELEMETRY.enabled and not AUDIT.enabled
            t, shipped_events, shipped_now = _workload(telemetry=False)
            disabled.append(t)
            assert (events, now) == (shipped_events, shipped_now), (
                "the uninstrumented loop dispatched a different run"
            )
        enabled, _, _ = _workload(telemetry=True)
        audited, _, _ = _workload(telemetry=True, audit=True)
        return min(baseline), min(disabled), enabled, audited, events

    base, disabled, enabled, audited, events = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    ratio = disabled / base
    rows = [
        {"variant": "no-telemetry baseline", "wall_s": base, "vs_baseline": 1.0},
        {"variant": "telemetry+audit disabled", "wall_s": disabled,
         "vs_baseline": ratio},
        {"variant": "telemetry enabled", "wall_s": enabled,
         "vs_baseline": enabled / base},
        {"variant": "telemetry+audit enabled", "wall_s": audited,
         "vs_baseline": audited / base},
    ]
    record(
        benchmark,
        render_table(
            rows, ["variant", "wall_s", "vs_baseline"],
            title=f"UNITES-X overhead — E6 bulk workload, {events} events, "
                  f"min of {ROUNDS} ABAB rounds",
        ),
        events=events,
    )
    assert ratio <= MAX_DISABLED_OVERHEAD, (
        f"disabled telemetry+audit costs {100 * (ratio - 1):.1f}% "
        f"(bound: {100 * (MAX_DISABLED_OVERHEAD - 1):.0f}%)"
    )
