"""Host-wide admission totals are running totals, not re-sums.

``ResourceManager.reserved_bps`` / ``reserved_buffer`` used to walk every
live reservation on every admission — the term that made connection churn
superlinear (docs/performance.md, "Session instantiation").  They are now
maintained by ``admit`` / ``release`` / ``update``; ``recount()`` re-sums
for checks like these.  The oracle below *is* the old behaviour.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.host.nic import Host
from repro.mantts.resources import ResourceManager
from repro.netsim.profiles import ethernet_10, linear_path
from repro.sim.kernel import Simulator

CLASSES = {"iso": 0.3, "bulk": 0.5}
TSCS = (None, "iso", "bulk", "unconfigured")
REFS = [f"c{i}" for i in range(8)]


class SummingManager(ResourceManager):
    """The summing version: both figures re-derived on every read, the
    running totals' writes ignored."""

    reserved_bps = property(lambda self: self.recount()[0],
                            lambda self, value: None)
    reserved_buffer = property(lambda self: self.recount()[1],
                               lambda self, value: None)


def _manager(cls=ResourceManager) -> ResourceManager:
    sim = Simulator()
    host = Host(sim, linear_path(sim, ethernet_10(), ("A", "B")), "A")
    rm = cls(host, admission_bps=10e6, buffer_budget=200_000, overbooking=1.25)
    rm.configure_classes(CLASSES)
    return rm


def _ops(bps):
    ref = st.sampled_from(REFS)
    return st.lists(st.one_of(
        st.tuples(st.just("admit"), ref, bps, st.integers(0, 90_000),
                  st.sampled_from(TSCS)),
        st.tuples(st.just("update"), ref, bps),
        st.tuples(st.just("release"), ref),
    ), max_size=60)


def _apply(rm: ResourceManager, op):
    """One step; returns the decision an observer could see."""
    kind, ref = op[0], op[1]
    if kind == "admit":
        if rm.reservation(ref) is not None:
            return "duplicate"
        return rm.admit(ref, op[2], op[3], tsc=op[4]) is not None
    if kind == "update":
        return rm.update(ref, op[2])
    return rm.release(ref)


@settings(max_examples=200, deadline=None)
@given(_ops(st.integers(0, 6_000_000).map(float)))
def test_integral_bps_totals_are_exact_and_decisions_unchanged(ops):
    # integral bps are exact in float64 — and the only kind churn_mixed
    # and media_fault admit — so running totals equal the re-sum bit for
    # bit, and every admit/refuse decision equals the summing version's
    running, summing = _manager(), _manager(SummingManager)
    for op in ops:
        assert _apply(running, op) == _apply(summing, op), op
        assert (running.reserved_bps, running.reserved_buffer) == running.recount()
        assert running.recount() == summing.recount()
        for tsc in TSCS:
            assert running.best_offer_bps(tsc) == summing.best_offer_bps(tsc)
        assert (running.refusals, running.admissions, running.releases) == (
            summing.refusals, summing.admissions, summing.releases)
        assert running.class_stats() == summing.class_stats()


@settings(max_examples=200, deadline=None)
@given(_ops(st.floats(0.001, 6e6, allow_nan=False)))
@example([("admit", "c0", 5999999.3, 10, None), ("admit", "c1", 0.001, 10, None),
          ("release", "c0")])
def test_fractional_bps_totals_track_the_resum_and_return_to_zero(ops):
    # a running float sum is as good as the largest total it has held:
    # releasing 6 Mb/s from beside 0.001 b/s leaves the small figure with the
    # large one's rounding, so the bound is relative to the peak, not to
    # what happens to be left
    rm = _manager()
    peak = 1.0
    for op in ops:
        _apply(rm, op)
        bps, buf = rm.recount()
        peak = max(peak, bps)
        assert abs(rm.reserved_bps - bps) <= 1e-9 * peak
        assert rm.reserved_buffer == buf
    for ref in REFS:
        rm.release(ref)
    # an empty table reads exactly zero, whatever rounding accumulated
    assert len(rm) == 0
    assert rm.reserved_bps == 0.0 and rm.reserved_buffer == 0
    assert rm.recount() == (0, 0)
