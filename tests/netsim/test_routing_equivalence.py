"""Property: the dict-and-``heapq`` router routes as ``networkx`` did.

Hypothesis draws a digraph of 2–12 nodes whose link weights come from a
small set, so equal-cost paths are common, and a sequence of ``add_link`` /
``fail_link`` / ``restore_link`` / ``set_link_bandwidth`` / ``crash_node``
/ ``partition``.  Every operation is applied to a shipped :class:`Network`
and to the oracle of ``tests/oracles/reference_routing.py`` — the parent's
``nx.DiGraph`` and ``nx.shortest_path``, verbatim — and after every step,
for every ordered pair of nodes: both unreachable or both reachable; the
shipped route walks up links only; equal total weight; and the identical
node list unless a second path costs the same to within 1e-12 relative
(two sums of the same weights in different orders may differ in the last
bit).  On such a tie the oracle's choice is an accident of a bidirectional
search; the shipped rule is stated in ``Network._shortest_path`` and pinned
by :class:`TestTieRule`.

The example classes hold the two routers to *identical* node lists on every
shipped topology: the ``netsim.profiles`` builders, the grouped-churn
world, and ``dual_path`` before and after every inject and clear of the
fault plan the repo benchmark's ``media_fault`` workload runs.
"""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.core.churn import GroupedChurnScenario
from repro.netsim.faults import FaultInjector, FaultSchedule
from repro.netsim.network import Network
from repro.netsim.profiles import PROFILES, dual_path, ethernet_10, fddi_100, linear_path, star
from repro.sim.kernel import Simulator
from tests.oracles.reference_routing import ReferenceNetwork, mirror, nx

REL = 1e-12
#: 4096 bits of probe over these rates weigh 1, 2 and 4 ms: with the delays
#: below, many different links — and many different paths — cost the same
BANDWIDTHS = (4.096e6, 2.048e6, 1.024e6)
DELAYS = (0.0, 1e-3, 2e-3)


def path_weight(ref: ReferenceNetwork, path) -> float:
    """Sum of the oracle's edge weights along ``path``; ``KeyError`` when the
    path uses a link that is down or absent."""
    return sum(ref.graph[u][v]["weight"] for u, v in zip(path, path[1:]))


def second_best(ref: ReferenceNetwork, best) -> float:
    """Weight of the cheapest path that is not ``best``: any other path
    lacks one of its edges, so remove each in turn."""
    found = math.inf
    for u, v in zip(best, best[1:]):
        graph = ref.graph.copy()
        graph.remove_edge(u, v)
        try:
            found = min(found, nx.shortest_path_length(
                graph, best[0], best[-1], weight="weight"))
        except nx.NetworkXNoPath:
            pass
    return found


def assert_same_routes(net: Network, ref: ReferenceNetwork, exact: bool = False) -> int:
    """Compare every ordered pair; returns how many were decided by a tie."""
    assert net.topology_version == ref.topology_version
    ties = 0
    for src in net.nodes:
        for dst in net.nodes:
            got, want = net.route(src, dst), ref.route(src, dst)
            if want is None:
                assert got is None, (src, dst, got)
                continue
            assert got is not None and got[0] == src and got[-1] == dst
            if got == want:
                continue
            assert not exact, (src, dst, got, want)
            best = path_weight(ref, want)
            assert math.isclose(path_weight(ref, got), best, rel_tol=REL)
            assert second_best(ref, want) <= best * (1.0 + REL), (got, want)
            ties += 1
    return ties


_node = st.integers(0, 11)
_link = st.tuples(_node, _node, st.sampled_from(BANDWIDTHS),
                  st.sampled_from(DELAYS), st.booleans())
_op = st.one_of(
    st.tuples(st.just("add_link"), _link),
    st.tuples(st.just("fail_link"), st.integers(0, 200), st.booleans()),
    st.tuples(st.just("fail_link"), st.integers(0, 200), st.booleans()),
    st.tuples(st.just("restore_link"), st.integers(0, 200), st.booleans()),
    st.tuples(st.just("restore_link"), st.integers(0, 200), st.booleans()),
    st.tuples(st.just("set_link_bandwidth"), st.integers(0, 200),
              st.sampled_from(BANDWIDTHS), st.booleans()),
    st.tuples(st.just("crash_node"), _node),
    st.tuples(st.just("partition"), st.frozensets(_node, max_size=6)),
)


def apply(net: Network, names, op):
    """Run one drawn operation; indices wrap onto what exists in ``net``."""
    kind = op[0]
    if kind == "add_link":
        a, b, bandwidth, delay, both = op[1]
        u, v = names[a % len(names)], names[b % len(names)]
        pairs = [(u, v), (v, u)] if both else [(u, v)]
        if u == v or any(p in net.links for p in pairs):
            return None
        return net.add_link(u, v, bandwidth, delay, bidirectional=both)
    if kind == "crash_node":
        return net.crash_node(names[op[1] % len(names)])
    if kind == "partition":
        return net.partition({names[i % len(names)] for i in op[1]})
    if not net.links:
        return None
    u, v = list(net.links)[op[1] % len(net.links)]
    both = op[-1] and (v, u) in net.links
    return getattr(net, kind)(u, v, *op[2:-1], bidirectional=both)


@given(st.integers(2, 12), st.lists(_link, min_size=1, max_size=30),
       st.lists(_op, max_size=12))
def test_routes_match_the_networkx_oracle(n_nodes, links, program):
    names = [f"n{i}" for i in range(n_nodes)]
    worlds = (Network(Simulator()), ReferenceNetwork(Simulator()))
    for net in worlds:
        for name in names:
            net.add_node(name)
    for op in [("add_link", link) for link in links] + program:
        # crash_node / partition report which up links they took down
        assert apply(worlds[0], names, op) == apply(worlds[1], names, op)
        assert_same_routes(*worlds)


class TestTieRule:
    """Equal distance: the earlier push wins, so the earlier-inserted link."""

    @staticmethod
    def diamond(first, second):
        net = Network(Simulator())
        for name in "ABCD":
            net.add_node(name)
        for mid in (first, second):
            net.add_link("A", mid, 1e6, 1e-3)
        for mid in (second, first):  # the far side's order does not decide
            net.add_link(mid, "D", 1e6, 1e-3)
        return net

    def test_first_inserted_link_wins(self):
        assert self.diamond("B", "C").route("A", "D") == ["A", "B", "D"]
        assert self.diamond("C", "B").route("A", "D") == ["A", "C", "D"]

    def test_restored_link_is_inserted_anew(self):
        net = self.diamond("B", "C")
        net.fail_link("A", "B")
        assert net.route("A", "D") == ["A", "C", "D"]
        net.restore_link("A", "B")
        assert net.route("A", "D") == ["A", "C", "D"]
        assert net.route("D", "A") == ["D", "C", "A"]

    def test_strictly_shorter_beats_earlier(self):
        net = self.diamond("B", "C")
        net.set_link_bandwidth("C", "D", 2e6)
        assert net.route("A", "D") == ["A", "C", "D"]
        assert assert_same_routes(net, mirror(net)) == 0

    def test_the_oracle_agrees_a_tie_is_a_tie(self):
        net = self.diamond("B", "C")
        ref = mirror(net)
        best = path_weight(ref, ref.route("A", "D"))
        assert second_best(ref, ref.route("A", "D")) == best


class TestEndpoints:
    def test_source_is_destination(self):
        net = linear_path(Simulator(), ethernet_10(), n_switches=1)
        assert net.route("A", "A") == ["A"]
        assert net.route("s1", "s1") == ["s1"]

    def test_unknown_node(self):
        net = linear_path(Simulator(), ethernet_10(), n_switches=1)
        assert net.route("A", "nowhere") is None
        assert net.route("nowhere", "A") is None
        assert net.route("nowhere", "nowhere") is None
        assert assert_same_routes(net, mirror(net), exact=True) == 0

    def test_unreachable_is_cached_until_the_topology_moves(self):
        net = linear_path(Simulator(), ethernet_10(), n_switches=1)
        net.fail_link("A", "s1")
        assert net.route("A", "B") is None and ("A", "B") in net._route_cache
        net.restore_link("A", "s1")
        assert net.route("A", "B") == ["A", "s1", "B"]


class TestShippedTopologies:
    """No shipped world has a tie: the node lists are identical."""

    def test_profile_builders(self):
        for profile in PROFILES.values():
            for n_switches in (0, 1, 4):
                net = linear_path(Simulator(), profile, n_switches=n_switches)
                assert_same_routes(net, mirror(net), exact=True)
            net = star(Simulator(), profile, [f"h{i}" for i in range(5)])
            assert_same_routes(net, mirror(net), exact=True)
            for backup in PROFILES.values():
                if backup is not profile:
                    net = dual_path(Simulator(), profile, backup)
                    assert_same_routes(net, mirror(net), exact=True)

    def test_grouped_churn_topology(self):
        for n_groups in (1, 4, 6):
            net = GroupedChurnScenario(n_connections=4, n_groups=n_groups).network
            assert_same_routes(net, mirror(net), exact=True)

    def test_dual_path_under_the_media_fault_plan(self):
        sim = Simulator()
        net = dual_path(sim, fddi_100().scaled(ber=1.2e-6), ethernet_10())
        ref = mirror(net)
        plan = FaultSchedule.random(2, list(net.links), horizon=24.0 * 0.9,
                                    n_faults=24)
        injectors = [FaultInjector(sim, net, plan).arm(),
                     FaultInjector(ref.sim, ref, plan).arm()]
        assert_same_routes(net, ref, exact=True)
        versions = set()
        for t in sorted({t for f in plan for t in (f.at, f.clears_at)}):
            sim.run(until=t)
            ref.sim.run(until=t)
            assert_same_routes(net, ref, exact=True)
            versions.add(net.topology_version)
        assert [(i.injected, i.cleared) for i in injectors] == [(24, 24)] * 2
        assert len(versions) > 1  # the plan did move routes
