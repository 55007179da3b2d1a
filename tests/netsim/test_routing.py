"""Network routes are the lists networkx's Dijkstra returns.

The golden digests were recorded when ``Network`` routed through
``nx.all_pairs_dijkstra_path``, so which of two equal-cost routes wins is
part of what a digest depends on.  networkx stays in the ``dev`` extra as
the oracle for exactly that: the Figure 5 testbeds pin the routes the
experiments use, the random graphs (few distinct weights, so ties are the
rule) pin the tie-breaking.
"""

import random

import pytest

from repro.core.deployments import DEPLOYMENT_KEYS, build_testbed
from repro.errors import RoutingError
from repro.mobile.handoff import HandoffController
from repro.netsim.engine import Simulator
from repro.netsim.latency import Constant
from repro.netsim.network import Network
from repro.netsim.rand import RandomStreams

nx = pytest.importorskip("networkx")


@pytest.fixture(autouse=True)
def oracle(monkeypatch):
    """Every ``Network`` also feeds an ``nx.Graph``, call for call.

    The mirror makes the calls the old ``Network`` made on its own graph
    (same order, same weight expression), so the oracle's neighbour order
    owes nothing to the adjacency under test.
    """
    add_host, add_link, remove_link = (
        Network.add_host, Network.add_link, Network.remove_link)

    def graph_of(network):
        return vars(network).setdefault("oracle_graph", nx.Graph())

    def mirrored_add_host(self, name, *addresses):
        host = add_host(self, name, *addresses)
        graph_of(self).add_node(name)
        return host

    def mirrored_add_link(self, a, b, *args, **kwargs):
        link = add_link(self, a, b, *args, **kwargs)
        graph_of(self).add_edge(a, b, weight=max(link.mean_latency, 1e-9))
        return link

    def mirrored_remove_link(self, a, b):
        link = remove_link(self, a, b)
        graph_of(self).remove_edge(a, b)
        return link

    monkeypatch.setattr(Network, "add_host", mirrored_add_host)
    monkeypatch.setattr(Network, "add_link", mirrored_add_link)
    monkeypatch.setattr(Network, "remove_link", mirrored_remove_link)


def assert_routes_match(network):
    expected = dict(nx.all_pairs_dijkstra_path(network.oracle_graph))
    names = list(network._hosts)
    assert sorted(expected) == sorted(names)
    for src in names:
        for dst in names:
            if dst in expected[src]:
                assert network.path(src, dst) == expected[src][dst], (src, dst)
            else:
                with pytest.raises(RoutingError, match=f"no route from {src} to {dst}"):
                    network.path(src, dst)


def plain_network(*names):
    network = Network(Simulator(), RandomStreams(0))
    for name in names:
        network.add_host(name)
    return network


def random_network(seed, hosts=12, links=26, weights=(1, 2, 3)):
    """A seeded random graph; a few small weights make ties the rule."""
    rng = random.Random(seed)
    names = [f"h{index}" for index in range(hosts)]
    network = plain_network(*names)
    for _ in range(links):
        a, b = rng.sample(names, 2)
        network.add_link(a, b, Constant(rng.choice(weights)))
    return network, names, rng


class TestFigure5Testbeds:
    @pytest.mark.parametrize("deployment", DEPLOYMENT_KEYS)
    def test_routes_before_and_after_a_handover(self, deployment):
        testbed = build_testbed(deployment, seed=7)
        network = testbed.network
        assert_routes_match(network)
        target = testbed.epc.add_base_station("enb-2", "10.40.1.2")
        assert_routes_match(network)
        HandoffController(network).handoff(testbed.ue, target)
        assert network.path(testbed.ue.host.name, testbed.gateway_host)[1] == "enb-2"
        assert_routes_match(network)


class TestRandomGraphs:
    @pytest.mark.parametrize("seed", range(25))
    def test_ties_break_as_networkx_breaks_them(self, seed):
        network, _, _ = random_network(seed)
        assert_routes_match(network)

    @pytest.mark.parametrize("seed", range(25, 40))
    def test_link_churn_keeps_insertion_order_semantics(self, seed):
        network, _, rng = random_network(seed)
        for _ in range(12):
            a, b = rng.choice(sorted(network.oracle_graph.edges))
            move = rng.choice(("remove", "readd", "overwrite"))
            if move == "overwrite":  # keeps its place among the neighbours
                network.add_link(a, b, Constant(rng.randint(1, 3)))
            else:
                network.remove_link(a, b)
                if move == "readd":  # goes last among the neighbours
                    network.add_link(b, a, Constant(rng.randint(1, 3)))
            assert_routes_match(network)

    def test_float_weights_accumulate_alike(self):
        network, _, _ = random_network(
            99, hosts=10, links=24, weights=(0.0, 0.1, 0.2, 0.25, 0.3, 0.7))
        assert_routes_match(network)


class TestEdges:
    def test_isolated_host_routes_only_to_itself(self):
        network = plain_network("a", "b", "island")
        network.add_link("a", "b", Constant(1))
        assert_routes_match(network)
        assert network.path("island", "island") == ["island"]
        with pytest.raises(RoutingError, match="no route from a to island"):
            network.path("a", "island")

    def test_unknown_source_or_destination(self):
        network = plain_network("a")
        with pytest.raises(RoutingError, match="no route from ghost to a"):
            network.path("ghost", "a")
        with pytest.raises(RoutingError, match="no route from a to ghost"):
            network.path("a", "ghost")

    def test_self_link_is_harmless(self):
        network = plain_network("a", "b")
        network.add_link("a", "a", Constant(1))
        network.add_link("a", "b", Constant(2))
        assert_routes_match(network)
        network.remove_link("a", "a")
        assert_routes_match(network)

    def test_routes_are_computed_per_source_on_first_use(self):
        network, names, _ = random_network(3)
        assert network._routes == {}
        network.path(names[0], names[0])
        assert list(network._routes) == [names[0]]
        network.add_link(names[1], names[2], Constant(1))
        assert network._routes == {}
