"""``Network.next_hop_tables`` against ``shortest_path``, pair by pair.

The tables come from one BFS per source; ``shortest_path`` runs one BFS
per (src, dst) pair.  For every pair the table must hold exactly the
second node of that path, have no entry when ``dst`` is ``src`` or
unreachable, and list its keys in ``node_names()`` order.
"""

import random

import pytest

from tussle.netsim.topology import (
    Network,
    dumbbell_topology,
    line_topology,
    star_topology,
)


def expected_tables(net):
    names = net.node_names()
    tables = {}
    for src in names:
        table = {}
        for dst in names:
            path = net.shortest_path(src, dst)
            if dst != src and path is not None:
                table[dst] = path[1]
        tables[src] = table
    return tables


def assert_matches_shortest_path(net):
    tables = net.next_hop_tables()
    expected = expected_tables(net)
    # Item lists, not dicts: key order is part of the contract.
    assert list(tables) == net.node_names()
    assert [list(t.items()) for t in tables.values()] == [
        list(t.items()) for t in expected.values()]


def random_graph(seed):
    """Two components under shuffled names, with some links failed.

    Insertion order differs from sorted order, so the check sees
    ``node_names()`` order and the sorted neighbour scan disagree.
    """
    rng = random.Random(seed)
    net = Network()
    sizes = (rng.randint(4, 12), rng.randint(1, 6))
    labels = [f"n{i:02d}" for i in range(sum(sizes))]
    rng.shuffle(labels)
    for label in labels:
        net.add_node(label)
    start = 0
    for size in sizes:
        members = labels[start:start + size]
        start += size
        for i in range(1, size):  # a spanning tree, then chords
            net.add_link(members[i], members[rng.randrange(i)])
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if not net.has_link(a, b) and rng.random() < 0.3:
                    net.add_link(a, b)
    for link in net.links:
        if rng.random() < 0.2:
            net.fail_link(link.a, link.b)
    return net


class TestNextHopTables:
    def test_line(self):
        net = line_topology(6)
        assert_matches_shortest_path(net)
        assert net.next_hop_tables()["n0"] == {
            "n1": "n1", "n2": "n1", "n3": "n1", "n4": "n1", "n5": "n1"}

    def test_star(self):
        net = star_topology(5)
        assert_matches_shortest_path(net)
        assert net.next_hop_tables()["leaf3"] == {
            "hub": "hub", "leaf0": "hub", "leaf1": "hub", "leaf2": "hub",
            "leaf4": "hub"}

    def test_dumbbell(self):
        assert_matches_shortest_path(dumbbell_topology(3, 4))

    def test_failed_link_splits_the_line(self):
        net = line_topology(5)
        net.fail_link("n2", "n3")
        assert_matches_shortest_path(net)
        assert net.next_hop_tables()["n0"] == {"n1": "n1", "n2": "n1"}

    def test_single_node_has_an_empty_table(self):
        assert line_topology(1).next_hop_tables() == {"n0": {}}

    @pytest.mark.parametrize("seed", range(16))
    def test_random_graphs(self, seed):
        net = random_graph(seed)
        assert_matches_shortest_path(net)
        tables = net.next_hop_tables()
        # Two components: no table reaches every other node.
        assert all(len(table) < len(tables) - 1 for table in tables.values())
