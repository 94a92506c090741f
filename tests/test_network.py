import heapq
import math
import random

import numpy as np
import pytest

from hyperalloc import network
from hyperalloc.delays import ErlangDelay, ExponentialDelay, substream
from hyperalloc.network import (
    Link,
    NetworkError,
    NetworkModel,
    RequestProfile,
    Unreachable,
    com_t_max,
    com_t_pair,
    ict,
    round_trip_matrix,
    shortest_comm_path,
)

from _oracles import brute_force_route, random_network


def calibrated():
    """Three robots behind one fog node, cloud behind the fog."""
    return NetworkModel(
        [("R1", "robot"), ("R2", "robot"), ("R3", "robot"), ("F", "fog"), ("C", "cloud")],
        [
            Link("R1", "F", 25.0, ExponentialDelay(2.0)),
            Link("R2", "F", 16.0, ExponentialDelay(4.0)),
            Link("R3", "F", 15.7, ExponentialDelay(4.0)),
            Link("F", "C", 1.0, ExponentialDelay(8.0)),
        ],
    )


def test_indices_assigned_by_kind_then_declaration():
    net = NetworkModel(
        [("C", "cloud"), ("F", "fog"), ("R2", "robot"), ("R1", "robot")],
        [Link("R1", "F", 1.0, ExponentialDelay(1.0)), Link("R2", "F", 1.0, ExponentialDelay(1.0)), Link("F", "C", 1.0, ExponentialDelay(1.0))],
    )
    # robots first in declaration order, then fog, then cloud
    assert [(ref.label, ref.idx) for ref in net.ordered] == [
        ("R2", 1),
        ("R1", 2),
        ("F", 3),
        ("C", 4),
    ]


def test_model_rejects_bad_input():
    with pytest.raises(NetworkError):
        NetworkModel([("A", "laptop")], [])
    with pytest.raises(NetworkError):
        NetworkModel([("A", "robot"), ("A", "fog")], [])
    with pytest.raises(NetworkError):
        NetworkModel([("A", "robot")], [Link("A", "B", 1.0, ExponentialDelay(1.0))])
    dup = [
        Link("A", "B", 1.0, ExponentialDelay(1.0)),
        Link("B", "A", 2.0, ExponentialDelay(1.0)),
    ]
    with pytest.raises(NetworkError):
        NetworkModel([("A", "robot"), ("B", "fog")], dup)
    with pytest.raises(NetworkError):
        Link("A", "A", 1.0, ExponentialDelay(1.0))
    with pytest.raises(NetworkError):
        Link("A", "B", -1.0, ExponentialDelay(1.0))


def test_shortest_path_costs_on_calibrated_network():
    net = calibrated()
    assert shortest_comm_path(net, "R1", "F").expected_one_way == 25.5
    assert shortest_comm_path(net, "R1", "C").expected_one_way == 26.625
    assert shortest_comm_path(net, "R1", "C").path == ("R1", "F", "C")
    assert shortest_comm_path(net, "R2", "R3").expected_one_way == 32.2
    # cached per ordered pair, and the reverse direction is its own entry
    assert shortest_comm_path(net, "C", "R1").path == ("C", "F", "R1")


def test_route_tie_breaks_lexicographically():
    # two routes A->D of equal cost: via B (idx 2) and via C (idx 3)
    net = NetworkModel(
        [("A", "robot"), ("B", "robot"), ("C", "robot"), ("D", "robot")],
        [
            Link("A", "B", 1.0, ExponentialDelay(1.0)),
            Link("A", "C", 1.0, ExponentialDelay(1.0)),
            Link("B", "D", 1.0, ExponentialDelay(1.0)),
            Link("C", "D", 1.0, ExponentialDelay(1.0)),
        ],
    )
    assert shortest_comm_path(net, "A", "D").path == ("A", "B", "D")


def cheapest_path_count(adjacency, src, dst):
    """Number of simple src -> dst paths of least cost, by exhaustive search."""
    costs = []

    def extend(v, cost, seen):
        if v == dst:
            costs.append(cost)
            return
        for w, hop in adjacency[v]:
            if w not in seen:
                extend(w, cost + hop, seen | {w})

    extend(src, 0.0, {src})
    return costs.count(min(costs))


def test_one_search_per_source_matches_brute_force(monkeypatch):
    searches = []
    pop = heapq.heappop

    def counting(heap):
        item = pop(heap)
        if not item[3]:  # only the source entry has no hops
            searches.append(item[2])
        return item

    monkeypatch.setattr(heapq, "heappop", counting)
    rng = random.Random(503)
    ties = 0
    for _ in range(100):
        declarations, links = random_network(rng, max_nodes=7)
        net = NetworkModel(declarations, [Link(a, b, c, ExponentialDelay(lam)) for a, b, c, lam in links])
        idx = {ref.label: ref.idx for ref in net.ordered}
        adjacency = {label: [] for label, _ in declarations}
        for a, b, c, lam in links:
            adjacency[a].append((b, c + 1.0 / lam))
            adjacency[b].append((a, c + 1.0 / lam))
        labels = [ref.label for ref in net.ordered]

        searches.clear()
        dt = round_trip_matrix(net)
        assert searches == labels[:-1]
        for src in labels:
            for dst in labels:
                if src == dst:
                    continue
                route = shortest_comm_path(net, src, dst)
                cost, path = brute_force_route(adjacency, idx, src, dst)
                assert (route.expected_one_way, tuple(idx[v] for v in route.path)) == (cost, path)
                assert dt[idx[src] - 1, idx[dst] - 1] == 2.0 * cost
                ties += cheapest_path_count(adjacency, src, dst) > 1
        # the last node had not been a source yet: one search for all its routes
        assert searches == labels
    assert ties


def test_unreachable():
    net = NetworkModel([("A", "robot"), ("B", "robot")], [])
    with pytest.raises(Unreachable):
        shortest_comm_path(net, "A", "B")
    with pytest.raises(NetworkError):
        shortest_comm_path(net, "A", "A")


def test_request_profile():
    profile = RequestProfile({("T", "A", "B"): 2, ("T", "A", "C"): 0})
    assert profile.count("T", "A", "B") == 2
    assert profile.count("T", "A", "C") == 0  # zero entries are dropped
    assert profile.targets("T", "A") == ("B",)
    with pytest.raises(NetworkError):
        RequestProfile({("T", "A", "B"): -1})
    with pytest.raises(NetworkError):
        RequestProfile({("T", "A", "B"): 1.5})


def test_request_targets_index_matches_brute_force():
    rng = random.Random(7)
    tasks, nodes = ("T1", "T2", "T3"), [f"N{i}" for i in range(1, 9)]
    for _ in range(100):
        counts = {
            (rng.choice(tasks), rng.choice(nodes[:3]), rng.choice(nodes)): rng.choice((0, 0, 1, 2, 5))
            for _ in range(rng.randint(0, 30))
        }
        profile = RequestProfile(counts)
        for task in tasks + ("T9",):
            for src in nodes:
                want = tuple(sorted(d for (t, s, d), _ in profile.items() if t == task and s == src))
                assert profile.targets(task, src) == want
                assert all(counts[(task, src, d)] > 0 for d in want)


def test_com_t_single_hop():
    net = NetworkModel(
        [("A", "robot"), ("B", "fog")],
        [Link("A", "B", 1.0, ExponentialDelay(2.0))],
    )
    profile = RequestProfile({("T", "A", "B"): 2})
    value, dist = com_t_pair(net, profile, "T", "A", "B")
    # each of the 2 requests crosses the hop twice: 4 constants + Erlang(4, 2)
    assert dist.constant == 4.0
    assert dist.terms == (ErlangDelay(4, 2.0),)
    assert value == 6.0


def test_com_t_two_hops_merges_equal_rates():
    net = NetworkModel(
        [("A", "robot"), ("B", "fog"), ("C", "cloud")],
        [
            Link("A", "B", 1.0, ExponentialDelay(4.0)),
            Link("B", "C", 1.0, ExponentialDelay(4.0)),
        ],
    )
    profile = RequestProfile({("T", "A", "C"): 1})
    value, dist = com_t_pair(net, profile, "T", "A", "C")
    assert dist.constant == 4.0
    assert dist.terms == (ErlangDelay(4, 4.0),)
    assert value == 5.0


def test_com_t_zero_requests_and_self():
    net = calibrated()
    profile = RequestProfile({})
    value, dist = com_t_pair(net, profile, "T", "R1", "C")
    assert value == 0.0 and dist.terms == ()
    value, _ = com_t_pair(net, RequestProfile({("T", "F", "F"): 3}), "T", "F", "F")
    assert value == 0.0


def test_com_t_sampling_is_seeded():
    net = calibrated()
    profile = RequestProfile({("T", "R1", "F"): 2, ("T", "R1", "C"): 7})
    with pytest.raises(ValueError):
        com_t_pair(net, profile, "T", "R1", "F", "sample")
    a = com_t_max(net, profile, "T", "R1", "sample", substream(3, 1, 0, 1))
    b = com_t_max(net, profile, "T", "R1", "sample", substream(3, 1, 0, 1))
    assert a == b
    c = com_t_max(net, profile, "T", "R1", "sample", substream(4, 1, 0, 1))
    assert a != c


def test_com_t_max_takes_worst_target():
    net = calibrated()
    profile = RequestProfile({("T", "R1", "F"): 2, ("T", "R1", "C"): 7})
    assert com_t_max(net, profile, "T", "R1") == 372.75
    assert com_t_max(net, profile, "T", "R2") == 0.0


def test_ict_conventions():
    assert ict(0.0) == math.inf
    assert ict(4.0) == 0.25
    with pytest.raises(ValueError):
        ict(-1.0)


def test_round_trip_matrix():
    net = calibrated()
    dt = round_trip_matrix(net)
    assert dt.shape == (5, 5)
    assert np.allclose(dt, dt.T)
    assert np.all(np.diag(dt) == 0.0)
    assert dt[0, 3] == 51.0  # R1 <-> F
    assert dt[0, 4] == 53.25  # R1 <-> C
    assert dt[1, 3] == 32.5  # R2 <-> F
    assert dt[3, 4] == 2.25  # F <-> C


def test_round_trip_matrix_is_built_once_and_read_only(monkeypatch):
    net = calibrated()
    lookups = []
    real = network.shortest_comm_path
    monkeypatch.setattr(network, "shortest_comm_path", lambda *args: lookups.append(args) or real(*args))
    dt = round_trip_matrix(net)
    assert len(lookups) == 10  # one per unordered pair
    assert round_trip_matrix(net) is dt and len(lookups) == 10
    assert not dt.flags.writeable
    with pytest.raises(ValueError):
        dt[0, 3] = 0.0
    assert dt[0, 3] == 51.0
