import random

import numpy as np
import pytest

from hyperalloc.graphs import (
    CycleDetected,
    FlowExplosion,
    GraphError,
    IndexOutOfRange,
    count_execution_flows,
    execution_flows,
    flow_critical_cost,
    flow_predecessors,
    max_flow_length,
    to_semilattice,
    weak_component_count,
)

from _oracles import (
    connected_dag,
    critical_cost,
    enumerate_flows,
    lift,
    lifted_ancestors,
    lifted_order,
    lifted_topo,
    random_dag,
)

EDGES = [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (5, 7), (6, 8), (7, 8)]


def reference_lattice():
    return to_semilattice(8, EDGES)


def real_path(flow):
    """A flow's real algorithms: every position between the start and the finish."""
    return flow[1:-1]


def test_to_semilattice_rejects_bad_edges():
    with pytest.raises(IndexOutOfRange):
        to_semilattice(3, [(1, 4)])
    with pytest.raises(IndexOutOfRange):
        to_semilattice(3, [(0, 1)])
    with pytest.raises(GraphError, match="duplicate edge"):
        to_semilattice(3, [(1, 2), (1, 2)])
    # an index must be an int, as an assignment's or an incapable entry's must
    for edge in [(1.0, 2.0), ("1", "2"), (1, None)]:
        with pytest.raises(IndexOutOfRange, match="outside vertex range 1..3"):
            to_semilattice(3, [edge])


def test_to_semilattice_rejects_cycles():
    with pytest.raises(CycleDetected, match="self-edge on vertex 1"):
        to_semilattice(3, [(1, 1)])
    with pytest.raises(CycleDetected, match="directed cycle"):
        to_semilattice(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(CycleDetected, match="directed cycle"):
        to_semilattice(2, [(1, 2), (2, 1)])
    # a cycle reached from a source: its positions never become ready
    with pytest.raises(CycleDetected, match="directed cycle"):
        to_semilattice(4, [(1, 2), (2, 3), (3, 2), (3, 4)])


def test_lattice_names_its_positions():
    sl = reference_lattice()
    assert [sl.name(r) for r in range(sl.size)] == ["start1"] + [f"A{i}" for i in range(1, 9)] + ["finish1"]


def test_semilattice_structure_single_component():
    sl = reference_lattice()
    # positions: the start, algorithm i at position i, the finish
    assert (sl.top, sl.reals, sl.bottom, sl.size) == (0, range(1, 9), 9, 10)
    assert sl.succ[sl.top] == (1,)
    assert sl.pred[sl.bottom] == (8,)
    assert sl.succ[4] == (5,) and sl.pred[4] == (2, 3)


def test_a_graph_in_two_parts_lifts_to_one_start_and_one_finish():
    # connectivity is a scenario rule (test_cli's disconnected task graph)
    sl = to_semilattice(4, [(1, 2), (3, 4)])
    assert (sl.top, sl.reals, sl.bottom, sl.size) == (0, range(1, 5), 5, 6)
    assert sl.succ[sl.top] == (1, 3) and sl.pred[sl.bottom] == (2, 4)
    assert sl.topo == (0, 1, 2, 3, 4, 5)
    assert [real_path(f) for f in execution_flows(sl)] == [(1, 2), (3, 4)]
    assert np.array_equal(flow_predecessors(sl)[sl.bottom], [False, True, True, True, True, False])


def test_to_semilattice_rejects_a_graph_without_vertices():
    for n in (0, -1):
        with pytest.raises(GraphError, match="at least one vertex"):
            to_semilattice(n, [])


def test_reference_flows_and_count():
    sl = reference_lattice()
    flows = execution_flows(sl)
    assert count_execution_flows(sl) == 4
    assert [real_path(f) for f in flows] == [
        (1, 2, 4, 5, 6, 8),
        (1, 2, 4, 5, 7, 8),
        (1, 3, 4, 5, 6, 8),
        (1, 3, 4, 5, 7, 8),
    ]


def test_long_chain_enumerates_without_recursion():
    n = 1500
    sl = to_semilattice(n, [(v, v + 1) for v in range(1, n)])
    flows = execution_flows(sl)
    assert len(flows) == 1
    assert flows[0][0] == sl.top
    assert flows[0][-1] == sl.bottom
    assert real_path(flows[0]) == tuple(range(1, n + 1))


def test_flow_cap_checked_before_enumeration():
    # 21 stacked diamonds -> 2^21 flows, far over the cap, but the count
    # is a cheap DP so the guard must trigger fast.
    edges = []
    v = 1
    for _ in range(21):
        edges += [(v, v + 1), (v, v + 2), (v + 1, v + 3), (v + 2, v + 3)]
        v += 3
    sl = to_semilattice(v, edges)
    assert count_execution_flows(sl) == 2**21
    with pytest.raises(FlowExplosion):
        execution_flows(sl)
    # the cap parameter itself, on a graph small enough to enumerate
    small = reference_lattice()
    with pytest.raises(FlowExplosion):
        execution_flows(small, cap=3)
    assert len(execution_flows(small, cap=4)) == 4


def test_flow_predecessors_are_flow_ancestors():
    sl = reference_lattice()
    before = flow_predecessors(sl)
    assert before.shape == (sl.size, sl.size) and before.dtype == bool
    assert np.flatnonzero(before[4]).tolist() == [1, 2, 3]
    assert np.flatnonzero(before[1]).tolist() == []
    assert np.flatnonzero(before[sl.top]).tolist() == []
    assert np.flatnonzero(before[sl.bottom]).tolist() == list(sl.reals)


def test_flow_predecessors_of_a_long_chain():
    n = 3000
    sl = to_semilattice(n, [(v, v + 1) for v in range(1, n)])
    before = flow_predecessors(sl)
    for r in (1, 2, 1500, n, sl.bottom):
        assert np.flatnonzero(before[r]).tolist() == list(range(1, r))
    # row r holds exactly 1..r-1: every row's count, and nothing above the diagonal
    assert np.array_equal(before.sum(axis=1), [0, *range(n + 1)])
    assert not np.triu(before).any()


def test_lifted_order_matches_reference():
    for seed in range(30):
        rng = random.Random(seed)
        n, edges = connected_dag(rng)
        sl = to_semilattice(n, edges)
        assert (sl.top, sl.reals, sl.bottom, sl.size) == (0, range(1, n + 1), n + 1, n + 2)
        assert ["top1", *sl.reals, "bot1"] == lifted_order(n, edges)


def test_flow_critical_cost_vertex_and_edge():
    sl = reference_lattice()
    row = {1: 2, 2: 6, 3: 4, 4: 2, 5: 6, 6: 4, 7: 2, 8: 6}
    cost = flow_critical_cost(sl, [0] + [row[i] for i in sl.reals] + [0])
    assert cost == 26  # 2+6+2+6+4+6 along 1-2-4-5-6-8
    hops = flow_critical_cost(sl, edge_cost=lambda u, v: 1)
    assert hops == max_flow_length(sl)


def test_flows_match_oracle_quick():
    rng = random.Random(42)
    for _ in range(50):
        n, edges = connected_dag(rng)
        sl = to_semilattice(n, edges)
        got = [real_path(f) for f in execution_flows(sl)]
        assert got == enumerate_flows(n, edges)
        assert count_execution_flows(sl) == len(got)


def oracle_graphs():
    """Random connected DAGs, sparse to dense."""
    rng = random.Random(808)
    graphs = []
    for p in (0.15, 0.35, 0.6):
        graphs += [connected_dag(rng, max_vertices=10, p=p) for _ in range(40)]
    return graphs


def test_topo_and_flow_predecessors_match_oracles():
    forked = 0
    for n, edges in oracle_graphs():
        sl = to_semilattice(n, edges)
        forked += len(sl.succ[sl.top]) > 1 and len(sl.pred[sl.bottom]) > 1  # several sources and sinks
        order = lifted_order(n, edges)
        assert list(sl.topo) == [order.index(v) for v in lifted_topo(n, edges)]
        assert [np.flatnonzero(row).tolist() for row in flow_predecessors(sl)] == lifted_ancestors(n, edges)
    assert forked >= 10


def test_cost_matrix_columns_match_scalar_oracle():
    rng = random.Random(809)
    for n, edges in oracle_graphs():
        sl = to_semilattice(n, edges)
        rows = [[rng.uniform(0.0, 9.9) for _ in range(n)] for _ in range(4)]  # one per node
        cost = np.zeros((sl.size, len(rows)))
        cost[sl.reals.start : sl.reals.stop] = np.transpose(rows)
        got = flow_critical_cost(sl, cost)
        assert got.shape == (len(rows),)
        for column, row in zip(got, rows):
            want = critical_cost(n, edges, lambda i, row=row: row[i - 1])
            assert np.array_equal(column, want)
            vector = [0.0, *row, 0.0]
            scalar = flow_critical_cost(sl, vector)
            assert type(scalar) is float and scalar == want


def test_weak_component_count_matches_the_lifted_components():
    assert weak_component_count(0, []) == len(lift(0, [])[0]) == 0
    rng = random.Random(1301)
    counts = set()
    for _ in range(300):
        n, edges = random_dag(rng, max_vertices=12, p=rng.choice((0.05, 0.15, 0.35)))
        want = len(lift(n, edges)[0])
        rng.shuffle(edges)
        edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]  # direction does not matter
        assert weak_component_count(n, edges) == want
        counts.add(want)
    assert {1, 2, 3} <= counts
