import math
import random

import numpy as np
import pytest

from hyperalloc import subspaces
from hyperalloc.graphs import execution_flows, to_semilattice
from hyperalloc.network import (
    NetworkModel,
    RequestProfile,
    com_t_max,
    comm_delays,
    ict,
    round_trip_matrix,
)
from hyperalloc.runner import run
from hyperalloc.scenario import UnresolvedReference, check_scenario, parse_scenario
from hyperalloc.subspaces import (
    Subspace,
    SubspaceError,
    check_score,
    combine_values,
    cplt_score,
    omega_update,
    overall_comm_bound,
    pi_init,
    pi_limit,
)

from _oracles import (
    connected_dag,
    omega_update_rows,
    pi_init_labels,
    pi_init_rows,
    pi_limit_rows,
    predecessor_rows,
    random_network,
)
from conftest import scenario_text

EDGES = [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (5, 7), (6, 8), (7, 8)]
NODES = ("R1", "R2", "R3", "F", "C")
EXEC = {
    "R1": [2, 6, 4, 2, 6, 4, 2, 6],
    "R2": [2, 6, 4, 2, 6, 4, 2, 6],
    "R3": [2, 6, 4, 2, 6, 4, 2, 6],
    "F": [1, 3, 2, 1, 3, 2, 1, 3],
    "C": [0.5, 1.5, 1, 0.5, 1.5, 1, 0.5, 1.5],
}
ASSIGN = {1: "C", 2: "C", 3: "F", 4: "C", 5: "C", 6: "C", 7: "F", 8: "C"}


def lattice():
    return to_semilattice(8, EDGES)


def calibrated_net():
    return NetworkModel(
        [("R1", "robot"), ("R2", "robot"), ("R3", "robot"), ("F", "fog"), ("C", "cloud")],
        [
            ("R1", "F", 25.0, 2.0),
            ("R2", "F", 16.0, 4.0),
            ("R3", "F", 15.7, 4.0),
            ("F", "C", 1.0, 8.0),
        ],
    )


def fixture_state(**kwargs):
    return pi_init_labels(lattice(), NODES, EXEC, net=calibrated_net(), assignment=ASSIGN, **kwargs)


def test_score_ranges():
    assert check_score(Subspace.CMPT, 1.0) == 1.0
    assert check_score(Subspace.COMM, math.inf) == math.inf
    assert check_score(Subspace.CPLT, 0.5) == 0.5
    with pytest.raises(SubspaceError):
        check_score(Subspace.CMPT, 0.5)
    with pytest.raises(SubspaceError):
        check_score(Subspace.COMM, -0.1)
    with pytest.raises(SubspaceError):
        check_score(Subspace.CPLT, 1.5)


def test_compatibility_table():
    # a declared incompatible pair scores 0, every other declared pair 1
    sc = parse_scenario(scenario_text("three_robots.scn"))
    assert sc.incompatible == {("T", "R3")}
    (decision,) = run(sc).decisions
    assert {c.node: c.scores[Subspace.CMPT] for c in decision.candidates} == {"R1": 1.0, "R2": 1.0, "R3": 0.0}
    # a pair naming an undeclared task or node is a scenario issue
    for pair, name in ((("U", "R1"), "task U"), (("T", "R9"), "node R9")):
        sc = parse_scenario(scenario_text("three_robots.scn"))
        sc.incompatible.add(pair)
        message = f"incompatibility references undeclared {name}"
        assert check_scenario(sc) == [(("incompatible", pair), message, "unresolved")]
        with pytest.raises(UnresolvedReference, match=message):
            run(sc)


def test_communication_score_wraps_worst_target():
    net = calibrated_net()
    profile = RequestProfile({("T", "R1", "F"): 2, ("T", "R1", "C"): 7})
    assert ict(com_t_max(comm_delays(net, profile, "T", "R1"))) == 1.0 / 372.75
    assert ict(com_t_max(comm_delays(net, profile, "T", "R2"))) == math.inf


def test_top_row_is_uniform_exactly():
    state = fixture_state()
    assert state.sl.top == 0
    assert all(v == 0.2 for v in state.pi[state.sl.top])


def test_bottom_row_matches_round_trip_totals():
    state = fixture_state()
    dt = round_trip_matrix(calibrated_net())
    f, c = NODES.index("F"), NODES.index("C")
    kappa = 2 * dt[:, f] + 6 * dt[:, c]  # A3, A7 assigned to F, the rest to C
    a2 = 1.0 - kappa / kappa.sum()
    assert abs(a2.sum() - (len(NODES) - 1)) < 1e-12
    expected = a2 / a2.sum()
    assert np.allclose(state.pi[state.sl.bottom], expected, atol=1e-12)


def test_first_row_uses_relative_execution_speed():
    state = fixture_state()
    r = 1  # algorithm 1's row
    et = np.array([2.0, 2.0, 2.0, 1.0, 0.5])
    a1 = 1.0 - et / et.sum()  # no flow predecessors, so the round-trip factor is 1
    assert np.allclose(state.pi[r], a1 / a1.sum(), atol=1e-12)


def test_zero_exec_time_gets_full_speed_factor():
    sl = to_semilattice(2, [(1, 2)])
    state = pi_init_labels(sl, ("X", "Y"), {"X": [4.0, 1.0], "Y": [0.0, 1.0]})
    r = 1
    # node Y executes step 1 in no time: its factor is 1, X gets 1 - 4/4 = 0
    assert state.pi[r, 0] == 0.0
    assert state.pi[r, 1] == 1.0
    assert state.pr[r, 0] == 0.25
    assert state.pr[r, 1] == 0.0  # no execution time, no drift pull


def test_incapable_entries_stay_zero():
    state = fixture_state(incapable=(("R3", 1), ("R3", 8)))
    r1, r8 = 1, 8
    col = NODES.index("R3")
    assert state.pi[r1, col] == 0.0 and state.pi[r8, col] == 0.0
    pi_limit(state, tol=1e-12, max_iter=50)
    assert state.pi[r1, col] == 0.0 and state.pi[r8, col] == 0.0
    assert state.capital[r1, col] == 0.0


def test_rows_without_pull_are_shared_evenly_by_their_capable_nodes():
    # a single node: relative speed vanishes, and the node takes every row
    state = pi_init_labels(to_semilattice(1, []), ("N",), {"N": [3.0]})
    assert state.pi.tolist() == [[1.0]] * 3
    # X holds all the time of A2 and A3, so its first factor there is 0, and Y is incapable
    sl3 = to_semilattice(3, [(1, 2), (1, 3)])
    state = pi_init_labels(sl3, ("X", "Y"), {"X": [1, 2, 3], "Y": [3, 0, 0]}, incapable=(("Y", 2), ("Y", 3)))
    for v in (2, 3):
        assert state.pi[v].tolist() == [1.0, 0.0]
    # A1 leans to B, where A2's flow predecessor then sits: A's round trip
    # zeroes A's second factor on A2, and B's share of A2's time its first
    net = NetworkModel([("A", "robot"), ("B", "fog")], [("A", "B", 1.0, 1.0)])
    sl2 = to_semilattice(2, [(1, 2)])
    state = pi_init_labels(sl2, ("A", "B"), {"A": [5.0, 0.0], "B": [0.0, 5.0]}, net=net)
    assert state.pi[1].tolist() == [0.0, 1.0]
    assert state.pi[2].tolist() == [0.5, 0.5]
    pi_limit(state, tol=1e-12, max_iter=50)
    assert np.all(np.abs(state.pi.sum(axis=1) - 1.0) <= 1e-12)


def test_omega_rows_sum_to_zero_and_respect_capability():
    state = fixture_state(incapable=(("R3", 2),))
    omega = omega_update(state)
    assert np.allclose(omega.sum(axis=1), 0.0, atol=1e-15)
    assert omega[2, NODES.index("R3")] == 0.0
    assert omega[state.sl.top].sum() == 0.0  # no pull on virtual rows
    assert not omega[state.sl.top].any()


def test_omega_scales_linearly_with_step():
    a = fixture_state(step=0.1)
    b = fixture_state(step=0.2)
    assert np.allclose(2.0 * omega_update(a), omega_update(b), atol=1e-15)


def test_virtual_rows_hold_station_under_iteration():
    state = fixture_state()
    top, bottom = state.sl.top, state.sl.bottom
    top0 = state.pi[top].copy()
    bottom0 = state.pi[bottom].copy()
    pi_limit(state, tol=1e-12, max_iter=300)
    assert np.allclose(state.pi[top], top0, atol=1e-12)
    assert np.allclose(state.pi[bottom], bottom0, atol=1e-12)
    assert np.allclose(state.capital[bottom], bottom0, atol=1e-12)


def test_pi_limit_invariants_on_random_states():
    rng = random.Random(11)
    for _ in range(10):
        n, edges = connected_dag(rng, max_vertices=6)
        sl = to_semilattice(n, edges)
        nodes = tuple(f"n{i}" for i in range(rng.randint(2, 4)))
        exec_times = {
            label: [rng.choice((0.5, 1.0, 2.0, 4.0)) for _ in range(n)] for label in nodes
        }
        incapable = [
            (label, v)
            for label in nodes[1:]
            for v in range(1, n + 1)
            if rng.random() < 0.15
        ]
        state = pi_init_labels(sl, nodes, exec_times, incapable=incapable)
        previous = state.capital.copy()
        for _ in range(5):
            pi_limit(state, tol=1e-30, max_iter=40)
            assert np.allclose(state.pi.sum(axis=1), 1.0, atol=1e-9)
            for label, v in incapable:
                assert state.pi[v, nodes.index(label)] == 0.0
            assert (state.capital >= previous - 1e-18).all()
            assert (state.capital >= state.pi - 1e-18).all()
            previous = state.capital.copy()


def test_pi_limit_flags_nonconvergence():
    state = fixture_state()
    pi_limit(state, tol=1e-12, max_iter=1)
    assert state.converged is False
    assert state.iterations == 1
    state2 = fixture_state()
    pi_limit(state2, tol=10.0, max_iter=5)
    assert state2.converged is True


def test_capital_pi_and_cplt_score():
    state = fixture_state()
    top, bottom = state.sl.top, state.sl.bottom
    assert state.capital[top, NODES.index("R1")] == 0.2
    s = cplt_score(state, NODES.index("R2"))
    assert type(s) is float
    assert abs(s - state.capital[top, 1] * state.capital[bottom, 1]) < 1e-18


def test_combine_scores_annihilation_and_infinity():
    def scores(*pairs):
        return [check_score(s, v) for s, v in pairs]

    assert combine_values(scores((Subspace.CMPT, 1.0), (Subspace.COMM, 0.5))) == 0.5
    assert combine_values(scores((Subspace.CMPT, 0.0), (Subspace.COMM, math.inf))) == 0.0
    assert combine_values(scores((Subspace.COMM, math.inf), (Subspace.CPLT, 0.25))) == math.inf
    assert combine_values([]) == 1.0
    value = combine_values(
        scores((Subspace.CMPT, 1.0), (Subspace.COMM, 0.00266), (Subspace.CPLT, 0.033))
    )
    assert abs(value - 8.778e-5) < 1e-12


def test_overall_comm_bound_matches_flow_enumeration():
    state = fixture_state()
    sl = lattice()
    dt = round_trip_matrix(calibrated_net())
    host = np.argmax(state.capital, axis=1)
    expected = 0.0
    for flow in execution_flows(sl):
        reals = flow[1:-1]
        cost = sum(dt[host[u], host[v]] for u, v in zip(reals, reals[1:]))
        expected = max(expected, cost)
    assert overall_comm_bound(state) == expected


def random_networked_states(rng, count):
    """``(nodes, build)`` pairs: the node labels in index order and a
    builder of equal fresh states on a random network and DAG.

    Link costs and execution times are drawn from continuous ranges, so
    sums of them round differently when added in a different order.
    """
    builders = []
    while len(builders) < count:
        declarations, links = random_network(rng, max_nodes=10)
        net = NetworkModel(
            declarations,
            [(a, b, rng.uniform(0.1, 30.0), rng.uniform(0.5, 8.0)) for a, b, _, _ in links],
        )
        nodes = tuple(ref.label for ref in net.ordered)
        n, edges = connected_dag(rng, max_vertices=20, p=0.35)
        sl = to_semilattice(n, edges)
        exec_times = {label: [rng.uniform(0.5, 5.0) for _ in range(n)] for label in nodes}
        incapable = [(label, v) for label in nodes[1:] for v in range(1, n + 1) if rng.random() < 0.15]

        def build(init=pi_init_labels, sl=sl, nodes=nodes, exec_times=exec_times, incapable=incapable,
                  net=net, **extra):
            return init(sl, nodes, exec_times, incapable=incapable, net=net, **extra)

        builders.append((nodes, build))
    return builders


def test_dynamics_match_per_row_reference_bit_for_bit():
    rng = random.Random(5)
    pinned = wide = moved = 0
    for _, build in random_networked_states(rng, 20):
        ours, ref, probe = build(), build(), build()
        assert ours.ct.any()
        pinned += not ours.capable.all()
        pred_rows = predecessor_rows(ours)
        wide += max(map(len, pred_rows)) >= 8
        assert np.array_equal(omega_update(ours), omega_update_rows(ours))

        pi_limit(ours, tol=1e-9, max_iter=60)
        pi_limit_rows(ref, tol=1e-9, max_iter=60)
        assert np.array_equal(ours.pi, ref.pi)
        assert np.array_equal(ours.capital, ref.capital)
        assert ours.iterations == ref.iterations
        assert ours.converged == ref.converged
        assert np.array_equal(omega_update(ours), omega_update_rows(ours))

        # Replay the run: does the most likely host of a flow predecessor
        # move after the first iteration?  Then denominators computed once
        # would have gone stale.
        preds = sorted({p for row in pred_rows for p in row})
        first = np.argmax(probe.pi[preds], axis=1)
        for _ in range(ref.iterations - 1):
            pi_limit_rows(probe, tol=1e-30, max_iter=1)
            if not np.array_equal(np.argmax(probe.pi[preds], axis=1), first):
                moved += 1
                break
    assert pinned and wide and moved


def init_variants(rng, sl, nodes):
    """pi_init keyword sets: none, assigned hosts, and up to two vertices
    whose whole execution time sits on the first node while every other
    node is incapable of them, which leaves their rows without mass."""
    reals = sl.reals
    first, others = nodes[0], nodes[1:]
    empty = rng.sample(reals, min(2, len(reals)))
    return [
        {},
        {"assignment": {v: rng.choice(nodes) for v in rng.sample(reals, (len(reals) + 1) // 2)}},
        {
            "exec_times": {
                label: [0.0 if v in empty and label != first else rng.uniform(0.5, 5.0) for v in reals]
                for label in nodes
            },
            "incapable": [(label, v) for label in others for v in empty],
        },
    ]


def test_pi_init_matches_per_row_reference_bit_for_bit():
    rng = random.Random(7)
    degenerate = deep = 0
    for nodes, build in random_networked_states(rng, 20):
        plain = build()
        deep += max(map(len, predecessor_rows(plain))) >= 4
        for extra in init_variants(rng, plain.sl, nodes):
            ref = build(pi_init_rows, **extra)
            ours = build(**extra)
            for name in ("pi", "capital", "capable", "pred_index", "pr", "ct"):
                assert np.array_equal(getattr(ours, name), getattr(ref, name)), name
            # a row without mass goes whole to its one capable node, the first
            for v in {v for _, v in extra.get("incapable", ())}:
                assert ours.pi[v].tolist() == [1.0] + [0.0] * (len(nodes) - 1)
                degenerate += 1
    assert degenerate and deep


def test_pi_limit_updates_drift_once_per_host_change(monkeypatch):
    calls = []
    original = subspaces.omega_update

    def counting(state, denom=None):
        calls.append(state.pi.argmax(axis=1))
        return original(state, denom)

    monkeypatch.setattr(subspaces, "omega_update", counting)
    rng = random.Random(13)
    moved = 0
    for _, build in random_networked_states(rng, 20):
        ours, ref, probe = build(), build(), build()
        calls.clear()
        pi_limit(ours, tol=1e-9, max_iter=60)
        pi_limit_rows(ref, tol=1e-9, max_iter=60)
        assert np.array_equal(ours.pi, ref.pi)
        assert np.array_equal(ours.capital, ref.capital)
        assert ours.iterations == ref.iterations and ours.converged == ref.converged

        # The most likely hosts before each iteration of the reference run,
        # with consecutive repeats dropped.
        hosts = []
        for _ in range(ref.iterations):
            now = probe.pi.argmax(axis=1)
            if not hosts or not np.array_equal(now, hosts[-1]):
                hosts.append(now)
            pi_limit_rows(probe, tol=1e-30, max_iter=1)
        assert len(calls) == len(hosts)
        assert all(np.array_equal(a, b) for a, b in zip(calls, hosts))
        moved += len(hosts) > 1
    assert moved


def test_overall_comm_bound_on_deep_lattice():
    # 70 fully linked layers of width 2 have 2**70 flows, more walks
    # than int64 adjacency powers can count.
    layers = 70
    edges = [
        (2 * i + a, 2 * i + 2 + b)
        for i in range(layers - 1)
        for a in (1, 2)
        for b in (1, 2)
    ]
    sl = to_semilattice(2 * layers, edges)
    et = np.zeros((sl.size, 2))
    et[sl.reals.start : sl.reals.stop] = [1.0, 2.0]
    capable = np.ones(et.shape, dtype=bool)
    state = pi_init(sl, et, capable, np.ones((2, 2)), np.full(sl.size, -1, dtype=np.intp), 0.1)
    # Every edge between real vertices costs 1 whichever hosts hold them.
    assert overall_comm_bound(state) == layers - 1
