"""Top-level acceptance checks, one numbered PASS/FAIL line each.

Run ``pytest -v -s tests/test_acceptance.py`` to see the lines; every
check pins its tolerance and runtime budget explicitly.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np

from hyperalloc.allocator import NO_CAPABLE_NODE, NodeSchedule, allocate, commit_decision
from hyperalloc.delays import delay_mean, sample_delay, substream
from hyperalloc.graphs import (
    count_execution_flows,
    execution_flows,
    to_semilattice,
)
from hyperalloc.network import (
    NetworkModel,
    RequestProfile,
    com_t_max,
    comm_delays,
    shortest_comm_path,
)
from hyperalloc.report import emit_report
from hyperalloc.runner import run
from hyperalloc.scenario import parse_scenario
from hyperalloc.subspaces import (
    Subspace,
    check_score,
    combine_values,
    cplt_score,
    pi_limit,
)

from _oracles import (
    brute_force_route,
    connected_dag,
    delay_variance,
    enumerate_flows,
    nv,
    oracle_decide,
    pi_init_labels,
    random_network,
)
from conftest import EXEC_TIMES, NODES, TASK_EDGES, scenario_text


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def test_01_score_product_golden():
    with criterion(1, "subspace products match the worked totals within 1%"):
        cases = [
            ((1.0, 0.00266, 0.033), 8.78e-5),
            ((1.0, 0.00407, 0.041), 1.67e-4),
        ]
        built = [
            [
                check_score(Subspace.CMPT, cmpt),
                check_score(Subspace.COMM, comm),
                check_score(Subspace.CPLT, cplt),
            ]
            for (cmpt, comm, cplt), _ in cases
        ]
        start = time.perf_counter()
        got = [combine_values(scores) for scores in built]
        elapsed = time.perf_counter() - start
        for value, (_, want) in zip(got, cases):
            assert abs(value - want) / want < 0.01
        assert elapsed < 1e-3


def test_02_decision_golden():
    with criterion(2, "fixture picks R2; with communication alone it picks R3"):
        full = run(parse_scenario(scenario_text("three_robots.scn")))
        assert full.decisions[0].chosen == "R2"
        comm_only = run(parse_scenario(scenario_text("three_robots_comm_only.scn")))
        assert comm_only.decisions[0].chosen == "R3"


def test_03_relative_speed_reconstruction():
    with criterion(3, "uniform 0.2 start row exact; injected finish row lands within 1e-3"):
        sl = to_semilattice(8, TASK_EDGES)
        plain = pi_init_labels(sl, NODES, EXEC_TIMES)
        assert all(v == 0.2 for v in plain.pi[sl.top])

        # the finish vertex runs in no time, so its row is its second factor, normalised
        state = pi_init_labels(sl, NODES, EXEC_TIMES)
        vector = np.array([0.65, 0.81, 0.71, 0.91, 0.92])
        state.pi[sl.bottom] = state.capital[sl.bottom] = vector / vector.sum()
        targets = (0.033, 0.041, 0.036, 0.046, 0.046)
        for column, want in enumerate(targets):
            assert abs(cplt_score(state, column) - want) <= 1e-3


def test_04_delay_composition():
    with criterion(4, "round-trip mean is 2kC + 2k/rate exactly; samples within 4 SE"):
        start = time.perf_counter()
        constant = 1.3
        for k, rate in ((2, 4.0), (7, 8.0), (1, 2.0)):
            net = NetworkModel(
                [("a", "robot"), ("b", "fog")],
                [("a", "b", constant, rate)],
            )
            profile = RequestProfile({("T", "a", "b"): k})
            delays = comm_delays(net, profile, "T", "a")
            dsum, value = delays["b"], com_t_max(delays)
            assert value == 2 * k * constant + 2 * k / rate
            assert delay_mean(dsum) == value

            n = 10_000
            rng = substream(99, "hop", k)
            draws = [sample_delay(dsum, rng) for _ in range(n)]
            se = math.sqrt(delay_variance(dsum) / n)
            assert abs(sum(draws) / n - value) < 4 * se
        assert time.perf_counter() - start < 1.0


def test_05_routing_oracle():
    with criterion(5, "cheapest routes agree with brute force on 200 random networks"):
        start = time.perf_counter()
        rng = random.Random(501)
        for _ in range(200):
            declarations, links = random_network(rng)
            net = NetworkModel(declarations, links)
            idx = {ref.label: ref.idx for ref in net.ordered}
            adjacency = {label: [] for label, _ in declarations}
            for a, b, c, lam in links:
                hop = c + 1.0 / lam
                adjacency[a].append((b, hop))
                adjacency[b].append((a, hop))
            for src, _ in declarations:
                for dst, _ in declarations:
                    if src == dst:
                        continue
                    route = shortest_comm_path(net, src, dst)
                    got = (route.expected_one_way, tuple(idx[v] for v in route.path))
                    assert got == brute_force_route(adjacency, idx, src, dst)
        assert time.perf_counter() - start < 5.0


def test_06_flow_oracle():
    with criterion(6, "flow enumeration agrees with exhaustive search on 200 random connected DAGs"):
        start = time.perf_counter()
        rng = random.Random(601)
        for _ in range(200):
            n, edges = connected_dag(rng)
            sl = to_semilattice(n, edges)
            got = [flow[1:-1] for flow in execution_flows(sl)]  # the algorithms between start and finish
            want = enumerate_flows(n, edges)
            assert count_execution_flows(sl) == len(want)
            assert set(got) == set(want)
            assert got == want
        assert time.perf_counter() - start < 5.0


def test_07_dynamics_invariants():
    with criterion(7, "rows stay stochastic, incapable stays zero, peak never decreases"):
        start = time.perf_counter()
        rng = random.Random(701)
        for _ in range(100):
            m = rng.randint(2, 5)
            labels = [f"n{i}" for i in range(1, m + 1)]
            n, edges = connected_dag(rng, max_vertices=6, p=0.4)
            sl = to_semilattice(n, edges)
            exec_times = {
                label: [rng.uniform(0.5, 5.0) for _ in range(n)] for label in labels
            }
            incapable = {
                (label, v)
                for label in labels[1:]
                for v in range(1, n + 1)
                if rng.random() < 0.2
            }
            state = pi_init_labels(sl, labels, exec_times, incapable=incapable)
            pinned = [(v, labels.index(label)) for label, v in incapable]  # algorithm v is row v
            previous = state.capital.copy()
            for _ in range(10):
                pi_limit(state, tol=1e-30, max_iter=100)
                sums = state.pi.sum(axis=1)
                assert np.all(np.abs(sums - 1.0) <= 1e-9)
                for row, col in pinned:
                    assert state.pi[row, col] == 0.0
                assert np.all(state.capital >= previous)
                assert np.all(state.capital >= state.pi - 1e-15)
                previous = state.capital.copy()
        assert time.perf_counter() - start < 10.0


def test_08_perturbation_invariants():
    with criterion(8, "decisions match an independent re-scoring oracle on 500 sequences"):
        start = time.perf_counter()
        master = random.Random(801)
        for _ in range(500):
            rng = random.Random(master.randrange(2**32))
            m = rng.randint(1, 4)
            labels = [f"n{i}" for i in range(1, m + 1)]
            candidates = [(label, i + 1) for i, label in enumerate(labels)]
            count = rng.randint(1, 10)
            tasks = [f"t{i}" for i in range(1, count + 1)]

            combined = {
                (task, label): rng.choice((0.0, 0.25, 0.5, 0.75, 1.0))
                for task in tasks
                for label in labels
            }
            durations = {
                (task, label): float(rng.randint(1, 6))
                for task in tasks
                for label in labels
            }
            windows = {}
            for task in tasks:
                lo = 0.0 if rng.random() < 0.7 else float(rng.randint(1, 6))
                hi = math.inf if rng.random() < 0.6 else lo + rng.randint(8, 40)
                windows[task] = (lo, hi)

            deadline = {task: windows[task][1] for task in tasks}

            def pure_rescore(task, score, length, new_start):
                if task == "idle":
                    return 0.0
                if new_start + length > deadline[task]:
                    return 0.0
                return score

            def rows_for(task):
                return [
                    (label, idx, {Subspace.COMM: value}, combine_values([check_score(Subspace.COMM, value)]))
                    for label, idx in candidates
                    for value in [combined[(task, label)]]
                ]

            def duration_fn(task, label):
                return durations[(task, label)]

            schedules = {label: NodeSchedule() for label in labels}
            t = 0.0
            for i, task in enumerate(tasks):
                t += rng.choice((0.0, 0.25, 0.5, 1.0, 1.5))
                snapshot = {
                    label: [(e.task, e.t_s, e.t_e, e.score) for e in schedule.entries()]
                    for label, schedule in schedules.items()
                }
                decision = allocate(
                    task,
                    t,
                    i,
                    rows_for(task),
                    duration_fn,
                    windows[task],
                    schedules,
                )
                expect = oracle_decide(
                    candidates,
                    {label: combined[(task, label)] for label in labels},
                    snapshot,
                    t,
                    {label: durations[(task, label)] for label in labels},
                    windows[task],
                    pure_rescore,
                )
                if expect is None:
                    assert decision.chosen is None
                    assert decision.rationale == NO_CAPABLE_NODE
                else:
                    label, rationale, (w_start, w_end, shifts, drops, loss) = expect
                    assert decision.chosen == label
                    assert decision.rationale == rationale
                    winner = next(
                        c for c in decision.candidates if c.node == decision.chosen
                    )
                    admissible = [c for c in decision.candidates if c.admissible]
                    assert winner.combined == max(c.combined for c in admissible)
                    assert (winner.start, winner.end) == (w_start, w_end)
                    assert decision.impact.affected == shifts
                    assert nv(decision.impact) == drops
                    assert winner.loss == loss
                    assert winner.loss >= 0.0
                    for _, old, new in decision.impact.affected:
                        assert new > old

                commit_decision(decision, schedules)
                for schedule in schedules.values():
                    entries = schedule.entries()
                    for a, b in zip(entries, entries[1:]):
                        assert a.t_s <= b.t_s
                        assert a.t_e <= b.t_s
        assert time.perf_counter() - start < 10.0


def test_09_determinism():
    with criterion(9, "equal seeds give byte-identical jsonl and csv reports"):
        for name in ("three_robots.scn", "three_robots_comm_only.scn", "minimal.scn"):
            text = scenario_text(name)
            for mode in ("expected", "sample"):
                first = run(parse_scenario(text), mode=mode, seed=7)
                second = run(parse_scenario(text), mode=mode, seed=7)
                for fmt in ("jsonl", "csv"):
                    assert emit_report(first, fmt) == emit_report(second, fmt)
