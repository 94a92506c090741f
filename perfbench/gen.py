"""Seeded scenario generator for the hyperalloc benchmark (stdlib only).

``generate(workload, seed)`` returns scenario text in the canonical form
that ``format_scenario`` writes, so the text survives a parse/format
round trip unchanged.  Equal (workload, seed) pairs give equal text; the
program under test receives only this text.

Every workload has a fixed shape (node counts, task count, vertices per
task, arrival count); the seed varies link parameters, task graphs,
execution times, request targets and arrival times.  Fixing the shape
keeps the work per run close across seeds, so the spread between seeds
stays small next to the regression bounds.
"""

from __future__ import annotations

import math
import random

# Why each workload exists is recorded in BENCHMARK.json; the layer each
# one loads is recorded with the baseline in baseline.json.  ``load`` is
# the arrival rate as a multiple of the estimated service rate of one node
# per task.
WORKLOADS = {
    # Many candidates per arrival in expected mode: communication scoring
    # (com_t_max and route lookups) and per-candidate runner overhead
    # dominate, and the report is large enough that emit shows.  With 1200
    # arrivals the five first-of-task arrivals and the few full garbage
    # collections stay inside the 1 % that p99 leaves out.
    "fleet": dict(
        robots=24, fogs=10, clouds=6, tasks=5, vertices=8, arrivals=1200,
        mode="expected", targets=2, candidates="robots+fogs",
        load=0.5, deadline_tasks=0, per_task=None,
    ),
    # Few nodes, arrivals faster than service: queues grow, every insertion
    # shifts the queued entries, and sample mode draws delays per candidate.
    # One task has a finite deadline so window violations and score losses
    # occur while the queue still grows.  At 30 times the service rate the
    # queue holds nearly every arrival, so the shifting work varies little
    # between seeds.
    "backlog": dict(
        robots=3, fogs=1, clouds=1, tasks=4, vertices=6, arrivals=1500,
        mode="sample", targets=2, candidates="all",
        load=30.0, deadline_tasks=1, per_task=None,
    ),
    # Large task graphs: capability dynamics (pi_init/pi_limit) carry the
    # first arrival of every task.  Those are 14 of 1008 arrivals, more
    # than the ten that lie beyond p99, so p99 falls on one of them while
    # p50 stays on ordinary arrivals.
    "deepdag": dict(
        robots=8, fogs=8, clouds=4, tasks=14, vertices=40, arrivals=None,
        mode="expected", targets=1, candidates="all",
        load=0.5, deadline_tasks=0, per_task=72,
    ),
}

# Execution time multiplier range per node kind.  Multipliers are spread
# evenly over the range, not drawn: with drawn multipliers some node's
# pull sits close to the row average and the capability dynamics need up
# to five times the usual iterations for that task, which made the cost
# of a run swing by a third between seeds.
_SPEED = {"robot": (1.5, 3.0), "fog": (0.7, 1.2), "cloud": (0.3, 0.6)}
# Link constant time and exponential rate ranges per link class.
_LINK = {
    "robot-fog": ((5.0, 30.0), (1.0, 5.0)),
    "robot-robot": ((2.0, 10.0), (2.0, 6.0)),
    "fog-fog": ((1.0, 5.0), (5.0, 10.0)),
    "fog-cloud": ((1.0, 10.0), (5.0, 20.0)),
    "cloud-cloud": ((0.5, 2.0), (10.0, 20.0)),
}


def _num(v: float) -> str:
    return "inf" if v == math.inf else repr(float(v))


def _round(v: float, digits: int = 3) -> float:
    return float(round(v, digits))


def _network(rng, n_robot, n_fog, n_cloud):
    robots = [f"R{i}" for i in range(1, n_robot + 1)]
    fogs = [f"F{i}" for i in range(1, n_fog + 1)]
    clouds = [f"C{i}" for i in range(1, n_cloud + 1)]
    nodes = [(r, "robot") for r in robots] + [(f, "fog") for f in fogs] + [(c, "cloud") for c in clouds]
    pairs = []  # (a, b, link class), each unordered pair once

    def add(a, b, cls):
        if a != b and all({a, b} != {x, y} for x, y, _ in pairs):
            pairs.append((a, b, cls))

    for i in range(len(fogs) - 1):
        add(fogs[i], fogs[i + 1], "fog-fog")
    if len(fogs) > 2:
        add(fogs[-1], fogs[0], "fog-fog")
    for i in range(len(clouds) - 1):
        add(clouds[i], clouds[i + 1], "cloud-cloud")
    for c in clouds:
        for f in rng.sample(fogs, min(2, len(fogs))):
            add(f, c, "fog-cloud")
    for r in robots:
        for f in rng.sample(fogs, min(1 + (rng.random() < 0.3), len(fogs))):
            add(r, f, "robot-fog")
    if len(robots) > 1:
        for _ in range(len(robots) // 4 + 1):
            a, b = rng.sample(robots, 2)
            add(a, b, "robot-robot")

    links = []
    for a, b, cls in pairs:
        (c_lo, c_hi), (l_lo, l_hi) = _LINK[cls]
        links.append((a, b, _round(rng.uniform(c_lo, c_hi)), _round(rng.uniform(l_lo, l_hi))))
    return nodes, links


def _dag(rng, n):
    """Connected DAG on 1..n: every vertex after the first has one or two
    predecessors among the few vertices just before it."""
    edges = []
    for v in range(2, n + 1):
        window = list(range(max(1, v - 4), v))
        k = min(len(window), 1 + (rng.random() < 0.35))
        edges += [(p, v) for p in sorted(rng.sample(window, k))]
    return edges


def _critical_path(n, edges, cost):
    dist = [0.0] * (n + 1)
    for v in range(1, n + 1):  # vertex indices are already topological
        preds = [dist[p] for p, w in edges if w == v]
        dist[v] = cost[v - 1] + max(preds, default=0.0)
    return max(dist[1:])


def _build(workload: str, seed: int) -> dict:
    spec = WORKLOADS[workload]
    rng = random.Random(f"hyperalloc-bench:{workload}:{seed}")
    nodes, links = _network(rng, spec["robots"], spec["fogs"], spec["clouds"])
    labels = [label for label, _ in nodes]
    kinds = dict(nodes)
    speed = {}
    for kind, (lo, hi) in _SPEED.items():
        members = [label for label in labels if kinds[label] == kind]
        for i, label in enumerate(members):
            speed[label] = lo + (hi - lo) * (i + 0.5) / len(members)
    if spec["candidates"] == "robots+fogs":
        cands = [label for label in labels if kinds[label] != "cloud"]
    else:
        cands = list(labels)
    servers = [label for label in labels if kinds[label] != "robot"]

    tasks = {}
    requests = {}
    for t in range(1, spec["tasks"] + 1):
        task_id = f"T{t}"
        n = spec["vertices"]
        edges = _dag(rng, n)
        base = [rng.uniform(1.0, 6.0) for _ in range(n)]
        exec_times = {
            label: [_round(b * speed[label]) for b in base]
            for label in labels
        }
        for src in cands:
            pool = [s for s in servers if s != src]
            for dst in rng.sample(pool, min(spec["targets"], len(pool))):
                requests[(task_id, src, dst)] = 2
        tasks[task_id] = dict(edges=edges, exec=exec_times, window=(0.0, math.inf))

    # Arrival rate from a rough service-time estimate: critical path on an
    # average candidate plus two round trips over a typical link.  Every
    # arrival of a task goes to the same best-scoring node unless windows
    # or sampled delays say otherwise, so about one node per task works.
    busy = [
        _critical_path(spec["vertices"], task["edges"], task["exec"][label]) + 60.0
        for task in tasks.values()
        for label in cands
    ]
    rate = spec["load"] * min(len(tasks), len(cands)) * len(busy) / sum(busy)

    task_ids = list(tasks)
    if spec["per_task"] is not None:
        order = [task_id for task_id in task_ids for _ in range(spec["per_task"])]
        rng.shuffle(order)
    else:
        order = [rng.choice(task_ids) for _ in range(spec["arrivals"])]
    arrivals = []
    t = 0.0
    for task_id in order:
        t += rng.expovariate(rate)
        arrivals.append((_round(t, 4), task_id))

    for task_id in task_ids[: spec["deadline_tasks"]]:
        # Finite deadline at 80 % of the arrival horizon: later arrivals of
        # this task are refused and queued ones shifted past it lose score.
        tasks[task_id]["window"] = (0.0, _round(0.8 * arrivals[-1][0]))

    return dict(
        nodes=nodes, links=links, tasks=tasks, requests=requests,
        candidates=None if len(cands) == len(labels) else cands,
        arrivals=arrivals, mode=spec["mode"], seed=seed,
    )


def _text(sc: dict) -> str:
    lines = ["[network]"]
    lines += [f"node {label} kind={kind}" for label, kind in sc["nodes"]]
    lines += [f"link {a} {b} c={_num(c)} lambda={_num(lam)}" for a, b, c, lam in sc["links"]]
    lines += ["", "[profile]"]
    lines += [f"requests {t} {s} {d} k={k}" for (t, s, d), k in sorted(sc["requests"].items())]
    for task_id, task in sc["tasks"].items():
        n = len(next(iter(task["exec"].values())))
        lines += ["", f"[task {task_id}]"]
        lines.append(f"window a={_num(task['window'][0])} b={_num(task['window'][1])}")
        lines.append("vertices " + " ".join(f"A{i}" for i in range(1, n + 1)))
        lines += [f"edge A{a} -> A{b}" for a, b in task["edges"]]
        for label, _ in sc["nodes"]:
            lines.append(f"exec {label} " + " ".join(_num(v) for v in task["exec"][label]))
        if sc["candidates"] is not None:
            lines.append("candidates " + " ".join(sc["candidates"]))
    lines += ["", "[arrivals]"]
    lines += [f"arrive t={_num(t)} task={task_id}" for t, task_id in sc["arrivals"]]
    lines += ["", "[options]", f"mode {sc['mode']}", f"seed {sc['seed']}",
              "subspaces cmpt,comm,cplt", "step 0.1", "tol 1e-06", "max_iter 10000"]
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int) -> str:
    """Scenario text for one workload and seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    return _text(_build(workload, seed))


def expectations(workload: str, seed: int) -> dict:
    """What the checker needs to know about the generated input."""
    sc = _build(workload, seed)
    return dict(
        arrivals=[task_id for _, task_id in sc["arrivals"]],
        windows={task_id: task["window"] for task_id, task in sc["tasks"].items()},
    )


def properties(workload: str, seed: int) -> dict:
    """Input properties that decide which layer does the work."""
    sc = _build(workload, seed)
    arrivals = [task_id for _, task_id in sc["arrivals"]]
    n_cands = len(sc["candidates"] or sc["nodes"])
    queries = len(arrivals) * n_cands
    distinct = len(set(arrivals)) * n_cands
    return dict(
        arrivals=len(arrivals),
        candidates_per_arrival=n_cands,
        first_of_task_share=len(set(arrivals)) / len(arrivals),
        # Share of (task, node) communication queries that repeat an
        # earlier one: reusable in expected mode, fresh draws in sample mode.
        comm_query_repeat_share=1.0 - distinct / queries,
        comm_repeats_reusable=sc["mode"] == "expected",
    )
