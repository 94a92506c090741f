"""Independent reference implementations used to cross-check the library.

Everything here is written from scratch with the dumbest correct
algorithm available (exhaustive enumeration, brute-force search), so a
library bug is unlikely to be mirrored here.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field

import numpy as np

from hyperalloc.allocator import IDLE_TASK, ScheduleEntry, WindowViolation
from hyperalloc.delays import ErlangDelay, delay_mean, delay_sum, sample_delay, substream
from hyperalloc.graphs import to_semilattice
from hyperalloc.network import ict, round_trip_matrix, shortest_comm_path
from hyperalloc.subspaces import (
    CapabilityState,
    Subspace,
    check_score,
    combine_values,
    cplt_score,
    pi_init,
    pi_limit,
)


# ---------------------------------------------------------------- flows


def lift(n, edges):
    """Lift a DAG on vertices 1..n: returns (components, succ, tops, bots).

    Virtual vertices are strings "top<i>"/"bot<i>", one pair per weakly
    connected component, components ordered by smallest member.
    """
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    groups = {}
    for v in range(1, n + 1):
        groups.setdefault(find(v), []).append(v)
    comps = sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])

    succ = {v: set() for v in range(1, n + 1)}
    pred = {v: set() for v in range(1, n + 1)}
    for a, b in edges:
        succ[a].add(b)
        pred[b].add(a)

    lifted = {}
    tops, bots = [], []
    for i, comp in enumerate(comps, start=1):
        top, bot = f"top{i}", f"bot{i}"
        tops.append(top)
        bots.append(bot)
        lifted[top] = sorted(v for v in comp if not pred[v])
        for v in comp:
            lifted[v] = sorted(succ[v]) or [bot]
        lifted[bot] = []
    return comps, lifted, tops, bots


def enumerate_flows(n, edges):
    """Every top-to-bottom path as a tuple of real vertices.

    Emission order: components by smallest member, paths within a
    component lexicographically by vertex index (matching the library's
    promised order).
    """
    _, succ, tops, _ = lift(n, edges)
    flows = []

    def walk(v, acc):
        if isinstance(v, int):
            acc = acc + (v,)
        children = succ[v]
        if not children:
            flows.append(acc)
            return
        for w in children:
            walk(w, acc)

    for top in tops:
        walk(top, ())
    return flows


def lifted_order(n, edges):
    """Vertex order for matrix views: tops, reals ascending, bottoms."""
    _, _, tops, bots = lift(n, edges)
    return tops + list(range(1, n + 1)) + bots


def _lifted_pred(succ):
    pred = {v: [] for v in succ}
    for v, children in succ.items():
        for w in children:
            pred[w].append(v)
    return pred


def _kind_key(v):
    """Starts, then reals, then finishes, each by ascending number."""
    if isinstance(v, int):
        return (1, v)
    return (0 if v.startswith("top") else 2, int(v[3:]))


def lifted_topo(n, edges):
    """Topological order of the lifted graph: a heap pops the ready vertex
    with the lowest (kind, index) key first."""
    _, succ, _, _ = lift(n, edges)
    indeg = {v: len(p) for v, p in _lifted_pred(succ).items()}
    heap = [(_kind_key(v), v) for v in succ if indeg[v] == 0]
    heapq.heapify(heap)
    topo = []
    while heap:
        _, v = heapq.heappop(heap)
        topo.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, (_kind_key(w), w))
    return topo


def lifted_ancestors(n, edges):
    """Per lifted vertex in ``lifted_order``, the ``lifted_order`` positions
    of its real ancestors, ascending, found by a breadth-first search."""
    _, succ, _, _ = lift(n, edges)
    pred = _lifted_pred(succ)
    order = lifted_order(n, edges)
    position = {v: i for i, v in enumerate(order)}
    rows = []
    for v in order:
        seen, frontier = set(), [v]
        while frontier:
            for w in pred[frontier.pop()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        rows.append(sorted(position[w] for w in seen if isinstance(w, int)))
    return rows


def critical_cost(n, edges, cost):
    """Worst-flow summed vertex cost, one vertex at a time in ``lifted_topo``
    order: ``cost(i)`` for real vertex i, zero for virtual ones."""
    _, succ, _, bots = lift(n, edges)
    pred = _lifted_pred(succ)
    dist = {}
    for v in lifted_topo(n, edges):
        base = float(cost(v)) if isinstance(v, int) else 0.0
        incoming = [dist[u] for u in pred[v]]
        dist[v] = base + (max(incoming) if incoming else 0.0)
    return max((dist[b] for b in bots), default=0.0)


# --------------------------------------------------------------- routing


def brute_force_route(adjacency, idx, src, dst):
    """Cheapest simple path by exhaustive search.

    ``adjacency``: {label: [(label, hop cost)]}; ``idx``: {label: index}.
    Returns (cost, idx_path) minimising cost with lexicographic index
    tie-break, or None when dst is unreachable.
    """
    best = None

    def extend(v, cost, path, seen):
        nonlocal best
        if v == dst:
            key = (cost, path)
            if best is None or key < best:
                best = key
            return
        for w, hop in adjacency[v]:
            if w not in seen:
                extend(w, cost + hop, path + (idx[w],), seen | {w})

    extend(src, 0.0, (idx[src],), {src})
    return best


# ------------------------------------------------------------ scheduling


def oracle_insert(entries, arrival, duration, window):
    """Reference insertion sweep.

    ``entries``: (task, t_s, t_e, score) tuples sorted by start.  Returns
    (start, end, shifts) with shifts as (1-based index, old start, new
    start), or None when the window deadline would be violated.
    """
    lo, hi = window
    busy = [t_e for _, t_s, t_e, _ in entries if t_s < arrival]
    start = max([arrival, lo] + busy)
    end = start + duration
    if end > hi:
        return None
    shifts = []
    frontier = end
    for i, (_, t_s, t_e, _) in enumerate(entries):
        if t_s < arrival or t_e <= start:
            continue
        if t_s < frontier:
            shifts.append((i + 1, t_s, frontier))
            frontier = frontier + (t_e - t_s)
        else:
            frontier = t_e
    return start, end, shifts


@dataclass
class FullImpact:
    """Plain record of the full-scan oracle: one tuple per displaced entry."""

    node: str
    start: float
    end: float
    affected: list = field(default_factory=list)  # (index, old start, new start)
    shifts: list = field(default_factory=list)  # (index, entry, new start)
    rescored: list = field(default_factory=list)  # (index, entry, new start, new score)
    nv: set = field(default_factory=set)
    loss: float = 0.0


def schedule_impact_full(schedule, task, duration, arrival, window=(0.0, math.inf), node=""):
    """Reference for ``allocator.schedule_impact`` that scans every entry."""
    if not duration > 0:
        raise ValueError(f"duration must be positive, got {duration}")
    lo, hi = window
    earliest = max(arrival, lo)
    busy_end = max((e.t_e for e in schedule if e.t_s < arrival), default=0.0)
    start = max(earliest, busy_end)
    end = start + duration
    if end > hi or end == math.inf:
        raise WindowViolation(f"task {task} would end at {end}, after deadline {hi}")

    report = FullImpact(node=node, start=start, end=end)
    frontier = end
    for i, entry in enumerate(schedule):
        if entry.t_s < arrival or entry.t_e <= start:
            continue
        if entry.t_s < frontier:
            new_start = frontier
            report.affected.append((i + 1, entry.t_s, new_start))
            report.shifts.append((i + 1, entry, new_start))
            frontier = new_start + (entry.t_e - entry.t_s)
            if frontier == math.inf:
                raise WindowViolation(f"task {task} would shift an entry to end at infinity")
        else:
            frontier = entry.t_e
    return report


def deadline_rescorer(deadlines):
    """The rescoring rule for :func:`reallocation_loss_full`: a shifted
    entry scores 0 when it is forced idle or its new end passes its task's
    deadline (``deadlines[task]``, ``inf`` when absent), else keeps its score."""

    def rescore(entry, new_start):
        if entry.forced_idle or new_start + (entry.t_e - entry.t_s) > deadlines.get(entry.task, math.inf):
            return 0.0
        return entry.score

    return rescore


def reallocation_loss_full(report, scorer):
    """Reference for ``allocator.reallocation_loss`` on a :class:`FullImpact`."""
    for index, entry, new_start in report.shifts:
        new_score = scorer(entry, new_start)
        report.rescored.append((index, entry, new_start, new_score))
        if new_score < entry.score:
            report.nv.add(index)
            report.loss += entry.score - new_score
    return report.loss


def nv(report):
    """The 1-based schedule indices of an ``allocator.ImpactReport``'s score drops."""
    return {report.first + 1 + int(i) for i in report.dropped}


def commit_decision_full(decision, schedules):
    """Reference for ``allocator.commit_decision``: full scans and list splicing.

    The entries that end by the new slot's start stay before it, every
    other entry goes after it, and an idle entry fills any wait between
    the arrival (or the last of the entries before) and the start.
    """
    if decision.chosen is None:
        return
    winner = next(c for c in decision.candidates if c.node == decision.chosen)
    impact = decision.impact
    schedule = schedules[winner.node]
    before = [e for e in schedule if e.t_e <= impact.start]
    after = [e for e in schedule if e.t_e > impact.start]
    for _, entry, new_start, new_score in impact.rescored:
        length = entry.t_e - entry.t_s
        entry.t_s = new_start
        entry.t_e = new_start + length
        entry.score = new_score

    waited_from = max([e.t_e for e in before] + [decision.arrival])
    added = [ScheduleEntry(decision.task, impact.start, impact.end, score=winner.combined)]
    if waited_from < impact.start:
        added.insert(0, ScheduleEntry(IDLE_TASK, waited_from, impact.start, forced_idle=True))
    schedule[:] = before + added + after


def oracle_decide(candidates, combined, schedules, arrival, durations, window, rescore):
    """Reference decision rule over snapshot schedules.

    ``candidates``: (label, idx) pairs; ``schedules``: {label: entry
    tuples as for oracle_insert}; ``rescore(task, score, length,
    new_start)`` must be the same pure function the library run uses.
    Returns (label, rationale, details) or None; details is (start, end,
    shifts, nv, loss).
    """
    admissible = {}
    for label, idx in sorted(candidates, key=lambda c: c[1]):
        if combined[label] == 0:
            continue
        placed = oracle_insert(schedules[label], arrival, durations[label], window)
        if placed is None:
            continue
        start, end, shifts = placed
        nv = set()
        loss = 0.0
        for index, _, new_start in shifts:
            task, t_s, t_e, score = schedules[label][index - 1]
            new_score = rescore(task, score, t_e - t_s, new_start)
            if new_score < score:
                nv.add(index)
                loss += score - new_score
        admissible[label] = (start, end, shifts, nv, loss)

    if not admissible:
        return None
    best = max(combined[label] for label in admissible)
    top = [label for label in admissible if combined[label] == best]
    if len(top) == 1:
        return top[0], "max-score", admissible[top[0]]
    quiet = [label for label in top if not admissible[label][2] or not admissible[label][3]]
    if quiet:
        return quiet[0], "non-perturbing", admissible[quiet[0]]
    least = min(admissible[label][4] for label in top)
    pick = next(label for label in top if admissible[label][4] == least)
    return pick, "min-loss", admissible[pick]


# ---------------------------------------------------------------- delays


def variance(d):
    """Variance of an :class:`ErlangDelay`: ``shape`` exponential variances ``1/rate**2``."""
    return d.shape / (d.rate * d.rate)


def delay_variance(d):
    """Variance of a DelaySum: its independent Erlang terms' variances add."""
    return sum(variance(t) for t in d.terms)


# -------------------------------------------------------------- scoring


def com_t_pair(net, profile, task, src, dst, rng=None):
    """Communication total between src and dst for one task, built afresh.

    Returns ``(value, DelaySum)``: ``2k`` constants per hop plus
    Erlang(2k, rate) per hop, k being the request count; the value is
    the sum's mean, or one draw from ``rng`` when given.  Zero requests
    (or src == dst) cost exactly zero and draw nothing.
    """
    net.node(src)
    net.node(dst)
    k = profile.count(task, src, dst)
    if k == 0 or src == dst:
        return 0.0, delay_sum()
    route = shortest_comm_path(net, src, dst)
    constant = 0.0
    for link in route.links:  # left to right: sum() of floats compensates from Python 3.12 on
        constant += link.constant_time
    constant *= 2 * k
    dist = delay_sum(constant, [ErlangDelay(2 * k, link.rate) for link in route.links])
    return (delay_mean(dist) if rng is None else sample_delay(dist, rng)), dist


def com_t_worst(net, profile, task, src, rng=None):
    """Worst :func:`com_t_pair` value over the task's targets from src, in node-index order."""
    worst = 0.0
    for dst in sorted(profile.targets(task, src), key=lambda lbl: net.node(lbl).idx):
        worst = max(worst, com_t_pair(net, profile, task, src, dst, rng)[0])
    return worst


def score_per_arrival(sc, opts, net, profile, states, task_id, arrival_idx):
    """Candidate rows ``(label, idx, scores, combined)`` of one arrival, scored afresh.

    Every subspace score is recomputed for this arrival alone and
    checked with ``check_score`` and combined with ``combine_values``, in node-index order; sample mode
    draws comm from ``substream(seed, 1, arrival_idx, idx)``.  ``states``
    caches each task's converged capability dynamics, which no arrival
    changes.
    """
    spec = sc.tasks[task_id]
    labels = spec.candidates if spec.candidates is not None else [ref.label for ref in net.ordered]
    if Subspace.CPLT in opts.subspaces and task_id not in states:
        state = pi_init_labels(
            to_semilattice(len(spec.labels), spec.edges),
            tuple(ref.label for ref in net.ordered),
            spec.exec_times,
            incapable=spec.incapable,
            net=net,
            assignment=spec.assignment,
            step=opts.step,
        )
        pi_limit(state, tol=opts.tol, max_iter=opts.max_iter)
        states[task_id] = state
    rows = []
    for label in sorted(labels, key=lambda label: net.node(label).idx):
        idx = net.node(label).idx
        scores = {}
        for subspace in opts.subspaces:
            if subspace is Subspace.CMPT:
                scores[subspace] = 0.0 if (task_id, label) in sc.incompatible else 1.0
            elif subspace is Subspace.COMM and (task_id, label) in sc.overrides_comm:
                scores[subspace] = sc.overrides_comm[(task_id, label)]
            elif subspace is Subspace.COMM:
                rng = substream(opts.seed, 1, arrival_idx, idx) if opts.mode == "sample" else None
                scores[subspace] = ict(com_t_worst(net, profile, task_id, label, rng))
            else:
                scores[subspace] = cplt_score(states[task_id], idx - 1)
        combined = combine_values([check_score(s, v) for s, v in scores.items()])
        rows.append((label, idx, scores, combined))
    return rows


# -------------------------------------------------------------- generators


def random_dag(rng, max_vertices=8, p=0.35):
    """Random DAG on 1..n with all edges oriented low-to-high."""
    n = rng.randint(1, max_vertices)
    edges = [
        (a, b)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if rng.random() < p
    ]
    return n, edges


def connected_dag(rng, max_vertices=8, p=0.35):
    """``random_dag`` drawn again until ``lift`` finds one component, so
    that the graph has a flow lattice."""
    while True:
        n, edges = random_dag(rng, max_vertices, p)
        if len(lift(n, edges)[0]) == 1:
            return n, edges


def random_network(rng, max_nodes=6):
    """Random connected network with a small discrete parameter pool.

    The pools make exact cost ties common, which is what exercises the
    lexicographic route tie-break.  Returns (declarations, link params)
    with links as (a, b, constant, rate).
    """
    n = rng.randint(2, max_nodes)
    labels = [f"N{i}" for i in range(1, n + 1)]
    kinds = [rng.choice(("robot", "fog", "cloud")) for _ in labels]
    pairs = []
    for i in range(1, n):
        pairs.append((labels[i], labels[rng.randrange(i)]))
    seen = {frozenset(p) for p in pairs}
    for i in range(n):
        for j in range(i + 1, n):
            pair = frozenset((labels[i], labels[j]))
            if pair not in seen and rng.random() < 0.3:
                seen.add(pair)
                pairs.append((labels[i], labels[j]))
    links = [
        (a, b, rng.choice((0.5, 1.0, 2.0)), rng.choice((0.5, 1.0, 2.0, 4.0)))
        for a, b in pairs
    ]
    return list(zip(labels, kinds)), links


# -------------------------------------------------------------- dynamics


def ancestor_rows(sl):
    """Per lattice row, the rows of its real flow ancestors, ascending,
    from the lattice's real-to-real edges."""
    edges = [(a, b) for a in sl.reals for b in sl.succ[a] if b in sl.reals]
    return lifted_ancestors(len(sl.reals), edges)


def predecessor_rows(state):
    """``ancestor_rows`` of the state's lattice."""
    return ancestor_rows(state.sl)


def pi_init_labels(sl, nodes, exec_times, incapable=(), net=None, assignment=None, step=0.1):
    """``pi_init`` on label-keyed input, the arguments ``pi_init_rows`` takes.

    ``exec_times`` maps each node label to one time per algorithm,
    ``incapable`` lists (node label, algorithm index) pairs and
    ``assignment`` maps algorithm indices to node labels; without a
    network every round trip is zero.  Assumes valid input.
    """
    nodes = tuple(nodes)
    et = np.zeros((sl.size, len(nodes)))
    capable = np.ones(et.shape, dtype=bool)
    fixed = np.full(sl.size, -1, dtype=np.intp)
    for c, label in enumerate(nodes):
        et[sl.reals.start : sl.reals.stop, c] = exec_times[label]
    for label, index in incapable:
        capable[index, nodes.index(label)] = False
    for index, label in (assignment or {}).items():
        fixed[index] = nodes.index(label)
    ct = round_trip_matrix(net) if net is not None else np.zeros((len(nodes), len(nodes)))
    return pi_init(sl, et, capable, ct, fixed, step)


def pi_init_rows(sl, nodes, exec_times, incapable=(), net=None, assignment=None, step=0.1):
    """Initial capability state filled one row at a time in topological order.

    The per-row form the library's ``pi_init`` must match bit for bit:
    each round-trip total adds the ``ct`` column of every flow
    predecessor's host, in ascending predecessor row order, starting from
    zero; an unassigned predecessor's host is the argmax of its own row.
    Assumes valid input.
    """
    nodes = tuple(nodes)
    n_nodes = len(nodes)
    n_rows = sl.size  # the start, algorithm i at row i, the finish
    et = np.zeros((n_rows, n_nodes))
    for c, label in enumerate(nodes):
        for i, value in enumerate(exec_times[label], start=1):
            et[i, c] = value
    capable = np.ones((n_rows, n_nodes), dtype=bool)
    for label, index in incapable:
        capable[index, nodes.index(label)] = False
    ct = round_trip_matrix(net) if net is not None else np.zeros((n_nodes, n_nodes))
    host_col = {index: nodes.index(label) for index, label in (assignment or {}).items()}
    preds = ancestor_rows(sl)
    pred_index = np.full((n_rows, max(map(len, preds), default=0)), n_rows, dtype=np.intp)
    for r, row in enumerate(preds):
        pred_index[r, : len(row)] = row

    pi = np.zeros((n_rows, n_nodes))
    for r in sl.topo:
        total = et[r].sum()
        a1 = np.where(et[r] != 0, 1.0 - et[r] / total, 1.0) if total > 0 else np.ones(n_nodes)
        kappa = np.zeros(n_nodes)
        for p in preds[r]:
            col = host_col.get(p)
            if col is None:
                col = int(np.argmax(pi[p]))
            kappa += ct[:, col]
        total = kappa.sum()
        a2 = np.where(kappa != 0, 1.0 - kappa / total, 1.0) if total > 0 else np.ones(n_nodes)
        raw = a1 * a2 * capable[r]
        mass = raw.sum()
        if mass <= 0:  # no pull anywhere: the capable nodes share the row evenly
            raw = capable[r].astype(float)
            mass = raw.sum()
        pi[r] = raw / mass
    pr = np.divide(1.0, et, out=np.zeros_like(et), where=et > 0)
    return CapabilityState(sl, pi, pi.copy(), capable, pr, pred_index, ct, step)


def omega_update_rows(state):
    """Zero-sum drift matrix computed one row at a time.

    The per-row form the library's whole-matrix ``omega_update`` must
    match bit for bit: each denominator is numpy's reduction over the
    gathered predecessor columns of ``ct``, in ascending predecessor row
    order.
    """
    pi = state.pi
    n_rows, _ = pi.shape
    arg = np.argmax(pi, axis=1)
    omega = np.zeros_like(pi)
    for r, preds in enumerate(predecessor_rows(state)):
        mask = state.capable[r]
        raw = state.pr[r].copy()
        if preds:
            denom = state.ct[:, arg[list(preds)]].sum(axis=1)
            positive = denom > 0
            raw = np.where(positive, np.divide(raw, np.where(positive, denom, 1.0)), raw)
        raw = raw * mask
        mass = raw.sum()
        if mass <= 0:
            continue
        u = raw / mass
        m = int(mask.sum())
        omega[r, mask] = state.step * (u[mask] - 1.0 / m)
    return omega


def pi_limit_rows(state, tol, max_iter):
    """The dynamics iterated with ``omega_update_rows``; mutates ``state``."""
    converged = False
    for _ in range(max_iter):
        omega = omega_update_rows(state)
        new = np.clip(state.pi + omega, 0.0, 1.0)
        new[~state.capable] = 0.0
        new /= new.sum(axis=1, keepdims=True)
        change = float(np.abs(new - state.pi).max())
        state.pi = new
        np.maximum(state.capital, new, out=state.capital)
        state.iterations += 1
        if change < tol:
            converged = True
            break
    state.converged = converged
    return state


# ---------------------------------------------------------------- report


def jsonl_records(report):
    """The jsonl report's records, one dict per line, built field by field."""
    records = [
        {
            "record": "meta",
            "seed": report.options.seed,
            "mode": report.options.mode,
            "subspaces": [s.value for s in report.options.subspaces],
            "step": report.options.step,
            "tol": report.options.tol,
            "max_iter": report.options.max_iter,
            "threads": 1,
            "convergence": report.convergence,
            "warnings": report.warnings,
        }
    ]
    for d in report.decisions:
        candidates = [
            {
                "node": c.node,
                "idx": c.node_idx,
                "scores": c.scores,
                "combined": c.combined,
                "admissible": c.admissible,
                "exclusion": c.exclusion,
                "loss": c.loss,
                "start": c.start,
                "end": c.end,
            }
            for c in d.candidates
        ]
        records.append(
            {
                "record": "decision",
                "task": d.task,
                "arrival": d.arrival,
                "arrival_idx": d.arrival_idx,
                "chosen": d.chosen,
                "rationale": d.rationale,
                "candidates": candidates,
            }
        )
    for node, entries in report.schedules.items():
        entries = [
            {"task": e.task, "t_s": e.t_s, "t_e": e.t_e, "score": e.score, "forced_idle": e.forced_idle}
            for e in entries
        ]
        records.append({"record": "schedule", "node": node, "entries": entries})
    return records


def jsonl_text(report):
    """``jsonl_records`` as compact JSON, one record per line."""
    return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in jsonl_records(report))
