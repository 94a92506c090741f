"""Independent reference implementations used to cross-check the library.

Everything here is written from scratch with the dumbest correct
algorithm available (exhaustive enumeration, brute-force search), so a
library bug is unlikely to be mirrored here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from hyperalloc.allocator import IDLE_TASK, ScheduleEntry, WindowViolation
from hyperalloc.graphs import AlgorithmId
from hyperalloc.network import round_trip_matrix
from hyperalloc.subspaces import CapabilityState, DegenerateRow


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


def count_walks(succ, u, v, length):
    """Number of directed walks from u to v with exactly ``length`` edges."""
    if length == 0:
        return 1 if u == v else 0
    return sum(count_walks(succ, w, v, length - 1) for w in succ[u])


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
    if end > hi:
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
            frontier = new_start + entry.duration
        else:
            frontier = entry.t_e
    return report


def reallocation_loss_full(report, scorer):
    """Reference for ``allocator.reallocation_loss`` on a :class:`FullImpact`."""
    for index, entry, new_start in report.shifts:
        new_score = scorer(entry, new_start)
        report.rescored.append((index, entry, new_start, new_score))
        if new_score < entry.score:
            report.nv.add(index)
            report.loss += entry.score - new_score
    return report.loss


def commit_decision_full(decision, schedules):
    """Reference for ``allocator.commit_decision``: full scan, append, re-sort."""
    if decision.chosen is None:
        return
    winner = next(c for c in decision.candidates if c.node == decision.chosen)
    impact = winner.impact
    schedule = schedules[winner.node]
    for _, entry, new_start, new_score in impact.rescored:
        length = entry.duration
        entry.t_s = new_start
        entry.t_e = new_start + length
        entry.score = new_score

    ends_before = [e.t_e for e in schedule if e.t_e <= impact.start]
    waited_from = max(ends_before + [decision.arrival])
    if waited_from < impact.start:
        schedule.append(ScheduleEntry(IDLE_TASK, waited_from, impact.start, forced_idle=True))
    schedule.append(ScheduleEntry(decision.task, impact.start, impact.end, score=winner.combined))
    schedule.sort(key=lambda e: e.t_s)


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
    """Per lattice row, the rows of its real flow ancestors, ascending."""
    rows = []
    for v in sl.order:
        seen, frontier = set(), [v]
        while frontier:
            for w in sl.pred[frontier.pop()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        rows.append(sorted(sl.position[w] for w in seen if not w.is_virtual))
    return rows


def predecessor_rows(state):
    """``ancestor_rows`` of the state's lattice."""
    return ancestor_rows(state.sl)


def pi_init_rows(sl, nodes, exec_times, incapable=(), net=None, assignment=None,
                 a1_override=None, a2_override=None, step=0.1):
    """Initial capability state filled one row at a time in topological order.

    The per-row form the library's ``pi_init`` must match bit for bit:
    each round-trip total adds the ``ct`` column of every flow
    predecessor's host, in ascending predecessor row order, starting from
    zero; an unassigned predecessor's host is the argmax of its own row.
    Assumes valid input.
    """
    nodes = tuple(nodes)
    n_nodes = len(nodes)
    rows = sl.order
    n_rows = len(rows)
    et = np.zeros((n_rows, n_nodes))
    for c, label in enumerate(nodes):
        for v in rows:
            if not v.is_virtual:
                et[sl.position[v], c] = exec_times[label][v.index - 1]
    capable = np.ones((n_rows, n_nodes), dtype=bool)
    for label, index in incapable:
        capable[sl.position[AlgorithmId(index)], nodes.index(label)] = False
    ct = round_trip_matrix(net) if net is not None else np.zeros((n_nodes, n_nodes))
    host_col = {sl.position[v]: nodes.index(label) for v, label in (assignment or {}).items()}
    preds = ancestor_rows(sl)
    pred_index = np.full((n_rows, max(map(len, preds), default=0)), n_rows, dtype=np.intp)
    for r, row in enumerate(preds):
        pred_index[r, : len(row)] = row

    def factor(value):
        return np.broadcast_to(np.asarray(value, dtype=float), (n_nodes,))

    pi = np.zeros((n_rows, n_nodes))
    normalizers = np.zeros(n_rows)
    for v in sl.topo:
        r = sl.position[v]
        total = et[r].sum()
        a1 = np.where(et[r] != 0, 1.0 - et[r] / total, 1.0) if total > 0 else np.ones(n_nodes)
        if v in (a1_override or {}):
            a1 = factor(a1_override[v])
        kappa = np.zeros(n_nodes)
        for p in preds[r]:
            col = host_col.get(p)
            if col is None:
                col = int(np.argmax(pi[p]))
            kappa += ct[:, col]
        total = kappa.sum()
        a2 = np.where(kappa != 0, 1.0 - kappa / total, 1.0) if total > 0 else np.ones(n_nodes)
        if v in (a2_override or {}):
            a2 = factor(a2_override[v])
        raw = a1 * a2 * capable[r]
        mass = raw.sum()
        if mass <= 0:
            raise DegenerateRow(f"row for {v} has no positive mass")
        pi[r] = raw / mass
        normalizers[r] = 1.0 / mass
    pr = np.divide(1.0, et, out=np.zeros_like(et), where=et > 0)
    return CapabilityState(
        sl, nodes, pi, pi.copy(), capable, et, pr, normalizers, pred_index, ct, step
    )


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
