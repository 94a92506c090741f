"""Scenario execution: compile the models, score candidates, allocate.

The engine turns a parsed scenario into a network model, request
profile, compatibility table, and one flow lattice per task, then walks
the arrival sequence.  Scoring work per arrival can fan out over a
thread pool; results are merged in node-index order so the outcome is
identical to the serial run.
"""

from __future__ import annotations

import gc
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .allocator import allocate, commit_decision
from .delays import ExponentialDelay, substream
from .errors import HyperallocError
from .graphs import (
    algorithm,
    build_graph,
    execution_flows,
    flow_critical_cost,
    max_flow_length,
    to_semilattice,
)
from .network import (
    MODES,
    Link,
    NetworkModel,
    RequestProfile,
    com_t_max,
    com_t_pair,
    ict,
    round_trip_matrix,
    shortest_comm_path,
)
from .scenario import RunOptions, Scenario, ScenarioError, parse_subspace_selection
from .subspaces import (
    CompatibilityTable,
    Subspace,
    cmpt_score,
    cplt_score,
    overall_comm_bound,
    pi_init,
    pi_limit,
)


class EngineError(HyperallocError):
    """A well-formed scenario that cannot be executed."""


@dataclass
class RunReport:
    seed: int
    mode: str
    subspaces: tuple
    step: float
    tol: float
    max_iter: int
    threads: int
    decisions: list = field(default_factory=list)
    schedules: dict = field(default_factory=dict)
    convergence: dict = field(default_factory=dict)  # task -> iterations/converged
    warnings: list = field(default_factory=list)


def _build_network(sc: Scenario) -> NetworkModel:
    links = [Link(a, b, c, ExponentialDelay(lam)) for a, b, c, lam in sc.links]
    return NetworkModel(sc.nodes, links)


class _Engine:
    def __init__(self, sc: Scenario, opts: RunOptions, threads: int = 1):
        self.sc = sc
        self.opts = opts
        self.threads = max(1, int(threads))
        self.net = _build_network(sc)
        self.labels = tuple(ref.label for ref in self.net.ordered)
        self.profile = RequestProfile(sc.requests)
        self.table = CompatibilityTable(sc.tasks.keys(), self.labels, sc.incompatible)
        self.lattices = {
            task.task_id: to_semilattice(build_graph(len(task.labels), task.edges))
            for task in sc.tasks.values()
        }
        self.states = {}
        self.convergence = {}
        self.warnings = []
        self._late = set()  # (task, node) pairs already warned about their deadline
        self._durations = {}
        self._ict = dict(sc.overrides_comm)  # overrides, then expected scores once computed

    def candidates(self, task_id: str) -> list:
        spec = self.sc.tasks[task_id]
        chosen = spec.candidates if spec.candidates is not None else self.labels
        return [(label, self.net.node(label).idx) for label in chosen]

    def capability_state(self, task_id: str):
        state = self.states.get(task_id)
        if state is None:
            spec = self.sc.tasks[task_id]
            assignment = {algorithm(i): label for i, label in spec.assignment.items()}
            state = pi_init(
                self.lattices[task_id],
                self.labels,
                spec.exec_times,
                incapable=spec.incapable,
                net=self.net,
                assignment=assignment,
                step=self.opts.step,
            )
            pi_limit(state, tol=self.opts.tol, max_iter=self.opts.max_iter)
            self.states[task_id] = state
            self.convergence[task_id] = {
                "iterations": state.iterations,
                "converged": bool(state.converged),
            }
            if not state.converged:
                self.warnings.append(
                    f"task {task_id}: capability dynamics still moving "
                    f"after {state.iterations} iterations"
                )
        return state

    def scores_for(self, task_id: str, arrival_idx: int, candidates) -> dict:
        if Subspace.CPLT in self.opts.subspaces:
            self.capability_state(task_id)  # build once before any fan-out
        if self.threads > 1 and len(candidates) > 1:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                rows = list(
                    pool.map(lambda c: self._score_one(task_id, arrival_idx, c), candidates)
                )
        else:
            rows = [self._score_one(task_id, arrival_idx, c) for c in candidates]
        return dict(rows)

    def _score_one(self, task_id, arrival_idx, candidate):
        label, idx = candidate
        scores = {}
        for subspace in self.opts.subspaces:
            if subspace is Subspace.CMPT:
                scores[subspace] = cmpt_score(self.table, task_id, label).value
            elif subspace is Subspace.COMM:
                scores[subspace] = self._comm_value(task_id, arrival_idx, label, idx)
            else:
                scores[subspace] = cplt_score(self.capability_state(task_id), label).value
        return label, scores

    def _comm_value(self, task_id, arrival_idx, label, idx) -> float:
        known = self._ict.get((task_id, label))
        if known is not None:
            return known
        rng = None
        if self.opts.mode == "sample":
            rng = substream(self.opts.seed, 1, arrival_idx, idx)
        comt = com_t_max(self.net, self.profile, task_id, label, self.opts.mode, rng)
        deadline = self.sc.tasks[task_id].window[1]
        if comt > deadline and (task_id, label) not in self._late:
            # once per pair: in sample mode later draws would add a line each
            self._late.add((task_id, label))
            self.warnings.append(
                f"task {task_id} on {label}: round-trip total {comt:.6g} "
                f"exceeds deadline {deadline:.6g}"
            )
        value = ict(comt)
        if self.opts.mode == "expected":
            # an expected comT depends only on the network and profile, fixed for the run
            self._ict[(task_id, label)] = value
        return value

    def duration(self, task_id: str, label: str) -> float:
        key = (task_id, label)
        cached = self._durations.get(key)
        if cached is not None:
            return cached
        spec = self.sc.tasks[task_id]
        row = spec.exec_times[label]
        exec_cost = flow_critical_cost(
            self.lattices[task_id],
            vertex_cost=lambda v: 0.0 if v.is_virtual else float(row[v.index - 1]),
        )
        comm = 0.0
        for dst in self.profile.targets(task_id, label):
            value, _ = com_t_pair(self.net, self.profile, task_id, label, dst, "expected")
            comm += value
        total = exec_cost + comm
        if not total > 0:
            raise EngineError(
                f"task {task_id} on {label}: busy time must be positive, got {total}"
            )
        self._durations[key] = total
        return total

    def rescorer(self):
        windows = {task_id: spec.window for task_id, spec in self.sc.tasks.items()}

        def rescore(entry, new_start):
            if entry.forced_idle:
                return 0.0
            deadline = windows.get(entry.task, (0.0, math.inf))[1]
            if new_start + entry.duration > deadline:
                return 0.0
            return entry.score

        return rescore


def _resolve_options(base, mode, seed, subspaces, step, tol, max_iter) -> RunOptions:
    opts = replace(base)
    if mode is not None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        opts.mode = mode
    if seed is not None:
        opts.seed = int(seed)
    if subspaces is not None:
        if isinstance(subspaces, str):
            try:
                opts.subspaces = parse_subspace_selection(subspaces)
            except ScenarioError as exc:
                raise ValueError(exc.issues[0].message) from None
        else:
            opts.subspaces = tuple(s for s in Subspace if s in tuple(subspaces))
            if not opts.subspaces:
                raise ValueError("at least one subspace must be selected")
    if step is not None:
        if not 0 < step <= 1:
            raise ValueError(f"step must lie in (0, 1], got {step}")
        opts.step = float(step)
    if tol is not None:
        if not 0 < tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {tol}")
        opts.tol = float(tol)
    if max_iter is not None:
        if max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {max_iter}")
        opts.max_iter = int(max_iter)
    return opts


def run(
    scenario: Scenario,
    *,
    mode=None,
    seed=None,
    subspaces=None,
    step=None,
    tol=None,
    max_iter=None,
    threads: int = 1,
) -> RunReport:
    """Execute a scenario and return the full decision record.

    Keyword arguments override the scenario's [options] section.  Equal
    seeds produce identical reports; ``threads`` only distributes the
    per-candidate scoring work and never changes the result.

    The cyclic garbage collector is paused for the arrival loop, which
    makes no reference cycles, and restored afterwards, also on error.
    The pause is process-wide: it holds for other threads too.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    opts = _resolve_options(scenario.options, mode, seed, subspaces, step, tol, max_iter)
    engine = _Engine(scenario, opts, threads)
    schedules = {label: [] for label in engine.labels}
    decisions = []
    rescore = engine.rescorer()
    collecting = gc.isenabled()
    gc.disable()
    try:
        for i, (t, task_id) in enumerate(scenario.arrivals):
            candidates = engine.candidates(task_id)
            scores = engine.scores_for(task_id, i, candidates)
            decision = allocate(
                task_id,
                t,
                i,
                candidates,
                lambda task, label, _idx, table=scores: table[label],
                engine.duration,
                engine.sc.tasks[task_id].window,
                schedules,
                rescore,
            )
            commit_decision(decision, schedules)
            decisions.append(decision)
    finally:
        if collecting:
            gc.enable()
    return RunReport(
        seed=opts.seed,
        mode=opts.mode,
        subspaces=opts.subspaces,
        step=opts.step,
        tol=opts.tol,
        max_iter=opts.max_iter,
        threads=engine.threads,
        decisions=decisions,
        schedules=schedules,
        convergence=engine.convergence,
        warnings=engine.warnings,
    )


def _vertex_name(spec, v) -> str:
    return str(v) if v.is_virtual else spec.labels[v.index - 1]


def inspect_flows(scenario: Scenario) -> dict:
    """Execution flows of every task, in emission order."""
    out = {}
    for task_id, spec in scenario.tasks.items():
        sl = to_semilattice(build_graph(len(spec.labels), spec.edges))
        flows = execution_flows(sl)
        out[task_id] = {
            "count": len(flows),
            "max_length": max_flow_length(sl),
            "flows": [[_vertex_name(spec, v) for v in f.vertices] for f in flows],
        }
    return out


def inspect_pi(scenario: Scenario) -> dict:
    """Converged allocation probabilities and worst-flow transmission bound."""
    engine = _Engine(scenario, scenario.options)
    dt = round_trip_matrix(engine.net)
    out = {}
    for task_id, spec in scenario.tasks.items():
        state = engine.capability_state(task_id)
        sl = engine.lattices[task_id]
        out[task_id] = {
            "nodes": list(state.nodes),
            "vertices": [_vertex_name(spec, v) for v in sl.order],
            "pi": [[float(x) for x in row] for row in state.pi],
            "capital": [[float(x) for x in row] for row in state.capital],
            "iterations": state.iterations,
            "converged": bool(state.converged),
            "transmission_bound": float(overall_comm_bound(state, dt)),
        }
    return out


def inspect_routes(scenario: Scenario) -> list:
    """Cheapest route between every node pair, lowest indices first."""
    net = _build_network(scenario)
    routes = []
    for a in net.ordered:
        for b in net.ordered:
            if a.idx >= b.idx:
                continue
            route = shortest_comm_path(net, a.label, b.label)
            routes.append(
                {
                    "from": a.label,
                    "to": b.label,
                    "path": list(route.path),
                    "expected_one_way": route.expected_one_way,
                    "round_trip": 2.0 * route.expected_one_way,
                }
            )
    return routes
