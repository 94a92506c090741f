"""Scenario execution: compile the models, score candidates, allocate.

The engine checks a scenario's content and options, then compiles the
checked scenario in one place: a network model, a request profile and
one flow lattice per task, and at a task's first use its capability
input arrays (:meth:`_Engine.compiled`).  The building blocks it hands
them to do not check them again.  It then walks the arrival sequence one
arrival at a time: each decision reads the schedules the previous ones
committed.  Scores do not depend on them, so a task's candidates are
scored once, at its first arrival (sample mode redraws only the
communication score for each later arrival).
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .allocator import NodeSchedule, allocate, commit_decision
from .delays import added_in_order, delay_mean, seat, substream
from .errors import HyperallocError
from .graphs import (
    execution_flows,
    flow_critical_cost,
    max_flow_length,
    to_semilattice,
)
from .network import (
    NetworkModel,
    RequestProfile,
    com_t_max,
    comm_delays,
    ict,
    round_trip_matrix,
    shortest_comm_path,
)
from .scenario import RunOptions, Scenario, check_scenario, set_option, unlocated_error
from .subspaces import (
    Subspace,
    check_score,
    combine_values,
    cplt_score,
    overall_comm_bound,
    pi_init,
    pi_limit,
)


class EngineError(HyperallocError):
    """A well-formed scenario that cannot be executed."""


# sample mode seeds the draw streams of whole arrivals until a block holds this many
_SEED_BLOCK = 4096


@dataclass
class RunReport:
    options: RunOptions  # the checked options of the run
    decisions: list = field(default_factory=list)
    schedules: dict = field(default_factory=dict)
    convergence: dict = field(default_factory=dict)  # task -> iterations/converged
    warnings: list = field(default_factory=list)


class _Engine:
    def __init__(self, sc: Scenario, **overrides):
        """Check the options, each override replacing the scenario's own,
        then the scenario's content, and compile the models."""
        self.opts = RunOptions()
        for option in fields(RunOptions):
            value = overrides.get(option.name)
            set_option(self.opts, option.name, getattr(sc.options, option.name) if value is None else value)
        issues = check_scenario(sc)
        if issues:
            raise unlocated_error(issues)
        self.sc = sc
        self.net = NetworkModel(sc.nodes, sc.links)
        self.labels = tuple(ref.label for ref in self.net.ordered)
        self.profile = RequestProfile(sc.requests)
        self.lattices = {
            task.task_id: to_semilattice(len(task.labels), task.edges)
            for task in sc.tasks.values()
        }
        self.convergence = {}
        self.warnings = []
        self._late = set()  # (task, node) pairs already warned about their deadline
        self._durations = {}
        self._delays = {}  # (task, node) -> comm_delays table
        self._compiled = {}  # task -> (et, capable, fixed)
        self._exec_costs = {}  # task -> {node label: critical-path execution time}
        self._tables = {}  # task -> (candidate rows by node index, row positions to redraw)
        # one generator, reseated for every sample-mode draw
        self._rng = np.random.Generator(np.random.PCG64(0)) if self.opts.mode == "sample" else None
        self._block = 0, [0], None  # first arrival, row offset per arrival, seed words

    def compiled(self, task_id: str) -> tuple:
        """A task's capability input, built at its first use: ``(et,
        capable, fixed)`` with one row per lattice position and one column
        per node in index order, as :func:`pi_init` takes them."""
        inputs = self._compiled.get(task_id)
        if inputs is None:
            spec = self.sc.tasks[task_id]
            sl = self.lattices[task_id]
            column = {label: c for c, label in enumerate(self.labels)}
            et = np.zeros((sl.size, len(self.labels)))
            et[sl.reals.start : sl.reals.stop] = np.transpose([spec.exec_times[label] for label in self.labels])
            capable = np.ones(et.shape, dtype=bool)
            for label, index in spec.incapable:
                capable[index, column[label]] = False
            fixed = np.full(sl.size, -1, dtype=np.intp)  # assigned host column per row, or -1
            for index, label in spec.assignment.items():
                fixed[index] = column[label]
            inputs = self._compiled[task_id] = et, capable, fixed
        return inputs

    def capability_state(self, task_id: str):
        """Run a task's capability dynamics and record their convergence, once per task."""
        et, capable, fixed = self.compiled(task_id)
        ct = round_trip_matrix(self.net)
        state = pi_init(self.lattices[task_id], et, capable, ct, fixed, self.opts.step)
        pi_limit(state, tol=self.opts.tol, max_iter=self.opts.max_iter)
        self.convergence[task_id] = {"iterations": state.iterations, "converged": bool(state.converged)}
        if not state.converged:
            self.warnings.append(
                f"task {task_id}: capability dynamics still moving "
                f"after {state.iterations} iterations"
            )
        return state

    def rows(self, task_id: str, arrival_idx: int) -> list:
        """Candidate rows ``(label, idx, scores, combined)`` in node-index order.

        Built, checked and combined at the task's first arrival.  Only sample
        mode with COMM selected changes them later: each arrival redraws comm
        in declared candidate order (the order of its deadline warnings).
        """
        if task_id in self._tables:
            rows, redraw = self._tables[task_id]
            if redraw:
                rows = rows.copy()
                streams = self._streams(arrival_idx)
                for pos in redraw:
                    label, idx, scores, _ = rows[pos]
                    scores = dict(scores)  # same key order, so the same product order
                    value = self._comm_score(task_id, label, streams)
                    scores[Subspace.COMM] = check_score(Subspace.COMM, value)
                    rows[pos] = (label, idx, scores, combine_values(scores.values()))
            return rows
        spec = self.sc.tasks[task_id]
        subspaces = self.opts.subspaces
        # built first, so its warning precedes the deadline warnings
        state = self.capability_state(task_id) if Subspace.CPLT in subspaces else None
        drawn = self.opts.mode == "sample" and Subspace.COMM in subspaces
        streams = self._streams(arrival_idx) if drawn else None
        declared = []
        for label in spec.candidates if spec.candidates is not None else self.labels:
            idx = self.net.node(label).idx
            scores = {}
            for subspace in subspaces:
                if subspace is Subspace.CMPT:
                    value = 0.0 if (task_id, label) in self.sc.incompatible else 1.0
                elif subspace is Subspace.COMM:
                    value = self._comm_score(task_id, label, streams)
                else:
                    value = cplt_score(state, idx - 1)
                scores[subspace] = check_score(subspace, value)
            declared.append((label, idx, scores, combine_values(scores.values())))
        rows = sorted(declared, key=lambda row: row[1])
        self._tables[task_id] = rows, [rows.index(row) for row in declared] if drawn else ()
        return rows

    def _comm_score(self, task_id, label, streams) -> float:
        """The comm score of a task at a node: its override, else from the
        expected delays, or in sample mode from the next of ``streams``."""
        value = self.sc.overrides_comm.get((task_id, label))
        if value is not None:
            return value
        comt = com_t_max(self.delays(task_id, label), None if streams is None else next(streams))
        deadline = self.sc.tasks[task_id].window[1]
        if comt > deadline and (task_id, label) not in self._late:
            # once per pair: in sample mode later draws would add a line each
            self._late.add((task_id, label))
            self.warnings.append(
                f"task {task_id} on {label}: round-trip total {comt:.6g} "
                f"exceeds deadline {deadline:.6g}"
            )
        return ict(comt)

    def _streams(self, arrival_idx: int):
        """The generators of an arrival's comm draws, one per candidate
        without a comm override in declared order: the engine's one
        generator, seated in turn on each stream
        ``substream(seed, 1, arrival_idx, node index)`` starts."""
        first, offsets, words = self._block
        if not first <= arrival_idx < first + len(offsets) - 1:
            first, offsets, words = self._block = self._seed_block(arrival_idx)
        for row in words[offsets[arrival_idx - first] : offsets[arrival_idx - first + 1]].tolist():
            yield seat(self._rng, row)

    def _seed_block(self, first: int) -> tuple:
        """Seed words of every draw of whole arrivals from ``first`` on, in
        draw order, until at least ``_SEED_BLOCK`` are held."""
        drawn = {}  # task -> node indices of its drawn candidates
        arrivals, nodes, offsets = [], [], [0]
        for i in range(first, len(self.sc.arrivals)):
            task_id = self.sc.arrivals[i][1]
            task_nodes = drawn.get(task_id)
            if task_nodes is None:
                spec = self.sc.tasks[task_id]
                task_nodes = drawn[task_id] = [
                    self.net.node(label).idx
                    for label in (spec.candidates if spec.candidates is not None else self.labels)
                    if (task_id, label) not in self.sc.overrides_comm
                ]
            arrivals += [i] * len(task_nodes)
            nodes += task_nodes
            offsets.append(len(nodes))
            if len(nodes) >= _SEED_BLOCK:
                break
        words = substream(self.opts.seed, 1, np.array(arrivals, dtype=np.int64), np.array(nodes, dtype=np.int64))
        return first, offsets, words

    def delays(self, task_id: str, label: str) -> dict:
        """The :func:`comm_delays` table of a task run at a node, built once per run."""
        key = (task_id, label)
        table = self._delays.get(key)
        if table is None:
            table = self._delays[key] = comm_delays(self.net, self.profile, task_id, label)
        return table

    def duration(self, task_id: str, label: str) -> float:
        key = (task_id, label)
        cached = self._durations.get(key)
        if cached is not None:
            return cached
        exec_costs = self._exec_costs.get(task_id)
        if exec_costs is None:
            exec_costs = self._exec_costs[task_id] = self._critical_exec_costs(task_id)
        delays = self.delays(task_id, label)
        # by label: with 3+ targets another order can round differently
        comm = added_in_order(delay_mean(delays[dst]) for dst in sorted(delays))
        total = exec_costs[label] + comm
        if not 0 < total < math.inf:
            raise EngineError(
                f"task {task_id} on {label}: busy time must be positive and finite, got {total}"
            )
        self._durations[key] = total
        return total

    def _critical_exec_costs(self, task_id: str) -> dict:
        """Worst-flow execution time of a task on every node, in one pass."""
        et = self.compiled(task_id)[0]
        return dict(zip(self.labels, flow_critical_cost(self.lattices[task_id], et).tolist()))


def run(
    scenario: Scenario,
    *,
    mode=None,
    seed=None,
    subspaces=None,
    step=None,
    tol=None,
    max_iter=None,
) -> RunReport:
    """Execute a scenario and return the full decision record.

    Keyword arguments override the scenario's [options] section; every
    option, overridden or not, is checked by the rules of that section,
    so a bad value raises ValueError.  Equal seeds produce identical
    reports.
    The scenario's content is checked by :func:`check_scenario`, as the
    parser checks it: a Scenario built in code that breaks a rule raises
    ScenarioError, each issue naming its item.

    The cyclic garbage collector is paused for the arrival loop, which
    makes no reference cycles, and restored afterwards, also on error.
    The pause is process-wide: it holds for other threads too.
    """
    engine = _Engine(scenario, mode=mode, seed=seed, subspaces=subspaces, step=step, tol=tol, max_iter=max_iter)
    schedules = {label: NodeSchedule() for label in engine.labels}
    decisions = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for i, (t, task_id) in enumerate(scenario.arrivals):
            rows = engine.rows(task_id, i)
            window = scenario.tasks[task_id].window
            decision = allocate(task_id, t, i, rows, engine.duration, window, schedules)
            commit_decision(decision, schedules)
            decisions.append(decision)
    finally:
        if collecting:
            gc.enable()
    return RunReport(
        options=engine.opts,
        decisions=decisions,
        schedules={label: schedule.entries() for label, schedule in schedules.items()},
        convergence=engine.convergence,
        warnings=engine.warnings,
    )


def _vertex_name(spec, sl, r) -> str:
    """The task's own label of an algorithm's position, else the lattice's name."""
    return spec.labels[r - 1] if r in sl.reals else sl.name(r)


def inspect_flows(scenario: Scenario) -> dict:
    """Execution flows of every task, in emission order."""
    engine = _Engine(scenario)
    out = {}
    for task_id, spec in scenario.tasks.items():
        sl = engine.lattices[task_id]
        flows = execution_flows(sl)
        out[task_id] = {
            "count": len(flows),
            "max_length": max_flow_length(sl),
            "flows": [[_vertex_name(spec, sl, r) for r in flow] for flow in flows],
        }
    return out


def inspect_pi(scenario: Scenario) -> dict:
    """Converged allocation probabilities and worst-flow transmission bound."""
    engine = _Engine(scenario)
    out = {}
    for task_id, spec in scenario.tasks.items():
        state = engine.capability_state(task_id)
        sl = engine.lattices[task_id]
        out[task_id] = {
            "nodes": list(engine.labels),
            "vertices": [_vertex_name(spec, sl, r) for r in range(sl.size)],
            "pi": [[float(x) for x in row] for row in state.pi],
            "capital": [[float(x) for x in row] for row in state.capital],
            "iterations": state.iterations,
            "converged": bool(state.converged),
            "transmission_bound": float(overall_comm_bound(state)),
        }
    return out


def inspect_routes(scenario: Scenario) -> list:
    """Cheapest route between every node pair, lowest indices first."""
    net = _Engine(scenario).net
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
