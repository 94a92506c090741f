"""Line-oriented scenario files: parsing, validation, serialisation.

A scenario is sectioned text.  ``#`` starts a comment; blank lines are
ignored.  Sections:

    [network]   node <label> kind=<robot|fog|cloud>
                link <a> <b> c=<time> lambda=<rate>
    [profile]   requests <task> <source> <target> k=<count in 0..MAX_REQUESTS>
    [compat]    incompatible <task> <node>
    [overrides] override comm <task> <node> <value>
    [task <id>] window a=<time> b=<time|inf>
                vertices <label> <label> ...
                edge <label> -> <label>
                exec <node> <time> ... (one value per vertex)
                assign <vertex> <node>
                incapable <node> <vertex>
                candidates <node> <node> ...
    [arrivals]  arrive t=<time> task=<id>
    [options]   mode <expected|sample> / seed <int> / subspaces <csv>
                step <float> / tol <float> / max_iter <int>

Parsing reports every problem it finds with a line and column; a clean
parse yields a Scenario whose serialised form reparses to an equal
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HyperallocError
from .graphs import GraphError, build_graph, to_semilattice
from .network import MODES, NODE_KINDS
from .subspaces import Subspace

MAX_REQUESTS = 1_000_000  # sample mode draws 2k delays per hop for each candidate scored


@dataclass(frozen=True)
class ParseIssue:
    line: int
    col: int
    message: str
    kind: str = "syntax"  # syntax | unresolved | duplicate

    def __str__(self):
        return f"line {self.line}, col {self.col}: {self.message}"


class ScenarioError(HyperallocError):
    """Scenario text rejected; ``issues`` lists every located problem."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


class ParseError(ScenarioError):
    """Malformed syntax or invalid values."""


class UnresolvedReference(ScenarioError):
    """A directive references an undeclared entity."""


class DuplicateDefinition(ScenarioError):
    """The same entity is defined twice."""


@dataclass
class TaskSpec:
    task_id: str
    labels: list = field(default_factory=list)  # vertex labels, index order
    edges: list = field(default_factory=list)  # (from index, to index)
    window: tuple = (0.0, math.inf)
    exec_times: dict = field(default_factory=dict)  # node label -> [time per vertex]
    assignment: dict = field(default_factory=dict)  # vertex index -> node label
    incapable: set = field(default_factory=set)  # (node label, vertex index)
    candidates: list | None = None  # node labels; None means every node


@dataclass
class RunOptions:
    mode: str = "expected"
    seed: int = 0
    subspaces: tuple = (Subspace.CMPT, Subspace.COMM, Subspace.CPLT)
    step: float = 0.1
    tol: float = 1e-6
    max_iter: int = 10_000


@dataclass
class Scenario:
    nodes: list = field(default_factory=list)  # (label, kind)
    links: list = field(default_factory=list)  # (a, b, constant, rate)
    requests: dict = field(default_factory=dict)  # (task, src, dst) -> count
    incompatible: set = field(default_factory=set)  # (task, node)
    overrides_comm: dict = field(default_factory=dict)  # (task, node) -> score
    tasks: dict = field(default_factory=dict)  # task id -> TaskSpec
    arrivals: list = field(default_factory=list)  # (time, task)
    options: RunOptions = field(default_factory=RunOptions)


def _col(raw, token, fallback=1):
    at = raw.find(token)
    return at + 1 if at >= 0 else fallback


def _kv(token):
    if "=" not in token:
        return None
    key, _, value = token.partition("=")
    return key, value


def _parse_number(value, allow_inf=False):
    """A finite float, or +inf where ``allow_inf``; ValueError otherwise."""
    number = float(value)
    if math.isfinite(number) or (allow_inf and number == math.inf):
        return number
    raise ValueError(f"not a finite number: {value}")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.issues = []
        self.sc = Scenario()
        self.section = None  # ("network",) / ("task", id) / ...
        self.node_labels = []
        self.seen_sections = set()
        self.where = {}  # remembers definition lines for late validation
        self.link_lines = 0  # rejected ones included

    def bad(self, line, col, message, kind="syntax"):
        self.issues.append(ParseIssue(line, col, message, kind))

    # -- line dispatch ---------------------------------------------------

    def parse(self):
        for line_no, raw in enumerate(self.text.splitlines(), start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            stripped = line.strip()
            if stripped.startswith("[") and stripped.endswith("]"):
                self.enter_section(line_no, raw, stripped[1:-1].strip())
                continue
            if self.section is None:
                self.bad(line_no, 1, "directive outside any section")
                continue
            tokens = stripped.split()
            handler = getattr(self, f"_sec_{self.section[0]}", None)
            handler(line_no, raw, tokens)
        self.validate()
        if self.issues:
            raise _classify(self.issues)
        return self.sc

    def enter_section(self, line_no, raw, name):
        parts = name.split()
        if parts and parts[0] == "task":
            if len(parts) != 2:
                self.bad(line_no, 1, "task section needs exactly one id")
                self.section = ("skip",)
                return
            task_id = parts[1]
            if task_id in self.sc.tasks:
                self.bad(line_no, _col(raw, task_id), f"duplicate task {task_id}", "duplicate")
                self.section = ("skip",)
                return
            self.sc.tasks[task_id] = TaskSpec(task_id)
            self.where[("task", task_id)] = line_no
            self.section = ("task", task_id)
            return
        if len(parts) == 1 and parts[0] in ("network", "profile", "compat", "overrides", "arrivals", "options"):
            if parts[0] in self.seen_sections:
                self.bad(line_no, 1, f"duplicate section [{parts[0]}]", "duplicate")
                self.section = ("skip",)
                return
            self.seen_sections.add(parts[0])
            self.section = (parts[0],)
            return
        self.bad(line_no, 1, f"unknown section [{name}]")
        self.section = ("skip",)

    def _sec_skip(self, line_no, raw, tokens):
        pass

    def _sec_network(self, line_no, raw, tokens):
        if tokens[0] == "node":
            if len(tokens) != 3 or _kv(tokens[2]) is None or _kv(tokens[2])[0] != "kind":
                self.bad(line_no, 1, "expected: node <label> kind=<robot|fog|cloud>")
                return
            label, kind = tokens[1], _kv(tokens[2])[1]
            if kind not in NODE_KINDS:
                self.bad(line_no, _col(raw, tokens[2]), f"unknown node kind {kind!r}")
                return
            if any(label == existing for existing, _ in self.sc.nodes):
                self.bad(line_no, _col(raw, label), f"duplicate node {label}", "duplicate")
                return
            self.sc.nodes.append((label, kind))
            self.node_labels.append(label)
        elif tokens[0] == "link":
            self.link_lines += 1
            if len(tokens) != 5:
                self.bad(line_no, 1, "expected: link <a> <b> c=<time> lambda=<rate>")
                return
            a, b = tokens[1], tokens[2]
            params = dict(filter(None, (_kv(t) for t in tokens[3:])))
            if set(params) != {"c", "lambda"}:
                self.bad(line_no, 1, "link needs c=<time> and lambda=<rate>")
                return
            try:
                c = _parse_number(params["c"])
                lam = _parse_number(params["lambda"])
            except ValueError:
                self.bad(line_no, _col(raw, tokens[3]), "link parameters must be finite numbers")
                return
            if c < 0 or lam <= 0:
                self.bad(line_no, _col(raw, tokens[3]), "need c >= 0 and lambda > 0")
                return
            if 2.0 * (c + 1.0 / lam) == math.inf:
                self.bad(line_no, _col(raw, tokens[3]), "link round trip 2*(c + 1/lambda) overflows to infinity")
                return
            self.sc.links.append((a, b, c, lam))
            self.where[("link", len(self.sc.links) - 1)] = line_no
        else:
            self.bad(line_no, _col(raw, tokens[0]), f"unknown network directive {tokens[0]!r}")

    def _sec_profile(self, line_no, raw, tokens):
        if tokens[0] != "requests" or len(tokens) != 5:
            self.bad(line_no, 1, "expected: requests <task> <source> <target> k=<count>")
            return
        kv = _kv(tokens[4])
        if kv is None or kv[0] != "k":
            self.bad(line_no, _col(raw, tokens[4]), "expected k=<count>")
            return
        try:
            k = int(kv[1])
        except ValueError:
            self.bad(line_no, _col(raw, tokens[4]), "request count must be an integer")
            return
        if not 0 <= k <= MAX_REQUESTS:
            self.bad(line_no, _col(raw, tokens[4]), f"request count must lie in [0, {MAX_REQUESTS}]")
            return
        key = (tokens[1], tokens[2], tokens[3])
        if key in self.sc.requests:
            self.bad(line_no, 1, f"duplicate request profile entry {key}", "duplicate")
            return
        self.sc.requests[key] = k
        self.where[("requests", key)] = line_no

    def _sec_compat(self, line_no, raw, tokens):
        if tokens[0] != "incompatible" or len(tokens) != 3:
            self.bad(line_no, 1, "expected: incompatible <task> <node>")
            return
        pair = (tokens[1], tokens[2])
        if pair in self.sc.incompatible:
            self.bad(line_no, 1, f"duplicate incompatibility {pair}", "duplicate")
            return
        self.sc.incompatible.add(pair)
        self.where[("incompatible", pair)] = line_no

    def _sec_overrides(self, line_no, raw, tokens):
        if tokens[0] != "override" or len(tokens) != 5 or tokens[1] != "comm":
            self.bad(line_no, 1, "expected: override comm <task> <node> <value>")
            return
        try:
            value = _parse_number(tokens[4], allow_inf=True)
        except ValueError:
            self.bad(line_no, _col(raw, tokens[4]), "override value must be a number")
            return
        if value < 0:
            self.bad(line_no, _col(raw, tokens[4]), "override value must be >= 0")
            return
        key = (tokens[2], tokens[3])
        if key in self.sc.overrides_comm:
            self.bad(line_no, 1, f"duplicate override for {key}", "duplicate")
            return
        self.sc.overrides_comm[key] = value
        self.where[("override", key)] = line_no

    def _sec_task(self, line_no, raw, tokens):
        task = self.sc.tasks[self.section[1]]
        name = tokens[0]
        if name == "window":
            params = dict(filter(None, (_kv(t) for t in tokens[1:])))
            if len(tokens) != 3 or set(params) != {"a", "b"}:
                self.bad(line_no, 1, "expected: window a=<time> b=<time|inf>")
                return
            if ("window", task.task_id) in self.where:
                self.bad(line_no, 1, f"duplicate window for task {task.task_id}", "duplicate")
                return
            try:
                a = _parse_number(params["a"])
                b = _parse_number(params["b"], allow_inf=True)
            except ValueError:
                self.bad(line_no, 1, "window needs a finite a and a finite or inf b")
                return
            if a < 0 or b < a:
                self.bad(line_no, 1, "window needs 0 <= a <= b")
                return
            task.window = (a, b)
            self.where[("window", task.task_id)] = line_no
        elif name == "vertices":
            if task.labels:
                self.bad(line_no, 1, "vertices already declared for this task", "duplicate")
                return
            if len(tokens) < 2:
                self.bad(line_no, 1, "expected: vertices <label> ...")
                return
            labels = tokens[1:]
            if len(set(labels)) != len(labels):
                self.bad(line_no, 1, "vertex labels must be unique", "duplicate")
                return
            task.labels = list(labels)
        elif name == "edge":
            if len(tokens) != 4 or tokens[2] != "->":
                self.bad(line_no, 1, "expected: edge <from> -> <to>")
                return
            if ("edge", task.task_id, tokens[1], tokens[3]) in self.where:
                self.bad(line_no, _col(raw, tokens[1]), f"duplicate edge {tokens[1]} -> {tokens[3]}", "duplicate")
                return
            self.where[("edge", task.task_id, tokens[1], tokens[3])] = line_no
            task.edges.append((tokens[1], tokens[3], line_no, _col(raw, tokens[1])))
        elif name == "exec":
            if len(tokens) < 3:
                self.bad(line_no, 1, "expected: exec <node> <time> ...")
                return
            label = tokens[1]
            if label in task.exec_times:
                self.bad(line_no, _col(raw, label), f"duplicate exec row for {label}", "duplicate")
                return
            try:
                row = [_parse_number(t) for t in tokens[2:]]
            except ValueError:
                self.bad(line_no, 1, "execution times must be finite numbers")
                return
            if any(v < 0 for v in row):
                self.bad(line_no, 1, "execution times must be >= 0")
                return
            task.exec_times[label] = row
            self.where[("exec", task.task_id, label)] = line_no
        elif name == "assign":
            if len(tokens) != 3:
                self.bad(line_no, 1, "expected: assign <vertex> <node>")
                return
            if ("assign", task.task_id, tokens[1]) in self.where:
                self.bad(line_no, _col(raw, tokens[1]), f"duplicate assignment for vertex {tokens[1]}", "duplicate")
                return
            task.assignment[tokens[1]] = tokens[2]
            self.where[("assign", task.task_id, tokens[1])] = line_no
        elif name == "incapable":
            if len(tokens) != 3:
                self.bad(line_no, 1, "expected: incapable <node> <vertex>")
                return
            if ("incapable", task.task_id, tokens[1], tokens[2]) in self.where:
                self.bad(line_no, _col(raw, tokens[1]), f"duplicate incapable {tokens[1]} {tokens[2]}", "duplicate")
                return
            task.incapable.add((tokens[1], tokens[2]))
            self.where[("incapable", task.task_id, tokens[1], tokens[2])] = line_no
        elif name == "candidates":
            if task.candidates is not None:
                self.bad(line_no, 1, "candidates already declared for this task", "duplicate")
                return
            if len(tokens) < 2:
                self.bad(line_no, 1, "expected: candidates <node> ...")
                return
            task.candidates = tokens[1:]
            self.where[("candidates", task.task_id)] = line_no
        else:
            self.bad(line_no, _col(raw, name), f"unknown task directive {name!r}")

    def _sec_arrivals(self, line_no, raw, tokens):
        if tokens[0] != "arrive" or len(tokens) != 3:
            self.bad(line_no, 1, "expected: arrive t=<time> task=<id>")
            return
        params = dict(filter(None, (_kv(t) for t in tokens[1:])))
        if set(params) != {"t", "task"}:
            self.bad(line_no, 1, "expected: arrive t=<time> task=<id>")
            return
        try:
            t = _parse_number(params["t"])
        except ValueError:
            self.bad(line_no, 1, "arrival time must be a finite number")
            return
        if t < 0:
            self.bad(line_no, 1, "arrival time must be >= 0")
            return
        self.sc.arrivals.append((t, params["task"]))
        self.where[("arrive", len(self.sc.arrivals) - 1)] = line_no

    def _sec_options(self, line_no, raw, tokens):
        if len(tokens) != 2:
            self.bad(line_no, 1, "expected: <option> <value>")
            return
        name, value = tokens
        try:
            set_option(self.sc.options, name, value)
        except KeyError:
            self.bad(line_no, 1, f"unknown option {name!r}")
        except ValueError:
            self.bad(line_no, _col(raw, value), f"invalid value {value!r} for option {name}")

    # -- cross-reference validation ---------------------------------------

    def validate(self):
        sc = self.sc
        nodes = set(self.node_labels)
        if "network" not in self.seen_sections:
            self.bad(0, 1, "missing [network] section")
            return
        if not nodes:
            self.bad(0, 1, "at least one node is required")
            return

        pairs = set()
        for i, (a, b, _, _) in enumerate(sc.links):
            line = self.where[("link", i)]
            for endpoint in (a, b):
                if endpoint not in nodes:
                    self.bad(line, 1, f"link references undeclared node {endpoint}", "unresolved")
            if a == b:
                self.bad(line, 1, "link endpoints must differ")
            elif frozenset((a, b)) in pairs:
                self.bad(line, 1, f"duplicate link {a} {b}", "duplicate")
            pairs.add(frozenset((a, b)))

        # a rejected link already has its issue; the gap it leaves is no news
        if self.link_lines == len(sc.links) and not self._network_connected():
            self.bad(0, 1, "network is not connected")

        for key, _ in sc.requests.items():
            task, src, dst = key
            line = self.where[("requests", key)]
            if task not in sc.tasks:
                self.bad(line, 1, f"requests reference undeclared task {task}", "unresolved")
            for endpoint in (src, dst):
                if endpoint not in nodes:
                    self.bad(line, 1, f"requests reference undeclared node {endpoint}", "unresolved")

        for pair in sorted(sc.incompatible):
            line = self.where[("incompatible", pair)]
            if pair[0] not in sc.tasks:
                self.bad(line, 1, f"incompatibility references undeclared task {pair[0]}", "unresolved")
            if pair[1] not in nodes:
                self.bad(line, 1, f"incompatibility references undeclared node {pair[1]}", "unresolved")

        for key in sc.overrides_comm:
            line = self.where[("override", key)]
            if key[0] not in sc.tasks:
                self.bad(line, 1, f"override references undeclared task {key[0]}", "unresolved")
            if key[1] not in nodes:
                self.bad(line, 1, f"override references undeclared node {key[1]}", "unresolved")

        for task in sc.tasks.values():
            self._validate_task(task, nodes)

        last = -math.inf
        for i, (t, task_id) in enumerate(sc.arrivals):
            line = self.where[("arrive", i)]
            if task_id not in sc.tasks:
                self.bad(line, 1, f"arrival references undeclared task {task_id}", "unresolved")
            if t < last:
                self.bad(line, 1, "arrivals must be ordered by time")
            last = t

    def _validate_task(self, task, nodes):
        line = self.where[("task", task.task_id)]
        if not task.labels:
            self.bad(line, 1, f"task {task.task_id} declares no vertices")
            return
        index_of = {label: i + 1 for i, label in enumerate(task.labels)}

        edges = []
        for a, b, edge_line, col in task.edges:
            ok = True
            for endpoint in (a, b):
                if endpoint not in index_of:
                    self.bad(edge_line, col, f"edge references unknown vertex {endpoint}", "unresolved")
                    ok = False
            if ok:
                edges.append((index_of[a], index_of[b]))
        task.edges = edges
        try:
            graph = build_graph(len(task.labels), edges)
        except GraphError as exc:
            self.bad(line, 1, f"task {task.task_id}: {exc}")
            return
        if len(to_semilattice(graph).components) != 1:
            self.bad(line, 1, f"task {task.task_id} graph must be weakly connected")

        for label in nodes:
            if label not in task.exec_times:
                self.bad(line, 1, f"task {task.task_id} missing exec row for node {label}", "unresolved")
        for label, row in task.exec_times.items():
            exec_line = self.where[("exec", task.task_id, label)]
            if label not in nodes:
                self.bad(exec_line, 1, f"exec row references undeclared node {label}", "unresolved")
            if len(row) != len(task.labels):
                self.bad(exec_line, 1, f"exec row needs {len(task.labels)} values, got {len(row)}")
        self._check_exec_totals(task)

        assignment = {}
        for vertex, node in task.assignment.items():
            assign_line = self.where[("assign", task.task_id, vertex)]
            if vertex not in index_of:
                self.bad(assign_line, 1, f"assignment references unknown vertex {vertex}", "unresolved")
                continue
            if node not in nodes:
                self.bad(assign_line, 1, f"assignment references undeclared node {node}", "unresolved")
                continue
            assignment[index_of[vertex]] = node
        task.assignment = assignment

        incapable = set()
        for node, vertex in sorted(task.incapable):
            pair_line = self.where[("incapable", task.task_id, node, vertex)]
            if node not in nodes:
                self.bad(pair_line, 1, f"incapable references undeclared node {node}", "unresolved")
                continue
            if vertex not in index_of:
                self.bad(pair_line, 1, f"incapable references unknown vertex {vertex}", "unresolved")
                continue
            incapable.add((node, index_of[vertex]))
        task.incapable = incapable
        for label in task.labels:
            idx = index_of[label]
            if all((node, idx) in incapable for node in nodes):
                self.bad(line, 1, f"vertex {label} of task {task.task_id} has no capable node")

        if task.candidates is not None:
            cand_line = self.where[("candidates", task.task_id)]
            if len(set(task.candidates)) != len(task.candidates):
                self.bad(cand_line, 1, "candidate nodes must be unique", "duplicate")
            for label in task.candidates:
                if label not in nodes:
                    self.bad(cand_line, 1, f"candidates reference undeclared node {label}", "unresolved")

    def _check_exec_totals(self, task):
        """Capability scoring divides each execution time by its vertex's
        total over all nodes, so every total must be finite.  The totals
        are summed as ``pi_init`` sums them: one numpy row per vertex, nodes
        in network index order.  An infinite total is reported at the last
        exec row that adds a positive time to it."""
        if sum(map(sum, task.exec_times.values())) < 1e300:
            return  # no summation order can overflow
        order = [label for kind in NODE_KINDS for label, k in self.sc.nodes if k == kind]
        rows = [task.exec_times.get(label) for label in order]
        if any(row is None or len(row) != len(task.labels) for row in rows):
            return  # already reported
        with np.errstate(over="ignore"):
            totals = np.array(rows, dtype=float).T.copy().sum(axis=1)
        declared = [label for label in task.exec_times if label in order]
        for i in np.flatnonzero(np.isinf(totals)):
            label = [label for label in declared if task.exec_times[label][i] > 0][-1]
            line = self.where[("exec", task.task_id, label)]
            self.bad(line, 1, f"execution times of vertex {task.labels[i]} sum to infinity over nodes")

    def _network_connected(self):
        if not self.node_labels:
            return True
        adjacency = {label: set() for label in self.node_labels}
        for a, b, _, _ in self.sc.links:
            if a in adjacency and b in adjacency:
                adjacency[a].add(b)
                adjacency[b].add(a)
        seen = {self.node_labels[0]}
        frontier = [self.node_labels[0]]
        while frontier:
            v = frontier.pop()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(self.node_labels)


def set_option(opts: RunOptions, name: str, value) -> None:
    """Check one run option and store it on ``opts``.

    ``value`` is the option's text, as in an [options] line, or a value
    of its type.  Raises KeyError for an unknown option name and
    ValueError for a value the option does not accept.
    """
    if name == "mode":
        if value not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {value!r}")
    elif name == "seed":
        value = int(value)
    elif name == "subspaces":
        value = _subspace_selection(value)
    elif name == "step":
        value = float(value)
        if not 0 < value <= 1:
            raise ValueError(f"step must lie in (0, 1], got {value}")
    elif name == "tol":
        value = float(value)
        if not 0 < value < math.inf:
            raise ValueError(f"tol must be positive and finite, got {value}")
    elif name == "max_iter":
        value = int(value)
        if value < 1:
            raise ValueError(f"max_iter must be >= 1, got {value}")
    else:
        raise KeyError(name)
    setattr(opts, name, value)


def _subspace_selection(value) -> tuple:
    """Subspaces named by comma-separated text or an iterable, canonically ordered."""
    names = [t.strip() for t in value.split(",") if t] if isinstance(value, str) else list(value)
    if not names:
        raise ValueError("empty subspace selection")
    out = []
    for name in names:
        try:
            s = Subspace(name)
        except ValueError:
            raise ValueError(f"unknown subspace {name!r}") from None
        if s in out:
            raise ValueError(f"subspace {s.value!r} selected twice")
        out.append(s)
    # canonical order regardless of how the selection was written
    return tuple(s for s in Subspace if s in out)


def _classify(issues):
    kinds = {i.kind for i in issues}
    if kinds == {"unresolved"}:
        return UnresolvedReference(issues)
    if kinds == {"duplicate"}:
        return DuplicateDefinition(issues)
    return ParseError(issues)


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate scenario text.

    Raises ScenarioError (ParseError / UnresolvedReference /
    DuplicateDefinition) carrying every located issue.
    """
    return _Parser(text).parse()


def _fmt_num(v) -> str:
    if v == math.inf:
        return "inf"
    return repr(float(v))


def format_scenario(sc: Scenario) -> str:
    """Serialise a Scenario to text that reparses to an equal value."""
    lines = ["[network]"]
    for label, kind in sc.nodes:
        lines.append(f"node {label} kind={kind}")
    for a, b, c, lam in sc.links:
        lines.append(f"link {a} {b} c={_fmt_num(c)} lambda={_fmt_num(lam)}")

    if sc.requests:
        lines += ["", "[profile]"]
        for (task, src, dst), k in sorted(sc.requests.items()):
            lines.append(f"requests {task} {src} {dst} k={k}")

    if sc.incompatible:
        lines += ["", "[compat]"]
        for task, node in sorted(sc.incompatible):
            lines.append(f"incompatible {task} {node}")

    if sc.overrides_comm:
        lines += ["", "[overrides]"]
        for (task, node), value in sorted(sc.overrides_comm.items()):
            lines.append(f"override comm {task} {node} {_fmt_num(value)}")

    for task in sc.tasks.values():
        lines += ["", f"[task {task.task_id}]"]
        lines.append(f"window a={_fmt_num(task.window[0])} b={_fmt_num(task.window[1])}")
        lines.append("vertices " + " ".join(task.labels))
        for a, b in task.edges:
            lines.append(f"edge {task.labels[a - 1]} -> {task.labels[b - 1]}")
        for label, _ in sc.nodes:
            if label in task.exec_times:
                row = " ".join(_fmt_num(v) for v in task.exec_times[label])
                lines.append(f"exec {label} {row}")
        for idx in sorted(task.assignment):
            lines.append(f"assign {task.labels[idx - 1]} {task.assignment[idx]}")
        for node, idx in sorted(task.incapable):
            lines.append(f"incapable {node} {task.labels[idx - 1]}")
        if task.candidates is not None:
            lines.append("candidates " + " ".join(task.candidates))

    if sc.arrivals:
        lines += ["", "[arrivals]"]
        for t, task_id in sc.arrivals:
            lines.append(f"arrive t={_fmt_num(t)} task={task_id}")

    opts = sc.options
    lines += ["", "[options]"]
    lines.append(f"mode {opts.mode}")
    lines.append(f"seed {opts.seed}")
    lines.append("subspaces " + ",".join(s.value for s in opts.subspaces))
    lines.append(f"step {_fmt_num(opts.step)}")
    lines.append(f"tol {_fmt_num(opts.tol)}")
    lines.append(f"max_iter {opts.max_iter}")
    return "\n".join(lines) + "\n"
