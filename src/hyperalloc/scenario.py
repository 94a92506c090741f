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

The parser reads tokens and number syntax and resolves vertex labels;
every rule about the content lives in :func:`check_scenario`, which
checks a Scenario built in code the same way.  Parsing reports every
problem it finds with a line and column; a clean parse yields a Scenario
whose serialised form reparses to an equal value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HyperallocError
from .graphs import GraphError, to_semilattice, weak_component_count
from .network import MODES, NODE_KINDS, node_order
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
    """Scenario rejected; ``issues`` lists every problem, located in the text where there is one."""

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


class _Parser:
    """Reads tokens and number syntax into a Scenario; :func:`check_scenario`
    then checks its content, and ``where`` locates each item it names."""

    def __init__(self, text):
        self.text = text
        self.issues = []
        self.sc = Scenario()
        self.section = None  # ("network",) / ("task", id) / ...
        self.seen_sections = set()
        self.where = {}  # item key, as check_scenario keys it -> (line, col)
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
        if "network" not in self.seen_sections:
            self.bad(0, 1, "missing [network] section")
        else:
            for task in self.sc.tasks.values():
                self.resolve(task)
            # a rejected link line already has its issue; the gap it leaves is no news
            gap = self.link_lines != len(self.sc.links)
            for key, message, kind in check_scenario(self.sc):
                if not (gap and key == ("network",)):
                    self.bad(*self.where.get(key, (0, 1)), message, kind)
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
            self.where[("task", task_id)] = (line_no, 1)
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
            i = len(self.sc.nodes)
            self.sc.nodes.append((tokens[1], _kv(tokens[2])[1]))
            self.where[("node", i)] = (line_no, _col(raw, tokens[1]))
            self.where[("node", i, "kind")] = (line_no, _col(raw, tokens[2]))
        elif tokens[0] == "link":
            self.link_lines += 1
            if len(tokens) != 5:
                self.bad(line_no, 1, "expected: link <a> <b> c=<time> lambda=<rate>")
                return
            params = dict(filter(None, (_kv(t) for t in tokens[3:])))
            if set(params) != {"c", "lambda"}:
                self.bad(line_no, 1, "link needs c=<time> and lambda=<rate>")
                return
            try:
                c, lam = float(params["c"]), float(params["lambda"])
            except ValueError:
                self.bad(line_no, _col(raw, tokens[3]), "link parameters must be finite numbers")
                return
            i = len(self.sc.links)
            self.sc.links.append((tokens[1], tokens[2], c, lam))
            self.where[("link", i)] = (line_no, 1)
            self.where[("link", i, "c")] = (line_no, _col(raw, tokens[3]))
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
        key = (tokens[1], tokens[2], tokens[3])
        if key in self.sc.requests:
            self.bad(line_no, 1, f"duplicate request profile entry {key}", "duplicate")
            return
        self.sc.requests[key] = k
        self.where[("requests", key)] = (line_no, 1)
        self.where[("requests", key, "k")] = (line_no, _col(raw, tokens[4]))

    def _sec_compat(self, line_no, raw, tokens):
        if tokens[0] != "incompatible" or len(tokens) != 3:
            self.bad(line_no, 1, "expected: incompatible <task> <node>")
            return
        pair = (tokens[1], tokens[2])
        if pair in self.sc.incompatible:
            self.bad(line_no, 1, f"duplicate incompatibility {pair}", "duplicate")
            return
        self.sc.incompatible.add(pair)
        self.where[("incompatible", pair)] = (line_no, 1)

    def _sec_overrides(self, line_no, raw, tokens):
        if tokens[0] != "override" or len(tokens) != 5 or tokens[1] != "comm":
            self.bad(line_no, 1, "expected: override comm <task> <node> <value>")
            return
        try:
            value = float(tokens[4])
        except ValueError:
            self.bad(line_no, _col(raw, tokens[4]), "override value must be a number")
            return
        key = (tokens[2], tokens[3])
        if key in self.sc.overrides_comm:
            self.bad(line_no, 1, f"duplicate override for {key}", "duplicate")
            return
        self.sc.overrides_comm[key] = value
        self.where[("override", key)] = (line_no, 1)
        self.where[("override", key, "value")] = (line_no, _col(raw, tokens[4]))

    def _sec_task(self, line_no, raw, tokens):
        task = self.sc.tasks[self.section[1]]
        key = ("task", task.task_id)
        name = tokens[0]
        if name == "window":
            params = dict(filter(None, (_kv(t) for t in tokens[1:])))
            if len(tokens) != 3 or set(params) != {"a", "b"}:
                self.bad(line_no, 1, "expected: window a=<time> b=<time|inf>")
                return
            if key + ("window",) in self.where:
                self.bad(line_no, 1, f"duplicate window for task {task.task_id}", "duplicate")
                return
            try:
                task.window = (float(params["a"]), float(params["b"]))
            except ValueError:
                self.bad(line_no, 1, "window needs a finite a and a finite or inf b")
                return
            self.where[key + ("window",)] = (line_no, 1)
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
            edge = (tokens[1], tokens[3])
            if key + ("edge",) + edge in self.where:
                self.bad(line_no, _col(raw, tokens[1]), f"duplicate edge {tokens[1]} -> {tokens[3]}", "duplicate")
                return
            self.where[key + ("edge",) + edge] = (line_no, _col(raw, tokens[1]))
            task.edges.append(edge)  # by label until resolve()
        elif name == "exec":
            if len(tokens) < 3:
                self.bad(line_no, 1, "expected: exec <node> <time> ...")
                return
            label = tokens[1]
            if label in task.exec_times:
                self.bad(line_no, _col(raw, label), f"duplicate exec row for {label}", "duplicate")
                return
            try:
                task.exec_times[label] = [float(t) for t in tokens[2:]]
            except ValueError:
                self.bad(line_no, 1, "execution times must be finite numbers")
                return
            self.where[key + ("exec", label)] = (line_no, 1)
        elif name == "assign":
            if len(tokens) != 3:
                self.bad(line_no, 1, "expected: assign <vertex> <node>")
                return
            if key + ("assign", tokens[1]) in self.where:
                self.bad(line_no, _col(raw, tokens[1]), f"duplicate assignment for vertex {tokens[1]}", "duplicate")
                return
            task.assignment[tokens[1]] = tokens[2]  # by label until resolve()
            self.where[key + ("assign", tokens[1])] = (line_no, 1)
        elif name == "incapable":
            if len(tokens) != 3:
                self.bad(line_no, 1, "expected: incapable <node> <vertex>")
                return
            if key + ("incapable", tokens[1], tokens[2]) in self.where:
                self.bad(line_no, _col(raw, tokens[1]), f"duplicate incapable {tokens[1]} {tokens[2]}", "duplicate")
                return
            task.incapable.add((tokens[1], tokens[2]))  # by label until resolve()
            self.where[key + ("incapable", tokens[1], tokens[2])] = (line_no, 1)
        elif name == "candidates":
            if task.candidates is not None:
                self.bad(line_no, 1, "candidates already declared for this task", "duplicate")
                return
            if len(tokens) < 2:
                self.bad(line_no, 1, "expected: candidates <node> ...")
                return
            task.candidates = tokens[1:]
            self.where[key + ("candidates",)] = (line_no, 1)
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
            t = float(params["t"])
        except ValueError:
            self.bad(line_no, 1, "arrival time must be a finite number")
            return
        self.where[("arrival", len(self.sc.arrivals))] = (line_no, 1)
        self.sc.arrivals.append((t, params["task"]))

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

    # -- vertex labels to indices ------------------------------------------

    def resolve(self, task):
        """Vertex labels to indices; an entry naming an unknown vertex is an issue, and dropped."""
        if not task.labels:
            return  # check_scenario reports the task, and nothing more of it
        key = ("task", task.task_id)
        index_of = {label: i for i, label in enumerate(task.labels, start=1)}

        def known(entry_key, vertices, what):
            line, col = self.where[entry_key]
            unknown = [v for v in vertices if v not in index_of]
            for v in unknown:
                self.bad(line, col, f"{what} references unknown vertex {v}", "unresolved")
            return not unknown

        task.edges = [
            (index_of[a], index_of[b]) for a, b in task.edges if known(key + ("edge", a, b), (a, b), "edge")
        ]
        assignment = {}
        for vertex, node in task.assignment.items():
            if known(key + ("assign", vertex), (vertex,), "assignment"):
                assignment[index_of[vertex]] = node
                self.where[key + ("assign", index_of[vertex])] = self.where[key + ("assign", vertex)]
        task.assignment = assignment
        incapable = set()
        for node, vertex in sorted(task.incapable):
            item = key + ("incapable", node)
            if known(item + (vertex,), (vertex,), "incapable"):
                incapable.add((node, index_of[vertex]))
                self.where[item + (index_of[vertex],)] = self.where[item + (vertex,)]
        task.incapable = incapable


# -- the content of a scenario ---------------------------------------------


def check_scenario(sc: Scenario) -> list:
    """Every rule about a scenario's content, whether parsed or built in code.

    Returns ``(key, message, kind)`` issues in a fixed order (``kind``:
    syntax, unresolved or duplicate).  ``key`` names the item at fault as
    ``_Parser.where`` keys it: ``("link", i)``, ``("requests", (task, src,
    dst))``, ``("task", id, "exec", node)``, ``("arrival", i)`` and so on; a
    trailing field (``"kind"``, ``"c"``, ``"k"``, ``"value"``) points at one
    value of the item.  ``("network",)`` is the whole network and ``None``
    the whole scenario.
    """
    issues = []

    def bad(key, message, kind="syntax"):
        issues.append((key, message, kind))

    if not sc.nodes:
        bad(None, "at least one node is required")
        return issues
    nodes = {}  # label -> 1-based position, in declaration order
    for i, (label, kind) in enumerate(sc.nodes):
        if kind not in NODE_KINDS:
            bad(("node", i, "kind"), f"unknown node kind {kind!r}")
        if label in nodes:
            bad(("node", i), f"duplicate node {label}", "duplicate")
        else:
            nodes[label] = len(nodes) + 1

    pairs = set()
    edges = []  # by node position
    for i, (a, b, c, lam) in enumerate(sc.links):
        if not (math.isfinite(c) and math.isfinite(lam)):
            bad(("link", i, "c"), "link parameters must be finite numbers")
        elif c < 0 or lam <= 0:
            bad(("link", i, "c"), "need c >= 0 and lambda > 0")
        elif 2.0 * (c + 1.0 / lam) == math.inf:
            bad(("link", i, "c"), "link round trip 2*(c + 1/lambda) overflows to infinity")
        for endpoint in (a, b):
            if endpoint not in nodes:
                bad(("link", i), f"link references undeclared node {endpoint}", "unresolved")
        if a == b:
            bad(("link", i), "link endpoints must differ")
        elif frozenset((a, b)) in pairs:
            bad(("link", i), f"duplicate link {a} {b}", "duplicate")
        pairs.add(frozenset((a, b)))
        if a in nodes and b in nodes:
            edges.append((nodes[a], nodes[b]))
    if weak_component_count(len(nodes), edges) != 1:
        bad(("network",), "network is not connected")

    for key, k in sc.requests.items():
        task, src, dst = key
        if isinstance(k, bool) or not isinstance(k, int):
            bad(("requests", key, "k"), "request count must be an integer")
        elif not 0 <= k <= MAX_REQUESTS:
            bad(("requests", key, "k"), f"request count must lie in [0, {MAX_REQUESTS}]")
        if task not in sc.tasks:
            bad(("requests", key), f"requests reference undeclared task {task}", "unresolved")
        for endpoint in (src, dst):
            if endpoint not in nodes:
                bad(("requests", key), f"requests reference undeclared node {endpoint}", "unresolved")

    for pair in sorted(sc.incompatible):
        if pair[0] not in sc.tasks:
            bad(("incompatible", pair), f"incompatibility references undeclared task {pair[0]}", "unresolved")
        if pair[1] not in nodes:
            bad(("incompatible", pair), f"incompatibility references undeclared node {pair[1]}", "unresolved")

    for key, value in sc.overrides_comm.items():
        if math.isnan(value) or value == -math.inf:
            bad(("override", key, "value"), "override value must be a number")
        elif value < 0:
            bad(("override", key, "value"), "override value must be >= 0")
        if key[0] not in sc.tasks:
            bad(("override", key), f"override references undeclared task {key[0]}", "unresolved")
        if key[1] not in nodes:
            bad(("override", key), f"override references undeclared node {key[1]}", "unresolved")

    for task_id, task in sc.tasks.items():
        _check_task(sc, ("task", task_id), task, nodes, bad)

    last = -math.inf
    for i, (t, task_id) in enumerate(sc.arrivals):
        if task_id not in sc.tasks:
            bad(("arrival", i), f"arrival references undeclared task {task_id}", "unresolved")
        if not math.isfinite(t):
            bad(("arrival", i), "arrival time must be a finite number")
        elif t < 0:
            bad(("arrival", i), "arrival time must be >= 0")
        else:
            if t < last:
                bad(("arrival", i), "arrivals must be ordered by time")
            last = t
    return issues


def _check_task(sc, key, task, nodes, bad):
    """The rules of one task, whose item key is ``key``."""
    task_id = task.task_id
    a, b = task.window
    if not math.isfinite(a) or math.isnan(b) or b == -math.inf:
        bad(key + ("window",), "window needs a finite a and a finite or inf b")
    elif a < 0 or b < a:
        bad(key + ("window",), "window needs 0 <= a <= b")
    rows_ok = True
    for label, row in task.exec_times.items():
        if not all(map(math.isfinite, row)):
            bad(key + ("exec", label), "execution times must be finite numbers")
            rows_ok = False
        elif any(v < 0 for v in row):
            bad(key + ("exec", label), "execution times must be >= 0")
            rows_ok = False
    if not task.labels:
        bad(key, f"task {task_id} declares no vertices")
        return
    n = len(task.labels)

    try:
        to_semilattice(n, task.edges)
    except GraphError as exc:
        bad(key, f"task {task_id}: {exc}")
        return
    if weak_component_count(n, task.edges) != 1:
        bad(key, f"task {task_id} graph must be weakly connected")

    for label in nodes:
        if label not in task.exec_times:
            bad(key, f"task {task_id} missing exec row for node {label}", "unresolved")
    for label, row in task.exec_times.items():
        if label not in nodes:
            bad(key + ("exec", label), f"exec row references undeclared node {label}", "unresolved")
        if len(row) != n:
            bad(key + ("exec", label), f"exec row needs {n} values, got {len(row)}")
    if rows_ok:
        _check_exec_totals(sc, key, task, bad)

    for idx, node in task.assignment.items():
        if not (isinstance(idx, int) and 1 <= idx <= n):
            bad(key + ("assign", idx), f"assignment vertex index {idx} outside 1..{n}")
        elif node not in nodes:
            bad(key + ("assign", idx), f"assignment references undeclared node {node}", "unresolved")

    incapable = set()
    for node, idx in sorted(task.incapable):
        if node not in nodes:
            bad(key + ("incapable", node, idx), f"incapable references undeclared node {node}", "unresolved")
        elif not (isinstance(idx, int) and 1 <= idx <= n):
            bad(key + ("incapable", node, idx), f"incapable vertex index {idx} outside 1..{n}")
        else:
            incapable.add((node, idx))
    for idx, label in enumerate(task.labels, start=1):
        if all((node, idx) in incapable for node in nodes):
            bad(key, f"vertex {label} of task {task_id} has no capable node")

    if task.candidates is not None:
        if len(set(task.candidates)) != len(task.candidates):
            bad(key + ("candidates",), "candidate nodes must be unique", "duplicate")
        for label in task.candidates:
            if label not in nodes:
                bad(key + ("candidates",), f"candidates reference undeclared node {label}", "unresolved")


def _check_exec_totals(sc, key, task, bad):
    """Capability scoring divides each execution time by its vertex's
    total over all nodes, so every total must be finite.  The totals
    are summed as ``pi_init`` sums them: one numpy row per vertex, nodes
    in network index order.  An infinite total is reported at the last
    exec row that adds a positive time to it."""
    if sum(map(sum, task.exec_times.values())) < 1e300:
        return  # no summation order can overflow
    order = [label for label, _ in node_order(sc.nodes)]
    rows = [task.exec_times.get(label) for label in order]
    if any(row is None or len(row) != len(task.labels) for row in rows):
        return  # already reported
    with np.errstate(over="ignore"):
        totals = np.array(rows, dtype=float).T.copy().sum(axis=1)
    declared = [label for label in task.exec_times if label in order]
    for i in np.flatnonzero(np.isinf(totals)):
        label = [label for label in declared if task.exec_times[label][i] > 0][-1]
        bad(key + ("exec", label), f"execution times of vertex {task.labels[i]} sum to infinity over nodes")


def set_option(opts: RunOptions, name: str, value) -> None:
    """Check one run option and store it on ``opts``.

    ``value`` is the option's text, as in an [options] line, or a value
    of its type.  Raises KeyError for an unknown option name and
    ValueError for a value the option does not accept.
    """
    try:
        if name == "mode":
            if value not in MODES:
                raise ValueError(f"mode must be one of {MODES}, got {value!r}")
        elif name == "seed":
            value = _integer(value)
            if not 0 <= value < 2**63:
                raise ValueError(f"seed must lie in [0, 2**63), got {value}")
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
            value = _integer(value)
            if value < 1:
                raise ValueError(f"max_iter must be >= 1, got {value}")
        else:
            raise KeyError(name)
    except TypeError:  # a value of no type the option reads, such as a list
        raise ValueError(f"{name} does not accept {value!r}") from None
    setattr(opts, name, value)


def _integer(value) -> int:
    """An integer option from its text, or from a number equal to an int; never a bool."""
    if isinstance(value, str):
        return int(value)
    try:
        whole = int(value)
    except OverflowError:
        raise ValueError(f"expected an integer, got {value!r}") from None
    if isinstance(value, bool) or whole != value:
        raise ValueError(f"expected an integer, got {value!r}")
    return whole


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


def _named(key, message) -> str:
    """``message`` led by the name of the item ``key`` names, unless it leads with it already."""
    if key is None:
        return message
    name = " ".join(str(p) for part in key for p in (part if isinstance(part, tuple) else (part,)))
    return message if message.startswith(name) else f"{name}: {message}"


def unlocated_error(issues) -> ScenarioError:
    """The error for :func:`check_scenario` issues of a Scenario built in
    code: no text to locate them in (line 0), each message naming its item,
    as in ``arrival 0: arrival time must be a finite number``."""
    return _classify([ParseIssue(0, 1, _named(key, message), kind) for key, message, kind in issues])


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
