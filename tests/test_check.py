"""One content check for parsed text and for Scenarios built in code."""

import contextlib
import importlib.util
import io
import math
import pathlib
import string
import tempfile
from operator import setitem

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperalloc.cli import main
from hyperalloc.network import NODE_KINDS
from hyperalloc.runner import inspect_flows, inspect_pi, inspect_routes, run
from hyperalloc.scenario import (
    MAX_REQUESTS,
    DuplicateDefinition,
    ParseError,
    RunOptions,
    Scenario,
    ScenarioError,
    TaskSpec,
    UnresolvedReference,
    check_scenario,
    format_scenario,
    parse_scenario,
)
from hyperalloc.subspaces import Subspace

from conftest import SCENARIO_DIR, scenario_text

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


# one field of three_robots.scn changed in code: the change, the error class and its one issue
CODE_BUILT = {
    "nan arrival": (
        lambda sc: setitem(sc.arrivals, 0, (math.nan, "T")),
        ParseError,
        "arrival 0: arrival time must be a finite number",
    ),
    "negative arrival": (
        lambda sc: setitem(sc.arrivals, 0, (-1.0, "T")),
        ParseError,
        "arrival 0: arrival time must be >= 0",
    ),
    "nan deadline": (
        lambda sc: setattr(sc.tasks["T"], "window", (0.0, math.nan)),
        ParseError,
        "task T window: window needs a finite a and a finite or inf b",
    ),
    "undeclared arrival task": (
        lambda sc: setitem(sc.arrivals, 0, (0.0, "U")),
        UnresolvedReference,
        "arrival 0: arrival references undeclared task U",
    ),
    "nan link constant": (
        lambda sc: setitem(sc.links, 0, ("R1", "F", math.nan, 2.0)),
        ParseError,
        "link 0 c: link parameters must be finite numbers",
    ),
    "negative link constant": (
        lambda sc: setitem(sc.links, 0, ("R1", "F", -1.0, 2.0)),
        ParseError,
        "link 0 c: need c >= 0 and lambda > 0",
    ),
    "negative exec time": (
        lambda sc: setitem(sc.tasks["T"].exec_times["R1"], 0, -1.0),
        ParseError,
        "task T exec R1: execution times must be >= 0",
    ),
    "cyclic edge list": (
        lambda sc: sc.tasks["T"].edges.append((8, 1)),
        ParseError,
        "task T: edge set contains a directed cycle",
    ),
    "fractional edge index": (
        lambda sc: setattr(sc.tasks["T"], "edges", [(1.0, 2.0)]),
        ParseError,
        "task T: edge (1.0, 2.0) outside vertex range 1..8",
    ),
    "text edge index": (
        lambda sc: setattr(sc.tasks["T"], "edges", [("1", "2")]),
        ParseError,
        "task T: edge (1, 2) outside vertex range 1..8",
    ),
    "fractional request count": (
        lambda sc: setitem(sc.requests, ("T", "R1", "F"), 2.5),
        ParseError,
        "requests T R1 F k: request count must be an integer",
    ),
    "undeclared candidate": (
        lambda sc: sc.tasks["T"].candidates.append("R9"),
        UnresolvedReference,
        "task T candidates: candidates reference undeclared node R9",
    ),
    "unknown node kind": (
        lambda sc: setitem(sc.nodes, 4, ("C", "laptop")),
        ParseError,
        "node 4 kind: unknown node kind 'laptop'",
    ),
    "duplicate node": (
        lambda sc: sc.nodes.append(("R1", "fog")),
        DuplicateDefinition,
        "node 5: duplicate node R1",
    ),
    "self-link": (
        lambda sc: sc.links.append(("F", "F", 1.0, 2.0)),
        ParseError,
        "link 4: link endpoints must differ",
    ),
    "duplicate link": (
        lambda sc: sc.links.append(("F", "R1", 1.0, 2.0)),
        DuplicateDefinition,
        "link 4: duplicate link F R1",
    ),
    "zero link rate": (
        lambda sc: setitem(sc.links, 0, ("R1", "F", 25.0, 0.0)),
        ParseError,
        "link 0 c: need c >= 0 and lambda > 0",
    ),
    "negative request count": (
        lambda sc: setitem(sc.requests, ("T", "R1", "F"), -1),
        ParseError,
        f"requests T R1 F k: request count must lie in [0, {MAX_REQUESTS}]",
    ),
    "exec row for an undeclared node": (
        lambda sc: setitem(sc.tasks["T"].exec_times, "R9", [1.0] * 8),
        UnresolvedReference,
        "task T exec R9: exec row references undeclared node R9",
    ),
    "assignment to an undeclared node": (
        lambda sc: setitem(sc.tasks["T"].assignment, 1, "R9"),
        UnresolvedReference,
        "task T assign 1: assignment references undeclared node R9",
    ),
    "incapable entry naming an undeclared node": (
        lambda sc: sc.tasks["T"].incapable.add(("R9", 1)),
        UnresolvedReference,
        "task T incapable R9 1: incapable references undeclared node R9",
    ),
    "vertex with no capable node": (
        lambda sc: sc.tasks["T"].incapable.update((label, 2) for label, _ in sc.nodes),
        ParseError,
        "task T: vertex A2 of task T has no capable node",
    ),
}


@pytest.mark.parametrize("case", CODE_BUILT)
def test_run_checks_a_scenario_built_in_code(case):
    change, error, message = CODE_BUILT[case]
    sc = parse_scenario(scenario_text("three_robots.scn"))
    change(sc)
    with pytest.raises(ScenarioError) as info:
        run(sc)
    assert type(info.value) is error
    assert [(i.line, i.col, i.message) for i in info.value.issues] == [(0, 1, message)]


@pytest.mark.parametrize("inspect", [inspect_flows, inspect_pi, inspect_routes])
def test_inspect_checks_a_scenario_built_in_code(inspect):
    sc = parse_scenario(scenario_text("three_robots.scn"))
    sc.links[0] = ("R1", "F", -1.0, 2.0)
    with pytest.raises(ScenarioError, match="link 0 c: need c >= 0 and lambda > 0"):
        inspect(sc)


def test_issues_of_parsed_text_are_keyed_by_item():
    sc = parse_scenario(scenario_text("three_robots.scn"))
    sc.arrivals.append((-1.0, "U"))
    sc.tasks["T"].assignment[9] = "C"
    sc.tasks["T"].incapable.add(("C", 0))
    assert check_scenario(sc) == [
        (("task", "T", "assign", 9), "assignment vertex index 9 outside 1..8", "syntax"),
        (("task", "T", "incapable", "C", 0), "incapable vertex index 0 outside 1..8", "syntax"),
        (("arrival", 1), "arrival references undeclared task U", "unresolved"),
        (("arrival", 1), "arrival time must be >= 0", "syntax"),
    ]


def _perfbench_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _accepted_texts():
    for path in sorted(SCENARIO_DIR.glob("*.scn")):
        yield path.name, path.read_text(encoding="utf-8")
    gen = _perfbench_gen()
    for workload in gen.WORKLOADS:
        for seed in range(3):
            yield f"{workload}-{seed}", gen.generate(workload, seed)


def test_check_accepts_every_shipped_and_benchmark_scenario():
    names = []
    for name, text in _accepted_texts():
        assert check_scenario(parse_scenario(text)) == [], name
        names.append(name)
    assert len(names) == 3 + 3 * 3


# ------------------------------------------------------------ properties

LABELS = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=4)
# finite times down to the subnormal; format_scenario writes them by repr
TIMES = st.floats(min_value=0.0, max_value=1e6, allow_subnormal=True) | st.sampled_from([0.0, 5e-324, 1e-300])


def _connected_by_bfs(labels, links):
    """Whether a breadth-first search from the first node, over the links
    between declared nodes, reaches every declared node."""
    adjacency = {label: set() for label in labels}
    for a, b, _, _ in links:
        if a in adjacency and b in adjacency:
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen, frontier = {labels[0]}, [labels[0]]
    while frontier:
        for label in adjacency[frontier.pop(0)] - seen:
            seen.add(label)
            frontier.append(label)
    return len(seen) == len(adjacency)


NETWORK_GAP = (("network",), "network is not connected", "syntax")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=8),  # repeats are duplicate nodes
    st.lists(st.tuples(st.sampled_from("ABCDEFG"), st.sampled_from("ABCDEFG")), max_size=10),  # G is undeclared
)
@example(["A", "B", "C"], [("A", "B")])
@example(["A", "B", "C"], [("C", "B"), ("A", "B")])
@example(["A", "B"], [("A", "G"), ("G", "B"), ("A", "A")])
def test_network_gap_is_reported_exactly_when_a_bfs_misses_a_node(labels, pairs):
    sc = Scenario(nodes=[(label, "robot") for label in labels], links=[(a, b, 1.0, 2.0) for a, b in pairs])
    issues = check_scenario(sc)
    assert (NETWORK_GAP in issues) == (not _connected_by_bfs(labels, sc.links))
    assert issues.count(NETWORK_GAP) <= 1


@st.composite
def scenarios(draw):
    """A Scenario that check_scenario accepts, built in code."""
    node_labels = draw(st.lists(LABELS, min_size=1, max_size=5, unique=True))
    nodes = [(label, draw(st.sampled_from(NODE_KINDS))) for label in node_labels]
    links = []
    for i in range(1, len(node_labels)):  # a spanning tree keeps the network connected
        a, b = node_labels[draw(st.integers(0, i - 1))], node_labels[i]
        rate = draw(st.floats(min_value=1e-3, max_value=1e3))
        links.append((a, b, draw(TIMES), rate))
    task_ids = draw(st.lists(LABELS, min_size=1, max_size=3, unique=True))
    tasks = {}
    for task_id in task_ids:
        n = draw(st.integers(1, 5))
        labels = draw(st.lists(LABELS, min_size=n, max_size=n, unique=True))
        edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]  # a tree keeps it connected
        extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=3))
        edges += [(a, b) for a, b in dict.fromkeys(extra) if a < b and (a, b) not in edges]
        low = draw(TIMES)
        window = (low, draw(st.just(math.inf) | st.floats(min_value=low, max_value=2e6)))
        exec_times = {label: draw(st.lists(TIMES, min_size=n, max_size=n)) for label in node_labels}
        # every vertex keeps its first node capable
        incapable = set(draw(st.lists(st.tuples(st.sampled_from(node_labels[1:] or node_labels), st.integers(1, n)))))
        incapable -= {(node_labels[0], v) for v in range(1, n + 1)}
        assignment = draw(st.dictionaries(st.integers(1, n), st.sampled_from(node_labels), max_size=n))
        candidates = draw(st.none() | st.lists(st.sampled_from(node_labels), min_size=1, unique=True))
        tasks[task_id] = TaskSpec(task_id, labels, edges, window, exec_times, assignment, incapable, candidates)
    pairs = st.tuples(st.sampled_from(task_ids), st.sampled_from(node_labels))
    triples = st.tuples(st.sampled_from(task_ids), st.sampled_from(node_labels), st.sampled_from(node_labels))
    requests = draw(st.dictionaries(triples, st.integers(0, MAX_REQUESTS), max_size=4))
    overrides = draw(st.dictionaries(pairs, TIMES | st.just(math.inf), max_size=3))
    arrivals = sorted(draw(st.lists(st.tuples(TIMES, st.sampled_from(task_ids)), max_size=5)))
    selected = draw(st.sets(st.sampled_from(Subspace), min_size=1))
    options = RunOptions(
        mode=draw(st.sampled_from(["expected", "sample"])),
        seed=draw(st.integers(0, 2**63 - 1)),
        subspaces=tuple(s for s in Subspace if s in selected),
        step=draw(st.floats(min_value=1e-9, max_value=1.0)),
        tol=draw(st.floats(min_value=1e-12, max_value=1.0)),
        max_iter=draw(st.integers(1, 10**6)),
    )
    incompatible = draw(st.sets(pairs, max_size=3))
    return Scenario(nodes, links, requests, incompatible, overrides, tasks, arrivals, options)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(scenarios())
def test_format_then_parse_round_trips(sc):
    assert check_scenario(sc) == []
    assert parse_scenario(format_scenario(sc)) == sc


# a token that can stand in for any other in a line of scenario text
TOKENS = [
    "nan", "inf", "-inf", "-1", "0", "0.0", "2.5", "1e308", "1e400", "x", "R9", "V9", "T", "U", "->",
    "k=2.5", "k=-1", "c=-1", "c=nan", "lambda=0", "t=nan", "t=-1", "a=5", "b=1", "b=nan", "kind=fog",
    "kind=moon", "[task", "]", "#",
]
# the execution errors README documents for exit 2
DOCUMENTED = (
    "busy time must be positive and finite",
    "round-trip totals to the hosts of flow predecessors",
)


@st.composite
def corrupted(draw):
    lines = scenario_text(draw(st.sampled_from(["three_robots.scn", "minimal.scn"]))).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        edit = draw(st.sampled_from(["replace", "drop", "repeat"]))
        if edit == "replace" and tokens:
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
            lines[i] = " ".join(tokens)
        elif edit == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(corrupted())
def test_corrupted_text_runs_or_exits_1(text):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        path = pathlib.Path(tmp) / "corrupted.scn"
        path.write_text(text, encoding="utf-8")
        code = main(["allocate", "--scenario", str(path), "--out", str(pathlib.Path(tmp) / "report")])
    message = err.getvalue()
    assert code in (0, 1) or (code == 2 and any(m in message for m in DOCUMENTED)), (code, message)
