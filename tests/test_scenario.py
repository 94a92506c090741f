import math

import pytest

from hyperalloc.scenario import (
    MAX_REQUESTS,
    DuplicateDefinition,
    ParseError,
    ScenarioError,
    UnresolvedReference,
    format_scenario,
    parse_scenario,
)
from hyperalloc.subspaces import Subspace

from conftest import scenario_text

MINIMAL = """\
[network]
node A kind=robot
node B kind=fog
link A B c=1.0 lambda=2.0

[task T]
vertices V1 V2
edge V1 -> V2
exec A 1.0 2.0
exec B 2.0 1.0

[arrivals]
arrive t=0.0 task=T
"""


def test_parse_minimal_defaults():
    sc = parse_scenario(MINIMAL)
    assert sc.nodes == [("A", "robot"), ("B", "fog")]
    assert sc.links == [("A", "B", 1.0, 2.0)]
    assert sc.requests == {} and sc.incompatible == set() and sc.overrides_comm == {}
    task = sc.tasks["T"]
    assert task.labels == ["V1", "V2"]
    assert task.edges == [(1, 2)]
    assert task.window == (0.0, math.inf)
    assert task.candidates is None
    assert sc.arrivals == [(0.0, "T")]
    assert sc.options.mode == "expected"
    assert sc.options.subspaces == (Subspace.CMPT, Subspace.COMM, Subspace.CPLT)
    assert sc.options.step == 0.1


def test_comments_and_blank_lines_ignored():
    text = MINIMAL.replace("[network]", "# leading comment\n\n[network]  # trailing")
    assert parse_scenario(text) == parse_scenario(MINIMAL)


@pytest.mark.parametrize(
    "name", ["three_robots.scn", "three_robots_comm_only.scn", "minimal.scn"]
)
def test_fixture_round_trip(name):
    sc = parse_scenario(scenario_text(name))
    rendered = format_scenario(sc)
    assert parse_scenario(rendered) == sc
    # serialisation is idempotent byte for byte
    assert format_scenario(parse_scenario(rendered)) == rendered


def test_fixture_contents():
    sc = parse_scenario(scenario_text("three_robots.scn"))
    assert [label for label, _ in sc.nodes] == ["R1", "R2", "R3", "F", "C"]
    assert sc.requests[("T", "R1", "C")] == 7
    assert ("T", "R3") in sc.incompatible
    assert sc.overrides_comm[("T", "R2")] == 0.00407
    task = sc.tasks["T"]
    assert len(task.labels) == 8 and len(task.edges) == 9
    assert task.assignment[3] == "F" and task.assignment[8] == "C"
    assert task.candidates == ["R1", "R2", "R3"]
    assert sc.options.max_iter == 2000


def errors_of(text):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    return info.value


def test_directive_outside_section():
    err = errors_of("node A kind=robot\n")
    assert isinstance(err, ParseError)
    assert err.issues[0].line == 1
    assert "outside" in err.issues[0].message


def test_unknown_section_and_directive():
    err = errors_of("[nonsense]\n")
    assert "unknown section" in str(err)
    err = errors_of(MINIMAL.replace("link A B", "wire A B"))
    assert "unknown network directive" in str(err)


def test_duplicate_node_classified():
    text = MINIMAL.replace("node B kind=fog", "node B kind=fog\nnode A kind=cloud")
    err = errors_of(text)
    assert isinstance(err, DuplicateDefinition)
    assert err.issues[0].kind == "duplicate"
    assert err.issues[0].line == 4


def test_duplicate_exec_row_classified():
    text = MINIMAL.replace("exec B 2.0 1.0", "exec B 2.0 1.0\nexec B 2.0 1.0")
    assert isinstance(errors_of(text), DuplicateDefinition)


def test_unresolved_link_endpoint():
    text = MINIMAL.replace(
        "link A B c=1.0 lambda=2.0",
        "link A B c=1.0 lambda=2.0\nlink A Z c=1.0 lambda=2.0",
    )
    err = errors_of(text)
    assert isinstance(err, UnresolvedReference)
    assert "Z" in str(err)


def test_unresolved_cascades_fall_back_to_base_class():
    # dropping the only link also disconnects the network, so the issue
    # list mixes kinds and the generic error type is raised
    err = errors_of(MINIMAL.replace("link A B", "link A Z"))
    assert isinstance(err, ParseError) and not isinstance(err, UnresolvedReference)
    kinds = {i.kind for i in err.issues}
    assert kinds == {"unresolved", "syntax"}


def test_link_parameter_validation():
    assert isinstance(errors_of(MINIMAL.replace("lambda=2.0", "lambda=0.0")), ParseError)
    assert isinstance(errors_of(MINIMAL.replace("c=1.0", "c=-1.0")), ParseError)
    assert isinstance(errors_of(MINIMAL.replace("c=1.0", "c=fast")), ParseError)


def test_task_graph_must_be_acyclic():
    text = MINIMAL.replace("edge V1 -> V2", "edge V1 -> V2\nedge V2 -> V1")
    err = errors_of(text)
    assert "cycle" in str(err).lower()


def test_task_graph_must_be_connected():
    text = MINIMAL.replace("edge V1 -> V2\n", "")
    err = errors_of(text)
    assert "weakly connected" in str(err)


def test_edge_references_unknown_vertex():
    text = MINIMAL.replace("edge V1 -> V2", "edge V1 -> V2\nedge V1 -> V9")
    err = errors_of(text)
    assert isinstance(err, UnresolvedReference)


def test_exec_row_checks():
    err = errors_of(MINIMAL.replace("exec B 2.0 1.0\n", ""))
    assert "missing exec row" in str(err)
    err = errors_of(MINIMAL.replace("exec B 2.0 1.0", "exec B 2.0"))
    assert "needs 2 values" in str(err)
    err = errors_of(MINIMAL.replace("exec B 2.0 1.0", "exec B 2.0 -1.0"))
    assert ">= 0" in str(err)


def test_network_must_be_connected():
    text = MINIMAL.replace("link A B c=1.0 lambda=2.0\n", "")
    err = errors_of(text)
    assert "not connected" in str(err)


def test_rejected_link_is_reported_once():
    # the gap the rejected link leaves is not a second, unlocated issue
    err = errors_of(MINIMAL.replace("lambda=2.0", "lambda=0"))
    assert [(i.line, i.message) for i in err.issues] == [(4, "need c >= 0 and lambda > 0")]


def test_duplicate_link_is_located():
    text = MINIMAL.replace(
        "link A B c=1.0 lambda=2.0",
        "link A B c=1.0 lambda=2.0\nlink B A c=3.0 lambda=1.0",
    )
    err = errors_of(text)
    assert isinstance(err, DuplicateDefinition)
    assert [(i.line, i.col) for i in err.issues] == [(5, 1)]
    assert "duplicate link" in err.issues[0].message


def test_arrivals_must_be_sorted_and_resolved():
    text = MINIMAL.replace(
        "arrive t=0.0 task=T", "arrive t=5.0 task=T\narrive t=1.0 task=T"
    )
    assert "ordered by time" in str(errors_of(text))
    text = MINIMAL.replace("arrive t=0.0 task=T", "arrive t=0.0 task=U")
    assert isinstance(errors_of(text), UnresolvedReference)


def test_incapable_leaves_no_capable_node():
    text = MINIMAL.replace(
        "exec B 2.0 1.0", "exec B 2.0 1.0\nincapable A V1\nincapable B V1"
    )
    assert "no capable node" in str(errors_of(text))


def test_window_validation():
    text = MINIMAL.replace("edge V1 -> V2", "edge V1 -> V2\nwindow a=5.0 b=2.0")
    assert "0 <= a <= b" in str(errors_of(text))


@pytest.mark.parametrize(
    "old, new, issue",
    [
        ("exec B 2.0 1.0", "exec B 2.0 1.0\nassign V1 A\nassign V1 B", (12, 8, "duplicate assignment for vertex V1")),
        ("vertices V1 V2", "window a=0 b=5\nwindow a=0 b=9\nvertices V1 V2", (8, 1, "duplicate window for task T")),
        ("edge V1 -> V2", "edge V1 -> V2\nedge V1 -> V2", (9, 6, "duplicate edge V1 -> V2")),
        ("exec B 2.0 1.0", "exec B 2.0 1.0\nincapable A V1\nincapable A V1", (12, 11, "duplicate incapable A V1")),
    ],
)
def test_repeated_task_directive_is_located(old, new, issue):
    err = errors_of(MINIMAL.replace(old, new))
    assert isinstance(err, DuplicateDefinition)
    assert [(i.line, i.col, i.message) for i in err.issues] == [issue]


@pytest.mark.parametrize(
    "rows, issue",
    [
        ("exec A 1e308 2.0\nexec B 1.5e308 1.0", (10, 1, "execution times of vertex V1 sum to infinity over nodes")),
        ("exec A 1.0 1e308\nexec B 2.0 1e308", (10, 1, "execution times of vertex V2 sum to infinity over nodes")),
    ],
)
def test_exec_times_summing_to_infinity_are_located(rows, issue):
    err = errors_of(MINIMAL.replace("exec A 1.0 2.0\nexec B 2.0 1.0", rows))
    assert isinstance(err, ParseError)
    assert [(i.line, i.col, i.message) for i in err.issues] == [issue]


def test_every_infinite_exec_total_is_located():
    err = errors_of(MINIMAL.replace("exec A 1.0 2.0\nexec B 2.0 1.0", "exec B 1e308 1e308\nexec A 1e308 1e308"))
    assert [(i.line, i.col, i.message) for i in err.issues] == [
        (10, 1, "execution times of vertex V1 sum to infinity over nodes"),
        (10, 1, "execution times of vertex V2 sum to infinity over nodes"),
    ]


def test_exec_totals_are_summed_in_network_order():
    # robots come first in network order: (6e291 + 6e291) + max overflows,
    # although the declaration order (max + 6e291) + 6e291 does not
    text = (
        "[network]\nnode A kind=fog\nnode B kind=robot\nnode C kind=robot\n"
        "link A B c=1.0 lambda=2.0\nlink A C c=1.0 lambda=2.0\n"
        "[task T]\nvertices V\nexec A 1.7976931348623157e308\nexec B 6e291\nexec C 6e291\n"
        "[arrivals]\narrive t=0.0 task=T\n"
    )
    err = errors_of(text)
    assert [(i.line, i.col, i.message) for i in err.issues] == [
        (11, 1, "execution times of vertex V sum to infinity over nodes")
    ]


def test_exec_times_with_a_finite_sum_are_accepted():
    sc = parse_scenario(MINIMAL.replace("exec A 1.0 2.0\nexec B 2.0 1.0", "exec A 1e308 2.0\nexec B 7e307 1.0"))
    assert sc.tasks["T"].exec_times == {"A": [1e308, 2.0], "B": [7e307, 1.0]}


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("arrive t=0.0", "arrive t=nan", 13),
        ("arrive t=0.0", "arrive t=inf", 13),
        ("edge V1 -> V2", "edge V1 -> V2\nwindow a=nan b=5.0", 9),
        ("edge V1 -> V2", "edge V1 -> V2\nwindow a=inf b=inf", 9),
        ("edge V1 -> V2", "edge V1 -> V2\nwindow a=0.0 b=nan", 9),
        ("edge V1 -> V2", "edge V1 -> V2\nwindow a=0.0 b=-inf", 9),
        ("c=1.0", "c=inf", 4),
        ("lambda=2.0", "lambda=nan", 4),
        ("exec A 1.0 2.0", "exec A nan 2.0", 9),
    ],
)
def test_non_finite_values_are_located_issues(old, new, line):
    err = errors_of(MINIMAL.replace(old, new))
    assert isinstance(err, ParseError)
    # a dropped link or exec row may add a later cascade issue
    assert err.issues[0].line == line


@pytest.mark.parametrize("k", ["0", str(MAX_REQUESTS)])
def test_request_count_bounds_accepted(k):
    sc = parse_scenario(MINIMAL + f"\n[profile]\nrequests T A B k={k}\n")
    assert sc.requests[("T", "A", "B")] == int(k)


@pytest.mark.parametrize("k", ["-1", str(MAX_REQUESTS + 1), "99999999999999999999"])
def test_request_count_out_of_range_is_located(k):
    err = errors_of(MINIMAL + f"\n[profile]\nrequests T A B k={k}\n")
    assert isinstance(err, ParseError)
    assert [(i.line, i.col, i.message) for i in err.issues] == [
        (16, 16, f"request count must lie in [0, {MAX_REQUESTS}]")
    ]


def test_option_validation():
    base = MINIMAL + "\n[options]\n"
    assert "invalid value" in str(errors_of(base + "step 2.0\n"))
    assert "invalid value" in str(errors_of(base + "mode maybe\n"))
    assert "invalid value" in str(errors_of(base + "subspaces cmpt,bogus\n"))
    assert "invalid value" in str(errors_of(base + "max_iter 0\n"))
    assert "invalid value" in str(errors_of(base + "seed -1\n"))
    assert "invalid value" in str(errors_of(base + "seed 9223372036854775808\n"))
    assert "unknown option" in str(errors_of(base + "speed 9\n"))
    sc = parse_scenario(base + "subspaces cplt,cmpt\n")
    # canonical ordering regardless of how the selection was written
    assert sc.options.subspaces == (Subspace.CMPT, Subspace.CPLT)


@pytest.mark.parametrize("value", ["inf", "+inf", "nan", "-inf"])
def test_tol_must_be_finite(value):
    text = MINIMAL + "\n[options]\ntol " + value + "\n"
    err = errors_of(text)
    assert len(err.issues) == 1
    issue = err.issues[0]
    assert issue.line == text.count("\n") and issue.col == len("tol ") + 1
    assert f"invalid value {value!r} for option tol" in issue.message


def test_every_issue_is_collected():
    text = MINIMAL.replace("link A B c=1.0 lambda=2.0", "link A Z c=1.0 lambda=2.0") + (
        "\n[arrivals2]\n"
    )
    err = errors_of(text)
    messages = [i.message for i in err.issues]
    assert len(messages) >= 2
    assert any("Z" in m for m in messages)
    assert any("unknown section" in m for m in messages)
    assert isinstance(err, ParseError)  # mixed kinds fall back to the base class


def test_issue_locations_are_one_based():
    err = errors_of("x\n")
    issue = err.issues[0]
    assert (issue.line, issue.col) == (1, 1)
    assert str(issue).startswith("line 1, col 1")


def test_parse_subspace_selection():
    base = MINIMAL + "\n[options]\nsubspaces "
    assert parse_scenario(base + "comm\n").options.subspaces == (Subspace.COMM,)
    # canonical order regardless of how the selection was written
    assert parse_scenario(base + "cplt,cmpt\n").options.subspaces == (Subspace.CMPT, Subspace.CPLT)
    for value in (",", "cmpt,cmpt", "speed"):
        err = errors_of(base + value + "\n")
        assert isinstance(err, ParseError) and len(err.issues) == 1
        assert f"invalid value {value!r} for option subspaces" in err.issues[0].message
