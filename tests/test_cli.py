import csv
import hashlib
import io
import json
import warnings

import pytest

from hyperalloc.cli import FORMAT_ENV, main
from hyperalloc.report import emit_report
from hyperalloc.runner import run
from hyperalloc.scenario import parse_scenario

from conftest import SCENARIO_DIR

THREE_ROBOTS = str(SCENARIO_DIR / "three_robots.scn")
MINIMAL = str(SCENARIO_DIR / "minimal.scn")


@pytest.fixture(autouse=True)
def clean_format_env(monkeypatch):
    monkeypatch.delenv(FORMAT_ENV, raising=False)


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_allocate_defaults_to_table(capsys):
    code, out, err = invoke(capsys, "allocate", "--scenario", THREE_ROBOTS)
    assert code == 0 and err == ""
    assert out.startswith("run seed=0 mode=expected")
    assert "task T arrival=0 -> R2 (max-score)" in out
    assert "zero-score" in out
    assert "schedule R2" in out
    assert "dynamics T: converged" in out


def test_jsonl_records(capsys):
    code, out, _ = invoke(
        capsys, "allocate", "--scenario", THREE_ROBOTS, "--format", "jsonl"
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    kinds = [r["record"] for r in records]
    assert kinds[0] == "meta"
    assert kinds.count("decision") == 1
    assert kinds.count("schedule") == 5
    meta = records[0]
    assert meta["subspaces"] == ["cmpt", "comm", "cplt"]
    assert meta["convergence"]["T"]["converged"] is True
    decision = next(r for r in records if r["record"] == "decision")
    assert decision["chosen"] == "R2"
    assert decision["rationale"] == "max-score"
    nodes = {c["node"]: c for c in decision["candidates"]}
    assert nodes["R3"]["exclusion"] == "zero-score"
    assert nodes["R2"]["scores"]["comm"] == 0.00407
    r2_schedule = next(
        r for r in records if r["record"] == "schedule" and r["node"] == "R2"
    )
    assert r2_schedule["entries"][0]["task"] == "T"


def test_csv_schema(capsys):
    code, out, _ = invoke(
        capsys, "allocate", "--scenario", THREE_ROBOTS, "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["task", "node", "subspace", "score", "combined", "loss", "rationale"]
    assert len(rows) == 1 + 3 * 3  # three candidates, three subspaces each
    by_key = {(r[1], r[2]): r for r in rows[1:]}
    assert float(by_key[("R1", "comm")][3]) == 0.00266
    assert by_key[("R2", "cmpt")][6] == "max-score"
    assert by_key[("R3", "cplt")][6] == "zero-score"
    # full precision survives the round trip
    assert float(by_key[("R2", "cmpt")][4]) == 0.00014680523581542224


def test_env_var_sets_format(capsys, monkeypatch):
    monkeypatch.setenv(FORMAT_ENV, "csv")
    _, out, _ = invoke(capsys, "allocate", "--scenario", THREE_ROBOTS)
    assert out.startswith("task,node,subspace")


def test_flag_beats_env_var(capsys, monkeypatch):
    monkeypatch.setenv(FORMAT_ENV, "csv")
    _, out, _ = invoke(
        capsys, "allocate", "--scenario", THREE_ROBOTS, "--format", "jsonl"
    )
    assert out.startswith('{"record":"meta"')


def test_unknown_env_format_is_an_error(capsys, monkeypatch):
    monkeypatch.setenv(FORMAT_ENV, "yaml")
    code, out, err = invoke(capsys, "allocate", "--scenario", THREE_ROBOTS)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "yaml" in err


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "report.jsonl"
    code, out, _ = invoke(
        capsys,
        "allocate",
        "--scenario",
        THREE_ROBOTS,
        "--format",
        "jsonl",
        "--out",
        str(target),
    )
    assert code == 0 and out == ""
    on_disk = target.read_text(encoding="utf-8")
    assert on_disk == emit_report(run(parse_scenario(open(THREE_ROBOTS).read())), "jsonl")


def test_scenario_issues_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("[network]\nnode A kind=robot\nnode A kind=fog\n", encoding="utf-8")
    code, out, err = invoke(capsys, "allocate", "--scenario", str(bad))
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert all(line.startswith(f"{bad}: line ") for line in lines)
    assert any("already declared" in line or "duplicate" in line for line in lines)


@pytest.mark.parametrize(
    "old, new",
    [
        ("arrive t=0.0", "arrive t=nan"),
        ("arrive t=0.0", "arrive t=inf"),
        ("vertices V1", "window a=nan b=inf\nvertices V1"),
        ("vertices V1", "window a=0.0 b=nan\nvertices V1"),
    ],
)
def test_non_finite_times_exit_1(capsys, tmp_path, old, new):
    bad = tmp_path / "bad.scn"
    text = (SCENARIO_DIR / "minimal.scn").read_text(encoding="utf-8")
    assert old in text
    bad.write_text(text.replace(old, new), encoding="utf-8")
    code, out, err = invoke(capsys, "allocate", "--scenario", str(bad), "--format", "jsonl")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{bad}: line ")


def test_unbounded_request_count_exits_1(capsys, tmp_path):
    # k sizes sample mode's delay draws: the parser rejects it (exit 1) before numpy does (exit 2)
    bad = tmp_path / "bad.scn"
    text = (SCENARIO_DIR / "three_robots.scn").read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if not line.startswith("override")]
    bad.write_text("\n".join(lines).replace("T R1 F k=2", "T R1 F k=99999999999999999999"), encoding="utf-8")
    code, out, err = invoke(capsys, "allocate", "--scenario", str(bad), "--mode", "sample")
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"{bad}: line ") and "request count" in line


def test_exec_times_summing_to_infinity_exit_1(capsys, tmp_path):
    # each time is finite, but their total over nodes overflows capability scoring
    bad = tmp_path / "bad.scn"
    bad.write_text(
        "[network]\nnode A kind=robot\nnode B kind=fog\nlink A B c=1.0 lambda=1.0\n"
        "[task T]\nvertices V\nexec A 1e308\nexec B 1.5e308\n"
        "[arrivals]\narrive t=0.0 task=T\n",
        encoding="utf-8",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = invoke(capsys, "allocate", "--scenario", str(bad))
    assert code == 1 and out == "" and caught == []
    assert "RuntimeWarning" not in err
    assert err == f"{bad}: line 8, col 1: execution times of vertex V sum to infinity over nodes\n"


def test_link_round_trip_overflow_exits_1(capsys, tmp_path):
    # c is finite, but a round trip over the link, 2 * (c + 1/lambda), is not
    bad = tmp_path / "bad.scn"
    bad.write_text(
        "[network]\nnode A kind=robot\nnode B kind=fog\nlink A B c=1e308 lambda=2.0\n"
        "[task T]\nvertices V1 V2\nedge V1 -> V2\nexec A 1.0 1.0\nexec B 1.0 1.0\n"
        "[arrivals]\narrive t=0.0 task=T\n",
        encoding="utf-8",
    )
    code, out, err = invoke(capsys, "allocate", "--scenario", str(bad))
    assert code == 1 and out == ""
    assert err == f"{bad}: line 4, col 10: link round trip 2*(c + 1/lambda) overflows to infinity\n"


def test_round_trip_totals_overflowing_in_capability_scoring_exit_2(capsys, tmp_path):
    # every round trip is finite (A-C, over two links, is 1.6e308), but V3's
    # total to the hosts of V1 and V2, both on C, is 3.2e308 from A
    scn = tmp_path / "overflow.scn"
    scn.write_text(
        "[network]\nnode A kind=robot\nnode B kind=fog\nnode C kind=cloud\n"
        "link A B c=4e307 lambda=2.0\nlink B C c=4e307 lambda=2.0\n"
        "[task T]\nvertices V1 V2 V3\nedge V1 -> V3\nedge V2 -> V3\n"
        "exec A 1.0 1.0 1.0\nexec B 1.0 1.0 1.0\nexec C 1.0 1.0 1.0\nassign V1 C\nassign V2 C\n"
        "[arrivals]\narrive t=0.0 task=T\n",
        encoding="utf-8",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = invoke(capsys, "allocate", "--scenario", str(scn))
    assert code == 2 and out == "" and caught == []
    assert err == "error: round-trip totals to the hosts of flow predecessors can overflow to infinity\n"


def test_single_node_with_capability_scoring_exits_0(capsys, tmp_path):
    # the lone node has no relative speed: it takes every capability row whole
    scn = tmp_path / "cplt.scn"
    text = (SCENARIO_DIR / "minimal.scn").read_text(encoding="utf-8")
    assert "subspaces cmpt,comm\n" in text
    scn.write_text(text.replace("subspaces cmpt,comm\n", ""), encoding="utf-8")
    runs = [invoke(capsys, "allocate", "--scenario", str(scn), "--format", "jsonl") for _ in range(2)]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code == 0 and err == ""
    meta, decision, _ = map(json.loads, out.splitlines())
    assert meta["subspaces"] == ["cmpt", "comm", "cplt"] and meta["convergence"]["T1"]["converged"]
    (candidate,) = decision["candidates"]
    assert candidate["scores"]["cplt"] == 1.0 and decision["chosen"] == "N1"


def test_infinite_tol_is_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.scn"
    text = (SCENARIO_DIR / "minimal.scn").read_text(encoding="utf-8")
    bad.write_text(text + "\n[options]\ntol inf\n", encoding="utf-8")
    code, out, err = invoke(capsys, "allocate", "--scenario", str(bad))
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{bad}: line ") and "tol" in lines[0]

    code, out, err = invoke(capsys, "allocate", "--scenario", MINIMAL, "--tol", "inf")
    assert code == 2 and out == ""
    assert err == "error: tol must be positive and finite, got inf\n"


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = invoke(capsys, "allocate", "--scenario", str(tmp_path / "nope.scn"))
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("command", [["allocate"], ["inspect", "--what", "routes"]])
def test_unwritable_out_exits_2_with_one_error_line(capsys, tmp_path, command):
    target = tmp_path / "no" / "such" / "dir" / "x"
    code, out, err = invoke(capsys, *command, "--scenario", THREE_ROBOTS, "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err
    assert not target.parent.exists()


def test_bad_override_exits_2(capsys):
    code, _, err = invoke(
        capsys, "allocate", "--scenario", THREE_ROBOTS, "--step", "7.0"
    )
    assert code == 2 and "step" in err


def test_engine_error_exits_2(capsys, tmp_path):
    scn = tmp_path / "zero.scn"
    scn.write_text(
        "[network]\n"
        "node A kind=robot\n"
        "node B kind=fog\n"
        "link A B c=1.0 lambda=1.0\n"
        "[task T]\n"
        "vertices V\n"
        "exec A 0.0\n"
        "exec B 0.0\n"
        "[arrivals]\n"
        "arrive t=0.0 task=T\n"
        "[options]\n"
        "subspaces cmpt\n",
        encoding="utf-8",
    )
    code, _, err = invoke(capsys, "allocate", "--scenario", str(scn))
    assert code == 2 and "busy time" in err


def overflowing(tmp_path, *replacements):
    scn = tmp_path / "overflow.scn"
    text = (SCENARIO_DIR / "minimal.scn").read_text(encoding="utf-8")
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new)
    scn.write_text(text, encoding="utf-8")
    return str(scn)


def test_busy_time_overflow_exits_2(capsys, tmp_path):
    scn = overflowing(
        tmp_path,
        ("vertices V1", "vertices V1 V2\nedge V1 -> V2"),
        ("exec N1 3.0", "exec N1 1e308 1e308"),
        ("arrive t=0.0 task=T1", "arrive t=0.0 task=T1\n" * 3),
    )
    code, out, err = invoke(capsys, "allocate", "--scenario", scn, "--format", "jsonl")
    assert code == 2 and out == ""
    assert err == "error: task T1 on N1: busy time must be positive and finite, got inf\n"


def test_slot_ending_at_infinity_is_a_window_violation(capsys, tmp_path):
    scn = overflowing(
        tmp_path,
        ("exec N1 3.0", "exec N1 1e308"),
        ("arrive t=0.0 task=T1", "arrive t=1e308 task=T1\n" * 2),
    )
    code, out, err = invoke(capsys, "allocate", "--scenario", scn, "--format", "jsonl")
    assert code == 0 and err == ""
    records = [json.loads(line) for line in out.splitlines()]
    decisions = [r for r in records if r["record"] == "decision"]
    assert [(d["chosen"], d["rationale"]) for d in decisions] == [(None, "no-capable-node")] * 2
    assert all(c["exclusion"] == "window-violation" for d in decisions for c in d["candidates"])
    assert [r["entries"] for r in records if r["record"] == "schedule"] == [[]]


@pytest.mark.parametrize("what", ["flows", "pi", "routes"])
def test_inspect_emits_json(capsys, what):
    code, out, err = invoke(
        capsys, "inspect", "--scenario", THREE_ROBOTS, "--what", what
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    if what == "flows":
        assert payload["T"]["count"] == 4
    elif what == "pi":
        assert payload["T"]["converged"] is True
    else:
        assert {(r["from"], r["to"]) for r in payload} >= {("R1", "F"), ("F", "C")}


# SHA-256 of the ``inspect`` JSON of every scenario under scenarios/: the
# start1/finish1 names, the vertex order and every value must stay put.
INSPECT_SHA256 = {
    ("minimal.scn", "flows"): "681c1d4ba571c69b8ee9d28f808c7a8dd36b50a35268c17ccc06ed459ebbf479",
    ("minimal.scn", "pi"): "6857d9369fa29bed136e2f903130c31756233b36434f13ded9ce26bd1600cd98",
    ("minimal.scn", "routes"): "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    ("three_robots.scn", "flows"): "4389bbb6c05a87c96cd959f5ccdd4c2f7886db1fa54f1893fd8071aaf58a7088",
    ("three_robots.scn", "pi"): "09e2d9e3c1ddeae7996ae0cc1aa317de6907ada04c395d23335b744b70195fba",
    ("three_robots.scn", "routes"): "598610bce9a72e579c8e94727f088876f9aef927b9becf0fb14d6982e3e36652",
    ("three_robots_comm_only.scn", "flows"): "4389bbb6c05a87c96cd959f5ccdd4c2f7886db1fa54f1893fd8071aaf58a7088",
    ("three_robots_comm_only.scn", "pi"): "09e2d9e3c1ddeae7996ae0cc1aa317de6907ada04c395d23335b744b70195fba",
    ("three_robots_comm_only.scn", "routes"): "598610bce9a72e579c8e94727f088876f9aef927b9becf0fb14d6982e3e36652",
}


@pytest.mark.parametrize(
    "scenario, what",
    [(path.name, what) for path in sorted(SCENARIO_DIR.glob("*.scn")) for what in ("flows", "pi", "routes")],
)
def test_inspect_bytes_are_pinned(capsys, scenario, what):
    code, out, err = invoke(capsys, "inspect", "--scenario", str(SCENARIO_DIR / scenario), "--what", what)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == INSPECT_SHA256[scenario, what]


@pytest.mark.parametrize("command", [["allocate"], ["inspect", "--what", "flows"]])
def test_disconnected_task_graph_is_a_located_issue(capsys, tmp_path, command):
    # connectivity is a scenario rule, not a lifting one: the parser rejects
    # a task graph in two parts (exit 1), which to_semilattice would lift
    text = (SCENARIO_DIR / "three_robots.scn").read_text(encoding="utf-8")
    assert "edge A4 -> A5\n" in text
    bad = tmp_path / "split.scn"
    bad.write_text(text.replace("edge A4 -> A5\n", ""), encoding="utf-8")
    code, out, err = invoke(capsys, command[0], "--scenario", str(bad), *command[1:])
    assert code == 1 and out == ""
    line = text.splitlines().index("[task T]") + 1
    assert err == f"{bad}: line {line}, col 1: task T graph must be weakly connected\n"


def test_sampled_cli_runs_are_reproducible(capsys):
    args = (
        "allocate",
        "--scenario",
        MINIMAL,
        "--mode",
        "sample",
        "--seed",
        "42",
        "--format",
        "jsonl",
    )
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second


def test_emit_report_rejects_unknown_format():
    report = run(parse_scenario(open(MINIMAL).read()))
    with pytest.raises(ValueError, match="format"):
        emit_report(report, "xml")
