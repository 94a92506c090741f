import dataclasses
import gc
import hashlib
import importlib.util
import math
import pathlib
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hyperalloc
from hyperalloc import runner
from hyperalloc.allocator import MAX_SCORE, NO_CAPABLE_NODE, NON_PERTURBING, AllocationDecision, ImpactReport
from hyperalloc.network import NetworkModel, RequestProfile, comm_delays
from hyperalloc.report import emit_report
from hyperalloc.runner import (
    EngineError,
    inspect_flows,
    inspect_pi,
    inspect_routes,
    run,
)
from hyperalloc.scenario import RunOptions, ScenarioError, parse_scenario
from hyperalloc.subspaces import Subspace, SubspaceError

from _oracles import com_t_pair, critical_cost, nv, oracle_decide, random_dag, score_per_arrival
from conftest import scenario_text


def strip_overrides(text):
    lines = [
        ln
        for ln in text.splitlines()
        if not ln.startswith("override ") and ln.strip() != "[overrides]"
    ]
    return "\n".join(lines) + "\n"


def by_node(decision):
    return {c.node: c for c in decision.candidates}


def test_three_robots_decision(three_robots):
    report = run(parse_scenario(three_robots))
    assert len(report.decisions) == 1
    decision = report.decisions[0]
    assert decision.chosen == "R2"
    assert decision.rationale == MAX_SCORE
    cands = by_node(decision)
    assert set(cands) == {"R1", "R2", "R3"}

    # injected communication scores and the converged execution row combine
    # into these totals; R3 is wiped out by its compatibility zero
    assert cands["R1"].combined == pytest.approx(7.589548741978202e-05, rel=1e-12)
    assert cands["R2"].combined == pytest.approx(0.00014680523581542224, rel=1e-12)
    assert cands["R3"].combined == 0.0
    assert cands["R3"].exclusion == "zero-score"
    assert cands["R3"].scores[Subspace.CMPT] == 0.0
    assert cands["R1"].scores[Subspace.COMM] == 0.00266

    entry = report.schedules["R2"][0]
    assert entry.task == "T"
    assert entry.t_s == 0.0
    assert entry.t_e == pytest.approx(334.25, rel=1e-12)
    assert report.schedules["R1"] == [] and report.schedules["R3"] == []

    conv = report.convergence["T"]
    assert conv["converged"] and 1 <= conv["iterations"] <= 2000
    assert report.warnings == []


def test_comm_only_prefers_cheapest_talker(three_robots_comm_only):
    report = run(parse_scenario(three_robots_comm_only))
    decision = report.decisions[0]
    assert decision.chosen == "R3"
    assert report.options.subspaces == (Subspace.COMM,)
    for cand in decision.candidates:
        assert set(cand.scores) == {Subspace.COMM}


def test_keyword_overrides(three_robots_comm_only):
    sc = parse_scenario(three_robots_comm_only)
    report = run(sc, subspaces="cmpt", seed=5, step=0.2, tol=1e-5, max_iter=500)
    assert report.options == RunOptions(seed=5, subspaces=(Subspace.CMPT,), step=0.2, tol=1e-5, max_iter=500)
    decision = report.decisions[0]
    # every robot is compatible, so the selector falls through the tie chain
    assert all(c.combined == 1.0 for c in decision.candidates)
    assert decision.rationale == NON_PERTURBING
    assert decision.chosen == "R1"


def test_subspace_iterable_is_canonicalised(three_robots):
    sc = parse_scenario(three_robots)
    report = run(sc, subspaces=(Subspace.CPLT, Subspace.CMPT))
    assert report.options.subspaces == (Subspace.CMPT, Subspace.CPLT)


BAD_OPTIONS = [
    ("mode", "guess", None),
    ("step", 0.0, None),
    ("step", 1.5, None),
    ("step", "x", None),
    ("tol", 0.0, None),
    ("tol", math.inf, None),
    ("max_iter", 0, None),
    ("max_iter", 1.5, "expected an integer"),
    ("max_iter", True, "expected an integer"),
    ("seed", 1.5, None),
    ("seed", True, None),
    ("seed", -1, None),
    ("seed", 2**63, None),
    ("seed", math.inf, None),
    # text and iterable selections follow the same rules
    ("subspaces", "cmpt,whatever", "unknown subspace"),
    ("subspaces", ["cmpt", "bogus"], "unknown subspace"),
    ("subspaces", "cmpt,cmpt", "selected twice"),
    ("subspaces", ["cmpt", "cmpt"], "selected twice"),
    ("subspaces", (Subspace.CPLT, "cplt"), "selected twice"),
    ("subspaces", "", "empty subspace selection"),
    ("subspaces", [], "empty subspace selection"),
    # a value of a type the option cannot read at all
    ("subspaces", 5, "subspaces does not accept 5"),
    ("step", [0.1], "step does not accept"),
    ("tol", 1j, "tol does not accept"),
    ("max_iter", [3], "max_iter does not accept"),
    ("seed", [1], "seed does not accept"),
]


def test_bad_keyword_overrides(three_robots):
    sc = parse_scenario(three_robots)
    for name, value, match in BAD_OPTIONS:
        with pytest.raises(ValueError, match=match):
            run(sc, **{name: value})


@pytest.mark.parametrize("inspect", [inspect_flows, inspect_pi, inspect_routes])
def test_inspect_checks_options_as_run_does(three_robots, inspect):
    for name, value, match in BAD_OPTIONS:
        sc = parse_scenario(three_robots)
        setattr(sc.options, name, value)
        with pytest.raises(ValueError, match=match):
            inspect(sc)


def test_run_checks_the_scenario_options(three_robots):
    # options set in code meet the checks a keyword override meets
    good = parse_scenario(three_robots).options
    bad = dict(mode="bogus", seed="x", subspaces=("cmpt", "bogus"), step=0.0, tol=math.inf, max_iter=0)
    for name, value in bad.items():
        sc = parse_scenario(three_robots)
        setattr(sc.options, name, value)
        with pytest.raises(ValueError):
            run(sc)
        # an override replaces the value before it is checked
        assert getattr(run(sc, **{name: getattr(good, name)}).options, name) == getattr(good, name)
    # names given as strings are read as an override reads them
    sc = parse_scenario(three_robots)
    sc.options.subspaces = ("comm", "cmpt")
    assert run(sc).options.subspaces == (Subspace.CMPT, Subspace.COMM)
    assert sc.options.subspaces == ("comm", "cmpt")


def test_run_requires_time_order(three_robots):
    sc = parse_scenario(three_robots)
    sc.arrivals = [(1.0, "T"), (0.0, "T")]
    with pytest.raises(ScenarioError, match="ordered by time"):
        run(sc)


def test_sampled_runs_reproducible_and_seed_sensitive(three_robots):
    sc = parse_scenario(strip_overrides(three_robots))
    a = emit_report(run(sc, mode="sample", seed=11), "jsonl")
    b = emit_report(run(sc, mode="sample", seed=11), "jsonl")
    c = emit_report(run(sc, mode="sample", seed=12), "jsonl")
    assert a == b
    assert a != c


def test_zero_busy_time_is_an_engine_error():
    sc = parse_scenario(
        """
[network]
node A kind=robot
node B kind=fog
link A B c=1.0 lambda=1.0

[task T]
vertices V
exec A 0.0
exec B 0.0

[arrivals]
arrive t=0.0 task=T

[options]
subspaces cmpt
"""
    )
    with pytest.raises(EngineError, match="busy time"):
        run(sc)


def test_deadline_warning_and_no_capable_node(three_robots):
    text = strip_overrides(three_robots).replace(
        "window a=0.0 b=inf", "window a=0.0 b=300.0"
    )
    report = run(parse_scenario(text))
    decision = report.decisions[0]
    assert decision.chosen is None
    assert decision.rationale == NO_CAPABLE_NODE
    cands = by_node(decision)
    assert cands["R1"].exclusion == "window-violation"
    assert cands["R2"].exclusion == "window-violation"
    assert cands["R3"].exclusion == "zero-score"
    assert report.schedules == {label: [] for label in ("R1", "R2", "R3", "F", "C")}
    # only R1's round trip overruns the 300 deadline (372.75 vs 243.25, 239.05)
    assert len(report.warnings) == 1
    assert "R1" in report.warnings[0] and "exceeds deadline" in report.warnings[0]


def with_arrivals(text, times):
    lines = "\n".join(f"arrive t={t} task=T" for t in times)
    return text.replace("arrive t=0.0 task=T", lines)


def record_com_t_max(monkeypatch, sc):
    """Patch ``runner.com_t_max`` to record (source node, value) per call.

    The source is the node whose ``comm_delays`` table of task T the call
    scored; every node's table must differ from the others'.
    """
    net = NetworkModel(sc.nodes, sc.links)
    profile = RequestProfile(sc.requests)
    tables = {ref.label: comm_delays(net, profile, "T", ref.label) for ref in net.ordered}
    calls = []
    original = runner.com_t_max

    def recording(delays, rng=None):
        value = original(delays, rng)
        (src,) = [label for label, table in tables.items() if table == delays]
        calls.append((src, value))
        return value

    monkeypatch.setattr(runner, "com_t_max", recording)
    return calls


@pytest.mark.parametrize("mode", ["expected", "sample"])
def test_com_t_max_calls_per_mode(three_robots, monkeypatch, mode):
    # R2 keeps its override, so only R1 and R3 are ever scored from the network
    text = three_robots.replace("override comm T R1 0.00266\n", "")
    sc = parse_scenario(with_arrivals(text.replace("override comm T R3 0.00414\n", ""), (0.0, 1.0, 2.0, 3.0)))
    calls = record_com_t_max(monkeypatch, sc)
    report = run(sc, mode=mode)
    assert len(report.decisions) == 4
    arrivals = 1 if mode == "expected" else 4
    assert [src for src, _ in calls] == ["R1", "R3"] * arrivals


def test_sample_mode_builds_each_delay_table_once(three_robots, monkeypatch):
    sc = parse_scenario(with_arrivals(strip_overrides(three_robots), (0.0, 1.0, 2.0, 3.0)))
    built = record_calls(monkeypatch, "comm_delays", lambda net, profile, task, src: (task, src))
    draws = record_calls(monkeypatch, "com_t_max", lambda delays, rng: rng is not None)
    run(sc, mode="sample")
    assert draws == [True] * 12  # three candidates drawn at each of four arrivals
    assert sorted(built) == [("T", "R1"), ("T", "R2"), ("T", "R3")]


def test_deadline_warning_is_issued_once_over_many_arrivals(three_robots, monkeypatch):
    text = strip_overrides(three_robots).replace("window a=0.0 b=inf", "window a=0.0 b=300.0")
    sc = parse_scenario(with_arrivals(text, (0.0, 5.0, 10.0)))
    calls = record_com_t_max(monkeypatch, sc)
    report = run(sc)
    assert [src for src, _ in calls] == ["R1", "R2", "R3"]
    assert report.warnings == ["task T on R1: round-trip total 372.75 exceeds deadline 300"]


def test_sample_mode_warns_with_the_first_late_draw(three_robots, monkeypatch):
    text = strip_overrides(three_robots).replace("window a=0.0 b=inf", "window a=0.0 b=300.0")
    sc = parse_scenario(with_arrivals(text, (0.0, 5.0, 10.0, 15.0, 20.0)))
    draws = record_com_t_max(monkeypatch, sc)
    report = run(sc, mode="sample")
    first_late = {}
    for src, value in draws:
        if value > 300.0:
            first_late.setdefault(src, value)
    assert len(draws) == 5 * 3 and len(first_late) >= 1
    assert sum(value > 300.0 for _, value in draws) > len(first_late)
    assert report.warnings == [
        f"task T on {src}: round-trip total {value:.6g} exceeds deadline 300"
        for src, value in first_late.items()
    ]


# SHA-256 of the table, jsonl and csv reports of three_robots.scn in sample
# mode over four arrivals, with every override kept and with R2's dropped
OVERRIDDEN_SAMPLE_SHA256 = {
    ("R1 R2 R3", "table"): "d5685b9aee3feac4ff0eab7a1af54effe905846be377907097bbe984238ffff6",
    ("R1 R2 R3", "jsonl"): "42054079fa3e9adffcc5eb218c9e4c3bc883d9cc6078e5633ba90d1a7ef6c166",
    ("R1 R2 R3", "csv"): "d8cb7014a9a61aba6ca404a8d92fb1bc0394ea9a1f82071871672df66e907ed4",
    ("R1 R3", "table"): "c1f1f7b6a1990cc9009f93db24ee00817f9602ead8dde4bde1f42d801226ddcf",
    ("R1 R3", "jsonl"): "6bb44075f5af32e7c4952db573927b9639facf86d24e9f96c0f08378f50aca6f",
    ("R1 R3", "csv"): "28e011f90d8666871b439e1b5c78c6acfb5b072d03987a2faba69f0c344d279c",
}


@pytest.mark.parametrize("kept", ["R1 R2 R3", "R1 R3"])
def test_sample_mode_keeps_overridden_scores_across_arrivals(three_robots, kept):
    text = three_robots if "R2" in kept else three_robots.replace("override comm T R2 0.00407\n", "")
    sc = parse_scenario(with_arrivals(text, (0.0, 1.0, 2.0, 3.0)))
    report = run(sc, mode="sample")
    assert len(report.decisions) == 4
    for label in ("R1", "R2", "R3"):
        scores = [by_node(decision)[label].scores for decision in report.decisions]
        if label in kept.split():
            assert all(s is scores[0] for s in scores)
        else:  # redrawn at every arrival
            assert len({s[Subspace.COMM] for s in scores}) == 4
    for fmt in ("table", "jsonl", "csv"):
        digest = hashlib.sha256(emit_report(report, fmt).encode("utf-8")).hexdigest()
        assert digest == OVERRIDDEN_SAMPLE_SHA256[kept, fmt]


def generated_scenario(seed, nodes=40, tasks=3, vertices=6, arrivals=300):
    """A connected 40-node scenario with Poisson arrivals, built from one seed."""
    rng = random.Random(seed)
    kinds = ["robot"] * (nodes * 3 // 5) + ["fog"] * (nodes // 4)
    kinds += ["cloud"] * (nodes - len(kinds))
    labels = [f"N{i}" for i in range(1, nodes + 1)]
    lines = ["[network]"] + [f"node {n} kind={k}" for n, k in zip(labels, kinds)]
    pairs = {(labels[rng.randrange(i)], labels[i]) for i in range(1, nodes)}
    pairs |= {tuple(rng.sample(labels, 2)) for _ in range(nodes // 2)}
    pairs = {tuple(sorted(p)) for p in pairs}
    for a, b in sorted(pairs):
        lines.append(f"link {a} {b} c={rng.randint(1, 40) / 10} lambda={rng.randint(1, 8)}")
    lines.append("[profile]")
    for t in range(1, tasks + 1):
        for src in labels:
            for dst in rng.sample(labels, 2):
                if dst != src:
                    lines.append(f"requests T{t} {src} {dst} k={rng.randint(1, 3)}")
    for t in range(1, tasks + 1):
        lines += [f"[task T{t}]", "vertices " + " ".join(f"V{v}" for v in range(1, vertices + 1))]
        if t == 1:
            lines.append("window a=0.0 b=60.0")
        lines += [f"edge V{rng.randrange(1, v)} -> V{v}" for v in range(2, vertices + 1)]
        for n in labels:
            lines.append(f"exec {n} " + " ".join(str(rng.randint(1, 20) / 10) for _ in range(vertices)))
    lines.append("[arrivals]")
    t = 0.0
    for _ in range(arrivals):
        t = round(t + rng.expovariate(4.0), 3)
        lines.append(f"arrive t={t} task=T{rng.randint(1, tasks)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode", ["expected", "sample"])
def test_determinism_at_scale(mode):
    sc = parse_scenario(generated_scenario(5))
    assert len(sc.nodes) == 40 and len(sc.arrivals) == 300
    first = emit_report(run(sc, mode=mode, seed=9), "jsonl")
    second = emit_report(run(parse_scenario(generated_scenario(5)), mode=mode, seed=9), "jsonl")
    assert first == second


def test_sample_mode_warnings_are_bounded_by_tasks_times_nodes():
    sc = parse_scenario(generated_scenario(5))
    warnings = run(sc, mode="sample", seed=9).warnings
    pairs = [tuple(w.split(":")[0].split()[1::2]) for w in warnings if "exceeds deadline" in w]
    assert pairs and len(pairs) == len(warnings)
    assert len(set(pairs)) == len(pairs)
    assert len(pairs) <= len(sc.tasks) * len(sc.nodes)


# --------------------------------------------------- candidate tables


def varied_scenario(seed, options=""):
    """A small generated scenario with declared candidates in shuffled order,
    tight deadlines and comm overrides, plus ``options`` as an [options] body."""
    rng = random.Random(seed)
    labels = [f"N{i}" for i in range(1, 11)]
    lines = []
    for line in generated_scenario(seed, nodes=10, vertices=4, arrivals=60).splitlines():
        lines.append(line)
        if line.startswith("vertices"):
            lines.append("candidates " + " ".join(rng.sample(labels, rng.randint(3, 10))))
            window = f"window a=0.0 b={rng.choice((10.0, 20.0, 'inf'))}"
            if lines[-3] != "[task T1]":  # T1's own window line follows; a second one is rejected
                lines.append(window)
    lines.append("[overrides]")
    for label in rng.sample(labels, 3):
        lines.append(f"override comm T{rng.randint(1, 3)} {label} {rng.choice(('0', '0.5', 'inf'))}")
    return "\n".join(lines) + f"\n[options]\n{options}"


@pytest.mark.parametrize("mode", ["expected", "sample"])
@pytest.mark.parametrize("subspaces", ["cmpt,comm,cplt", "comm", "cmpt,cplt", "comm,cplt"])
def test_candidate_rows_match_per_arrival_scoring(monkeypatch, mode, subspaces):
    allocate = runner.allocate

    def bits(scores):
        return [(s, v.hex()) for s, v in scores.items()]

    # 2**32 and 2**63 - 1 take two entropy words each, unlike the benchmark's seeds
    for seed in (0, 1, 2, 2**32, 2**63 - 1):
        sc = parse_scenario(varied_scenario(seed, f"mode {mode}\nseed {seed}\nsubspaces {subspaces}\n"))
        net = NetworkModel(sc.nodes, sc.links)
        profile = RequestProfile(sc.requests)
        states, checked = {}, []

        def checking(task, arrival, arrival_idx, rows, duration_fn, window, schedules):
            expect = score_per_arrival(sc, sc.options, net, profile, states, task, arrival_idx)
            snapshot = {
                label: [(e.task, e.t_s, e.t_e, e.score) for e in schedule.entries()]
                for label, schedule in schedules.items()
            }
            decision = allocate(task, arrival, arrival_idx, rows, duration_fn, window, schedules)
            assert [(c.node, c.node_idx, bits(c.scores), c.combined.hex()) for c in decision.candidates] == [
                (label, idx, bits(scores), combined.hex()) for label, idx, scores, combined in expect
            ]

            def rescore(entry_task, score, length, new_start):
                deadline = sc.tasks[entry_task].window[1] if entry_task in sc.tasks else math.inf
                return 0.0 if entry_task == "idle" or new_start + length > deadline else score

            want = oracle_decide(
                [(label, idx) for label, idx, _, _ in expect],
                {label: combined for label, _, _, combined in expect},
                snapshot,
                arrival,
                {label: duration_fn(task, label) for label, _, _, combined in expect if combined != 0},
                window,
                rescore,
            )
            if want is None:
                assert (decision.chosen, decision.rationale) == (None, NO_CAPABLE_NODE)
            else:
                winner = next(c for c in decision.candidates if c.node == decision.chosen)
                impact = decision.impact
                got = (winner.start, winner.end, impact.affected, nv(impact), winner.loss)
                assert (decision.chosen, decision.rationale, got) == want
            checked.append(arrival_idx)
            return decision

        monkeypatch.setattr(runner, "allocate", checking)
        run(sc)
        assert checked == list(range(len(sc.arrivals)))


def record_calls(monkeypatch, name, key):
    """Patch ``runner.<name>`` to append ``key(*args)`` of every call to the returned list."""
    calls = []
    original = getattr(runner, name)

    def recording(*args):
        calls.append(key(*args))
        return original(*args)

    monkeypatch.setattr(runner, name, recording)
    return calls


def test_expected_mode_scores_each_candidate_once_per_run(monkeypatch):
    sc = parse_scenario(varied_scenario(4, "mode expected\n"))
    cplt = record_calls(monkeypatch, "cplt_score", lambda state, column: (id(state), column))
    checked = record_calls(monkeypatch, "check_score", lambda subspace, value: subspace)
    combined = record_calls(monkeypatch, "combine_values", len)
    run(sc)
    arrived = {task for _, task in sc.arrivals}
    pairs = {(task, label) for task in arrived for label in sc.tasks[task].candidates}
    assert len(sc.arrivals) > 2 * len(arrived)
    assert len(set(cplt)) == len(cplt) == len(pairs)
    # one check per (task, node) and subspace, one product per (task, node)
    assert checked == [Subspace.CMPT, Subspace.COMM, Subspace.CPLT] * len(pairs)
    assert combined == [3] * len(pairs)


def test_sample_mode_draws_comm_once_per_arrival_and_candidate_in_declared_order(monkeypatch):
    sc = parse_scenario(varied_scenario(4, "mode sample\nsubspaces comm\n"))
    monkeypatch.setattr(runner, "_SEED_BLOCK", 5)  # several blocks, each of whole arrivals
    blocks = record_calls(
        monkeypatch, "substream", lambda seed, stream, arrivals, nodes: list(zip(arrivals.tolist(), nodes.tolist()))
    )
    run(sc)
    assert len(blocks) > 2
    draws = [key for block in blocks for key in block]
    net = NetworkModel(sc.nodes, sc.links)
    # declared order, not node-index order: the deadline warnings follow the draws
    by_index = {task: sorted(spec.candidates, key=lambda n: net.node(n).idx) for task, spec in sc.tasks.items()}
    assert any(spec.candidates != by_index[task] for task, spec in sc.tasks.items())
    assert draws == [
        (i, net.node(label).idx)
        for i, (_, task) in enumerate(sc.arrivals)
        for label in sc.tasks[task].candidates
        if (task, label) not in sc.overrides_comm
    ]


def test_negative_comm_override_fails_before_any_arrival(monkeypatch):
    sc = parse_scenario(varied_scenario(4))
    late = sc.arrivals[-1][1]
    first = next(i for i, (_, task) in enumerate(sc.arrivals) if task == late)
    label = sc.tasks[late].candidates[0]
    sc.overrides_comm[(late, label)] = -1.0
    commits = record_calls(monkeypatch, "commit_decision", lambda decision, schedules: decision.arrival_idx)
    with pytest.raises(ScenarioError, match=f"override {late} {label} value: override value must be >= 0"):
        run(sc)
    assert first > 0 and commits == []


# ------------------------------------------------------------ durations


def dag_scenario(seed):
    """Five nodes and three tasks on random connected DAGs, with full-precision
    execution times and requests from each node to three others."""
    rng = random.Random(seed)
    labels = [f"N{i}" for i in range(1, 6)]
    lines = ["[network]"] + [f"node {n} kind={k}" for n, k in zip(labels, ("robot", "robot", "fog", "fog", "cloud"))]
    lines += [f"link {a} {b} c={rng.uniform(0.1, 4.0)!r} lambda={rng.randint(1, 8)}" for a, b in zip(labels, labels[1:])]
    lines.append("[profile]")
    for src in labels:
        for dst in rng.sample([label for label in labels if label != src], 3):
            lines.append(f"requests T{rng.randint(1, 3)} {src} {dst} k={rng.randint(1, 3)}")
    for t in range(1, 4):
        n, edges = random_dag(rng, max_vertices=9)
        edges = sorted(set(edges) | {(v, v + 1) for v in range(1, n)})  # a chain connects it
        lines += [f"[task T{t}]", "vertices " + " ".join(f"V{v}" for v in range(1, n + 1))]
        lines += [f"edge V{a} -> V{b}" for a, b in edges]
        for label in labels:
            lines.append(f"exec {label} " + " ".join(repr(rng.uniform(0.1, 9.9)) for _ in range(n)))
    lines.append("[arrivals]")
    lines += [f"arrive t={i * 0.5} task=T{1 + i % 3}" for i in range(9)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode", ["expected", "sample"])
def test_durations_match_the_per_node_critical_path(monkeypatch, mode):
    allocate = runner.allocate
    durations = {}

    def recording(task, arrival, arrival_idx, rows, duration_fn, *rest):
        durations.update(((task, label), duration_fn(task, label)) for label, _, _, _ in rows)
        return allocate(task, arrival, arrival_idx, rows, duration_fn, *rest)

    monkeypatch.setattr(runner, "allocate", recording)
    passes = record_calls(monkeypatch, "flow_critical_cost", lambda sl, cost: cost.shape)
    for seed in range(4):
        durations.clear()
        passes.clear()
        sc = parse_scenario(dag_scenario(seed))
        run(sc, mode=mode)
        net = NetworkModel(sc.nodes, sc.links)
        profile = RequestProfile(sc.requests)
        assert len(durations) == 15
        # one pass per task, over all five nodes; a connected task has one start and one finish
        assert passes == [(len(spec.labels) + 2, 5) for spec in sc.tasks.values()]
        for (task, label), got in durations.items():
            spec = sc.tasks[task]
            row = spec.exec_times[label]
            comm = 0.0
            for dst in profile.targets(task, label):
                comm += com_t_pair(net, profile, task, label, dst)[0]
            want = critical_cost(len(spec.labels), spec.edges, lambda i: row[i - 1]) + comm
            assert type(got) is float and got.hex() == want.hex()


def test_dynamics_and_durations_read_one_compiled_exec_matrix(monkeypatch):
    # each task's exec matrix is compiled once, at its first arrival, for both users
    dynamics = record_calls(monkeypatch, "pi_init", lambda sl, et, *rest: id(et))
    durations = record_calls(monkeypatch, "flow_critical_cost", lambda sl, et: id(et))
    sc = parse_scenario(dag_scenario(0))
    run(sc)
    assert len(set(dynamics)) == len(sc.tasks) and dynamics == durations


def test_busy_time_adds_communication_by_target_label():
    # node-index order is Z, A, M and label order A, M, Z: added in index
    # order, the 1e16 mean to Z absorbs each later 1.0; in label order it does not
    text = (
        "[network]\nnode S kind=robot\nnode Z kind=robot\nnode A kind=fog\nnode M kind=cloud\n"
        "link S Z c=5e15 lambda=1e6\nlink S A c=0.25 lambda=4.0\nlink S M c=0.25 lambda=4.0\n"
        "[profile]\nrequests T S Z k=1\nrequests T S A k=1\nrequests T S M k=1\n"
        "[task T]\nvertices V\nexec S 1.0\nexec Z 1.0\nexec A 1.0\nexec M 1.0\ncandidates S\n"
        "[arrivals]\narrive t=0.0 task=T\n[options]\nsubspaces cmpt\n"
    )
    (entry,) = run(parse_scenario(text)).schedules["S"]
    by_label = 1.0 + (((0.0 + 1.0) + 1.0) + 1e16)
    assert by_label != 1.0 + (((0.0 + 1e16) + 1.0) + 1.0)
    assert (entry.t_s, entry.t_e) == (0.0, by_label)


# ------------------------------------------------------ benchmark seams


def _perfbench(name):
    """A module of the benchmark, loaded from its file without changing it."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_probes_reach_every_layer(three_robots):
    """Every layer the benchmark probes is still called, so a refactor that
    drops one of its seams fails here and not only in a benchmark run."""
    tracer = _perfbench("probes").Tracer()
    with tracer.installed():
        run(parse_scenario(strip_overrides(three_robots)), mode="sample")
    for workload in ("fleet", "backlog", "deepdag"):
        tracer.require(workload)


# ------------------------------------------------------ decision records


def _numpy_arrays(obj) -> list:
    """The numpy arrays reachable from ``obj`` through dataclass fields,
    mappings, lists and tuples."""
    found, stack, seen = [], [obj], set()
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            found.append(value)
        elif dataclasses.is_dataclass(value):
            stack += [getattr(value, f.name) for f in dataclasses.fields(value)]
        elif isinstance(value, dict):
            stack += [*value, *value.values()]
        elif isinstance(value, (list, tuple)):
            stack += value
    return found


def test_decisions_keep_no_impact_report_after_the_run():
    pending = AllocationDecision("t", 0.0, 0, "n1", MAX_SCORE, [], impact=ImpactReport(0.0, 1.0, 0, np.zeros(2)))
    assert len(_numpy_arrays(pending)) == 1  # the walk does find a report's buffer
    report = run(parse_scenario(_perfbench("gen").generate("backlog", 1)))
    assert len(report.decisions) == 1500
    losses = 0
    for decision in report.decisions:
        assert decision.impact is None
        assert _numpy_arrays(decision) == []
        for c in decision.candidates:
            assert (type(c.start), type(c.end)) == ((float, float) if c.admissible else (type(None),) * 2)
            assert type(c.loss) is float
            losses += c.loss > 0
    assert losses  # some insertions shifted entries, so their reports held shifted starts


# ------------------------------------------------ garbage-collector pause


def _two_node_scenario(exec_time):
    return parse_scenario(
        f"""
[network]
node A kind=robot
node B kind=fog
link A B c=1.0 lambda=1.0

[task T]
vertices V
exec A {exec_time}
exec B {exec_time}

[arrivals]
arrive t=0.0 task=T
"""
    )


def _zero_busy_time():
    sc = _two_node_scenario(0.0)
    sc.options.subspaces = (Subspace.CMPT,)
    return sc, EngineError


def _overflowing_round_trips():
    # each round trip is finite, but capability scoring adds the two up
    sc = _two_node_scenario(1.0)
    sc.links = [("A", "B", 5e307, 1.0)]
    return sc, SubspaceError


@pytest.fixture
def gc_state():
    """Yields a setter for the collector state; restores the original after."""
    before = gc.isenabled()
    yield lambda on: gc.enable() if on else gc.disable()
    if before:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_collector_state(three_robots, gc_state, enabled):
    gc_state(enabled)
    run(parse_scenario(three_robots))
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("failing", [_zero_busy_time, _overflowing_round_trips])
def test_run_restores_the_collector_state_when_it_raises(gc_state, enabled, failing):
    sc, error = failing()
    gc_state(enabled)
    with pytest.raises(error):
        run(sc)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("mode", ["expected", "sample"])
def test_run_makes_no_cyclic_garbage(gc_state, mode):
    sc = parse_scenario(generated_scenario(5))
    gc.collect()
    gc_state(False)
    report = run(sc, mode=mode, seed=9)
    assert report.decisions
    assert gc.collect() == 0


def test_inspect_flows(three_robots):
    sc = parse_scenario(three_robots)
    info = inspect_flows(sc)["T"]
    assert info["count"] == 4
    assert info["max_length"] == 7
    assert info["flows"][0] == ["start1", "A1", "A2", "A4", "A5", "A6", "A8", "finish1"]
    assert all(f[0] == "start1" and f[-1] == "finish1" for f in info["flows"])


def test_inspect_pi(three_robots):
    sc = parse_scenario(three_robots)
    info = inspect_pi(sc)["T"]
    assert info["nodes"] == ["R1", "R2", "R3", "F", "C"]
    assert info["vertices"][0] == "start1" and info["vertices"][-1] == "finish1"
    assert len(info["pi"]) == 10 and len(info["pi"][0]) == 5
    assert info["converged"] is True
    for row in info["pi"]:
        assert sum(row) == pytest.approx(1.0, abs=1e-9)
    # the virtual rows never move off their uniform start
    assert info["pi"][0] == pytest.approx([0.2] * 5, abs=1e-12)
    assert info["transmission_bound"] >= 0.0
    for prow, crow in zip(info["pi"], info["capital"]):
        for p, c in zip(prow, crow):
            assert c >= p - 1e-12


def test_tasks_share_one_round_trip_matrix():
    sc = parse_scenario(generated_scenario(5))
    engine = runner._Engine(sc)
    matrices = [engine.capability_state(task_id).ct for task_id in sc.tasks]
    assert len(matrices) == 3
    assert all(ct is runner.round_trip_matrix(engine.net) for ct in matrices)


def test_inspect_routes(three_robots):
    sc = parse_scenario(three_robots)
    routes = inspect_routes(sc)
    assert len(routes) == 10  # every unordered pair of the five nodes
    table = {(r["from"], r["to"]): r for r in routes}
    r1c = table[("R1", "C")]
    assert r1c["path"] == ["R1", "F", "C"]
    assert r1c["expected_one_way"] == pytest.approx(26.625, rel=1e-12)
    assert r1c["round_trip"] == pytest.approx(53.25, rel=1e-12)
    assert table[("F", "C")]["round_trip"] == pytest.approx(2.25, rel=1e-12)
    for r in routes:
        assert math.isfinite(r["expected_one_way"]) and r["expected_one_way"] > 0


def test_readme_library_names_are_exported():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("The building blocks are importable on their own:", 1)[1].split("\n\n", 1)[0]
    names = set(re.findall(r"`(\w+)`", blocks))
    names |= set(re.search(r"from hyperalloc import (.+)", section).group(1).split(", "))
    assert {"run", "pi_init", "allocate", "commit_decision"} <= names
    assert [n for n in sorted(names) if not hasattr(hyperalloc, n)] == []


SEEDS = st.integers(0, 2**63 - 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(SEEDS, SEEDS)
def test_distinct_seeds_give_distinct_sample_reports(a, b):
    # without its overrides every candidate's comm score is drawn
    assume(a != b)
    sc = parse_scenario(strip_overrides(scenario_text("three_robots.scn")))
    # the meta record names the seed; compare only what the draws decide
    reports = [emit_report(run(sc, mode="sample", seed=seed), "jsonl").split("\n", 1)[1] for seed in (a, b)]
    assert reports[0] != reports[1]
