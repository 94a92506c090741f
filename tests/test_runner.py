import gc
import math
import random

import pytest

from hyperalloc import runner
from hyperalloc.allocator import MAX_SCORE, NO_CAPABLE_NODE, NON_PERTURBING
from hyperalloc.report import emit_report
from hyperalloc.runner import (
    EngineError,
    inspect_flows,
    inspect_pi,
    inspect_routes,
    run,
)
from hyperalloc.scenario import parse_scenario
from hyperalloc.subspaces import DegenerateRow, Subspace


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
    assert report.subspaces == (Subspace.COMM,)
    for cand in decision.candidates:
        assert set(cand.scores) == {Subspace.COMM}


def test_keyword_overrides(three_robots_comm_only):
    sc = parse_scenario(three_robots_comm_only)
    report = run(sc, subspaces="cmpt", seed=5, step=0.2, tol=1e-5, max_iter=500)
    assert report.subspaces == (Subspace.CMPT,)
    assert (report.seed, report.step, report.tol, report.max_iter) == (5, 0.2, 1e-5, 500)
    decision = report.decisions[0]
    # every robot is compatible, so the selector falls through the tie chain
    assert all(c.combined == 1.0 for c in decision.candidates)
    assert decision.rationale == NON_PERTURBING
    assert decision.chosen == "R1"


def test_subspace_iterable_is_canonicalised(three_robots):
    sc = parse_scenario(three_robots)
    report = run(sc, subspaces=(Subspace.CPLT, Subspace.CMPT))
    assert report.subspaces == (Subspace.CMPT, Subspace.CPLT)


def test_bad_keyword_overrides(three_robots):
    sc = parse_scenario(three_robots)
    for kwargs in (
        {"mode": "guess"},
        {"step": 0.0},
        {"step": 1.5},
        {"tol": 0.0},
        {"tol": math.inf},
        {"max_iter": 0},
        {"threads": 0},
    ):
        with pytest.raises(ValueError):
            run(sc, **kwargs)
    with pytest.raises(ValueError, match="unknown subspace"):
        run(sc, subspaces="cmpt,whatever")


def test_sampled_runs_reproducible_and_seed_sensitive(three_robots):
    sc = parse_scenario(strip_overrides(three_robots))
    a = emit_report(run(sc, mode="sample", seed=11), "jsonl")
    b = emit_report(run(sc, mode="sample", seed=11), "jsonl")
    c = emit_report(run(sc, mode="sample", seed=12), "jsonl")
    assert a == b
    assert a != c


def test_threads_do_not_change_results(three_robots):
    sc = parse_scenario(strip_overrides(three_robots))
    lone = run(sc, mode="sample", seed=3, threads=1)
    pooled = run(sc, mode="sample", seed=3, threads=4)
    assert lone.decisions == pooled.decisions
    assert lone.schedules == pooled.schedules
    assert lone.warnings == pooled.warnings
    # everything but the recorded worker count is byte-identical
    a = emit_report(lone, "jsonl")
    b = emit_report(pooled, "jsonl").replace('"threads":4', '"threads":1')
    assert a == b


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


def count_com_t_max(monkeypatch):
    calls = []
    original = runner.com_t_max

    def counting(net, profile, task, src, mode="expected", rng=None):
        calls.append((task, src))
        return original(net, profile, task, src, mode, rng)

    monkeypatch.setattr(runner, "com_t_max", counting)
    return calls


@pytest.mark.parametrize("mode", ["expected", "sample"])
def test_com_t_max_calls_per_mode(three_robots, monkeypatch, mode):
    # R2 keeps its override, so only R1 and R3 are ever scored from the network
    text = three_robots.replace("override comm T R1 0.00266\n", "")
    text = with_arrivals(text.replace("override comm T R3 0.00414\n", ""), (0.0, 1.0, 2.0, 3.0))
    calls = count_com_t_max(monkeypatch)
    report = run(parse_scenario(text), mode=mode)
    assert len(report.decisions) == 4
    arrivals = 1 if mode == "expected" else 4
    assert calls == [("T", "R1"), ("T", "R3")] * arrivals


def test_deadline_warning_is_issued_once_over_many_arrivals(three_robots, monkeypatch):
    text = strip_overrides(three_robots).replace("window a=0.0 b=inf", "window a=0.0 b=300.0")
    calls = count_com_t_max(monkeypatch)
    report = run(parse_scenario(with_arrivals(text, (0.0, 5.0, 10.0))))
    assert len(calls) == 3
    assert report.warnings == ["task T on R1: round-trip total 372.75 exceeds deadline 300"]


def test_sample_mode_warns_with_the_first_late_draw(three_robots, monkeypatch):
    text = strip_overrides(three_robots).replace("window a=0.0 b=inf", "window a=0.0 b=300.0")
    draws = []
    original = runner.com_t_max

    def recording(net, profile, task, src, mode="expected", rng=None):
        value = original(net, profile, task, src, mode, rng)
        draws.append((src, value))
        return value

    monkeypatch.setattr(runner, "com_t_max", recording)
    report = run(parse_scenario(with_arrivals(text, (0.0, 5.0, 10.0, 15.0, 20.0))), mode="sample")
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


def _no_capable_node():
    sc = _two_node_scenario(1.0)
    sc.tasks["T"].incapable.update({("A", 1), ("B", 1)})  # past the parser's check
    return sc, DegenerateRow


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
@pytest.mark.parametrize("failing", [_zero_busy_time, _no_capable_node])
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
    engine = runner._Engine(sc, sc.options)
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
