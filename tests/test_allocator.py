import math
import random

import pytest

from hyperalloc.allocator import (
    IDLE_TASK,
    MAX_SCORE,
    MIN_LOSS,
    NO_CAPABLE_NODE,
    NON_PERTURBING,
    AllocationDecision,
    CandidateReport,
    ScheduleEntry,
    WindowViolation,
    allocate,
    commit_decision,
    reallocation_loss,
    run_arrivals,
    schedule_impact,
)
from hyperalloc.subspaces import Subspace

from _oracles import commit_decision_full, reallocation_loss_full, schedule_impact_full


def entries(*specs):
    return [ScheduleEntry(task, t_s, t_e, score=score) for task, t_s, t_e, score in specs]


def keep_score(entry, new_start):
    return entry.score


# ----------------------------------------------------------- insertion


def test_insert_into_empty_schedule():
    report = schedule_impact([], "t", 3.0, arrival=2.0)
    assert (report.start, report.end) == (2.0, 5.0)
    assert report.affected == []


def test_window_start_delays_insertion():
    report = schedule_impact([], "t", 3.0, arrival=1.0, window=(5.0, math.inf))
    assert (report.start, report.end) == (5.0, 8.0)


def test_running_entry_blocks_until_it_finishes():
    schedule = entries(("a", 0.0, 4.0, 1.0))
    report = schedule_impact(schedule, "t", 2.0, arrival=2.0)
    assert (report.start, report.end) == (4.0, 6.0)
    assert report.affected == []


def test_not_yet_started_entry_is_displaced():
    schedule = entries(("a", 0.0, 5.0, 1.0))
    report = schedule_impact(schedule, "t", 3.0, arrival=0.0)
    assert (report.start, report.end) == (0.0, 3.0)
    assert report.affected == [(1, 0.0, 3.0)]


def test_insertion_into_gap_leaves_neighbours_alone():
    schedule = entries(("a", 0.0, 5.0, 1.0), ("b", 10.0, 20.0, 1.0))
    report = schedule_impact(schedule, "t", 3.0, arrival=5.0)
    assert (report.start, report.end) == (5.0, 8.0)
    assert report.affected == []


def test_displacement_cascades():
    schedule = entries(("a", 0.0, 5.0, 1.0), ("b", 5.0, 9.0, 1.0))
    report = schedule_impact(schedule, "t", 3.0, arrival=0.0)
    assert report.affected == [(1, 0.0, 3.0), (2, 5.0, 8.0)]


def test_running_and_queued_mix():
    schedule = entries(("a", 0.0, 4.0, 1.0), ("b", 4.0, 6.0, 1.0))
    report = schedule_impact(schedule, "t", 5.0, arrival=2.0)
    # a is already running, so the task starts when a ends and b shifts
    assert (report.start, report.end) == (4.0, 9.0)
    assert report.affected == [(2, 4.0, 9.0)]


def test_second_identical_task_queues_behind_first():
    schedule = entries(("a", 0.0, 7.0, 1.0))
    report = schedule_impact(schedule, "a", 7.0, arrival=1.0)
    assert (report.start, report.end) == (7.0, 14.0)
    assert report.affected == []


def test_window_violation_raises():
    with pytest.raises(WindowViolation):
        schedule_impact([], "t", 10.0, arrival=0.0, window=(0.0, 5.0))
    schedule = entries(("a", 0.0, 5.0, 1.0))
    with pytest.raises(WindowViolation):
        # start is pushed to 5 by the running entry, deadline 8 < 5 + 4
        schedule_impact(schedule, "t", 4.0, arrival=2.0, window=(0.0, 8.0))


def test_duration_must_be_positive():
    with pytest.raises(ValueError):
        schedule_impact([], "t", 0.0, arrival=0.0)
    with pytest.raises(ValueError):
        schedule_impact([], "t", -1.0, arrival=0.0)


# ------------------------------------------------------ loss accounting


def test_reallocation_loss_counts_strict_drops_only():
    schedule = entries(("a", 0.0, 2.0, 1.0), ("b", 2.0, 4.0, 0.5), ("c", 4.0, 6.0, 0.8))
    report = schedule_impact(schedule, "t", 2.0, arrival=0.0)
    assert [i for i, _, _ in report.affected] == [1, 2, 3]

    outcomes = {"a": 1.0, "b": 0.2, "c": 0.3}  # a holds, b and c drop

    def scorer(entry, new_start):
        return outcomes[entry.task]

    loss = reallocation_loss(report, scorer)
    assert report.nv == {2, 3}
    assert loss == pytest.approx((0.5 - 0.2) + (0.8 - 0.3))
    assert report.loss == loss
    assert [(i, ns) for i, _, ns, _ in report.rescored] == [(1, 2.0), (2, 4.0), (3, 6.0)]


# --------------------------------------------------------- decision rule


def fixed_scores(values):
    def score_fn(task, label, arrival_idx):
        return {Subspace.COMM: values[label]}

    return score_fn


def fixed_durations(values):
    return lambda task, label: values[label]


def test_allocate_picks_unique_max_score():
    schedules = {"n1": [], "n2": []}
    decision = allocate(
        "t",
        0.0,
        0,
        [("n1", 1), ("n2", 2)],
        fixed_scores({"n1": 0.4, "n2": 0.9}),
        fixed_durations({"n1": 1.0, "n2": 1.0}),
        (0.0, math.inf),
        schedules,
        keep_score,
    )
    assert decision.chosen == "n2"
    assert decision.rationale == MAX_SCORE
    assert [c.node for c in decision.candidates] == ["n1", "n2"]


def test_allocate_excludes_zero_and_violations():
    schedules = {"n1": [], "n2": entries(("x", 0.0, 100.0, 1.0))}
    decision = allocate(
        "t",
        50.0,
        0,
        [("n1", 1), ("n2", 2)],
        fixed_scores({"n1": 0.0, "n2": 0.5}),
        fixed_durations({"n1": 5.0, "n2": 5.0}),
        (0.0, 60.0),
        schedules,
        keep_score,
    )
    # n1 scores zero; n2's running entry pushes the start past the deadline
    assert decision.chosen is None
    assert decision.rationale == NO_CAPABLE_NODE
    by_node = {c.node: c for c in decision.candidates}
    assert by_node["n1"].exclusion == "zero-score"
    assert by_node["n2"].exclusion == "window-violation"


def test_allocate_tie_prefers_non_perturbing():
    schedules = {"n1": entries(("x", 0.0, 5.0, 1.0)), "n2": []}
    decision = allocate(
        "t",
        0.0,
        0,
        [("n1", 1), ("n2", 2)],
        fixed_scores({"n1": 0.7, "n2": 0.7}),
        fixed_durations({"n1": 2.0, "n2": 2.0}),
        (0.0, math.inf),
        schedules,
        lambda entry, ns: 0.0,  # any shift is a total loss
    )
    assert decision.chosen == "n2"
    assert decision.rationale == NON_PERTURBING


def test_allocate_tie_on_harmless_shift_counts_as_non_perturbing():
    # both nodes shift an entry, but n1's entry keeps its score (empty NV)
    schedules = {"n1": entries(("x", 0.0, 5.0, 1.0)), "n2": entries(("y", 0.0, 5.0, 1.0))}

    def scorer(entry, new_start):
        return entry.score if entry.task == "x" else 0.0

    decision = allocate(
        "t",
        0.0,
        0,
        [("n1", 1), ("n2", 2)],
        fixed_scores({"n1": 0.7, "n2": 0.7}),
        fixed_durations({"n1": 2.0, "n2": 2.0}),
        (0.0, math.inf),
        schedules,
        scorer,
    )
    assert decision.chosen == "n1"
    assert decision.rationale == NON_PERTURBING


def test_allocate_tie_minimises_loss():
    schedules = {
        "n1": entries(("x", 0.0, 5.0, 1.0)),
        "n2": entries(("y", 0.0, 5.0, 0.4)),
    }
    decision = allocate(
        "t",
        0.0,
        0,
        [("n1", 1), ("n2", 2)],
        fixed_scores({"n1": 0.7, "n2": 0.7}),
        fixed_durations({"n1": 2.0, "n2": 2.0}),
        (0.0, math.inf),
        schedules,
        lambda entry, ns: 0.0,
    )
    # both perturb; n2 forfeits only 0.4
    assert decision.chosen == "n2"
    assert decision.rationale == MIN_LOSS
    by_node = {c.node: c for c in decision.candidates}
    assert by_node["n1"].loss == 1.0
    assert by_node["n2"].loss == pytest.approx(0.4)


def test_allocate_full_tie_takes_lowest_index():
    schedules = {"n1": [], "n2": []}
    decision = allocate(
        "t",
        0.0,
        0,
        [("n2", 2), ("n1", 1)],  # deliberately out of order
        fixed_scores({"n1": 0.7, "n2": 0.7}),
        fixed_durations({"n1": 2.0, "n2": 2.0}),
        (0.0, math.inf),
        schedules,
        keep_score,
    )
    assert decision.chosen == "n1"
    assert decision.rationale == NON_PERTURBING


# ------------------------------------------------------------- committing


def run_one(schedules, arrival=0.0, window=(0.0, math.inf), duration=2.0, score=0.5):
    decision = allocate(
        "t",
        arrival,
        0,
        [("n1", 1)],
        fixed_scores({"n1": score}),
        fixed_durations({"n1": duration}),
        window,
        schedules,
        keep_score,
    )
    commit_decision(decision, schedules)
    return decision


def test_commit_inserts_scored_entry():
    schedules = {"n1": []}
    run_one(schedules, arrival=1.0)
    (entry,) = schedules["n1"]
    assert (entry.task, entry.t_s, entry.t_e, entry.score) == ("t", 1.0, 3.0, 0.5)
    assert not entry.forced_idle


def test_commit_materialises_forced_idle_wait():
    schedules = {"n1": []}
    run_one(schedules, arrival=1.0, window=(5.0, math.inf))
    idle, task = schedules["n1"]
    assert idle.task == IDLE_TASK and idle.forced_idle
    assert (idle.t_s, idle.t_e) == (1.0, 5.0)
    assert idle.score == 0.0
    assert (task.t_s, task.t_e) == (5.0, 7.0)


def test_forced_idle_is_displaceable():
    schedules = {"n1": []}
    run_one(schedules, arrival=1.0, window=(5.0, math.inf))
    # a second task arriving at 0.5 claims the head of the line; the idle
    # placeholder and the first task both shift right
    decision = allocate(
        "u",
        0.5,
        1,
        [("n1", 1)],
        fixed_scores({"n1": 0.5}),
        fixed_durations({"n1": 2.0}),
        (0.0, math.inf),
        schedules,
        keep_score,
    )
    winner = decision.candidates[0]
    assert (winner.impact.start, winner.impact.end) == (0.5, 2.5)
    assert winner.impact.affected == [(1, 1.0, 2.5), (2, 5.0, 6.5)]


def test_commit_shifts_existing_entries():
    schedules = {"n1": entries(("a", 0.0, 5.0, 1.0))}
    run_one(schedules, arrival=0.0, duration=3.0)
    first, second = schedules["n1"]
    assert (first.task, first.t_s, first.t_e) == ("t", 0.0, 3.0)
    assert (second.task, second.t_s, second.t_e) == ("a", 3.0, 8.0)


def test_rejected_decision_changes_nothing():
    schedules = {"n1": []}
    decision = allocate(
        "t",
        0.0,
        0,
        [("n1", 1)],
        fixed_scores({"n1": 0.0}),
        fixed_durations({"n1": 1.0}),
        (0.0, math.inf),
        schedules,
        keep_score,
    )
    commit_decision(decision, schedules)
    assert schedules["n1"] == []


# ------------------------------------------ live-entry scan vs full scan


def _fields(schedule):
    return [(e.task, e.t_s, e.t_e, e.forced_idle, e.score) for e in schedule]


def _late_drop(entry, new_start):
    return 0.0 if entry.forced_idle or new_start > 6.0 else entry.score


def _place(impact_fn, loss_fn, commit_fn, schedule, arrival, duration, window, score):
    """Insert one task and commit it; None when the window is violated."""
    try:
        impact = impact_fn(schedule, "t", duration, arrival, window, node="n1")
    except WindowViolation:
        return None
    assert all(entry is schedule[i - 1] for i, entry, _ in impact.shifts)
    loss_fn(impact, _late_drop)
    placed = (
        impact.start,
        impact.end,
        list(impact.affected),
        [(i, new_start) for i, _, new_start in impact.shifts],
        [(i, new_start, new_score) for i, _, new_start, new_score in impact.rescored],
        impact.nv,
        impact.loss,
    )
    winner = CandidateReport("n1", 1, {}, score, True, None, impact, impact.loss)
    commit_fn(AllocationDecision("t", arrival, 0, "n1", MAX_SCORE, [winner]), {"n1": schedule})
    return placed


def _both(ours, ref, arrival, duration, window, score=0.5):
    got = _place(schedule_impact, reallocation_loss, commit_decision, ours, arrival, duration, window, score)
    want = _place(
        schedule_impact_full, reallocation_loss_full, commit_decision_full, ref, arrival, duration, window, score
    )
    assert got == want
    assert _fields(ours) == _fields(ref)
    return got


@pytest.mark.parametrize(
    "specs, arrival, window",
    [
        ((), 1.0, (0.0, math.inf)),  # empty schedule
        ((("a", 0.0, 2.0, 1.0), ("b", 3.0, 4.0, 1.0)), 2.0, (0.0, math.inf)),  # arrival at an end
        ((("a", 0.0, 4.0, 1.0), ("b", 4.0, 5.0, 1.0)), 1.0, (0.0, math.inf)),  # inside a running entry
        ((("a", 0.0, 1.0, 1.0), ("b", 2.0, 2.5, 1.0), ("c", 5.0, 6.0, 1.0)), 0.5, (3.0, math.inf)),  # idle
        ((("a", 0.0, 1.0, 1.0), ("b", 1.0, 2.0, 1.0), ("c", 2.0, 3.0, 1.0)), 1.0, (0.0, math.inf)),  # back to back
        ((("a", 0.0, 1.0, 1.0), ("b", 1.0, 2.0, 1.0), ("c", 3.0, 4.0, 1.0)), 2.0, (0.0, 3.0)),  # violation
    ],
)
def test_live_scan_matches_full_scan_on_edge_cases(specs, arrival, window):
    _both(entries(*specs), entries(*specs), arrival, 1.5, window)


def test_live_scan_indexes_the_full_schedule():
    specs = (("a", 0.0, 1.0, 1.0), ("b", 1.0, 2.0, 1.0), ("c", 3.0, 4.0, 1.0))
    placed = _both(entries(*specs), entries(*specs), 2.0, 1.5, (0.0, math.inf))
    assert placed[2] == [(3, 3.0, 3.5)]


def test_live_scan_matches_full_scan_on_random_schedules():
    rng = random.Random(20240611)
    seen = {"shifted": 0, "idle": 0, "violated": 0, "at_end": 0}
    for _ in range(250):
        ours, ref = [], []
        t = 0.0
        for _ in range(rng.randint(1, 12)):
            t += rng.choice((0.0, 0.5, 1.0, 1.5, 3.0))
            lo = t + rng.choice((1.0, 2.5)) if rng.random() < 0.3 else 0.0
            hi = rng.choice((math.inf, math.inf, t + 4.0, t + 8.0))
            seen["at_end"] += any(e.t_e == t for e in ref)
            placed = _both(ours, ref, t, rng.choice((0.5, 1.0, 2.0, 2.5)), (lo, hi), rng.choice((0.25, 1.0)))
            if placed is None:
                seen["violated"] += 1
            else:
                seen["shifted"] += bool(placed[2])
        seen["idle"] += any(e.forced_idle for e in ref)
    assert min(seen.values()) > 0, seen


class _PastTheGap:
    """An entry the cascade must never reach: reading its start fails."""

    def __init__(self, t_e):
        self.t_e = t_e

    @property
    def t_s(self):
        raise AssertionError("the cascade read an entry after the gap that absorbed it")


def test_gap_absorbs_the_cascade():
    specs = (
        ("a", 0.0, 1.0, 1.0),
        ("b", 1.0, 2.0, 1.0),
        ("c", 2.0, 3.0, 1.0),
        ("d", 5.0, 6.0, 1.0),
        ("e", 6.0, 7.0, 1.0),
    )
    placed = _both(entries(*specs), entries(*specs), 1.0, 1.5, (0.0, math.inf))
    # b and c move by 1.5, d keeps its slot because the gap before it absorbs c's move
    assert placed[2] == [(2, 1.0, 2.5), (3, 2.0, 3.5)]

    schedule = entries(*specs[:4]) + [_PastTheGap(t_e) for t_e in (7.0, 8.0, 9.0)]
    report = schedule_impact(schedule, "t", 1.5, arrival=1.0)
    assert report.first == 1 and report.moved == schedule[1:3]
    assert report.new_starts == [2.5, 3.5]
    reallocation_loss(report, keep_score)
    assert report.rescored == [(2, schedule[1], 2.5, 1.0), (3, schedule[2], 3.5, 1.0)]


def test_report_without_displacement_is_empty():
    quiet = [
        schedule_impact([], "t", 3.0, arrival=2.0),
        schedule_impact(entries(("a", 0.0, 5.0, 1.0), ("b", 10.0, 20.0, 1.0)), "t", 3.0, arrival=5.0),
    ]
    for report in quiet:
        assert reallocation_loss(report, lambda entry, new_start: 0.0) == 0.0
        assert report.affected == report.shifts == report.rescored == []
        assert not report.nv and report.loss == 0.0
    # the empty runs are the shared defaults, not one list per report
    assert quiet[0].moved is quiet[1].moved and quiet[0].new_starts is quiet[1].new_starts
    assert quiet[0].new_scores is quiet[1].new_scores and quiet[0].nv is quiet[1].nv


# ------------------------------------------------------------ run loop


def test_run_arrivals_requires_time_order():
    with pytest.raises(ValueError):
        run_arrivals(
            [(1.0, "a"), (0.0, "b")],
            [("n1", 1)],
            lambda task: [("n1", 1)],
            fixed_scores({"n1": 1.0}),
            fixed_durations({"n1": 1.0}),
            lambda task: (0.0, math.inf),
            keep_score,
        )


def test_run_arrivals_end_to_end():
    scores = {"n1": 0.9, "n2": 0.1}
    decisions, schedules = run_arrivals(
        [(0.0, "a"), (0.5, "b"), (1.0, "c")],
        [("n1", 1), ("n2", 2)],
        lambda task: [("n1", 1), ("n2", 2)],
        fixed_scores(scores),
        fixed_durations({"n1": 2.0, "n2": 2.0}),
        lambda task: (0.0, math.inf),
        keep_score,
    )
    assert [d.chosen for d in decisions] == ["n1", "n1", "n1"]
    layout = [(e.task, e.t_s, e.t_e) for e in schedules["n1"]]
    # a runs at its arrival; b queues behind the running a; c arrives at 1,
    # b has not started yet, but c still queues because b was placed first
    # and c's slot search starts after the running entry
    assert layout == [("a", 0.0, 2.0), ("c", 2.0, 4.0), ("b", 4.0, 6.0)]
    assert schedules["n2"] == []
