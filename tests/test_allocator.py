import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperalloc import allocator
from hyperalloc.allocator import (
    IDLE_TASK,
    MAX_SCORE,
    MIN_LOSS,
    NO_CAPABLE_NODE,
    NON_PERTURBING,
    AllocationDecision,
    CandidateReport,
    NodeSchedule,
    ScheduleEntry,
    WindowViolation,
    allocate,
    commit_decision,
    reallocation_loss,
    schedule_impact,
)
from hyperalloc.subspaces import Subspace, check_score, combine_values

from _oracles import (
    allocate_full,
    commit_decision_full,
    deadline_rescorer,
    nv,
    reallocation_loss_full,
    schedule_impact_full,
)


def node_schedule(*specs):
    """A NodeSchedule of ``(task, t_s, t_e, score[, deadline])`` entries, in order."""
    schedule = NodeSchedule()
    for task, t_s, t_e, score, *deadline in specs:
        schedule.insert(len(schedule), task, t_s, t_e, score, *deadline)
    return schedule


def layout(schedule):
    return [(e.task, e.t_s, e.t_e, e.score) for e in schedule.entries()]


# ----------------------------------------------------------- insertion


def test_insert_into_empty_schedule():
    report = schedule_impact(NodeSchedule(), "t", 3.0, arrival=2.0)
    assert (report.start, report.end) == (2.0, 5.0)
    assert report.affected == [] and report.first == 0


def test_window_start_delays_insertion():
    report = schedule_impact(NodeSchedule(), "t", 3.0, arrival=1.0, window=(5.0, math.inf))
    assert (report.start, report.end) == (5.0, 8.0)


def test_running_entry_blocks_until_it_finishes():
    schedule = node_schedule(("a", 0.0, 4.0, 1.0))
    report = schedule_impact(schedule, "t", 2.0, arrival=2.0)
    assert (report.start, report.end) == (4.0, 6.0)
    assert report.affected == [] and report.first == 1


def test_not_yet_started_entry_is_displaced():
    schedule = node_schedule(("a", 0.0, 5.0, 1.0))
    report = schedule_impact(schedule, "t", 3.0, arrival=0.0)
    assert (report.start, report.end) == (0.0, 3.0)
    assert report.affected == [(1, 0.0, 3.0)]


def test_insertion_into_gap_leaves_neighbours_alone():
    schedule = node_schedule(("a", 0.0, 5.0, 1.0), ("b", 10.0, 20.0, 1.0))
    report = schedule_impact(schedule, "t", 3.0, arrival=5.0)
    assert (report.start, report.end) == (5.0, 8.0)
    assert report.affected == [] and report.first == 1


def test_displacement_cascades():
    schedule = node_schedule(("a", 0.0, 5.0, 1.0), ("b", 5.0, 9.0, 1.0))
    report = schedule_impact(schedule, "t", 3.0, arrival=0.0)
    assert report.affected == [(1, 0.0, 3.0), (2, 5.0, 8.0)]


def test_running_and_queued_mix():
    schedule = node_schedule(("a", 0.0, 4.0, 1.0), ("b", 4.0, 6.0, 1.0))
    report = schedule_impact(schedule, "t", 5.0, arrival=2.0)
    # a is already running, so the task starts when a ends and b shifts
    assert (report.start, report.end) == (4.0, 9.0)
    assert report.affected == [(2, 4.0, 9.0)]


def test_second_identical_task_queues_behind_first():
    schedule = node_schedule(("a", 0.0, 7.0, 1.0))
    report = schedule_impact(schedule, "a", 7.0, arrival=1.0)
    assert (report.start, report.end) == (7.0, 14.0)
    assert report.affected == []


def test_window_violation_raises():
    with pytest.raises(WindowViolation):
        schedule_impact(NodeSchedule(), "t", 10.0, arrival=0.0, window=(0.0, 5.0))
    schedule = node_schedule(("a", 0.0, 5.0, 1.0))
    with pytest.raises(WindowViolation):
        # start is pushed to 5 by the running entry, deadline 8 < 5 + 4
        schedule_impact(schedule, "t", 4.0, arrival=2.0, window=(0.0, 8.0))


def test_cascade_past_the_largest_finite_time_is_a_window_violation():
    specs = (("a", 1.0, 1e308, 1.0), ("b", 1e308, 1.7e308, 1.0))
    schedule = node_schedule(*specs)
    reference = [ScheduleEntry(task, t_s, t_e, score=score) for task, t_s, t_e, score in specs]
    # the new slot ends at 1e307, but b, pushed to 1.1e308, would end beyond it
    with pytest.raises(WindowViolation):
        schedule_impact(schedule, "t", 1e307, arrival=0.0)
    with pytest.raises(WindowViolation):
        schedule_impact_full(reference, "t", 1e307, arrival=0.0)
    report = schedule_impact(schedule, "t", 1e306, arrival=0.0)
    assert report.new_starts.tolist() == [1e306, 1e306 + (1e308 - 1.0)]
    with pytest.raises(WindowViolation):
        schedule_impact(NodeSchedule(), "t", 1e308, arrival=1e308)  # the new slot itself ends at inf


def test_duration_must_be_positive():
    with pytest.raises(ValueError):
        schedule_impact(NodeSchedule(), "t", 0.0, arrival=0.0)
    with pytest.raises(ValueError):
        schedule_impact(NodeSchedule(), "t", -1.0, arrival=0.0)


def test_slot_after_every_entry_is_taken_at_the_end():
    schedule = node_schedule(("a", 0.0, 2.0, 1.0), ("b", 2.0, 4.0, 1.0))
    for arrival in (4.0, 9.0, 3.0):  # at the last end, past it, and while b runs
        report = schedule_impact(schedule, "t", 1.0, arrival=arrival)
        assert report.first == 2 and report.affected == [] and report.schedule is None


# ------------------------------------------------------ loss accounting


def test_reallocation_loss_counts_strict_drops_only():
    schedule = node_schedule(
        ("a", 0.0, 2.0, 1.0, 3.9),  # pushed to end at 4: late
        ("b", 2.0, 4.0, 0.5, 5.0),  # ends at 6: late
        ("c", 4.0, 6.0, 0.8, 8.0),  # ends exactly at its deadline: keeps its score
        ("d", 6.0, 7.0, 0.0, 7.5),  # late, but has no score to lose
        ("e", 7.0, 8.0, 0.25),  # no deadline
    )
    report = schedule_impact(schedule, "t", 2.0, arrival=0.0)
    assert [i for i, _, _ in report.affected] == [1, 2, 3, 4, 5]
    loss = reallocation_loss(report)
    assert nv(report) == {1, 2} and report.dropped.tolist() == [0, 1]
    assert loss == 1.0 + 0.5 and type(loss) is float
    assert report.first == 0 and report.new_starts.tolist() == [2.0, 4.0, 6.0, 8.0, 9.0]


def test_schedule_without_deadlines_loses_nothing():
    schedule = node_schedule(("a", 0.0, 2.0, 1.0), ("b", 2.0, 4.0, 0.5))
    report = schedule_impact(schedule, "t", 1e300, arrival=0.0)
    assert not schedule.timed and len(report.affected) == 2
    assert reallocation_loss(report) == 0.0 and nv(report) == set()


# --------------------------------------------------------- decision rule


def fixed_scores(candidates, values):
    return [
        (label, idx, {Subspace.COMM: values[label]}, combine_values([check_score(Subspace.COMM, values[label])]))
        for label, idx in candidates
    ]


def fixed_durations(values):
    return lambda task, label: values[label]


def decide(schedules, values, durations, window=(0.0, math.inf), arrival=0.0, candidates=None, task="t", index=0):
    return allocate(
        task,
        arrival,
        index,
        fixed_scores(candidates or [(label, i + 1) for i, label in enumerate(schedules)], values),
        fixed_durations(durations),
        window,
        schedules,
    )


def test_allocate_picks_unique_max_score():
    decision = decide({"n1": NodeSchedule(), "n2": NodeSchedule()}, {"n1": 0.4, "n2": 0.9}, {"n1": 1.0, "n2": 1.0})
    assert decision.chosen == "n2"
    assert decision.rationale == MAX_SCORE
    assert [c.node for c in decision.candidates] == ["n1", "n2"]


def test_allocate_excludes_zero_and_violations():
    schedules = {"n1": NodeSchedule(), "n2": node_schedule(("x", 0.0, 100.0, 1.0))}
    decision = decide(schedules, {"n1": 0.0, "n2": 0.5}, {"n1": 5.0, "n2": 5.0}, window=(0.0, 60.0), arrival=50.0)
    # n1 scores zero; n2's running entry pushes the start past the deadline
    assert decision.chosen is None
    assert decision.rationale == NO_CAPABLE_NODE
    by_node = {c.node: c for c in decision.candidates}
    assert by_node["n1"].exclusion == "zero-score"
    assert by_node["n2"].exclusion == "window-violation"


def test_allocate_tie_prefers_non_perturbing():
    # n1's entry has no slack: any shift is a total loss
    schedules = {"n1": node_schedule(("x", 0.0, 5.0, 1.0, 5.0)), "n2": NodeSchedule()}
    decision = decide(schedules, {"n1": 0.7, "n2": 0.7}, {"n1": 2.0, "n2": 2.0})
    assert decision.chosen == "n2"
    assert decision.rationale == NON_PERTURBING


def test_allocate_tie_on_harmless_shift_counts_as_non_perturbing():
    # both nodes shift an entry, but n1's entry has no deadline and keeps its score
    schedules = {"n1": node_schedule(("x", 0.0, 5.0, 1.0)), "n2": node_schedule(("y", 0.0, 5.0, 1.0, 5.0))}
    decision = decide(schedules, {"n1": 0.7, "n2": 0.7}, {"n1": 2.0, "n2": 2.0})
    assert decision.chosen == "n1"
    assert decision.rationale == NON_PERTURBING


def test_allocate_tie_minimises_loss():
    schedules = {"n1": node_schedule(("x", 0.0, 5.0, 1.0, 5.0)), "n2": node_schedule(("y", 0.0, 5.0, 0.4, 5.0))}
    decision = decide(schedules, {"n1": 0.7, "n2": 0.7}, {"n1": 2.0, "n2": 2.0})
    # both perturb; n2 forfeits only 0.4
    assert decision.chosen == "n2"
    assert decision.rationale == MIN_LOSS
    by_node = {c.node: c for c in decision.candidates}
    assert by_node["n1"].loss == 1.0
    assert by_node["n2"].loss == 0.4


def test_allocate_tie_takes_the_lowest_index_among_candidates_that_lose_nothing():
    schedules = {
        "n1": node_schedule(("w", 0.0, 5.0, 1.0, 5.0)),  # loses 1
        "n2": node_schedule(("x", 0.0, 5.0, 1.0)),  # shifts x, which has no deadline
        "n3": NodeSchedule(),  # shifts nothing
        "n4": node_schedule(("y", 0.0, 5.0, 0.4, 5.0)),  # loses 0.4
        "n5": NodeSchedule(),  # scores below the tie
    }
    values = {"n1": 0.7, "n2": 0.7, "n3": 0.7, "n4": 0.7, "n5": 0.5}
    order = [("n4", 4), ("n3", 3), ("n5", 5), ("n1", 1), ("n2", 2)]
    decision = decide(schedules, values, dict.fromkeys(values, 2.0), candidates=order)
    assert (decision.chosen, decision.rationale) == ("n2", NON_PERTURBING)
    assert decision.impact.start == 0.0 and len(decision.impact.affected) == 1
    assert [c.loss for c in decision.candidates] == [0.4, 0.0, 0.0, 1.0, 0.0]


def test_allocate_tie_where_every_top_candidate_loses_takes_the_least_loss():
    schedules = {
        "n1": node_schedule(("w", 0.0, 5.0, 1.0, 5.0)),  # loses 1
        "n2": node_schedule(("x", 0.0, 5.0, 0.4, 5.0)),  # loses 0.4
        "n3": node_schedule(("y", 0.0, 5.0, 0.4, 5.0)),  # loses 0.4 too, at a higher index
        "n4": NodeSchedule(),  # would lose nothing, but scores below the tie
    }
    values = {"n1": 0.7, "n2": 0.7, "n3": 0.7, "n4": 0.5}
    order = [("n3", 3), ("n2", 2), ("n4", 4), ("n1", 1)]
    decision = decide(schedules, values, dict.fromkeys(values, 2.0), candidates=order)
    assert (decision.chosen, decision.rationale) == ("n2", MIN_LOSS)
    assert decision.candidates[1].loss == 0.4 and decision.candidates[1].start == 0.0


def test_allocate_full_tie_takes_lowest_index():
    decision = decide(
        {"n1": NodeSchedule(), "n2": NodeSchedule()},
        {"n1": 0.7, "n2": 0.7},
        {"n1": 2.0, "n2": 2.0},
        candidates=[("n2", 2), ("n1", 1)],  # deliberately out of order
    )
    assert decision.chosen == "n1"
    assert decision.rationale == NON_PERTURBING


# ------------------------------------------------------------- committing


def run_one(schedules, arrival=0.0, window=(0.0, math.inf), duration=2.0, score=0.5, task="t", index=0):
    decision = decide(schedules, {"n1": score}, {"n1": duration}, window, arrival, task=task, index=index)
    commit_decision(decision, schedules)
    return decision


def test_commit_inserts_scored_entry():
    schedules = {"n1": NodeSchedule()}
    run_one(schedules, arrival=1.0)
    (entry,) = schedules["n1"].entries()
    assert (entry.task, entry.t_s, entry.t_e, entry.score) == ("t", 1.0, 3.0, 0.5)
    assert not entry.forced_idle
    assert schedules["n1"].last_end == 3.0 and not schedules["n1"].timed


def test_commit_materialises_forced_idle_wait():
    schedules = {"n1": NodeSchedule()}
    run_one(schedules, arrival=1.0, window=(5.0, math.inf))
    idle, task = schedules["n1"].entries()
    assert idle.task == IDLE_TASK and idle.forced_idle
    assert (idle.t_s, idle.t_e) == (1.0, 5.0)
    assert idle.score == 0.0
    assert (task.t_s, task.t_e) == (5.0, 7.0)


def test_forced_idle_is_displaceable():
    schedules = {"n1": NodeSchedule()}
    run_one(schedules, arrival=1.0, window=(5.0, math.inf))
    # a second task arriving at 0.5 claims the head of the line; the idle
    # placeholder and the first task both shift right
    decision = decide(schedules, {"n1": 0.5}, {"n1": 2.0}, arrival=0.5, task="u", index=1)
    winner = decision.candidates[0]
    assert (winner.start, winner.end) == (decision.impact.start, decision.impact.end) == (0.5, 2.5)
    assert decision.impact.affected == [(1, 1.0, 2.5), (2, 5.0, 6.5)]


def test_commit_shifts_existing_entries():
    schedules = {"n1": node_schedule(("a", 0.0, 5.0, 1.0))}
    run_one(schedules, arrival=0.0, duration=3.0)
    assert layout(schedules["n1"]) == [("t", 0.0, 3.0, 0.5), ("a", 3.0, 8.0, 1.0)]
    assert schedules["n1"].last_end == 8.0


def test_commit_zeroes_the_scores_that_drop_and_keeps_deadlines():
    schedules = {"n1": NodeSchedule()}
    run_one(schedules, window=(0.0, 4.0), task="a")
    assert schedules["n1"].timed and schedules["n1"].deadline[0] == 4.0
    run_one(schedules, duration=1.0, score=0.25, task="b", index=1)  # a moves to [1, 3), inside its window
    assert layout(schedules["n1"]) == [("b", 0.0, 1.0, 0.25), ("a", 1.0, 3.0, 0.5)]
    decision = decide(schedules, {"n1": 0.5}, {"n1": 1.5}, task="c", index=2)  # a moves to [2.5, 4.5), past 4
    assert decision.candidates[0].loss == 0.5 and nv(decision.impact) == {2}
    commit_decision(decision, schedules)
    assert decision.impact is None
    assert layout(schedules["n1"]) == [("c", 0.0, 1.5, 0.5), ("b", 1.5, 2.5, 0.25), ("a", 2.5, 4.5, 0.0)]


def test_the_winners_report_carries_its_deadline_and_score_to_commit():
    schedules = {"n1": NodeSchedule(), "n2": NodeSchedule()}
    decision = decide(schedules, {"n1": 0.4, "n2": 0.9}, {"n1": 1.0, "n2": 1.0}, window=(0.0, 6.0))
    assert (decision.impact.deadline, decision.impact.score) == (6.0, 0.9)
    assert not hasattr(decision, "deadline")  # the decision keeps only what the report shows
    commit_decision(decision, schedules)
    assert layout(schedules["n2"]) == [("t", 0.0, 1.0, 0.9)] and schedules["n2"].deadline[0] == 6.0
    assert len(schedules["n1"]) == 0


def test_rejected_decision_changes_nothing():
    schedules = {"n1": NodeSchedule()}
    decision = run_one(schedules, score=0.0)
    assert decision.chosen is None and len(schedules["n1"]) == 0


def test_schedule_grows_past_its_first_block():
    schedules = {"n1": NodeSchedule()}
    for i in range(40):  # each arrives before the queue starts, so it shifts the whole queue
        run_one(schedules, arrival=0.0, window=(1.0, math.inf), duration=1.0, task=f"t{i}", index=i)
    entries = schedules["n1"].entries()
    assert [e.task for e in entries] == ["idle"] + [f"t{i}" for i in reversed(range(40))]
    assert [(e.t_s, e.t_e) for e in entries[1:]] == [(1.0 + i, 2.0 + i) for i in range(40)]


# ------------------------------------------ array schedule vs full scan


def _fields(entries):
    """Every entry's fields, floats by their bits."""
    return [(e.task, e.t_s.hex(), e.t_e.hex(), e.forced_idle, e.score.hex()) for e in entries]


def _place(ours, ref, deadlines, task, arrival, duration, window, score):
    """Place one task on both schedules and check that every outcome agrees
    bit for bit; returns None when the window is violated."""
    outcomes = []
    rescore = deadline_rescorer(deadlines)
    for impact_fn, loss, commit, schedule in (
        (schedule_impact, reallocation_loss, commit_decision, ours),
        (schedule_impact_full, lambda report: reallocation_loss_full(report, rescore), commit_decision_full, ref),
    ):
        try:
            impact = impact_fn(schedule, task, duration, arrival, window, node="n1")
        except WindowViolation:
            outcomes.append(None)
            continue
        lost = loss(impact)
        dropped = nv(impact) if schedule is ours else impact.nv
        outcomes.append((impact.start.hex(), impact.end.hex(), list(impact.affected), dropped, lost.hex()))
        if schedule is ours:
            assert type(impact.start) is type(impact.end) is type(lost) is float
        winner = CandidateReport("n1", 1, {}, score, True, None, lost, impact.start, impact.end)
        if schedule is ours:  # allocate hands the winner's deadline and score to commit on its report
            impact.deadline, impact.score = window[1], score
        decision = AllocationDecision(task, arrival, 0, "n1", MAX_SCORE, [winner], impact)
        commit(decision, {"n1": schedule})
    deadlines[task] = window[1]
    assert outcomes[0] == outcomes[1]
    assert _fields(ours.entries()) == _fields(ref)
    assert len(ours) == len(ref) and ours.last_end == (ref[-1].t_e if ref else -math.inf)
    return outcomes[0]


def _both(specs, arrival, duration, window, score=0.5):
    ours, ref = node_schedule(*specs), [ScheduleEntry(task, t_s, t_e, score=s) for task, t_s, t_e, s in specs]
    return _place(ours, ref, {}, "t", arrival, duration, window, score)


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
    _both(specs, arrival, 1.5, window)


def test_live_scan_indexes_the_full_schedule():
    specs = (("a", 0.0, 1.0, 1.0), ("b", 1.0, 2.0, 1.0), ("c", 3.0, 4.0, 1.0))
    placed = _both(specs, 2.0, 1.5, (0.0, math.inf))
    assert placed[2] == [(3, 3.0, 3.5)]


def test_live_scan_matches_full_scan_on_random_schedules():
    rng = random.Random(20240611)
    seen = {"shifted": 0, "idle": 0, "violated": 0, "at_end": 0, "dropped": 0}
    for _ in range(250):
        ours, ref, deadlines = NodeSchedule(), [], {}
        t = 0.0
        for i in range(rng.randint(1, 12)):
            t += rng.choice((0.0, 0.5, 1.0, 1.5, 3.0))
            lo = t + rng.choice((1.0, 2.5)) if rng.random() < 0.3 else 0.0
            hi = rng.choice((math.inf, math.inf, t + 4.0, t + 8.0))
            seen["at_end"] += any(e.t_e == t for e in ref)
            duration = rng.choice((0.5, 1.0, 2.0, 2.5))
            placed = _place(ours, ref, deadlines, f"t{i}", t, duration, (lo, hi), rng.choice((0.25, 1.0)))
            if placed is None:
                seen["violated"] += 1
            else:
                seen["shifted"] += bool(placed[2])
                seen["dropped"] += bool(placed[3])
        seen["idle"] += any(e.forced_idle for e in ref)
    assert min(seen.values()) > 0, seen


def test_gap_absorbs_the_cascade():
    specs = (
        ("a", 0.0, 1.0, 1.0),
        ("b", 1.0, 2.0, 1.0),
        ("c", 2.0, 3.0, 1.0),
        ("d", 5.0, 6.0, 1.0),
        ("e", 6.0, 7.0, 1.0),
    )
    placed = _both(specs, 1.0, 1.5, (0.0, math.inf))
    # b and c move by 1.5, d keeps its slot because the gap before it absorbs c's move
    assert placed[2] == [(2, 1.0, 2.5), (3, 2.0, 3.5)]


def test_report_without_displacement_is_empty():
    quiet = [
        schedule_impact(NodeSchedule(), "t", 3.0, arrival=2.0),
        schedule_impact(node_schedule(("a", 0.0, 5.0, 1.0), ("b", 10.0, 20.0, 1.0)), "t", 3.0, arrival=5.0),
    ]
    for report in quiet:
        assert reallocation_loss(report) == 0.0
        assert report.affected == [] and not (len(report.new_starts) or len(report.dropped))
        assert nv(report) == set()
    # the empty runs are the shared defaults, not one array per report
    assert quiet[0].new_starts is quiet[1].new_starts and quiet[0].dropped is quiet[1].dropped


# Gaps and durations in units of the scale.  A duration of 1e-300 units
# rounds away next to the start it is added to, which gives entries of
# zero length and equal starts; at the 1e307 scale sums approach overflow.
_GAPS = st.sampled_from((0.0, 0.0, 0.5, 2.0))
_DURATIONS = st.sampled_from((0.5, 1.0, 2.5, 1e-300))


@st.composite
def _schedules(draw):
    scale = draw(st.sampled_from((1.0, 1e307)))
    specs, t = [], 0.0
    for i in range(draw(st.integers(0, 8))):
        t_s = t + draw(_GAPS) * scale
        t_e = t_s + draw(_DURATIONS) * scale
        if t_e == math.inf:
            break
        if draw(st.integers(0, 3)) == 0:
            specs.append((IDLE_TASK, t_s, t_e, 0.0, math.inf, True))
        else:
            slack = draw(st.sampled_from((math.inf, -1.0, 0.0, 1.0, 3.0)))
            specs.append((f"e{i}", t_s, t_e, draw(st.sampled_from((0.0, 0.25, 1.0))), t_e + slack * scale, False))
        t = t_e
    points = [0.0] + [x for spec in specs for x in spec[1:3]]
    arrivals = []
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.sampled_from(points)) + draw(st.sampled_from((0.0, 0.0, 0.25, 1.0))) * scale
        lo = draw(st.sampled_from((0.0, at, at + scale)))
        hi = draw(st.sampled_from((math.inf, math.inf, at + 2.0 * scale, at + 6.0 * scale)))
        duration = draw(st.sampled_from((0.5, 1.5, 1e-300, 1e308 / scale))) * scale
        arrivals.append((at, duration, (lo, hi), draw(st.sampled_from((0.25, 1.0)))))
    arrivals.sort(key=lambda a: a[0])
    return specs, arrivals


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(_schedules())
def test_array_schedule_matches_the_full_scan_oracles_bit_for_bit(case):
    specs, arrivals = case
    ours, ref, deadlines = NodeSchedule(), [], {}
    for task, t_s, t_e, score, deadline, idle in specs:
        ours.insert(len(ours), task, t_s, t_e, score, deadline, idle)
        ref.append(ScheduleEntry(task, t_s, t_e, idle, score))
        deadlines[task] = deadline
    for j, (arrival, duration, window, score) in enumerate(arrivals):
        _place(ours, ref, deadlines, f"t{j}", arrival, duration, window, score)


# ------------------------------------- decision loop vs every-candidate reports


def _decision_bits(decision):
    """A decision's choice, every candidate field and the winner's report,
    floats by their bits."""

    def bits(value):
        return value.hex() if type(value) is float else value

    candidates = [
        (c.node, c.node_idx, id(c.scores), bits(c.combined), c.admissible, c.exclusion, bits(c.loss),
         bits(c.start), bits(c.end))
        for c in decision.candidates
    ]
    impact = decision.impact
    if impact is not None:
        impact = (
            impact.start.hex(), impact.end.hex(), impact.first, [float(x).hex() for x in impact.new_starts],
            [int(i) for i in impact.dropped], bits(impact.deadline), bits(impact.score), impact.schedule,
        )
    return decision.chosen, decision.rationale, candidates, impact


def _random_schedule(rng, arrival):
    """Entries before ``arrival`` and, on about half the nodes, also after it."""
    schedule = NodeSchedule()
    t = rng.choice((0.0, 0.5, 2.0))
    stop = arrival + rng.choice((-1.0, 0.0, 0.0, 3.0, 6.0))
    while t < stop:
        length = rng.choice((0.5, 1.0, 2.5))
        deadline = rng.choice((math.inf, t + length, t + length + 1.0, t + length + 4.0))
        schedule.insert(len(schedule), f"e{len(schedule)}", t, t + length, rng.choice((0.0, 0.25, 1.0)), deadline)
        t += length + rng.choice((0.0, 0.0, 0.5, 2.0))
    return schedule


def test_allocate_matches_the_every_candidate_reference_on_mixed_schedules():
    rng = random.Random(20261022)
    seen = dict.fromkeys(
        ("idle winner", "busy winner", "late window", "idle deadline miss", "idle inf end", "inf tie", "tie",
         "zero score", "no capable node", "min-loss"),
        0,
    )
    for case in range(400):
        arrival = rng.choice((0.0, 3.0, 7.5))
        labels = [f"n{i}" for i in range(1, rng.randint(2, 7))]
        schedules = {label: _random_schedule(rng, arrival) for label in labels}
        for step in range(3):
            lo = rng.choice((0.0, 0.0, arrival + 1.5, 1e308))
            hi = rng.choice((math.inf, math.inf, arrival + 2.0, arrival + 5.0))
            durations = {label: rng.choice((0.5, 1.5, 3.0, 1e308)) for label in labels}
            values = {label: rng.choice((0.0, 0.25, 0.5, 0.5, 1.0, math.inf)) for label in labels}
            order = [(label, i + 1) for i, label in enumerate(labels)]
            rng.shuffle(order)
            rows = fixed_scores(order, values)
            args = (f"t{step}", arrival, step, rows, fixed_durations(durations), (lo, hi), schedules)
            ours, ref = allocate(*args), allocate_full(*args)
            assert _decision_bits(ours) == _decision_bits(ref), (case, step)

            idle = {label for label in labels if arrival >= schedules[label].last_end}
            winner = next((c for c in ours.candidates if c.node == ours.chosen), None)
            top = [c for c in ours.candidates if c.admissible and c.combined == winner.combined] if winner else []
            seen["idle winner"] += ours.chosen in idle
            seen["busy winner"] += ours.chosen is not None and ours.chosen not in idle
            seen["late window"] += ours.chosen in idle and lo > arrival and lo < 1e308
            seen["idle deadline miss"] += any(
                c.exclusion == "window-violation" and c.node in idle and hi < math.inf for c in ours.candidates
            )
            seen["idle inf end"] += any(
                c.exclusion == "window-violation" and c.node in idle and hi == math.inf for c in ours.candidates
            )
            seen["inf tie"] += len(top) > 1 and top[0].combined == math.inf
            seen["tie"] += len(top) > 1
            seen["zero score"] += any(c.exclusion == "zero-score" for c in ours.candidates)
            seen["no capable node"] += ours.rationale == NO_CAPABLE_NODE
            seen["min-loss"] += ours.rationale == MIN_LOSS
            commit_decision(ours, schedules)
            arrival += rng.choice((0.0, 0.5, 2.0))
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("duration", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("busy", [False, True])
def test_allocate_rejects_a_non_positive_duration_on_idle_and_busy_nodes(duration, busy):
    schedules = {"n1": node_schedule(("a", 0.0, 4.0, 1.0)), "n2": NodeSchedule()}
    rows = fixed_scores([("n1", 1), ("n2", 2)], {"n1": 0.5 if busy else 0.0, "n2": 0.0 if busy else 0.5})
    for decide_with in (allocate, allocate_full):
        with pytest.raises(ValueError, match="duration must be positive"):
            decide_with("t", 1.0, 0, rows, fixed_durations({"n1": duration, "n2": duration}), (0.0, math.inf),
                        schedules)


def test_an_idle_winners_report_is_built_by_schedule_impact(monkeypatch):
    """Only the winner's report is built, and an idle winner's comes from
    the same two functions a busy candidate's does."""
    calls = []
    for name in ("schedule_impact", "reallocation_loss"):
        original = getattr(allocator, name)
        monkeypatch.setattr(allocator, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    schedules = {f"n{i}": NodeSchedule() for i in range(1, 6)}
    decision = decide(schedules, dict.fromkeys(schedules, 0.5), dict.fromkeys(schedules, 2.0), arrival=1.0)
    assert (decision.chosen, decision.rationale) == ("n1", NON_PERTURBING)
    assert calls == ["schedule_impact", "reallocation_loss"]
    assert (decision.impact.start, decision.impact.end, decision.impact.first) == (1.0, 3.0, 0)


# ------------------------------------------------------------ arrival loop


def test_allocate_and_commit_arrivals_in_turn():
    nodes = [("n1", 1), ("n2", 2)]
    schedules = {"n1": NodeSchedule(), "n2": NodeSchedule()}
    decisions = []
    for i, (t, task) in enumerate([(0.0, "a"), (0.5, "b"), (1.0, "c")]):
        decision = decide(schedules, {"n1": 0.9, "n2": 0.1}, {"n1": 2.0, "n2": 2.0}, arrival=t, candidates=nodes,
                          task=task, index=i)
        commit_decision(decision, schedules)
        decisions.append(decision)
    assert [d.chosen for d in decisions] == ["n1", "n1", "n1"]
    # a runs at its arrival; b queues behind the running a; c arrives at 1,
    # b has not started yet, but c still queues because b was placed first
    # and c's slot search starts after the running entry
    assert [e[:3] for e in layout(schedules["n1"])] == [("a", 0.0, 2.0), ("c", 2.0, 4.0), ("b", 4.0, 6.0)]
    assert len(schedules["n2"]) == 0
