"""Schedule perturbation accounting and the allocation decision rule.

Each node owns a time-ordered, non-overlapping schedule.  Inserting a new
task claims the earliest instant allowed by its arrival and time window;
entries that have not started by the arrival instant may be displaced,
and displacement cascades strictly rightward (no entry ever moves
earlier, nothing is preempted).  Waiting forced by a time window is
materialised as an explicit idle entry so the gap stays visible in the
final schedule.

A decision ranks candidate nodes by combined subspace score, preferring,
among the best, candidates that perturb nothing, and otherwise the one
whose perturbation loss is smallest; remaining ties go to the lowest node
index.  The loss of a candidate is the summed strict score drop over the
entries its insertion would shift.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass
from itertools import count, islice
from operator import attrgetter

from .errors import HyperallocError
from .subspaces import SubspaceScore, combine_scores

IDLE_TASK = "idle"
_START = attrgetter("t_s")
_END = attrgetter("t_e")

# decision rationale codes
MAX_SCORE = "max-score"
NON_PERTURBING = "non-perturbing"
MIN_LOSS = "min-loss"
NO_CAPABLE_NODE = "no-capable-node"


class WindowViolation(HyperallocError):
    """Insertion would finish the task after its deadline."""


@dataclass
class ScheduleEntry:
    task: str
    t_s: float
    t_e: float
    forced_idle: bool = False
    score: float = 0.0

    @property
    def duration(self) -> float:
        return self.t_e - self.t_s


@dataclass(slots=True)
class ImpactReport:
    """Effect of inserting one task into one node's schedule.

    The displaced entries form one contiguous run (the schedule is sorted
    by start without overlaps, so once an entry keeps its slot every later
    one does): ``moved`` from 0-based position ``first``, their
    ``new_starts`` and, after :func:`reallocation_loss`, ``new_scores``,
    ``nv`` (1-based indices of strict score drops) and ``loss``.  A report
    that displaces nothing shares the empty defaults.  ``affected`` (index,
    old start, new start), ``shifts`` (index, entry, new start) and
    ``rescored`` (index, entry, new start, new score) are read-only views
    with 1-based indices; ``affected`` reads the entries' current starts,
    so take it before the decision is committed.
    """

    node: str
    start: float
    end: float
    first: int = 0
    moved: list = ()
    new_starts: list = ()
    new_scores: list = ()
    nv: set = frozenset()
    loss: float = 0.0

    @property
    def shifts(self) -> list:
        return list(zip(count(self.first + 1), self.moved, self.new_starts))

    @property
    def affected(self) -> list:
        return [(i, entry.t_s, new_start) for i, entry, new_start in self.shifts]

    @property
    def rescored(self) -> list:
        return list(zip(count(self.first + 1), self.moved, self.new_starts, self.new_scores))


@dataclass(slots=True)
class CandidateReport:
    node: str
    node_idx: int
    scores: dict
    combined: float
    admissible: bool
    exclusion: str | None = None
    impact: ImpactReport | None = None
    loss: float = 0.0


@dataclass
class AllocationDecision:
    task: str
    arrival: float
    arrival_idx: int
    chosen: str | None
    rationale: str
    candidates: list


def schedule_impact(schedule, task, duration, arrival, window=(0.0, math.inf), node="") -> ImpactReport:
    """Tentative insertion of ``task`` into a node schedule.

    The task claims the earliest start at or after ``max(arrival,
    window start)`` once every already-started entry has finished.
    Entries starting at or after the arrival instant are displaced
    rightward as needed, in cascade; nothing moves left and running
    entries are never touched.  The schedule must be sorted by start with
    no overlaps, so its ends ascend: entries that ended by the arrival
    are skipped (report indices still count them).  It is not modified.

    Raises WindowViolation when the claimed slot would end after the
    window deadline.
    """
    if not duration > 0:
        raise ValueError(f"duration must be positive, got {duration}")
    lo, hi = window
    earliest = max(arrival, lo)
    live = bisect_right(schedule, arrival, key=_END)
    # entries do not overlap, so only the first live entry can be running
    running = live < len(schedule) and schedule[live].t_s < arrival
    start = max(earliest, schedule[live].t_e if running else 0.0)
    end = start + duration
    if end > hi:
        raise WindowViolation(f"task {task} would end at {end}, after deadline {hi}")

    report = ImpactReport(node, start, end)
    # every entry ending after the new slot starts has not started by the arrival
    first = bisect_right(schedule, start, lo=live, key=_END)
    new_starts = []
    frontier = end
    for entry in islice(schedule, first, None):
        if entry.t_s >= frontier:
            break  # the entry keeps its slot, and so does every later one
        new_starts.append(frontier)
        frontier += entry.duration
    if new_starts:
        report.first = first
        report.moved = schedule[first : first + len(new_starts)]
        report.new_starts = new_starts
    return report


def reallocation_loss(report: ImpactReport, scorer) -> float:
    """Score the shifted entries and sum the strict drops.

    ``scorer(entry, new_start)`` returns the entry's combined score at
    its shifted position.  Entries whose score strictly drops form the
    report's ``nv`` set; the loss is the summed drop over that set.
    """
    if not report.moved:
        return report.loss
    new_scores = list(map(scorer, report.moved, report.new_starts))
    nv = set()
    loss = 0.0
    for index, entry, new_score in zip(count(report.first + 1), report.moved, new_scores):
        if new_score < entry.score:
            nv.add(index)
            loss += entry.score - new_score
    if nv:
        report.nv = nv
    report.loss = loss
    report.new_scores = new_scores
    return loss


def _is_non_perturbing(candidate: CandidateReport) -> bool:
    return not candidate.impact.moved or not candidate.impact.nv


def allocate(task, arrival, arrival_idx, candidates, score_fn, duration_fn, window, schedules, rescore_fn) -> AllocationDecision:
    """Pick a node for one arriving task.

    ``candidates`` is a sequence of (label, node index) pairs;
    ``score_fn(task, label, arrival_idx)`` returns the per-subspace score
    mapping, ``duration_fn(task, label)`` the busy time the task would
    occupy on that node.  Candidates scoring zero or violating the task
    window are recorded but inadmissible.  Among admissible candidates
    the maximal combined score wins; score ties prefer non-perturbing
    placements, then strictly minimal loss, then the lowest node index.
    """
    reports = []
    for label, idx in sorted(candidates, key=lambda c: c[1]):
        scores = score_fn(task, label, arrival_idx)
        combined = combine_scores([SubspaceScore(s, v) for s, v in scores.items()])
        if combined == 0:
            reports.append(CandidateReport(label, idx, scores, combined, False, "zero-score"))
            continue
        duration = duration_fn(task, label)
        try:
            impact = schedule_impact(schedules[label], task, duration, arrival, window, node=label)
        except WindowViolation:
            reports.append(CandidateReport(label, idx, scores, combined, False, "window-violation"))
            continue
        loss = reallocation_loss(impact, rescore_fn)
        reports.append(CandidateReport(label, idx, scores, combined, True, None, impact, loss))

    admissible = [c for c in reports if c.admissible]
    if not admissible:
        return AllocationDecision(task, arrival, arrival_idx, None, NO_CAPABLE_NODE, reports)

    best = max(c.combined for c in admissible)
    top = [c for c in admissible if c.combined == best]
    if len(top) == 1:
        return AllocationDecision(task, arrival, arrival_idx, top[0].node, MAX_SCORE, reports)
    quiet = [c for c in top if _is_non_perturbing(c)]
    if quiet:
        return AllocationDecision(task, arrival, arrival_idx, quiet[0].node, NON_PERTURBING, reports)
    least = min(c.loss for c in top)
    chosen = next(c for c in top if c.loss == least)
    return AllocationDecision(task, arrival, arrival_idx, chosen.node, MIN_LOSS, reports)


def commit_decision(decision: AllocationDecision, schedules) -> None:
    """Apply a decision to the schedules: shifts, idle filler, insertion."""
    if decision.chosen is None:
        return
    winner = next(c for c in decision.candidates if c.node == decision.chosen)
    impact = winner.impact
    schedule = schedules[winner.node]
    for entry, new_start, new_score in zip(impact.moved, impact.new_starts, impact.new_scores):
        length = entry.duration
        entry.t_s = new_start
        entry.t_e = new_start + length
        entry.score = new_score

    ended = bisect_right(schedule, impact.start, key=_END)
    waited_from = max(schedule[ended - 1].t_e, decision.arrival) if ended else decision.arrival
    if waited_from < impact.start:
        insort(schedule, ScheduleEntry(IDLE_TASK, waited_from, impact.start, forced_idle=True), key=_START)
    insort(schedule, ScheduleEntry(decision.task, impact.start, impact.end, score=winner.combined), key=_START)


def run_arrivals(arrivals, nodes, candidates_fn, score_fn, duration_fn, window_fn, rescore_fn):
    """Process a time-ordered arrival sequence against empty schedules.

    ``arrivals`` is a sequence of (time, task); ``nodes`` a sequence of
    (label, node index).  Returns the decision list (rejections
    included; rejected tasks are not re-queued) and the final schedules
    keyed by node label.
    """
    times = [t for t, _ in arrivals]
    if times != sorted(times):
        raise ValueError("arrivals must be ordered by time")
    schedules = {label: [] for label, _ in nodes}
    decisions = []
    for i, (t, task) in enumerate(arrivals):
        decision = allocate(
            task,
            t,
            i,
            candidates_fn(task),
            score_fn,
            duration_fn,
            window_fn(task),
            schedules,
            rescore_fn,
        )
        commit_decision(decision, schedules)
        decisions.append(decision)
    return decisions, schedules
