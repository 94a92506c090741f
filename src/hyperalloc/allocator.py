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
    that displaces nothing shares the empty defaults.  ``affected`` is a
    read-only view of (1-based index, old start, new start); it reads the
    entries' current starts, so take it before the decision is committed.
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
    def affected(self) -> list:
        return [
            (i, entry.t_s, new_start)
            for i, entry, new_start in zip(count(self.first + 1), self.moved, self.new_starts)
        ]


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
    window deadline, or when it or a shifted entry would end at infinity.
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
        frontier += entry.t_e - entry.t_s  # the duration, without a property call per shifted entry
    if frontier == math.inf:  # the new slot's end, or the last shifted entry's new end
        raise WindowViolation(f"task {task} would push {node or 'the schedule'} past the largest finite time")
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


def allocate(task, arrival, arrival_idx, rows, duration_fn, window, schedules, rescore_fn) -> AllocationDecision:
    """Pick a node for one arriving task.

    ``rows`` holds one ``(label, node index, scores, combined)`` row per
    candidate, its per-subspace score mapping already checked and combined;
    candidates are reported in row order (``run`` passes node-index order).
    ``duration_fn(task, label)`` returns the busy time the task would
    occupy on that node.  Candidates scoring zero or violating the task
    window are recorded but inadmissible.  Among admissible candidates
    the maximal combined score wins; score ties prefer non-perturbing
    placements, then strictly minimal loss, then the lowest node index.
    """
    reports = []
    for label, idx, scores, combined in rows:
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
    quiet = [c for c in top if not c.impact.nv]  # no entry displaced, or none loses score
    if quiet:
        chosen = min(quiet, key=lambda c: c.node_idx)
        return AllocationDecision(task, arrival, arrival_idx, chosen.node, NON_PERTURBING, reports)
    chosen = min(top, key=lambda c: (c.loss, c.node_idx))
    return AllocationDecision(task, arrival, arrival_idx, chosen.node, MIN_LOSS, reports)


def commit_decision(decision: AllocationDecision, schedules) -> None:
    """Apply a decision to the schedules: shifts, idle filler, insertion."""
    if decision.chosen is None:
        return
    winner = next(c for c in decision.candidates if c.node == decision.chosen)
    impact = winner.impact
    schedule = schedules[winner.node]
    for entry, new_start, new_score in zip(impact.moved, impact.new_starts, impact.new_scores):
        length = entry.t_e - entry.t_s
        entry.t_s = new_start
        entry.t_e = new_start + length
        entry.score = new_score

    ended = bisect_right(schedule, impact.start, key=_END)
    waited_from = max(schedule[ended - 1].t_e, decision.arrival) if ended else decision.arrival
    if waited_from < impact.start:
        insort(schedule, ScheduleEntry(IDLE_TASK, waited_from, impact.start, forced_idle=True), key=_START)
    insort(schedule, ScheduleEntry(decision.task, impact.start, impact.end, score=winner.combined), key=_START)

