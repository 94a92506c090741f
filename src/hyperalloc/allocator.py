"""Schedule perturbation accounting and the allocation decision rule.

Each node owns a time-ordered, non-overlapping schedule, held as a
:class:`NodeSchedule`: parallel float64 arrays of starts, ends, scores
and deadlines, with the task names and forced-idle flags in Python
lists.  An entry's deadline is its task's window end (``inf`` for a task
without one); a forced-idle entry has score 0 and deadline ``inf``.  The
rescoring rule lives here, with the schedule: an entry shifted to end
after its deadline drops to score 0, every other entry keeps its score.

Inserting a new task claims the earliest instant allowed by its arrival
and time window; entries that have not started by the arrival instant
may be displaced, and displacement cascades strictly rightward (no entry
ever moves earlier, nothing is preempted).  The cascade is one running
sum over the queued durations, so a shifted entry's new start is the
same left-to-right float sum an entry-by-entry loop would form, and its
new end is its new start plus its old ``t_e - t_s``.  Waiting forced by a
time window is materialised as an explicit idle entry so the gap stays
visible in the final schedule.  Both new entries go in right before the
first entry that ends after the task's start, so an insertion past the
last end is an append.

A decision ranks candidate nodes by combined subspace score; among the
best it takes the one whose perturbation loss is smallest, then the
lowest node index.  The loss of a candidate is the summed strict score
drop over the entries its insertion would shift, added left to right, so
it is 0 exactly when nothing drops and the winner is then non-perturbing.
:func:`allocate` reads the candidates once, keeping the winner as it
goes.  A candidate on an idle node (every entry ended by the arrival) is
decided by :func:`schedule_impact`'s idle rule without a report; only the
winner's :class:`ImpactReport` is built, and it is built as a busy
node's is, by :func:`schedule_impact` and :func:`reallocation_loss`.  The
decision records each candidate's slot and loss as Python floats and
carries the winner's report to :func:`commit_decision`, which applies it
and clears the field.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import HyperallocError

IDLE_TASK = "idle"
# The shifted durations add up to at most the span from the arrival to the
# last end, so while the new slot's end plus that span stays below this no
# frontier can overflow, and the cascade keeps numpy's overflow warning on
# (switching it off costs more than a short cascade).
_SAFE_SPAN = 1e308
_WARNINGS_ON = nullcontext()

# decision rationale codes
MAX_SCORE = "max-score"
NON_PERTURBING = "non-perturbing"
MIN_LOSS = "min-loss"
NO_CAPABLE_NODE = "no-capable-node"


class WindowViolation(HyperallocError):
    """Insertion would finish the task after its deadline."""


@dataclass
class ScheduleEntry:
    """One entry of a finished schedule, as the report shows it."""

    task: str
    t_s: float
    t_e: float
    forced_idle: bool = False
    score: float = 0.0


class NodeSchedule:
    """One node's schedule: entries sorted by start, without overlaps.

    ``t_s``, ``t_e``, ``score`` and ``deadline`` are rows of one growable
    float64 block; only their first ``len(self)`` columns hold entries.
    ``last_end`` is the last entry's end (``-inf`` while empty), a Python
    float: ends ascend, so no entry ends after it.  ``timed`` says whether
    any entry has a finite deadline, that is, whether a shift can ever
    cost score here.
    """

    __slots__ = ("_block", "t_s", "t_e", "score", "deadline", "tasks", "forced_idle", "n", "last_end", "timed")

    def __init__(self):
        self._grow(16)
        self.tasks = []
        self.forced_idle = []
        self.n = 0
        self.last_end = -math.inf
        self.timed = False

    def __len__(self) -> int:
        return self.n

    def _grow(self, capacity):
        block = np.empty((4, capacity))
        if hasattr(self, "_block"):
            block[:, : self.n] = self._block[:, : self.n]
        self._block = block
        self.t_s, self.t_e, self.score, self.deadline = block

    def insert(self, at, task, t_s, t_e, score=0.0, deadline=math.inf, forced_idle=False):
        """Put an entry at position ``at``; the caller keeps the order.
        An entry put at the end sets ``last_end``."""
        n = self.n
        if n == self._block.shape[1]:
            self._grow(2 * n)
        block = self._block
        if at < n:
            block[:, at + 1 : n + 1] = block[:, at:n]
        block[:, at] = (t_s, t_e, score, deadline)
        self.tasks.insert(at, task)
        self.forced_idle.insert(at, forced_idle)
        self.n = n + 1
        self.timed = self.timed or deadline < math.inf
        if at == n:
            self.last_end = t_e

    def entries(self) -> list:
        """The schedule as :class:`ScheduleEntry` objects, in order."""
        n = self.n
        return [
            ScheduleEntry(task, t_s, t_e, idle, score)
            for task, t_s, t_e, idle, score in zip(
                self.tasks, self.t_s[:n].tolist(), self.t_e[:n].tolist(), self.forced_idle, self.score[:n].tolist()
            )
        ]


@dataclass(slots=True)
class ImpactReport:
    """Effect of inserting one task into one node's schedule, read only by
    :func:`allocate` and :func:`commit_decision`.

    ``start`` and ``end`` are the new task's slot, as Python floats.
    ``first`` is the 0-based position of the first entry ending after
    ``start``, where the new entries go in (an idle filler, if any, then
    the task).  The displaced entries form one contiguous run from
    ``first`` (the schedule is sorted by start without overlaps, so once
    an entry keeps its slot every later one does): ``new_starts`` holds
    their new starts and ``schedule`` the schedule they belong to.  After
    :func:`reallocation_loss`, ``dropped`` holds the positions within the
    run whose score strictly drops (each ends past its deadline).  A
    report that displaces nothing shares the empty defaults.
    ``deadline`` (the task's window end) and ``score`` (its combined
    score) are set by :func:`allocate` on the winner's report only, and
    :func:`commit_decision` writes both into the new entry; they are set
    there, not passed in here, to keep every candidate's report cheap.
    ``affected`` is a read-only list of (1-based index, old start, new
    start); it reads the entries' current starts, so take it before the
    decision is committed.
    """

    start: float
    end: float
    first: int = 0
    new_starts: np.ndarray = ()
    schedule: NodeSchedule | None = None
    dropped: np.ndarray = ()
    deadline: float = math.inf
    score: float = 0.0

    @property
    def affected(self) -> list:
        if not len(self.new_starts):
            return []
        first, stop = self.first, self.first + len(self.new_starts)
        old_starts = self.schedule.t_s[first:stop].tolist()
        return list(zip(range(first + 1, stop + 1), old_starts, self.new_starts.tolist()))


@dataclass(slots=True)
class CandidateReport:
    """One candidate of a decision.  ``start`` and ``end`` are the slot it
    would take and ``loss`` the score its insertion would cost, as Python
    floats; an inadmissible candidate has no slot (``None``)."""

    node: str
    node_idx: int
    scores: dict
    combined: float
    admissible: bool
    exclusion: str | None = None
    loss: float = 0.0
    start: float | None = None
    end: float | None = None


@dataclass
class AllocationDecision:
    task: str
    arrival: float
    arrival_idx: int
    chosen: str | None
    rationale: str
    candidates: list
    impact: ImpactReport | None = None  # the chosen candidate's, until commit_decision applies it


def schedule_impact(schedule, task, duration, arrival, window=(0.0, math.inf), node="") -> ImpactReport:
    """Tentative insertion of ``task`` into a :class:`NodeSchedule`.

    The task claims the earliest start at or after ``max(arrival,
    window start)`` once every already-started entry has finished.
    Entries starting at or after the arrival instant are displaced
    rightward as needed, in cascade; nothing moves left and running
    entries are never touched.  Entries that ended by the arrival are
    skipped (report indices still count them).  The schedule is not
    modified.  When the arrival or the claimed start comes at or after
    the schedule's last end, nothing can move and no array is read.

    Raises WindowViolation when the claimed slot would end after the
    window deadline, or when it or a shifted entry would end at infinity.
    """
    if not duration > 0:
        raise ValueError(f"duration must be positive, got {duration}")
    lo, hi = window
    earliest = max(arrival, lo)
    n = schedule.n
    last_end = schedule.last_end
    if arrival >= last_end:  # every entry has ended
        start = max(earliest, 0.0)
    else:
        live = schedule.t_e[:n].searchsorted(arrival, "right")
        # entries do not overlap, so only the first live entry can be running
        start = max(earliest, float(schedule.t_e[live]) if schedule.t_s[live] < arrival else 0.0)
    end = start + duration
    if end > hi:
        raise WindowViolation(f"task {task} would end at {end}, after deadline {hi}")
    if start >= last_end:  # the slot follows every entry
        if end == math.inf:
            raise WindowViolation(f"task {task} would push {node or 'the schedule'} past the largest finite time")
        return ImpactReport(start, end, n)

    # every entry ending after the new slot starts has not started by the arrival
    first = int(schedule.t_e[:n].searchsorted(start, "right"))
    queued = schedule.t_s[first:n]
    frontiers = np.empty(n - first + 1)  # [end, end + d_first, ...], summed left to right
    frontiers[0] = end
    with np.errstate(over="ignore") if end + (last_end - arrival) >= _SAFE_SPAN else _WARNINGS_ON:
        np.subtract(schedule.t_e[first:n], queued, out=frontiers[1:])
        np.add.accumulate(frontiers, out=frontiers)
    stays = queued >= frontiers[:-1]  # the first entry that starts at or after its frontier stays
    moved = int(stays.argmax()) if stays.any() else n - first
    if frontiers[moved] == math.inf:  # the new slot's end, or the last shifted entry's new end
        raise WindowViolation(f"task {task} would push {node or 'the schedule'} past the largest finite time")
    if moved:
        return ImpactReport(start, end, first, frontiers[:moved], schedule)
    return ImpactReport(start, end, first)


def reallocation_loss(report: ImpactReport) -> float:
    """Find the shifted entries whose score strictly drops and sum the drops.

    A shifted entry drops to score 0 when its new end passes its deadline;
    only an entry that still scores above 0 loses anything.  The drops'
    positions go to ``report.dropped``; their sum, added left to right, is
    returned.  A schedule with no finite deadline loses nothing.
    """
    new_starts = report.new_starts
    schedule = report.schedule
    if schedule is None or not schedule.timed:
        return 0.0
    run = slice(report.first, report.first + len(new_starts))
    late = new_starts + (schedule.t_e[run] - schedule.t_s[run]) > schedule.deadline[run]
    scores = schedule.score[run]
    dropped = np.flatnonzero(late & (scores > 0))
    if not len(dropped):
        return 0.0
    report.dropped = dropped
    return float(np.add.accumulate(scores[dropped])[-1])


def allocate(task, arrival, arrival_idx, rows, duration_fn, window, schedules) -> AllocationDecision:
    """Pick a node for one arriving task.

    ``rows`` holds one ``(label, node index, scores, combined)`` row per
    candidate, its per-subspace score mapping already checked and combined;
    candidates are reported in row order (``run`` passes node-index order).
    ``duration_fn(task, label)`` returns the busy time the task would
    occupy on that node; ``schedules`` maps each label to its
    :class:`NodeSchedule`.  Candidates scoring zero or violating the task
    window are recorded but inadmissible.  Among admissible candidates
    the maximal combined score wins; score ties go to the smallest loss,
    then the lowest node index.  The rationale is ``max-score`` for a
    unique best score, else ``non-perturbing`` when the winner loses
    nothing and ``min-loss`` when it does.

    An idle node's candidate is decided without a report (see the module
    docstring); only the winner's report is built.
    """
    lo, hi = window
    idle_start = max(max(arrival, lo), 0.0)  # the slot on every idle node
    reports = []
    best = best_impact = best_duration = None  # the winner so far, its report (None on an idle node), its busy time
    ties = 0  # admissible candidates at the best score
    for label, idx, scores, combined in rows:
        if combined == 0:
            reports.append(CandidateReport(label, idx, scores, combined, False, "zero-score"))
            continue
        duration = duration_fn(task, label)
        schedule = schedules[label]
        if arrival >= schedule.last_end:  # schedule_impact's idle branch: nothing moves, nothing is lost
            if not duration > 0:
                raise ValueError(f"duration must be positive, got {duration}")
            impact, loss, start, end = None, 0.0, idle_start, idle_start + duration
            if end > hi or end == math.inf:
                reports.append(CandidateReport(label, idx, scores, combined, False, "window-violation"))
                continue
        else:
            try:
                impact = schedule_impact(schedule, task, duration, arrival, window, node=label)
            except WindowViolation:
                reports.append(CandidateReport(label, idx, scores, combined, False, "window-violation"))
                continue
            loss, start, end = reallocation_loss(impact), impact.start, impact.end
        candidate = CandidateReport(label, idx, scores, combined, True, None, loss, start, end)
        reports.append(candidate)
        if best is None or combined > best.combined:
            best, best_impact, best_duration, ties = candidate, impact, duration, 1
        elif combined == best.combined:
            ties += 1
            if loss < best.loss or (loss == best.loss and idx < best.node_idx):
                best, best_impact, best_duration = candidate, impact, duration

    if best is None:
        return AllocationDecision(task, arrival, arrival_idx, None, NO_CAPABLE_NODE, reports)
    if ties == 1:
        rationale = MAX_SCORE
    else:  # a dropped entry scored above 0, so the loss is 0 exactly when nothing drops
        rationale = NON_PERTURBING if best.loss == 0 else MIN_LOSS
    if best_impact is None:  # an idle winner: its report, as the busy path builds it
        best_impact = schedule_impact(schedules[best.node], task, best_duration, arrival, window, node=best.node)
        reallocation_loss(best_impact)
    # commit-only inputs ride on the report handed over, not on the decision
    best_impact.deadline, best_impact.score = window[1], best.combined
    return AllocationDecision(task, arrival, arrival_idx, best.node, rationale, reports, best_impact)


def commit_decision(decision: AllocationDecision, schedules) -> None:
    """Apply a decision's impact to the schedules (shifts, score drops, idle
    filler, insertion) and drop the decision's reference to it."""
    impact = decision.impact
    if impact is None:
        return
    decision.impact = None
    schedule = schedules[decision.chosen]
    start, end, first = impact.start, impact.end, impact.first
    if len(impact.new_starts):
        run = slice(first, first + len(impact.new_starts))
        schedule.t_e[run] = impact.new_starts + (schedule.t_e[run] - schedule.t_s[run])
        schedule.t_s[run] = impact.new_starts
        if len(impact.dropped):
            schedule.score[first + impact.dropped] = 0.0
        schedule.last_end = float(schedule.t_e[schedule.n - 1])

    # entries before first end by the start, those from first on start at or after the end
    waited_from = max(float(schedule.t_e[first - 1]), decision.arrival) if first else decision.arrival
    if waited_from < start:
        schedule.insert(first, IDLE_TASK, waited_from, start, forced_idle=True)
        first += 1
    schedule.insert(first, decision.task, start, end, impact.score, impact.deadline)
