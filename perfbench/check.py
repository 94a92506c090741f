"""Output checks for the benchmark, independent of the hyperalloc package.

The checks read the jsonl report with ``json.loads`` and the generator's
record of what went in, and return the set of arrival indices whose
output is wrong.  A fault in a node's schedule counts against every
arrival placed on that node; a fault that cannot be traced to arrivals
(an unreadable line, a digest mismatch) counts against all of them.
"""

from __future__ import annotations

import hashlib
import json
import math

IDLE = "idle"
NO_CAPABLE_NODE = "no-capable-node"
EXCLUSIONS = ("zero-score", "window-violation")


def _records(text):
    return [json.loads(line) for line in text.splitlines()]


def _combined(scores):
    values = list(scores.values())
    if any(v == 0 for v in values):
        return 0.0
    return math.prod(values, start=1.0)


def _decision_problems(d, window):
    """Problems with one decision record, as messages."""
    problems = []
    admissible = []
    for c in d["candidates"]:
        if c["combined"] != _combined(c["scores"]):
            problems.append(f"{c['node']}: combined score is not the product of its scores")
        if c["admissible"]:
            admissible.append(c)
            if c["exclusion"] is not None or not c["combined"] > 0:
                problems.append(f"{c['node']}: admissible but excluded or scored zero")
        elif c["exclusion"] not in EXCLUSIONS:
            problems.append(f"{c['node']}: inadmissible without a known exclusion")
    if not admissible:
        if d["chosen"] is not None or d["rationale"] != NO_CAPABLE_NODE:
            problems.append("a node was chosen although no candidate is admissible")
        return problems
    chosen = [c for c in admissible if c["node"] == d["chosen"]]
    if not chosen:
        problems.append(f"chosen node {d['chosen']!r} is not an admissible candidate")
        return problems
    c = chosen[0]
    if c["combined"] != max(a["combined"] for a in admissible):
        problems.append(f"chosen node {c['node']} does not have the maximal combined score")
    lo, hi = window
    if not (c["start"] >= max(lo, d["arrival"]) and c["start"] < c["end"] <= hi):
        problems.append(f"slot [{c['start']}, {c['end']}) on {c['node']} leaves the window {window}")
    return problems


def _schedule_problems(entries, windows):
    problems = []
    for i, e in enumerate(entries):
        if not e["t_s"] < e["t_e"]:
            problems.append(f"entry {i} has no positive length")
        if i and e["t_s"] < entries[i - 1]["t_e"]:
            problems.append(f"entry {i} overlaps or precedes entry {i - 1}")
        if e["task"] == IDLE:
            continue
        lo, hi = windows[e["task"]]
        # An entry pushed past its deadline by a later insertion stays in
        # the schedule with its score dropped to zero.
        if e["t_s"] < lo or (e["t_e"] > hi and e["score"] != 0):
            problems.append(f"entry {i} ({e['task']}) lies outside its window {lo, hi}")
    return problems


def check_report(text, tasks, windows):
    """Check one jsonl report against the arrivals that produced it.

    ``tasks`` lists the task id of every arrival in order and ``windows``
    maps a task id to its (release, deadline) window.  Returns the set of
    failed arrival indices and a list of messages.
    """
    everyone = set(range(len(tasks)))
    try:
        records = _records(text)
    except ValueError as exc:
        return everyone, [f"unreadable report: {exc}"]
    decisions = [r for r in records if r.get("record") == "decision"]
    schedules = [r for r in records if r.get("record") == "schedule"]
    failed, messages = set(), []

    if len(decisions) != len(tasks):
        messages.append(f"{len(decisions)} decisions for {len(tasks)} arrivals")
        failed |= set(range(len(decisions), len(tasks)))
    placed = {}
    for i, d in enumerate(decisions[: len(tasks)]):
        problems = []
        if d["arrival_idx"] != i or d["task"] != tasks[i]:
            problems.append(f"decision {i} is for arrival {d['arrival_idx']} ({d['task']})")
        problems += _decision_problems(d, windows[tasks[i]])
        if problems:
            failed.add(i)
            messages += [f"arrival {i}: {p}" for p in problems]
        if d["chosen"] is not None:
            placed.setdefault(d["chosen"], []).append(i)

    for s in schedules:
        problems = _schedule_problems(s["entries"], windows)
        owners = placed.get(s["node"], [])
        tasks_on_node = sum(e["task"] != IDLE for e in s["entries"])
        if tasks_on_node != len(owners):
            problems.append(f"{tasks_on_node} task entries for {len(owners)} placements")
        if problems:
            failed |= set(owners)
            messages += [f"schedule {s['node']}: {p}" for p in problems]
    missing = set(placed) - {s["node"] for s in schedules}
    for node in sorted(missing):
        failed |= set(placed[node])
        messages.append(f"no schedule record for {node}")
    return failed, messages


def digest(text):
    """SHA-256 of the decision and schedule records, keys sorted.

    The ``meta`` record (run settings, convergence, warnings) is left out
    so that a change to the run settings it reports is not a mismatch.
    """
    h = hashlib.sha256()
    for record in _records(text):
        if record.get("record") in ("decision", "schedule"):
            h.update(json.dumps(record, sort_keys=True, separators=(",", ":")).encode())
            h.update(b"\n")
    return h.hexdigest()


def differing_arrivals(reference, other, n_arrivals):
    """Arrivals whose output differs between two reports of the same input."""
    if reference == other:
        return set()
    ref_lines, other_lines = reference.splitlines(), other.splitlines()
    if len(ref_lines) != len(other_lines) or ref_lines[0] != other_lines[0]:
        return set(range(n_arrivals))
    failed = set()
    placed = {}
    for a, b in zip(ref_lines[1:], other_lines[1:]):
        record = json.loads(a)
        if record["record"] == "decision":
            if record["chosen"] is not None:
                placed.setdefault(record["chosen"], []).append(record["arrival_idx"])
            if a != b:
                failed.add(record["arrival_idx"])
        elif a != b:
            failed |= set(placed.get(record.get("node"), range(n_arrivals)))
    return failed
