"""Render a run report as a table, JSON lines, or CSV.

The table shows three significant figures; jsonl and csv carry full
precision (jsonl writes IEEE infinities as ``Infinity``, which standard
JSON parsers must be told to accept).  All three renderings are pure
functions of the report, so equal reports give byte-identical output.

jsonl writes one record per candidate per arrival, and most of each
record repeats: its head (node, index, scores, combined score) comes
from the runner's per-task candidate table, so in expected mode it is
the same objects at every arrival of a task.  ``_jsonl`` renders each
head once and reuses the text, and memoises the text of every other
value the same way, keyed on object identity (``id``).  An identity key
is sound only while its object is alive and unchanged: the report holds
every keyed object for the whole ``emit_report`` call, so within a call
an equal key means the same objects and so the same text.  Across calls
an id may name another object, or a scores mapping may have been
changed, so each call starts with empty memos.  A decision whose first
candidate brings a scores mapping no earlier decision started with (a
task's first arrival; every arrival in sample mode, which redraws the
comm score) is rendered by one ``json.dumps``: its heads would not
repeat, and json's encoder is then the faster way.  Either way the text
is what ``json.dumps(..., separators=(",", ":"))`` writes.
"""

from __future__ import annotations

import csv
import io
import json
from json.encoder import encode_basestring_ascii as encode_str
from math import isfinite

from .runner import RunReport

FORMATS = ("table", "jsonl", "csv")


def _g(value) -> str:
    return format(value, ".3g")


def _pad(rows) -> list:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows]


def _table(report: RunReport) -> str:
    opts = report.options
    names = [s.value for s in opts.subspaces]
    lines = [
        # scoring is serial; "threads=1" stays so the header keeps its fields
        "run seed={} mode={} subspaces={} step={} tol={} max_iter={} threads=1".format(
            opts.seed,
            opts.mode,
            ",".join(names),
            _g(opts.step),
            _g(opts.tol),
            opts.max_iter,
        )
    ]

    for d in report.decisions:
        lines.append("")
        chosen = d.chosen if d.chosen is not None else "-"
        lines.append(f"task {d.task} arrival={_g(d.arrival)} -> {chosen} ({d.rationale})")
        rows = [["node", *names, "combined", "loss", "note"]]
        for c in d.candidates:
            note = c.exclusion or ("chosen" if c.node == d.chosen else "")
            rows.append(
                [
                    c.node,
                    *[_g(c.scores[s]) for s in opts.subspaces],
                    _g(c.combined),
                    _g(c.loss),
                    note,
                ]
            )
        lines += ["  " + r for r in _pad(rows)]

    for node, entries in report.schedules.items():
        lines.append("")
        lines.append(f"schedule {node}")
        if not entries:
            lines.append("  (empty)")
        for e in entries:
            lines.append(f"  {e.task} [{_g(e.t_s)}, {_g(e.t_e)}) score={_g(e.score)}")

    if report.convergence:
        lines.append("")
        for task_id, info in report.convergence.items():
            status = "converged" if info["converged"] else "still moving"
            lines.append(f"dynamics {task_id}: {status} after {info['iterations']} iterations")

    if report.warnings:
        lines.append("")
        for w in report.warnings:
            lines.append(f"warning: {w}")

    return "\n".join(lines) + "\n"


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _jsonl(report: RunReport) -> str:
    texts = {}  # id(value) -> its JSON text

    def render(value) -> str:
        """``_dump(value)``, without json's per-call setup for ints, finite
        floats, strings and str-keyed dicts."""
        if type(value) is int or (type(value) is float and isfinite(value)):
            return repr(value)
        if isinstance(value, str):
            return encode_str(value)
        if type(value) is dict and all([isinstance(k, str) for k in value]):
            return "{%s}" % ",".join([text(k) + ":" + text(v) for k, v in value.items()])
        return _dump(value)

    def text(value) -> str:
        out = texts.get(id(value))
        if out is None:
            out = texts[id(value)] = render(value)
        return out

    opts = report.options
    lines = [
        _dump(
            {
                "record": "meta",
                "seed": opts.seed,
                "mode": opts.mode,
                "subspaces": [s.value for s in opts.subspaces],
                "step": opts.step,
                "tol": opts.tol,
                "max_iter": opts.max_iter,
                "threads": 1,  # scoring is serial; the key stays for report readers
                "convergence": report.convergence,
                "warnings": report.warnings,
            }
        )
    ]
    leads = set()  # ids of the scores mappings that started a decision
    heads = {}  # ids of node, idx, scores, combined -> '{"node":...,"combined":...'
    for d in report.decisions:
        lead = id(d.candidates[0].scores) if d.candidates else None
        if lead not in leads:
            leads.add(lead)
            lines.append(
                _dump(
                    {
                        "record": "decision",
                        "task": d.task,
                        "arrival": d.arrival,
                        "arrival_idx": d.arrival_idx,
                        "chosen": d.chosen,
                        "rationale": d.rationale,
                        "candidates": [
                            {
                                "node": c.node,
                                "idx": c.node_idx,
                                "scores": c.scores,  # Subspace keys: json writes their str values
                                "combined": c.combined,
                                "admissible": c.admissible,
                                "exclusion": c.exclusion,
                                "loss": c.loss,
                                "start": c.start,
                                "end": c.end,
                            }
                            for c in d.candidates
                        ],
                    }
                )
            )
            continue
        parts = []
        for c in d.candidates:
            key = (id(c.node), id(c.node_idx), id(c.scores), id(c.combined))
            head = heads.get(key)
            if head is None:
                head = heads[key] = '{"node":%s,"idx":%s,"scores":%s,"combined":%s' % (
                    text(c.node), text(c.node_idx), text(c.scores), text(c.combined)
                )
            parts.append(
                '%s,"admissible":%s,"exclusion":%s,"loss":%s,"start":%s,"end":%s}' % (
                    head, text(c.admissible), text(c.exclusion), text(c.loss), text(c.start),
                    # an end is new for nearly every candidate: no memo entry for it
                    "null" if c.end is None else render(c.end),
                )
            )
        lines.append(
            '{"record":"decision","task":%s,"arrival":%s,"arrival_idx":%s,"chosen":%s,'
            '"rationale":%s,"candidates":[%s]}' % (
                text(d.task), text(d.arrival), text(d.arrival_idx), text(d.chosen),
                text(d.rationale), ",".join(parts),
            )
        )
    for node, entries in report.schedules.items():
        lines.append(
            _dump(
                {
                    "record": "schedule",
                    "node": node,
                    "entries": [
                        {
                            "task": e.task,
                            "t_s": e.t_s,
                            "t_e": e.t_e,
                            "score": e.score,
                            "forced_idle": e.forced_idle,
                        }
                        for e in entries
                    ],
                }
            )
        )
    lines.append("")  # the final newline, without copying the whole text once more
    return "\n".join(lines)


def _csv(report: RunReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["task", "node", "subspace", "score", "combined", "loss", "rationale"])
    for d in report.decisions:
        for c in d.candidates:
            if c.node == d.chosen:
                rationale = d.rationale
            else:
                rationale = c.exclusion or ""
            for s in report.options.subspaces:
                writer.writerow(
                    [
                        d.task,
                        c.node,
                        s.value,
                        repr(c.scores[s]),
                        repr(c.combined),
                        repr(c.loss),
                        rationale,
                    ]
                )
    return buf.getvalue()


def emit_report(report: RunReport, fmt: str = "table") -> str:
    """Render a report in one of ``table``, ``jsonl``, ``csv``."""
    if fmt == "table":
        return _table(report)
    if fmt == "jsonl":
        return _jsonl(report)
    if fmt == "csv":
        return _csv(report)
    raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
