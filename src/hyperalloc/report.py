"""Render a run report as a table, JSON lines, or CSV.

The table shows three significant figures; jsonl and csv carry full
precision (jsonl writes IEEE infinities as ``Infinity``, which standard
JSON parsers must be told to accept).  All three renderings are pure
functions of the report, so equal reports give byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json

from .runner import RunReport

FORMATS = ("table", "jsonl", "csv")


def _g(value) -> str:
    return format(value, ".3g")


def _pad(rows) -> list:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows]


def _table(report: RunReport) -> str:
    names = [s.value for s in report.subspaces]
    lines = [
        # scoring is serial; "threads=1" stays so the header keeps its fields
        "run seed={} mode={} subspaces={} step={} tol={} max_iter={} threads=1".format(
            report.seed,
            report.mode,
            ",".join(names),
            _g(report.step),
            _g(report.tol),
            report.max_iter,
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
                    *[_g(c.scores[s]) for s in report.subspaces],
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


def _jsonl(report: RunReport) -> str:
    def dump(obj) -> str:
        return json.dumps(obj, separators=(",", ":"))

    lines = [
        dump(
            {
                "record": "meta",
                "seed": report.seed,
                "mode": report.mode,
                "subspaces": [s.value for s in report.subspaces],
                "step": report.step,
                "tol": report.tol,
                "max_iter": report.max_iter,
                "threads": 1,  # scoring is serial; the key stays for report readers
                "convergence": report.convergence,
                "warnings": report.warnings,
            }
        )
    ]
    for d in report.decisions:
        candidates = []
        for c in d.candidates:
            entry = {
                "node": c.node,
                "idx": c.node_idx,
                "scores": c.scores,  # Subspace is a str enum: json writes its keys as their values
                "combined": c.combined,
                "admissible": c.admissible,
                "exclusion": c.exclusion,
                "loss": c.loss,
                "start": c.impact.start if c.impact else None,
                "end": c.impact.end if c.impact else None,
            }
            candidates.append(entry)
        lines.append(
            dump(
                {
                    "record": "decision",
                    "task": d.task,
                    "arrival": d.arrival,
                    "arrival_idx": d.arrival_idx,
                    "chosen": d.chosen,
                    "rationale": d.rationale,
                    "candidates": candidates,
                }
            )
        )
    for node, entries in report.schedules.items():
        lines.append(
            dump(
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
    return "\n".join(lines) + "\n"


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
            for s in report.subspaces:
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
