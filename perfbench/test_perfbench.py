"""Tests of the benchmark's own parts: generator, checker and probes.

Run with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402
import probes  # noqa: E402
import run as bench  # noqa: E402

ha = bench.load_package()


@pytest.fixture(scope="module")
def backlog():
    """A real backlog report (seed 0) with the generator's expectations."""
    text = gen.generate("backlog", 0)
    out = ha.emit_report(ha.run(ha.parse_scenario(text)), "jsonl")
    expect = gen.expectations("backlog", 0)
    return out, expect["arrivals"], expect["windows"]


def _edit(out, kind, pick, change):
    """Apply ``change`` to the first record of ``kind`` that ``pick`` accepts."""
    lines = out.splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record["record"] == kind and pick(record):
            change(record)
            lines[i] = json.dumps(record, separators=(",", ":"))
            return "\n".join(lines) + "\n", record
    raise AssertionError(f"no {kind} record to edit")


@pytest.mark.parametrize("workload", list(gen.WORKLOADS))
def test_same_seed_gives_same_text(workload):
    assert gen.generate(workload, 3) == gen.generate(workload, 3)
    assert gen.generate(workload, 3) != gen.generate(workload, 4)


@pytest.mark.parametrize("workload", list(gen.WORKLOADS))
def test_text_round_trips_through_the_parser(workload):
    text = gen.generate(workload, 1)
    assert ha.format_scenario(ha.parse_scenario(text)) == text


def test_clean_report_passes(backlog):
    out, tasks, windows = backlog
    assert check.check_report(out, tasks, windows) == (set(), [])


def test_overlap_is_flagged(backlog):
    out, tasks, windows = backlog

    def overlap(record):
        record["entries"][1]["t_s"] = record["entries"][0]["t_e"] - 1.0

    bad, schedule = _edit(out, "schedule", lambda r: len(r["entries"]) > 1, overlap)
    failed, messages = check.check_report(bad, tasks, windows)
    on_node = {i for i, d in enumerate(check._records(out)[1 : len(tasks) + 1])
               if d["chosen"] == schedule["node"]}
    assert on_node and failed == on_node
    assert any("overlaps" in m for m in messages)


def test_swapped_choice_is_flagged(backlog):
    out, tasks, windows = backlog

    def two_admissible(record):
        scores = {c["combined"] for c in record["candidates"] if c["admissible"]}
        return len(scores) > 1

    def swap(record):
        worst = min((c for c in record["candidates"] if c["admissible"]), key=lambda c: c["combined"])
        record["chosen"] = worst["node"]

    bad, decision = _edit(out, "decision", two_admissible, swap)
    failed, messages = check.check_report(bad, tasks, windows)
    assert decision["arrival_idx"] in failed
    assert any("maximal combined score" in m for m in messages)


def test_digest_ignores_meta_but_not_decisions(backlog):
    out, tasks, _ = backlog
    meta_changed, _ = _edit(out, "meta", lambda r: True, lambda r: r.pop("threads"))
    assert check.digest(meta_changed) == check.digest(out)
    moved, decision = _edit(out, "decision", lambda r: r["arrival_idx"] == 7,
                            lambda r: r.update(arrival=r["arrival"] + 1.0))
    assert check.digest(moved) != check.digest(out)
    assert check.differing_arrivals(out, moved, len(tasks)) == {7}


def test_missing_probe_name_raises():
    tracer = probes.Tracer()
    missing = (("allocator.allocate", "hyperalloc.runner", "no_such_function", None, probes.ALL),)
    with pytest.raises(probes.ProbeError, match="no_such_function"):
        with tracer.installed(missing):
            pass


def test_silent_required_layer_raises():
    tracer = probes.Tracer()
    with pytest.raises(probes.ProbeError, match="never called on backlog"):
        tracer.require("backlog")


def test_arrival_clock_must_see_every_arrival():
    clock = probes.ArrivalClock()
    clock.stamps += [(1.0, 1.25), (2.0, 2.5)]
    clock.kernel += [probes.REFERENCE_KERNEL_S, 2 * probes.REFERENCE_KERNEL_S]
    # The kernel time between arrivals is left out, and each latency is
    # scaled by the median kernel time around it (1.5 x the reference).
    assert clock.latencies(0.5, 2) == pytest.approx([0.5 / 1.5, 0.75 / 1.5])
    with pytest.raises(probes.ProbeError, match="2 times for 3 arrivals"):
        clock.latencies(0.5, 3)


def test_probes_restore_the_originals():
    import hyperalloc.runner as runner

    original = runner.allocate
    tracer = probes.Tracer()
    with tracer.installed():
        assert runner.allocate is not original
    assert runner.allocate is original
