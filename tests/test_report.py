"""The jsonl emitter against the record-building oracle in ``_oracles``.

``emit_report`` renders a candidate's fixed head once per call and reuses
it by object identity, and renders a decision that starts with a new
scores mapping in one ``json.dumps`` call.  Only exact bytes show a drift
in key order, spacing or number format, so every test here compares
whole outputs.
"""

import importlib.util
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperalloc.allocator import AllocationDecision, CandidateReport, ScheduleEntry
from hyperalloc.report import emit_report
from hyperalloc.runner import RunReport, run
from hyperalloc.scenario import RunOptions, parse_scenario
from hyperalloc.subspaces import Subspace

from _oracles import jsonl_text
from conftest import SCENARIO_DIR


def _load_generator():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_generator()
SUBSPACES = (Subspace.CMPT, Subspace.COMM, Subspace.CPLT)


def assert_matches_oracle(report):
    got, want = emit_report(report, "jsonl"), jsonl_text(report)
    if got != want:  # cut to the first difference: a full diff of megabytes takes minutes
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        lo = max(at - 80, 0)
        raise AssertionError(f"jsonl differs at offset {at}: {got[lo:at + 80]!r} != {want[lo:at + 80]!r}")
    return got


def _report(decisions, schedules=None):
    return RunReport(
        options=RunOptions(seed=3, subspaces=SUBSPACES, max_iter=10),
        decisions=decisions,
        schedules=schedules or {},
    )


@pytest.mark.parametrize("mode", ["expected", "sample"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("workload", ["fleet", "backlog", "deepdag"])
def test_jsonl_matches_oracle_on_benchmark_workloads(workload, seed, mode):
    assert_matches_oracle(run(parse_scenario(GEN.generate(workload, seed)), mode=mode))


@pytest.mark.parametrize("mode", ["expected", "sample"])
@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")), ids=lambda p: p.name)
def test_jsonl_matches_oracle_on_scenarios(path, mode):
    assert_matches_oracle(run(parse_scenario(path.read_text(encoding="utf-8")), mode=mode))


def _edge_case_report():
    """Decisions over shared candidate rows, as the runner builds them, with
    every value kind the renderer treats apart."""
    shared = {Subspace.CMPT: -0.0, Subspace.COMM: math.inf, Subspace.CPLT: math.nan}
    tiny = {Subspace.CMPT: 5e-324, Subspace.COMM: -math.inf, Subspace.CPLT: 0.1 + 0.2}
    mixed = {Subspace.CMPT: np.float64(0.5), Subspace.COMM: np.float64(math.inf), Subspace.CPLT: 2}
    keyed = {1: 2.0, "x": None, 2.5: True}  # keys json must convert
    labels = ['q"uote', "back\\slash", "nön-äscii ✓", "tab\there", "plain"]
    rows = [
        # one scores mapping behind candidates with different nodes and combined values
        (labels[0], 1, shared, -0.0),
        (labels[1], 2, shared, math.inf),
        (labels[2], 3, tiny, 1e308 * 10),
        (labels[3], 300, mixed, np.float64(-math.inf)),
        (labels[4], 4, keyed, 7),
        (labels[0], 5, {}, math.nan),
    ]
    tails = [
        (True, None, math.nan, (0, 7)),
        (False, "window-violation", -math.inf, (None, None)),
        (True, None, -0.0, (1.5, math.inf)),
        (False, 'zero "score"', 0, (None, None)),
        (True, "échec", 1e-300, (-0.0, math.nan)),
        (True, None, 0.0, (2.0**60, 1e16)),
    ]
    decisions = []
    for k in range(4):
        candidates = []
        for i, (label, idx, scores, combined) in enumerate(rows[k % 2 :]):
            admissible, exclusion, loss, (start, end) = tails[(i + k) % len(tails)]
            candidates.append(CandidateReport(label, idx, scores, combined, admissible, exclusion, loss, start, end))
        chosen = labels[k] if k else None
        decisions.append(AllocationDecision("Té\"", float(k) - 0.5, k, chosen, "max-score", candidates))
    decisions.append(AllocationDecision("empty", math.inf, 4, None, "no-capable-node", []))
    schedules = {
        labels[1]: [ScheduleEntry("Té\"", -0.0, math.inf, forced_idle=True, score=math.nan)],
        "idle": [],
    }
    return _report(decisions, schedules), shared


def test_jsonl_matches_oracle_on_edge_values():
    report, _ = _edge_case_report()
    out = assert_matches_oracle(report)
    assert out.count("\n") == 1 + len(report.decisions) + len(report.schedules)


def test_head_memo_does_not_outlive_one_call():
    report, shared = _edge_case_report()
    first = emit_report(report, "jsonl")
    shared[Subspace.COMM] = 0.25  # same mapping object, new content
    second = assert_matches_oracle(report)
    assert second != first and '"comm":0.25' in second


# ------------------------------------------------------ property test

FLOATS = st.floats()  # includes -0.0, subnormals, +-inf and NaN
NUMBERS = st.one_of(FLOATS, st.integers(-(2**70), 2**70))
LABELS = st.text(max_size=6)
SCORE_KEYS = st.one_of(st.sampled_from(SUBSPACES), LABELS, st.integers(-3, 3))
SCORE_VALUES = st.one_of(FLOATS, st.integers(-5, 5), st.none(), st.booleans())


@st.composite
def run_reports(draw):
    """Reports whose candidates draw from small pools of labels, score
    mappings and rows, so identical objects recur across decisions."""
    labels = draw(st.lists(LABELS, min_size=1, max_size=4))
    mappings = draw(st.lists(st.dictionaries(SCORE_KEYS, SCORE_VALUES, max_size=4), min_size=1, max_size=3))
    rows = draw(
        st.lists(
            st.tuples(st.sampled_from(labels), st.integers(0, 300), st.sampled_from(mappings), NUMBERS),
            min_size=1,
            max_size=4,
        )
    )
    slots = st.just((None, None)) | st.tuples(NUMBERS, NUMBERS)
    decisions = []
    for k in range(draw(st.integers(0, 5))):
        candidates = [
            CandidateReport(
                label, idx, scores, combined,
                draw(st.booleans()),
                draw(st.none() | LABELS),
                draw(NUMBERS),
                *draw(slots),
            )
            for label, idx, scores, combined in draw(st.lists(st.sampled_from(rows), max_size=5))
        ]
        chosen = draw(st.none() | st.sampled_from(labels))
        decisions.append(AllocationDecision(draw(LABELS), draw(FLOATS), k, chosen, draw(LABELS), candidates))
    return _report(decisions)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(run_reports())
def test_jsonl_matches_oracle_on_generated_reports(report):
    assert_matches_oracle(report)
