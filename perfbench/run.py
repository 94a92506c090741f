"""Benchmark: per-arrival decision latency of hyperalloc on seeded workloads.

One repetition drives the public path a user of ``hyperalloc allocate``
waits for: ``parse_scenario(text) -> run(scenario) -> emit_report(report,
"jsonl")`` on a freshly parsed scenario with its own options, in one
thread and in a fresh process.  Repetitions continue for ``--seconds``.

On a shared host, machine speed can swing by half within seconds and for
minutes at a time.  Two measures keep the end-to-end figures steady: every time is scaled to a reference machine speed, read
from a fixed kernel timed between arrivals (``probes.ArrivalClock``); and
since every repetition decides the same arrivals in the same order, each
arrival's latency is its minimum over the repetitions.  Every workload
has at least 1000 arrivals, so at least ten lie beyond the p99.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

With ``--trace 0`` the only probe is the arrival clock on
``runner.commit_decision`` and the last line of output holds the
end-to-end metrics.  With ``--trace 1`` untraced and traced repetitions
alternate; every layer's public functions are wrapped (see probes.py) and
the last line holds the per-layer split.  ``--workload all`` runs every
workload both ways in child processes and prints one table.

Every output is checked (check.py); the arrivals whose output fails a
check are reported as ``failed`` against ``attempted``.  The program is
imported from ``src/`` next to this directory; without it the benchmark
exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import probes  # noqa: E402

# p99 needs at least ten arrivals above it.
MIN_ARRIVALS = 1000
# Parses per repetition for setup_s, after the run.
SETUP_PARSES = 5
# Untraced/traced pairs in a traced run, so that the overhead is a median.
MIN_PAIRS = 3
# A repetition takes a few seconds; one that takes this long has hung.
REPETITION_TIMEOUT_S = 120.0

END_TO_END = {
    "arrivals_per_s": "1/s",
    "decision_ms_p50": "ms",
    "decision_ms_p99": "ms",
    "decision_growth": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (end-to-end metrics it should move, workloads).
LAYER_MAP = {
    "scenario.parse_s": (["setup_s"], ["fleet", "backlog", "deepdag"]),
    "network.com_t_max_s": (["arrivals_per_s", "decision_ms_p50"], ["fleet"]),
    "network.com_t_max_calls": (["arrivals_per_s", "decision_ms_p50"], ["fleet"]),
    "network.route_lookups": (["arrivals_per_s", "decision_ms_p50"], ["fleet"]),
    "network.route_hit_ratio": (["arrivals_per_s", "decision_ms_p50"], ["fleet"]),
    "delays.substream_s": (["arrivals_per_s"], ["backlog"]),
    "delays.substream_calls": (["arrivals_per_s"], ["backlog"]),
    "delays.sample_delay_s": (["arrivals_per_s"], ["backlog"]),
    "delays.draws": (["arrivals_per_s"], ["backlog"]),
    "graphs.to_semilattice_s": (["decision_ms_p99"], ["deepdag"]),
    "graphs.flow_predecessors_s": (["decision_ms_p99"], ["deepdag"]),
    "graphs.flow_critical_cost_s": (["decision_ms_p99"], ["deepdag"]),
    "graphs.flow_critical_cost_calls": (["decision_ms_p99"], ["deepdag"]),
    "subspaces.pi_init_s": (["decision_ms_p99", "arrivals_per_s"], ["deepdag"]),
    "subspaces.pi_limit_s": (["decision_ms_p99", "arrivals_per_s"], ["deepdag"]),
    "subspaces.omega_update_s": (["decision_ms_p99", "arrivals_per_s"], ["deepdag"]),
    "subspaces.omega_update_calls": (["decision_ms_p99", "arrivals_per_s"], ["deepdag"]),
    "subspaces.dynamics_iterations": (["decision_ms_p99", "arrivals_per_s"], ["deepdag"]),
    "allocator.allocate_s": (["decision_ms_p50", "decision_growth", "arrivals_per_s"], ["backlog"]),
    "allocator.schedule_impact_s": (["decision_ms_p50", "decision_growth", "arrivals_per_s"], ["backlog"]),
    "allocator.schedule_impact_calls": (["decision_ms_p50", "decision_growth", "arrivals_per_s"], ["backlog"]),
    "allocator.entries_scanned": (["decision_ms_p50", "decision_growth", "arrivals_per_s"], ["backlog"]),
    "allocator.entries_shifted": (["decision_ms_p50", "decision_growth", "arrivals_per_s"], ["backlog"]),
    "allocator.reallocation_loss_s": (["decision_ms_p50", "decision_growth", "arrivals_per_s"], ["backlog"]),
    "allocator.commit_s": (["decision_ms_p50", "decision_growth", "arrivals_per_s"], ["backlog"]),
    "allocator.admissible_ratio": (["decision_ms_p50", "decision_growth", "arrivals_per_s"], ["backlog"]),
    "runner.run_s": (["arrivals_per_s"], ["fleet"]),
    "runner.self_s": (["arrivals_per_s"], ["fleet"]),
    "report.emit_s": (["arrivals_per_s"], ["fleet"]),
    "report.bytes": (["arrivals_per_s"], ["fleet"]),
    "trace.overhead": ([], []),
}


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    if name == "report.bytes":
        return "B"
    return "count"


def _sources():
    src = ROOT / "src"
    if not (src / "hyperalloc" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no hyperalloc sources under {src}")
    return src


def load_package():
    """Import hyperalloc from the checkout's own sources."""
    sys.path.insert(0, str(_sources()))
    import hyperalloc

    return hyperalloc


class Workload:
    """Generated input for one (workload, seed) and the checks on its output."""

    def __init__(self, name, seed):
        self.name, self.seed = name, seed
        self.text = gen.generate(name, seed)
        expect = gen.expectations(name, seed)
        self.tasks, self.windows = expect["arrivals"], expect["windows"]
        self.n = len(self.tasks)
        if self.n < MIN_ARRIVALS:
            raise SystemExit(f"benchmark: {name} has {self.n} arrivals; p99 needs {MIN_ARRIVALS}")
        digests = json.loads((HERE / "digests.json").read_text())
        self.digest = digests.get(name, {}).get(str(seed))
        self.reference = None
        self.failed_per_rep = []

    def record(self, out):
        """Compare a repetition's report with the first one."""
        if self.reference is None:
            self.reference = out
            self.failed_per_rep.append(set())
        else:
            self.failed_per_rep.append(check.differing_arrivals(self.reference, out, self.n))

    def verdict(self):
        """(attempted, failed, messages) over every repetition recorded."""
        failed, messages = check.check_report(self.reference, self.tasks, self.windows)
        if self.digest is None:
            messages.append(f"no digest recorded for {self.name} seed {self.seed} (digests.json "
                            "covers seeds 0-31): the digest check is skipped, the others ran")
        elif check.digest(self.reference) != self.digest:
            failed = set(range(self.n))
            messages.append("decision/schedule digest differs from the recorded one")
        for k, diff in enumerate(self.failed_per_rep):
            if diff:
                messages.append(f"repetition {k} differs from repetition 0 on {len(diff)} arrivals")
        attempted = self.n * len(self.failed_per_rep)
        bad = sum(len(failed | diff) for diff in self.failed_per_rep)
        return attempted, bad, messages


def repetition(ha, text, tracer=None):
    """One pass from scenario text to jsonl; returns timings and output."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    t0 = perf_counter()
    with span("scenario.parse"):
        sc = ha.parse_scenario(text)
    t1 = perf_counter()
    with span("runner.run"):
        report = ha.run(sc)
    with span("report.emit"):
        out = ha.emit_report(report, "jsonl")
    t3 = perf_counter()
    return dict(parse=t1 - t0, run_entry=t1, end=t3, wall=t3 - t0, out=out, report=report)


def _parse_time(ha, text):
    """One parse of ``text``, timed right after the kernel, at the reference speed."""
    kernel_s = probes.kernel_time()
    start = perf_counter()
    ha.parse_scenario(text)
    return probes.at_reference_speed(perf_counter() - start, kernel_s)


def child(workload, seed, trace):
    """Run one repetition in this process and print its result as JSON.

    Every repetition gets a fresh process, as every ``hyperalloc
    allocate`` does, so each one starts from the same heap and garbage
    collector state and its peak resident memory is its own.
    """
    ha = load_package()
    wl = Workload(workload, seed)
    try:
        if trace:
            tracer = probes.Tracer()
            with tracer.installed():
                rep = repetition(ha, wl.text, tracer=tracer)
            tracer.require(workload)
            result = dict(layers=layer_metrics(tracer, rep), wall=rep["wall"])
        else:
            clock = probes.ArrivalClock()
            with clock.installed():
                rep = repetition(ha, wl.text)
            # Parse, the end of run after the last decision, and emit.
            outside = rep["parse"] + rep["end"] - clock.stamps[-1][1]
            result = dict(latencies=clock.latencies(rep["run_entry"], wl.n),
                          rest=probes.at_reference_speed(outside, clock.speed()),
                          wall=rep["wall"] - sum(clock.kernel))
    except probes.ProbeError as exc:
        raise SystemExit(f"benchmark: {exc}") from None
    result.update(out=rep["out"],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if not trace:
        # More parses after the run, outside every timed span.
        result["setup"] = statistics.median(_parse_time(ha, wl.text) for _ in range(SETUP_PARSES))
    print(json.dumps(result))


def _spawn(args, timeout):
    cmd = [sys.executable, str(Path(__file__).resolve()), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark: {' '.join(args)} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark: {' '.join(args)} exited with {proc.returncode}")
    return proc.stdout


def _repeat(wl, trace):
    args = ["--workload", wl.name, "--seed", str(wl.seed), "--trace", str(trace), "--child"]
    result = json.loads(_spawn(args, REPETITION_TIMEOUT_S))
    wl.record(result.pop("out"))
    return result


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure(wl, seconds):
    """Untraced repetitions: the end-to-end metrics.

    ``best[i]`` is arrival i's minimum latency over the repetitions.  The
    wall time behind ``arrivals_per_s`` is the sum of those minima plus
    the least time any repetition spent outside the arrivals (parse, the
    end of run, emit).  All times are at the reference speed (probes.py).
    """
    reps = []
    start = perf_counter()
    while not reps or perf_counter() - start < seconds:
        reps.append(_repeat(wl, 0))
    best = [min(column) for column in zip(*(r["latencies"] for r in reps))]
    rest = min(r["rest"] for r in reps)
    quarter = len(best) // 4
    ranked = sorted(best)
    p99 = percentile(ranked, 0.99)
    values = {
        "arrivals_per_s": wl.n / (sum(best) + rest),
        "decision_ms_p50": 1e3 * percentile(ranked, 0.50),
        "decision_ms_p99": 1e3 * p99,
        "decision_growth": statistics.median(best[-quarter:]) / statistics.median(best[:quarter]),
        "setup_s": statistics.median(r["setup"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    info = dict(repetitions=len(reps), arrivals=wl.n, beyond_p99=sum(v > p99 for v in best))
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, info


def layer_metrics(tracer, rep):
    t, own, calls, stats = tracer.total, tracer.self_time, tracer.calls, tracer.stats
    lookups = stats["network.route_lookups"]
    return {
        "scenario.parse_s": t["scenario.parse"],
        "network.com_t_max_s": t["network.com_t_max"],
        "network.com_t_max_calls": calls["network.com_t_max"],
        "network.route_lookups": lookups,
        "network.route_hit_ratio": 1.0 - len(stats.pairs) / lookups if lookups else 0.0,
        "delays.substream_s": t["delays.substream"],
        "delays.substream_calls": calls["delays.substream"],
        "delays.sample_delay_s": t["delays.sample_delay"],
        "delays.draws": stats["delays.draws"],
        "graphs.to_semilattice_s": t["graphs.to_semilattice"],
        "graphs.flow_predecessors_s": t["graphs.flow_predecessors"],
        "graphs.flow_critical_cost_s": t["graphs.flow_critical_cost"],
        "graphs.flow_critical_cost_calls": calls["graphs.flow_critical_cost"],
        "subspaces.pi_init_s": t["subspaces.pi_init"],
        "subspaces.pi_limit_s": own["subspaces.pi_limit"],
        "subspaces.omega_update_s": t["subspaces.omega_update"],
        "subspaces.omega_update_calls": calls["subspaces.omega_update"],
        "subspaces.dynamics_iterations": sum(c["iterations"] for c in rep["report"].convergence.values()),
        "allocator.allocate_s": own["allocator.allocate"],
        "allocator.schedule_impact_s": t["allocator.schedule_impact"],
        "allocator.schedule_impact_calls": calls["allocator.schedule_impact"],
        "allocator.entries_scanned": stats["allocator.entries_scanned"],
        "allocator.entries_shifted": stats["allocator.entries_shifted"],
        "allocator.reallocation_loss_s": t["allocator.reallocation_loss"],
        "allocator.commit_s": t["allocator.commit"],
        "allocator.admissible_ratio": stats["allocator.admissible"] / stats["allocator.candidates"],
        "runner.run_s": t["runner.run"],
        "runner.self_s": own["runner.run"],
        "report.emit_s": t["report.emit"],
        "report.bytes": len(rep["out"].encode()),
    }


def measure_traced(wl, seconds):
    """Pairs of an untraced and a traced repetition: the per-layer split.

    The tracing overhead is the median over pairs of the traced wall time
    over the untraced one, so that a change in machine speed between pairs
    cancels out.  Which of the two runs first alternates from pair to pair.
    """
    ratios, layers = [], []
    start = perf_counter()
    while len(ratios) < MIN_PAIRS or perf_counter() - start < seconds:
        if len(ratios) % 2:
            traced, plain = _repeat(wl, 1), _repeat(wl, 0)
        else:
            plain, traced = _repeat(wl, 0), _repeat(wl, 1)
        ratios.append(traced["wall"] / plain["wall"])
        layers.append(traced["layers"])
    values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    values["trace.overhead"] = statistics.median(ratios) - 1.0
    info = dict(pairs=len(ratios), overhead_per_pair=[r - 1.0 for r in ratios])
    return {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}, info


def run_one(workload, seed, seconds, trace):
    _sources()
    wl = Workload(workload, seed)
    metrics, info = (measure_traced if trace else measure)(wl, seconds)
    attempted, failed, messages = wl.verdict()
    for m in messages[:20]:
        print(f"check: {m}", file=sys.stderr)
    print(json.dumps(dict(workload=workload, seed=seed, trace=trace, **info)), file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _inputs(workload, seed, layers):
    props = gen.properties(workload, seed)
    scanned = layers["allocator.entries_scanned"]["value"]
    props["mean_entries_scanned_per_impact"] = scanned / layers["allocator.schedule_impact_calls"]["value"]
    return props


def run_all(seed, seconds, out_path):
    """Every workload, untraced then traced, each in its own process."""
    results = {}
    for workload in gen.WORKLOADS:
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            stdout = _spawn(args, 900.0)
            results[(workload, trace)] = json.loads(stdout.strip().splitlines()[-1])

    names = list(END_TO_END) + ["failed_share"] + list(LAYER_MAP)
    workloads = list(gen.WORKLOADS)
    rows = [["metric", "unit", *workloads]]
    for name in names:
        cells = []
        for workload in workloads:
            if name == "failed_share":
                r = results[(workload, 0)]
                cells.append(f"{r['failed'] / r['attempted']:.4g}")
                unit = "ratio"
            else:
                m = results[(workload, 0 if name in END_TO_END else 1)]["metrics"][name]
                cells.append(f"{m['value']:.6g}")
                unit = m["unit"]
        rows.append([name, unit, *cells])
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())

    if out_path:
        doc = {
            "seed": seed,
            "seconds": seconds,
            "layer_map": {k: {"moves": v[0], "on": v[1]} for k, v in LAYER_MAP.items()},
            "workloads": {
                w: {
                    "inputs": _inputs(w, seed, results[(w, 1)]["metrics"]),
                    "correct": results[(w, 0)]["correct"] and results[(w, 1)]["correct"],
                    "failed_share": results[(w, 0)]["failed"] / results[(w, 0)]["attempted"],
                    "end_to_end": results[(w, 0)]["metrics"],
                    "per_layer": results[(w, 1)]["metrics"],
                }
                for w in workloads
            },
        }
        Path(out_path).write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: also write the results as JSON here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.workload, args.seed, args.trace)
        return
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.out)
        return
    print(json.dumps(run_one(args.workload, args.seed, args.seconds, args.trace)))


if __name__ == "__main__":
    main()
