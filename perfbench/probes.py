"""Timing probes wrapped around hyperalloc's public functions.

Nothing here edits the package: a probe replaces a module attribute with
a timing wrapper for the length of a ``with`` block and puts the original
back afterwards.  A wrapper is installed where the caller looks the name
up (``runner.allocate``, not ``allocator.allocate``), because a module
that did ``from .allocator import allocate`` holds its own reference.

``Tracer`` keeps a span stack, so each span's self time excludes the
time of the probed spans it encloses.  ``ArrivalClock`` is the only probe
on the untraced path: it stamps every return of ``runner.commit_decision``
and then times a fixed kernel, outside every latency, to read the speed of
the machine at that moment.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class ProbeError(RuntimeError):
    """A probed name is missing, or a required layer was never called."""


def _schedule_impact_counts(stats, args, result):
    stats["allocator.entries_scanned"] += len(args[0])
    if result is not None:
        stats["allocator.entries_shifted"] += len(result.affected)


def _allocate_counts(stats, args, result):
    if result is None:
        return
    stats["allocator.candidates"] += len(result.candidates)
    stats["allocator.admissible"] += sum(c.admissible for c in result.candidates)


def _route_counts(stats, args, result):
    stats["network.route_lookups"] += 1
    stats.pairs.add((args[1], args[2]))


def _draw_counts(stats, args, result):
    stats["delays.draws"] += sum(term.shape for term in args[0].terms)


# (span name, module, attribute, counter hook, workloads that must call it)
ALL = ("fleet", "backlog", "deepdag")
PROBES = (
    ("allocator.allocate", "hyperalloc.runner", "allocate", _allocate_counts, ALL),
    ("allocator.commit", "hyperalloc.runner", "commit_decision", None, ALL),
    ("allocator.schedule_impact", "hyperalloc.allocator", "schedule_impact", _schedule_impact_counts, ALL),
    ("allocator.reallocation_loss", "hyperalloc.allocator", "reallocation_loss", None, ALL),
    ("network.com_t_max", "hyperalloc.runner", "com_t_max", None, ALL),
    ("network.shortest_comm_path", "hyperalloc.network", "shortest_comm_path", _route_counts, ALL),
    ("delays.substream", "hyperalloc.runner", "substream", None, ("backlog",)),
    ("delays.sample_delay", "hyperalloc.network", "sample_delay", _draw_counts, ("backlog",)),
    ("graphs.to_semilattice", "hyperalloc.runner", "to_semilattice", None, ALL),
    ("graphs.flow_predecessors", "hyperalloc.subspaces", "flow_predecessors", None, ALL),
    ("graphs.flow_critical_cost", "hyperalloc.runner", "flow_critical_cost", None, ALL),
    ("subspaces.pi_init", "hyperalloc.runner", "pi_init", None, ALL),
    ("subspaces.pi_limit", "hyperalloc.runner", "pi_limit", None, ALL),
    ("subspaces.omega_update", "hyperalloc.subspaces", "omega_update", None, ALL),
)


def _lookup(module_name, attr):
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ProbeError(f"probe module {module_name} cannot be imported: {exc}") from None
    if not callable(getattr(module, attr, None)):
        raise ProbeError(f"probe target {module_name}.{attr} is missing")
    return module


@contextmanager
def patched(replacements):
    """Install ``{(module, attr): wrapper_factory}`` for the block."""
    saved = []
    try:
        for (module_name, attr), make in replacements.items():
            module = _lookup(module_name, attr)
            original = getattr(module, attr)
            setattr(module, attr, make(original))
            saved.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Stats(defaultdict):
    """Counters by name, plus the distinct ordered route pairs seen."""

    def __init__(self):
        super().__init__(float)
        self.pairs = set()


class Tracer:
    """Inclusive time, self time and call count per span name.

    Spans are aggregated as they close instead of being stored one by
    one: a fleet repetition opens well over a hundred thousand.
    """

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.stats = Stats()
        self._stack = []  # child time accumulated by each open span

    @contextmanager
    def span(self, name):
        self._stack.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, perf_counter() - start)

    def _close(self, name, elapsed):
        children = self._stack.pop()
        self.total[name] += elapsed
        self.self_time[name] += elapsed - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += elapsed

    def wrap(self, name, fn, hook=None):
        stack, close, stats = self._stack, self._close, self.stats

        def probe(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                close(name, perf_counter() - start)
                if hook is not None:
                    hook(stats, args, result)

        return probe

    def installed(self, probes=PROBES):
        return patched({(mod, attr): self._factory(name, hook) for name, mod, attr, hook, _ in probes})

    def _factory(self, name, hook):
        return lambda fn: self.wrap(name, fn, hook)

    def require(self, workload, probes=PROBES):
        """Fail when a layer the workload must exercise was never called."""
        silent = [f"{mod}.{attr}" for name, mod, attr, _, needed in probes
                  if workload in needed and not self.calls[name]]
        if silent:
            raise ProbeError(f"probed layers never called on {workload}: {', '.join(silent)}")


# The kernel's time under CPython 3.11 on a 2-vCPU Intel Xeon KVM guest
# while its host is quiet.  Times are reported at this speed: a time
# measured while the kernel takes twice as long counts half.
REFERENCE_KERNEL_S = 80e-6
# Arrivals on each side whose kernel times give an arrival's speed.
SPEED_WINDOW = 25


def kernel():
    """Fixed interpreter work of the allocator's kind: dict, int and str."""
    counts = {}
    total = 0
    for i in range(300):
        counts[i & 31] = counts.get(i & 31, 0.0) + i * 0.5
        total += len(str(i))
    return total


def kernel_time():
    """Seconds one run of the kernel takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def at_reference_speed(seconds, kernel_s):
    """A time measured while the kernel took ``kernel_s``, at the reference speed."""
    return seconds * REFERENCE_KERNEL_S / kernel_s


class ArrivalClock:
    """Stamps each return of ``runner.commit_decision`` (one per arrival).

    After each stamp the kernel runs once and is timed; the next arrival's
    latency starts when it ends.  On a shared host machine speed can swing
    by half within seconds, so each latency is scaled to the reference
    speed by the median kernel time of the arrivals around it.
    """

    def __init__(self):
        self.stamps = []  # (commit_decision returned, kernel ended)
        self.kernel = []

    def installed(self):
        def make(fn):
            stamps, kernel_times = self.stamps, self.kernel

            def clocked(*args, **kwargs):
                result = fn(*args, **kwargs)
                returned = perf_counter()
                kernel()
                ended = perf_counter()
                stamps.append((returned, ended))
                kernel_times.append(ended - returned)
                return result

            return clocked

        return patched({("hyperalloc.runner", "commit_decision"): make})

    def latencies(self, run_entry, arrivals):
        """Per-arrival decision latency in seconds at the reference speed;
        arrival 0 is timed from run entry."""
        if len(self.stamps) != arrivals:
            raise ProbeError(
                f"runner.commit_decision returned {len(self.stamps)} times for {arrivals} arrivals"
            )
        starts = [run_entry] + [ended for _, ended in self.stamps[:-1]]
        return [
            at_reference_speed(returned - start, self.speed(i))
            for i, ((returned, _), start) in enumerate(zip(self.stamps, starts))
        ]

    def speed(self, i=None):
        """Median kernel time around arrival ``i``, or over the whole run."""
        if i is None:
            return statistics.median(self.kernel)
        return statistics.median(self.kernel[max(0, i - SPEED_WINDOW): i + SPEED_WINDOW + 1])
