"""Robot/fog/cloud topology, routing, and communication time totals.

Links are bidirectional with symmetric parameters: a constant
transmission time plus an exponential random delay per traversal.  A
request/response exchange crosses every hop twice, so one round trip over
a path costs twice the constant total plus two exponential draws per hop;
``k`` exchanges cost ``2k`` times the constants plus Erlang(2k, rate)
per hop.

Routing minimises the expected one-way time (constant + mean delay); one
search from a source resolves its routes to every other node, and ties
break on the lexicographically smallest node-index sequence, which keeps
every downstream quantity deterministic.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .delays import ErlangDelay, ExponentialDelay, added_in_order, delay_mean, delay_sum, sample_delay
from .errors import HyperallocError

NODE_KINDS = ("robot", "fog", "cloud")
MODES = ("expected", "sample")


class NetworkError(HyperallocError):
    """Invalid network input or query."""


class Unreachable(NetworkError):
    """No path exists between the requested nodes."""


@dataclass(frozen=True)
class NodeRef:
    kind: str
    idx: int
    label: str


@dataclass(frozen=True)
class Link:
    """Bidirectional link: constant time plus exponential extra delay."""

    a: str
    b: str
    constant_time: float
    delay: ExponentialDelay

    def __post_init__(self):
        if self.a == self.b:
            raise NetworkError(f"link endpoints must differ, got {self.a}")
        if self.constant_time < 0:
            raise NetworkError(f"link constant time must be non-negative, got {self.constant_time}")

    @property
    def expected_one_way(self) -> float:
        return self.constant_time + self.delay.mean


@dataclass(frozen=True)
class Route:
    path: tuple  # node labels, source first
    links: tuple  # one Link per hop
    expected_one_way: float


class NetworkModel:
    """Nodes with kind-ordered indices plus a symmetric link set.

    Indices are a bijection onto 1..N assigned by kind (robots first,
    then fog, then cloud) in declaration order.  Instances are treated as
    immutable; the route cache and round-trip matrix fill lazily, idempotently.
    """

    def __init__(self, declarations, links):
        by_kind = {"robot": [], "fog": [], "cloud": []}
        labels = set()
        for label, kind in declarations:
            if kind not in NODE_KINDS:
                raise NetworkError(f"unknown node kind {kind!r} for {label}")
            if label in labels:
                raise NetworkError(f"duplicate node label {label}")
            labels.add(label)
            by_kind[kind].append(label)
        ordered = []
        for kind in NODE_KINDS:
            for label in by_kind[kind]:
                ordered.append(NodeRef(kind, len(ordered) + 1, label))
        self.ordered = tuple(ordered)
        self.nodes = {ref.label: ref for ref in ordered}

        adjacency = {ref.label: [] for ref in ordered}
        seen_pairs = set()
        checked = []
        for link in links:
            if link.a not in self.nodes or link.b not in self.nodes:
                raise NetworkError(f"link references undeclared node: {link.a}-{link.b}")
            pair = frozenset((link.a, link.b))
            if pair in seen_pairs:
                raise NetworkError(f"duplicate link {link.a}-{link.b}")
            seen_pairs.add(pair)
            adjacency[link.a].append((link.b, link))
            adjacency[link.b].append((link.a, link))
            checked.append(link)
        self.links = tuple(checked)
        self.adjacency = {
            label: tuple(sorted(neigh, key=lambda item: self.nodes[item[0]].idx))
            for label, neigh in adjacency.items()
        }
        self._routes = {}
        self._round_trips = None

    def node(self, label: str) -> NodeRef:
        try:
            return self.nodes[label]
        except KeyError:
            raise NetworkError(f"unknown node {label!r}") from None


class RequestProfile:
    """Request counts per (task, source node, target node)."""

    def __init__(self, counts=None):
        self._counts = {}
        for key, k in (counts or {}).items():
            task, src, dst = key
            if not isinstance(k, int) or k < 0:
                raise NetworkError(f"request count must be a non-negative integer, got {k!r}")
            if k:
                self._counts[(task, src, dst)] = k
        targets = {}
        for task, src, dst in self._counts:
            targets.setdefault((task, src), []).append(dst)
        self._targets = {key: tuple(sorted(dsts)) for key, dsts in targets.items()}

    def count(self, task, src, dst) -> int:
        return self._counts.get((task, src, dst), 0)

    def targets(self, task, src) -> tuple:
        return self._targets.get((task, src), ())


def shortest_comm_path(net: NetworkModel, a: str, b: str) -> Route:
    """Minimum expected one-way time route from a to b.

    Dijkstra over hop costs ``constant + 1/rate``; cost ties resolve to
    the lexicographically smallest node-index sequence.  Routes are
    cached on the model per ordered pair: a miss runs the search from
    ``a`` to completion and caches the route to every node it reaches.
    The search for one pair alone would be a prefix of that run, popping
    the same entries in the same order, so its route is the same.
    """
    src, dst = net.node(a), net.node(b)
    if a == b:
        raise NetworkError(f"route endpoints must differ, got {a}")
    cached = net._routes.get((a, b))
    if cached is not None:
        return cached

    # Heap entries carry (cost, idx path) so equal-cost pops settle in
    # lexicographic order; the first pop per node is final.
    heap = [(0.0, (src.idx,), a, ())]
    settled = set()
    while heap:
        cost, idx_path, label, hops = heapq.heappop(heap)
        if label in settled:
            continue
        settled.add(label)
        if hops:
            net._routes[(a, label)] = Route(
                tuple(net.ordered[i - 1].label for i in idx_path),
                hops,
                cost,
            )
        for neigh, link in net.adjacency[label]:
            if neigh in settled:
                continue
            heapq.heappush(
                heap,
                (cost + link.expected_one_way, idx_path + (net.nodes[neigh].idx,), neigh, hops + (link,)),
            )
    route = net._routes.get((a, b))
    if route is None:
        raise Unreachable(f"no path from {a} to {b}")
    return route


def comm_delays(net, profile, task, src) -> dict:
    """Round-trip delay distribution from src to each request target of a task.

    Maps each target, in node-index order, to the canonical DelaySum of
    its ``k`` request/response exchanges: ``2k`` constants per hop plus
    Erlang(2k, rate) per hop.  Requests from src to itself cost nothing
    and are left out.
    """
    out = {}
    for dst in sorted(profile.targets(task, src), key=lambda lbl: net.node(lbl).idx):
        if dst == src:
            continue
        k = profile.count(task, src, dst)
        links = shortest_comm_path(net, src, dst).links
        constant = 2 * k * added_in_order(link.constant_time for link in links)
        out[dst] = delay_sum(constant, [ErlangDelay(2 * k, link.delay.rate) for link in links])
    return out


def com_t_max(delays, rng=None) -> float:
    """Worst per-target communication total of a :func:`comm_delays` table.

    Without a generator each target counts with its mean; with one, with
    one draw, taken target by target in the table's node-index order so
    that the generator is consumed deterministically.  An empty table
    means no communication: 0.0.
    """
    worst = 0.0
    for dist in delays.values():
        worst = max(worst, delay_mean(dist) if rng is None else sample_delay(dist, rng))
    return worst


def ict(comt: float) -> float:
    """Communication instability: reciprocal time, infinite when zero.

    A task with no communication is perfectly stable under this measure,
    hence the +inf convention for ``comt == 0``.
    """
    if comt < 0:
        raise ValueError(f"communication time must be non-negative, got {comt}")
    if comt == 0:
        return math.inf
    return 1.0 / comt


def round_trip_matrix(net: NetworkModel) -> np.ndarray:
    """Expected single round-trip times between every node pair.

    Entry (i, j) holds twice the expected one-way route cost between the
    nodes with indices i+1 and j+1; the diagonal is zero.  The matrix is
    built once per model, with one route search per source node, and
    returned read-only: every caller shares it.
    """
    if net._round_trips is None:
        n = len(net.ordered)
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                route = shortest_comm_path(net, net.ordered[i].label, net.ordered[j].label)
                out[i, j] = out[j, i] = 2.0 * route.expected_one_way
        out.flags.writeable = False
        net._round_trips = out
    return net._round_trips
