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

The model is built from a scenario that ``check_scenario`` accepted: its
node and link tuples go in as they are, and nothing here checks kinds,
duplicates, endpoints, link parameters or request counts again.  Queries
still check their own arguments.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .delays import ErlangDelay, added_in_order, delay_mean, delay_sum, sample_delay
from .errors import HyperallocError

NODE_KINDS = ("robot", "fog", "cloud")
MODES = ("expected", "sample")


class NetworkError(HyperallocError):
    """Invalid network query."""


class Unreachable(NetworkError):
    """No path exists between the requested nodes."""


def node_order(declarations) -> list:
    """``(label, kind)`` declarations in node index order: robots, then
    fog, then cloud, each in declaration order.  A declaration of another
    kind is left out."""
    return [(label, kind) for k in NODE_KINDS for label, kind in declarations if kind == k]


@dataclass(frozen=True)
class NodeRef:
    kind: str
    idx: int
    label: str


@dataclass(frozen=True)
class Link:
    """Bidirectional link: constant time plus an exponential delay at ``rate``."""

    a: str
    b: str
    constant_time: float
    rate: float

    @property
    def expected_one_way(self) -> float:
        return self.constant_time + 1.0 / self.rate


@dataclass(frozen=True)
class Route:
    path: tuple  # node labels, source first
    links: tuple  # one Link per hop
    expected_one_way: float


class NetworkModel:
    """Nodes with kind-ordered indices plus a symmetric link set.

    ``declarations`` are checked ``(label, kind)`` pairs and ``links``
    checked ``(a, b, constant_time, rate)`` tuples.  Indices are a
    bijection onto 1..N in :func:`node_order`.  Instances are treated as
    immutable; the route cache and round-trip matrix fill lazily,
    idempotently.
    """

    def __init__(self, declarations, links):
        ordered = node_order(declarations)
        self.ordered = tuple(NodeRef(kind, i, label) for i, (label, kind) in enumerate(ordered, start=1))
        self.nodes = {ref.label: ref for ref in self.ordered}
        self.links = tuple(Link(*link) for link in links)
        adjacency = {ref.label: [] for ref in self.ordered}
        for link in self.links:
            adjacency[link.a].append((link.b, link))
            adjacency[link.b].append((link.a, link))
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
    """Checked request counts per (task, source node, target node); zero counts are dropped."""

    def __init__(self, counts=None):
        self._counts = {key: k for key, k in (counts or {}).items() if k}
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
        out[dst] = delay_sum(constant, [ErlangDelay(2 * k, link.rate) for link in links])
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
