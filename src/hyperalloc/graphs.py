"""Algorithm dependency graphs lifted into flow lattices.

A task decomposes into algorithms whose data dependencies form a DAG on
indices 1..n.  For flow analysis each weakly connected component is
lifted: a virtual start vertex feeds every source of the component and a
virtual finish vertex drains every sink.  An execution flow is a
start-to-finish path of the lifted graph; flows are enumerated in
deterministic lexicographic order of their vertex index sequences.

A lattice's vertices are integer positions: all virtual starts (by
component), the real algorithms by ascending index, then all virtual
finishes.  Every pass works on positions; an :class:`AlgorithmId` only
names one (``sl.order[r]``), where vertices enter or leave the program.

Structures built here are treated as immutable and may be shared freely.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import HyperallocError

DEFAULT_FLOW_CAP = 1_000_000


class GraphError(HyperallocError):
    """Invalid graph input or query."""


class CycleDetected(GraphError):
    """The edge set contains a directed cycle (self-edges included)."""


class IndexOutOfRange(GraphError):
    """A vertex index lies outside 1..vertex_count."""


class UnknownVertex(GraphError):
    """The queried vertex is not part of the structure."""


class FlowExplosion(GraphError):
    """The number of execution flows exceeds the enumeration cap."""


@dataclass(frozen=True)
class AlgorithmId:
    """The name of a real algorithm (``A<index>``) or a virtual component endpoint.

    Virtual endpoints are numbered by their component (1-based); real
    vertices carry their algorithm index.
    """

    index: int
    is_virtual_top: bool = False
    is_virtual_bottom: bool = False

    @property
    def is_virtual(self) -> bool:
        return self.is_virtual_top or self.is_virtual_bottom

    def __str__(self) -> str:
        if self.is_virtual_top:
            return f"start{self.index}"
        if self.is_virtual_bottom:
            return f"finish{self.index}"
        return f"A{self.index}"


def algorithm(index: int) -> AlgorithmId:
    """Shorthand for a real algorithm id."""
    return AlgorithmId(index)


@dataclass(frozen=True)
class AlgorithmGraph:
    """Validated DAG over real algorithm indices 1..vertex_count.

    ``succ[i]`` and ``pred[i]`` list vertex i's neighbours ascending
    (entry 0 is empty).  Built through :func:`build_graph`.
    """

    vertex_count: int
    succ: tuple
    pred: tuple


@dataclass(frozen=True)
class Component:
    """One weakly connected component: the positions of its virtual
    endpoints and of its real members."""

    top: int
    bottom: int
    members: frozenset


class SemiLattice:
    """Lifted graph: per-component virtual tops and bottoms added.

    Vertices are positions ``0..len(order) - 1``: all virtual tops
    (component order), real vertices by ascending index (``reals``, so
    algorithm i sits at ``reals[i - 1]``), then all virtual bottoms.
    ``order`` names the vertex at each position and ``position`` maps a
    name back.  ``succ[r]`` and ``pred[r]`` list neighbour positions
    ascending; ``topo`` is a deterministic topological order.
    """

    __slots__ = ("base", "components", "succ", "pred", "order", "position", "reals", "topo")

    def __init__(self, base, components, succ, pred, order, topo):
        self.base = base
        self.components = components
        self.succ = succ
        self.pred = pred
        self.order = order
        self.position = {v: i for i, v in enumerate(order)}
        self.reals = range(len(components), len(components) + base.vertex_count)
        self.topo = topo

    def __repr__(self):
        return f"SemiLattice(vertices={len(self.order)}, components={len(self.components)})"


@dataclass(frozen=True)
class ExecutionFlow:
    """One start-to-finish path of a lifted component, as vertex names."""

    vertices: tuple
    component: int

    def __str__(self) -> str:
        return " -> ".join(str(v) for v in self.vertices)


def build_graph(vertex_count: int, edges) -> AlgorithmGraph:
    """Validate vertex indices and acyclicity; return the graph.

    ``edges`` is an iterable of (from_index, to_index) pairs on
    1..vertex_count.  Duplicate edges are rejected, cycles (including
    self-edges) raise CycleDetected.
    """
    if vertex_count < 0:
        raise IndexOutOfRange(f"vertex count must be non-negative, got {vertex_count}")
    succ = [set() for _ in range(vertex_count + 1)]
    pred = [set() for _ in range(vertex_count + 1)]
    for a, b in edges:
        if not (1 <= a <= vertex_count) or not (1 <= b <= vertex_count):
            raise IndexOutOfRange(
                f"edge ({a}, {b}) outside vertex range 1..{vertex_count}"
            )
        if a == b:
            raise CycleDetected(f"self-edge on vertex {a}")
        if b in succ[a]:
            raise GraphError(f"duplicate edge ({a}, {b})")
        succ[a].add(b)
        pred[b].add(a)

    # Kahn's algorithm; leftovers mean a directed cycle.
    indeg = [len(p) for p in pred]
    queue = [v for v in range(1, vertex_count + 1) if not indeg[v]]
    processed = 0
    while queue:
        v = queue.pop()
        processed += 1
        for w in succ[v]:
            indeg[w] -= 1
            if not indeg[w]:
                queue.append(w)
    if processed != vertex_count:
        raise CycleDetected("edge set contains a directed cycle")

    return AlgorithmGraph(
        vertex_count,
        tuple(tuple(sorted(s)) for s in succ),
        tuple(tuple(sorted(p)) for p in pred),
    )


def weak_component_count(vertex_count: int, edges) -> int:
    """Number of weakly connected components of a graph on 1..vertex_count,
    by union-find over the edge list, without lifting the graph."""
    parent = list(range(vertex_count + 1))

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    count = vertex_count
    for a, b in edges:
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def to_semilattice(g: AlgorithmGraph) -> SemiLattice:
    """Lift each weakly connected component with virtual endpoints.

    The virtual top points at every in-degree-0 member and every
    out-degree-0 member points at the virtual bottom.  An isolated vertex
    gets both edges.  Components are numbered by their lowest index.
    """
    n = g.vertex_count
    seen = [False] * (n + 1)
    raw_components = []
    for seed in range(1, n + 1):  # each component is seeded at its lowest index
        if seen[seed]:
            continue
        seen[seed] = True
        members = [seed]
        for v in members:  # grows while it is walked
            for w in g.succ[v] + g.pred[v]:
                if not seen[w]:
                    seen[w] = True
                    members.append(w)
        raw_components.append(sorted(members))

    c = len(raw_components)
    real = c - 1  # algorithm i sits at position real + i
    succ = [[] for _ in range(c)] + [[real + w for w in ws] for ws in g.succ[1:]] + [[] for _ in range(c)]
    pred = [[] for _ in range(c)] + [[real + w for w in ws] for ws in g.pred[1:]] + [[] for _ in range(c)]
    components = []
    for k, members in enumerate(raw_components):
        top, bottom = k, c + n + k
        for i in members:
            if not g.pred[i]:
                succ[top].append(real + i)
                pred[real + i].insert(0, top)
            if not g.succ[i]:
                succ[real + i].append(bottom)
                pred[bottom].append(real + i)
        components.append(Component(top, bottom, frozenset(real + i for i in members)))

    order = (
        tuple(AlgorithmId(k, is_virtual_top=True) for k in range(1, c + 1))
        + tuple(AlgorithmId(i) for i in range(1, n + 1))
        + tuple(AlgorithmId(k, is_virtual_bottom=True) for k in range(1, c + 1))
    )

    # Deterministic topological order: a heap of positions pops the lowest ready one.
    indeg = [len(p) for p in pred]
    heap = [v for v in range(len(order)) if not indeg[v]]  # ascending, so a heap
    topo = []
    while heap:
        v = heapq.heappop(heap)
        topo.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if not indeg[w]:
                heapq.heappush(heap, w)

    return SemiLattice(g, tuple(components), tuple(map(tuple, succ)), tuple(map(tuple, pred)), order, tuple(topo))


def count_execution_flows(sl: SemiLattice) -> int:
    """Exact number of start-to-finish paths, summed over components."""
    paths = [0] * len(sl.order)
    for v in reversed(sl.topo):
        # only virtual bottoms have no successors
        paths[v] = sum(paths[w] for w in sl.succ[v]) if sl.succ[v] else 1
    return sum(paths[c.top] for c in sl.components)


def execution_flows(sl: SemiLattice, cap: int = DEFAULT_FLOW_CAP) -> list:
    """Enumerate all execution flows in lexicographic vertex-index order.

    Raises FlowExplosion when the exact flow count exceeds ``cap`` before
    any path is materialised.
    """
    total = count_execution_flows(sl)
    if total > cap:
        raise FlowExplosion(f"{total} execution flows exceed cap {cap}")
    flows = []
    for ci, comp in enumerate(sl.components, start=1):
        # Iterative (no recursion limit); ascending successors keep the order.
        path = [comp.top]
        pending = [iter(sl.succ[comp.top])]
        while pending:
            w = next(pending[-1], None)
            if w is None:
                pending.pop()
                path.pop()
            elif w == comp.bottom:
                flows.append(ExecutionFlow(tuple(sl.order[v] for v in (*path, w)), ci))
            else:
                path.append(w)
                pending.append(iter(sl.succ[w]))
    return flows


def flow_predecessors(sl: SemiLattice, r: int) -> list:
    """Positions of the real vertices that precede position ``r`` in at
    least one execution flow, ascending.

    Equals the real ancestors of ``r`` in the lifted graph: any ancestor
    extends upward to the component's start and ``r`` always reaches the
    finish, so some flow passes through both.
    """
    if not 0 <= r < len(sl.order):
        raise UnknownVertex(f"position {r} not in lattice")
    seen = set(sl.pred[r])
    frontier = list(seen)
    while frontier:
        for w in sl.pred[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return sorted(seen.intersection(sl.reals))


def max_flow_length(sl: SemiLattice) -> int:
    """Edge count of the longest execution flow (0 for an empty lattice)."""
    dist = [0] * len(sl.order)
    for v in sl.topo:
        dist[v] = max((dist[u] + 1 for u in sl.pred[v]), default=0)
    return max((dist[c.bottom] for c in sl.components), default=0)


def flow_critical_cost(sl: SemiLattice, vertex_cost=None, edge_cost=None):
    """Maximum over execution flows of the summed vertex and edge costs.

    Computed exactly by longest-path dynamic programming over the lifted
    DAG, so it never enumerates flows.  ``vertex_cost`` holds one cost per
    position, or one row of k costs per position: then k cost assignments
    are solved in one pass and an array of k results comes back, each
    column bit for bit its own one-vector result (every column repeats
    ``base + max(incoming)``).  ``edge_cost(u, v)`` takes positions.  Both
    default to zero.
    """
    cost = np.zeros(len(sl.order)) if vertex_cost is None else np.asarray(vertex_cost, dtype=float)
    if not sl.components:
        return np.zeros(cost.shape[1:]) if cost.ndim > 1 else 0.0
    column = (-1,) + (1,) * (cost.ndim - 1)  # edge costs broadcast over the k columns
    dist = np.empty_like(cost)
    with np.errstate(over="ignore"):  # an overflow gives inf, as float arithmetic does
        for v in sl.topo:
            preds = list(sl.pred[v])
            incoming = dist[preds]
            if edge_cost is not None and preds:
                incoming = incoming + np.reshape([edge_cost(u, v) for u in preds], column)
            dist[v] = cost[v] + (incoming.max(axis=0) if preds else 0.0)
    best = dist[[c.bottom for c in sl.components]].max(axis=0)
    return best if cost.ndim > 1 else float(best)
