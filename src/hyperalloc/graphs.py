"""Algorithm dependency graphs lifted into flow lattices.

A task decomposes into algorithms whose data dependencies form a DAG on
indices 1..n.  For flow analysis each weakly connected component is
lifted: a virtual start vertex feeds every source of the component and a
virtual finish vertex drains every sink.  An execution flow is a
start-to-finish path of the lifted graph; flows are enumerated in
deterministic lexicographic order of their vertex index sequences.

Structures built here are treated as immutable and may be shared freely.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

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
    """A real algorithm (``A<index>``) or a virtual component endpoint.

    Virtual endpoints are numbered by their component (1-based); real
    vertices carry their algorithm index.
    """

    index: int
    is_virtual_top: bool = False
    is_virtual_bottom: bool = False

    @property
    def is_virtual(self) -> bool:
        return self.is_virtual_top or self.is_virtual_bottom

    def sort_key(self) -> tuple[int, int]:
        if self.is_virtual_top:
            kind = 0
        elif self.is_virtual_bottom:
            kind = 2
        else:
            kind = 1
        return (kind, self.index)

    def __str__(self) -> str:
        if self.is_virtual_top:
            return f"start{self.index}"
        if self.is_virtual_bottom:
            return f"finish{self.index}"
        return f"A{self.index}"


def algorithm(index: int) -> AlgorithmId:
    """Shorthand for a real algorithm id."""
    return AlgorithmId(index)


class AlgorithmGraph:
    """Validated DAG over real algorithm vertices.

    Built through :func:`build_graph`; do not mutate after construction.
    """

    __slots__ = ("vertex_count", "vertices", "edges", "succ", "pred")

    def __init__(self, vertex_count, vertices, edges, succ, pred):
        self.vertex_count = vertex_count
        self.vertices = vertices  # frozenset[AlgorithmId]
        self.edges = edges  # frozenset[(AlgorithmId, AlgorithmId)]
        self.succ = succ  # dict[AlgorithmId, tuple[AlgorithmId, ...]]
        self.pred = pred

    def __repr__(self):
        return f"AlgorithmGraph(n={self.vertex_count}, edges={len(self.edges)})"


@dataclass(frozen=True)
class Component:
    """One weakly connected component with its virtual endpoints."""

    top: AlgorithmId
    bottom: AlgorithmId
    members: frozenset


class SemiLattice:
    """Lifted graph: per-component virtual tops and bottoms added.

    ``order`` lists vertices as all virtual tops (component order), real
    vertices by ascending index, then all virtual bottoms; ``position``
    maps a vertex to its slot in that order.  ``topo`` is a deterministic
    topological order of the lifted DAG.
    """

    __slots__ = ("base", "components", "succ", "pred", "order", "position", "topo")

    def __init__(self, base, components, succ, pred, order, topo):
        self.base = base
        self.components = components
        self.succ = succ
        self.pred = pred
        self.order = order
        self.position = {v: i for i, v in enumerate(order)}
        self.topo = topo

    def __repr__(self):
        return f"SemiLattice(vertices={len(self.order)}, components={len(self.components)})"


@dataclass(frozen=True)
class ExecutionFlow:
    """One start-to-finish path of a lifted component."""

    vertices: tuple
    component: int

    def real_vertices(self) -> tuple:
        return tuple(v for v in self.vertices if not v.is_virtual)

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
    vertices = frozenset(AlgorithmId(i) for i in range(1, vertex_count + 1))
    succ = {v: set() for v in vertices}
    pred = {v: set() for v in vertices}
    seen = set()
    for a, b in edges:
        if not (1 <= a <= vertex_count) or not (1 <= b <= vertex_count):
            raise IndexOutOfRange(
                f"edge ({a}, {b}) outside vertex range 1..{vertex_count}"
            )
        if a == b:
            raise CycleDetected(f"self-edge on vertex {a}")
        if (a, b) in seen:
            raise GraphError(f"duplicate edge ({a}, {b})")
        seen.add((a, b))
        succ[AlgorithmId(a)].add(AlgorithmId(b))
        pred[AlgorithmId(b)].add(AlgorithmId(a))

    # Kahn's algorithm; leftovers mean a directed cycle.
    indeg = {v: len(pred[v]) for v in vertices}
    queue = [v for v in vertices if indeg[v] == 0]
    processed = 0
    while queue:
        v = queue.pop()
        processed += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if processed != vertex_count:
        raise CycleDetected("edge set contains a directed cycle")

    return AlgorithmGraph(
        vertex_count,
        vertices,
        frozenset((a, b) for a in succ for b in succ[a]),
        {v: tuple(sorted(succ[v], key=AlgorithmId.sort_key)) for v in vertices},
        {v: tuple(sorted(pred[v], key=AlgorithmId.sort_key)) for v in vertices},
    )


def to_semilattice(g: AlgorithmGraph) -> SemiLattice:
    """Lift each weakly connected component with virtual endpoints.

    The virtual top points at every in-degree-0 member and every
    out-degree-0 member points at the virtual bottom.  An isolated vertex
    gets both edges.
    """
    remaining = set(g.vertices)
    raw_components = []
    while remaining:
        seed = min(remaining, key=AlgorithmId.sort_key)
        comp = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for w in g.succ[v] + g.pred[v]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        remaining -= comp
        raw_components.append(comp)
    raw_components.sort(key=lambda c: min(v.index for v in c))

    succ = {v: list(g.succ[v]) for v in g.vertices}
    pred = {v: list(g.pred[v]) for v in g.vertices}
    components = []
    for ci, members in enumerate(raw_components, start=1):
        top = AlgorithmId(ci, is_virtual_top=True)
        bottom = AlgorithmId(ci, is_virtual_bottom=True)
        sources = sorted((v for v in members if not g.pred[v]), key=AlgorithmId.sort_key)
        sinks = sorted((v for v in members if not g.succ[v]), key=AlgorithmId.sort_key)
        succ[top] = sources
        pred[top] = []
        succ[bottom] = []
        pred[bottom] = sinks
        for v in sources:
            pred[v] = [top] + pred[v]
        for v in sinks:
            succ[v] = succ[v] + [bottom]
        components.append(Component(top, bottom, frozenset(members)))

    order = (
        [c.top for c in components]
        + sorted(g.vertices, key=AlgorithmId.sort_key)
        + [c.bottom for c in components]
    )
    succ = {v: tuple(succ[v]) for v in order}
    pred = {v: tuple(pred[v]) for v in order}

    # Deterministic topological order via a heap keyed on vertex kind/index.
    indeg = {v: len(pred[v]) for v in order}
    heap = [(v.sort_key(), v) for v in order if indeg[v] == 0]
    heapq.heapify(heap)
    topo = []
    while heap:
        _, v = heapq.heappop(heap)
        topo.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, (w.sort_key(), w))

    return SemiLattice(g, tuple(components), succ, pred, tuple(order), tuple(topo))


def count_execution_flows(sl: SemiLattice) -> int:
    """Exact number of start-to-finish paths, summed over components."""
    paths = {}
    for v in reversed(sl.topo):
        if v.is_virtual_bottom:
            paths[v] = 1
        else:
            paths[v] = sum(paths[w] for w in sl.succ[v])
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
            elif w.is_virtual_bottom:
                flows.append(ExecutionFlow((*path, w), ci))
            else:
                path.append(w)
                pending.append(iter(sl.succ[w]))
    return flows


def flow_predecessors(sl: SemiLattice, a: AlgorithmId) -> set:
    """Real vertices that precede ``a`` in at least one execution flow.

    Equals the set of real ancestors of ``a`` in the lifted graph: any
    ancestor extends upward to the component's start and ``a`` always
    reaches the finish, so some flow passes through both.
    """
    if a not in sl.position:
        raise UnknownVertex(f"vertex {a} not in lattice")
    out = set()
    frontier = [a]
    seen = {a}
    while frontier:
        v = frontier.pop()
        for w in sl.pred[v]:
            if w not in seen:
                seen.add(w)
                if not w.is_virtual:
                    out.add(w)
                frontier.append(w)
    return out


def max_flow_length(sl: SemiLattice) -> int:
    """Edge count of the longest execution flow (0 for an empty lattice)."""
    dist = {}
    best = 0
    for v in sl.topo:
        dist[v] = max((dist[u] + 1 for u in sl.pred[v]), default=0)
        if v.is_virtual_bottom:
            best = max(best, dist[v])
    return best


def flow_critical_cost(sl: SemiLattice, vertex_cost=None, edge_cost=None) -> float:
    """Maximum over execution flows of the summed vertex and edge costs.

    Computed exactly by longest-path dynamic programming over the lifted
    DAG, so it never enumerates flows.  Cost callables default to zero.
    """
    if not sl.components:
        return 0.0
    vcost = vertex_cost or (lambda v: 0.0)
    ecost = edge_cost or (lambda u, v: 0.0)
    dist = {}
    for v in sl.topo:
        base = vcost(v)
        incoming = [dist[u] + ecost(u, v) for u in sl.pred[v]]
        dist[v] = base + (max(incoming) if incoming else 0.0)
    return max(dist[c.bottom] for c in sl.components)
