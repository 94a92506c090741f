"""Algorithm dependency graphs lifted into flow lattices.

A task decomposes into algorithms whose data dependencies form a DAG on
indices 1..n.  For flow analysis the graph is lifted: a virtual start
vertex feeds every source and a virtual finish vertex drains every sink.
An execution flow is a start-to-finish path of the lifted graph; flows
are enumerated in deterministic lexicographic order of their vertex
positions.

A lattice's vertices are integer positions, and positions are their only
names: the start at 0, algorithm i at position i, the finish at n + 1.
``sl.name(r)`` spells a position out (``start1``, ``A<i>``, ``finish1``)
where a vertex leaves the program in a message or a report.

Structures built here are treated as immutable and may be shared freely.
"""

from __future__ import annotations

import heapq

import numpy as np

from .errors import HyperallocError

DEFAULT_FLOW_CAP = 1_000_000


class GraphError(HyperallocError):
    """Invalid graph input or query."""


class CycleDetected(GraphError):
    """The edge set contains a directed cycle (self-edges included)."""


class IndexOutOfRange(GraphError):
    """A vertex index is not an int in 1..vertex_count."""


class FlowExplosion(GraphError):
    """The number of execution flows exceeds the enumeration cap."""


class SemiLattice:
    """Lifted graph: one virtual start and one virtual finish added.

    Vertices are positions ``0..size - 1``: the start at ``top = 0``,
    algorithm i at position i (``reals = range(1, n + 1)``) and the
    finish at ``bottom = n + 1``.  ``succ[r]`` and ``pred[r]`` list
    neighbour positions ascending; ``topo`` is a deterministic
    topological order.  Built through :func:`to_semilattice`.
    """

    __slots__ = ("succ", "pred", "top", "reals", "bottom", "size", "topo")

    def __init__(self, succ, pred, topo):
        self.succ = succ
        self.pred = pred
        self.top = 0
        self.size = len(succ)
        self.bottom = self.size - 1
        self.reals = range(1, self.bottom)
        self.topo = topo

    def name(self, r) -> str:
        """The name of position ``r``: ``start1``, ``A<i>`` or ``finish1``."""
        if r == self.top:
            return "start1"
        if r == self.bottom:
            return "finish1"
        return f"A{r}"

    def __repr__(self):
        return f"SemiLattice(vertices={self.size})"


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


def to_semilattice(vertex_count: int, edges) -> SemiLattice:
    """Validate a DAG on 1..vertex_count and lift it with a virtual start
    and finish, in one pass.

    ``edges`` is an iterable of (from_index, to_index) pairs.  An index
    that is not an int in 1..vertex_count raises IndexOutOfRange, a
    duplicate edge GraphError, and a cycle (self-edges included)
    CycleDetected; a graph without vertices raises GraphError.  The start
    points at every in-degree-0 vertex and every out-degree-0 vertex
    points at the finish; a lone vertex gets both edges.  Connectivity is
    a scenario rule (:func:`~hyperalloc.scenario.check_scenario`): a
    graph in several parts still gets one start and one finish.
    """
    n = vertex_count
    if n < 1:
        raise GraphError(f"graph needs at least one vertex, got {n}")
    top, bottom = 0, n + 1
    succ = [set() for _ in range(n + 2)]
    pred = [set() for _ in range(n + 2)]
    for a, b in edges:
        if not (isinstance(a, int) and isinstance(b, int) and 1 <= a <= n and 1 <= b <= n):
            raise IndexOutOfRange(f"edge ({a}, {b}) outside vertex range 1..{n}")
        if a == b:
            raise CycleDetected(f"self-edge on vertex {a}")
        if b in succ[a]:
            raise GraphError(f"duplicate edge ({a}, {b})")
        succ[a].add(b)
        pred[b].add(a)
    for i in range(1, n + 1):
        if not pred[i]:
            succ[top].add(i)
            pred[i].add(top)
        if not succ[i]:
            succ[i].add(bottom)
            pred[bottom].add(i)
    succ = tuple(tuple(sorted(ws)) for ws in succ)
    pred = tuple(tuple(sorted(ps)) for ps in pred)

    # Deterministic topological order: a heap of positions pops the lowest
    # ready one.  A position on or behind a cycle never becomes ready.
    indeg = [len(p) for p in pred]
    heap = [top]  # the only vertex without a predecessor
    topo = []
    while heap:
        v = heapq.heappop(heap)
        topo.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if not indeg[w]:
                heapq.heappush(heap, w)
    if len(topo) != n + 2:
        raise CycleDetected("edge set contains a directed cycle")
    return SemiLattice(succ, pred, tuple(topo))


def count_execution_flows(sl: SemiLattice) -> int:
    """Exact number of start-to-finish paths."""
    paths = [0] * sl.size
    for v in reversed(sl.topo):
        # only the finish has no successors
        paths[v] = sum(paths[w] for w in sl.succ[v]) if sl.succ[v] else 1
    return paths[sl.top]


def execution_flows(sl: SemiLattice, cap: int = DEFAULT_FLOW_CAP) -> list:
    """Enumerate all execution flows, each a tuple of positions from
    ``sl.top`` to ``sl.bottom``, in lexicographic order.

    Raises FlowExplosion when the exact flow count exceeds ``cap`` before
    any path is materialised.
    """
    total = count_execution_flows(sl)
    if total > cap:
        raise FlowExplosion(f"{total} execution flows exceed cap {cap}")
    flows = []
    # Iterative (no recursion limit); ascending successors keep the order.
    path = [sl.top]
    pending = [iter(sl.succ[sl.top])]
    while pending:
        w = next(pending[-1], None)
        if w is None:
            pending.pop()
            path.pop()
        elif w == sl.bottom:
            flows.append((*path, w))
        else:
            path.append(w)
            pending.append(iter(sl.succ[w]))
    return flows


def flow_predecessors(sl: SemiLattice) -> np.ndarray:
    """Boolean ``size`` x ``size`` matrix whose entry (r, p) is True when
    real vertex p precedes position r in at least one execution flow.

    That is when p is a real ancestor of r in the lifted graph: any
    ancestor extends upward to the start and r always reaches the finish,
    so some flow passes through both.  Rows are filled in ``sl.topo``
    order, each the union of its direct predecessors' rows, which hold
    their own positions on the diagonal until the sweep ends.
    """
    before = np.zeros((sl.size, sl.size), dtype=bool)
    for r in sl.topo:
        if sl.pred[r]:
            np.logical_or.reduce(before[list(sl.pred[r])], axis=0, out=before[r])
        before[r, r] = True
    np.fill_diagonal(before, False)
    before[:, sl.top] = False  # the start is virtual
    return before


def max_flow_length(sl: SemiLattice) -> int:
    """Edge count of the longest execution flow."""
    dist = [0] * sl.size
    for v in sl.topo:
        dist[v] = max((dist[u] + 1 for u in sl.pred[v]), default=0)
    return dist[sl.bottom]


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
    cost = np.zeros(sl.size) if vertex_cost is None else np.asarray(vertex_cost, dtype=float)
    column = (-1,) + (1,) * (cost.ndim - 1)  # edge costs broadcast over the k columns
    dist = np.empty_like(cost)
    with np.errstate(over="ignore"):  # an overflow gives inf, as float arithmetic does
        for v in sl.topo:
            preds = list(sl.pred[v])
            incoming = dist[preds]
            if edge_cost is not None and preds:
                incoming = incoming + np.reshape([edge_cost(u, v) for u in preds], column)
            dist[v] = cost[v] + (incoming.max(axis=0) if preds else 0.0)
    best = dist[sl.bottom]
    return best if cost.ndim > 1 else float(best)
