"""Per-subspace suitability measures and their product combination.

A task/node pairing is scored inside three independent subspaces:

* compatibility: binary, 1 when the node may take the task at all;
* communication: reciprocal of the worst per-target communication total,
  with zero communication mapping to +inf (perfect stability);
* capability: product of the running-maximum allocation probabilities of
  the task's virtual start and finish vertices on that node (the
  lattice's ``top`` and ``bottom`` rows).

The combined suitability is the product over selected subspaces, with
two conventions: any zero annihilates the product (+inf times zero is
zero, incompatibility dominates) and +inf times a positive factor stays
+inf.

Capability runs a discrete dynamic over a row-stochastic matrix ``pi``
(rows: positions of the task's flow lattice, so algorithm i is row i;
columns: nodes).  Row initialisation multiplies two attenuation factors
and normalises:

* ``a1``: one minus the node's share of the total execution time of the
  algorithm (a zero execution time contributes no share, so its factor
  is one);
* ``a2``: one minus the node's share of the total round-trip time to the
  hosts of the algorithm's flow predecessors (zero round-trip total
  again gives factor one).

Updates add a zero-sum drift ``omega`` proportional to the node's
execution rate for the algorithm divided by the round-trip total to the
current most-likely hosts of the flow predecessors, then clamp to [0, 1]
and renormalise.  The drift depends on ``pi`` only through those hosts,
so it is recomputed only when a most-likely host moves.  ``capital``
keeps the running entrywise maximum of ``pi`` across iterations;
incapable pairings are pinned to exactly zero throughout.

The dynamics take input compiled from a checked scenario (the runner's
``_Engine.compiled``) and checked options, and do not check them again.
Only the range of each subspace score (:func:`check_score`) and a
round-trip total that could overflow to infinity, which no input rule
covers, raise SubspaceError.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import HyperallocError
from .graphs import SemiLattice, flow_critical_cost, flow_predecessors


class SubspaceError(HyperallocError):
    """Invalid subspace input or state."""


class Subspace(str, Enum):
    CMPT = "cmpt"
    COMM = "comm"
    CPLT = "cplt"


class CapabilityState:
    """Probability dynamics for one task's algorithms over the nodes.

    Rows are the positions of the task's flow lattice (the start, real
    algorithm i at row i, the finish); columns follow node index order.
    ``pred_index`` row r lists row r's flow-predecessor rows ascending,
    right-padded with the sentinel ``len(pi)``.
    """

    def __init__(self, sl, pi, capital, capable, pr, pred_index, ct, step):
        self.sl = sl
        self.pi = pi
        self.capital = capital
        self.capable = capable
        self.pr = pr
        self.pred_index = pred_index
        self.ct = ct
        self.step = step
        self.iterations = 0
        self.converged = None


def pi_init(sl: SemiLattice, et, capable, ct, fixed, step: float) -> CapabilityState:
    """Initial allocation-probability matrix for one task.

    Takes checked input, one row per lattice position and one column per
    node in index order, and does not check it again:

    * ``et``: execution times, zero on the virtual rows;
    * ``capable``: False where an entry is pinned to zero; every row has
      a capable node;
    * ``ct``: round-trip times between nodes (:func:`round_trip_matrix`),
      all zero without a network;
    * ``fixed``: the column of the node an algorithm is assigned to, or
      -1.  The hosts of unassigned predecessors in the round-trip totals
      are the most likely nodes of their own already initialised rows
      (rows are filled one topological level at a time, so predecessor
      rows always exist).

    A row in which every capable node has a zero factor (a lone capable
    node holding all of the row's execution time has) is shared evenly
    by its capable nodes.
    """
    n_rows, n_nodes = et.shape
    # np.nonzero walks the matrix row by row, so each row's predecessors
    # come out ascending; each goes to the next free slot of its row.
    rows, preds = np.nonzero(flow_predecessors(sl))
    width = np.bincount(rows, minlength=n_rows)
    pred_index = np.full((n_rows, width.max(initial=0)), n_rows, dtype=np.intp)
    pred_index[rows, np.arange(len(rows)) - np.repeat(np.cumsum(width) - width, width)] = preds

    # Any node can come to host a flow predecessor, so no round-trip total
    # the dynamics reach exceeds ``width`` of a node's largest round trips
    # added up as ``_denominators`` adds them (float addition is monotone).
    # That bound, and its sum over nodes, must be finite: a share of an
    # infinite total would be NaN or zero.
    with np.errstate(over="ignore"):
        worst = np.add.accumulate(np.broadcast_to(ct.max(axis=1), (width.max(initial=0), n_nodes)), axis=0)
        finite = np.isfinite(worst[-1:].sum(axis=1)).all()
    if not finite:
        raise SubspaceError("round-trip totals to the hosts of flow predecessors can overflow to infinity")

    # Rows are filled one topological level at a time: a row's level lies
    # above those of all its flow predecessors, whose hosts are then known.
    # Levels rise along every edge, so the highest of them is that of a
    # real direct predecessor.
    depth = [0] * n_rows
    levels = []
    for r in sl.topo:
        depth[r] = 1 + max((depth[p] for p in sl.pred[r] if p in sl.reals), default=-1)
        if depth[r] == len(levels):
            levels.append([])
        levels[depth[r]].append(r)

    a1 = _attenuation(et)
    host = fixed.copy()
    pi = np.zeros((n_rows, n_nodes))
    for level in levels:
        at = np.array(level)
        a2 = _attenuation(_denominators(ct, host, pred_index[at, : width[at].max()]))
        raw = a1[at] * a2 * capable[at]
        total = raw.sum(axis=1, keepdims=True)
        if not total.all():  # no pull anywhere in a row: its capable nodes share it evenly
            empty = total[:, 0] == 0
            raw[empty] = capable[at[empty]]
            total[empty] = raw[empty].sum(axis=1, keepdims=True)
        pi[at] = raw / total
        host[at] = np.where(fixed[at] < 0, pi[at].argmax(axis=1), fixed[at])

    pr = np.divide(1.0, et, out=np.zeros_like(et), where=et > 0)
    return CapabilityState(sl, pi, pi.copy(), capable, pr, pred_index, ct, step)


def _attenuation(x) -> np.ndarray:
    """Per row, one minus each entry's share of the row total; a zero
    entry, and so every entry of a zero row, keeps factor one."""
    total = x.sum(axis=1, keepdims=True)
    share = np.divide(x, total, out=np.zeros_like(x), where=x != 0)
    return np.where(x != 0, 1.0 - share, 1.0)


def _denominators(ct, host, pred_index) -> np.ndarray:
    """Per row of ``pred_index``, round-trip totals from each node to the
    hosts ``host`` of the row's flow predecessors.

    Each total is a running sum, left to right in ascending predecessor
    order (``np.add.accumulate`` adds strictly in sequence, unlike a
    matmul or a pairwise ``sum``); the padding sentinel ``len(host)``
    adds a zero row, which is exact.
    """
    n_nodes = len(ct)
    if not pred_index.shape[1]:
        return np.zeros((len(pred_index), n_nodes))
    ct_rows = np.vstack([ct.T, np.zeros(n_nodes)])
    hosts = np.append(host, n_nodes)[pred_index]
    return np.add.accumulate(ct_rows[hosts], axis=1)[:, -1]


def omega_update(state: CapabilityState, denom=None) -> np.ndarray:
    """Zero-sum drift matrix for one iteration of the dynamics.

    Raw pull of node i for a row is the execution rate (reciprocal
    execution time; zero time means no pull) divided by the round-trip
    total from i to the current most-likely hosts of the row's flow
    predecessors.  A zero denominator leaves the rate alone.  Raw pulls
    are normalised over capable entries and shifted to zero sum, scaled
    by the step size; rows with no pull (or a single capable node) do
    not drift.

    ``denom`` passes in those totals for the current most-likely hosts.
    Each is summed left to right in ascending predecessor row order, and
    the report bytes depend on it: a matmul or a pairwise sum rounds some
    totals differently.

    The drift depends on ``pi`` only through ``argmax(pi, axis=1)``;
    ``pi_limit`` calls this once per set of most-likely hosts and adds
    the same drift until one of them moves.
    """
    if denom is None:
        denom = _denominators(state.ct, state.pi.argmax(axis=1), state.pred_index)
    raw = np.divide(state.pr, denom, out=state.pr.copy(), where=denom > 0)
    raw *= state.capable
    mass = raw.sum(axis=1, keepdims=True)
    drifts = state.capable & (mass > 0)
    u = np.divide(raw, mass, out=np.zeros_like(raw), where=drifts)
    share = 1.0 / state.capable.sum(axis=1, keepdims=True)
    return np.where(drifts, state.step * (u - share), 0.0)


def pi_limit(state: CapabilityState, tol: float, max_iter: int) -> CapabilityState:
    """Iterate the dynamics until the entrywise change drops below tol.

    The drift is recomputed only when ``argmax(pi, axis=1)``, the most
    likely host of some row, moves; as it depends on ``pi`` only through
    those hosts, every iterate is the same as with a drift recomputed on
    each iteration.  ``tol`` and ``max_iter`` are checked options: a
    positive finite tolerance and a cap of at least one.

    Mutates and returns ``state``.  Hitting ``max_iter`` without
    converging only flags ``state.converged = False``; the state remains
    usable.
    """
    incapable = ~state.capable
    change = np.empty_like(state.pi)
    converged = False
    hosts = None  # the argmax the drift ``omega`` was computed for, as bytes
    for _ in range(max_iter):
        now = state.pi.argmax(axis=1)
        if now.tobytes() != hosts:
            hosts = now.tobytes()
            omega = omega_update(state, _denominators(state.ct, now, state.pred_index))
        new = state.pi + omega
        new.clip(0.0, 1.0, out=new)
        new[incapable] = 0.0
        new /= new.sum(axis=1, keepdims=True)
        np.subtract(new, state.pi, out=change)
        np.abs(change, out=change)
        state.pi = new
        np.maximum(state.capital, new, out=state.capital)
        state.iterations += 1
        if change.max() < tol:
            converged = True
            break
    state.converged = converged
    return state


def cplt_score(state: CapabilityState, column: int) -> float:
    """Capability for the whole task of the node in ``column``.

    Product of the running-maximum probabilities of the virtual start
    and finish vertices on that node; the task counts as performable by
    the node only when both ends have been reachable with positive
    probability.
    """
    return float(state.capital[state.sl.top, column] * state.capital[state.sl.bottom, column])


def check_score(subspace: Subspace, value: float) -> float:
    """``value`` if it lies in ``subspace``'s range, else SubspaceError.

    Compatibility is 0 or 1, communication is >= 0 (+inf included) and
    capability lies in [0, 1].
    """
    if subspace is Subspace.CMPT and value not in (0.0, 1.0):
        raise SubspaceError(f"compatibility score must be 0 or 1, got {value}")
    if subspace is Subspace.COMM and (value < 0 or math.isnan(value)):
        raise SubspaceError(f"communication score must be >= 0, got {value}")
    if subspace is Subspace.CPLT and not (0.0 <= value <= 1.0):
        raise SubspaceError(f"capability score must lie in [0, 1], got {value}")
    return value


def combine_values(values) -> float:
    """Product of checked per-subspace scores, multiplied left to right.

    Any zero factor forces a zero product even against +inf (an
    incompatible node stays unusable no matter how stable its
    communication); otherwise +inf propagates.
    """
    if any(v == 0 for v in values):
        return 0.0
    return math.prod(values, start=1.0)


def overall_comm_bound(state: CapabilityState) -> float:
    """Worst-flow data transmission total for the most likely allocation.

    Every real vertex is pinned to its running-maximum node (lowest index
    on ties); each lattice edge between real vertices costs the
    round-trip entry ``state.ct[host(u), host(v)]`` and edges touching
    virtual vertices cost nothing.  The result is the exact maximum over
    execution flows, computed by longest-path dynamic programming.
    """
    sl = state.sl
    host = np.argmax(state.capital, axis=1)

    def edge_cost(u, v):
        if u in sl.reals and v in sl.reals:
            return float(state.ct[host[u], host[v]])
        return 0.0

    return flow_critical_cost(sl, edge_cost=edge_cost)
