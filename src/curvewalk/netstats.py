"""Per-node network statistics on the full graph.

Four statistics are provided: betweenness centrality (shortest-path counting
over unordered pairs, endpoints excluded, no normalization), closeness
centrality (reciprocal sum of shortest-path distances), strength (weighted
degree) and the Barrat weighted clustering coefficient.

Shortest paths default to hop counts (``path_mode="hop"``) even on weighted
graphs; ``path_mode="weighted"`` treats edge weights as lengths. One sweep
yields betweenness (Brandes dependency accumulation) and closeness together.
Weighted mode runs a Dijkstra per source; two weighted paths count as equally
short only when their lengths are exactly equal floats, so ``0.1 + 0.2`` and
``0.3`` do not tie. Hop mode runs a breadth-first search that advances a
block of sources together, one level at a time, and forms every float in the
order the Dijkstra would on unit lengths. Its path counts are float64, so hop
results equal the Dijkstra's bit for bit while every path count is below
2**53; above that, betweenness agrees to within 1e-15 relative and closeness,
summed from exact integer distances, stays exact. On disconnected graphs
closeness sums distances over the node's component only and betweenness
skips unreachable pairs; an isolated node has closeness 0 (logged as a
warning).
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from itertools import count
from math import inf

import numpy as np

from .graph import WeightedGraph

logger = logging.getLogger(__name__)

STAT_KINDS = ("betweenness", "closeness", "strength", "weighted_clustering")
PATH_MODES = ("hop", "weighted")


@dataclass(frozen=True)
class StatVector:
    """One per-node statistic evaluated on the full graph."""

    kind: str
    values: np.ndarray
    path_mode: str | None = None


def _check_path_mode(path_mode):
    if path_mode not in PATH_MODES:
        raise ValueError(f"unknown path mode {path_mode!r}")


def _shortest_paths(indptr, nbrs, lengths, s):
    """Dijkstra from ``s`` over plain CSR lists with per-half-edge ``lengths``.

    Returns the visit order, the predecessor lists and path counts of every
    node, and the distances (``inf`` for unreachable nodes). Entries that tie
    on distance leave the heap in push order, and two paths tie only when
    their lengths are exactly equal floats.
    """
    V = len(indptr) - 1
    dist = [inf] * V
    done = [False] * V
    sigma = [0] * V
    preds: list[list[int]] = [[] for _ in range(V)]
    dist[s] = 0
    sigma[s] = 1
    order = []
    tie = count()
    heap = [(0, next(tie), s)]
    while heap:
        d, _, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        order.append(v)
        for pos in range(indptr[v], indptr[v + 1]):
            w = nbrs[pos]
            if done[w]:
                continue
            dw = d + lengths[pos]
            if dw < dist[w]:
                dist[w] = dw
                sigma[w] = sigma[v]
                preds[w] = [v]
                heapq.heappush(heap, (dw, next(tie), w))
            elif dw == dist[w]:
                sigma[w] += sigma[v]
                preds[w].append(v)
    return order, preds, sigma, dist


def _weighted_sweep(g: WeightedGraph):
    """One Dijkstra per source on edge-weight lengths.

    Accumulates each source's Brandes dependencies in reverse visit order and
    sums its distances in node-id order. Returns the per-node sum of the
    sources' dependencies (each unordered pair counted twice) and each
    source's distance sum, both as float64 arrays.
    """
    V = g.node_count
    indptr, nbrs = g.adj_indptr.tolist(), g.adj_neighbors.tolist()
    lengths = g.adj_weights.tolist()
    bc = [0.0] * V
    totals = np.zeros(V, dtype=np.float64)
    for s in range(V):
        order, preds, sigma, dist = _shortest_paths(indptr, nbrs, lengths, s)
        delta = [0.0] * V
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                bc[w] += delta[w]
        total = 0.0
        for j, d in enumerate(dist):
            if j != s and d != inf:
                total += d
        totals[s] = total
    return np.array(bc), totals


# Sources per hop-sweep block: the block expands at most this many
# (source, half-edge) pairs per level and holds this many (source, node) states.
_HOP_BLOCK_PAIRS = 1 << 15


def _expand(g: WeightedGraph, keys):
    """Every half-edge out of the flat states ``keys`` (``row * V + node``),
    in key order and, per key, in CSR order.

    Returns the index into ``keys`` of each half-edge's tail and the flat
    state of its head in the same row.
    """
    V = g.node_count
    nodes = keys % V
    deg = g.degrees[nodes]
    tail = np.repeat(np.arange(len(keys)), deg)
    pos = np.arange(len(tail)) + (g.adj_indptr[nodes] - (np.cumsum(deg) - deg))[tail]
    return tail, (keys - nodes)[tail] + g.adj_neighbors[pos]


def _hop_sweep(g: WeightedGraph):
    """Level-synchronous Brandes over blocks of sources, on hop paths.

    The state of node ``v`` seen from the block's ``r``-th source sits at the
    flat key ``r * V + v``. Each new level lists the undiscovered neighbors of
    the last one in order of first push, which is the Dijkstra's FIFO visit
    order, and sums their path counts from their parents in that order. The
    dependencies flow back one level at a time: expanding a level in reverse
    visit order hands every parent its children's shares in descending visit
    order, as the Dijkstra's reverse sweep does.

    Returns the per-node sum of the sources' dependencies and each source's
    distance sum, summed as integers, both as float64 arrays.
    """
    V = g.node_count
    block = max(1, _HOP_BLOCK_PAIRS // max(len(g.adj_neighbors), V, 1))
    bc = np.zeros(V, dtype=np.float64)
    totals = np.zeros(V, dtype=np.float64)
    for first in range(0, V, block):
        sources = np.arange(first, min(first + block, V))
        B = len(sources)
        roots = np.arange(B) * V + sources
        depth = np.full(B * V, -1, dtype=np.int64)
        depth[roots] = 0
        sigma = np.zeros(B * V, dtype=np.float64)
        sigma[roots] = 1.0
        # a new node's first push position, then its index within its level
        rank = np.zeros(B * V, dtype=np.int64)
        levels = [roots]
        while True:
            above = levels[-1]
            tail, head = _expand(g, above)
            # index arrays: applying an irregular boolean mask twice is slower
            fresh = np.flatnonzero(depth[head] < 0)
            tail, head = tail[fresh], head[fresh]
            if not len(head):
                break
            pushed = np.arange(len(head))
            rank[head] = len(head)
            np.minimum.at(rank, head, pushed)
            level = head[rank[head] == pushed]
            rank[level] = np.arange(len(level))
            sigma[level] = np.bincount(rank[head], weights=sigma[above[tail]],
                                       minlength=len(level))
            depth[level] = len(levels)
            levels.append(level)
        delta = np.zeros(B * V, dtype=np.float64)
        # down to the sources' children: a source's own dependency is unused
        for d in range(len(levels) - 1, 1, -1):
            below = levels[d][::-1]
            tail, head = _expand(g, below)
            up = np.flatnonzero(depth[head] == d - 1)
            child, parent = below[tail[up]], head[up]
            coeff = (1.0 + delta[child]) / sigma[child]
            delta[levels[d - 1]] = np.bincount(
                rank[parent], weights=sigma[parent] * coeff,
                minlength=len(levels[d - 1]))
        for row in delta.reshape(B, V):  # in source order, as the Dijkstra adds
            bc += row
        totals[sources] = np.maximum(depth, 0).reshape(B, V).sum(axis=1)
    return bc, totals


def _path_statistics(g: WeightedGraph, path_mode: str) -> dict[str, StatVector]:
    """Betweenness and closeness from one shortest-path sweep: the
    source-batched breadth-first :func:`_hop_sweep` in hop mode, one Dijkstra
    per source (:func:`_weighted_sweep`) in weighted mode."""
    _check_path_mode(path_mode)
    V = g.node_count
    sweep = _hop_sweep if path_mode == "hop" else _weighted_sweep
    bc, totals = sweep(g)
    reached = totals > 0
    cc = np.zeros(V, dtype=np.float64)
    cc[reached] = 1.0 / totals[reached]
    n_isolated = V - int(np.count_nonzero(reached))
    if n_isolated:
        logger.warning(
            "closeness undefined for %d isolated node(s); reported as 0",
            n_isolated)
    bc = bc / 2.0  # per-source accumulation counts each unordered pair twice
    bc.setflags(write=False)
    cc.setflags(write=False)
    return {kind: StatVector(kind=kind, values=values, path_mode=path_mode)
            for kind, values in (("betweenness", bc), ("closeness", cc))}


def betweenness(g: WeightedGraph, path_mode: str = "hop") -> StatVector:
    """Betweenness centrality by per-source shortest-path accumulation.

    Counts unordered pairs ``{i, j}`` with both endpoints distinct from the
    middle node; pairs without a connecting path contribute nothing.
    """
    return _path_statistics(g, path_mode)["betweenness"]


def closeness(g: WeightedGraph, path_mode: str = "hop") -> StatVector:
    """Closeness centrality: 1 / (sum of distances to reachable nodes).

    Nodes with no reachable peer (isolated nodes) get value 0.
    """
    return _path_statistics(g, path_mode)["closeness"]


def strength_vector(g: WeightedGraph) -> StatVector:
    """Row sums of the weighted adjacency matrix (degree for unit weights)."""
    values = g.strengths.copy()
    values.setflags(write=False)
    return StatVector(kind="strength", values=values)


def weighted_clustering(g: WeightedGraph) -> StatVector:
    """Barrat weighted clustering coefficient.

    For node ``i``, sums ``W_ij + W_ih`` over ordered neighbor pairs
    ``(j, h)`` that close a triangle with ``i``, divided by
    ``2 s(i) (d(i) - 1)``. Nodes with degree <= 1 get 0 by convention.
    """
    V = g.node_count
    values = np.zeros(V, dtype=np.float64)
    nbr_sets = [set(g.adj_neighbors[g.adj_indptr[i]:g.adj_indptr[i + 1]].tolist())
                for i in range(V)]
    for i in range(V):
        d = int(g.degrees[i])
        if d <= 1:
            continue
        lo, hi = g.adj_indptr[i], g.adj_indptr[i + 1]
        nbrs = g.adj_neighbors[lo:hi].tolist()
        w_inc = g.adj_weights[lo:hi].tolist()
        num = 0.0
        for a in range(d):
            j = nbrs[a]
            set_j = nbr_sets[j]
            for b in range(d):
                if a == b:
                    continue
                if nbrs[b] in set_j:
                    num += w_inc[a] + w_inc[b]
        if num:
            values[i] = num / (2.0 * g.strengths[i] * (d - 1))
    values.setflags(write=False)
    return StatVector(kind="weighted_clustering", values=values)


def mean_statistic(stat: StatVector, nodes="all") -> float:
    """Arithmetic mean of a statistic over a node set (``"all"`` = every node)."""
    if isinstance(nodes, str):
        if nodes != "all":
            raise ValueError(f"nodes must be a node set or 'all', got {nodes!r}")
        if len(stat.values) == 0:
            raise ValueError("mean of an empty node set")
        return float(np.mean(stat.values))
    idx = sorted({int(n) for n in nodes})
    if not idx:
        raise ValueError("mean of an empty node set")
    if idx[0] < 0 or idx[-1] >= len(stat.values):
        raise ValueError("node id out of range")
    return float(np.mean(stat.values[np.array(idx, dtype=np.int64)]))


def compute_statistics(g: WeightedGraph, kinds=STAT_KINDS,
                       path_mode: str = "hop") -> dict[str, StatVector]:
    """Evaluate the requested statistics once on the full graph."""
    out = {}
    paths = None
    for kind in kinds:
        if kind in ("betweenness", "closeness"):
            if paths is None:
                paths = _path_statistics(g, path_mode)
            out[kind] = paths[kind]
        elif kind == "strength":
            out[kind] = strength_vector(g)
        elif kind == "weighted_clustering":
            out[kind] = weighted_clustering(g)
        else:
            raise ValueError(f"unknown statistic {kind!r}")
    return out
