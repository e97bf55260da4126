"""Per-node network statistics on the full graph.

Four statistics are provided: betweenness centrality (shortest-path counting
over unordered pairs, endpoints excluded, no normalization), closeness
centrality (reciprocal sum of shortest-path distances), strength (weighted
degree) and the Barrat weighted clustering coefficient.

Shortest paths default to hop counts (``path_mode="hop"``) even on weighted
graphs; ``path_mode="weighted"`` treats edge weights as lengths. Both modes
run the same Dijkstra routine, hop mode with unit lengths, and one sweep per
source yields betweenness (Brandes dependency accumulation) and closeness
together. Two weighted paths count as equally short only when their lengths
are exactly equal floats, so ``0.1 + 0.2`` and ``0.3`` do not tie. On
disconnected graphs closeness sums distances over the node's component only
and betweenness skips unreachable pairs; an isolated node has closeness 0
(logged as a warning).
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


def _path_statistics(g: WeightedGraph, path_mode: str) -> dict[str, StatVector]:
    """Betweenness and closeness from one shortest-path sweep per source.

    Betweenness accumulates the Brandes dependencies of each source in
    reverse visit order; closeness sums each source's distances in node-id
    order.
    """
    _check_path_mode(path_mode)
    V = g.node_count
    indptr, nbrs = g.adj_indptr.tolist(), g.adj_neighbors.tolist()
    if path_mode == "weighted":
        lengths = g.adj_weights.tolist()
    else:
        lengths = [1] * len(nbrs)  # integer hop counts, summed exactly
    bc = [0.0] * V
    cc = np.zeros(V, dtype=np.float64)
    n_isolated = 0
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
        if total > 0:
            cc[s] = 1.0 / total
        else:
            n_isolated += 1
    if n_isolated:
        logger.warning(
            "closeness undefined for %d isolated node(s); reported as 0",
            n_isolated)
    bc = np.array(bc) / 2.0  # per-source accumulation counts each unordered pair twice
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
