"""Independent brute-force oracles for the network statistics and chain steps.

The statistic oracles deliberately avoid the per-source accumulation
algorithm used by the package: hop-mode counts come from powers of the
adjacency matrix (length-k walks at the hop distance are exactly the shortest
paths) with exact rational pair ratios, and weighted-mode values come from
Floyd-Warshall with explicit path reconstruction (generic weights, so
shortest paths are unique). The heap Dijkstra oracle is the per-source
Brandes that the source-batched sweeps in ``netstats`` replaced; they must
reproduce its floats bit for bit.

The curvature oracle evaluates the weighted Forman formula one edge at a
time in scalar Python, the loop the vectorized curvature map replaced; the
map must reproduce its floats bit for bit.

The step oracles apply one kernel move straight from its formula, one node
row at a time, consuming the chain's uniforms in the documented order; the
package's table-driven chain drivers must reproduce them bit for bit.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from itertools import count
from math import inf

import numpy as np

from curvewalk import DEFAULT_EPSILON_FLOOR


def adjacency_matrix(g) -> np.ndarray:
    A = np.zeros((g.node_count, g.node_count), dtype=np.int64)
    for u, v in g.edges:
        A[u, v] = A[v, u] = 1
    return A


def hop_walk_counts(g):
    """Hop distances (-1 unreachable) and shortest-path counts via A^k."""
    V = g.node_count
    A = adjacency_matrix(g)
    dist = np.full((V, V), -1, dtype=np.int64)
    sigma = np.zeros((V, V), dtype=np.int64)
    np.fill_diagonal(dist, 0)
    np.fill_diagonal(sigma, 1)
    P = np.eye(V, dtype=np.int64)
    for k in range(1, V):
        P = P @ A  # safe in int64: entries <= (V-1)^(V-1) for V <= 13
        newly = (dist < 0) & (P > 0)
        dist[newly] = k
        sigma[newly] = P[newly]
        if (dist >= 0).all():
            break
    return dist, sigma


def hop_bc_cc_oracle(g):
    """Betweenness (exact rationals) and closeness from walk-matrix counts."""
    V = g.node_count
    dist, sigma = hop_walk_counts(g)
    bc = np.zeros(V)
    for x in range(V):
        total = Fraction(0)
        for i in range(V):
            if i == x:
                continue
            for j in range(i + 1, V):
                if j == x or dist[i, j] <= 0:
                    continue
                if (dist[i, x] > 0 and dist[x, j] > 0
                        and dist[i, x] + dist[x, j] == dist[i, j]):
                    total += Fraction(int(sigma[i, x]) * int(sigma[x, j]),
                                      int(sigma[i, j]))
        bc[x] = float(total)
    cc = np.zeros(V)
    for i in range(V):
        row = dist[i]
        s = int(row[row > 0].sum())
        cc[i] = 1.0 / s if s > 0 else 0.0
    return bc, cc


def weighted_bc_cc_oracle(g):
    """Floyd-Warshall betweenness/closeness assuming unique shortest paths."""
    V = g.node_count
    D = np.full((V, V), np.inf)
    np.fill_diagonal(D, 0.0)
    nxt = np.full((V, V), -1, dtype=np.int64)
    for (u, v), w in zip(g.edges, g.edge_weights):
        D[u, v] = D[v, u] = float(w)
        nxt[u, v] = v
        nxt[v, u] = u
    for k in range(V):
        for i in range(V):
            if D[i, k] == np.inf:
                continue
            alt = D[i, k] + D[k]
            better = alt < D[i]
            if better.any():
                D[i, better] = alt[better]
                nxt[i, better] = nxt[i, k]
    bc = np.zeros(V)
    for i in range(V):
        for j in range(i + 1, V):
            if not np.isfinite(D[i, j]):
                continue
            node = int(nxt[i, j])
            while node != j:
                bc[node] += 1.0
                node = int(nxt[node, j])
    cc = np.zeros(V)
    for i in range(V):
        mask = np.isfinite(D[i])
        mask[i] = False
        s = float(D[i, mask].sum())
        cc[i] = 1.0 / s if s > 0 else 0.0
    return bc, cc


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


def dijkstra_bc_cc_oracle(g):
    """Weighted betweenness and closeness from one heap Dijkstra per source.

    Accumulates each source's Brandes dependencies in reverse visit order
    (exact integer path counts) and sums its distances in node-id order;
    finishes both the way ``netstats`` does.
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
    reached = totals > 0
    cc = np.zeros(V, dtype=np.float64)
    cc[reached] = 1.0 / totals[reached]
    return np.array(bc, dtype=np.float64) / 2.0, cc


def dfs_hop_bc_oracle(g):
    """Literal shortest-path enumeration by DFS; only for tiny graphs."""
    V = g.node_count
    rows = [[] for _ in range(V)]
    for u, v in g.edges:
        rows[u].append(int(v))
        rows[v].append(int(u))

    def all_paths(s, t):
        paths = []
        stack = [(s, (s,))]
        while stack:
            node, path = stack.pop()
            if node == t:
                paths.append(path)
                continue
            for w in rows[node]:
                if w not in path:
                    stack.append((w, path + (w,)))
        return paths

    bc = np.zeros(V)
    for i in range(V):
        for j in range(i + 1, V):
            paths = all_paths(i, j)
            if not paths:
                continue
            d = min(len(p) for p in paths)
            shortest = [p for p in paths if len(p) == d]
            for x in range(V):
                if x in (i, j):
                    continue
                through = sum(1 for p in shortest if x in p)
                bc[x] += through / len(shortest)
    return bc


def edge_forman_oracle(g, edge) -> float:
    """Weighted Forman curvature of one edge, term by term in scalar Python."""
    i, j = edge
    w_ij = g.edge_weight(i, j)
    total = 0.0
    for node, other in ((int(i), int(j)), (int(j), int(i))):
        term = g.node_weights[node] / w_ij
        lo, hi = g.adj_indptr[node], g.adj_indptr[node + 1]
        w_node = g.node_weights[node]
        for pos in range(lo, hi):
            if g.adj_neighbors[pos] == other:
                continue
            term -= w_node / math.sqrt(w_ij * g.adj_weights[pos])
        total += term
    return float(w_ij * total)


def edge_row_cdf(g, curvmap, i, epsilon_floor=DEFAULT_EPSILON_FLOOR):
    """Cumulative move probabilities over node ``i``'s neighbors (ascending id).

    ``curvmap = None`` is the uniform kernel. The curved weight toward ``j``
    is ``max(|F(<i,j>)|, floor) / d(j)``; a row whose ``|F|`` are all
    ``<= floor`` is uniform. The last entry is exactly 1.0.
    """
    lo, hi = g.adj_indptr[i], g.adj_indptr[i + 1]
    if hi == lo:
        raise ValueError(f"node {i} is isolated; the chain cannot proceed")
    weights = np.ones(hi - lo)
    if curvmap is not None:
        f = np.abs(curvmap.edge_values)[g.adj_edge_ids[lo:hi]]
        if float(f.max()) > epsilon_floor:
            weights = np.maximum(f, epsilon_floor) / g.degrees[g.adj_neighbors[lo:hi]]
    cum = np.cumsum(weights)
    cum /= cum[-1]
    cum[-1] = 1.0
    return cum


def edge_curved_step(g, curvmap, current, rng, epsilon_floor=DEFAULT_EPSILON_FLOOR):
    """One move of the curvature-weighted edge kernel (consumes one uniform)."""
    current = g._check_node(current)
    cum = edge_row_cdf(g, curvmap, current, epsilon_floor)
    idx = int(np.searchsorted(cum, rng.random(), side="right"))
    return int(g.adj_neighbors[g.adj_indptr[current] + idx])


def mh_step(g, target_g, current, rng):
    """One Metropolis-Hastings move (consumes two uniforms: proposal, accept).

    Proposes a uniform neighbor ``Y`` and accepts with probability
    ``min(1, (g(Y)/d(Y)) / (g(X)/d(X)))``; on rejection the chain stays put.
    """
    current = g._check_node(current)
    deg_c = int(g.degrees[current])
    if deg_c == 0:
        raise ValueError(f"node {current} is isolated; the chain cannot proceed")
    g_c = float(target_g[current])
    if not g_c > 0:
        raise ValueError(f"target density is zero at node {current}")
    lo = g.adj_indptr[current]
    y_idx = int(rng.random() * deg_c)
    if y_idx == deg_c:  # u * d can round up to d when u is within an ulp of 1
        y_idx = deg_c - 1
    y = int(g.adj_neighbors[lo + y_idx])
    v = rng.random()
    h_c = g_c / g.degrees[current]
    h_y = target_g[y] / g.degrees[y]
    if v * h_c <= h_y:
        return y, True
    return current, False
