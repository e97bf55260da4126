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
map must reproduce its floats bit for bit. The clustering oracle is the
per-node loop over ordered neighbor pairs that the pair walk in
``weighted_clustering`` replaced; it too must be reproduced bit for bit.

The estimator oracle is the step-indexed running mean that the harness's
per-discovery aggregation replaced; the harness must reproduce its squared
errors bit for bit. The chain-sums oracle is the whole-matrix aggregation
that the harness's block-by-block fold replaced: it takes every chain's
visits at once and sums per chain, in row order, each chain's estimates
formed per discovered node (``_discovery_means``); the fold must reproduce
its sums bit for bit.

The step oracles apply one kernel move straight from its formula, one node
row at a time, consuming the chain's uniforms in the documented order; the
package's table-driven chain drivers must reproduce them bit for bit.

The component oracle is the per-node breadth-first search that the package's
hook-and-jump ``connected_components`` replaced; it must return the same
arrays in the same order.

The exact-curve oracle builds each kernel's transition matrix from its
formula and pushes the exact law of (current node, visited set) forward on
a graph of at most 8 nodes, ``V * 2**(V - 1)`` states (Aldous & Fill,
*Reversible Markov Chains and Random Walks on Graphs*, ch. 6). It gives the
expected squared estimator error and distinct-node count at every step, and
their variances, with which the harness's chain means are compared.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from fractions import Fraction
from itertools import count
from math import inf

import numpy as np

from curvewalk import DEFAULT_EPSILON_FLOOR


def connected_components_oracle(g) -> list[np.ndarray]:
    """Connected components by a breadth-first search from each unseen node:
    sorted int64 id arrays, ordered by smallest member."""
    seen = np.zeros(g.node_count, dtype=bool)
    comps = []
    for s in range(g.node_count):
        if seen[s]:
            continue
        seen[s] = True
        members = [s]
        queue = deque([s])
        while queue:
            v = queue.popleft()
            lo, hi = g.adj_indptr[v], g.adj_indptr[v + 1]
            for w in g.adj_neighbors[lo:hi]:
                if not seen[w]:
                    seen[w] = True
                    members.append(int(w))
                    queue.append(int(w))
        comps.append(np.array(sorted(members), dtype=np.int64))
    return comps


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


def edge_id(g, i, j) -> int:
    """Row of edge ``{i, j}`` in ``g.edges``; raises ValueError if absent."""
    lo, hi = sorted((int(i), int(j)))
    (row,) = np.flatnonzero((g.edges[:, 0] == lo) & (g.edges[:, 1] == hi))
    return int(row)


def edge_forman_oracle(g, edge) -> float:
    """Weighted Forman curvature of one edge, term by term in scalar Python."""
    i, j = edge
    w_ij = g.edge_weights[edge_id(g, i, j)]
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


def weighted_clustering_oracle(g) -> np.ndarray:
    """Barrat weighted clustering, one node and one ordered neighbor pair at
    a time in scalar Python, with one neighbor set per node."""
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
    return values


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
    # never taken for a uniform u < 1, since then fl(u * d) < d (the sampler
    # module proves it); kept so that the oracle does not rest on that proof
    if y_idx == deg_c:
        y_idx = deg_c - 1
    y = int(g.adj_neighbors[lo + y_idx])
    v = rng.random()
    h_c = g_c / g.degrees[current]
    h_y = target_g[y] / g.degrees[y]
    if v * h_c <= h_y:
        return y, True
    return current, False


def running_estimator_oracle(values: np.ndarray, visits: np.ndarray,
                             distinct: np.ndarray, full_mean: float) -> np.ndarray:
    """Mean of ``values`` over the distinct nodes of every prefix of ``visits``.

    ``distinct`` counts the unique nodes of each prefix. A node adds its
    value at its first visit, in visit order, and every other step adds 0.0;
    wherever every node has been seen, ``full_mean`` is the estimate.
    """
    first = np.empty(len(visits), dtype=bool)
    first[:1] = True
    first[1:] = distinct[1:] > distinct[:-1]
    zbar = np.cumsum(np.where(first, values[visits], 0.0)) / distinct
    zbar[distinct == len(values)] = full_mean
    return zbar


def _discovery_means(values: np.ndarray, discovered: np.ndarray,
                     full_mean: float) -> np.ndarray:
    """Running mean of ``values`` over ``discovered``, a chain's nodes in
    order of first visit: entry ``k - 1`` is the estimate at every step at
    which the chain has seen ``k`` nodes. At full coverage the estimate is
    the full mean by definition; the exact ``full_mean`` is substituted to
    keep that identity exact in floating point as well."""
    zbar = np.cumsum(values[discovered]) / np.arange(1, len(discovered) + 1)
    if len(discovered) == len(values):
        zbar[-1] = full_mean
    return zbar


def distinct_counts_oracle(chain) -> np.ndarray:
    """The number of distinct nodes in every prefix of ``chain``, counted
    with a set."""
    seen = set()
    return np.array([len(seen.add(v) or seen) for v in chain.tolist()], dtype=np.int64)


def chain_sums_oracle(chains: np.ndarray, stat_values: dict, full_means: dict):
    """Per-step sums over ``chains`` (one visit sequence per row, summed in
    row order) of each statistic's squared estimator error and of the
    distinct-node count, and the total visits of every node."""
    V, n_steps = len(next(iter(stat_values.values()))), chains.shape[1]
    counts = np.zeros(V, dtype=np.int64)
    distinct_sum = np.zeros(n_steps, dtype=np.int64)
    sq_sum = {kind: np.zeros(n_steps) for kind in stat_values}
    for chain in chains:
        distinct = distinct_counts_oracle(chain)
        first = np.diff(distinct, prepend=0) > 0
        distinct_sum += distinct
        counts += np.bincount(chain, minlength=V)
        # one squared error per discovery, gathered onto the steps
        discovered, at = chain[first], distinct - 1
        for kind, values in stat_values.items():
            zbar = _discovery_means(values, discovered, full_means[kind])
            sq_sum[kind] += ((zbar - full_means[kind]) ** 2)[at]
    return sq_sum, distinct_sum, counts


def kernel_matrix_oracle(g, kind, mode, epsilon_floor=DEFAULT_EPSILON_FLOOR):
    """The transition matrix of ``kind`` on ``g``, entry by entry from the
    kernels' formulas, with Forman curvature ``4 - d(i) - d(j)`` or
    :func:`edge_forman_oracle` and a node's curvature the sum over its edges.

    ``edge_curved`` moves from ``i`` to ``j`` in proportion to ``max(|F(<i,j>)|,
    floor) / d(j)``, or uniformly when every ``|F|`` of the row is ``<=
    floor``; ``edge_uniform`` moves uniformly. The MH kinds propose a uniform
    neighbor ``y`` of ``x`` and accept it with probability ``min(1, h(y) /
    h(x))``, ``h = target / d``, for the target ``max(|F(i)|, floor) / d(i)``
    or 1; a rejection stays put.
    """
    V = g.node_count
    d = np.bincount(g.edges.ravel(), minlength=V).tolist()
    rows = [[] for _ in range(V)]  # (neighbor, edge curvature) per node
    for i, j in g.edges.tolist():
        f = 4.0 - d[i] - d[j] if mode == "combinatorial" else edge_forman_oracle(g, (i, j))
        rows[i].append((j, f))
        rows[j].append((i, f))
    if kind == "node_mh_curved":
        target = [max(abs(sum(f for _, f in row)), epsilon_floor) / d[i]
                  for i, row in enumerate(rows)]
    else:
        target = [1.0] * V
    h = [t / d[i] for i, t in enumerate(target)]
    P = np.zeros((V, V))
    for i, row in enumerate(rows):
        if kind.startswith("node_mh"):
            for j, _ in row:
                P[i, j] = min(1.0, h[j] / h[i]) / d[i]
            P[i, i] = 1.0 - P[i].sum()
            continue
        w = {j: 1.0 for j, _ in row}
        if kind == "edge_curved" and max(abs(f) for _, f in row) > epsilon_floor:
            w = {j: max(abs(f), epsilon_floor) / d[j] for j, f in row}
        for j, x in w.items():
            P[i, j] = x / sum(w.values())
    return P


def exact_curves_oracle(P, start, burn_in, values, n):
    """The exact mean and variance, at each of steps 1 to ``n``, of one
    chain's squared estimator error and of its distinct-node count.

    The chain starts at ``start``, runs ``burn_in`` unrecorded steps of
    ``P``, and then records its visits. The law of (current node, visited
    set) is pushed forward exactly, with each set a bitmask; it starts from
    ``delta_start P^burn_in`` on the one-node sets. The estimate of a set is
    the mean of ``values`` over it, and at full coverage the full mean.
    Returns ``(mse_mean, mse_var, distinct_mean, distinct_var)``, each with
    ``n`` entries.
    """
    V = len(values)
    masks = np.arange(1 << V)
    members = (masks[:, None] >> np.arange(V)) & 1
    size = members.sum(axis=1)
    err = (members @ values / np.maximum(size, 1) - np.mean(values)) ** 2
    # no chain holds the empty set, and the full set's estimate is the full mean
    err[0] = err[-1] = 0.0
    law = np.zeros((V, 1 << V))
    law[np.arange(V), 1 << np.arange(V)] = np.linalg.matrix_power(P, burn_in)[start]
    moments = []
    for _ in range(n):
        p = law.sum(axis=0)
        moments.append([p @ err, p @ err**2, p @ size, p @ size**2])
        pushed = np.zeros_like(law)
        for w in range(V):
            np.add.at(pushed[w], masks | (1 << w), P[:, w] @ law)
        law = pushed
    m = np.array(moments)
    return m[:, 0], m[:, 1] - m[:, 0] ** 2, m[:, 2], m[:, 3] - m[:, 2] ** 2
