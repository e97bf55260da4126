"""Per-node network statistics on the full graph.

Four statistics are provided: betweenness centrality (shortest-path counting
over unordered pairs, endpoints excluded, no normalization), closeness
centrality (reciprocal sum of shortest-path distances), strength (weighted
degree) and the Barrat weighted clustering coefficient, each a read-only
float64 array of one value per node. Weighted clustering lists each node's
ordered neighbor pairs ``(i, a, b)`` with the pair walk that weighted
curvature uses, ``graph._pair_walk``. A node's numerator adds ``w_a + w_b``
from 0.0 in ``(i, a, b)`` CSR order, the order of the per-node loop it
replaced, and equals that loop bit for bit.

Shortest paths default to hop counts (``path_mode="hop"``) even on weighted
graphs; ``path_mode="weighted"`` treats edge weights as lengths. One Brandes
pass over a block of sources at once yields betweenness (dependency
accumulation) and closeness together, and forms every float in the order a
Dijkstra per source would. The two modes differ only in how they build the
block's shortest-path DAG, and both walk the half-edges out of a set of states
with ``graph._expand``. Hop mode runs a breadth-first search, one level at
a time. Weighted mode relaxes distances in buckets of nearly equal distance
(delta-stepping) until none improves, then places each node in the
Dijkstra's pop order; ``u -> v`` is a shortest-path edge iff
``dist[u] + w == dist[v]`` and ``u`` pops before ``v``, and path counts flow
down the out-edge lists of that DAG alone. Two weighted paths
count as equally short only when their lengths are exactly equal floats, so
``0.1 + 0.2`` and ``0.3`` do not tie. Path counts are float64, so both modes
equal the Dijkstra's exact-integer results bit for bit while every path count
is below 2**53; above that, betweenness agrees to within 1e-15 relative and
closeness, summed from the same distances, stays exact. On disconnected
graphs closeness sums distances over the node's component only and
betweenness skips unreachable pairs; an isolated node has closeness 0 (logged
as a warning).
"""

from __future__ import annotations

import logging

import numpy as np

from .graph import WeightedGraph, _expand, _pair_walk

logger = logging.getLogger(__name__)

STAT_KINDS = ("betweenness", "closeness", "strength", "weighted_clustering")
PATH_MODES = ("hop", "weighted")


# Sources per sweep block: a block expands at most this many (source,
# half-edge) pairs per round and holds this many (source, node) states.
# Wider blocks make fewer numpy calls per source until the work per call
# dominates. Medians of `_path_statistics` on a shared 2-vCPU host:
#
#   graph                         sources  hop (ms)  weighted (ms)
#   generate_edge_list(1, 500, 2)      10      64.0          124.4
#                                      21      53.4          108.7
#                                      43      57.0          108.5
#                                      87      75.7          112.5
#   generate_edge_list(0, 2000, 3)      2      1125           2623
#                                       4      1112           2268
#                                       8      1507           2381
#
# 1 << 16 gives the 21- and 4-source rows. A graph with more than 1 << 15
# half-edges keeps 1 source per block, as generate_edge_list(0, 5000, 3)
# does; at that size 26 sources per block measured slower than 1.
_BLOCK_PAIRS = 1 << 16


def _block_size(g: WeightedGraph) -> int:
    """Sources per block of :func:`_sweep`."""
    return max(1, _BLOCK_PAIRS // max(len(g.adj_neighbors), g.node_count, 1))


def _distinct(keys, slot):
    """``keys`` without repeats, in no particular order; ``slot`` is scratch
    space indexed by key."""
    at = np.arange(len(keys))
    slot[keys] = at
    return keys[slot[keys] == at]


def _pop_ranks(g: WeightedGraph, dist, B):
    """Each state's place in its row's Dijkstra pop order, as ``row * V +
    position``.

    ``dist`` holds the distances of a block of ``B`` rows. A Dijkstra pops
    by ``(distance, push order)``. A node is pushed when its first-popped
    predecessor scans it, so its push order is ``(rank of that predecessor,
    node id)``: the predecessor's CSR row lists its neighbors by ascending
    id. Nodes with no predecessor placed yet come last, by id. A node whose
    distance no other node of its row shares is placed by distance alone.
    Groups of nodes at one distance are sorted by push order, the ``k``-th
    such group of every row in turn ``k``, so each group finds its
    predecessors placed. A length below half an ulp gives a node a
    predecessor at its own distance; then the turns repeat until no rank
    changes. Each repeat places at least one more node of every unsettled
    group as the Dijkstra does.
    """
    V = g.node_count
    order = np.argsort(dist.reshape(B, V), axis=1, kind="stable")
    order += np.arange(0, B * V, V)[:, None]  # the states of each row, by distance
    rank = np.empty(B * V, dtype=np.int64)
    rank[order.ravel()] = np.arange(B * V)
    by_dist = dist[order]
    same = (by_dist[:, 1:] == by_dist[:, :-1]) & (by_dist[:, 1:] < np.inf)
    if not same.any():
        return rank
    tied = np.zeros((B, V), dtype=bool)
    tied[:, 1:] = same
    tied[:, :-1] |= same
    opens = np.ones((B, V), dtype=bool)  # the first node at its distance
    opens[:, 1:] = ~same
    r, i = np.nonzero(tied)
    turn = (np.cumsum(tied & opens, axis=1) - 1)[r, i]
    members = order[r, i][np.argsort(turn, kind="stable")]
    sizes = np.bincount(turn)
    ends = np.cumsum(sizes)
    while True:
        changed = sub_ulp = False
        for lo, hi in zip(ends - sizes, ends):
            keys = members[lo:hi]
            tail, head, pos = _expand(g, keys)
            here = dist[keys][tail]
            pred = ((dist[head] + g.adj_weights[pos] == here)
                    & (rank[head] < rank[keys][tail]))
            tail, head = tail[pred], head[pred]
            sub_ulp = sub_ulp or bool(np.any(dist[head] == here[pred]))
            first = np.full(len(keys), B * V)  # no predecessor: last
            np.minimum.at(first, tail, rank[head])
            # one group per row: rows keep their rank ranges
            placed = np.sort(rank[keys])
            resorted = keys[np.lexsort((keys, first, keys // V))]
            changed = changed or not np.array_equal(rank[resorted], placed)
            rank[resorted] = placed
        if not (sub_ulp and changed):
            return rank


def _sweep(g: WeightedGraph, path_mode: str):
    """Brandes over blocks of sources, one pass per block.

    The state of node ``v`` seen from the block's ``r``-th source sits at the
    flat key ``r * V + v``. The mode's builder (:func:`_hop_dag`,
    :func:`_weighted_dag`) fills the path counts ``sigma`` and returns the
    distances, the DAG's levels and, per level ``d``, its edges out of
    ``levels[d]``: each tail's index in the level and each head's flat state,
    each tail's children in descending pop rank. A weighted row pops by
    (distance, rank of the first-popped predecessor, node id). The
    dependencies then flow back one level at a time, from the deepest
    parents up, each parent taking its children's shares in that order, as
    the Dijkstra's reverse sweep adds them; ``np.bincount`` adds each
    parent's shares in input order, so the order across parents does not
    enter a sum.

    Returns the per-node sum of the sources' dependencies, added in source
    order, and each source's distance sum, added in node-id order, both as
    float64 arrays.
    """
    V = g.node_count
    block = _block_size(g)
    bc = np.zeros(V, dtype=np.float64)
    totals = np.zeros(V, dtype=np.float64)
    for first in range(0, V, block):
        sources = np.arange(first, min(first + block, V))
        B = len(sources)
        roots = np.arange(B) * V + sources
        sigma = np.zeros(B * V, dtype=np.float64)
        sigma[roots] = 1.0
        if path_mode == "hop":
            dist, levels, edges = _hop_dag(g, roots, sigma)
        else:
            dist, levels, edges = _weighted_dag(g, roots, sigma)
        delta = np.zeros(B * V, dtype=np.float64)
        # up to the sources' children: a source's own dependency is unused
        for d in range(len(edges) - 1, 0, -1):
            above = levels[d]
            tail, head = edges[d]
            coeff = (1.0 + delta[head]) / sigma[head]
            delta[above] = np.bincount(tail, weights=sigma[above[tail]] * coeff,
                                       minlength=len(above))
        for row in delta.reshape(B, V):  # in source order, as the Dijkstra adds
            bc += row
        d2 = dist.reshape(B, V)
        # one by one in node-id order, as the Dijkstra's loop adds them
        totals[sources] = np.cumsum(np.where(d2 < np.inf, d2, 0.0), axis=1)[:, -1]
        del dist, d2, levels, edges, delta  # nothing of a block outlives it
    return bc, totals


def _hop_dag(g: WeightedGraph, roots, sigma):
    """Breadth-first shortest-path DAG of a block, filling the path counts
    ``sigma``.

    Each new level lists the undiscovered neighbors of the last one in order
    of first push, which is the Dijkstra's FIFO visit order, and sums their
    path counts from their parents in that order. Expanding a level in
    reverse visit order and keeping the heads one level up lists the edges
    into it by descending visit order of the child.

    Returns the hop distances (``inf`` if unreached), the levels and their
    edges; ``edges[0]``, the sources' edges, is ``None``, since the sweep
    never reads it.
    """
    dist = np.full(len(sigma), np.inf)
    dist[roots] = 0.0
    # a new node's first push position, then its index within its level
    rank = np.zeros(len(sigma), dtype=np.int64)
    levels = [roots]
    while True:
        above = levels[-1]
        tail, head = _expand(g, above)[:2]
        # index arrays: applying an irregular boolean mask twice is slower
        fresh = np.flatnonzero(dist[head] == np.inf)
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
        dist[level] = len(levels)
        levels.append(level)
    edges = [None] * (len(levels) - 1)
    for d in range(len(levels) - 1, 1, -1):
        below = levels[d][::-1]
        tail, head = _expand(g, below)[:2]
        up = np.flatnonzero(dist[head] == d - 1)
        edges[d - 1] = rank[head[up]], below[tail[up]]
    return dist, levels, edges


def _bucket_width(g: WeightedGraph) -> float:
    """Width of the distance bucket that one round of :func:`_weighted_dag`
    expands: the mean half-edge length (0 on a graph without edges)."""
    return float(g.adj_weights.mean()) if len(g.adj_weights) else 0.0


def _weighted_dag(g: WeightedGraph, roots, sigma):
    """Shortest-path DAG of a block on edge-weight lengths, filling the path
    counts ``sigma``.

    Distances come from bucketed label-correcting relaxation (delta-stepping;
    Meyer & Sanders 2003). The states whose distance improved and that have
    not been expanded since wait as ``pending``; each round expands those
    within :func:`_bucket_width` of the least pending distance, the least
    one always among them, and keeps the least ``dist[u] + w`` per head.
    Float addition of a positive length is monotone, so relaxation in any
    order reaches the Dijkstra's distances, the least left-to-right path
    sums; the bucket only spares re-expansions. ``u -> v`` is a shortest-path
    edge iff ``dist[u] + w == dist[v]`` and ``u`` pops before ``v``, popping
    by (distance, rank of the first-popped predecessor, node id)
    (:func:`_pop_ranks`): a length below half an ulp of ``dist[u]`` leaves
    the distance unchanged, so ``dist[u] < dist[v]`` would drop it.

    Path counts are summed level by level, a node's level being its longest
    edge depth from the source, walking the DAG's own out-edge lists. Each
    tail's out-edges are ordered once per block, by descending pop rank of
    the head. Returns the distances (``inf`` if unreached), the levels and,
    per level, the edges out of it as the walk lists them, each parent's
    children in descending pop rank.
    """
    V = g.node_count
    E2 = len(g.adj_neighbors)
    tails, nbrs, lengths = g.adj_tails, g.adj_neighbors, g.adj_weights
    B = len(roots)
    dist = np.full(B * V, np.inf)
    dist[roots] = 0.0
    slot = np.empty(B * V, dtype=np.int64)  # scratch for _distinct
    width = _bucket_width(g)
    pending = roots
    while len(pending):
        here = dist[pending]
        # <=, not <: with a width below an ulp, < would expand nothing
        near = here <= here.min() + width
        frontier = pending[near]
        tail, head, pos = _expand(g, frontier)
        reach = here[near][tail]
        reach += lengths[pos]
        del tail, pos  # the largest temporaries of a block
        closer = reach < dist[head]
        head = head[closer]
        np.minimum.at(dist, head, reach[closer])
        if len(frontier) < len(pending):
            head = np.concatenate((pending[~near], head))
        pending = _distinct(head, slot)

    d2 = dist.reshape(B, V)
    reach = d2[:, tails]
    reach += lengths
    tight = reach == d2[:, nbrs]
    tight &= reach < np.inf  # inf + w == inf
    del reach
    # the DAG's half-edges by (row, tail, CSR position): each tail state's
    # out-edges are contiguous, in the order _expand lists them
    row, pos = np.divmod(np.flatnonzero(tight), E2)
    del tight
    row *= V
    out_tail = row + tails[pos]
    out_head = row + nbrs[pos]
    del row, pos
    rank = _pop_ranks(g, dist, B)
    down = np.flatnonzero(rank[out_tail] < rank[out_head])
    out_tail, out_head = out_tail[down], out_head[down]
    # each tail state's out-edges by descending pop rank of the head, the
    # order in which its children's shares are added
    out_head = out_head[np.argsort(out_tail * (B * V) - rank[out_head], kind="stable")]
    out_deg = np.bincount(out_tail, minlength=B * V)
    out_end = np.cumsum(out_deg)
    del out_tail, down
    waiting = np.bincount(out_head, minlength=B * V)
    # Kahn's levels: a node joins once its last predecessor has
    levels, edges = [roots], []
    while True:
        above = levels[-1]
        deg = out_deg[above]
        tail = np.repeat(np.arange(len(above)), deg)
        if not len(tail):
            break
        at = np.arange(len(tail))
        at += (out_end[above] - np.cumsum(deg))[tail]
        head = out_head[at]
        np.add.at(sigma, head, sigma[above[tail]])
        np.subtract.at(waiting, head, 1)
        levels.append(_distinct(head[waiting[head] == 0], slot))
        edges.append((tail, head))
    return dist, levels, edges


def _path_statistics(g: WeightedGraph, path_mode: str) -> dict[str, np.ndarray]:
    """Betweenness and closeness from one source-batched Brandes sweep
    (:func:`_sweep`)."""
    V = g.node_count
    bc, totals = _sweep(g, path_mode)
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
    return {"betweenness": bc, "closeness": cc}


def betweenness(g: WeightedGraph, path_mode: str = "hop") -> np.ndarray:
    """Betweenness centrality by per-source shortest-path accumulation.

    Counts unordered pairs ``{i, j}`` with both endpoints distinct from the
    middle node; pairs without a connecting path contribute nothing.
    """
    return compute_statistics(g, ("betweenness",), path_mode)["betweenness"]


def closeness(g: WeightedGraph, path_mode: str = "hop") -> np.ndarray:
    """Closeness centrality: 1 / (sum of distances to reachable nodes).

    Nodes with no reachable peer (isolated nodes) get value 0.
    """
    return compute_statistics(g, ("closeness",), path_mode)["closeness"]


def strength_vector(g: WeightedGraph) -> np.ndarray:
    """Row sums of the weighted adjacency matrix (degree for unit weights):
    the graph's own read-only ``strengths``."""
    return g.strengths


def weighted_clustering(g: WeightedGraph) -> np.ndarray:
    """Barrat weighted clustering coefficient.

    For node ``i``, sums ``W_ij + W_ih`` over ordered neighbor pairs
    ``(j, h)`` that close a triangle with ``i``, divided by
    ``2 s(i) (d(i) - 1)``. Nodes with degree <= 1 get 0 by convention.
    ``(j, h)`` closes one when ``j * V + h`` is among the half-edges' keys
    ``tail * V + neighbor``, which ascend in CSR order.
    """
    V = g.node_count
    keys = g.adj_tails * V + g.adj_neighbors
    num = np.zeros(V, dtype=np.float64)
    for lo, _, a, b in _pair_walk(g, g.adj_tails, g.adj_neighbors):
        a += lo  # the walk's nodes are the half-edges themselves
        pair = g.adj_neighbors[a] * V + g.adj_neighbors[b]
        closes = keys.take(np.searchsorted(keys, pair), mode="clip") == pair
        a, b = a[closes], b[closes]
        # a chunk may end inside a row, so its sums start from the ones so far
        num = np.bincount(np.concatenate((np.arange(V), g.adj_tails[a])),
                          np.concatenate((num, g.adj_weights[a] + g.adj_weights[b])))
    values = np.divide(num, 2.0 * g.strengths * (g.degrees - 1),
                       out=np.zeros(V), where=num != 0)
    values.setflags(write=False)
    return values


def mean_statistic(values: np.ndarray) -> float:
    """Arithmetic mean of a per-node statistic's ``values`` over every node."""
    if len(values) == 0:
        raise ValueError("mean of an empty node set")
    return float(np.mean(values))


def compute_statistics(g: WeightedGraph, kinds=STAT_KINDS,
                       path_mode: str = "hop") -> dict[str, np.ndarray]:
    """Evaluate the requested statistics once on the full graph, each as a
    read-only float64 array of one value per node."""
    if path_mode not in PATH_MODES:
        raise ValueError(f"unknown path mode {path_mode!r}")
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
