"""Immutable weighted-graph model, edge-list reading and writing, and components.

Nodes are dense integer ids ``0 .. node_count - 1``. Graphs are simple and
undirected: each edge is stored once as a canonical ``(u, v)`` pair with
``u < v``, self-loops and parallel edges are rejected, and every edge and
node weight is strictly positive. All backing arrays are frozen after
construction, so one graph can be shared read-only by every chain and
statistic computed on it.

The graph is the one record of a network's facts, each half-edge's tail
(``adj_tails``) included; :func:`load_edge_list` returns a file's labels
beside it. :func:`_half_edges` lists the half-edges out of a set of nodes;
the path statistics walk them from flat states with :func:`_expand`, and
weighted curvature and clustering share one walk over the ``sum(d(i)**2)``
pairs of half-edges at one node, :func:`_pair_walk`.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

_COMMENT_PREFIXES = ("%", "#")


class GraphFormatError(ValueError):
    """Violation of the edge-list file format or the simple-graph contract."""


class WeightedGraph:
    """Undirected graph with positive edge and node weights.

    Adjacency is kept in CSR-style arrays with neighbors sorted ascending per
    node, so neighbor iteration order (and every floating-point accumulation
    that follows it) is deterministic for a given graph.

    Attributes:
        node_count: Number of nodes.
        edge_count: Number of undirected edges.
        edges: ``(edge_count, 2)`` array of canonical ``u < v`` pairs, in
            construction order; the row index is the edge id.
        edge_weights: Per-edge weight, aligned with ``edges``.
        node_weights: Per-node weight.
        adj_indptr / adj_neighbors / adj_weights / adj_edge_ids: CSR adjacency;
            the slice ``adj_indptr[i]:adj_indptr[i + 1]`` lists node ``i``'s
            incident half-edges sorted by neighbor id.
        adj_tails: The tail node of every half-edge, aligned with
            ``adj_neighbors``: node ``i`` repeated ``d(i)`` times.
        degrees: Per-node degree (``len(adj(i))``).
        strengths: Per-node sum of incident edge weights.
    """

    __slots__ = (
        "node_count", "edge_count", "edges", "edge_weights", "node_weights",
        "adj_indptr", "adj_neighbors", "adj_weights", "adj_edge_ids",
        "adj_tails", "degrees", "strengths",
    )

    def __init__(self, node_count, edges, edge_weights=None, node_weights=None):
        node_count = int(node_count)
        if node_count < 0:
            raise GraphFormatError("node_count must be non-negative")
        m = len(edges)
        pairs = np.asarray(edges, dtype=np.int64).reshape(m, 2)  # u v w rows fail

        if edge_weights is None:
            ew = np.ones(m, dtype=np.float64)
        else:
            ew = np.array(edge_weights, dtype=np.float64).reshape(m)
        if node_weights is None:
            nw = np.ones(node_count, dtype=np.float64)
        else:
            nw = np.array(node_weights, dtype=np.float64).reshape(node_count)

        if m:
            if pairs.min() < 0 or pairs.max() >= node_count:
                raise GraphFormatError("edge endpoint out of range")
            if (pairs[:, 0] == pairs[:, 1]).any():
                raise GraphFormatError("self-loops are not allowed")
        if not (np.isfinite(ew).all() and (ew > 0).all()):
            raise GraphFormatError("edge weights must be finite and strictly positive")
        if not (np.isfinite(nw).all() and (nw > 0).all()):
            raise GraphFormatError("node weights must be finite and strictly positive")

        lo = pairs.min(axis=1)
        hi = pairs.max(axis=1)
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        # the CSR order, by (tail, neighbor); a repeated edge repeats a key
        keys = src * node_count + dst
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if (keys[1:] == keys[:-1]).any():
            raise GraphFormatError("duplicate undirected edge")

        w2 = np.concatenate([ew, ew])
        eid2 = np.tile(np.arange(m, dtype=np.int64), 2)

        indptr = np.zeros(node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=node_count), out=indptr[1:])

        self.node_count = node_count
        self.edge_count = m
        self.edges = np.column_stack([lo, hi])
        self.edge_weights = ew
        self.node_weights = nw
        self.adj_indptr = indptr
        self.adj_neighbors = dst[order]
        self.adj_weights = w2[order]
        self.adj_edge_ids = eid2[order]
        self.adj_tails = src[order]
        self.degrees = np.diff(indptr)
        self.strengths = np.bincount(src, weights=w2, minlength=node_count)
        for arr in (self.edges, self.edge_weights, self.node_weights,
                    self.adj_indptr, self.adj_neighbors, self.adj_weights,
                    self.adj_edge_ids, self.adj_tails, self.degrees,
                    self.strengths):
            arr.setflags(write=False)

    def __repr__(self):
        return f"WeightedGraph(node_count={self.node_count}, edge_count={self.edge_count})"

    def _check_node(self, i) -> int:
        i = int(i)
        if not 0 <= i < self.node_count:
            raise ValueError(
                f"node id {i} out of range for graph with {self.node_count} nodes")
        return i


def load_edge_list(path, *, delimiter=None, weighted=True,
                   default_node_weight=1.0):
    """Parse ``u v [w]`` lines into a graph with dense node ids.

    Blank lines and lines starting with ``%`` or ``#`` (KONECT headers
    included) are skipped. Node labels are arbitrary tokens and get dense ids
    in order of first appearance: ``labels[k]`` is the label of node ``k``.
    A missing weight column means weight 1; ``weighted=False`` forces weight
    1 even when a third column is present. Every node receives
    ``default_node_weight`` as its node weight.

    Args:
        path: Edge-list file.
        delimiter: Column separator; None splits on any whitespace. Fields
            split on a separator lose their surrounding whitespace, and an
            empty field is refused.
        weighted: Whether to honor a third column as the edge weight.
        default_node_weight: Finite positive node weight assigned to all nodes.

    Returns:
        ``(WeightedGraph, labels)``, ``labels`` a tuple of str.

    Raises:
        GraphFormatError: Malformed line or empty field, non-positive
            weight, self-loop or duplicate edge, with the offending line
            number in the message.
    """
    path = Path(path)
    default_node_weight = float(default_node_weight)
    if not (math.isfinite(default_node_weight) and default_node_weight > 0):
        raise ValueError("default_node_weight must be finite and positive")

    labels: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    weights: list[float] = []
    seen: set[tuple[int, int]] = set()

    def node_of(token: str) -> int:
        nid = index.get(token)
        if nid is None:
            nid = len(labels)
            index[token] = nid
            labels.append(token)
        return nid

    # utf-8-sig drops a leading byte-order mark, which would else stick to
    # the first line's first field
    with path.open(encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(_COMMENT_PREFIXES):
                continue
            if delimiter:
                parts = [field.strip() for field in line.split(delimiter)]
                if "" in parts:
                    raise GraphFormatError(
                        f"{path}:{lineno}: empty field in {line!r}")
            else:
                parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'u v [w]', got {line!r}")
            if parts[0] == parts[1]:
                raise GraphFormatError(f"{path}:{lineno}: self-loop on {parts[0]!r}")
            if weighted and len(parts) == 3:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise GraphFormatError(
                        f"{path}:{lineno}: bad weight {parts[2]!r}") from None
                if not (math.isfinite(w) and w > 0):
                    raise GraphFormatError(f"{path}:{lineno}: weight must be "
                                           f"finite and positive, got {parts[2]}")
            else:
                w = 1.0
            u = node_of(parts[0])
            v = node_of(parts[1])
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphFormatError(
                    f"{path}:{lineno}: duplicate edge {parts[0]} -- {parts[1]}")
            seen.add(key)
            edges.append((u, v))
            weights.append(w)

    g = WeightedGraph(len(labels), edges, weights,
                      np.full(len(labels), default_node_weight))
    return g, tuple(labels)


def write_edge_list(g: WeightedGraph, path, labels=None):
    """Write the graph as ``u v w`` lines readable by :func:`load_edge_list`.

    Node ids are written when no labels are given. Weights use repr so a
    reload round-trips exactly. Isolated nodes cannot be represented in this
    format and are dropped on a round-trip.

    Raises:
        ValueError: a label that would not read back as the same field:
            empty, holding whitespace, or, as a line's first field, starting
            with ``%`` or ``#`` (the line would be a comment) or with a
            byte-order mark.
    """
    if labels is None:
        labels = [str(k) for k in range(g.node_count)]
    tails, heads = g.edges.T.tolist()
    for ends, first in ((tails, True), (heads, False)):
        for k in sorted(set(ends)):
            label = str(labels[k])
            # the loader drops a byte-order mark that starts the file
            if label.split() != [label] or (
                    first and label.startswith((*_COMMENT_PREFIXES, "\ufeff"))):
                raise ValueError(f"label {label!r} of node {k} would not read "
                                 "back from an edge list")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for u, v, w in zip(tails, heads, g.edge_weights.tolist()):
            fh.write(f"{labels[u]} {labels[v]} {w!r}\n")


def induced_subgraph(g: WeightedGraph, nodes) -> WeightedGraph:
    """Subgraph on ``nodes`` with dense ids reassigned in ascending old-id order.

    Keeps exactly the edges with both endpoints in ``nodes`` (original
    relative edge order and weights preserved).
    """
    keep = sorted({int(n) for n in nodes})
    if keep and not (0 <= keep[0] and keep[-1] < g.node_count):
        raise ValueError("node id out of range")
    new_id = np.full(g.node_count, -1, dtype=np.int64)
    new_id[keep] = np.arange(len(keep), dtype=np.int64)
    mapped = new_id[g.edges]
    inside = (mapped >= 0).all(axis=1)
    return WeightedGraph(len(keep), mapped[inside], g.edge_weights[inside],
                         g.node_weights[keep])


def _half_edges(g: WeightedGraph, nodes):
    """Every half-edge out of ``nodes``, in order and, per node, in CSR
    order: the index into ``nodes`` of each half-edge's tail, and the
    half-edge's CSR position."""
    deg = g.degrees[nodes]
    tail = np.repeat(np.arange(len(nodes)), deg)
    pos = np.arange(len(tail))
    pos += (g.adj_indptr[nodes] - (np.cumsum(deg) - deg))[tail]
    return tail, pos


def _expand(g: WeightedGraph, keys):
    """Every half-edge out of the flat states ``keys`` (``row * V + node``),
    in key order and, per key, in CSR order.

    Returns the index into ``keys`` of each half-edge's tail, the flat state
    of its head in the same row, and the half-edge's CSR position.
    """
    nodes = keys % g.node_count
    tail, pos = _half_edges(g, nodes)
    head = (keys - nodes)[tail]
    head += g.adj_neighbors[pos]
    return tail, head, pos


_PAIR_CAP = 1 << 18  # half-edges per chunk of _pair_walk, unless one row is longer


def _pair_walk(g: WeightedGraph, nodes, skip):
    """Every half-edge out of each of ``nodes`` but the one to ``skip``, in
    node order and, per node, in CSR order, as ``(lo, hi, which, pos)`` per
    chunk: the chunk holds the rows of ``nodes[lo:hi]`` whole, ``which``
    indexes ``nodes[lo:hi]`` and ``pos`` is the half-edge's CSR position. A
    chunk holds at most ``_PAIR_CAP`` half-edges before the skip, or one row.
    """
    cost = np.concatenate(([0], np.cumsum(g.degrees[nodes])))  # of nodes[:k]
    lo = 0
    while lo < len(nodes):
        hi = max(int(np.searchsorted(cost, cost[lo] + _PAIR_CAP, "right")) - 1, lo + 1)
        which, pos = _half_edges(g, nodes[lo:hi])
        # a boolean mask: nearly every pair is kept, and it gathers fastest
        keep = g.adj_neighbors[pos] != skip[lo:hi][which]
        which, pos = which[keep], pos[keep]
        del keep  # the caller's temporaries reuse their memory
        yield lo, hi, which, pos
        lo = hi


def connected_components(g: WeightedGraph) -> list[np.ndarray]:
    """Connected components as sorted id arrays, ordered by smallest member.

    Hook and jump (Shiloach & Vishkin 1982): every node points toward the
    root of its tree, which is the tree's smallest node. Each round hooks
    the larger root of every edge that joins two trees under the smaller
    one, then jumps pointers to their roots until none changes. A round
    with no such edge leaves one tree per component.
    """
    root = np.arange(g.node_count)
    tails, heads = g.edges.T
    while True:
        a, b = root[tails], root[heads]
        joins = a != b
        if not joins.any():
            break
        a, b = a[joins], b[joins]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(hop := root[root], root):
            root = hop
    if not len(root):
        return []
    order = np.argsort(root, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(root[order])) + 1)

