"""Forman curvature for the edges and nodes of a weighted graph.

For an edge ``<i,j>`` with weight ``w_ij``, node weights ``w(i)``, ``w(j)``
and incident edge weights ``w_e``, the edge value is

    F(<i,j>) = w_ij * ( w(i)/w_ij + w(j)/w_ij
                        - sum_{e at i, e != <i,j>} w(i)/sqrt(w_ij * w_e)
                        - sum_{e at j, e != <i,j>} w(j)/sqrt(w_ij * w_e) )

which for unit node and edge weights reduces to the combinatorial form
``4 - d(i) - d(j)``. The node value is the sum of the values of a node's
incident edges. Values are static for a static graph, so they are computed
once into a :class:`CurvatureMap` and reused by the samplers.

The weighted map is one vectorized pass over all ``sum(d(i)**2)`` terms (one
``np.bincount`` per chunk of edges); it gives the floats of evaluating the
formula term by term, left to right, for each edge alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph

CURVATURE_MODES = ("weighted", "combinatorial")


@dataclass(frozen=True)
class CurvatureMap:
    """Per-edge and per-node Forman curvature of one graph.

    ``edge_values[e]`` is the curvature of edge id ``e`` (row ``e`` of
    ``graph.edges``); ``node_values[i]`` is the sum of the incident edge
    values, accumulated in ascending-neighbor order so the map is
    bit-reproducible for a fixed graph.
    """

    mode: str
    edge_values: np.ndarray
    node_values: np.ndarray


def _weighted_forman(g: WeightedGraph, edge_ids: np.ndarray) -> np.ndarray:
    """Weighted Forman curvature of the edges ``edge_ids``, in that order.

    Each (edge, endpoint) half gets one group: its leading term
    ``w(node)/w_ij`` followed by the negated terms
    ``-(w(node)/sqrt(w_ij * w_e))`` of the node's other edges in CSR order.
    ``np.bincount`` adds a group in input order starting from 0, and
    ``0 + t == t`` and ``t + (-x) == t - x`` exactly, so each group sum is
    the left-to-right running difference of the formula. Edges are taken a
    chunk at a time because the terms number ``sum(d(i)**2)`` in all.
    """
    out = np.empty(len(edge_ids), dtype=np.float64)
    ends = g.edges[edge_ids]
    deg, indptr = g.degrees, g.adj_indptr
    # pairs each edge contributes; chunk boundaries keep a chunk under the cap
    cost = np.cumsum(deg[ends].sum(axis=1))
    cap = 1 << 18
    lo = 0
    while lo < len(edge_ids):
        hi = max(int(np.searchsorted(cost, (cost[lo - 1] if lo else 0) + cap,
                                     side="right")), lo + 1)
        w_ij = g.edge_weights[edge_ids[lo:hi]]
        nodes = ends[lo:hi].ravel()  # group 2k is edge k's tail, 2k + 1 its head
        others = ends[lo:hi, ::-1].ravel()
        w_half = np.repeat(w_ij, 2)
        w_node = g.node_weights[nodes]
        lens = deg[nodes]
        group = np.repeat(np.arange(len(nodes)), lens)
        # the CSR positions of each group's row, in row order
        pos = np.arange(len(group)) + np.repeat(indptr[nodes] - np.cumsum(lens) + lens, lens)
        keep = g.adj_neighbors[pos] != others[group]
        group, pos = group[keep], pos[keep]
        terms = np.concatenate((
            w_node / w_half,
            -(w_node[group] / np.sqrt(w_half[group] * g.adj_weights[pos]))))
        t = np.bincount(np.concatenate((np.arange(len(nodes)), group)),
                        weights=terms, minlength=len(nodes))
        out[lo:hi] = w_ij * (t[0::2] + t[1::2])
        lo = hi
    return out


def edge_forman(g: WeightedGraph, edge) -> float:
    """Weighted Forman curvature of one edge; symmetric in the endpoints."""
    return float(_weighted_forman(g, np.array([g.edge_id(*edge)]))[0])


def edge_forman_combinatorial(g: WeightedGraph, edge) -> float:
    """Combinatorial Forman curvature ``4 - d(i) - d(j)``; ignores all weights."""
    i, j = edge
    g.edge_id(i, j)  # existence check
    return float(4 - g.degree(i) - g.degree(j))


def node_forman(g: WeightedGraph, curvmap: CurvatureMap, i) -> float:
    """Sum of the curvatures of ``i``'s incident edges (0 for isolated nodes)."""
    i = g._check_node(i)
    return float(curvmap.node_values[i])


def compute_curvature_map(g: WeightedGraph, mode: str = "combinatorial") -> CurvatureMap:
    """Curvature of every edge and node of ``g``.

    Args:
        g: Graph to evaluate.
        mode: ``"weighted"`` for the full formula, ``"combinatorial"`` for
            ``4 - d(i) - d(j)``.
    """
    if mode not in CURVATURE_MODES:
        raise ValueError(f"unknown curvature mode {mode!r}")
    if mode == "combinatorial":
        if g.edge_count:
            ev = (4 - g.degrees[g.edges[:, 0]]
                  - g.degrees[g.edges[:, 1]]).astype(np.float64)
        else:
            ev = np.zeros(0, dtype=np.float64)
    else:
        ev = _weighted_forman(g, np.arange(g.edge_count))
    # bincount adds in input order: left to right along each CSR row; it
    # returns integers when there are no edges, hence the cast
    nv = np.bincount(np.repeat(np.arange(g.node_count), g.degrees),
                     weights=ev[g.adj_edge_ids],
                     minlength=g.node_count).astype(np.float64)
    ev.setflags(write=False)
    nv.setflags(write=False)
    return CurvatureMap(mode=mode, edge_values=ev, node_values=nv)
