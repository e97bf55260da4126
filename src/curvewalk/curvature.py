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
"""

from __future__ import annotations

import math
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


def edge_forman(g: WeightedGraph, edge) -> float:
    """Weighted Forman curvature of one edge; symmetric in the endpoints."""
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
        ev = np.array([edge_forman(g, (u, v)) for u, v in g.edges],
                      dtype=np.float64).reshape(g.edge_count)
    # bincount adds in input order: left to right along each CSR row; it
    # returns integers when there are no edges, hence the cast
    nv = np.bincount(np.repeat(np.arange(g.node_count), g.degrees),
                     weights=ev[g.adj_edge_ids],
                     minlength=g.node_count).astype(np.float64)
    ev.setflags(write=False)
    nv.setflags(write=False)
    return CurvatureMap(mode=mode, edge_values=ev, node_values=nv)
