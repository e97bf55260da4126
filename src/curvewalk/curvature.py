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

The weighted map is one vectorized pass over all ``sum(d(i)**2)`` terms: the
pair walk ``graph._pair_walk`` lists each endpoint's other half-edges, and
one ``np.bincount`` per chunk of it sums them. It gives the floats of
evaluating the formula term by term, left to right, for each edge alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, _pair_walk

CURVATURE_MODES = ("weighted", "combinatorial")


@dataclass(frozen=True)
class CurvatureMap:
    """Per-edge and per-node Forman curvature of one graph.

    ``edge_values[e]`` is the curvature of edge id ``e`` (row ``e`` of
    ``graph.edges``); ``node_values[i]`` is the sum of the incident edge
    values, accumulated in ascending-neighbor order so the map is
    bit-reproducible for a fixed graph.
    """

    edge_values: np.ndarray
    node_values: np.ndarray


class _NodeError(ValueError):
    """A refusal whose message names ``nodes`` by id. A caller that knows
    other names for them (their ids in a larger graph, or labels) may set
    ``nodes`` to those before the message is shown."""

    def __init__(self, message, *nodes):
        self.message, self.nodes = message, nodes

    def __str__(self):
        return self.message.format(*self.nodes)


class _NonFiniteCurvature(_NodeError):
    """A weighted edge curvature outside the float64 range, which the CLI
    names by the labels of the edge's ends."""


def _weighted_forman(g: WeightedGraph) -> np.ndarray:
    """Weighted Forman curvature of every edge, in edge id order.

    Each (edge, endpoint) half gets one group: its leading term
    ``w(node)/w_ij`` followed by the negated terms
    ``-(w(node)/sqrt(w_ij * w_e))`` of the node's other edges in CSR order,
    which :func:`graph._pair_walk` lists. ``np.bincount`` adds a group in
    input order starting from 0, and ``0 + t == t`` and ``t + (-x) == t - x``
    exactly, so each group sum is the left-to-right running difference of
    the formula. A chunk of the walk holds whole groups.
    """
    nodes = g.edges.ravel()  # group 2k is edge k's tail, 2k + 1 its head
    w_ij = g.edge_weights
    w_half = np.repeat(w_ij, 2)
    w_node = g.node_weights[nodes]
    t = w_node / w_half  # the leading terms; each chunk adds its groups' rest
    for lo, hi, group, pos in _pair_walk(g, nodes, g.edges[:, ::-1].ravel()):
        terms = np.concatenate((t[lo:hi], -(w_node[lo:hi][group] / np.sqrt(
            w_half[lo:hi][group] * g.adj_weights[pos]))))
        t[lo:hi] = np.bincount(np.concatenate((np.arange(hi - lo), group)), terms)
    return w_ij * (t[0::2] + t[1::2])


def compute_curvature_map(g: WeightedGraph, mode: str = "combinatorial") -> CurvatureMap:
    """Curvature of every edge and node of ``g``.

    Args:
        g: Graph to evaluate.
        mode: ``"weighted"`` for the full formula, ``"combinatorial"`` for
            ``4 - d(i) - d(j)``.

    Raises:
        ValueError: unknown mode, or a weighted value that is not finite
            (weights so far apart that a product ``w_ij * w_e`` underflows
            to 0 or overflows); the message names the first such edge by its
            ends.
    """
    if mode not in CURVATURE_MODES:
        raise ValueError(f"unknown curvature mode {mode!r}")
    if mode == "combinatorial":
        ev = (4 - g.degrees[g.edges[:, 0]]
              - g.degrees[g.edges[:, 1]]).astype(np.float64)
    else:
        with np.errstate(all="ignore"):  # a non-finite value is refused below
            ev = _weighted_forman(g)
        bad = np.flatnonzero(~np.isfinite(ev))
        if len(bad):
            e = int(bad[0])
            raise _NonFiniteCurvature(
                f"weighted curvature of edge ({{}}, {{}}) is {float(ev[e])!r}: a product "
                "of edge weights leaves the float64 range", *g.edges[e].tolist())
    # bincount adds in input order: left to right along each CSR row; it
    # returns integers when there are no edges, hence the cast
    nv = np.bincount(g.adj_tails, weights=ev[g.adj_edge_ids],
                     minlength=g.node_count).astype(np.float64)
    ev.setflags(write=False)
    nv.setflags(write=False)
    return CurvatureMap(edge_values=ev, node_values=nv)
