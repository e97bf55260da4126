"""Curvature formula tests: worked examples, reduction and map invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvewalk import WeightedGraph, compute_curvature_map, load_edge_list
from conftest import (LESMIS, assert_weighted_map_equals_oracle, cycle_graph,
                      path_graph, random_connected_graph, star_graph,
                      two_hub_bridge)
from oracles import edge_forman_oracle, edge_id


def combinatorial(g, edge):
    """The combinatorial curvature map's entry for ``edge``."""
    return compute_curvature_map(g, "combinatorial").edge_values[edge_id(g, *edge)]


def weighted(g, edge):
    """The weighted curvature map's entry for ``edge``."""
    return compute_curvature_map(g, "weighted").edge_values[edge_id(g, *edge)]


class TestWorkedExamples:
    def test_bridge_edges_minus_two(self):
        g = two_hub_bridge()
        for edge in ((0, 2), (1, 2)):  # degrees (4, 2)
            assert combinatorial(g, edge) == -2.0
            assert weighted(g, edge) == -2.0

    def test_leaf_edges_minus_one(self):
        g = two_hub_bridge()
        for edge in ((0, 3), (0, 4), (0, 5), (1, 6), (1, 7), (1, 8)):
            assert combinatorial(g, edge) == -1.0
            assert weighted(g, edge) == -1.0

    def test_flat_path_interior_zero(self):
        g = path_graph(4)
        assert combinatorial(g, (1, 2)) == 0.0
        assert weighted(g, (1, 2)) == 0.0

    def test_weighted_triangle_cancels(self):
        # w_ij = 4 everywhere, node weights 1: 4*(1/4 + 1/4 - 1/4 - 1/4) = 0
        g = WeightedGraph(3, [(0, 1), (1, 2), (0, 2)], [4.0, 4.0, 4.0])
        for edge in ((0, 1), (1, 2), (0, 2)):
            assert weighted(g, edge) == 0.0

    def test_hub_node_curvature(self):
        g = two_hub_bridge()
        cm = compute_curvature_map(g, "combinatorial")
        assert cm.node_values[0] == -5.0  # three leaf edges and one bridge

    def test_star_node_curvature(self):
        g = star_graph(5)
        cm = compute_curvature_map(g, "combinatorial")
        assert np.all(cm.edge_values == -2.0)
        assert cm.node_values[0] == -10.0
        assert cm.node_values[1] == -2.0

    def test_isolated_node_zero(self):
        g = WeightedGraph(3, [(0, 1)])
        cm = compute_curvature_map(g, "combinatorial")
        assert cm.node_values[2] == 0.0


class TestReduction:
    @pytest.mark.parametrize("seed", range(20))
    def test_unit_weights_reduce_exactly(self, seed):
        # every term of the weighted formula is integer-valued at unit
        # weights, so the reduction holds with exact float equality
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, int(rng.integers(3, 25)))
        weighted = compute_curvature_map(g, "weighted")
        comb = compute_curvature_map(g, "combinatorial")
        assert np.array_equal(weighted.edge_values, comb.edge_values)
        assert np.array_equal(weighted.node_values, comb.node_values)


class TestProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(50 + seed)
        g = random_connected_graph(rng, 12, weighted=True)
        ev = compute_curvature_map(g, "weighted").edge_values
        for u, v in g.edges.tolist():
            # the oracle evaluates the formula from v's half first
            assert (ev[edge_id(g, u, v)] == ev[edge_id(g, v, u)]
                    == edge_forman_oracle(g, (v, u)))

    @pytest.mark.parametrize("scale", [0.25, 3.0, 17.5])
    def test_node_weight_scaling(self, scale):
        rng = np.random.default_rng(9)
        base = random_connected_graph(rng, 12, weighted=True)
        nw = rng.uniform(0.5, 2.0, base.node_count)
        g1 = WeightedGraph(base.node_count, base.edges, base.edge_weights, nw)
        g2 = WeightedGraph(base.node_count, base.edges, base.edge_weights,
                           nw * scale)
        ev1 = compute_curvature_map(g1, "weighted").edge_values
        ev2 = compute_curvature_map(g2, "weighted").edge_values
        assert np.allclose(ev2, scale * ev1, rtol=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_node_sum_is_twice_edge_sum(self, seed):
        rng = np.random.default_rng(200 + seed)
        g = random_connected_graph(rng, 15, weighted=True)
        cm = compute_curvature_map(g, "weighted")
        assert cm.node_values.sum() == pytest.approx(
            2.0 * cm.edge_values.sum(), rel=1e-9, abs=1e-9)

    def test_map_matches_per_edge_ops(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 12, weighted=True)
        cm = compute_curvature_map(g, "weighted")
        for u, v in g.edges.tolist():
            assert cm.edge_values[edge_id(g, u, v)] == edge_forman_oracle(g, (u, v))
        cmc = compute_curvature_map(g, "combinatorial")
        for e, (u, v) in enumerate(g.edges):
            assert cmc.edge_values[e] == 4 - g.degrees[u] - g.degrees[v]

    def test_map_deterministic(self):
        rng = np.random.default_rng(11)
        g = random_connected_graph(rng, 15, weighted=True)
        a = compute_curvature_map(g, "weighted")
        b = compute_curvature_map(g, "weighted")
        assert np.array_equal(a.edge_values, b.edge_values)
        assert np.array_equal(a.node_values, b.node_values)

    def test_empty_edges_all_zero(self):
        g = WeightedGraph(4, [])
        cm = compute_curvature_map(g, "combinatorial")
        assert cm.edge_values.size == 0
        assert np.all(cm.node_values == 0.0)

    def test_flat_cycle_all_zero(self):
        cm = compute_curvature_map(cycle_graph(6), "combinatorial")
        assert np.all(cm.edge_values == 0.0)
        assert np.all(cm.node_values == 0.0)


# a sub-ulp weight is lost in a sum with 1.0, so term order shows
_WEIGHTS = st.sampled_from([1.0, 0.5, 3.0, 1e-17, 1.0 + 2**-52, 1e-300, 7e5])


class TestWeightedOracle:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 30), hubs=st.integers(0, 2),
           pairs=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                          max_size=60),
           data=st.data())
    def test_random_graphs(self, n, hubs, pairs, data):
        # node ids at or above n stay out; hubs join most other nodes, and
        # nodes no pair names stay isolated
        edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v and max(u, v) < n}
        for h in range(min(hubs, n)):
            edges |= {(h, j) for j in range(h + 1, n) if j % 4}
        edges = sorted(edges)
        g = WeightedGraph(
            n, edges,
            data.draw(st.lists(_WEIGHTS, min_size=len(edges), max_size=len(edges))),
            data.draw(st.lists(_WEIGHTS, min_size=n, max_size=n)))
        assert_weighted_map_equals_oracle(g)

    def test_lesmis(self):
        g, _ = load_edge_list(LESMIS)
        assert_weighted_map_equals_oracle(g)

    def test_hub_spans_several_chunks(self):
        # the star's terms number about 700**2, more than one chunk holds
        rng = np.random.default_rng(8)
        edges = [(0, i) for i in range(1, 701)] + [(i, i + 1) for i in range(1, 700, 3)]
        g = WeightedGraph(701, edges, rng.uniform(0.5, 3.0, len(edges)),
                          rng.uniform(0.5, 2.0, 701))
        assert_weighted_map_equals_oracle(g)


class TestErrors:
    def test_missing_edge(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            edge_id(g, 0, 2)

    def test_underflowing_weights_name_the_edge(self):
        # 1e-300 * 1e-300 underflows to 0, so edge (0, 1) gets a term -1/0
        g = WeightedGraph(3, [(0, 1), (1, 2), (0, 2)], [1e-300, 1e-300, 1.0])
        with pytest.raises(ValueError, match=r"edge \(0, 1\) is -inf"):
            compute_curvature_map(g, "weighted")
        assert compute_curvature_map(g, "combinatorial").edge_values.tolist() == [0.0] * 3

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            compute_curvature_map(path_graph(3), "ollivier")


def test_lesmis_combinatorial_recheck():
    g, _ = load_edge_list(LESMIS)
    cm = compute_curvature_map(g, "combinatorial")
    degrees = g.degrees
    for e, (u, v) in enumerate(g.edges):
        assert cm.edge_values[e] == float(4 - degrees[u] - degrees[v])
