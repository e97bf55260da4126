"""Statistic tests: worked values, oracle equivalence, equivariance."""

from __future__ import annotations

import numpy as np
import pytest

from curvewalk import (WeightedGraph, betweenness, closeness,
                       compute_statistics, mean_statistic, netstats,
                       strength_vector, weighted_clustering)
from conftest import (complete_graph, path_graph, random_connected_graph,
                      random_graph, star_graph)
from oracles import dfs_hop_bc_oracle, hop_bc_cc_oracle, weighted_bc_cc_oracle


class TestWorkedValues:
    def test_path_betweenness(self):
        bc = betweenness(path_graph(3)).values
        assert bc.tolist() == [0.0, 1.0, 0.0]

    def test_star_center_betweenness(self):
        bc = betweenness(star_graph(4)).values
        assert bc[0] == 6.0  # C(4, 2) leaf pairs route through the center
        assert np.all(bc[1:] == 0.0)

    def test_complete_graph_zero(self):
        assert np.all(betweenness(complete_graph(5)).values == 0.0)

    def test_path_closeness(self):
        cc = closeness(path_graph(3)).values
        assert cc[1] == pytest.approx(0.5)
        assert cc[0] == pytest.approx(1 / 3)
        assert cc[2] == pytest.approx(1 / 3)

    def test_star_center_closeness(self):
        for k in (3, 5, 8):
            cc = closeness(star_graph(k)).values
            assert cc[0] == pytest.approx(1 / k)

    def test_strength(self):
        assert strength_vector(star_graph(4)).values[0] == 4.0
        g = WeightedGraph(3, [(0, 1), (0, 2)], [2.0, 0.5])
        assert strength_vector(g).values[0] == 2.5
        g2 = WeightedGraph(2, [])
        assert strength_vector(g2).values.tolist() == [0.0, 0.0]

    def test_triangle_clustering_is_one(self):
        g = complete_graph(3)
        assert np.all(weighted_clustering(g).values == 1.0)

    def test_degree_one_clustering_zero(self):
        assert weighted_clustering(path_graph(3)).values[0] == 0.0

    def test_star_clustering_zero(self):
        assert np.all(weighted_clustering(star_graph(5)).values == 0.0)

    def test_isolated_closeness_zero(self):
        g = WeightedGraph(3, [(0, 1)])
        assert closeness(g).values[2] == 0.0


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_hop_against_walk_matrices(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(2, 13)), float(rng.uniform(0.15, 0.8)))
        bc_o, cc_o = hop_bc_cc_oracle(g)
        assert np.allclose(betweenness(g, "hop").values, bc_o, atol=1e-9)
        assert np.allclose(closeness(g, "hop").values, cc_o, atol=1e-9)

    @pytest.mark.parametrize("seed", range(25))
    def test_weighted_against_floyd_warshall(self, seed):
        rng = np.random.default_rng(1000 + seed)
        g = random_graph(rng, int(rng.integers(2, 13)),
                         float(rng.uniform(0.2, 0.8)), weighted=True)
        bc_o, cc_o = weighted_bc_cc_oracle(g)
        assert np.allclose(betweenness(g, "weighted").values, bc_o, atol=1e-9)
        assert np.allclose(closeness(g, "weighted").values, cc_o, atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_hop_against_dfs_enumeration(self, seed):
        rng = np.random.default_rng(2000 + seed)
        g = random_graph(rng, int(rng.integers(2, 8)), 0.45)
        assert np.allclose(betweenness(g, "hop").values,
                           dfs_hop_bc_oracle(g), atol=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_unit_weight_modes_agree(self, seed):
        rng = np.random.default_rng(3000 + seed)
        g = random_connected_graph(rng, 12)
        # both modes run the same routine, so unit weights agree bit for bit
        assert np.array_equal(betweenness(g, "hop").values,
                              betweenness(g, "weighted").values)
        assert np.array_equal(closeness(g, "hop").values,
                              closeness(g, "weighted").values)


class TestProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_strength_equals_degree_on_unit_weights(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 15)
        assert np.array_equal(strength_vector(g).values,
                              g.degrees.astype(float))

    @pytest.mark.parametrize("seed", range(5))
    def test_unit_weight_clustering_is_classic(self, seed):
        # with W = A the Barrat formula collapses to triangles / pairs
        rng = np.random.default_rng(40 + seed)
        g = random_connected_graph(rng, 12, extra=2.0)
        nbr = [set(j for j, _ in g.neighbors(i)) for i in range(g.node_count)]
        expected = np.zeros(g.node_count)
        for i in range(g.node_count):
            d = g.degree(i)
            if d <= 1:
                continue
            tri = sum(1 for j in nbr[i] for h in nbr[i]
                      if j < h and h in nbr[j])
            expected[i] = tri / (d * (d - 1) / 2)
        assert np.allclose(weighted_clustering(g).values, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(60 + seed)
        g = random_connected_graph(rng, 11, weighted=True)
        perm = rng.permutation(g.node_count)
        g2 = WeightedGraph(
            g.node_count,
            [(int(perm[u]), int(perm[v])) for u, v in g.edges],
            g.edge_weights,
        )
        for kind, sv in compute_statistics(g).items():
            sv2 = compute_statistics(g2, (kind,))[kind]
            assert np.allclose(sv2.values[perm], sv.values, atol=1e-9), kind

    def test_clustering_bounds(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            g = random_connected_graph(rng, 14, extra=2.5, weighted=True)
            vals = weighted_clustering(g).values
            assert np.all(vals >= 0) and np.all(vals <= 1 + 1e-12)


class TestMeanStatistic:
    def test_all_nodes(self):
        sv = strength_vector(star_graph(4))
        assert mean_statistic(sv) == pytest.approx(8 / 5)

    def test_singleton(self):
        sv = betweenness(path_graph(3))
        assert mean_statistic(sv, {1}) == 1.0

    def test_pair_on_path(self):
        sv = betweenness(path_graph(3))
        assert mean_statistic(sv, {0, 1}) == pytest.approx(0.5)

    def test_errors(self):
        sv = strength_vector(path_graph(3))
        with pytest.raises(ValueError):
            mean_statistic(sv, set())
        with pytest.raises(ValueError):
            mean_statistic(sv, {5})
        with pytest.raises(ValueError):
            mean_statistic(sv, "some")


def test_compute_statistics_kinds():
    g = path_graph(4)
    out = compute_statistics(g, ("strength", "closeness"))
    assert set(out) == {"strength", "closeness"}
    with pytest.raises(ValueError):
        compute_statistics(g, ("pagerank",))


class TestFloatEqualityTies:
    """Weighted path counts tie only on exactly equal float path lengths."""

    @staticmethod
    def triangle(w01, w12, w02):
        return WeightedGraph(3, [(0, 1), (1, 2), (0, 2)], [w01, w12, w02])

    @pytest.mark.parametrize("weights, middle", [
        ((0.1, 0.2, 0.3), 0.0),  # 0.1 + 0.2 > 0.3: the direct edge is shorter
        ((0.5, 0.5, 1.0), 0.5),  # 0.5 + 0.5 == 1.0: two shortest paths
    ])
    def test_triangle_middle_node(self, weights, middle):
        g = self.triangle(*weights)
        assert betweenness(g, "weighted").values[1] == middle
        stats = compute_statistics(g, ("betweenness",), "weighted")
        assert stats["betweenness"].values[1] == middle


class TestSharedSweep:
    @pytest.fixture
    def graph(self):
        return random_connected_graph(np.random.default_rng(4000), 30,
                                      weighted=True)

    @pytest.mark.parametrize("mode", ["hop", "weighted"])
    def test_one_traversal_per_source(self, graph, mode, monkeypatch):
        calls = []
        inner = netstats._shortest_paths

        def counted(*args):
            calls.append(args[-1])
            return inner(*args)

        monkeypatch.setattr(netstats, "_shortest_paths", counted)
        compute_statistics(graph, ("betweenness", "closeness"), mode)
        assert sorted(calls) == list(range(graph.node_count))

    @pytest.mark.parametrize("mode", ["hop", "weighted"])
    def test_equals_public_functions_bitwise(self, graph, mode):
        out = compute_statistics(graph, ("closeness", "betweenness"), mode)
        assert list(out) == ["closeness", "betweenness"]
        assert np.array_equal(out["betweenness"].values,
                              betweenness(graph, mode).values)
        assert np.array_equal(out["closeness"].values,
                              closeness(graph, mode).values)
        assert out["betweenness"].path_mode == out["closeness"].path_mode == mode
