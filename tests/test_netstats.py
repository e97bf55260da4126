"""Statistic tests: worked values, oracle equivalence, equivariance."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvewalk import (WeightedGraph, betweenness, closeness,
                       compute_statistics, graph, load_edge_list,
                       mean_statistic, netstats, strength_vector,
                       weighted_clustering)
from conftest import (LESMIS, PATH_KINDS, assert_clustering_equals_oracle,
                      assert_mode_equals, assert_weighted_map_equals_oracle,
                      complete_graph, dijkstra_oracle, path_graph,
                      random_connected_graph, random_graph,
                      set_sources_per_block, star_graph, star_plus_path)
from oracles import dfs_hop_bc_oracle, hop_bc_cc_oracle, weighted_bc_cc_oracle


class TestWorkedValues:
    def test_path_betweenness(self):
        bc = betweenness(path_graph(3))
        assert bc.tolist() == [0.0, 1.0, 0.0]

    def test_star_center_betweenness(self):
        bc = betweenness(star_graph(4))
        assert bc[0] == 6.0  # C(4, 2) leaf pairs route through the center
        assert np.all(bc[1:] == 0.0)

    def test_complete_graph_zero(self):
        assert np.all(betweenness(complete_graph(5)) == 0.0)

    def test_path_closeness(self):
        cc = closeness(path_graph(3))
        assert cc[1] == pytest.approx(0.5)
        assert cc[0] == pytest.approx(1 / 3)
        assert cc[2] == pytest.approx(1 / 3)

    def test_star_center_closeness(self):
        for k in (3, 5, 8):
            cc = closeness(star_graph(k))
            assert cc[0] == pytest.approx(1 / k)

    def test_strength(self):
        assert strength_vector(star_graph(4))[0] == 4.0
        g = WeightedGraph(3, [(0, 1), (0, 2)], [2.0, 0.5])
        assert strength_vector(g)[0] == 2.5
        g2 = WeightedGraph(2, [])
        assert strength_vector(g2).tolist() == [0.0, 0.0]

    def test_triangle_clustering_is_one(self):
        g = complete_graph(3)
        assert np.all(weighted_clustering(g) == 1.0)

    def test_degree_one_clustering_zero(self):
        assert weighted_clustering(path_graph(3))[0] == 0.0

    def test_star_clustering_zero(self):
        assert np.all(weighted_clustering(star_graph(5)) == 0.0)

    def test_isolated_closeness_zero(self):
        g = WeightedGraph(3, [(0, 1)])
        assert closeness(g)[2] == 0.0


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_hop_against_walk_matrices(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, int(rng.integers(2, 13)), float(rng.uniform(0.15, 0.8)))
        bc_o, cc_o = hop_bc_cc_oracle(g)
        assert np.allclose(betweenness(g, "hop"), bc_o, atol=1e-9)
        assert np.allclose(closeness(g, "hop"), cc_o, atol=1e-9)

    @pytest.mark.parametrize("seed", range(25))
    def test_weighted_against_floyd_warshall(self, seed):
        rng = np.random.default_rng(1000 + seed)
        g = random_graph(rng, int(rng.integers(2, 13)),
                         float(rng.uniform(0.2, 0.8)), weighted=True)
        bc_o, cc_o = weighted_bc_cc_oracle(g)
        assert np.allclose(betweenness(g, "weighted"), bc_o, atol=1e-9)
        assert np.allclose(closeness(g, "weighted"), cc_o, atol=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_hop_against_dfs_enumeration(self, seed):
        rng = np.random.default_rng(2000 + seed)
        g = random_graph(rng, int(rng.integers(2, 8)), 0.45)
        assert np.allclose(betweenness(g, "hop"),
                           dfs_hop_bc_oracle(g), atol=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_unit_weight_modes_agree(self, seed):
        rng = np.random.default_rng(3000 + seed)
        g = random_connected_graph(rng, 12)
        # the hop breadth-first sweep forms every float in the Dijkstra's
        # order, so on unit weights the two modes agree bit for bit
        assert np.array_equal(betweenness(g, "hop"),
                              betweenness(g, "weighted"))
        assert np.array_equal(closeness(g, "hop"),
                              closeness(g, "weighted"))


class TestProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_strength_equals_degree_on_unit_weights(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 15)
        assert np.array_equal(strength_vector(g),
                              g.degrees.astype(float))

    @pytest.mark.parametrize("seed", range(5))
    def test_unit_weight_clustering_is_classic(self, seed):
        # with W = A the Barrat formula collapses to triangles / pairs
        rng = np.random.default_rng(40 + seed)
        g = random_connected_graph(rng, 12, extra=2.0)
        nbr = [set(g.adj_neighbors[g.adj_indptr[i]:g.adj_indptr[i + 1]].tolist())
               for i in range(g.node_count)]
        expected = np.zeros(g.node_count)
        for i in range(g.node_count):
            d = len(nbr[i])
            if d <= 1:
                continue
            tri = sum(1 for j in nbr[i] for h in nbr[i]
                      if j < h and h in nbr[j])
            expected[i] = tri / (d * (d - 1) / 2)
        assert np.allclose(weighted_clustering(g), expected, atol=1e-12)

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
            assert np.allclose(sv2[perm], sv, atol=1e-9), kind

    def test_clustering_bounds(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            g = random_connected_graph(rng, 14, extra=2.5, weighted=True)
            vals = weighted_clustering(g)
            assert np.all(vals >= 0) and np.all(vals <= 1 + 1e-12)


# a sub-ulp weight is lost in a sum with 1.0, so term order shows
_CLUSTERING_WEIGHTS = st.one_of(
    st.sampled_from([1.0, 0.1, 3.0, 1e-17, 1.0 + 2**-52, 1e-300, 7e5]),
    st.floats(1e-3, 1e3))


class TestClusteringOracle:
    """The pair-walk clustering equals the per-node loop bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(0, 30), clique=st.integers(0, 8), hub=st.booleans(),
           pairs=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                          max_size=40),
           data=st.data())
    def test_random_graphs(self, n, clique, hub, pairs, data):
        # node ids at or above n stay out; the clique sits on the first
        # nodes, the hub on the last node joins every third other node, and
        # nodes no pair names stay isolated or keep degree 1
        edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v and max(u, v) < n}
        edges |= set(itertools.combinations(range(min(clique, n)), 2))
        if hub and n:
            edges |= {(j, n - 1) for j in range(0, n - 1, 3)}
        edges = sorted(edges)
        weights = data.draw(st.lists(_CLUSTERING_WEIGHTS, min_size=len(edges),
                                     max_size=len(edges)))
        assert_clustering_equals_oracle(WeightedGraph(n, edges, weights))

    @pytest.mark.parametrize("make", [
        lambda: load_edge_list(LESMIS)[0],
        lambda: star_plus_path(np.random.default_rng(3), 120),
        lambda: complete_graph(9),
        lambda: random_connected_graph(np.random.default_rng(4), 300,
                                       extra=3.0, weighted=True),
    ], ids=["lesmis", "hub", "clique", "synth300"])
    def test_named_graphs(self, make):
        assert_clustering_equals_oracle(make())

    @pytest.mark.parametrize("cap", [1, 97])
    @pytest.mark.parametrize("make", [
        lambda: load_edge_list(LESMIS)[0],
        lambda: star_plus_path(np.random.default_rng(5), 120),
    ], ids=["lesmis", "hub"])
    def test_chunk_ends_inside_a_row(self, make, cap, monkeypatch):
        # a narrow cap ends chunks between two half-edges of one node, where
        # clustering carries a node's sum into the next chunk, and between
        # the two ends of one edge in the curvature walk
        g = make()
        monkeypatch.setattr(graph, "_PAIR_CAP", cap)
        his = [hi for _, hi, _, _ in graph._pair_walk(g, g.adj_tails, g.adj_neighbors)]
        assert any(g.adj_tails[hi - 1] == g.adj_tails[hi] for hi in his[:-1])
        ends = g.edges.ravel()
        his = [hi for _, hi, _, _ in graph._pair_walk(g, ends, g.edges[:, ::-1].ravel())]
        assert any(hi % 2 for hi in his)
        assert_clustering_equals_oracle(g)
        assert_weighted_map_equals_oracle(g)


class TestMeanStatistic:
    def test_all_nodes(self):
        sv = strength_vector(star_graph(4))
        assert mean_statistic(sv) == pytest.approx(8 / 5)

    def test_singleton(self):
        sv = betweenness(path_graph(3))
        assert mean_statistic(sv[[1]]) == 1.0

    def test_pair_on_path(self):
        sv = betweenness(path_graph(3))
        assert mean_statistic(sv[[0, 1]]) == pytest.approx(0.5)

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            mean_statistic(np.zeros(0))


def test_statistics_are_read_only_float_arrays():
    g = path_graph(4, [1.0, 2.0, 0.5])
    results = [betweenness(g, "weighted"), closeness(g), strength_vector(g),
               weighted_clustering(g), *compute_statistics(g).values()]
    for values in results:
        assert isinstance(values, np.ndarray)
        assert values.dtype == np.float64 and values.shape == (4,)
        assert not values.flags.writeable


def test_compute_statistics_kinds():
    g = path_graph(4)
    out = compute_statistics(g, ("strength", "closeness"))
    assert set(out) == {"strength", "closeness"}
    with pytest.raises(ValueError):
        compute_statistics(g, ("pagerank",))


@pytest.mark.parametrize("call", [
    lambda g: compute_statistics(g, ("strength",), "bogus"),
    lambda g: compute_statistics(g, ("weighted_clustering", "betweenness"), "bogus"),
    lambda g: betweenness(g, "bogus"),
    lambda g: closeness(g, "bogus"),
], ids=["strength-only", "with-paths", "betweenness", "closeness"])
def test_unknown_path_mode_is_refused(call):
    with pytest.raises(ValueError, match="unknown path mode 'bogus'"):
        call(path_graph(4))


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
        assert betweenness(g, "weighted")[1] == middle
        stats = compute_statistics(g, ("betweenness",), "weighted")
        assert stats["betweenness"][1] == middle


class TestSharedSweep:
    @pytest.fixture
    def graph(self):
        return random_connected_graph(np.random.default_rng(4000), 30,
                                      weighted=True)

    @pytest.mark.parametrize("mode", ["hop", "weighted"])
    def test_one_traversal_per_source(self, graph, mode, monkeypatch):
        calls = []
        def counted(g, path_mode, _inner=netstats._sweep):
            calls.append((g, path_mode))
            return _inner(g, path_mode)
        monkeypatch.setattr(netstats, "_sweep", counted)
        compute_statistics(graph, ("betweenness", "closeness"), mode)
        assert calls == [(graph, mode)]

    @pytest.mark.parametrize("mode", ["hop", "weighted"])
    def test_equals_public_functions_bitwise(self, graph, mode):
        out = compute_statistics(graph, ("closeness", "betweenness"), mode)
        assert list(out) == ["closeness", "betweenness"]
        assert np.array_equal(out["betweenness"],
                              betweenness(graph, mode))
        assert np.array_equal(out["closeness"],
                              closeness(graph, mode))


def unit_dijkstra_oracle(g):
    """Path statistics of the heap Dijkstra on the unit-weight copy of ``g``."""
    return dijkstra_oracle(WeightedGraph(g.node_count, g.edges))


def triple_diamonds(hubs=61):
    """Hub ``i`` reaches hub ``i + 1`` through 3 middle nodes, so
    ``3 ** (hubs - 1)`` shortest paths join the end hubs."""
    edges = []
    for i in range(hubs - 1):
        for k in range(3):
            middle = hubs + 3 * i + k
            edges += [(i, middle), (middle, i + 1)]
    return WeightedGraph(hubs + 3 * (hubs - 1), edges)


class TestHopSweep:
    """The source-batched breadth-first sweep equals the Dijkstra bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 24), p=st.floats(0.0, 0.6),
           weighted=st.booleans(), graph_seed=st.integers(0, 2**32 - 1),
           sources=st.integers(1, 25))
    def test_random_graphs(self, n, p, weighted, graph_seed, sources):
        # includes disconnected graphs, isolated nodes and partial blocks
        g = random_graph(np.random.default_rng(graph_seed), n, p, weighted)
        with pytest.MonkeyPatch.context() as mp:
            set_sources_per_block(mp, g, sources)
            assert_mode_equals(g, "hop", unit_dijkstra_oracle(g))

    @pytest.fixture(scope="class")
    def named(self):
        graphs = {
            "lesmis": load_edge_list(LESMIS)[0],
            "synth500": random_connected_graph(np.random.default_rng(500),
                                               500, extra=2.0),
        }
        return {name: (g, unit_dijkstra_oracle(g))
                for name, g in graphs.items()}

    @pytest.mark.parametrize("sources", [1, 7, None])  # None: the default
    @pytest.mark.parametrize("name", ["lesmis", "synth500"])
    def test_named_graphs(self, named, name, sources, monkeypatch):
        g, oracle = named[name]
        if sources is not None:
            set_sources_per_block(monkeypatch, g, sources)
        assert_mode_equals(g, "hop", oracle)

    @pytest.mark.parametrize("name", ["lesmis", "synth500"])
    def test_default_blocks_hold_several_sources(self, named, name):
        g, _ = named[name]
        per_source = max(len(g.adj_neighbors), g.node_count)
        assert netstats._BLOCK_PAIRS // per_source > 1

    def test_path_counts_beyond_float_precision(self):
        # 3**60 (about 4e28, past 2**53) shortest paths join the end hubs.
        # Float64 path counts then round differently from the Dijkstra's
        # exact integers, within 1e-15 relative; closeness is summed from
        # exact integer distances and stays exact.
        g = triple_diamonds()
        hop = compute_statistics(g, PATH_KINDS, "hop")
        oracle = unit_dijkstra_oracle(g)
        np.testing.assert_allclose(hop["betweenness"],
                                   oracle["betweenness"],
                                   rtol=1e-15, atol=0)
        assert np.array_equal(hop["closeness"], oracle["closeness"])


WEIGHT_FAMILIES = {
    "uniform": lambda rng, m: rng.uniform(0.5, 3.0, m),
    "ints": lambda rng, m: rng.choice([1.0, 2.0, 3.0], m),
    "tenths": lambda rng, m: rng.choice([0.1, 0.2, 0.3], m),  # 0.1 + 0.2 != 0.3
    "unit": lambda rng, m: np.ones(m),
    # lengths below half an ulp of the distances they are added to
    "sub_ulp": lambda rng, m: rng.choice([1.0, 2.0, 1e-17, 3e-16], m),
    # twelve orders of magnitude, so distance buckets span many of them
    "magnitudes": lambda rng, m: 10 ** rng.uniform(-6, 6, m),
}


class TestWeightedSweep:
    """The source-batched weighted sweep equals the heap Dijkstra bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(0, 24), p=st.floats(0.0, 0.6),
           family=st.sampled_from(sorted(WEIGHT_FAMILIES)),
           graph_seed=st.integers(0, 2**32 - 1), sources=st.integers(1, 25))
    def test_random_graphs(self, n, p, family, graph_seed, sources):
        # includes disconnected graphs, isolated nodes, exact distance ties
        # and partial blocks
        rng = np.random.default_rng(graph_seed)
        shape = random_graph(rng, n, p)
        g = WeightedGraph(n, shape.edges,
                          WEIGHT_FAMILIES[family](rng, shape.edge_count))
        with pytest.MonkeyPatch.context() as mp:
            set_sources_per_block(mp, g, sources)
            assert_mode_equals(g, "weighted", dijkstra_oracle(g))

    @pytest.fixture(scope="class")
    def named(self):
        graphs = {
            "lesmis": load_edge_list(LESMIS)[0],
            "synth500": random_connected_graph(np.random.default_rng(500),
                                               500, extra=2.0, weighted=True),
        }
        return {name: (g, dijkstra_oracle(g)) for name, g in graphs.items()}

    @pytest.mark.parametrize("sources", [1, 7, None])  # None: the default
    @pytest.mark.parametrize("name", ["lesmis", "synth500"])
    def test_named_graphs(self, named, name, sources, monkeypatch):
        g, oracle = named[name]
        if sources is not None:
            set_sources_per_block(monkeypatch, g, sources)
        assert_mode_equals(g, "weighted", oracle)

    def test_sub_ulp_length_keeps_its_edge(self):
        # 1.0 + 1e-17 == 1.0: nodes 1 and 2 share a distance from either end,
        # and the edge between them stays a shortest-path edge
        g = path_graph(4, [1.0, 1e-17, 1.0])
        bc = betweenness(g, "weighted")
        assert bc.tolist() == [0.0, 2.0, 2.0, 0.0]
        assert_mode_equals(g, "weighted", dijkstra_oracle(g))

    @pytest.mark.parametrize("graph", [
        lambda: load_edge_list(LESMIS)[0],  # integer lengths: many ties
        lambda: random_connected_graph(np.random.default_rng(501), 40,
                                       extra=2.0, weighted=True),
    ], ids=["lesmis", "synth40"])
    def test_bucket_narrower_than_an_ulp(self, graph, monkeypatch):
        # 1.0 + 1e-300 == 1.0: the bucket holds only the least pending
        # distance, which each round must still expand for the sweep to end.
        # Each round then settles a state, so the half-edge walks number at
        # most one per state plus one per tied group
        g = graph()
        oracle = dijkstra_oracle(g)
        monkeypatch.setattr(netstats, "_bucket_width", lambda g: 1e-300)
        walks = itertools.count(1)
        def counted(g, keys, _inner=netstats._expand):
            assert next(walks) <= 2 * g.node_count ** 2, "the sweep does not end"
            return _inner(g, keys)
        monkeypatch.setattr(netstats, "_expand", counted)
        assert_mode_equals(g, "weighted", oracle)

    def test_path_counts_beyond_float_precision(self):
        g = triple_diamonds()
        out = compute_statistics(g, PATH_KINDS, "weighted")
        oracle = dijkstra_oracle(g)
        np.testing.assert_allclose(out["betweenness"],
                                   oracle["betweenness"], rtol=1e-15, atol=0)
        assert np.array_equal(out["closeness"], oracle["closeness"])
