"""Graph model, loader and structural query tests."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvewalk import (GraphFormatError, WeightedGraph, connected_components,
                       induced_subgraph, load_edge_list, write_edge_list)
from conftest import path_graph, star_graph, random_connected_graph
from oracles import connected_components_oracle, edge_id


def weight(g, i, j):
    return g.edge_weights[edge_id(g, i, j)]


def neighbors(g, i):
    """Node ``i``'s CSR row as ``(neighbor, weight)`` pairs."""
    row = slice(g.adj_indptr[i], g.adj_indptr[i + 1])
    return list(zip(g.adj_neighbors[row].tolist(), g.adj_weights[row].tolist()))


def write_lines(tmp_path, name, lines):
    f = tmp_path / name
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return f


class TestLoader:
    def test_two_edge_path(self, tmp_path):
        f = write_lines(tmp_path, "p.txt", ["0 1", "1 2"])
        g, labels = load_edge_list(f)
        assert g.node_count == 3
        assert g.degrees.tolist() == [1, 2, 1]
        assert np.all(g.edge_weights == 1.0)
        assert labels == ("0", "1", "2")

    def test_comments_headers_blanks(self, tmp_path):
        f = write_lines(tmp_path, "k.tsv", [
            "% sym positive", "# a comment", "", "a\tb\t2.5", "b\tc"])
        g, labels = load_edge_list(f)
        assert g.node_count == 3
        assert weight(g, labels.index("a"), labels.index("b")) == 2.5
        assert weight(g, labels.index("b"), labels.index("c")) == 1.0

    def test_labels_first_seen_order(self, tmp_path):
        f = write_lines(tmp_path, "l.txt", ["x y", "z x"])
        _, labels = load_edge_list(f)
        assert labels == ("x", "y", "z")
        assert labels.index("z") == 2
        assert labels[1] == "y"
        with pytest.raises(ValueError):
            labels.index("nope")

    def test_labels_are_a_tuple_of_str(self, tmp_path):
        f = write_lines(tmp_path, "t.txt", ["7 x 2", "x 8.5"])
        _, labels = load_edge_list(f)
        assert type(labels) is tuple
        assert labels == ("7", "x", "8.5")
        assert all(type(label) is str for label in labels)

    def test_unweighted_flag_ignores_column(self, tmp_path):
        f = write_lines(tmp_path, "w.txt", ["a b 9"])
        g, _ = load_edge_list(f, weighted=False)
        assert weight(g, 0, 1) == 1.0

    def test_default_node_weight(self, tmp_path):
        f = write_lines(tmp_path, "n.txt", ["a b"])
        g, _ = load_edge_list(f, default_node_weight=0.5)
        assert np.all(g.node_weights == 0.5)
        with pytest.raises(ValueError):
            load_edge_list(f, default_node_weight=0.0)

    @pytest.mark.parametrize("lines,lineno,msg", [
        (["a b", "a"], 2, "expected"),
        (["a b c d"], 1, "expected"),
        (["a b x"], 1, "bad weight"),
        (["a b -1"], 1, "positive"),
        (["a b 0"], 1, "positive"),
        (["a b nan"], 1, "positive"),
        (["a a"], 1, "self-loop"),
        (["a b", "b a"], 2, "duplicate"),
        (["a b 1", "a b 2"], 2, "duplicate"),
        *((["a b 1", f"b c {w}"], 2, f":2: weight must be finite and positive, got {w}")
          for w in ("1e400", "inf", "nan", "0", "-1")),
    ])
    def test_errors_carry_line_number(self, tmp_path, lines, lineno, msg):
        f = write_lines(tmp_path, "bad.txt", lines)
        with pytest.raises(GraphFormatError) as err:
            load_edge_list(f)
        assert f":{lineno}:" in str(err.value)
        assert msg in str(err.value)

    def test_delimited_fields_lose_surrounding_spaces(self, tmp_path):
        f = write_lines(tmp_path, "padded.csv", ["a, b, 2", "b, c, 1"])
        g, labels = load_edge_list(f, delimiter=",")
        assert labels == ("a", "b", "c")
        assert weight(g, 0, 1) == 2.0
        assert weight(g, 1, 2) == 1.0

    @pytest.mark.parametrize("line", ["a,,1", "a, ,1", "a,b,"])
    def test_empty_delimited_field_refused(self, tmp_path, line):
        f = write_lines(tmp_path, "empty.csv", ["x,y", line])
        with pytest.raises(GraphFormatError, match=":2: empty field"):
            load_edge_list(f, delimiter=",")

    def test_meta_counts(self, tmp_path):
        f = write_lines(tmp_path, "m.txt", ["a b", "a c", "a d"])
        g, labels = load_edge_list(f)
        assert (g.node_count, g.edge_count, int(g.degrees.max())) == (4, 3, 3)
        assert labels == ("a", "b", "c", "d")

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        g = random_connected_graph(rng, 15, extra=1.0, weighted=True)
        out = tmp_path / "rt.txt"
        write_edge_list(g, out)
        g2, labels = load_edge_list(out)
        assert g2.node_count == g.node_count
        original = {(int(u), int(v)): float(w)
                    for (u, v), w in zip(g.edges, g.edge_weights)}
        reloaded = {}
        for (u, v), w in zip(g2.edges, g2.edge_weights):
            a, b = int(labels[u]), int(labels[v])
            reloaded[(min(a, b), max(a, b))] = float(w)
        assert reloaded == original

    @pytest.mark.parametrize("text", ["% sym unweighted\na b\nb c\n", "a b 1\n"],
                             ids=["header", "edge"])
    def test_byte_order_mark_is_dropped(self, tmp_path, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        g, labels = load_edge_list(plain)
        g2, labels2 = load_edge_list(marked)
        assert labels2 == labels
        assert np.array_equal(g2.edges, g.edges)
        assert np.array_equal(g2.edge_weights, g.edge_weights)

    def test_round_trip_with_labels(self, tmp_path):
        # a label may start with '#' where it is not a line's first field
        f = write_lines(tmp_path, "in.csv", ["a,#x,1", "c,d,2.5"])
        g, labels = load_edge_list(f, delimiter=",")
        out = tmp_path / "out.txt"
        write_edge_list(g, out, labels)
        g2, labels2 = load_edge_list(out)
        assert g2.edge_count == g.edge_count == 2
        assert labels2 == labels
        assert np.array_equal(g2.edge_weights, g.edge_weights)

    @pytest.mark.parametrize("labels, bad", [
        (("#x", "b", "c"), "#x"),
        (("a", "%p", "c"), "%p"),
        (("a b", "c", "d"), "a b"),
        (("a", "b", "c\td"), "c\td"),
        (("a", "", "c"), ""),
        (("\ufeffa", "b", "c"), "\ufeffa"),
    ], ids=["hash-first", "percent-first", "space", "tab", "empty", "bom-first"])
    def test_write_refuses_a_label_that_would_not_read_back(
            self, tmp_path, labels, bad):
        # path 0-1-2: labels 0 and 1 start lines, 1 and 2 end them
        out = tmp_path / "out.txt"
        with pytest.raises(ValueError, match=re.escape(f"label {bad!r}")):
            write_edge_list(path_graph(3), out, labels)
        assert not out.exists()


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            WeightedGraph(2, [(0, 0)])

    def test_rejects_duplicates_any_orientation(self):
        with pytest.raises(GraphFormatError):
            WeightedGraph(2, [(0, 1), (1, 0)])

    def test_rejects_bad_weights(self):
        with pytest.raises(GraphFormatError):
            WeightedGraph(2, [(0, 1)], [0.0])
        with pytest.raises(GraphFormatError):
            WeightedGraph(2, [(0, 1)], [-2.0])
        with pytest.raises(GraphFormatError):
            WeightedGraph(2, [(0, 1)], node_weights=[1.0, 0.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError):
            WeightedGraph(2, [(0, 2)])

    def test_rejects_negative_node_count(self):
        with pytest.raises(GraphFormatError, match="node_count must be non-negative"):
            WeightedGraph(-1, [])

    def test_rejects_rows_that_are_not_pairs(self):
        # a u v w edge list is not reshaped into pairs
        for edges in ([(0, 1, 2.0)], np.zeros((2, 3)), [0, 1], [0, 1, 1, 2]):
            with pytest.raises(ValueError):
                WeightedGraph(3, edges)

    def test_array_and_list_edges_agree(self):
        g = random_connected_graph(np.random.default_rng(3), 20, weighted=True)
        edges = np.array(g.edges[:, ::-1])
        from_array = WeightedGraph(20, edges, g.edge_weights)
        from_list = WeightedGraph(20, edges.tolist(), g.edge_weights.tolist())
        for name in WeightedGraph.__slots__:
            assert np.array_equal(getattr(from_array, name), getattr(from_list, name))
        assert np.array_equal(from_array.edges, g.edges)
        assert edges.flags.writeable  # the caller's array is not frozen

    def test_arrays_frozen(self):
        g = path_graph(3)
        for arr in (g.edges, g.edge_weights, g.node_weights, g.degrees,
                    g.strengths, g.adj_neighbors):
            with pytest.raises(ValueError):
                arr[0] = 1


class TestQueries:
    def test_neighbors_path(self):
        g = path_graph(3)
        assert neighbors(g, 1) == [(0, 1.0), (2, 1.0)]

    def test_neighbors_star_and_isolated(self):
        g = star_graph(4)
        assert len(neighbors(g, 0)) == 4
        g2 = WeightedGraph(3, [(0, 1)])
        assert neighbors(g2, 2) == []

    def test_degree_strength(self):
        g = star_graph(4)
        assert g.degrees[0] == 4
        assert g.strengths[0] == 4.0
        g2 = WeightedGraph(3, [(0, 1), (0, 2)], [2.0, 0.5])
        assert g2.strengths[0] == 2.5
        g3 = WeightedGraph(2, [])
        assert g3.degrees[0] == 0 and g3.strengths[0] == 0.0


class TestInducedSubgraph:
    def test_triangle_pair(self):
        g = WeightedGraph(3, [(0, 1), (1, 2), (0, 2)], [1.0, 2.0, 3.0])
        sub = induced_subgraph(g, {0, 1})
        assert sub.node_count == 2 and sub.edge_count == 1
        assert weight(sub, 0, 1) == 1.0

    def test_full_set_identity(self):
        rng = np.random.default_rng(7)
        g = random_connected_graph(rng, 10, weighted=True)
        sub = induced_subgraph(g, range(10))
        assert np.array_equal(sub.edges, g.edges)
        assert np.array_equal(sub.edge_weights, g.edge_weights)

    def test_path_endpoints_only(self):
        g = path_graph(3)
        sub = induced_subgraph(g, {0, 2})
        assert sub.node_count == 2 and sub.edge_count == 0
        sub = induced_subgraph(WeightedGraph(3, []), {0, 1})
        assert sub.node_count == 2 and sub.edges.shape == (0, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(path_graph(3), {0, 5})

    def test_preserves_node_weights(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], node_weights=[1.0, 2.0, 3.0])
        sub = induced_subgraph(g, {1, 2})
        assert sub.node_weights.tolist() == [2.0, 3.0]


class TestInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_degree_and_strength_sums(self, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 20, extra=1.5, weighted=True)
        assert int(g.degrees.sum()) == 2 * g.edge_count
        assert g.strengths.sum() == pytest.approx(2 * g.edge_weights.sum(), rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_adjacency_symmetry(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = random_connected_graph(rng, 15, weighted=True)
        for i in range(g.node_count):
            for j, w in neighbors(g, i):
                back = dict(neighbors(g, j))
                assert back[i] == w

    @pytest.mark.parametrize("g", [
        WeightedGraph(0, []), WeightedGraph(3, []), path_graph(4), star_graph(5),
        WeightedGraph(6, [(4, 1), (0, 5), (1, 3), (2, 0)]),
    ], ids=["empty", "no-edges", "path", "star", "shuffled"])
    def test_adj_tails_is_the_read_only_tail_of_every_half_edge(self, g):
        expected = np.repeat(np.arange(g.node_count), g.degrees)
        assert g.adj_tails.dtype == np.int64
        assert np.array_equal(g.adj_tails, expected)
        assert not g.adj_tails.flags.writeable

    def test_neighbor_order_ascending(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 15)
        for i in range(g.node_count):
            ids = [j for j, _ in neighbors(g, i)]
            assert ids == sorted(ids)


class TestComponents:
    def test_connected(self):
        comps = connected_components(path_graph(4))
        assert len(comps) == 1
        assert comps[0].tolist() == [0, 1, 2, 3]

    def test_split(self):
        g = WeightedGraph(5, [(0, 1), (2, 3)])
        comps = connected_components(g)
        assert [c.tolist() for c in comps] == [[0, 1], [2, 3], [4]]

    @staticmethod
    def assert_equals_oracle(g):
        comps = connected_components(g)
        want = connected_components_oracle(g)
        assert len(comps) == len(want)
        for got, ref in zip(comps, want):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    def test_empty_graph(self):
        assert connected_components(WeightedGraph(0, [])) == []

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(0, 40))
    def test_equals_the_bfs_oracle(self, data, n):
        # edges come in drawn order and orientation; sparse draws leave
        # isolated nodes, and none at all leaves every node alone
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
            max_size=2 * n))
        edges = list({tuple(sorted(p)): p for p in pairs if p[0] != p[1]}.values())
        self.assert_equals_oracle(WeightedGraph(n, edges))

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_long_path_equals_the_bfs_oracle(self, shuffled):
        V = 10_000
        ids = np.random.default_rng(7).permutation(V) if shuffled else np.arange(V)
        edges = np.column_stack((ids[:-1], ids[1:]))
        if shuffled:
            edges = edges[np.random.default_rng(8).permutation(V - 1)]
        self.assert_equals_oracle(WeightedGraph(V, edges))
