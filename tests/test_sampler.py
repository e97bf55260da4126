"""Sampler tests: kernels, chain traces, transition matrices, stationarity."""

from __future__ import annotations

import tracemalloc
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import curvewalk.sampler
from curvewalk import (SAMPLER_KINDS, CurvatureMap, SamplerConfig,
                       WeightedGraph, build_transition_matrix, chain_seed,
                       compute_curvature_map, load_edge_list, make_rng,
                       make_target, run_chain, splitmix64,
                       stationary_distribution)
from curvewalk.sampler import (_TIME_CHUNK, _acceptance_thresholds,
                               _cell_table, _edge_cells, _kernel_table,
                               _lockstep_stream, distinct_prefix_counts)
from conftest import (LESMIS, assert_edge_rows_equal_oracle,
                      assert_generators_end_at_their_prefix,
                      assert_lockstep_equals_run_chain, cycle_graph,
                      path_graph, random_connected_graph, star_graph,
                      synthetic_graph)
from oracles import edge_curved_step, edge_id, mh_step


class TestSeeding:
    def test_splitmix64_known_vectors(self):
        # canonical splitmix64 outputs for states 0 and 1
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(1) == 0x910A2DEC89025CC1

    def test_chain_seed_rule(self):
        assert chain_seed(0, 0) == splitmix64(0)
        assert chain_seed(123, 7) == 123 ^ splitmix64(7)
        assert chain_seed(123, 7) != chain_seed(123, 8)

    def test_make_rng_deterministic(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.array_equal(a, b)


class TestConfigValidation:
    def test_valid(self):
        cfg = SamplerConfig(kind="edge_curved", seed=1, max_steps=10)
        assert cfg.start_node == "random"

    @pytest.mark.parametrize("kwargs", [
        {"kind": "teleport"},
        {"curvature_mode": "ollivier"},
        {"max_steps": 0},
        {"epsilon_floor": -1.0},
        {"burn_in": -1},
        {"start_node": "first"},
        {"start_node": -2},
        {"epsilon_floor": float("inf")},
        {"seed": 1.5},
        {"seed": "3"},
        {"max_steps": 20.0},
        {"max_steps": True},
        {"burn_in": 2.5},
        {"start_node": 2.0},
        {"epsilon_floor": "0.5"},
        {"epsilon_floor": True},
    ])
    def test_invalid(self, kwargs):
        base = {"kind": "edge_curved", "seed": 0, "max_steps": 5}
        base.update(kwargs)
        with pytest.raises(ValueError):
            SamplerConfig(**base)


class TestMakeTarget:
    def test_star_curved_target_is_uniform(self):
        # k = 5: center |F| = 10, d = 5; leaf |F| = 2, d = 1 -> all equal 2
        g = star_graph(5)
        cm = compute_curvature_map(g, "combinatorial")
        target = make_target(g, cm, "curved", 1e-9)
        assert np.allclose(target, 2.0)

    def test_floor_is_a_max_of_abs_curvature(self):
        # g(i) = max(|F(i)|, eps) / d(i) from the formula, with each node's F
        # summed over its edges' 4 - d(u) - d(v). At eps = 3 the hub has
        # |F| = 10 > eps and each leaf 0 < |F| = 2 < eps
        g = star_graph(5)
        eps, d = 3.0, g.degrees
        F = np.zeros(g.node_count)
        for u, v in g.edges.tolist():
            F[[u, v]] += 4 - d[u] - d[v]
        expected = np.maximum(np.abs(F), eps) / d
        assert expected.tolist() == [2.0, 3.0, 3.0, 3.0, 3.0, 3.0]
        cm = compute_curvature_map(g, "combinatorial")
        assert np.array_equal(make_target(g, cm, "curved", eps), expected)

    def test_uniform_kind(self):
        g = WeightedGraph(4, [(0, 1), (1, 2)])
        target = make_target(g, None, "uniform")
        assert target.tolist() == [1.0, 1.0, 1.0, 0.0]  # node 3 isolated

    def test_zero_curvature_gets_floor(self):
        g = path_graph(6)
        cm = compute_curvature_map(g, "combinatorial")
        target = make_target(g, cm, "curved", 1e-6)
        # interior nodes of a long path have |F| = 0 -> floor / 2
        assert target[2] == 1e-6 / 2
        assert target[3] == 1e-6 / 2

    def test_all_zero_density_rejected(self):
        g = cycle_graph(5)  # every edge and node has zero curvature
        cm = compute_curvature_map(g, "combinatorial")
        with pytest.raises(ValueError, match="set a positive epsilon_floor"):
            make_target(g, cm, "curved", 0.0)

    @pytest.mark.parametrize("floor", [0.0, 1e-9, 1.0])
    def test_graph_without_edges_named(self, floor):
        # no floor helps: every node is isolated, so none is in the support
        g = WeightedGraph(3, [])
        cm = compute_curvature_map(g, "combinatorial")
        with pytest.raises(ValueError) as err:
            make_target(g, cm, "curved", floor)
        assert str(err.value) == ("curved target density is zero everywhere; "
                                  "the graph has no edges")

    def test_infinite_floor_rejected(self):
        g = path_graph(3)
        cm = compute_curvature_map(g, "combinatorial")
        with pytest.raises(ValueError):
            make_target(g, cm, "curved", float("inf"))

    def test_curved_requires_map(self):
        with pytest.raises(ValueError):
            make_target(path_graph(3), None, "curved")

    def test_unknown_kind_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="unknown target kind 'bogus'"):
            make_target(g, compute_curvature_map(g, "combinatorial"), kind="bogus")

    def test_isolated_excluded(self):
        g = WeightedGraph(3, [(0, 1)])
        cm = compute_curvature_map(g, "combinatorial")
        target = make_target(g, cm, "curved")
        assert target[2] == 0.0


class TestEdgeKernel:
    def test_path_middle_splits_evenly(self):
        # both incident edges have F = 1 and far-end degree 1
        g = path_graph(3)
        P = build_transition_matrix(g, SamplerConfig(
            kind="edge_curved", seed=0, max_steps=1))
        assert P[1, 0] == pytest.approx(0.5, abs=1e-15)
        assert P[1, 2] == pytest.approx(0.5, abs=1e-15)

    def test_hand_weighted_example(self):
        # |F| = 2 toward a degree-2 neighbor and |F| = 1 toward a degree-1
        # neighbor give equal move weights 2/2 = 1/1 = 1
        g = WeightedGraph(4, [(0, 1), (0, 2), (1, 3)])
        ev = np.zeros(3)
        ev[edge_id(g, 0, 1)] = 2.0   # d(1) = 2
        ev[edge_id(g, 0, 2)] = -1.0  # d(2) = 1
        ev[edge_id(g, 1, 3)] = 5.0
        cm = CurvatureMap(edge_values=ev, node_values=np.zeros(4))
        P = build_transition_matrix(g, SamplerConfig(
            kind="edge_curved", seed=0, max_steps=1), curvmap=cm)
        assert P[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert P[0, 2] == pytest.approx(0.5, abs=1e-15)

    def test_star_center_uniform_over_leaves(self):
        g = star_graph(4)
        cm = compute_curvature_map(g, "combinatorial")
        rng = make_rng(3)
        counts = np.zeros(5)
        for _ in range(4000):
            counts[edge_curved_step(g, cm, 0, rng)] += 1
        assert counts[0] == 0  # never stays
        assert np.all(np.abs(counts[1:] / 4000 - 0.25) < 0.03)

    def test_flat_row_falls_back_to_uniform(self):
        g = cycle_graph(6)  # all |F| = 0 <= floor
        P = build_transition_matrix(g, SamplerConfig(
            kind="edge_curved", seed=0, max_steps=1))
        expected = np.zeros((6, 6))
        for u, v in g.edges:
            expected[u, v] = expected[v, u] = 0.5
        assert np.allclose(P, expected, atol=1e-15)

    @staticmethod
    def pendant_cycle_rows(floor):
        # 6-cycle with a pendant node 6 on node 0: combinatorial F is -1 on
        # edges (0, 1) and (5, 0) and 0 everywhere else
        g = WeightedGraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                              (0, 6)])
        return build_transition_matrix(g, SamplerConfig(
            kind="edge_curved", seed=0, max_steps=1,
            curvature_mode="combinatorial", epsilon_floor=floor))

    def test_floor_fallback_is_per_row(self):
        P = self.pendant_cycle_rows(1e-9)
        # row 3: every incident |F| = 0 <= floor, so the row is uniform
        assert P[3, 2] == pytest.approx(0.5, abs=1e-15)
        assert P[3, 4] == pytest.approx(0.5, abs=1e-15)
        # row 0 stays curved: |F| / d(j) = 1/2, 1/2 and floor / 1
        total = 1.0 + 1e-9
        assert P[0, 1] == pytest.approx(0.5 / total, rel=1e-12)
        assert P[0, 5] == pytest.approx(0.5 / total, rel=1e-12)
        assert P[0, 6] == pytest.approx(1e-9 / total, rel=1e-12)

    def test_row_max_equal_to_floor_falls_back(self):
        # a row stays curved only while its max |F| is strictly above the floor
        P = self.pendant_cycle_rows(1.0)
        for j in (1, 5, 6):
            assert P[0, j] == pytest.approx(1 / 3, abs=1e-15)

    def test_isolated_node_rejected(self):
        g = WeightedGraph(3, [(0, 1)])
        cm = compute_curvature_map(g)
        with pytest.raises(ValueError):
            edge_curved_step(g, cm, 2, make_rng(0))


class TestMHStep:
    def test_always_accepts_uphill(self):
        # uniform target on a path: moving from the middle to an endpoint
        # halves the degree, so the ratio is 2 -> always accept
        g = path_graph(3)
        target = make_target(g, None, "uniform")
        for seed in range(40):
            nxt, accepted = mh_step(g, target, 1, make_rng(seed))
            assert accepted and nxt in (0, 2)

    def test_half_ratio_matrix_entry(self):
        # target g(a) = 1, g(b) = 4 on a path: ratio from b to a is
        # (1 * 2) / (4 * 1) = 1/2, so P[b, a] = (1/2) * (1/2) = 1/4
        g = path_graph(3)
        target = np.array([1.0, 4.0, 1.0])
        P = build_transition_matrix(g, SamplerConfig(
            kind="node_mh_curved", seed=0, max_steps=1), target=target)
        assert P[1, 0] == pytest.approx(0.25, abs=1e-15)
        assert P[1, 2] == pytest.approx(0.25, abs=1e-15)
        assert P[1, 1] == pytest.approx(0.5, abs=1e-15)

    def test_half_ratio_empirical(self):
        g = path_graph(3)
        target = np.array([1.0, 4.0, 1.0])
        rng = make_rng(123)
        accepted = 0
        for _ in range(8000):
            _, ok = mh_step(g, target, 1, rng)
            accepted += ok
        assert abs(accepted / 8000 - 0.5) < 0.02

    def test_errors(self):
        g = WeightedGraph(3, [(0, 1)])
        target = np.array([1.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            mh_step(g, target, 2, make_rng(0))  # isolated
        target = np.array([0.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            mh_step(g, target, 0, make_rng(0))  # zero density


MAX_UNIFORM = 1 - 2**-53  # the largest double PCG64's random() returns

# h values: normal doubles from 1e-300 to 1e300, subnormals and 0.0
H_VALUES = st.one_of(
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-300, 299)),
    st.floats(1e-300, 1e300),
    st.floats(0.0, 2.2250738585072014e-308, allow_subnormal=True))


@st.composite
def h_pairs(draw):
    """``(h(s), h(y))``: independent, equal, or one ulp apart."""
    hs = draw(H_VALUES)
    hy = draw(st.one_of(H_VALUES, st.sampled_from([
        hs, np.nextafter(hs, 0.0), np.nextafter(hs, np.inf)])))
    return hs, float(hy)


def assert_threshold_test_is_the_product_test(hs, hy, t, vs):
    """For each pair and each ``v`` in [0, 1] of ``vs`` (one row per
    candidate), ``v <= t`` decides as ``v * hs <= hy``."""
    vs = np.asarray(vs, dtype=np.float64)
    assert ((0.0 <= t) & (t <= 1.0)).all()
    inside = (0.0 <= vs) & (vs <= 1.0)
    same = (vs <= t) == (vs * hs <= hy)
    bad = np.argwhere(inside & ~same)
    assert not bad.size, [(hs[j], hy[j], t[j], vs[i, j]) for i, j in bad[:5]]


class TestAcceptanceThresholds:
    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(h_pairs(), min_size=1, max_size=40),
           random_v=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_threshold_decides_as_the_product(self, pairs, random_v):
        hs, hy = (np.array(x, dtype=np.float64) for x in zip(*pairs))
        t = _acceptance_thresholds(hs, hy)
        vs = [t, np.nextafter(t, 1.0), np.nextafter(t, -1.0),
              np.zeros_like(t), np.full_like(t, MAX_UNIFORM),
              *(np.full_like(t, v) for v in random_v)]
        assert_threshold_test_is_the_product_test(hs, hy, t, vs)

    @pytest.mark.parametrize("graph, mode", [("lesmis", "combinatorial"),
                                             ("synth-1000", "weighted")])
    @pytest.mark.parametrize("kind", ["node_mh_curved", "node_mh_uniform"])
    def test_every_half_edge_of_the_tables(self, tmp_path, graph, mode, kind):
        g = (load_edge_list(LESMIS)[0] if graph == "lesmis"
             else synthetic_graph(tmp_path, 1000))
        cfg = SamplerConfig(kind=kind, seed=0, max_steps=1, curvature_mode=mode)
        t, target = _kernel_table(g, cfg)
        h = target / np.maximum(g.degrees, 1)
        hs, hy = h[g.adj_tails], h[g.adj_neighbors]
        assert_threshold_test_is_the_product_test(
            hs, hy, t, [t, np.nextafter(t, 1.0), np.nextafter(t, -1.0),
                        np.full_like(t, MAX_UNIFORM)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_target_outside_the_domain_refused(self, bad):
        g = path_graph(3)
        cfg = SamplerConfig(kind="node_mh_curved", seed=0, max_steps=5, start_node=0)
        with pytest.raises(ValueError, match="finite and >= 0"):
            run_chain(g, cfg, target=np.array([1.0, bad, 1.0]))


class TestRunChain:
    def test_single_step_is_start(self):
        g = path_graph(3)
        trace = run_chain(g, SamplerConfig(kind="edge_uniform", seed=0,
                                           max_steps=1, start_node=2))
        assert trace.tolist() == [2]
        assert distinct_prefix_counts(trace).tolist() == [1]

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_visits_are_a_read_only_int64_array(self, kind):
        g = path_graph(4)
        trace = run_chain(g, SamplerConfig(kind=kind, seed=3, max_steps=9))
        assert isinstance(trace, np.ndarray)
        assert trace.dtype == np.int64 and trace.shape == (9,)
        assert not trace.flags.writeable

    @pytest.mark.parametrize("kind", ["edge_curved", "edge_uniform",
                                      "node_mh_curved", "node_mh_uniform"])
    def test_same_seed_same_trace(self, kind):
        rng = np.random.default_rng(8)
        g = random_connected_graph(rng, 12, weighted=True)
        cfg = SamplerConfig(kind=kind, seed=99, max_steps=200)
        a = run_chain(g, cfg)
        b = run_chain(g, cfg)
        assert np.array_equal(a, b)

    def test_two_node_graph_alternates(self):
        g = WeightedGraph(2, [(0, 1)])
        trace = run_chain(g, SamplerConfig(kind="edge_curved", seed=5,
                                           max_steps=6, start_node=0))
        assert trace.tolist() == [0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize("kind", ["edge_curved", "node_mh_curved"])
    def test_trace_moves_are_edges(self, kind):
        rng = np.random.default_rng(21)
        g = random_connected_graph(rng, 10)
        trace = run_chain(g, SamplerConfig(kind=kind, seed=17, max_steps=300))
        for a, b in zip(trace[:-1], trace[1:]):
            if a == b:
                assert kind.startswith("node_mh")  # self moves only on reject
            else:
                edge_id(g, a, b)  # raises if there is no such edge

    def test_distinct_counts_monotone(self):
        rng = np.random.default_rng(2)
        g = random_connected_graph(rng, 10)
        trace = run_chain(g, SamplerConfig(kind="node_mh_uniform", seed=3,
                                           max_steps=150))
        d = distinct_prefix_counts(trace)
        assert np.all(np.diff(d) >= 0)
        assert np.all(d <= np.arange(1, len(d) + 1))
        assert d[0] == 1

    def test_replay_with_step_functions(self):
        # run_chain must agree with driving the public single-step ops on a
        # fresh generator with the same seed
        rng = np.random.default_rng(31)
        g = random_connected_graph(rng, 9)
        cm = compute_curvature_map(g, "combinatorial")

        cfg = SamplerConfig(kind="edge_curved", seed=77, max_steps=120,
                            start_node=4)
        trace = run_chain(g, cfg)
        replay_rng = make_rng(77)
        cur, visits = 4, [4]
        for _ in range(119):
            cur = edge_curved_step(g, cm, cur, replay_rng, cfg.epsilon_floor)
            visits.append(cur)
        assert trace.tolist() == visits

        cfg = SamplerConfig(kind="node_mh_curved", seed=78, max_steps=120,
                            start_node=4)
        trace = run_chain(g, cfg)
        target = make_target(g, cm, "curved", cfg.epsilon_floor)
        replay_rng = make_rng(78)
        cur, visits = 4, [4]
        for _ in range(119):
            cur, _ = mh_step(g, target, cur, replay_rng)
            visits.append(cur)
        assert trace.tolist() == visits

    def test_mh_self_moves_match_rejections(self):
        rng = np.random.default_rng(6)
        g = random_connected_graph(rng, 8)
        cfg = SamplerConfig(kind="node_mh_curved", seed=11, max_steps=200,
                            start_node=0)
        trace = run_chain(g, cfg)
        cm = compute_curvature_map(g, "combinatorial")
        target = make_target(g, cm, "curved", cfg.epsilon_floor)
        replay_rng = make_rng(11)
        cur = 0
        for k in range(1, 200):
            nxt, accepted = mh_step(g, target, cur, replay_rng)
            assert (trace[k] == trace[k - 1]) == (not accepted)
            cur = nxt

    def test_burn_in_equals_trimmed_long_chain(self):
        rng = np.random.default_rng(12)
        g = random_connected_graph(rng, 10)
        for kind in ("edge_curved", "node_mh_curved"):
            long = run_chain(g, SamplerConfig(kind=kind, seed=9, max_steps=60,
                                              start_node=1))
            short = run_chain(g, SamplerConfig(kind=kind, seed=9, max_steps=40,
                                               start_node=1, burn_in=20))
            assert np.array_equal(long[20:], short)

    def test_random_start_is_seed_deterministic(self):
        rng = np.random.default_rng(14)
        g = random_connected_graph(rng, 15)
        cfg = SamplerConfig(kind="edge_uniform", seed=1234, max_steps=5)
        assert run_chain(g, cfg)[0] == run_chain(g, cfg)[0]

    def test_out_of_range_start_rejected(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="node id 3 out of range"):
            run_chain(g, SamplerConfig(kind="edge_uniform", seed=0,
                                       max_steps=5, start_node=3))

    def test_isolated_start_rejected(self):
        g = WeightedGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            run_chain(g, SamplerConfig(kind="edge_uniform", seed=0,
                                       max_steps=5, start_node=2))

    def test_random_start_without_edges_rejected(self):
        with pytest.raises(ValueError, match="graph has no non-isolated node "
                                             "to start from"):
            run_chain(WeightedGraph(3, []),
                      SamplerConfig(kind="edge_uniform", seed=0, max_steps=5))


def test_largest_uniform_never_proposes_past_the_row():
    # the proof that lets both drivers index int(u * d) without a clamp
    d = np.arange(1, 2**20 + 1)
    assert ((MAX_UNIFORM * d.astype(np.float64)).astype(np.int64) < d).all()


class TestKernelTable:
    @pytest.mark.parametrize("kind", ["edge_curved", "edge_uniform"])
    @pytest.mark.parametrize("mode", ["combinatorial", "weighted"])
    @pytest.mark.parametrize("floor", [0.0, 1e-9, 0.6])
    def test_edge_rows_equal_oracle(self, kind, mode, floor):
        rng = np.random.default_rng(41)
        # the hub graph's node 0 is alone in its degree class, its 1e-12
        # weights crowd the curvatures, and under weighted curvature floors
        # 1e-9 and 0.6 make 5 and 19 of its rows fall back beside rows that
        # stay curved; the last graph's node 0 is isolated, ahead of rows of
        # three degrees
        graphs = [random_connected_graph(rng, 25, extra=2.0, weighted=True),
                  cycle_graph(7), star_graph(5), WeightedGraph(4, [(0, 1), (1, 2)]),
                  hub_graph(np.random.default_rng(64), 64, [1e-12, 1.0, 2.5], 20),
                  WeightedGraph(5, [(1, 2), (1, 3), (2, 3), (3, 4)])]
        for g in graphs:
            cfg = SamplerConfig(kind=kind, seed=0, max_steps=1,
                                curvature_mode=mode, epsilon_floor=floor)
            assert_edge_rows_equal_oracle(g, cfg, compute_curvature_map(g, mode))


def lockstep_configs(g, steps, burn_in, mode="combinatorial", chains=3):
    """The lockstep stream's arguments for one template of every kind and
    ``chains`` chain indices with distinct seeds and starts."""
    live = np.flatnonzero(g.degrees > 0)
    templates = [SamplerConfig(kind=kind, seed=0, max_steps=1, burn_in=burn_in,
                               curvature_mode=mode) for kind in SAMPLER_KINDS]
    starts = [int(live[(7 * c + 1) % len(live)]) for c in range(chains)]
    return templates, [1000 + c for c in range(chains)], starts, steps


class FixedUniforms:
    """Stand-in generator that cycles through ``values`` from ``offset``.

    ``random`` takes the arguments of ``numpy.random.Generator.random``: no
    argument gives a float, ``size`` an int or a tuple, and ``out`` any
    contiguous float64 array, filled in memory order as numpy fills it. A
    strided or read-only ``out`` raises numpy's ``ValueError``.
    """

    def __init__(self, values, offset):
        self.values, self.next = values, offset

    def random(self, size=None, out=None):
        if size is None and out is None:
            return float(self.random(1)[0])
        if out is None:
            out = np.empty(size)
        elif size is not None and tuple(np.atleast_1d(size)) != out.shape:
            raise ValueError("size must match out.shape when used together")
        if out.dtype != np.float64:
            raise TypeError(f"Supplied output array has the wrong type. "
                            f"Expected float64, got {out.dtype}")
        if not ((out.flags.c_contiguous or out.flags.f_contiguous)
                and out.flags.writeable):
            raise ValueError("Supplied output array must be contiguous, writable, "
                             "aligned, and in machine byte-order.")
        n = out.size
        # a contiguous array reshapes to a view of its memory in that order
        out.reshape(-1, order="A")[:] = [self.values[(self.next + j) % len(self.values)]
                                         for j in range(n)]
        self.next += n
        return out


class TestFixedUniforms:
    """The stand-in draws as ``numpy.random.Generator.random`` does, given
    that generator's stream as its values."""

    def pair(self):
        return np.random.default_rng(5), FixedUniforms(np.random.default_rng(5).random(200), 0)

    @pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 3, 4)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_fills_a_contiguous_out_in_memory_order(self, shape, order):
        real, stand_in = self.pair()
        for _ in range(2):  # the second fill starts where the first ended
            want, got = np.zeros(shape, order=order), np.ones(shape, order=order)
            assert real.random(out=want) is want
            assert stand_in.random(out=got) is got
            assert np.array_equal(got, want)

    def test_size_and_scalar(self):
        real, stand_in = self.pair()
        for size in (4, (2, 3), (3, 1), None):
            want, got = real.random(size), stand_in.random(size)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
        out = np.empty((2, 3))
        assert np.array_equal(stand_in.random((2, 3), out=out), real.random((2, 3)))

    @pytest.mark.parametrize("out", [np.zeros((4, 6))[:, ::2], np.zeros((5, 3))[:, :1],
                                     np.zeros(9)[::3]])
    def test_strided_out_raises_as_numpy_does(self, out):
        real, stand_in = self.pair()
        with pytest.raises(ValueError) as want:
            real.random(out=out)
        with pytest.raises(ValueError, match="must be contiguous") as got:
            stand_in.random(out=out)
        assert str(got.value) == str(want.value)
        assert not out.any()

    def test_size_other_than_out_or_float32_out_raises(self):
        real, stand_in = self.pair()
        for rng in (real, stand_in):
            with pytest.raises(ValueError, match="size must match out.shape"):
                rng.random((3,), out=np.zeros((4, 6)))
            with pytest.raises(TypeError, match="Expected float64, got float32"):
                rng.random(out=np.zeros(3, dtype=np.float32))


def hub_graph(rng, hub, weights, extra):
    """Node 0 joined to nodes 1..hub, plus ``extra`` random edge draws among
    nodes 2..hub (node 1 stays a degree-1 leaf); edge and node weights are
    drawn from ``weights``."""
    edges = [(0, i) for i in range(1, hub + 1)]
    seen = set(edges)
    for _ in range(extra):
        u, v = sorted(rng.integers(2, hub + 1, 2).tolist())
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            edges.append((u, v))
    return WeightedGraph(hub + 1, edges, rng.choice(weights, len(edges)),
                         rng.choice(weights, hub + 1))


def edge_lockstep_configs(g, steps, floor, burn_ins=(0, 3, 17)):
    """The lockstep stream's arguments for both edge kinds under weighted
    curvature, one template of each per burn-in, and three chain indices
    that start at the hub, a leaf and the last node."""
    templates = [SamplerConfig(kind=kind, seed=0, max_steps=1, curvature_mode="weighted",
                               epsilon_floor=floor, burn_in=b)
                 for kind in ("edge_curved", "edge_uniform") for b in burn_ins]
    return templates, [0, 31, 62], [0, 1, g.node_count - 1], steps


def cell_table_of(g, kinds, mode, floor):
    """The kernel table of each of ``kinds`` under curvature ``mode`` and
    ``floor``, and the lockstep cell table that stacks them in that order."""
    cm = compute_curvature_map(g, mode)
    tables = [_kernel_table(g, SamplerConfig(kind=kind, seed=0, max_steps=1,
                                             curvature_mode=mode, epsilon_floor=floor),
                            cm)[0]
              for kind in kinds]
    return tables, _cell_table(g, [(kind.startswith("node_mh"), table)
                                   for kind, table in zip(kinds, tables)])


def cell_step(cells, s, u, x):
    """The step the cell table documents, from the stacked states ``s`` with
    uniforms ``u`` and ``x``, one array entry per step."""
    base, width, first, thresh, nbr, row_last, wide = cells
    pos = first[base[s] + (u * width[s]).astype(np.int64)]
    for step in wide:
        cand = np.minimum(pos + step - 1, row_last[s])
        pos = np.where(x > thresh[cand], pos + step, pos)
    return nbr[pos + (x > thresh[pos])]


def crowded(row, m):
    """Whether two entries of ``row`` lie strictly inside one of ``m`` equal
    cells of [0, 1); ``x * m`` is exact for a power of two ``m``."""
    cells = [int(x * m) for x in row.tolist() if x * m != int(x * m)]
    return len(cells) != len(set(cells))


def cell_graph(name, tmp_path):
    if name == "lesmis":
        return load_edge_list(LESMIS)[0]
    if name == "synth-1000":
        return synthetic_graph(tmp_path, 1000)
    if name == "hub":
        # 65 spokes whose 1e-12 weights crowd some rows past 16 d(s) cells
        return hub_graph(np.random.default_rng(5), 65, [1e-12, 1.0, 2.5], 195)
    # node 0 is isolated, ahead of rows of three degrees
    return WeightedGraph(5, [(1, 2), (1, 3), (2, 3), (3, 4)], [1.0, 2.5, 0.7, 1.3])


CELL_SETTINGS = pytest.mark.parametrize("graph, mode, floor", [
    (graph, mode, floor) for graph in ("lesmis", "synth-1000", "hub", "isolated")
    for mode in ("combinatorial", "weighted") for floor in (1e-9, 0.6)])


class TestGuideTable:
    """The lockstep family's cell table (:func:`_cell_table`): a guide table
    (Chen & Asau 1974) kept per node, with MH rows as cells of their own."""

    @pytest.mark.parametrize("hub", [15, 16, 17, 31, 32, 33, 64])
    @pytest.mark.parametrize("extra", [0.3, 3])
    def test_entries_count_row_entries_up_to_each_cell(self, hub, extra):
        g = hub_graph(np.random.default_rng(hub), hub, [1e-12, 1.0, 2.5],
                      int(extra * hub))
        tables, cells = cell_table_of(g, ("edge_curved", "edge_uniform"), "weighted", 0.0)
        base, width, first = cells[:3]
        V, H = g.node_count, len(g.adj_neighbors)
        fullest = 0
        for s in range(len(tables) * V):
            table, node = tables[s // V], s % V
            lo, m = (s // V) * H + g.adj_indptr[node], int(width[s])
            row = table[g.adj_indptr[node]:g.adj_indptr[node + 1]]
            assert m & (m - 1) == 0 and m >= 2 * len(row)
            expected = lo + np.searchsorted(row, np.arange(m) / m, side="right")
            assert first[base[s]:base[s] + m].tolist() == expected.tolist()
            inside = [int(x * m) for x in row.tolist() if x * m != int(x * m)]
            fullest = max([fullest, *np.bincount(inside, minlength=1).tolist()])
        # the halving steps, with a last step of 1, reach across the most
        # entries strictly inside one cell
        assert cells[6] == [1 << j for j in reversed(range(1, fullest.bit_length()))]

    @CELL_SETTINGS
    def test_every_cell_of_the_four_kinds(self, tmp_path, graph, mode, floor):
        g = cell_graph(graph, tmp_path)
        tables, (base, width, first, thresh, nbr, row_last, wide) = cell_table_of(
            g, SAMPLER_KINDS, mode, floor)
        V, H, d = g.node_count, len(g.adj_neighbors), g.degrees
        lo, hi = g.adj_indptr[:-1], g.adj_indptr[1:]
        least = np.int64(1) << np.frexp(2 * d - 1)[1]  # the least power of two >= 2 d
        slot = 0  # each template's first position
        for j, (kind, table) in enumerate(zip(SAMPLER_KINDS, tables)):
            states = slice(j * V, (j + 1) * V)
            if kind.startswith("node_mh"):
                # cell h of a row is its half-edge h, which leads to the pair
                # of positions (threshold, neighbor) and (+inf, the node)
                assert width[states].tolist() == d.astype(np.float64).tolist()
                for s in np.flatnonzero(d):
                    cells = first[base[j * V + s]:base[j * V + s] + d[s]]
                    assert cells.tolist() == (slot + 2 * np.arange(lo[s], hi[s])).tolist()
                pairs = thresh[slot:slot + 2 * H].reshape(H, 2)
                assert pairs[:, 0].view(np.int64).tolist() == table.view(np.int64).tolist()
                assert (pairs[:, 1] == np.inf).all()
                assert nbr[slot:slot + 2 * H].reshape(H, 2).tolist() == (
                    np.stack([g.adj_neighbors, g.adj_tails], axis=1) + j * V).tolist()
                assert row_last[states][d > 0].tolist() == (slot + 2 * hi - 1)[d > 0].tolist()
                slot += 2 * H
                continue
            m = width[states].astype(np.int64)
            assert (m & (m - 1) == 0).all() and (m >= least).all()
            for s in np.flatnonzero(d):
                row = table[lo[s]:hi[s]]
                # refined while crowded, up to 16 d(s) cells
                assert m[s] <= max(least[s], 16 * d[s])
                assert m[s] == least[s] or crowded(row, m[s] // 2)
                assert 2 * m[s] > 16 * d[s] or not crowded(row, m[s])
                k = np.arange(m[s])
                cells = first[base[j * V + s] + k] - slot - lo[s]
                assert cells.tolist() == [bisect_right(row, c) for c in (k / m[s]).tolist()]
            assert thresh[slot:slot + H].view(np.int64).tolist() == \
                np.nextafter(table, -np.inf).view(np.int64).tolist()
            assert nbr[slot:slot + H].tolist() == (g.adj_neighbors + j * V).tolist()
            assert row_last[states][d > 0].tolist() == (slot + hi - 1)[d > 0].tolist()
            slot += H
        assert slot == len(thresh) == len(nbr)

    @CELL_SETTINGS
    def test_one_step_is_the_scalar_step(self, tmp_path, graph, mode, floor):
        # every edge step equals bisect_right of its row, and every MH step
        # run_chain's proposal int(u * d) with v <= t, at each cell's lower
        # edge, at every row entry (an edge row's cumulative entries, an MH
        # row's thresholds) and its two nextafter neighbors, and at the
        # largest uniform
        g = cell_graph(graph, tmp_path)
        tables, cells = cell_table_of(g, SAMPLER_KINDS, mode, floor)
        # the hub's crowded rows keep the halving steps under test
        assert bool(cells[6]) == (graph == "hub" and mode == "weighted")
        V, d = g.node_count, g.degrees
        lo, hi = g.adj_indptr[:-1], g.adj_indptr[1:]
        width = cells[1]
        for j, (kind, table) in enumerate(zip(SAMPLER_KINDS, tables)):
            s, u, x, want = [], [], [], []
            for node in np.flatnonzero(d).tolist():
                row = table[lo[node]:hi[node]]
                near = np.concatenate([row, np.nextafter(row, -1.0), np.nextafter(row, 2.0)])
                edges = np.arange(int(width[j * V + node])) / width[j * V + node]
                if kind.startswith("node_mh"):
                    # proposals at each cell's lower edge and the largest
                    # uniform, each tried against every threshold's neighbors
                    pu = np.append(edges, MAX_UNIFORM)
                    pv = np.append(near, [0.0, MAX_UNIFORM])[:, None]
                    pu, pv = np.broadcast_arrays(pu, pv)
                    pu, pv = pu.ravel(), pv.ravel()
                    keep = (0.0 <= pv) & (pv <= MAX_UNIFORM)
                    pu, pv = pu[keep], pv[keep]
                    pos = lo[node] + (pu * d[node]).astype(np.int64)
                    want.append(np.where(pv <= table[pos], g.adj_neighbors[pos], node))
                else:
                    pu = np.concatenate([edges, near, [MAX_UNIFORM]])
                    pu = pv = pu[(0.0 <= pu) & (pu <= MAX_UNIFORM)]
                    want.append(g.adj_neighbors[lo[node] + np.array(
                        [bisect_right(row, v) for v in pu.tolist()])])
                s.append(np.full(len(pu), j * V + node))
                u.append(pu)
                x.append(pv)
            got = cell_step(cells, *map(np.concatenate, (s, u, x))) - j * V
            assert np.array_equal(got, np.concatenate(want)), kind

    def test_one_burn_in_is_one_family(self, monkeypatch):
        # a burn-in holding all four kinds builds one cell table and makes
        # one generator per step rule and chain index, edge first, each
        # ending after its documented prefix
        built = []

        def recording_cells(g, tables):
            built.append([is_mh for is_mh, _ in tables])
            return _cell_table(g, tables)

        monkeypatch.setattr(curvewalk.sampler, "_cell_table", recording_cells)
        g, _ = load_edge_list(LESMIS)
        templates = [SamplerConfig(kind=kind, seed=0, max_steps=1, burn_in=9)
                     for kind in ("node_mh_uniform", "edge_curved",
                                  "node_mh_curved", "edge_uniform")]
        assert_generators_end_at_their_prefix(monkeypatch, g, templates, [4, 5, 6],
                                              [0, 3, 11], 700)
        assert built == [[False, False, True, True]]


class TestLockstep:
    @pytest.mark.parametrize("burn_in", [0, 17])
    @pytest.mark.parametrize("mode", ["combinatorial", "weighted"])
    def test_lesmis(self, burn_in, mode):
        g, _ = load_edge_list(LESMIS)
        assert_lockstep_equals_run_chain(g, *lockstep_configs(g, 300, burn_in, mode))

    @pytest.mark.parametrize("burn_in", [0, 17])
    def test_cycle_every_row_flat(self, burn_in):
        # every combinatorial F is 0, so each edge row takes the uniform fallback
        g = cycle_graph(9)
        assert_lockstep_equals_run_chain(g, *lockstep_configs(g, 120, burn_in))

    @pytest.mark.parametrize("burn_in", [0, 17])
    def test_star_degree_one_leaves(self, burn_in):
        g = star_graph(6)
        assert_lockstep_equals_run_chain(g, *lockstep_configs(g, 120, burn_in))

    @pytest.mark.parametrize("burn_in", [0, 17])
    def test_spans_chunks_not_a_multiple(self, burn_in):
        rng = np.random.default_rng(19)
        g = random_connected_graph(rng, 30, extra=1.5, weighted=True)
        steps = 2 * _TIME_CHUNK + 37
        assert_lockstep_equals_run_chain(
            g, *lockstep_configs(g, steps, burn_in, "weighted", chains=2))

    def test_mixed_burn_in(self):
        rng = np.random.default_rng(23)
        g = random_connected_graph(rng, 15, extra=1.0)
        templates = [SamplerConfig(kind=kind, seed=0, max_steps=1, burn_in=b)
                     for kind, b in [("edge_curved", 0), ("edge_curved", 5),
                                     ("node_mh_curved", 17), ("edge_uniform", 40),
                                     ("node_mh_uniform", 0)]]
        assert_lockstep_equals_run_chain(g, templates, [0, 1, 2], [0, 7, 14], 50)

    def test_families_apart_in_the_plan(self):
        # the edge templates are plan entries 0 and 2 and the MH ones 1 and
        # 3: each block must name its template's plan index, and its node
        # ids must be offset by the template's place in its family
        g, _ = load_edge_list(LESMIS)
        templates, *chains = lockstep_configs(g, 300, 17)
        kinds = ("edge_curved", "node_mh_curved", "edge_uniform", "node_mh_uniform")
        assert_lockstep_equals_run_chain(
            g, [replace(templates[0], kind=kind) for kind in kinds], *chains)

    @pytest.mark.parametrize("group", [1, 3, 100])
    @pytest.mark.parametrize("chunk", [1, 7])
    def test_staging_groups_and_short_blocks(self, monkeypatch, group, chunk):
        # a family's draws are copied in groups of 1 chain index, of 3 (the
        # last group short) and of more chain indices than it holds, in
        # blocks of 1 and 7 steps, with one burn-in for every template and
        # with two, which make two families per step rule
        monkeypatch.setattr(curvewalk.sampler, "_COPY_CHAINS", group)
        monkeypatch.setattr(curvewalk.sampler, "_TIME_CHUNK", chunk)
        g = random_connected_graph(np.random.default_rng(29), 20, extra=1.5,
                                   weighted=True)
        templates, *chains = lockstep_configs(g, 40, 9, "weighted", chains=4)
        mixed = [replace(cfg, burn_in=b) for b in (0, 5) for cfg in templates]
        for configs in (templates, mixed):
            assert_lockstep_equals_run_chain(g, configs, *chains)

    def test_draws_end_inside_blocks(self, monkeypatch):
        # generators that draw 4 steps at a time, in blocks of 7 steps and
        # windows of 2, end their draws inside a block, and a block's last
        # draw is short: every chain still equals run_chain, and every
        # generator ends after its prefix
        for name, value in (("_WINDOW", 2), ("_DRAW_STEPS", 4), ("_TIME_CHUNK", 7)):
            monkeypatch.setattr(curvewalk.sampler, name, value)
        g = random_connected_graph(np.random.default_rng(31), 20, extra=1.5, weighted=True)
        chains = lockstep_configs(g, 40, 3, "weighted")
        assert_generators_end_at_their_prefix(monkeypatch, g, *chains)
        assert_lockstep_equals_run_chain(g, *chains)

    def test_each_chain_draws_exactly_its_prefix(self, monkeypatch):
        # burn-ins 0, 5 and 1100 (past two 512-step blocks) make three
        # families, of all four kinds each
        g, _ = load_edge_list(LESMIS)
        templates = [SamplerConfig(kind=kind, seed=0, max_steps=1, burn_in=burn)
                     for kind in SAMPLER_KINDS for burn in (0, 5, 1100)]
        assert_generators_end_at_their_prefix(monkeypatch, g, templates, [7, 8, 9],
                                              [0, 3, 11], 300)

    def test_mh_family_holds_one_uniforms_buffer_and_two_blocks(self):
        # 400 chains over 3 blocks: the kept chain-major buffer (half a
        # block of steps of proposal and accept uniforms, one block of
        # float64), the block being stepped and the one the consumer still
        # holds, the generators and a little for the window. A second
        # uniforms buffer or a second copy of each visits block would pass
        # the bound
        width = 400
        stream = _lockstep_stream(
            cycle_graph(100), [SamplerConfig(kind="node_mh_uniform", seed=0, max_steps=1)],
            list(range(width)), [c % 100 for c in range(width)], 3 * _TIME_CHUNK)
        steps = 0
        tracemalloc.start()
        try:
            for k, k0, states in stream:
                steps += len(states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert steps == 3 * _TIME_CHUNK
        block = _TIME_CHUNK * width * 8
        assert peak < 4.5 * block, peak / block

    def test_paired_mh_family_holds_one_column_of_uniforms_per_chain_index(self):
        # 2 templates x 200 chain indices over 3 blocks: one buffer of 200
        # rows of proposal and accept uniforms (half a block of the 400
        # chains' float64), the block being stepped, the one the consumer
        # still holds, and a little for the window. A row of uniforms per
        # chain, as for unpaired chains, would pass the bound
        width = 200
        templates = [SamplerConfig(kind=kind, seed=0, max_steps=1)
                     for kind in ("node_mh_uniform", "node_mh_curved")]
        stream = _lockstep_stream(cycle_graph(100), templates, list(range(width)),
                                  [c % 100 for c in range(width)], 3 * _TIME_CHUNK)
        steps = [0, 0]
        tracemalloc.start()
        try:
            for k, k0, states in stream:
                assert states.shape[1] == width
                steps[k] += len(states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert steps == [3 * _TIME_CHUNK] * 2
        block = _TIME_CHUNK * 2 * width * 8
        assert peak < 3.5 * block, peak / block

    @pytest.mark.parametrize("g, ties", [
        # rows of degree 2 and 4 hold multiples of 1/4, which are guide cell
        # edges too; rows of degree 3 and 5 hold thirds and fifths, which
        # are not
        (WeightedGraph(8, [(i, j) for i in range(5) for j in range(i + 1, 5)]
                       + [(4, 5), (5, 6), (6, 7), (7, 5)]),
         [0.0, 0.25, 0.5, 0.75, 0.125, 1 / 3, 2 / 3, 0.2, 0.4, 0.6, 0.8]),
        # the hub's 40 entries share 16 cells, so halving steps probe them
        (star_graph(40), [j / 40 for j in range(40)]),
    ])
    def test_uniforms_on_entries_and_cell_edges(self, monkeypatch, g, ties):
        # uniforms equal to a row entry, and an ulp below one, must land
        # where bisect_right puts them
        values = ties + [np.nextafter(u, -1.0) for u in ties[1:]] + [1 - 2**-53]
        monkeypatch.setattr(curvewalk.sampler, "make_rng",
                            lambda seed: FixedUniforms(values, seed))
        templates = [SamplerConfig(kind="edge_uniform", seed=0, max_steps=1, burn_in=b)
                     for b in range(3)]
        seeds = list(range(len(values)))
        assert_lockstep_equals_run_chain(
            g, templates, seeds, [seed % g.node_count for seed in seeds], 60)

    def test_uniforms_on_crowded_entries(self, monkeypatch):
        # rows still crowded at 16 d(s) cells take halving steps: uniforms
        # equal to their entries, an ulp below and an ulp above, one step
        # from each crowded row, must land where bisect_right puts them
        g = cell_graph("hub", None)
        cm = compute_curvature_map(g, "weighted")
        cfg = SamplerConfig(kind="edge_curved", seed=0, max_steps=1, curvature_mode="weighted")
        table = _kernel_table(g, cfg, cm)[0]
        m = _edge_cells(g, table)
        lo, hi = g.adj_indptr[:-1], g.adj_indptr[1:]
        rows = [s for s in np.flatnonzero(g.degrees).tolist()
                if crowded(table[lo[s]:hi[s]], m[s])]
        assert rows
        starts, values = [], []
        for s in rows:
            row = table[lo[s]:hi[s]]
            near = np.concatenate([row, np.nextafter(row, -1.0), np.nextafter(row, 2.0)])
            for u in near[near <= MAX_UNIFORM].tolist():
                starts.append(s)
                values.append(u)
        # chain c draws values[c] first, then the values after it
        monkeypatch.setattr(curvewalk.sampler, "make_rng",
                            lambda seed: FixedUniforms(values, seed))
        assert_lockstep_equals_run_chain(g, [cfg], list(range(len(values))), starts, 3)

    @pytest.mark.parametrize("graph", ["hub", "random"])
    @pytest.mark.parametrize("mode", ["combinatorial", "weighted"])
    @pytest.mark.parametrize("kind", ["node_mh_curved", "node_mh_uniform"])
    def test_mh_uniforms_at_the_boundaries(self, monkeypatch, graph, mode, kind):
        # every other proposal uniform is the largest one, 1 - 2**-53, and
        # each acceptance uniform equals the threshold of the half-edge it
        # tests or lies one ulp above it: run_chain, the lockstep engine and
        # the formula's oracle must take the same steps
        rng = np.random.default_rng(5)
        g = (hub_graph(rng, 65, [1e-12, 1.0, 2.5], 195) if graph == "hub"
             else random_connected_graph(rng, 30, extra=1.5, weighted=True))
        cm = compute_curvature_map(g, mode)
        cfgs = [SamplerConfig(kind=kind, seed=c, max_steps=200, start_node=s,
                              curvature_mode=mode)
                for c, s in enumerate([0, 1, 2, g.node_count - 1])]
        thresholds, target = _kernel_table(g, cfgs[0], cm)
        streams, expected = [], []
        for cfg in cfgs:
            uniforms, cur, visits = [], cfg.start_node, [cfg.start_node]
            for k in range(cfg.max_steps - 1):
                u = MAX_UNIFORM if k % 2 == 0 else float(rng.random())
                t = thresholds[g.adj_indptr[cur] + int(u * g.degrees[cur])]
                v = t if k % 4 < 2 else min(np.nextafter(t, 1.0), 1.0)
                uniforms += [u, float(v)]
                cur, _ = mh_step(g, target, cur, FixedUniforms([u, v], 0))
                visits.append(cur)
            streams.append(uniforms)
            expected.append(visits)
        accepted = sum(a != b for visits in expected
                       for a, b in zip(visits, visits[1:]))
        assert 0 < accepted < len(cfgs) * (cfgs[0].max_steps - 1)
        monkeypatch.setattr(curvewalk.sampler, "make_rng",
                            lambda seed: FixedUniforms(streams[seed], 0))
        for c, cfg in enumerate(cfgs):
            assert run_chain(g, cfg, cm).tolist() == expected[c]
        assert_lockstep_equals_run_chain(g, cfgs[:1], [cfg.seed for cfg in cfgs],
                                         [cfg.start_node for cfg in cfgs], 200)

    @pytest.mark.parametrize("floor", [0.0, 1e-9])
    @pytest.mark.parametrize("hub", [15, 16, 17, 31, 32, 33, 63, 64, 65])
    @pytest.mark.parametrize("extra", [0.3, 3])
    def test_crowded_rows_and_hubs(self, hub, extra, floor):
        # node and edge weights of 1e-12 crowd a row's cumulative entries
        # into one guide cell; hub degrees sit around powers of two, which
        # set the guide's size unless the mean degree caps it
        g = hub_graph(np.random.default_rng(hub), hub, [1e-12, 1.0, 2.5],
                      int(extra * hub))
        assert_lockstep_equals_run_chain(g, *edge_lockstep_configs(g, 150, floor))

    @settings(max_examples=30, deadline=None)
    @given(hub=st.integers(2, 70), extra=st.integers(0, 200),
           graph_seed=st.integers(0, 2**32 - 1),
           floor=st.sampled_from([0.0, 1e-9, 0.5]),
           weights=st.sampled_from([[1.0], [1e-12, 1.0], [1e-12, 0.7, 3.0]]),
           burn_ins=st.lists(st.integers(0, 20), min_size=1, max_size=4))
    def test_random_hub_graphs(self, hub, extra, graph_seed, floor, weights,
                               burn_ins):
        g = hub_graph(np.random.default_rng(graph_seed), hub, weights, extra)
        assert_lockstep_equals_run_chain(
            g, *edge_lockstep_configs(g, 60, floor, burn_ins))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 14), extra=st.floats(0.0, 2.5),
           weighted=st.booleans(), graph_seed=st.integers(0, 2**32 - 1),
           burn_in=st.sampled_from([0, 17]),
           mode=st.sampled_from(["combinatorial", "weighted"]))
    def test_random_connected_graphs(self, n, extra, weighted, graph_seed,
                                     burn_in, mode):
        g = random_connected_graph(np.random.default_rng(graph_seed), n,
                                   extra=extra, weighted=weighted)
        assert_lockstep_equals_run_chain(
            g, *lockstep_configs(g, 40, burn_in, mode, chains=2))

    def test_rejects_bad_starts(self):
        # every template's kernel is checked against every chain index's
        # start: node 2 of the 5-node path has curvature 0, so only the
        # curved MH template, with no floor, refuses it
        uniform = SamplerConfig(kind="edge_uniform", seed=0, max_steps=1)
        curved = SamplerConfig(kind="node_mh_curved", seed=0, max_steps=1,
                               epsilon_floor=0.0)
        g = path_graph(5)
        assert _lockstep_stream(g, [uniform], [0, 1], [0, 2], 5) is not None
        with pytest.raises(ValueError, match="target density is zero at start node 2"):
            _lockstep_stream(g, [uniform, curved], [0, 1], [0, 2], 5)
        g = WeightedGraph(3, [(0, 1)])
        with pytest.raises(ValueError, match="start node 2 is isolated"):
            _lockstep_stream(g, [uniform], [0, 1], [0, 2], 5)
        with pytest.raises(ValueError, match="out of range"):
            _lockstep_stream(g, [uniform], [0], [3], 5)


class TestTransitionMatrix:
    @pytest.mark.parametrize("kind", ["edge_curved", "edge_uniform",
                                      "node_mh_curved", "node_mh_uniform"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_stochastic_and_supported(self, kind, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 12, weighted=True)
        P = build_transition_matrix(g, SamplerConfig(kind=kind, seed=0,
                                                     max_steps=1))
        assert P.dtype == np.float64 and not P.flags.writeable
        assert np.all(np.abs(P.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(P >= 0)
        is_mh = kind.startswith("node_mh")
        for i in range(g.node_count):
            for j in range(g.node_count):
                if P[i, j] > 0 and i != j:
                    edge_id(g, i, j)  # raises if there is no such edge
            if not is_mh:
                assert P[i, i] == 0.0

    def test_star_uniform_row(self):
        g = star_graph(4)
        P = build_transition_matrix(g, SamplerConfig(kind="edge_uniform",
                                                     seed=0, max_steps=1))
        assert np.allclose(P[0, 1:], 0.25, atol=1e-15)

    def test_mh_diagonal_is_rejection_mass(self):
        g = path_graph(5)
        cfg = SamplerConfig(kind="node_mh_curved", seed=0, max_steps=1)
        P = build_transition_matrix(g, cfg)
        for i in range(5):
            off = P[i].sum() - P[i, i]
            assert P[i, i] == pytest.approx(1.0 - off, abs=1e-12)

    def test_path5_stationary_matches_target(self):
        g = path_graph(5)
        cfg = SamplerConfig(kind="node_mh_curved", seed=0, max_steps=1)
        cm = compute_curvature_map(g, "combinatorial")
        target = make_target(g, cm, "curved", cfg.epsilon_floor)
        P = build_transition_matrix(g, cfg, curvmap=cm, target=target)
        pi = stationary_distribution(P)
        assert np.abs(pi - target / target.sum()).max() < 1e-10

    @pytest.mark.parametrize("kind", ["node_mh_curved", "node_mh_uniform"])
    @pytest.mark.parametrize("seed", range(5))
    def test_mh_stationarity_and_detailed_balance(self, kind, seed):
        rng = np.random.default_rng(300 + seed)
        g = random_connected_graph(rng, int(rng.integers(3, 30)))
        cfg = SamplerConfig(kind=kind, seed=0, max_steps=1)
        P = build_transition_matrix(g, cfg)
        pi = stationary_distribution(P)
        assert np.abs(pi @ P - pi).max() < 1e-10
        if kind == "node_mh_curved":
            cm = compute_curvature_map(g, "combinatorial")
            target = make_target(g, cm, "curved", cfg.epsilon_floor)
        else:
            target = make_target(g, None, "uniform")
        assert np.abs(pi - target / target.sum()).max() < 1e-10
        for u, v in g.edges:
            assert abs(pi[u] * P[u, v] - pi[v] * P[v, u]) < 1e-10

    def test_size_guard(self):
        g = path_graph(2001)
        with pytest.raises(ValueError):
            build_transition_matrix(g, SamplerConfig(kind="edge_uniform",
                                                     seed=0, max_steps=1))

    def test_isolated_row_absorbing(self):
        g = WeightedGraph(3, [(0, 1)])
        P = build_transition_matrix(g, SamplerConfig(kind="edge_uniform",
                                                     seed=0, max_steps=1))
        assert P[2, 2] == 1.0

    def test_stationary_known_two_state(self):
        P = np.array([[0.5, 0.5], [0.25, 0.75]])
        pi = stationary_distribution(P)
        assert np.allclose(pi, [1 / 3, 2 / 3], atol=1e-12)

    @pytest.mark.parametrize("P, error", [
        (np.eye(2), np.linalg.LinAlgError),  # two absorbing states: reducible
        (np.full((2, 3), 1 / 3), ValueError),
        (np.empty((0, 0)), ValueError),
    ])
    def test_stationary_rejects(self, P, error):
        with pytest.raises(error):
            stationary_distribution(P)


def test_empirical_visit_law_small():
    rng = np.random.default_rng(77)
    g = random_connected_graph(rng, 20, extra=1.5)
    cfg = SamplerConfig(kind="node_mh_curved", seed=2024, max_steps=200_000,
                        start_node=0)
    trace = run_chain(g, cfg)
    freq = np.bincount(trace, minlength=20) / cfg.max_steps
    pi = stationary_distribution(build_transition_matrix(g, cfg))
    tv = 0.5 * np.abs(freq - pi).sum()
    assert tv < 0.05
