"""Sampler tests: kernels, chain traces, transition matrices, stationarity."""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import curvewalk.sampler
from curvewalk import (SAMPLER_KINDS, CurvatureMap, SamplerConfig,
                       WeightedGraph, build_transition_matrix, chain_seed,
                       compute_curvature_map, load_edge_list, make_rng,
                       make_target, run_chain, run_lockstep, splitmix64,
                       stationary_distribution)
from curvewalk.sampler import _TIME_CHUNK, _guide_table, _kernel_table
from conftest import (LESMIS, cycle_graph, path_graph, random_connected_graph,
                      star_graph)
from oracles import edge_curved_step, edge_row_cdf, mh_step


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
        with pytest.raises(ValueError):
            make_target(g, cm, "curved", 0.0)

    def test_infinite_floor_rejected(self):
        g = path_graph(3)
        cm = compute_curvature_map(g, "combinatorial")
        with pytest.raises(ValueError):
            make_target(g, cm, "curved", float("inf"))

    def test_curved_requires_map(self):
        with pytest.raises(ValueError):
            make_target(path_graph(3), None, "curved")

    def test_isolated_excluded(self):
        g = WeightedGraph(3, [(0, 1)])
        cm = compute_curvature_map(g, "combinatorial")
        target = make_target(g, cm, "curved")
        assert target[2] == 0.0


class TestEdgeKernel:
    def test_path_middle_splits_evenly(self):
        # both incident edges have F = 1 and far-end degree 1
        g = path_graph(3)
        tm = build_transition_matrix(g, SamplerConfig(
            kind="edge_curved", seed=0, max_steps=1))
        assert tm.matrix[1, 0] == pytest.approx(0.5, abs=1e-15)
        assert tm.matrix[1, 2] == pytest.approx(0.5, abs=1e-15)

    def test_hand_weighted_example(self):
        # |F| = 2 toward a degree-2 neighbor and |F| = 1 toward a degree-1
        # neighbor give equal move weights 2/2 = 1/1 = 1
        g = WeightedGraph(4, [(0, 1), (0, 2), (1, 3)])
        ev = np.zeros(3)
        ev[g.edge_id(0, 1)] = 2.0   # d(1) = 2
        ev[g.edge_id(0, 2)] = -1.0  # d(2) = 1
        ev[g.edge_id(1, 3)] = 5.0
        cm = CurvatureMap(mode="combinatorial", edge_values=ev,
                          node_values=np.zeros(4))
        tm = build_transition_matrix(g, SamplerConfig(
            kind="edge_curved", seed=0, max_steps=1), curvmap=cm)
        assert tm.matrix[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert tm.matrix[0, 2] == pytest.approx(0.5, abs=1e-15)

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
        tm = build_transition_matrix(g, SamplerConfig(
            kind="edge_curved", seed=0, max_steps=1))
        expected = np.zeros((6, 6))
        for u, v in g.edges:
            expected[u, v] = expected[v, u] = 0.5
        assert np.allclose(tm.matrix, expected, atol=1e-15)

    @staticmethod
    def pendant_cycle_rows(floor):
        # 6-cycle with a pendant node 6 on node 0: combinatorial F is -1 on
        # edges (0, 1) and (5, 0) and 0 everywhere else
        g = WeightedGraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                              (0, 6)])
        return build_transition_matrix(g, SamplerConfig(
            kind="edge_curved", seed=0, max_steps=1,
            curvature_mode="combinatorial", epsilon_floor=floor)).matrix

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
        tm = build_transition_matrix(g, SamplerConfig(
            kind="node_mh_curved", seed=0, max_steps=1), target=target)
        assert tm.matrix[1, 0] == pytest.approx(0.25, abs=1e-15)
        assert tm.matrix[1, 2] == pytest.approx(0.25, abs=1e-15)
        assert tm.matrix[1, 1] == pytest.approx(0.5, abs=1e-15)

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


class TestRunChain:
    def test_single_step_is_start(self):
        g = path_graph(3)
        trace = run_chain(g, SamplerConfig(kind="edge_uniform", seed=0,
                                           max_steps=1, start_node=2))
        assert trace.visits.tolist() == [2]
        assert trace.distinct_count_at_step.tolist() == [1]
        assert trace.start == 2

    @pytest.mark.parametrize("kind", ["edge_curved", "edge_uniform",
                                      "node_mh_curved", "node_mh_uniform"])
    def test_same_seed_same_trace(self, kind):
        rng = np.random.default_rng(8)
        g = random_connected_graph(rng, 12, weighted=True)
        cfg = SamplerConfig(kind=kind, seed=99, max_steps=200)
        a = run_chain(g, cfg)
        b = run_chain(g, cfg)
        assert np.array_equal(a.visits, b.visits)
        assert np.array_equal(a.distinct_count_at_step,
                              b.distinct_count_at_step)

    def test_two_node_graph_alternates(self):
        g = WeightedGraph(2, [(0, 1)])
        trace = run_chain(g, SamplerConfig(kind="edge_curved", seed=5,
                                           max_steps=6, start_node=0))
        assert trace.visits.tolist() == [0, 1, 0, 1, 0, 1]

    @pytest.mark.parametrize("kind", ["edge_curved", "node_mh_curved"])
    def test_trace_moves_are_edges(self, kind):
        rng = np.random.default_rng(21)
        g = random_connected_graph(rng, 10)
        trace = run_chain(g, SamplerConfig(kind=kind, seed=17, max_steps=300))
        for a, b in zip(trace.visits[:-1], trace.visits[1:]):
            if a == b:
                assert kind.startswith("node_mh")  # self moves only on reject
            else:
                assert g.has_edge(int(a), int(b))

    def test_distinct_counts_monotone(self):
        rng = np.random.default_rng(2)
        g = random_connected_graph(rng, 10)
        trace = run_chain(g, SamplerConfig(kind="node_mh_uniform", seed=3,
                                           max_steps=150))
        d = trace.distinct_count_at_step
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
        assert trace.visits.tolist() == visits

        cfg = SamplerConfig(kind="node_mh_curved", seed=78, max_steps=120,
                            start_node=4)
        trace = run_chain(g, cfg)
        target = make_target(g, cm, "curved", cfg.epsilon_floor)
        replay_rng = make_rng(78)
        cur, visits = 4, [4]
        for _ in range(119):
            cur, _ = mh_step(g, target, cur, replay_rng)
            visits.append(cur)
        assert trace.visits.tolist() == visits

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
            assert (trace.visits[k] == trace.visits[k - 1]) == (not accepted)
            cur = nxt

    def test_burn_in_equals_trimmed_long_chain(self):
        rng = np.random.default_rng(12)
        g = random_connected_graph(rng, 10)
        for kind in ("edge_curved", "node_mh_curved"):
            long = run_chain(g, SamplerConfig(kind=kind, seed=9, max_steps=60,
                                              start_node=1))
            short = run_chain(g, SamplerConfig(kind=kind, seed=9, max_steps=40,
                                               start_node=1, burn_in=20))
            assert np.array_equal(long.visits[20:], short.visits)
            assert short.start == short.visits[0]

    def test_random_start_is_seed_deterministic(self):
        rng = np.random.default_rng(14)
        g = random_connected_graph(rng, 15)
        cfg = SamplerConfig(kind="edge_uniform", seed=1234, max_steps=5)
        assert run_chain(g, cfg).start == run_chain(g, cfg).start

    def test_isolated_start_rejected(self):
        g = WeightedGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            run_chain(g, SamplerConfig(kind="edge_uniform", seed=0,
                                       max_steps=5, start_node=2))


class TestKernelTable:
    @pytest.mark.parametrize("kind", ["edge_curved", "edge_uniform"])
    @pytest.mark.parametrize("mode", ["combinatorial", "weighted"])
    @pytest.mark.parametrize("floor", [0.0, 1e-9, 0.6])
    def test_edge_rows_equal_oracle(self, kind, mode, floor):
        rng = np.random.default_rng(41)
        graphs = [random_connected_graph(rng, 25, extra=2.0, weighted=True),
                  cycle_graph(7), star_graph(5), WeightedGraph(4, [(0, 1), (1, 2)])]
        for g in graphs:
            cfg = SamplerConfig(kind=kind, seed=0, max_steps=1,
                                curvature_mode=mode, epsilon_floor=floor)
            cm = compute_curvature_map(g, mode)
            table, _ = _kernel_table(g, cfg, cm)
            for i in np.flatnonzero(g.degrees):
                lo, hi = g.adj_indptr[i], g.adj_indptr[i + 1]
                expected = edge_row_cdf(g, cm if kind == "edge_curved" else None,
                                        i, floor)
                assert table[lo:hi].tolist() == expected.tolist()


def lockstep_configs(g, steps, burn_in, mode="combinatorial", chains=3):
    """``chains`` chains of every kind with distinct seeds and starts; the
    first chain of each kind draws a random start."""
    live = np.flatnonzero(g.degrees > 0)
    return [SamplerConfig(kind=kind, seed=1000 * k + c, max_steps=steps,
                          start_node=int(live[(7 * c + k) % len(live)]) if c else "random",
                          burn_in=burn_in, curvature_mode=mode)
            for k, kind in enumerate(SAMPLER_KINDS) for c in range(chains)]


def assert_lockstep_equals_run_chain(g, configs):
    visits = run_lockstep(g, configs)
    assert visits.shape == (len(configs), configs[0].max_steps)
    for row, cfg in zip(visits, configs):
        assert np.array_equal(row, run_chain(g, cfg).visits), cfg


class FixedUniforms:
    """Stand-in generator that cycles through ``values`` from ``offset``."""

    def __init__(self, values, offset):
        self.values, self.next = values, offset

    def random(self, size=None, out=None):
        n = size if out is None else out.size
        picks = np.array([self.values[(self.next + j) % len(self.values)]
                          for j in range(n)])
        self.next += n
        if out is None:
            return picks
        out[...] = picks
        return out


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
    """Both edge kinds under weighted curvature, one chain per burn-in, from
    the hub, a leaf and a random start."""
    starts = [0, 1, "random"]
    return [SamplerConfig(kind=kind, seed=31 * c + k, max_steps=steps,
                          start_node=starts[c % 3], curvature_mode="weighted",
                          epsilon_floor=floor, burn_in=b)
            for k, kind in enumerate(("edge_curved", "edge_uniform"))
            for c, b in enumerate(burn_ins)]


class TestGuideTable:
    @pytest.mark.parametrize("hub", [15, 16, 17, 31, 32, 33, 64])
    @pytest.mark.parametrize("extra", [0.3, 3])
    def test_entries_count_row_entries_up_to_each_cell(self, hub, extra):
        g = hub_graph(np.random.default_rng(hub), hub, [1e-12, 1.0, 2.5],
                      int(extra * hub))
        cm = compute_curvature_map(g, "weighted")
        tables = [_kernel_table(g, SamplerConfig(kind=kind, seed=0, max_steps=1,
                                                 epsilon_floor=0.0), cm)[0]
                  for kind in ("edge_curved", "edge_uniform")]
        table = np.concatenate(tables)
        guide, m, wide = _guide_table(g, table, len(tables))
        assert m & (m - 1) == 0
        guide = guide.reshape(-1, m + 1)
        V, H = g.node_count, len(g.adj_neighbors)
        fullest = 0
        for s in range(len(tables) * V):
            lo = g.adj_indptr[s % V] + (s // V) * H
            row = table[lo:lo + g.degrees[s % V]]
            expected = lo + np.searchsorted(row, np.arange(m + 1) / m, side="right")
            assert guide[s].tolist() == expected.tolist()
            fullest = max(fullest, int(np.diff(guide[s]).max(initial=0)))
        # the halving steps, with a last step of 1, reach across the fullest cell
        assert wide == [1 << j for j in reversed(range(1, fullest.bit_length()))]


class TestLockstep:
    @pytest.mark.parametrize("burn_in", [0, 17])
    @pytest.mark.parametrize("mode", ["combinatorial", "weighted"])
    def test_lesmis(self, burn_in, mode):
        g, _ = load_edge_list(LESMIS)
        assert_lockstep_equals_run_chain(g, lockstep_configs(g, 300, burn_in, mode))

    @pytest.mark.parametrize("burn_in", [0, 17])
    def test_cycle_every_row_flat(self, burn_in):
        # every combinatorial F is 0, so each edge row takes the uniform fallback
        g = cycle_graph(9)
        assert_lockstep_equals_run_chain(g, lockstep_configs(g, 120, burn_in))

    @pytest.mark.parametrize("burn_in", [0, 17])
    def test_star_degree_one_leaves(self, burn_in):
        g = star_graph(6)
        assert_lockstep_equals_run_chain(g, lockstep_configs(g, 120, burn_in))

    @pytest.mark.parametrize("burn_in", [0, 17])
    def test_spans_chunks_not_a_multiple(self, burn_in):
        rng = np.random.default_rng(19)
        g = random_connected_graph(rng, 30, extra=1.5, weighted=True)
        steps = 2 * _TIME_CHUNK + 37
        assert_lockstep_equals_run_chain(
            g, lockstep_configs(g, steps, burn_in, "weighted", chains=2))

    def test_mixed_burn_in(self):
        rng = np.random.default_rng(23)
        g = random_connected_graph(rng, 15, extra=1.0)
        configs = [SamplerConfig(kind=kind, seed=s, max_steps=50, start_node=s % 15,
                                 burn_in=b)
                   for s, (kind, b) in enumerate(
                       [("edge_curved", 0), ("edge_curved", 5), ("node_mh_curved", 17),
                        ("edge_uniform", 40), ("node_mh_uniform", 0)])]
        assert_lockstep_equals_run_chain(g, configs)

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
        configs = [SamplerConfig(kind="edge_uniform", seed=seed, max_steps=60,
                                 start_node=seed % g.node_count, burn_in=seed % 3)
                   for seed in range(len(values))]
        assert_lockstep_equals_run_chain(g, configs)

    @pytest.mark.parametrize("floor", [0.0, 1e-9])
    @pytest.mark.parametrize("hub", [15, 16, 17, 31, 32, 33, 63, 64, 65])
    @pytest.mark.parametrize("extra", [0.3, 3])
    def test_crowded_rows_and_hubs(self, hub, extra, floor):
        # node and edge weights of 1e-12 crowd a row's cumulative entries
        # into one guide cell; hub degrees sit around powers of two, which
        # set the guide's size unless the mean degree caps it
        g = hub_graph(np.random.default_rng(hub), hub, [1e-12, 1.0, 2.5],
                      int(extra * hub))
        assert_lockstep_equals_run_chain(g, edge_lockstep_configs(g, 150, floor))

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
            g, edge_lockstep_configs(g, 60, floor, burn_ins))

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
            g, lockstep_configs(g, 40, burn_in, mode, chains=2))

    def test_rejects_mixed_lengths_and_bad_starts(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            run_lockstep(g, [SamplerConfig(kind="edge_uniform", seed=0, max_steps=5),
                             SamplerConfig(kind="edge_uniform", seed=0, max_steps=6)])
        g = WeightedGraph(3, [(0, 1)])
        with pytest.raises(ValueError):
            run_lockstep(g, [SamplerConfig(kind="node_mh_uniform", seed=0,
                                           max_steps=5, start_node=2)])


class TestTransitionMatrix:
    @pytest.mark.parametrize("kind", ["edge_curved", "edge_uniform",
                                      "node_mh_curved", "node_mh_uniform"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_stochastic_and_supported(self, kind, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, 12, weighted=True)
        tm = build_transition_matrix(g, SamplerConfig(kind=kind, seed=0,
                                                      max_steps=1))
        P = tm.matrix
        assert np.all(np.abs(P.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(P >= 0)
        is_mh = kind.startswith("node_mh")
        for i in range(g.node_count):
            for j in range(g.node_count):
                if P[i, j] > 0 and i != j:
                    assert g.has_edge(i, j)
            if not is_mh:
                assert P[i, i] == 0.0

    def test_star_uniform_row(self):
        g = star_graph(4)
        tm = build_transition_matrix(g, SamplerConfig(kind="edge_uniform",
                                                      seed=0, max_steps=1))
        assert np.allclose(tm.matrix[0, 1:], 0.25, atol=1e-15)

    def test_mh_diagonal_is_rejection_mass(self):
        g = path_graph(5)
        cfg = SamplerConfig(kind="node_mh_curved", seed=0, max_steps=1)
        tm = build_transition_matrix(g, cfg)
        P = tm.matrix
        for i in range(5):
            off = P[i].sum() - P[i, i]
            assert P[i, i] == pytest.approx(1.0 - off, abs=1e-12)

    def test_path5_stationary_matches_target(self):
        g = path_graph(5)
        cfg = SamplerConfig(kind="node_mh_curved", seed=0, max_steps=1)
        cm = compute_curvature_map(g, "combinatorial")
        target = make_target(g, cm, "curved", cfg.epsilon_floor)
        tm = build_transition_matrix(g, cfg, curvmap=cm, target=target)
        pi = stationary_distribution(tm)
        assert np.abs(pi - target / target.sum()).max() < 1e-10

    @pytest.mark.parametrize("kind", ["node_mh_curved", "node_mh_uniform"])
    @pytest.mark.parametrize("seed", range(5))
    def test_mh_stationarity_and_detailed_balance(self, kind, seed):
        rng = np.random.default_rng(300 + seed)
        g = random_connected_graph(rng, int(rng.integers(3, 30)))
        cfg = SamplerConfig(kind=kind, seed=0, max_steps=1)
        tm = build_transition_matrix(g, cfg)
        pi = stationary_distribution(tm)
        assert np.abs(pi @ tm.matrix - pi).max() < 1e-10
        if kind == "node_mh_curved":
            cm = compute_curvature_map(g, "combinatorial")
            target = make_target(g, cm, "curved", cfg.epsilon_floor)
        else:
            target = make_target(g, None, "uniform")
        assert np.abs(pi - target / target.sum()).max() < 1e-10
        P = tm.matrix
        for u, v in g.edges:
            assert abs(pi[u] * P[u, v] - pi[v] * P[v, u]) < 1e-10

    def test_size_guard(self):
        g = path_graph(2001)
        with pytest.raises(ValueError):
            build_transition_matrix(g, SamplerConfig(kind="edge_uniform",
                                                     seed=0, max_steps=1))

    def test_isolated_row_absorbing(self):
        g = WeightedGraph(3, [(0, 1)])
        tm = build_transition_matrix(g, SamplerConfig(kind="edge_uniform",
                                                      seed=0, max_steps=1))
        assert tm.matrix[2, 2] == 1.0

    def test_stationary_known_two_state(self):
        P = np.array([[0.5, 0.5], [0.25, 0.75]])
        pi = stationary_distribution(P)
        assert np.allclose(pi, [1 / 3, 2 / 3], atol=1e-12)


def test_empirical_visit_law_small():
    rng = np.random.default_rng(77)
    g = random_connected_graph(rng, 20, extra=1.5)
    cfg = SamplerConfig(kind="node_mh_curved", seed=2024, max_steps=200_000,
                        start_node=0)
    trace = run_chain(g, cfg)
    freq = np.bincount(trace.visits, minlength=20) / cfg.max_steps
    pi = stationary_distribution(build_transition_matrix(g, cfg))
    tv = 0.5 * np.abs(freq - pi).sum()
    assert tv < 0.05
