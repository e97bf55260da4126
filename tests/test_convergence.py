"""Convergence harness tests: estimators, MSE curves, backbones, determinism."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvewalk.convergence
import curvewalk.sampler
from curvewalk import (SAMPLER_KINDS, ExperimentPlan, SamplerConfig, WeightedGraph,
                       betweenness, extract_backbone,
                       induced_subgraph, run_chain, run_experiment,
                       strength_vector)
from curvewalk.sampler import _TIME_CHUNK, distinct_prefix_counts
from curvewalk.convergence import _fold, sampler_labels
from conftest import (cycle_graph, path_graph, random_connected_graph,
                      run_chain_stream)
from oracles import (chain_sums_oracle, distinct_counts_oracle,
                     exact_curves_oracle, kernel_matrix_oracle,
                     running_estimator_oracle)


def mh_template(kind="node_mh_uniform", **kwargs):
    return SamplerConfig(kind=kind, seed=0, max_steps=1, **kwargs)


def tiny_plan(**kwargs):
    defaults = dict(
        samplers=(mh_template("node_mh_curved"), mh_template("node_mh_uniform")),
        statistics=("strength",),
        n_chains=2,
        max_steps=30,
        master_seed=5,
    )
    defaults.update(kwargs)
    return ExperimentPlan(**defaults)


class TestEstimatorMean:
    """The running mean over a chain's distinct nodes, seen through the
    squared errors that the fold forms from it."""

    @staticmethod
    def errors(values, chain):
        values = {"stat": np.asarray(values, dtype=np.float64)}
        visits = np.array([chain], dtype=np.int64)
        _, (sums,) = folded(visits, values, 1, [(0, 0, visits.T)])
        return sums.sq_sum[0]

    def test_first_step_is_start_value(self):
        g = path_graph(3)
        sv = betweenness(g)
        trace = run_chain(g, SamplerConfig(kind="edge_uniform", seed=0,
                                           max_steps=10, start_node=1))
        assert self.errors(sv, trace)[0] == (sv[1] - np.mean(sv)) ** 2

    def test_revisits_count_once(self):
        # nodes 0 and 1 alternate and node 2 is never seen: the estimate
        # stays (1 + 4) / 2, where counting every visit would move it
        errors = self.errors([1.0, 4.0, 10.0], [0, 1, 0, 1, 0, 1, 0])
        assert errors.tolist() == [16.0] + [6.25] * 6

    def test_pair_value_on_path(self):
        g = path_graph(3)
        sv = betweenness(g)
        trace = run_chain(g, SamplerConfig(kind="edge_uniform", seed=1,
                                           max_steps=2, start_node=0))
        assert trace.tolist() == [0, 1]
        assert self.errors(sv, trace)[1] == (0.5 - np.mean(sv)) ** 2


# negative values, signed zeros and repeats; sums of 1/3, 0.1, 1e-300 and
# +-1e16 round, so they depend on the order of their terms
_STAT_VALUES = st.sampled_from([-1.5, -0.0, 0.0, 2.0, 1 / 3, 0.1, 1e-300,
                                -7.25, 1e16, -1e16])


@st.composite
def visit_arrays(draw, max_chains=4):
    """``(chains, values)``: chains made of runs of one node, from 1 to 12
    steps each, over 1 to 6 nodes, so that some chains see every node and
    some never do; two statistics over those nodes."""
    V = draw(st.integers(1, 6))
    n_steps = draw(st.integers(1, 80))
    chains = []
    for _ in range(draw(st.integers(1, max_chains))):
        runs = draw(st.lists(st.tuples(st.integers(0, V - 1), st.integers(1, 12)),
                             min_size=1, max_size=20))
        nodes, lengths = zip(*runs)
        chain = np.repeat(nodes, lengths)[:n_steps]
        chains.append(np.pad(chain, (0, n_steps - len(chain)), mode="edge"))
    values = {kind: np.array(draw(st.lists(_STAT_VALUES, min_size=V, max_size=V)))
              for kind in ("first", "second")}
    return np.array(chains, dtype=np.int64), values


@st.composite
def block_streams(draw):
    """``(visits, values, n_samplers, blocks)``: the rows of ``visits`` are
    ``n_samplers`` samplers' chains, sampler-major, and ``blocks`` cuts them
    into a stream as the lockstep engine yields it. Samplers are put in
    groups that share cuts, the way one family and burn-in do: each cut is
    one wider array of the group's chains, and its samplers' blocks, one
    after another, are column views of it. Each group cuts the steps its own
    way, often with a first block of one step, and the groups' blocks
    interleave in any order that keeps each group's in time order."""
    n_samplers = draw(st.integers(1, 3))
    chains, values = draw(visit_arrays(max_chains=12))
    # every sampler gets the drawn chains in a rotated order
    visits = np.concatenate([np.roll(chains, s, axis=0) for s in range(n_samplers)])
    n_chains, n_steps = chains.shape
    group_of = draw(st.lists(st.integers(0, n_samplers - 1),
                             min_size=n_samplers, max_size=n_samplers))
    pending = []
    for group in sorted(set(group_of)):
        members = [s for s in range(n_samplers) if group_of[s] == group]
        rows = np.concatenate([np.arange(s * n_chains, (s + 1) * n_chains)
                               for s in members])
        cuts = set(draw(st.lists(st.integers(1, n_steps), max_size=10)))
        if draw(st.booleans()):
            cuts.add(1)
        bounds = [0, *sorted(cuts - {n_steps}), n_steps]
        cut_blocks = []
        for lo, hi in zip(bounds, bounds[1:]):
            wide = visits[rows, lo:hi].T
            cut_blocks += [(s, lo, wide[:, j * n_chains:(j + 1) * n_chains])
                           for j, s in enumerate(members)]
        pending.append(cut_blocks)
    blocks = []
    while pending:
        group = draw(st.sampled_from(pending))
        blocks.append(group.pop(0))
        if not group:
            pending.remove(group)
    return visits, values, n_samplers, blocks


def folded(visits, values, n_samplers, blocks):
    full_means = {kind: float(np.mean(v)) for kind, v in values.items()}
    n_chains = len(visits) // n_samplers
    return full_means, _fold(iter(blocks), n_samplers, n_chains, visits.shape[1],
                             values, full_means)


class TestAggregationOracle:
    """The block-by-block fold against the whole-matrix sums and the
    step-indexed running mean."""

    @settings(max_examples=300, deadline=None)
    @given(block_streams())
    def test_sums_equal_the_oracle_bit_for_bit(self, drawn):
        self.assert_sums_equal_the_oracle(drawn)

    @pytest.mark.parametrize("cells", [1, 60])
    @settings(max_examples=150, deadline=None)
    @given(drawn=block_streams())
    def test_sums_in_slices_of_chains_equal_the_oracle(self, cells, drawn):
        # one chain per slice, or a few, so that slices end anywhere in the
        # chains, discover nothing or reach full coverage
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(curvewalk.convergence, "_SLICE_CELLS", cells)
            self.assert_sums_equal_the_oracle(drawn)

    @staticmethod
    def assert_sums_equal_the_oracle(drawn):
        visits, values, n_samplers, blocks = drawn
        full_means, sums = folded(visits, values, n_samplers, blocks)
        n_chains = len(visits) // n_samplers
        for s, got in enumerate(sums):
            chains = visits[s * n_chains:(s + 1) * n_chains]
            sq_sum, distinct_sum, counts = chain_sums_oracle(chains, values,
                                                             full_means)
            want_sq = {kind: np.zeros(chains.shape[1]) for kind in values}
            want_distinct = np.zeros(chains.shape[1], dtype=np.int64)
            for chain in chains:
                distinct = distinct_counts_oracle(chain)
                # the count that trace.csv's distinct_count column holds
                assert distinct_prefix_counts(chain).tolist() == distinct.tolist()
                want_distinct += distinct
                for kind, v in values.items():
                    zbar = running_estimator_oracle(v, chain, distinct,
                                                    full_means[kind])
                    want_sq[kind] += (zbar - full_means[kind]) ** 2
            for i, kind in enumerate(values):
                assert got.sq_sum[i].tobytes() == sq_sum[kind].tobytes()
                assert got.sq_sum[i].tobytes() == want_sq[kind].tobytes()
            assert got.distinct_sum.tobytes() == distinct_sum.tobytes()
            assert got.distinct_sum.tobytes() == want_distinct.tobytes()
            assert ((got.distinct_sum / n_chains).tobytes()
                    == (want_distinct / n_chains).tobytes())
            assert got.counts.tobytes() == counts.tobytes()
            assert got.counts.tolist() == np.bincount(
                chains.ravel(), minlength=len(counts)).tolist()

    def test_one_step_blocks_add_the_chains_in_row_order(self, monkeypatch):
        # sixteen chains, each on its own node; a pairwise sum of their
        # squared errors rounds differently from adding them row by row, and
        # so does adding them in reverse, slice by slice
        values = {"first": np.array([3e8, 1.0, -3e8, 0.5, 7.0, -1.0, 2e8, 1e-3]
                                    * 2)}
        visits = np.arange(16, dtype=np.int64)[:, None].repeat(3, axis=1)
        blocks = [(0, k, visits[:, k:k + 1].T) for k in range(3)]
        errs = (values["first"] - np.mean(values["first"])) ** 2
        row_order = 0.0
        for e in errs.tolist():
            row_order += e
        assert row_order != float(np.sum(errs))  # the case is a real one
        assert row_order != sum(errs[::-1].tolist())
        # one-step blocks take cells // 1 chains a slice: one slice of all
        # 16 chains, slices of one chain, and slices of 7, 7 and 2 chains
        for cells in (curvewalk.convergence._SLICE_CELLS, 1, 7):
            monkeypatch.setattr(curvewalk.convergence, "_SLICE_CELLS", cells)
            full_means, (got,) = folded(visits, values, 1, blocks)
            assert got.sq_sum[0].tolist() == [row_order] * 3
            sq_sum, _, _ = chain_sums_oracle(visits, values, full_means)
            assert got.sq_sum[0].tobytes() == sq_sum["first"].tobytes()

    def test_slices_of_chains_carry_each_chains_state(self, monkeypatch):
        # five chains on three nodes, cut into slices of 2, 2 and 1 chains:
        # in the second block chains 2 and 3 discover nothing, and chain 4,
        # alone in the last slice, reaches full coverage (visited in the
        # order 2, 1, 0, where only the substitution makes its error 0)
        # with a count, running sum and error unlike those of chain 0
        values = {"first": np.array([0.1, 0.2, 0.3]),
                  "second": np.array([-1.5, 1 / 3, 1e16])}
        visits = np.array([[0, 1, 1, 1, 1, 1, 1],
                           [2, 2, 2, 0, 0, 0, 0],
                           [1, 1, 1, 1, 1, 1, 1],
                           [0, 0, 0, 0, 0, 0, 0],
                           [2, 2, 2, 1, 0, 0, 0]], dtype=np.int64)
        blocks = [(0, 0, visits[:, :3].T), (0, 3, visits[:, 3:].T)]
        slices = []
        add_slice = curvewalk.convergence._StepSums._add_slice

        def recording(self, g0, states, sums, distinct):
            found = int(self.found.sum())
            add_slice(self, g0, states, sums, distinct)
            slices.append((g0, g0 + states.shape[1], int(self.found.sum()) - found))

        monkeypatch.setattr(curvewalk.convergence._StepSums, "_add_slice", recording)
        # blocks of 3 and 4 steps both take 8 // steps = 2 chains a slice
        monkeypatch.setattr(curvewalk.convergence, "_SLICE_CELLS", 8)
        full_means, (got,) = folded(visits, values, 1, blocks)
        assert slices == [(0, 2, 3), (2, 4, 2), (4, 5, 1),
                          (0, 2, 1), (2, 4, 0), (4, 5, 2)]
        sq_sum, distinct_sum, _ = chain_sums_oracle(visits, values, full_means)
        for i, kind in enumerate(values):
            assert got.sq_sum[i].tobytes() == sq_sum[kind].tobytes()
        assert got.distinct_sum.tobytes() == distinct_sum.tobytes()

    def test_discovery_heavy_block_is_folded_in_slices(self):
        # 400 chains of 1024 uniform draws over 1000 nodes discover about 640
        # nodes each. Folded for every chain at once, this block took the
        # fold's traced peak to 24.9 MiB, and a scan of the whole block
        # before its slices to 10.6 MiB; slices folded each on its own keep
        # it near 1.9 MiB, as at 50 chains
        V, B = 1000, 1024
        rng = np.random.default_rng(0)
        values = {"first": rng.random(V), "second": rng.random(V)}
        full_means = {kind: float(np.mean(v)) for kind, v in values.items()}

        def traced_peak(C):
            states = rng.integers(0, V, (B, C))
            (sums,) = _fold(iter([]), 1, C, B, values, full_means)
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                sums.add(0, states)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert sums.found.min() > 500
            return peak - start

        narrow, wide = traced_peak(50), traced_peak(400)
        assert wide < 4 * 2**20, wide
        assert wide < 1.5 * narrow, (wide, narrow)

    def test_full_coverage_estimate_is_the_full_mean(self):
        # visited in the order 2, 1, 0, the running mean at full coverage
        # rounds away from the full mean, so only the substitution makes
        # the error exactly 0
        values = {"first": np.array([0.1, 0.2, 0.3])}
        visits = np.array([[2, 2, 1, 0, 0, 1]], dtype=np.int64)
        running = np.cumsum(values["first"][[2, 1, 0]])[-1] / 3
        assert running != float(np.mean(values["first"]))  # the case is a real one
        blocks = [(0, 0, visits[:, :3].T), (0, 3, visits[:, 3:].T)]
        full_means, (got,) = folded(visits, values, 1, blocks)
        assert got.sq_sum[0][3:].tolist() == [0.0] * 3
        sq_sum, _, _ = chain_sums_oracle(visits, values, full_means)
        assert got.sq_sum[0].tobytes() == sq_sum["first"].tobytes()

    def test_blocks_out_of_order_are_refused(self):
        visits = np.zeros((2, 4), dtype=np.int64)
        values = {"first": np.array([1.0])}
        blocks = [(0, 2, visits[:, 2:].T)]
        with pytest.raises(ValueError, match="expected steps from 0"):
            folded(visits, values, 1, blocks)


class TestExtractBackbone:
    def test_full_fraction_returns_everything(self):
        r = np.array([3, 0, 5, 1])
        assert sorted(extract_backbone(r, 1.0).tolist()) == [0, 1, 2, 3]

    def test_quarter_of_77(self):
        r = np.arange(77)[::-1].copy()
        assert len(extract_backbone(r, 0.25)) == 20  # ceil(19.25)

    @pytest.mark.parametrize("fraction, n", [(0.07, 100), (0.14, 50),
                                             (0.28, 25)])
    def test_float_noise_does_not_round_up(self, fraction, n):
        assert fraction * n > 7  # the float product overshoots 7
        r = np.arange(n)[::-1].copy()
        assert len(extract_backbone(r, fraction)) == 7

    def test_tie_breaks_to_lower_id(self):
        r = np.array([4, 9, 9, 1])
        assert extract_backbone(r, 0.25).tolist() == [1]
        assert extract_backbone(r, 0.5).tolist() == [1, 2]

    def test_fraction_bounds(self):
        r = np.array([1, 2])
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                extract_backbone(r, bad)


class TestPlanValidation:
    def test_defaults_ok(self):
        plan = tiny_plan()
        assert plan.n_chains == 2

    @pytest.mark.parametrize("kwargs", [
        {"samplers": ()},
        {"statistics": ()},
        {"statistics": ("pagerank",)},
        {"n_chains": 1},
        {"start_nodes": ()},
        {"start_nodes": (0, 1, 2)},  # wrong len
        {"max_steps": 0},
        {"path_mode": "euclidean"},
        {"n_chains": 2.5},
        {"n_chains": 2.0},
        {"max_steps": 20.0},
        {"master_seed": 1.5},
        {"statistics": "strength"},
        {"start_nodes": "12"},
        {"start_nodes": (1, 2.0)},
        {"use_largest_component": "no"},
        {"use_largest_component": 1},
        {"statistics": ("strength", "closeness", "strength")},
        {"start_nodes": 3},
        {"statistics": 3},
        {"samplers": "edge_uniform"},
        {"samplers": 3},
        {"samplers": ({"kind": "edge_uniform"},)},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            tiny_plan(**kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        ({"n_chains": 2.0}, "n_chains"),
        ({"max_steps": "20"}, "max_steps"),
        ({"statistics": "strength"}, "statistics"),
        ({"use_largest_component": "no"}, "use_largest_component"),
        ({"start_nodes": 3}, "start_nodes"),
        ({"statistics": 3}, "statistics"),
        ({"samplers": "edge_uniform"}, "samplers"),
        ({"samplers": 3}, "samplers"),
        ({"samplers": ({"kind": "edge_uniform"},)}, "samplers"),
    ])
    def test_wrong_type_names_the_field(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            tiny_plan(**kwargs)

    def test_single_start_broadcasts(self):
        plan = tiny_plan(start_nodes=(3,))
        assert plan.start_nodes == (3, 3)

    def test_labels_disambiguate_duplicates(self):
        labels = sampler_labels((mh_template(), mh_template(),
                                 mh_template("node_mh_curved")))
        assert labels == ("node_mh_uniform_1", "node_mh_uniform_2",
                          "node_mh_curved")


class TestRunExperiment:
    def test_hand_recomputed_mse(self):
        # dual route: rebuild each chain with run_chain and recompute the MSE
        # from the step-indexed estimator oracle
        rng = np.random.default_rng(0)
        g = random_connected_graph(rng, 7, extra=1.0)
        plan = ExperimentPlan(
            samplers=(mh_template("node_mh_uniform"),),
            statistics=("betweenness",), n_chains=3, max_steps=25,
            master_seed=42)
        result = run_experiment(g, plan)
        mse = result.mse["node_mh_uniform"]["betweenness"]
        sv = betweenness(g)
        ez = float(np.mean(sv))
        traces = [
            run_chain(g, SamplerConfig(kind="node_mh_uniform", seed=seed,
                                       max_steps=25, start_node=start))
            for seed, start in zip(result.chain_seeds, result.start_nodes)
        ]
        zbars = [running_estimator_oracle(sv, t, distinct_prefix_counts(t), ez)
                 for t in traces]
        for n in (1, 2, 7, 25):
            expected = np.mean([(zbar[n - 1] - ez) ** 2 for zbar in zbars])
            assert mse[n - 1] == expected

    def test_full_coverage_mse_exactly_zero(self):
        g = path_graph(3)
        plan = ExperimentPlan(
            samplers=(mh_template("node_mh_uniform"),),
            statistics=("strength", "betweenness"),
            n_chains=3, max_steps=400, master_seed=9)
        result = run_experiment(g, plan)
        traces = [
            run_chain(g, SamplerConfig(kind="node_mh_uniform", seed=seed,
                                       max_steps=400, start_node=start))
            for seed, start in zip(result.chain_seeds, result.start_nodes)
        ]
        # first step at which every chain has seen all three nodes
        distinct = [distinct_prefix_counts(t) for t in traces]
        covered = int(max(np.argmax(d == 3) for d in distinct))
        assert all(d[covered] == 3 for d in distinct)
        for mse in result.mse["node_mh_uniform"].values():
            assert np.all(mse[covered:] == 0.0)
            assert np.any(mse[:covered] > 0.0)

    def test_mse1_fixed_start_exact_for_two_chains(self):
        g = path_graph(5)
        sv = strength_vector(g)
        ez = float(np.mean(sv))
        plan = ExperimentPlan(
            samplers=(mh_template("node_mh_uniform"),),
            statistics=("strength",), n_chains=2, max_steps=10,
            start_nodes=(0,), master_seed=3)
        result = run_experiment(g, plan)
        assert result.mse["node_mh_uniform"]["strength"][0] == (sv[0] - ez) ** 2

    def test_start_nodes_alone_fix_every_start(self, monkeypatch):
        rng = np.random.default_rng(8)
        g = random_connected_graph(rng, 10)
        calls = []
        stream = curvewalk.convergence._lockstep_stream

        def recording_stream(g, templates, seeds, starts, n):
            calls.append((len(templates), tuple(starts)))
            return stream(g, templates, seeds, starts, n)

        monkeypatch.setattr(curvewalk.convergence, "_lockstep_stream",
                            recording_stream)
        result = run_experiment(g, tiny_plan(n_chains=3, max_steps=10,
                                             start_nodes=(3,)))
        assert result.start_nodes == (3, 3, 3)
        assert calls == [(2, (3, 3, 3))]

    @pytest.mark.parametrize("kind", ["edge_curved", "edge_uniform",
                                      "node_mh_uniform"])
    def test_isolated_start_on_one_node_graph(self, kind):
        # past the connectivity gate only a one-node graph has an isolated node
        plan = tiny_plan(samplers=(mh_template(kind),), max_steps=5,
                         start_nodes=(0,))
        with pytest.raises(ValueError, match="start node 0 is isolated"):
            run_experiment(WeightedGraph(1, []), plan)

    def test_deterministic_and_equal_to_run_chain_replay(self, monkeypatch):
        rng = np.random.default_rng(1)
        g = random_connected_graph(rng, 12, extra=1.2, weighted=True)
        samplers = tuple(SamplerConfig(kind=kind, seed=0, max_steps=1,
                                       curvature_mode="weighted", burn_in=3)
                         for kind in ("edge_curved", "node_mh_curved",
                                      "edge_uniform", "node_mh_uniform"))
        plan = tiny_plan(samplers=samplers, n_chains=4, max_steps=50,
                         master_seed=77, statistics=("strength", "closeness"))
        a = run_experiment(g, plan)
        b = run_experiment(g, plan)
        # replay: every chain alone through the scalar single-chain driver
        monkeypatch.setattr(curvewalk.convergence, "_lockstep_stream",
                            run_chain_stream)
        c = run_experiment(g, plan)
        assert list(a.mse) == list(b.mse) == list(c.mse)
        for label, curves in a.mse.items():
            for kind, mse in curves.items():
                assert np.array_equal(mse, b.mse[label][kind])
                assert np.array_equal(mse, c.mse[label][kind])
            assert np.array_equal(a.mean_distinct[label], c.mean_distinct[label])
            assert np.array_equal(a.visit_counts[label], c.visit_counts[label])

    def test_mixed_burn_in_across_chunks_equals_run_chain_replay(self, monkeypatch):
        # MH burn-ins 0 and 17 split their family's blocks into two groups
        # whose chunks start at different steps; the run spans three chunks
        # and ends mid-chunk
        rng = np.random.default_rng(9)
        g = random_connected_graph(rng, 12, extra=1.2, weighted=True)
        samplers = (mh_template("node_mh_curved", curvature_mode="weighted"),
                    SamplerConfig(kind="edge_uniform", seed=0, max_steps=1,
                                  burn_in=5),
                    mh_template("node_mh_uniform", burn_in=17))
        n_steps = 2 * _TIME_CHUNK + 37
        plan = tiny_plan(samplers=samplers, n_chains=3, max_steps=n_steps,
                         master_seed=21, statistics=("strength", "closeness"))
        a = run_experiment(g, plan)
        monkeypatch.setattr(curvewalk.convergence, "_lockstep_stream",
                            run_chain_stream)
        b = run_experiment(g, plan)
        assert list(a.mse) == list(b.mse)
        for label, curves in a.mse.items():
            for kind, mse in curves.items():
                assert len(mse) == n_steps
                assert mse.tobytes() == b.mse[label][kind].tobytes()
            assert a.mean_distinct[label].tobytes() == b.mean_distinct[label].tobytes()
            assert a.visit_counts[label].tobytes() == b.visit_counts[label].tobytes()

    def test_memory_is_not_a_chains_by_steps_matrix(self, monkeypatch):
        # 256 chains x 8192 steps would be a 16 MiB int64 matrix. The fold
        # holds O(chains x chunk) of blocks and O(chains x V) of state; a
        # 256-step chunk keeps the traced run short, since tracing slows
        # every numpy allocation of the per-step and per-chain loops
        monkeypatch.setattr(curvewalk.sampler, "_TIME_CHUNK", 256)
        plan = tiny_plan(samplers=(SamplerConfig(kind="edge_uniform", seed=0,
                                                 max_steps=1),),
                         n_chains=256, max_steps=8192, start_nodes=(0,))
        matrix_bytes = 256 * 8192 * 8
        assert matrix_bytes >= 16 * 2**20
        tracemalloc.start()
        try:
            result = run_experiment(cycle_graph(100), plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.mean_distinct["edge_uniform"]) == 8192
        assert peak < matrix_bytes / 2, peak

    # the start row, then a 299-step block: one chain per slice, or one
    # slice of the 9 chains, then slices of 1200 // 299 = 4, 4 and 1
    @pytest.mark.parametrize("cells", [1, 1200])
    def test_slice_budget_leaves_every_result_unchanged(self, cells, monkeypatch):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 30, extra=1.5, weighted=True)
        samplers = tuple(SamplerConfig(kind=kind, seed=0, max_steps=1,
                                       curvature_mode="weighted")
                         for kind in ("edge_curved", "node_mh_curved",
                                      "edge_uniform", "node_mh_uniform"))
        plan = tiny_plan(samplers=samplers, n_chains=9, max_steps=300,
                         master_seed=13,
                         statistics=("strength", "closeness", "weighted_clustering"))
        a = run_experiment(g, plan)
        monkeypatch.setattr(curvewalk.convergence, "_SLICE_CELLS", cells)
        b = run_experiment(g, plan)
        for label, curves in a.mse.items():
            for kind, mse in curves.items():
                assert mse.tobytes() == b.mse[label][kind].tobytes()
            assert a.mean_distinct[label].tobytes() == b.mean_distinct[label].tobytes()
            assert a.visit_counts[label].tobytes() == b.visit_counts[label].tobytes()

    def test_mean_distinct_monotone(self):
        rng = np.random.default_rng(2)
        g = random_connected_graph(rng, 10)
        result = run_experiment(g, tiny_plan(max_steps=80))
        for mean_distinct in result.mean_distinct.values():
            assert np.all(np.diff(mean_distinct) >= 0)

    def test_backbone_counts_and_permutation(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 9)
        plan = tiny_plan(n_chains=3, max_steps=40)
        result = run_experiment(g, plan)
        for counts in result.visit_counts.values():
            assert int(counts.sum()) == 3 * 40
            ranked = extract_backbone(counts, 1.0)
            assert sorted(ranked.tolist()) == list(range(9))
            assert np.all(np.diff(counts[ranked]) <= 0)

    def test_distinct_random_starts_are_distinct(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(rng, 20)
        plan = tiny_plan(n_chains=15, max_steps=5)
        result = run_experiment(g, plan)
        assert len(set(result.start_nodes)) == 15

    def test_too_many_chains_for_distinct_starts(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            run_experiment(g, tiny_plan(n_chains=4, max_steps=5))

    def test_disconnected_needs_flag(self):
        g = WeightedGraph(6, [(0, 1), (1, 2), (3, 4)])
        with pytest.raises(ValueError):
            run_experiment(g, tiny_plan(max_steps=10))
        plan = tiny_plan(max_steps=10, use_largest_component=True)
        result = run_experiment(g, plan)
        assert len(result.visit_counts["node_mh_curved"]) == 3
        assert result.component_nodes.tolist() == [0, 1, 2]

    def test_equal_components_restrict_to_the_earliest(self):
        # {0, 5, 6} and {1, 2, 3} tie for largest; components are ordered by
        # smallest member, and the earliest of the largest is kept
        g = WeightedGraph(7, [(1, 2), (2, 3), (0, 5), (5, 6)])
        plan = tiny_plan(max_steps=10, use_largest_component=True)
        assert run_experiment(g, plan).component_nodes.tolist() == [0, 5, 6]

    def test_fixed_starts_name_nodes_of_the_given_graph(self):
        # {0-1} plus the path 2-3-4-5-6: the largest component is 2..6
        g = WeightedGraph(7, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6)])
        sv = strength_vector(induced_subgraph(g, [2, 3, 4, 5, 6]))
        ez = float(np.mean(sv))
        for start, local in ((2, 0), (6, 4)):
            plan = tiny_plan(samplers=(mh_template("node_mh_uniform"),),
                             max_steps=10, start_nodes=(start,),
                             use_largest_component=True)
            result = run_experiment(g, plan)
            assert result.start_nodes == (local, local)
            assert result.component_nodes[local] == start
            assert result.mse["node_mh_uniform"]["strength"][0] == (sv[local] - ez) ** 2
        for start in (0, 1):
            plan = tiny_plan(max_steps=10, start_nodes=(start,),
                             use_largest_component=True)
            with pytest.raises(ValueError, match=f"start node {start} is not in"):
                run_experiment(g, plan)
        plan = tiny_plan(max_steps=10, start_nodes=(7,),
                         use_largest_component=True)
        with pytest.raises(ValueError, match="out of range"):
            run_experiment(g, plan)

    def test_curvature_refusal_names_nodes_of_the_given_graph(self):
        # {0-1} plus a triangle 2-3-4 whose edge 2-3 has a -inf curvature
        g = WeightedGraph(5, [(0, 1), (2, 3), (3, 4), (2, 4)],
                          [1.0, 1e-300, 1e-300, 1.0])
        plan = tiny_plan(samplers=(mh_template("node_mh_curved",
                                               curvature_mode="weighted"),),
                         max_steps=10, use_largest_component=True)
        with pytest.raises(ValueError, match=r"edge \(2, 3\) is -inf"):
            run_experiment(g, plan)

    def test_start_refusal_names_nodes_of_the_given_graph(self):
        # {0-1} plus a tree 2-3-4 with leaves 5 and 6 at 4: node 3 has
        # combinatorial curvature 1 - 1 = 0, so with no floor its target
        # density is 0. It is node 1 of the component; node 1 of the graph
        # is in {0-1}
        g = WeightedGraph(7, [(0, 1), (2, 3), (3, 4), (4, 5), (4, 6)])
        plan = tiny_plan(samplers=(mh_template("node_mh_curved", epsilon_floor=0.0),),
                         max_steps=10, start_nodes=(3,), use_largest_component=True)
        with pytest.raises(ValueError, match="target density is zero at start node 3$"):
            run_experiment(g, plan)

    def test_result_is_read_only_and_keyed_in_plan_order(self):
        rng = np.random.default_rng(5)
        g = random_connected_graph(rng, 8)
        plan = tiny_plan(samplers=(mh_template("node_mh_uniform"),
                                   mh_template("node_mh_curved"),
                                   mh_template("node_mh_uniform")),
                         statistics=("strength", "betweenness"), max_steps=15)
        result = run_experiment(g, plan)
        labels = ["node_mh_uniform_1", "node_mh_curved", "node_mh_uniform_2"]
        for field in (result.mse, result.mean_distinct, result.visit_counts):
            assert list(field) == labels
        arrays = [result.mean_distinct[labels[0]], result.visit_counts[labels[0]]]
        for curves in result.mse.values():
            assert list(curves) == ["strength", "betweenness"]
            arrays.extend(curves.values())
        for arr in arrays:
            assert not arr.flags.writeable
        assert len(result.mean_distinct[labels[0]]) == 15
        assert result.visit_counts[labels[0]].dtype == np.int64

    def test_default_steps_scale_with_graph(self):
        rng = np.random.default_rng(6)
        g = random_connected_graph(rng, 8)
        result = run_experiment(g, tiny_plan(max_steps=None))
        assert len(result.mse["node_mh_curved"]["strength"]) == 20 * 8

    def test_paired_seeds_across_samplers(self):
        rng = np.random.default_rng(7)
        g = random_connected_graph(rng, 10)
        plan = tiny_plan(samplers=(mh_template("node_mh_uniform"),
                                   mh_template("node_mh_uniform")),
                         n_chains=3, max_steps=20)
        result = run_experiment(g, plan)
        a, b = result.visit_counts.values()
        assert np.array_equal(a, b)


# graphs of at most 8 nodes with fixed non-unit edge weights, each with its
# start node
EXACT_GRAPHS = {
    "path": (path_graph(5, [1.5, 0.5, 2.0, 3.0]), 0),
    "star": (WeightedGraph(5, [(0, i) for i in range(1, 5)], [0.5, 1.0, 2.5, 4.0]), 1),
    "cycle": (WeightedGraph(6, [(i, (i + 1) % 6) for i in range(6)],
                            [1.0, 2.0, 0.5, 1.5, 3.0, 2.5]), 0),
    "triangle-pendant": (WeightedGraph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5)],
                                       [2.0, 0.5, 1.5, 1.0, 3.0, 0.75]), 4),
}


class TestExactCurves:
    """The curves of ``run_experiment`` against the exact law of (current
    node, visited set), from kernels built from their formulas: a kernel
    bug that every driver shares shows here."""

    @pytest.mark.parametrize("name, mode, burn_in, seed", [
        ("path", "combinatorial", 0, 11), ("path", "weighted", 0, 12),
        ("star", "combinatorial", 0, 13), ("star", "weighted", 0, 14),
        ("cycle", "combinatorial", 0, 15), ("cycle", "weighted", 0, 16),
        ("triangle-pendant", "combinatorial", 0, 17),
        ("triangle-pendant", "weighted", 3, 18),
    ])
    def test_means_within_five_standard_errors(self, name, mode, burn_in, seed):
        g, start = EXACT_GRAPHS[name]
        chains, steps = 2000, np.array([1, 2, 3, 5, 8, 13, 24])
        plan = ExperimentPlan(
            samplers=[SamplerConfig(kind=kind, seed=0, max_steps=1, curvature_mode=mode,
                                    burn_in=burn_in) for kind in SAMPLER_KINDS],
            statistics=("strength",), n_chains=chains, max_steps=int(steps[-1]),
            start_nodes=(start,), master_seed=seed)
        result = run_experiment(g, plan)
        strength = np.zeros(g.node_count)
        np.add.at(strength, g.edges.ravel(), np.repeat(g.edge_weights, 2))
        for kind in SAMPLER_KINDS:
            P = kernel_matrix_oracle(g, kind, mode)
            mse, mse_var, distinct, distinct_var = exact_curves_oracle(
                P, start, burn_in, strength, steps[-1])
            for what, got, mean, var in (
                    ("mse", result.mse[kind]["strength"], mse, mse_var),
                    ("mean_distinct", result.mean_distinct[kind], distinct, distinct_var)):
                got, mean, var = got[steps - 1], mean[steps - 1], var[steps - 1]
                # a curve that every chain shares differs only by rounding
                tol = 5 * np.sqrt(np.maximum(var, 0.0) / chains) + 1e-9 * np.abs(mean)
                assert (np.abs(got - mean) <= tol).all(), (kind, what, got, mean, tol)
