"""Shared graph builders, the exactness checks that the tier-1 tests and
``scale_checks.py`` share, and the acceptance-criteria result recorder."""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import curvewalk.sampler
from curvewalk import (WeightedGraph, compute_curvature_map, compute_statistics,
                       load_edge_list, make_rng, netstats, run_chain,
                       weighted_clustering)
from curvewalk.curvature import _weighted_forman
from curvewalk.sampler import _is_mh, _kernel_table, _lockstep_stream
from oracles import (dijkstra_bc_cc_oracle, edge_forman_oracle, edge_row_cdf,
                     weighted_clustering_oracle)

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
LESMIS = DATA_DIR / "lesmis.tsv"
CELEGANS = DATA_DIR / "celegans.tsv"


def chain_configs(template, seeds, starts, n):
    """The config of each chain of ``template`` the lockstep stream runs: the
    template with every chain index's seed and start, and ``n`` visits."""
    return [replace(template, seed=seed, start_node=start, max_steps=n)
            for seed, start in zip(seeds, starts)]


def run_chain_stream(g, templates, seeds, starts, n):
    """A stand-in for the lockstep stream that runs every chain alone through
    the scalar single-chain driver and yields each template's chains as one
    block."""
    for k, template in enumerate(templates):
        configs = chain_configs(template, seeds, starts, n)
        yield k, 0, np.stack([run_chain(g, cfg) for cfg in configs], axis=1)


def path_graph(n, weights=None) -> WeightedGraph:
    return WeightedGraph(n, [(i, i + 1) for i in range(n - 1)], weights)


def cycle_graph(n) -> WeightedGraph:
    return WeightedGraph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(k) -> WeightedGraph:
    """Center node 0 with leaves 1..k."""
    return WeightedGraph(k + 1, [(0, i) for i in range(1, k + 1)])


def complete_graph(n) -> WeightedGraph:
    return WeightedGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def two_hub_bridge() -> WeightedGraph:
    """Two degree-4 hubs joined through a degree-2 middle node, plus three
    leaves on each hub. Hub-middle edges join degrees (4, 2); leaf edges join
    degrees (4, 1)."""
    edges = [(0, 2), (1, 2), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7), (1, 8)]
    return WeightedGraph(9, edges)


def random_graph(rng, n, p, weighted=False) -> WeightedGraph:
    """Erdos-Renyi style graph; may be disconnected or have isolated nodes."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    weights = rng.uniform(0.5, 3.0, len(edges)) if weighted else None
    return WeightedGraph(n, edges, weights)


def random_connected_graph(rng, n, extra=1.0, weighted=False) -> WeightedGraph:
    """Random spanning tree plus ``extra * n`` random extra edges."""
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    seen = {(min(u, v), max(u, v)) for u, v in edges}
    for _ in range(int(extra * n)):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            edges.append(key)
    weights = rng.uniform(0.5, 3.0, len(edges)) if weighted else None
    return WeightedGraph(n, edges, weights)


def star_plus_path(rng, n):
    """A star on node 0 plus a path through the leaves, float weights."""
    edges = [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)]
    return WeightedGraph(n, edges, rng.uniform(0.5, 3.0, len(edges)),
                         rng.uniform(0.5, 2.0, n))


def synthetic_graph(tmp_path, nodes, extra=3):
    """``generate_edge_list(0, nodes, extra)`` of the benchmark's workloads,
    read back as the benchmark's program reads it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    f = tmp_path / f"synth-{nodes}-{extra}.tsv"
    f.write_bytes(workloads.generate_edge_list(0, nodes, extra))
    return load_edge_list(f)[0]


def assert_edge_rows_equal_oracle(g, cfg, curvmap):
    """Each row of ``cfg``'s edge kernel table equals ``edge_row_cdf``, as
    int64 bit patterns, so the check is exact; returns the table."""
    table, _ = _kernel_table(g, cfg, curvmap)
    for i in np.flatnonzero(g.degrees):
        lo, hi = g.adj_indptr[i], g.adj_indptr[i + 1]
        expected = edge_row_cdf(g, curvmap if cfg.kind == "edge_curved" else None,
                                i, cfg.epsilon_floor)
        assert table[lo:hi].view(np.int64).tolist() == \
            expected.view(np.int64).tolist(), (cfg.kind, i)
    return table


def assert_lockstep_equals_run_chain(g, templates, seeds, starts, n):
    """Consume the lockstep stream block by block: each block equals the
    ``run_chain`` visits it covers, and the stream keeps its contract. Each
    block holds int64 node ids of its template's chains in ``C`` columns,
    each template's blocks arrive in time order, every visit arrives
    exactly once, and every block spans from 1 to ``_TIME_CHUNK`` steps."""
    configs = [chain_configs(template, seeds, starts, n) for template in templates]
    expected = [[run_chain(g, cfg) for cfg in chains] for chains in configs]
    received = [0] * len(templates)  # visits so far of each template's chains
    for k, k0, states in _lockstep_stream(g, templates, seeds, starts, n):
        assert k in range(len(templates)), k
        assert states.dtype == np.int64 and states.shape == (len(states), len(seeds))
        assert 0 < len(states) <= curvewalk.sampler._TIME_CHUNK
        # each template's block starts where its last one ended: none
        # repeats, skips or arrives early
        assert received[k] == k0, (k, k0, received[k])
        for c, want in enumerate(expected[k]):
            assert np.array_equal(states[:, c], want[k0:k0 + len(states)]), configs[k][c]
        received[k] += len(states)
    assert received == [n] * len(templates), received


def assert_generators_end_at_their_prefix(monkeypatch, g, templates, seeds, starts, n):
    """Run the lockstep stream, recording every generator it makes. The
    families run by ascending burn-in, each making its edge generators
    before its MH ones; each family makes one generator per step rule and
    chain index, not one per chain, and each ends where the
    reproducibility contract puts it: one uniform per edge step or two per
    MH step, burn-in included, and no start draw."""
    made = {}  # seed -> its generators, in the order the families made them

    def recording_rng(seed):
        made.setdefault(seed, []).append(make_rng(seed))
        return made[seed][-1]

    monkeypatch.setattr(curvewalk.sampler, "make_rng", recording_rng)
    for _ in _lockstep_stream(g, templates, seeds, starts, n):
        pass
    monkeypatch.setattr(curvewalk.sampler, "make_rng", make_rng)
    families = sorted({(t.burn_in, 2 if _is_mh(t.kind) else 1) for t in templates})
    assert {seed: len(rngs) for seed, rngs in made.items()} == {
        seed: len(families) for seed in seeds}
    over = []
    for seed in seeds:
        for rng, (burn, draws) in zip(made[seed], families):
            want = make_rng(seed)
            want.random(draws * (burn + n - 1))
            if rng.bit_generator.state != want.bit_generator.state:
                over.append((seed, draws, burn))
    assert not over, f"{len(over)} of {len(seeds) * len(families)} generators " \
        f"left their prefix: {over}"


PATH_KINDS = ("betweenness", "closeness")


def dijkstra_oracle(g):
    """Path statistics of the heap Dijkstra on ``g``'s edge weights."""
    return dict(zip(PATH_KINDS, dijkstra_bc_cc_oracle(g)))


def assert_mode_equals(g, mode, oracle):
    """Both path statistics in ``mode`` equal ``oracle``'s, as int64 bit
    patterns; returns them."""
    out = compute_statistics(g, PATH_KINDS, mode)
    for kind in PATH_KINDS:
        assert np.array_equal(out[kind].view(np.int64), oracle[kind].view(np.int64)), kind
    return out


def set_sources_per_block(mp, g, sources):
    """Make both sweeps advance ``sources`` sources per block on ``g``."""
    per_source = max(len(g.adj_neighbors), g.node_count, 1)
    mp.setattr(netstats, "_BLOCK_PAIRS", sources * per_source)


def assert_clustering_equals_oracle(g):
    # as int64 bit patterns: equal floats, and the zero of a node without a
    # triangle is the loop's +0.0
    assert np.array_equal(weighted_clustering(g).view(np.int64),
                          weighted_clustering_oracle(g).view(np.int64))


def assert_weighted_map_equals_oracle(g):
    # products of two 1e-300 weights underflow to 0, so some terms are
    # infinite and some sums NaN; the vectorized pass must agree on those
    # too, and the map refuses them, naming the first such edge. A finite
    # map is compared as int64 bit patterns, zeros' signs included
    with np.errstate(all="ignore"):
        expected = np.array([edge_forman_oracle(g, (u, v))
                             for u, v in g.edges.tolist()], dtype=np.float64)
        values = _weighted_forman(g)
    assert np.array_equal(values, expected, equal_nan=True)
    bad = np.flatnonzero(~np.isfinite(expected))
    if len(bad):
        u, v = g.edges[bad[0]].tolist()
        with pytest.raises(ValueError, match=rf"edge \({u}, {v}\) is"):
            compute_curvature_map(g, "weighted")
    else:
        got = compute_curvature_map(g, "weighted").edge_values
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


_ACCEPTANCE_RESULTS: dict[str, tuple[bool, str]] = {}


@pytest.fixture
def acceptance():
    """Recorder for acceptance-criterion outcomes, echoed after the run."""

    def record(name: str, ok: bool, detail: str = ""):
        _ACCEPTANCE_RESULTS[name] = (bool(ok), detail)
        return bool(ok)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        ok, detail = _ACCEPTANCE_RESULTS[name]
        suffix = f"  ({detail})" if detail else ""
        terminalreporter.write_line(f"{name}: {'PASS' if ok else 'FAIL'}{suffix}")
