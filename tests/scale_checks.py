"""Tier-1's exactness checks on graphs of 1000 to 5000 nodes.

These graphs have many distinct h ratios, hub rows, many sources per sweep
block, many buckets and DAG levels, and rows that span many chunks of the
pair walk, which tier-1's graphs of at most 500 nodes do not. The file name
does not match ``test_*.py``, so the tier-1 command does not collect it;
run it by name (about 40 s on a 2-vCPU host), with ``-s`` to see the
seconds, sources per block and halving steps of each check::

    python -m pytest -q -s tests/scale_checks.py
"""

import time

import numpy as np
import pytest

from curvewalk import (SAMPLER_KINDS, SamplerConfig, WeightedGraph,
                       compute_curvature_map, compute_statistics, netstats)
from curvewalk.sampler import _cell_table
from conftest import (PATH_KINDS, assert_clustering_equals_oracle,
                      assert_edge_rows_equal_oracle,
                      assert_generators_end_at_their_prefix,
                      assert_lockstep_equals_run_chain, assert_mode_equals,
                      assert_weighted_map_equals_oracle, dijkstra_oracle,
                      set_sources_per_block, star_plus_path, synthetic_graph)

CURVATURE_MODES = ("combinatorial", "weighted")
GRAPHS = ("synth-5000", "star-plus-path-3000")


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    # synth-5000's cells hold at most one row entry, so its edge steps take
    # no halving step; under weighted curvature the star-plus-path graph
    # has a hub row of 2999 half-edges crowded at 16 d(s) cells, which
    # takes one, and the hub row spreads over many chunks of the pair walk
    return {"synth-5000": synthetic_graph(tmp_path_factory.mktemp("synth"), 5000),
            "star-plus-path-3000": star_plus_path(np.random.default_rng(0), 3000)}


@pytest.fixture(scope="module")
def halving(graphs):
    """The halving steps of the edge kinds' cell table, per graph and mode."""
    steps = {}
    for name, g in graphs.items():
        for mode in CURVATURE_MODES:
            curvmap = compute_curvature_map(g, mode)
            tables = [(False, assert_edge_rows_equal_oracle(
                g, SamplerConfig(kind=kind, seed=0, max_steps=1, curvature_mode=mode),
                curvmap)) for kind in ("edge_curved", "edge_uniform")]
            steps[name, mode] = _cell_table(g, tables)[6]
    return steps


@pytest.mark.parametrize("mode", CURVATURE_MODES)
@pytest.mark.parametrize("name", GRAPHS)
def test_drivers_agree(graphs, halving, name, mode, monkeypatch):
    # burn-ins of 0, 5 and 1100 (past two 512-step blocks) make three
    # families, each holding all four kinds
    t0 = time.perf_counter()
    templates = [SamplerConfig(kind=kind, seed=0, max_steps=1, curvature_mode=mode,
                               burn_in=burn)
                 for kind in SAMPLER_KINDS for burn in (0, 5, 1100)]
    chains = templates, [100, 101, 102], [0, 1, 2], 20_000
    assert_lockstep_equals_run_chain(graphs[name], *chains)
    assert_generators_end_at_their_prefix(monkeypatch, graphs[name], *chains)
    print(f"\n{name}, {mode}: lockstep chains equal run_chain in "
          f"{time.perf_counter() - t0:.1f} s; halving steps {halving[name, mode]}")


def test_some_graph_takes_halving_steps(halving):
    # a graph whose edge steps take halving steps keeps that path under test
    print(f"\nhalving steps: {halving}")
    assert any(halving.values())


def timed(name, g, mode, check):
    """Run ``check()``, a sweep of ``g``, and print its block and seconds."""
    block = min(netstats._block_size(g), g.node_count)
    t0 = time.perf_counter()
    out = check()
    print(f"\n{name}, {mode}: {block} sources per block, "
          f"{time.perf_counter() - t0:.2f} s")
    return out


def test_sweeps_equal_the_heap_dijkstra(tmp_path):
    # weighted lengths, then hop counts as TestHopSweep checks them, against
    # the heap Dijkstra on the unit-weight copy. Unit lengths tie many
    # paths, so a parent's shares are not all integers and the order in
    # which it adds its children's shares shows; under the random lengths
    # almost every path count is 1 and it does not, so weighted mode runs on
    # the copy too
    g = synthetic_graph(tmp_path, 1000, 2)
    unit = WeightedGraph(g.node_count, g.edges)
    oracle, unit_oracle = dijkstra_oracle(g), dijkstra_oracle(unit)
    for name, h, mode, want in (("synth-1000-2", g, "weighted", oracle),
                                ("synth-1000-2", g, "hop", unit_oracle),
                                ("synth-1000-2 unit", unit, "weighted", unit_oracle)):
        timed(name, h, mode, lambda: assert_mode_equals(h, mode, want))


@pytest.mark.parametrize("mode", ("hop", "weighted"))
def test_one_source_per_block_equals_the_default(tmp_path, mode, monkeypatch):
    # a graph whose default block holds few sources
    g = synthetic_graph(tmp_path, 2000)
    default = timed("synth-2000-3", g, mode,
                    lambda: compute_statistics(g, PATH_KINDS, mode))
    set_sources_per_block(monkeypatch, g, 1)
    timed("synth-2000-3", g, mode, lambda: assert_mode_equals(g, mode, default))


@pytest.mark.parametrize("name", GRAPHS)
def test_pair_walk_equals_its_oracles(graphs, name):
    for check in (assert_clustering_equals_oracle, assert_weighted_map_equals_oracle):
        t0 = time.perf_counter()
        check(graphs[name])
        print(f"\n{name}, {check.__name__}: {time.perf_counter() - t0:.1f} s")
