"""Shared graph builders and the acceptance-criteria result recorder."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from curvewalk import WeightedGraph, run_chain

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
