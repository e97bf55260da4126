"""Output checks; an invocation that fails one counts toward ``error_rate``.

``converge``: every expected curve CSV and ``backbone.csv`` is present with
``max_steps`` rows; ``mse`` is finite and >= 0; ``mean_distinct`` is
non-decreasing, <= V, and ``mse == 0`` wherever it equals V; backbone visits
sum to chains x steps.

``stats``: betweenness and closeness agree with networkx within 1e-9
relative (betweenness unnormalized, closeness as 1/sum of distances) and
strength equals the adjacency row sums.

Same-seed invocations must also write byte-identical CSVs; ``run.py``
compares their hashes.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from workloads import ALL_SAMPLERS, CHAINS, STEPS_PER_NODE

REL_TOL = 1e-9


def read_edge_list(path: Path) -> list[tuple[str, str, float]]:
    """``(u, v, w)`` triples of an edge-list file (comments skipped, w=1 if absent)."""
    edges = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith(("%", "#")):
                continue
            parts = line.split()
            edges.append((parts[0], parts[1],
                          float(parts[2]) if len(parts) > 2 else 1.0))
    return edges


def node_count(edges) -> int:
    return len({u for u, _, _ in edges} | {v for _, v, _ in edges})


def check_converge(out: Path, stats, nodes: int) -> list[str]:
    """Problems found in one ``converge`` output directory (empty if none)."""
    steps = STEPS_PER_NODE * nodes
    problems = []
    for sampler in ALL_SAMPLERS:
        for stat in stats:
            name = f"mse_{sampler}_{stat}.csv"
            path = out / name
            if not path.is_file():
                problems.append(f"{name} missing")
                continue
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            if data.shape != (steps, 3):
                problems.append(f"{name}: shape {data.shape}, want ({steps}, 3)")
                continue
            n, mse, distinct = data.T
            if not np.array_equal(n, np.arange(1, steps + 1)):
                problems.append(f"{name}: n is not 1..{steps}")
            if not (np.all(np.isfinite(mse)) and np.all(mse >= 0)):
                problems.append(f"{name}: mse not finite and >= 0")
            if np.any(np.diff(distinct) < 0) or np.any(distinct > nodes):
                problems.append(f"{name}: mean_distinct decreases or exceeds V")
            if np.any(mse[distinct == nodes] != 0):
                problems.append(f"{name}: mse != 0 at full coverage")
    path = out / "backbone.csv"
    if not path.is_file():
        return problems + ["backbone.csv missing"]
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != nodes:
        problems.append(f"backbone.csv: {len(rows)} rows, want {nodes}")
    visits = sum(int(r["visits"]) for r in rows)
    if visits != CHAINS * steps:
        problems.append(f"backbone.csv: visits sum {visits}, want {CHAINS * steps}")
    return problems


def stats_reference(edges, path_mode: str) -> dict[str, dict[str, float]]:
    """networkx betweenness, 1/sum-of-distances and row-sum strength per node."""
    import networkx as nx

    g = nx.Graph()
    g.add_weighted_edges_from(edges)
    weight = "weight" if path_mode == "weighted" else None
    bc = nx.betweenness_centrality(g, normalized=False, weight=weight)
    if weight:
        lengths = nx.all_pairs_dijkstra_path_length(g, weight=weight)
    else:
        lengths = nx.all_pairs_shortest_path_length(g)
    cc = {}
    for node, dist in lengths:
        total = sum(dist.values())
        cc[node] = 1.0 / total if total > 0 else 0.0
    strength = dict.fromkeys(g.nodes, 0.0)
    for u, v, w in edges:
        strength[u] += w
        strength[v] += w
    return {"bc": bc, "cc": cc, "strength": strength}


def check_stats(out: Path, reference) -> list[str]:
    """Problems found in one ``stats`` output directory (empty if none)."""
    path = out / "stats.csv"
    if not path.is_file():
        return ["stats.csv missing"]
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if {r["node"] for r in rows} != set(reference["bc"]):
        problems.append("stats.csv: node set differs from the graph's")
        return problems
    for column, ref in reference.items():
        bad = [r["node"] for r in rows
               if not math.isclose(float(r[column]), ref[r["node"]],
                                   rel_tol=REL_TOL, abs_tol=1e-300)]
        if bad:
            problems.append(f"stats.csv: {column} differs from the reference "
                            f"at {len(bad)} node(s), e.g. {bad[0]}")
    return problems
