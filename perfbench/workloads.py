"""Workload definitions and the seeded input generator.

A workload is one CLI command run on one input graph. The synthetic graphs
are made here from the benchmark's ``--seed`` (this module imports nothing
from the repository's tests), written as ``u v w`` edge-list files, and the
program under test only ever sees those files.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALL_SAMPLERS = ("edge_curved", "edge_uniform", "node_mh_curved", "node_mh_uniform")
ALL_STATS = ("betweenness", "closeness", "strength", "weighted_clustering")
# CLI defaults of `converge` that the workloads rely on and the output
# checks hold the program to.
CHAINS = 50
STEPS_PER_NODE = 20
LESMIS = Path("data") / "lesmis.tsv"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: CLI invocations on one graph.

    ``nodes`` is None for the bundled Les Miserables file; otherwise the
    graph is a random spanning tree on ``nodes`` nodes plus
    ``extra_per_node * nodes`` extra edge draws (duplicates dropped), with
    weights from U(0.5, 3). A ``stats`` workload runs one invocation per
    entry of ``path_modes`` in turn; a ``converge`` workload runs one kind.
    ``variants`` names the kinds by the command-level timing name they are
    printed under (``converge_s``, ``stats_hop_s``, ``stats_weighted_s``).
    """

    name: str
    command: str
    nodes: int | None
    extra_per_node: int = 0
    stats: tuple[str, ...] = ALL_STATS
    curvature_mode: str = "combinatorial"
    path_modes: tuple[str, ...] = ("hop",)

    @property
    def variants(self) -> tuple[str, ...]:
        if self.command == "converge":
            return ("converge_s",)
        return tuple(f"stats_{mode}_s" for mode in self.path_modes)

    def argv(self, graph: Path, out: Path, seed: int, variant: int = 0) -> list[str]:
        """CLI arguments of one invocation (default flags plus the listed ones)."""
        argv = [self.command, "--graph", str(graph), "--out", str(out)]
        if self.command == "stats":
            return argv + ["--path-mode", self.path_modes[variant]]
        argv += ["--samplers", *ALL_SAMPLERS, "--seed", str(seed)]
        if self.stats != ALL_STATS:
            argv += ["--stats", *self.stats]
        if self.curvature_mode != "combinatorial":
            argv += ["--curvature-mode", self.curvature_mode]
        return argv


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="lesmis-paper",
        command="converge", nodes=None),
    Workload(
        name="synth-chains",
        command="converge", nodes=1000, extra_per_node=3,
        stats=("strength", "weighted_clustering"), curvature_mode="weighted"),
    Workload(
        name="synth-paths",
        command="stats", nodes=500, extra_per_node=2,
        path_modes=("hop", "weighted")),
)}


def derived_seed(seed: int, salt: str) -> int:
    """A 32-bit seed for one use of the benchmark seed (e.g. ``--seed``)."""
    digest = hashlib.sha256(f"{salt}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def generate_edge_list(seed: int, nodes: int, extra_per_node: int) -> bytes:
    """Connected weighted graph as ``u v w`` lines; same seed, same bytes.

    Node ``v >= 1`` hangs off a uniform earlier node (a random spanning tree,
    so the graph is connected), then ``extra_per_node * nodes`` uniform node
    pairs are added, skipping self-loops and repeats.
    """
    rng = np.random.default_rng([seed, nodes, extra_per_node])
    parents = rng.integers(0, np.arange(1, nodes))
    edges = [(int(p), v) for v, p in enumerate(parents.tolist(), start=1)]
    seen = set(edges)
    for u, v in rng.integers(0, nodes, size=(extra_per_node * nodes, 2)).tolist():
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            edges.append(key)
    weights = rng.uniform(0.5, 3.0, len(edges)).tolist()
    return "".join(f"{u} {v} {w!r}\n" for (u, v), w in zip(edges, weights)).encode()


def graph_file(workload: Workload, seed: int, root: Path, work: Path) -> Path:
    """Path of the workload's input, generating it under ``work`` if synthetic."""
    if workload.nodes is None:
        return root / LESMIS
    path = work / f"graph-{workload.nodes}-{workload.extra_per_node}-{seed}.tsv"
    path.write_bytes(generate_edge_list(seed, workload.nodes,
                                        workload.extra_per_node))
    return path


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
