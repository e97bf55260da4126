"""Multi-chain convergence harness and backbone extraction.

Runs ``n_chains`` chains per sampler, forms the running mean of each
full-graph statistic over the distinct nodes sampled so far, and reports the
mean squared error of that estimator against the full-network mean at every
step, together with the mean distinct-node count, as read-only arrays keyed
by sampler label. :func:`extract_backbone` ranks nodes by their visits.

Chains of one experiment share start nodes and per-chain seeds across
samplers (seed of chain ``c`` is ``master_seed XOR splitmix64(c)``), so a
curved-versus-uniform comparison is paired. All chains of all samplers run
in lockstep (:func:`curvewalk.sampler.run_lockstep`); aggregation streams
over them in fixed chain order, so results equal those of running every
chain alone with :func:`curvewalk.sampler.run_chain`.

An estimate changes only when a chain discovers a node, so each chain's
first-visit mask is found once for all statistics, a running mean is a
cumsum over at most ``V`` discoveries, and its squared errors reach the
per-step sum by one ``O(steps)`` gather per statistic.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .curvature import _NonFiniteCurvature
from .graph import WeightedGraph, connected_components, induced_subgraph
from .netstats import STAT_KINDS, PATH_MODES, compute_statistics, mean_statistic
from .sampler import (SamplerConfig, _integer, chain_seed, first_visit_mask,
                      make_rng, run_lockstep)

logger = logging.getLogger(__name__)

DEFAULT_STEPS_PER_NODE = 20
DEFAULT_N_CHAINS = 50


@dataclass(frozen=True)
class ExperimentPlan:
    """Specification of one convergence experiment.

    Args:
        samplers: Sampler templates; per-chain ``seed``, ``start_node`` and
            ``max_steps`` are filled in by the harness.
        statistics: Statistic kinds to track (subset of
            :data:`curvewalk.netstats.STAT_KINDS`).
        n_chains: Chains per sampler (>= 2).
        max_steps: Chain length; None means ``20 * node_count``.
        start_nodes: Start node ids, one per chain or a single id shared by
            every chain, as ids of the graph given to :func:`run_experiment`;
            under ``use_largest_component`` each must lie in that component.
            None draws ``n_chains`` distinct start nodes (uniform, without
            replacement, from the master seed).
        master_seed: Seed from which start nodes and chain seeds derive.
        path_mode: Shortest-path flavor for betweenness/closeness.
        use_largest_component: Restrict a disconnected graph to its largest
            component (with a warning) instead of rejecting it.
    """

    samplers: tuple[SamplerConfig, ...]
    statistics: tuple[str, ...] = STAT_KINDS
    n_chains: int = DEFAULT_N_CHAINS
    max_steps: int | None = None
    start_nodes: tuple[int, ...] | None = None
    master_seed: int = 0
    path_mode: str = "hop"
    use_largest_component: bool = False

    def __post_init__(self):
        starts = () if self.start_nodes is None else self.start_nodes
        for name, value in (("statistics", self.statistics), ("start_nodes", starts)):
            if isinstance(value, str) or not hasattr(value, "__iter__"):
                raise ValueError(f"{name} must be a list, got {value!r}")
        object.__setattr__(self, "samplers", tuple(self.samplers))
        object.__setattr__(self, "statistics", tuple(self.statistics))
        if not self.samplers:
            raise ValueError("plan needs at least one sampler")
        if not self.statistics:
            raise ValueError("plan needs at least one statistic")
        for kind in self.statistics:
            if kind not in STAT_KINDS:
                raise ValueError(f"unknown statistic {kind!r}")
            if self.statistics.count(kind) > 1:
                raise ValueError(f"statistic {kind!r} is listed twice")
        for name in ("n_chains", "master_seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.n_chains < 2:
            raise ValueError("n_chains must be >= 2")
        if self.max_steps is not None:
            object.__setattr__(self, "max_steps",
                               _integer(self.max_steps, "max_steps"))
            if self.max_steps < 1:
                raise ValueError("max_steps must be >= 1")
        if not isinstance(self.use_largest_component, bool):
            raise ValueError("use_largest_component must be true or false, "
                             f"got {self.use_largest_component!r}")
        if self.start_nodes is not None:
            if not self.start_nodes:
                raise ValueError("start_nodes must list at least one node")
            starts = tuple(_integer(s, "start_nodes") for s in self.start_nodes)
            if len(starts) == 1:
                starts = starts * self.n_chains
            if len(starts) != self.n_chains:
                raise ValueError("start_nodes must list one node per chain")
            object.__setattr__(self, "start_nodes", starts)
        if self.path_mode not in PATH_MODES:
            raise ValueError(f"unknown path mode {self.path_mode!r}")


@dataclass(frozen=True)
class ExperimentResult:
    """What an experiment produced, and what it resolved of its plan.

    Dicts are keyed in plan order, samplers by :func:`sampler_labels`.
    ``mse[label][kind]`` and ``mean_distinct[label]`` hold one chain mean per
    step; ``visit_counts[label]`` counts each node's visits over the
    sampler's chains. Arrays are read-only. Under a restriction, node ids are
    those of the component, whose ids in the given graph are
    ``component_nodes``.
    """

    mse: dict[str, dict[str, np.ndarray]]
    mean_distinct: dict[str, np.ndarray]
    visit_counts: dict[str, np.ndarray]
    full_means: dict[str, float]
    start_nodes: tuple[int, ...]
    chain_seeds: tuple[int, ...]
    component_nodes: np.ndarray | None = None


def _discovery_means(values: np.ndarray, discovered: np.ndarray,
                     full_mean: float) -> np.ndarray:
    """Running mean of ``values`` over ``discovered``, a chain's nodes in
    order of first visit: entry ``k - 1`` is the estimate at every step at
    which the chain has seen ``k`` nodes. At full coverage the estimate is
    the full mean by definition; the exact ``full_mean`` is substituted to
    keep that identity exact in floating point as well."""
    zbar = np.cumsum(values[discovered]) / np.arange(1, len(discovered) + 1)
    if len(discovered) == len(values):
        zbar[-1] = full_mean
    return zbar


def _chain_sums(chains: np.ndarray, stat_values: dict, full_means: dict):
    """Per-step sums over ``chains`` (one visit sequence per row, summed in
    row order) of each statistic's squared estimator error and of the
    distinct-node count, and the total visits of every node."""
    V, n_steps = len(next(iter(stat_values.values()))), chains.shape[1]
    counts = np.zeros(V, dtype=np.int64)
    distinct_sum = np.zeros(n_steps, dtype=np.int64)
    sq_sum = {kind: np.zeros(n_steps) for kind in stat_values}
    for chain in chains:
        first = first_visit_mask(chain)
        distinct = np.cumsum(first, dtype=np.int64)
        distinct_sum += distinct
        counts += np.bincount(chain, minlength=V)
        # one squared error per discovery, gathered onto the steps
        discovered, at = chain[first], distinct - 1
        for kind, values in stat_values.items():
            zbar = _discovery_means(values, discovered, full_means[kind])
            sq_sum[kind] += ((zbar - full_means[kind]) ** 2)[at]
    return sq_sum, distinct_sum, counts


def estimator_mean(values: np.ndarray, visits: np.ndarray, n: int) -> float:
    """Mean of a statistic's per-node ``values`` over the distinct nodes in
    the first ``n`` of a chain's ``visits`` (revisits contribute once)."""
    n = int(n)
    if not 1 <= n <= len(visits):
        raise ValueError(f"n must be in 1..{len(visits)}, got {n}")
    visits = visits[:n]
    zbar = _discovery_means(values, visits[first_visit_mask(visits)],
                            mean_statistic(values))
    return float(zbar[-1])


def extract_backbone(visit_counts: np.ndarray, fraction: float) -> np.ndarray:
    """Ids of the ``ceil(fraction * len(visit_counts))`` most-visited nodes,
    by descending visits, then ascending id.

    The product is exact on the shortest decimal that reads back as
    ``fraction``, so float noise cannot round it up: ``0.07`` of 100 nodes is
    7 nodes, although ``0.07 * 100 == 7.000000000000001``.
    """
    # imported here: fractions loads decimal, which would add ~3 ms to every
    # `import curvewalk`
    from fractions import Fraction

    fraction = float(fraction)
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    counts = np.asarray(visit_counts)
    k = math.ceil(Fraction(repr(fraction)) * len(counts))
    return np.lexsort((np.arange(len(counts)), -counts))[:k]


def sampler_labels(samplers) -> tuple[str, ...]:
    """Kind names, suffixed with an index when a kind repeats."""
    kinds = [cfg.kind for cfg in samplers]
    return tuple(f"{kind}_{kinds[:i + 1].count(kind)}" if kinds.count(kind) > 1
                 else kind for i, kind in enumerate(kinds))


def run_experiment(g: WeightedGraph, plan: ExperimentPlan) -> ExperimentResult:
    """Run the full multi-chain convergence experiment described by ``plan``.

    Deterministic given (graph, plan): start nodes and chain seeds derive
    from ``plan.master_seed`` only, and aggregation order is fixed. Curves
    and visit counts are keyed by sampler label (:class:`ExperimentResult`).

    Raises:
        ValueError: disconnected graph without ``use_largest_component``,
            invalid start configuration, or a weighted curvature outside the
            float64 range, whose edge is named by ids of the graph as given.
    """
    component_nodes = None
    comps = connected_components(g)
    if len(comps) > 1:
        if not plan.use_largest_component:
            raise ValueError(
                f"graph has {len(comps)} connected components; enable "
                "use_largest_component to restrict to the largest one")
        component_nodes = max(comps, key=len)
        logger.warning("restricting experiment to the largest component "
                       "(%d of %d nodes)", len(component_nodes), g.node_count)

    starts = plan.start_nodes
    if starts is not None:
        # start ids name nodes of the graph as given
        for s in starts:
            if not 0 <= s < g.node_count:
                raise ValueError(f"start node {s} out of range")
        if component_nodes is not None:
            local = np.searchsorted(component_nodes, starts)
            for s, i in zip(starts, local.tolist()):
                if i == len(component_nodes) or component_nodes[i] != s:
                    raise ValueError(
                        f"start node {s} is not in the largest component")
            starts = tuple(local.tolist())
    if component_nodes is not None:
        g = induced_subgraph(g, component_nodes)

    V = g.node_count
    if V == 0:
        raise ValueError("cannot run an experiment on an empty graph")
    n_steps = plan.max_steps if plan.max_steps is not None else DEFAULT_STEPS_PER_NODE * V
    n_chains = plan.n_chains

    stat_values = compute_statistics(g, plan.statistics, plan.path_mode)
    full_means = {kind: mean_statistic(values)
                  for kind, values in stat_values.items()}

    if starts is None:
        eligible = np.flatnonzero(g.degrees > 0)
        if n_chains > eligible.size:
            raise ValueError(
                f"cannot draw {n_chains} distinct start nodes from "
                f"{eligible.size} non-isolated nodes")
        rng = make_rng(plan.master_seed)
        starts = tuple(int(s) for s in rng.permutation(eligible)[:n_chains])
    seeds = tuple(chain_seed(plan.master_seed, c) for c in range(n_chains))

    try:
        visits = run_lockstep(g, [
            replace(template, seed=seeds[c], start_node=starts[c], max_steps=n_steps)
            for template in plan.samplers for c in range(n_chains)])
    except _NonFiniteCurvature as exc:
        if component_nodes is not None:
            exc.nodes = tuple(component_nodes[list(exc.nodes)].tolist())
        raise

    mse, mean_distinct, visit_counts = {}, {}, {}
    for s_idx, label in enumerate(sampler_labels(plan.samplers)):
        sq_sum, distinct_sum, counts = _chain_sums(
            visits[s_idx * n_chains:(s_idx + 1) * n_chains], stat_values,
            full_means)
        # summing then dividing by n_chains equals np.mean over the chains
        mse[label] = {kind: sq_sum[kind] / n_chains for kind in plan.statistics}
        mean_distinct[label] = distinct_sum / n_chains
        visit_counts[label] = counts
        for arr in (*mse[label].values(), mean_distinct[label], counts):
            arr.setflags(write=False)

    return ExperimentResult(
        mse=mse, mean_distinct=mean_distinct, visit_counts=visit_counts,
        full_means=full_means, start_nodes=starts, chain_seeds=seeds,
        component_nodes=component_nodes)
