"""Multi-chain convergence harness and backbone extraction.

Runs ``n_chains`` chains per sampler, forms the running mean of each
full-graph statistic over the distinct nodes sampled so far, and reports the
mean squared error of that estimator against the full-network mean at every
step, together with the mean distinct-node count, as read-only arrays keyed
by sampler label. :func:`extract_backbone` ranks nodes by their visits.

Chains of one experiment share start nodes and per-chain seeds across
samplers (seed of chain ``c`` is ``master_seed XOR splitmix64(c)``), so a
curved-versus-uniform comparison is paired. The chains of one step rule and
burn-in run in lockstep as one family, on one generator per chain index,
the families one after another, and the engine hands their visits over a
block of steps at a time (:func:`curvewalk.sampler._lockstep_stream`). Each
block is folded into per-sampler sums as it arrives and then dropped, so no
chains x steps matrix of visits is ever held: memory is O(chains x V)
besides the curves. The sums add the chains in row order, so results equal
those of running every chain alone with :func:`curvewalk.sampler.run_chain`
and aggregating the whole visit matrix.

An estimate changes only when a chain discovers a node, so the fold works
per discovery: a running mean advances once per discovered node, and each
chain's errors are read onto every step of the block by its discovery
count. A block is folded a slice of chains at a time, each slice on its own
and sized to ``_SLICE_CELLS`` visits, so a discovery-heavy block's transient
is bounded by that budget while the sums still add the chains in row order.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .curvature import _NodeError
from .graph import WeightedGraph, connected_components, induced_subgraph
from .netstats import STAT_KINDS, PATH_MODES, compute_statistics, mean_statistic
from .sampler import (SamplerConfig, _integer, _lockstep_stream, chain_seed,
                      make_rng)

logger = logging.getLogger(__name__)

DEFAULT_STEPS_PER_NODE = 20
DEFAULT_N_CHAINS = 50


@dataclass(frozen=True)
class ExperimentPlan:
    """Specification of one convergence experiment.

    Args:
        samplers: Sampler templates; chain ``c`` of each runs from chain
            ``c``'s seed and start for ``max_steps``, not the template's own.
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
        for name, value in (("samplers", self.samplers), ("statistics", self.statistics),
                            ("start_nodes", starts)):
            if isinstance(value, str) or not hasattr(value, "__iter__"):
                raise ValueError(f"{name} must be a list, got {value!r}")
        object.__setattr__(self, "samplers", tuple(self.samplers))
        if not all(isinstance(cfg, SamplerConfig) for cfg in self.samplers):
            raise ValueError("samplers must list SamplerConfig entries, got "
                             f"{self.samplers!r}")
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
    ``component_nodes``. The chains' visits themselves are not kept: the run
    that made this result held O(chains x V) of aggregation state, never a
    chains x steps matrix.
    """

    mse: dict[str, dict[str, np.ndarray]]
    mean_distinct: dict[str, np.ndarray]
    visit_counts: dict[str, np.ndarray]
    full_means: dict[str, float]
    start_nodes: tuple[int, ...]
    chain_seeds: tuple[int, ...]
    component_nodes: np.ndarray | None = None


# marks an entry of the first-visit scratch array that holds no position
_NO_VISIT = np.iinfo(np.int64).max
# visits per slice of chains that _StepSums.add folds at once, 64 chains of
# a 512-step block: 256 KiB of discovery ranks, at most S times as many
# padded running sums, each reused in place as the squared errors
_SLICE_CELLS = 1 << 15


class _StepSums:
    """Per-step sums over one sampler's chains, folded a block at a time.

    :meth:`add` takes the chains' visits of consecutive steps, as
    :func:`curvewalk.sampler._lockstep_stream` yields them, and fills the
    sums of those steps: ``sq_sum[s]`` of statistic ``s``'s squared
    estimator error and ``distinct_sum`` of the distinct-node count, each
    added over the chains in row order, and ``counts`` of every node's
    visits. Each sum equals that of the whole visit matrix, bit for bit.

    An estimate changes only when a chain discovers a node, so a block is
    folded per discovery: a running sum continues as the cumsum of
    ``[carried sum, *discovered values]``, which adds in the order a cumsum
    of the whole chain does, and each chain's squared errors are read onto
    the block's steps by its discovery count at each step. The state carried
    between blocks is a chains x V ``seen`` mask and a few numbers per
    chain, so memory is O(chains x V) besides the output.

    :meth:`add` folds a block's chains in contiguous slices of
    ``_SLICE_CELLS // steps`` chains, at least one, each slice completely
    before the next, so a discovery-heavy block's transient is bounded by
    the budget whatever the number of chains. The slices follow the chains'
    order and each adds its chains into the sums one after another, so the
    sums still add the chains in row order.
    """

    def __init__(self, values, full_means, n_chains, n_steps, scratch):
        S, V = values.shape
        self.values, self.full_means = values, full_means  # (S, V), (S,)
        # shared by the samplers of one fold; all _NO_VISIT between slices
        self.scratch = scratch
        self.seen = np.zeros(n_chains * V, dtype=bool)  # row c: chain c's nodes
        self.found = np.zeros(n_chains, dtype=np.int64)  # nodes seen per chain
        # running sum of the discovered values; -0.0 + v is v, -0.0 included
        self.run_sum = np.full((n_chains, S), -0.0)
        self.err = np.zeros((n_chains, S))  # squared error of each estimate
        self.sq_sum = np.empty((S, n_steps))
        self.distinct_sum = np.empty(n_steps, dtype=np.int64)
        self.counts = np.zeros(V, dtype=np.int64)
        self.k = 0  # the next step to fold

    def add(self, k0, states):
        """Fold visits ``k0 .. k0 + len(states) - 1``; ``states[i, c]`` is
        visit ``k0 + i`` of chain ``c``."""
        B, C = states.shape
        if k0 != self.k or C != len(self.found):
            raise ValueError(f"expected steps from {self.k} of {len(self.found)} "
                             f"chains, got steps from {k0} of {C}")
        self.k = k0 + B
        # the sums at every step, adding chain after chain: the row order of
        # the whole matrix's sums. 0.0 + e is e, as every error e is a square
        sums = np.zeros((len(self.values), B))
        distinct = np.full(B, self.found.sum())
        G = max(1, _SLICE_CELLS // B)
        for g0 in range(0, C, G):
            self._add_slice(g0, states[:, g0:g0 + G], sums, distinct)
        self.sq_sum[:, k0:k0 + B] = sums
        self.distinct_sum[k0:k0 + B] = distinct

    def _add_slice(self, g0, states, sums, distinct):
        """Fold chains ``g0 .. g0 + G - 1``, whose visits are the ``G``
        columns of ``states``: add their squared errors at every step into
        ``sums``, chain after chain, and their distinct-node counts into
        ``distinct``."""
        B, G = states.shape
        S, V = self.values.shape
        self.counts += np.bincount(states.ravel(), minlength=V)
        # time-major keys of (chain, node) in the seen mask
        key = (states + np.arange(g0 * V, (g0 + G) * V, V)).ravel()
        pos = np.flatnonzero(~self.seen.take(key))
        # the first of the unseen visits to each (chain, node)
        key = key[pos]
        np.minimum.at(self.scratch, key, pos)
        first = self.scratch[key] == pos
        self.scratch[key] = _NO_VISIT
        pos, key = pos[first], key[first]
        del first
        self.seen[key] = True
        t, c = np.divmod(pos, G)
        del pos
        nodes = key - (g0 + c) * V  # the discovered nodes
        del key
        # rank[c, t] counts chain g0 + c's discoveries up to step t
        rank = np.zeros((G, B), dtype=np.int64)
        rank[c, t] = 1
        np.cumsum(rank, axis=1, out=rank)
        last, chains = rank[:, -1], np.arange(G)
        # each chain's running sums, entry 0 carried in, then in place its
        # squared errors; chain-major, so that the sums below read whole rows
        width = int(last.max()) + 1
        err = np.zeros((G, S, width))
        err[:, :, 0] = self.run_sum[g0:g0 + G]
        err[c, :, rank[c, t]] = self.values.take(nodes, axis=1).T
        del c, t, nodes
        np.cumsum(err, axis=2, out=err)
        self.run_sum[g0:g0 + G] = err[chains, :, last]
        zbar = err[:, :, 1:]  # each estimate, then its squared error
        count = self.found[g0:g0 + G, None] + np.arange(1, width)
        np.divide(zbar, count[:, None, :], out=zbar)
        # at full coverage the estimate is the full mean by definition; the
        # exact value keeps that identity exact in floating point as well
        zbar.transpose(0, 2, 1)[count == V] = self.full_means
        del count
        zbar -= self.full_means[:, None]
        np.square(zbar, out=zbar)
        err[:, :, 0] = self.err[g0:g0 + G]
        for chain in chains.tolist():
            sums += err[chain].take(rank[chain], axis=1)
        distinct += rank.sum(axis=0)
        self.err[g0:g0 + G] = err[chains, :, last]
        self.found[g0:g0 + G] += last


def _fold(blocks, n_samplers, n_chains, n_steps, stat_values, full_means):
    """One :class:`_StepSums` per sampler, folded from ``blocks``.

    ``blocks`` yields ``(k, k0, states)`` as
    :func:`curvewalk.sampler._lockstep_stream` does, for ``n_samplers``
    samplers of ``n_chains`` chains each.
    """
    values = np.stack(list(stat_values.values()))
    means = np.array([full_means[kind] for kind in stat_values])
    # one first-visit scratch, indexed like ``seen``, for every slice of every
    # sampler: each slice marks only its own chains' rows and resets them
    scratch = np.full(n_chains * values.shape[1], _NO_VISIT)
    sums = [_StepSums(values, means, n_chains, n_steps, scratch)
            for _ in range(n_samplers)]
    for k, k0, states in blocks:
        sums[k].add(k0, states)
    return sums


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
            an invalid start, or a weighted curvature outside the float64
            range; a refused node or edge is named by ids of the graph as given.
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

    labels = sampler_labels(plan.samplers)
    try:
        sums = _fold(_lockstep_stream(g, plan.samplers, seeds, starts, n_steps),
                     len(labels), n_chains, n_steps, stat_values, full_means)
    except _NodeError as exc:  # a refused start node or edge
        if component_nodes is not None:
            exc.nodes = tuple(component_nodes[list(exc.nodes)].tolist())
        raise

    mse, mean_distinct, visit_counts = {}, {}, {}
    for label, sampler in zip(labels, sums):
        # summing then dividing by n_chains equals np.mean over the chains
        mse[label] = {kind: sq / n_chains
                      for kind, sq in zip(stat_values, sampler.sq_sum)}
        mean_distinct[label] = sampler.distinct_sum / n_chains
        visit_counts[label] = sampler.counts
        for arr in (*mse[label].values(), mean_distinct[label], sampler.counts):
            arr.setflags(write=False)

    return ExperimentResult(
        mse=mse, mean_distinct=mean_distinct, visit_counts=visit_counts,
        full_means=full_means, start_nodes=starts, chain_seeds=seeds,
        component_nodes=component_nodes)
