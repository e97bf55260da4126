"""Curvature-guided Markov chain sampling and statistics on weighted networks.

The package computes Forman curvature on graphs, runs curvature-driven and
uniform Markov chain samplers over the node set (edge kernels and
Metropolis-Hastings node kernels), evaluates centrality-style network
statistics, and measures how fast multi-chain sampled estimates converge to
full-network values.
"""

from .graph import (GraphFormatError, WeightedGraph, connected_components,
                    induced_subgraph, load_edge_list, write_edge_list)
from .curvature import CURVATURE_MODES, CurvatureMap, compute_curvature_map
from .sampler import (DEFAULT_EPSILON_FLOOR, GENERATOR_NAME, SAMPLER_KINDS,
                      SamplerConfig, build_transition_matrix, chain_seed,
                      make_rng, make_target, run_chain, splitmix64,
                      stationary_distribution)
from .netstats import (PATH_MODES, STAT_KINDS, betweenness, closeness,
                       compute_statistics, mean_statistic, strength_vector,
                       weighted_clustering)
from .convergence import (ExperimentPlan, ExperimentResult, extract_backbone,
                          run_experiment)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graph
    "GraphFormatError", "WeightedGraph", "connected_components",
    "induced_subgraph", "load_edge_list", "write_edge_list",
    # curvature
    "CURVATURE_MODES", "CurvatureMap", "compute_curvature_map",
    # sampler
    "DEFAULT_EPSILON_FLOOR", "GENERATOR_NAME", "SAMPLER_KINDS",
    "SamplerConfig", "build_transition_matrix", "chain_seed", "make_rng",
    "make_target", "run_chain", "splitmix64", "stationary_distribution",
    # netstats
    "PATH_MODES", "STAT_KINDS", "betweenness", "closeness",
    "compute_statistics", "mean_statistic", "strength_vector",
    "weighted_clustering",
    # convergence
    "ExperimentPlan", "ExperimentResult", "extract_backbone", "run_experiment",
]
