"""Command-line driver: curvature, sampling, statistics and convergence runs.

Subcommands: ``curvature``, ``sample``, ``stats``, ``converge``. Every run
writes CSV result files plus a ``manifest.json`` that records the tool
version, a graph checksum, the fully resolved configuration, the master seed
and the RNG generator name, which is enough to reproduce the run
bit-identically. Exit codes: 0 success, 1 I/O or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .convergence import DEFAULT_N_CHAINS, ExperimentPlan, run_experiment
from .curvature import CURVATURE_MODES, compute_curvature_map
from .graph import GraphFormatError, load_edge_list
from .netstats import PATH_MODES, STAT_KINDS, compute_statistics, mean_statistic
from .sampler import (DEFAULT_EPSILON_FLOOR, GENERATOR_NAME, SAMPLER_KINDS,
                      SamplerConfig, run_chain)


class UsageError(ValueError):
    """Invalid flag or flag value; mapped to exit code 2."""


@dataclass
class RunManifest:
    """Reproducibility record written next to every command's outputs."""

    tool_version: str
    command: str
    graph_path: str
    graph_sha256: str
    node_count: int
    edge_count: int
    max_degree: int
    rng_generator: str | None
    master_seed: int | None
    config: dict
    created_utc: str


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_graph(args):
    return load_edge_list(args.graph, delimiter=args.delimiter,
                          weighted=not args.unweighted,
                          default_node_weight=args.node_weight)


class _Lines(list):
    """File-like list that keeps each string written to it."""

    write = list.append


def _cells(part) -> list[str]:
    """CSV text of the values in ``part``, a slice of one column.

    Numbers become their ``repr``, as ``csv`` writes them: the ``repr`` of
    a list of Python ints or floats is its items' reprs joined by ", ".
    Strings get ``csv``'s own quoting, from a row ``(s, "")`` written
    through a ``csv.writer`` and cut before its ``",\\n"``; the empty second
    field keeps a lone empty string unquoted, as it is inside a row.
    """
    values = part.tolist() if isinstance(part, np.ndarray) else list(part)
    if not isinstance(values[0], str):
        return repr(values)[1:-1].split(", ")
    lines = _Lines()
    csv.writer(lines, lineterminator="\n").writerows((v, "") for v in values)
    return [line[:-2] for line in lines]


def _write_csv(path, header, *columns):
    """Write ``header``, then row ``i`` of every column in turn.

    Columns are turned into text a chunk of rows at a time (see
    :func:`_cells`), so the text of a whole column is never held at once.
    """
    chunk = 128
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for lo in range(0, len(columns[0]), chunk):
            cells = [_cells(c[lo:lo + chunk]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_manifest(out_dir: Path, command: str, args, meta, config: dict,
                    master_seed=None, rng_generator=None):
    manifest = RunManifest(
        tool_version=__version__,
        command=command,
        graph_path=str(args.graph),
        graph_sha256=_sha256_file(args.graph),
        node_count=meta.node_count,
        edge_count=meta.edge_count,
        max_degree=meta.max_degree,
        rng_generator=rng_generator,
        master_seed=master_seed,
        config=config,
        created_utc=datetime.now(timezone.utc).isoformat(),
    )
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_curvature(args) -> int:
    g, meta = _load_graph(args)
    curvmap = compute_curvature_map(g, args.curvature_mode)
    out = _prepare_out(args)
    tails, heads = g.edges.T.tolist()
    _write_csv(out / "edge_curvature.csv", ["edge_u", "edge_v", "forman"],
               [meta.labels[u] for u in tails], [meta.labels[v] for v in heads],
               curvmap.edge_values)
    _write_csv(out / "node_curvature.csv", ["node", "forman"],
               meta.labels, curvmap.node_values)
    _write_manifest(out, "curvature", args, meta,
                    {"curvature_mode": args.curvature_mode})
    return 0


def _resolve_start(args, g):
    if args.start == "random":
        return "random"
    try:
        start = int(args.start)
    except ValueError:
        raise UsageError(f"--start must be a node id or 'random', "
                         f"got {args.start!r}") from None
    if not 0 <= start < g.node_count:
        raise UsageError(f"--start {start} out of range for a graph "
                         f"with {g.node_count} nodes")
    if g.degrees[start] == 0:
        raise UsageError(f"--start {start} is an isolated node")
    return start


def cmd_sample(args) -> int:
    g, meta = _load_graph(args)
    start = _resolve_start(args, g)
    try:
        config = SamplerConfig(kind=args.kind, seed=args.seed,
                               max_steps=args.steps, start_node=start,
                               curvature_mode=args.curvature_mode,
                               epsilon_floor=args.epsilon_floor,
                               burn_in=args.burn_in)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    trace = run_chain(g, config)
    out = _prepare_out(args)
    _write_csv(out / "trace.csv", ["step", "node", "distinct_count"],
               range(1, trace.steps + 1),
               [meta.labels[v] for v in trace.visits.tolist()],
               trace.distinct_count_at_step)
    _write_manifest(out, "sample", args, meta,
                    {"sampler": asdict(config), "start_node_resolved": int(trace.start)},
                    master_seed=config.seed, rng_generator=GENERATOR_NAME)
    return 0


def cmd_stats(args) -> int:
    g, meta = _load_graph(args)
    stats = compute_statistics(g, STAT_KINDS, args.path_mode)
    out = _prepare_out(args)
    _write_csv(out / "stats.csv", ["node", "bc", "cc", "strength", "wcc"],
               meta.labels, *(stats[kind].values for kind in STAT_KINDS))
    summary = {
        "path_mode": args.path_mode,
        "node_count": g.node_count,
        "edge_count": g.edge_count,
        "full_graph_means": {kind: mean_statistic(sv)
                             for kind, sv in stats.items()},
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out, "stats", args, meta, {"path_mode": args.path_mode})
    return 0


_PLAN_SAMPLER_KEYS = frozenset({
    "kind", "curvature_mode", "epsilon_floor", "burn_in"})


def _check_keys(entry, known, what):
    """Refuse a plan entry that is not an object or has a key outside ``known``."""
    if not isinstance(entry, dict):
        raise TypeError(f"a {what} must be a JSON object")
    unknown = sorted(set(entry) - known)
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")


def _plan(args) -> ExperimentPlan:
    """The experiment plan: each flag gives its key's default, and the keys
    a ``--plan`` file sets override them."""
    raw = {}
    if args.plan:
        with open(args.plan, encoding="utf-8") as fh:
            raw = json.load(fh)
        _check_keys(raw, {f.name for f in fields(ExperimentPlan)}, "plan")
    entries = raw.get("samplers", [{"kind": kind} for kind in args.samplers])
    for entry in entries:
        _check_keys(entry, _PLAN_SAMPLER_KEYS, "sampler")
        if "kind" not in entry:
            raise ValueError("sampler entry needs a 'kind'")
    samplers = tuple(
        SamplerConfig(**{"seed": 0, "max_steps": 1,
                         "curvature_mode": args.curvature_mode,
                         "epsilon_floor": args.epsilon_floor, **entry})
        for entry in entries)
    return ExperimentPlan(**{
        "statistics": args.stats, "n_chains": args.chains,
        "max_steps": args.steps, "master_seed": args.seed,
        "path_mode": args.path_mode,
        "use_largest_component": args.largest_component,
        **raw, "samplers": samplers})


def cmd_converge(args) -> int:
    g, meta = _load_graph(args)
    try:
        plan = _plan(args)
    except (TypeError, ValueError) as exc:
        if args.plan:
            raise GraphFormatError(f"invalid plan file {args.plan}: {exc}") from exc
        raise UsageError(str(exc)) from None
    result = run_experiment(g, plan)

    if result.component_nodes is not None:
        labels = tuple(meta.labels[int(o)] for o in result.component_nodes)
    else:
        labels = meta.labels

    out = _prepare_out(args)
    files = []
    for curve in result.curves:
        name = f"mse_{curve.sampler}_{curve.statistic}.csv"
        _write_csv(out / name, ["n", "mse", "mean_distinct"],
                   range(1, len(curve.mse) + 1), curve.mse, curve.mean_distinct)
        files.append(name)

    # backbone ranking of the first (primary) sampler in the plan
    first = result.sampler_labels[0]
    ranking = result.backbones[first]
    ranked = ranking.ranked_nodes
    _write_csv(out / "backbone.csv", ["node", "visits", "rank"],
               [labels[node] for node in ranked.tolist()],
               ranking.visit_counts[ranked], range(1, len(ranked) + 1))

    plan_dict = {
        "samplers": [{key: getattr(cfg, key) for key in _PLAN_SAMPLER_KEYS}
                     for cfg in plan.samplers],
        "sampler_labels": list(result.sampler_labels),
        "statistics": list(plan.statistics),
        "n_chains": plan.n_chains,
        "max_steps": result.backbones[first].max_steps,
        "start_policy": plan.start_policy,
        "start_nodes_resolved": [labels[s] for s in result.start_nodes],
        "chain_seeds": list(result.chain_seeds),
        "path_mode": plan.path_mode,
        "use_largest_component": plan.use_largest_component,
        "restricted_to_component": result.component_nodes is not None,
        "backbone_sampler": first,
        "curve_files": files,
        "full_graph_means": result.full_means,
    }
    _write_manifest(out, "converge", args, meta, plan_dict,
                    master_seed=plan.master_seed, rng_generator=GENERATOR_NAME)
    return 0


def _finite_positive(text: str) -> float:
    """argparse type of a float that must be finite and > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be finite and positive, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvewalk",
        description="Curvature-guided Markov chain sampling and statistics "
                    "on weighted networks.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--graph", required=True, help="edge-list file (u v [w])")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--delimiter", default=None,
                        help="column separator (default: any whitespace)")
    common.add_argument("--unweighted", action="store_true",
                        help="ignore weight columns, use weight 1")
    common.add_argument("--node-weight", type=_finite_positive, default=1.0,
                        help="node weight assigned to every node")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curvature", parents=[common],
                       help="per-edge and per-node Forman curvature CSVs")
    p.add_argument("--curvature-mode", choices=CURVATURE_MODES,
                   default="combinatorial")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("sample", parents=[common],
                       help="run one chain and write its trace")
    p.add_argument("--kind", choices=SAMPLER_KINDS, default="node_mh_curved")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--start", default="random",
                   help="start node as a 0-based dense id (order of first "
                        "appearance in the edge list, not its label), or "
                        "'random'")
    p.add_argument("--curvature-mode", choices=CURVATURE_MODES,
                   default="combinatorial")
    p.add_argument("--epsilon-floor", type=float, default=DEFAULT_EPSILON_FLOOR)
    p.add_argument("--burn-in", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("stats", parents=[common],
                       help="full-graph per-node statistics")
    p.add_argument("--path-mode", choices=PATH_MODES, default="hop")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("converge", parents=[common],
                       help="multi-chain MSE convergence experiment")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--chains", type=int, default=DEFAULT_N_CHAINS)
    p.add_argument("--steps", type=int, default=None,
                   help="chain length (default: 20x node count)")
    p.add_argument("--samplers", nargs="+", choices=SAMPLER_KINDS,
                   default=["node_mh_curved", "node_mh_uniform"])
    p.add_argument("--stats", nargs="+", choices=STAT_KINDS,
                   default=list(STAT_KINDS))
    p.add_argument("--curvature-mode", choices=CURVATURE_MODES,
                   default="combinatorial")
    p.add_argument("--epsilon-floor", type=float, default=DEFAULT_EPSILON_FLOOR)
    p.add_argument("--path-mode", choices=PATH_MODES, default="hop")
    p.add_argument("--plan", default=None,
                   help="JSON plan file; its keys override the matching flags")
    p.add_argument("--largest-component", action="store_true",
                   help="restrict a disconnected graph to its largest component")
    p.set_defaults(func=cmd_converge)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # GraphFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    """Console-script entry point."""
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
