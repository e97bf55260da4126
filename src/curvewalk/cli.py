"""Command-line driver: curvature, sampling, statistics and convergence runs.

Subcommands: ``curvature``, ``sample``, ``stats``, ``converge``. Every run
writes CSV result files plus a ``manifest.json`` that records the tool
version, the graph's checksum and counts, how the edge list was read, the
fully resolved configuration, the master seed and the RNG generator name,
which is enough to reproduce the run bit-identically. Exit codes: 0 success,
1 I/O or data error, 2 usage error.

Each ``cmd_*`` function only computes; :func:`_run` loads the graph, calls
it, and only after it returns creates the output directory and writes its
files, ``manifest.json`` last. So a command that exits non-zero has created
no output directory and written no file, unless writing itself failed, and
a directory that holds ``manifest.json`` is complete. A run into a directory
that already holds ``manifest.json`` is refused as a usage error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from contextlib import ExitStack
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .convergence import (DEFAULT_N_CHAINS, ExperimentPlan, extract_backbone,
                          run_experiment)
from .curvature import CURVATURE_MODES, _NonFiniteCurvature, compute_curvature_map
from .graph import GraphFormatError, load_edge_list
from .netstats import PATH_MODES, STAT_KINDS, compute_statistics, mean_statistic
from .sampler import (DEFAULT_EPSILON_FLOOR, GENERATOR_NAME, SAMPLER_KINDS,
                      SamplerConfig, distinct_prefix_counts, run_chain)


class UsageError(ValueError):
    """Invalid flag or flag value; mapped to exit code 2."""


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class _Lines(list):
    """File-like list that keeps each string written to it."""

    write = list.append


def _cells(part) -> list[str]:
    """CSV text of the values in ``part``, a slice of one column.

    Numbers become their ``repr``, as ``csv`` writes them: the ``repr`` of
    a list of Python ints or floats is its items' reprs joined by ", ".
    A float array is first cut into runs of equal bit patterns, and only
    the head of each run is formatted; its text is then repeated over the
    run. Runs compare bits rather than values, because ``-0.0 == 0.0`` but
    the two print differently, and because ``nan`` equals nothing.
    Strings get ``csv``'s own quoting, from a row ``(s, "")`` written
    through a ``csv.writer`` and cut before its ``",\\n"``; the empty second
    field keeps a lone empty string unquoted, as it is inside a row.
    """
    if isinstance(part, np.ndarray) and part.dtype == np.float64:
        bits = part.view(np.int64)
        # where each run starts, then the end of the last one
        bounds = np.concatenate(((0,), (bits[1:] != bits[:-1]).nonzero()[0] + 1,
                                 (len(part),)))
        text = repr(part[bounds[:-1]].tolist())[1:-1].split(", ")
        return np.array(text, dtype=object).repeat(bounds[1:] - bounds[:-1]).tolist()
    values = part.tolist() if isinstance(part, np.ndarray) else list(part)
    if not isinstance(values[0], str):
        return repr(values)[1:-1].split(", ")
    lines = _Lines()
    csv.writer(lines, lineterminator="\n").writerows((v, "") for v in values)
    return [line[:-2] for line in lines]


def _write_csvs(paths, header, tables):
    """Write ``tables[f]``, a tuple of equally long columns, to ``paths[f]``
    under the same ``header``, all files together, a chunk of rows at a time.

    Columns are turned into text a chunk at a time (see :func:`_cells`), so
    the text of a whole column is never held at once, and a column object
    that several tables share is turned into text once per chunk. A float
    column costs one ``repr`` per run of equal values, and an MSE curve is
    mostly runs: it changes only when some chain finds a node.
    """
    # 2048 rows wrote fastest at V=10000 and within 5% of the fastest at
    # V=1000; a chunk's text stays under 1 MB, below the engine's and the
    # fold's working set
    chunk = 2048
    # the last file that writes each column
    last = {id(c): f for f, columns in enumerate(tables) for c in columns}
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
                 for path in paths]
        for fh in files:
            csv.writer(fh, lineterminator="\n").writerow(header)
        for lo in range(0, len(tables[0][0]), chunk):
            text = {}  # id of a column -> its cells in this chunk, until its last file
            for f, (fh, columns) in enumerate(zip(files, tables)):
                for c in columns:
                    if id(c) not in text:
                        text[id(c)] = _cells(c[lo:lo + chunk])
                rows = zip(*(text[id(c)] for c in columns))
                fh.write("\n".join(map(",".join, rows)) + "\n")
                for c in columns:
                    if last[id(c)] == f:
                        text.pop(id(c), None)


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run(args) -> int:
    """Load the graph, compute the command's outputs, and only then write
    them: every CSV, then every JSON document, then ``manifest.json``, the
    reproducibility record of the run.

    ``args.func(args, g, labels)`` is the command's compute step. It returns
    ``(csvs, docs, config, master_seed)``: ``csvs`` lists ``(file names,
    header, tables)``, the arguments of :func:`_write_csvs`; ``docs`` maps
    a file name to a JSON document; ``config`` and ``master_seed`` (None for
    a run without randomness) go into the manifest.

    An ``--out`` that already holds a ``manifest.json`` is refused before
    anything is read, so a directory holds the files of one run only.
    """
    if (Path(args.out) / "manifest.json").exists():
        raise UsageError(f"--out {args.out} already holds a run's manifest.json; "
                         "choose an empty or new directory")
    g, labels = load_edge_list(args.graph, delimiter=args.delimiter,
                               weighted=not args.unweighted,
                               default_node_weight=args.node_weight)
    try:
        csvs, docs, config, master_seed = args.func(args, g, labels)
    except _NonFiniteCurvature as exc:
        # name the refused edge by its labels in the edge list
        exc.nodes = tuple(labels[i] for i in exc.nodes)
        raise
    except (UsageError, GraphFormatError):
        raise
    except ValueError:
        # on a graph with no nodes, any data refusal has that one cause
        if g.node_count:
            raise
        raise ValueError(f"{args.graph}: the graph has no nodes") from None
    docs["manifest.json"] = {
        "tool_version": __version__,
        "command": args.command,
        "graph_path": str(args.graph),
        "graph_sha256": _sha256_file(args.graph),
        "node_count": g.node_count,
        "edge_count": g.edge_count,
        "max_degree": int(g.degrees.max()) if g.node_count else 0,
        "ingest": {"delimiter": args.delimiter, "unweighted": args.unweighted,
                   "node_weight": args.node_weight},
        "rng_generator": GENERATOR_NAME if master_seed is not None else None,
        "master_seed": master_seed,
        "config": config,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for names, header, tables in csvs:
        _write_csvs([out / name for name in names], header, tables)
    for name, doc in docs.items():
        _write_json(out / name, doc)
    return 0


def cmd_curvature(args, g, labels):
    curvmap = compute_curvature_map(g, args.curvature_mode)
    tails, heads = g.edges.T.tolist()
    csvs = [(["edge_curvature.csv"], ["edge_u", "edge_v", "forman"],
             [([labels[u] for u in tails], [labels[v] for v in heads],
               curvmap.edge_values)]),
            (["node_curvature.csv"], ["node", "forman"],
             [(labels, curvmap.node_values)])]
    return csvs, {}, {"curvature_mode": args.curvature_mode}, None


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
    return start


def cmd_sample(args, g, labels):
    start = _resolve_start(args, g)
    try:
        config = SamplerConfig(kind=args.kind, seed=args.seed,
                               max_steps=args.steps, start_node=start,
                               curvature_mode=args.curvature_mode,
                               epsilon_floor=args.epsilon_floor,
                               burn_in=args.burn_in)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    visits = run_chain(g, config)
    csvs = [(["trace.csv"], ["step", "node", "distinct_count"],
             [(range(1, len(visits) + 1), [labels[v] for v in visits.tolist()],
               distinct_prefix_counts(visits))])]
    config_doc = {"sampler": asdict(config), "start_node_resolved": int(visits[0])}
    return csvs, {}, config_doc, config.seed


def cmd_stats(args, g, labels):
    stats = compute_statistics(g, STAT_KINDS, args.path_mode)
    csvs = [(["stats.csv"], ["node", "bc", "cc", "strength", "wcc"],
             [(labels, *(stats[kind] for kind in STAT_KINDS))])]
    summary = {
        "path_mode": args.path_mode,
        "node_count": g.node_count,
        "edge_count": g.edge_count,
        "full_graph_means": {kind: mean_statistic(values)
                             for kind, values in stats.items()},
    }
    return csvs, {"summary.json": summary}, {"path_mode": args.path_mode}, None


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
    if not isinstance(entries, list):
        raise ValueError(f"samplers must be a list, got {entries!r}")
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


def _plan_refused(plan_file) -> bool:
    """Whether the keys of ``plan_file`` are refused on their own: its plan
    is refused with every flag at its default too."""
    defaults = build_parser().parse_args(
        ["converge", "--graph=", "--out=", f"--plan={plan_file}"])
    try:
        _plan(defaults)
    except (TypeError, ValueError):
        return True
    return False


def cmd_converge(args, g, labels):
    try:
        plan = _plan(args)
    except (TypeError, ValueError) as exc:
        # the file is blamed only for its own keys, not for a bad flag
        if args.plan and _plan_refused(args.plan):
            raise GraphFormatError(f"invalid plan file {args.plan}: {exc}") from exc
        raise UsageError(str(exc)) from None
    result = run_experiment(g, plan)

    if result.component_nodes is not None:
        labels = tuple(labels[int(o)] for o in result.component_nodes)

    # every curve file shares one n column, and a sampler's curves share
    # its mean_distinct column, so the writer turns each into text once
    first = next(iter(result.visit_counts))
    n = range(1, len(result.mean_distinct[first]) + 1)
    files = [f"mse_{sampler}_{kind}.csv"
             for sampler, curves in result.mse.items() for kind in curves]
    csvs = [(files, ["n", "mse", "mean_distinct"],
             [(n, mse, result.mean_distinct[sampler])
              for sampler, curves in result.mse.items() for mse in curves.values()])]

    # backbone ranking of the first (primary) sampler in the plan
    counts = result.visit_counts[first]
    ranked = extract_backbone(counts, 1.0)
    csvs.append((["backbone.csv"], ["node", "visits", "rank"],
                 [([labels[node] for node in ranked.tolist()],
                   counts[ranked], range(1, len(ranked) + 1))]))

    plan_dict = {
        "samplers": [{key: getattr(cfg, key) for key in _PLAN_SAMPLER_KEYS}
                     for cfg in plan.samplers],
        "sampler_labels": list(result.mse),
        "statistics": list(plan.statistics),
        "n_chains": plan.n_chains,
        "max_steps": len(result.mean_distinct[first]),
        "start_nodes_resolved": [labels[s] for s in result.start_nodes],
        "chain_seeds": list(result.chain_seeds),
        "path_mode": plan.path_mode,
        "use_largest_component": plan.use_largest_component,
        "restricted_to_component": result.component_nodes is not None,
        "backbone_sampler": first,
        "curve_files": files,
        "full_graph_means": result.full_means,
    }
    return csvs, {}, plan_dict, plan.master_seed


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
        return _run(args)
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
