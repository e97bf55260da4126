"""curvewalk benchmark: one workload run, result as JSON on the last line.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A run generates the workload's input from ``--seed``, then starts one
workload process (``child.py``) that drives ``curvewalk.cli.main`` as a
closed loop for ``--seconds`` and, between invocations, times ``setup_s`` in
fresh interpreters. Afterwards it checks every invocation's outputs
(``checks.py``) and prints one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Earlier lines carry
the wall-time summaries under the command-level names (``converge_s``,
``stats_hop_s``, ``stats_weighted_s``) next to that of the reference work,
``error_rate``, the sha256 of each input file, and the reference work timed
once more at the start and at the end of the run (``host_probe_s``).
See ``perfbench/README.md`` for the workloads and what each metric tracks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import reference
from checks import (check_converge, check_stats, node_count, read_edge_list,
                    stats_reference)
from workloads import (ALL_SAMPLERS, LESMIS, WORKLOADS, graph_file,
                       sha256_file)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150

END_TO_END = {"invocation_rel": "x", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "graph.load_s": "s",
    "graph.components_s": "s",
    "curvature.weighted_s": "s",
    "curvature.combinatorial_s": "s",
    "netstats.betweenness_hop_s": "s",
    "netstats.closeness_hop_s": "s",
    "netstats.betweenness_weighted_s": "s",
    "netstats.closeness_weighted_s": "s",
    "netstats.strength_s": "s",
    "netstats.weighted_clustering_s": "s",
    **{f"sampler.{k}.steps_per_s": "steps/s" for k in ALL_SAMPLERS},
    **{f"sampler.{k}.chain_setup_s": "s" for k in ALL_SAMPLERS},
    "sampler.run_chain_calls": "count",
    "convergence.self_s": "s",
    "convergence.chain_busy_ratio": "ratio",
    "cli.self_s": "s",
    "cli.rows_written": "count",
    "cli.rows_per_s": "rows/s",
    "trace.overhead_s": "s",
}


def tail_percentile(values):
    """Highest of p50..p99.9 with at least ten samples above it, or None."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return {"percentile": p, "value": ordered[rank - 1]}
    return None


def run_child(args, src: Path, graph: Path, work: Path, spans: Path) -> dict:
    result = work / "child.json"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--src", str(src),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--graph", str(graph), "--work", str(work), "--result", str(result),
         "--spans", str(spans)],
        timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(result.read_text())


def output_problems(workload, child: dict, graph: Path) -> list[str]:
    """Content problems of the outputs of each variant's first invocation."""
    edges = read_edge_list(graph)
    problems = []
    for variant, out in enumerate(child["first_out"]):
        first = child["invocations"][variant]
        if first["rc"] != 0:
            problems.append(f"first {workload.variants[variant]} invocation "
                            f"exited with {first['rc']}")
            continue
        try:
            if workload.command == "converge":
                problems += check_converge(Path(out), workload.stats,
                                           node_count(edges))
            else:
                expected = stats_reference(edges, workload.path_modes[variant])
                problems += check_stats(Path(out), expected)
        except (KeyError, ValueError) as exc:  # malformed CSV content
            problems.append(f"unreadable output: {exc!r}")
    return problems


def count_failures(child: dict, problems: list[str]) -> int:
    """Invocations that exited non-zero, or whose CSVs are not byte-identical
    to those of the checked first invocation of the same variant."""
    want = [inv["csv_sha256"]
            for inv in child["invocations"][:len(child["first_out"])]]
    return sum(1 for inv in child["invocations"]
               if inv["rc"] != 0 or problems
               or inv["csv_sha256"] != want[inv["variant"]])


def untraced(child: dict, variant: int) -> list[dict]:
    """Untimed-by-tracing invocations of one variant. Round 0 is a warm-up
    (first calls, cold caches): it is checked but left out of the timings
    whenever a later untraced round exists."""
    runs = [inv for inv in child["invocations"]
            if inv["variant"] == variant and not inv["traced"]]
    return [inv for inv in runs if inv["round"] > 0] or runs


def end_to_end(child: dict) -> dict[str, float]:
    """``invocation_rel`` sums, over the variants, the median of wall time
    over reference time; it is one round's time in reference units."""
    rel = sum(statistics.median(inv["wall_s"] / inv["ref_s"]
                                for inv in untraced(child, variant))
              for variant in range(len(child["first_out"])))
    return {"invocation_rel": rel,
            "setup_s": statistics.median(child["setup_s"]),
            "peak_rss_mb": child["peak_rss_kb"] / 1024.0}


def timing_summary(walls: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    return {"median": statistics.median(walls), "q1": q1, "q3": q3,
            "samples": len(walls), "unit": "s", "tail": tail_percentile(walls)}


def per_layer(child: dict) -> dict[str, float]:
    layers = child["layers"]
    out = {name: statistics.median(layer[name] for layer in layers)
           for name in layers[0]}
    out.update(child["sampler"])
    rounds = {}
    for inv in child["invocations"]:
        rounds.setdefault((inv["round"], inv["traced"]), []).append(inv["wall_s"])
    walls = {traced: [sum(w) for (_, t), w in rounds.items() if t is traced]
             for traced in (False, True)}
    out["trace.overhead_s"] = (statistics.median(walls[True])
                               - statistics.median(walls[False]))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="curvewalk benchmark (one run)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    workload = WORKLOADS[args.workload]
    src = ROOT / "src"
    if not (src / "curvewalk" / "__init__.py").is_file():
        print(f"error: no curvewalk sources under {src}", file=sys.stderr)
        return 2
    if workload.nodes is None and not (ROOT / LESMIS).is_file():
        print(f"error: {LESMIS} is missing", file=sys.stderr)
        return 2

    probe_start = reference.timed()
    base = ROOT / ".perfbench"
    work = base / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spans = base / f"spans-{args.workload}-{args.seed}.json"
    try:
        graph = graph_file(workload, args.seed, ROOT, work)
        graph_sha = sha256_file(graph)
        child = run_child(args, src, graph, work, spans)
        problems = output_problems(workload, child, graph)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    probe_end = reference.timed()

    attempted = len(child["invocations"])
    failed = count_failures(child, problems)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        values, units = per_layer(child), PER_LAYER
    else:
        values, units = end_to_end(child), END_TO_END
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "input_sha256": {graph.name: graph_sha},
        "host_probe_s": {"start": probe_start, "end": probe_end},
        **{alias: timing_summary([inv["wall_s"]
                                  for inv in untraced(child, variant)])
           for variant, alias in enumerate(workload.variants)},
        "reference_s": timing_summary([inv["ref_s"]
                                       for inv in child["invocations"]]),
        "setup_s_samples": child["setup_s"],
        "error_rate": failed / attempted,
        "csv_sha256": [inv["csv_sha256"] for inv in
                       child["invocations"][:len(workload.variants)]],
    }
    if args.trace:
        info["spans_file"] = str(spans.relative_to(ROOT))
    print("info " + json.dumps(info, sort_keys=True))
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
