"""Workload process: runs one workload's CLI invocations in-process.

Started once per benchmark run by ``run.py`` as a fresh interpreter, so its
peak RSS is the workload's. It drives ``curvewalk.cli.main(argv)`` as a
closed loop (one client; the next invocation starts when the previous one
returns) for at least ``--seconds``, times each call, hashes the CSVs each
call wrote (untimed), and writes everything to ``--result`` as JSON.

The loop runs in rounds; a round runs each of the workload's invocation
kinds once (``stats`` on synth-paths: hop, then weighted). The fixed
reference work of ``reference.py`` is timed before the first invocation and
after each one, and every invocation records the mean of the reference times
on either side of it. Between invocations, outside their timing, the loop
also times ``setup_probe.py`` in fresh interpreters, spread evenly over the
run.

With ``--trace 1`` untraced and traced rounds alternate; traced ones record
spans around the public functions of the curvewalk modules, and the run ends
with direct single-threaded ``run_chain`` measurements per kind.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
from spans import Tracer, busy_ratio, children_of, self_time
from workloads import ALL_SAMPLERS, STEPS_PER_NODE, WORKLOADS, derived_seed

HERE = Path(__file__).resolve().parent
# setup_s is timed this many times, spread evenly over the run so that its
# median samples the same host states as the invocations.
SETUP_REPS = 12
# Both kinds of run need two rounds: a trace-0 run compares two same-seed
# outputs byte for byte, a trace-1 run needs one untraced and one traced.
MIN_ROUNDS = 2
SPAN_SUMS = {
    "graph.load_s": "graph.load",
    "graph.components_s": "graph.components",
    "curvature.weighted_s": "curvature.weighted",
    "curvature.combinatorial_s": "curvature.combinatorial",
    "netstats.betweenness_hop_s": "netstats.betweenness_hop",
    "netstats.closeness_hop_s": "netstats.closeness_hop",
    "netstats.betweenness_weighted_s": "netstats.betweenness_weighted",
    "netstats.closeness_weighted_s": "netstats.closeness_weighted",
    "netstats.strength_s": "netstats.strength",
    "netstats.weighted_clustering_s": "netstats.weighted_clustering",
}


def trace_targets():
    """``(module, attribute, namer)`` for every public function traced."""
    from curvewalk import cli, convergence, curvature, graph, netstats, sampler

    def fixed(name):
        return lambda bound: name

    return [
        (cli, "main", fixed("cli.main")),
        (graph, "load_edge_list", fixed("graph.load")),
        (graph, "connected_components", fixed("graph.components")),
        (curvature, "compute_curvature_map",
         lambda a: f"curvature.{a.get('mode')}"),
        (netstats, "compute_statistics", fixed("netstats.compute_statistics")),
        (netstats, "betweenness",
         lambda a: f"netstats.betweenness_{a.get('path_mode')}"),
        (netstats, "closeness",
         lambda a: f"netstats.closeness_{a.get('path_mode')}"),
        (netstats, "strength_vector", fixed("netstats.strength")),
        (netstats, "weighted_clustering", fixed("netstats.weighted_clustering")),
        (sampler, "run_chain", fixed("sampler.run_chain")),
        (convergence, "run_experiment", fixed("convergence.run_experiment")),
    ]


def layer_metrics(spans, invocations) -> dict[str, float]:
    """Per-layer numbers of one traced round, from the spans of its
    invocations (a collection of invocation ids)."""
    mine = [(i, s) for i, s in enumerate(spans) if s.invocation in invocations]

    def self_sum(name):
        return sum(self_time(s, children_of(spans, i))
                   for i, s in mine if s.name == name)

    out = {metric: sum(s.end - s.start for _, s in mine if s.name == name)
           for metric, name in SPAN_SUMS.items()}
    chains = [s for _, s in mine if s.name == "sampler.run_chain"]
    out["sampler.run_chain_calls"] = len(chains)
    out["convergence.self_s"] = self_sum("convergence.run_experiment")
    out["convergence.chain_busy_ratio"] = busy_ratio(chains)
    out["cli.self_s"] = self_sum("cli.main")
    return out


def csv_digest(out: Path) -> tuple[dict[str, str], int]:
    """sha256 of every CSV in ``out`` and their total data-row count."""
    hashes, rows = {}, 0
    for path in sorted(out.glob("*.csv")):
        data = path.read_bytes()
        hashes[path.name] = hashlib.sha256(data).hexdigest()
        rows += max(data.count(b"\n") - 1, 0)
    return hashes, rows


def timed_median(fn, budget_s=0.3, min_reps=3, max_reps=25) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or (len(times) < max_reps
                                    and time.perf_counter() - start < budget_s):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def sampler_metrics(graph: Path, workload, seed: int) -> dict[str, float]:
    """Direct single-threaded ``run_chain`` per kind at the workload's chain
    length (steps/s), and with ``max_steps=2`` (per-chain set-up)."""
    from curvewalk import (SamplerConfig, compute_curvature_map, load_edge_list,
                           make_target, run_chain)

    g, _ = load_edge_list(graph)
    steps = STEPS_PER_NODE * g.node_count
    curvmap = compute_curvature_map(g, workload.curvature_mode)
    chain_seed = derived_seed(seed, "sampler")
    out = {}
    for kind in ALL_SAMPLERS:
        curved = kind in ("edge_curved", "node_mh_curved")
        target = None
        if kind.startswith("node_mh"):
            target = make_target(g, curvmap if curved else None,
                                 "curved" if curved else "uniform")

        def chain(max_steps):
            config = SamplerConfig(kind=kind, seed=chain_seed, max_steps=max_steps,
                                   curvature_mode=workload.curvature_mode)
            return lambda: run_chain(g, config, curvmap=curvmap if curved else None,
                                     target=target)

        out[f"sampler.{kind}.chain_setup_s"] = timed_median(chain(2))
        out[f"sampler.{kind}.steps_per_s"] = steps / timed_median(chain(steps))
    return out


def setup_seconds(src: str, graph: str) -> float:
    """``import curvewalk`` plus ``load_edge_list`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), src, graph],
        capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run(args) -> dict:
    from curvewalk import cli

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    tracer = Tracer() if args.trace else None
    targets = trace_targets() if args.trace else None
    invocations, layers, setup = [], [], []
    ref_before = reference.timed()
    start = time.perf_counter()
    rnd = 0
    while rnd < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and rnd % 2 == 1
        rows_written = 0
        first = len(invocations)
        for variant in range(len(workload.variants)):
            k = len(invocations)
            out = work / f"inv-{k:04d}"
            argv = workload.argv(args.graph, out,
                                 derived_seed(args.seed, "converge"), variant)
            gc.collect()
            restore = None
            if traced:
                tracer.invocation = k
                restore = tracer.install(targets)
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # a crash is one failed invocation, not the run
                traceback.print_exc()
                rc = None
            wall = time.perf_counter() - t0
            if restore is not None:
                restore()
            elapsed = time.perf_counter() - start
            due = math.ceil(SETUP_REPS * elapsed / max(args.seconds, 1e-9))
            while len(setup) < min(SETUP_REPS, due):
                setup.append(setup_seconds(args.src, args.graph))
            ref_after = reference.timed()
            hashes, rows = csv_digest(out) if out.is_dir() else ({}, 0)
            rows_written += rows
            invocations.append({"round": rnd, "variant": variant,
                                "traced": traced, "wall_s": wall,
                                "ref_s": (ref_before + ref_after) / 2, "rc": rc,
                                "csv_sha256": hashes})
            ref_before = ref_after
            # Only the first invocation of each variant is content-checked.
            if rnd > 0 and out.is_dir():
                shutil.rmtree(out)
        if traced:
            metrics = layer_metrics(tracer.spans,
                                    range(first, len(invocations)))
            metrics["cli.rows_written"] = rows_written
            metrics["cli.rows_per_s"] = (rows_written / metrics["cli.self_s"]
                                         if metrics["cli.self_s"] > 0 else 0.0)
            layers.append(metrics)
        rnd += 1
    while len(setup) < SETUP_REPS:
        setup.append(setup_seconds(args.src, args.graph))

    result = {
        "setup_s": setup,
        "invocations": invocations,
        "first_out": [str(work / f"inv-{k:04d}")
                      for k in range(len(workload.variants))],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
    }
    if args.trace:
        result["sampler"] = sampler_metrics(Path(args.graph), workload, args.seed)
        Path(args.spans).write_text(json.dumps(tracer.dump()))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="directory holding curvewalk/")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--graph", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    result = run(args)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
