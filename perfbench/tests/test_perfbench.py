"""Tests of the benchmark itself: inputs, span arithmetic, printed metrics.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from run import end_to_end  # noqa: E402
from spans import Span, Tracer, busy_ratio, self_time, union_length  # noqa: E402
from workloads import WORKLOADS, generate_edge_list  # noqa: E402


def test_same_seed_same_input_bytes():
    for w in WORKLOADS.values():
        if w.nodes is None:
            continue
        a = generate_edge_list(7, w.nodes, w.extra_per_node)
        assert a == generate_edge_list(7, w.nodes, w.extra_per_node)
        assert a != generate_edge_list(8, w.nodes, w.extra_per_node)


def test_generated_graph_is_connected_and_simple():
    lines = generate_edge_list(3, 200, 2).decode().splitlines()
    pairs = [tuple(sorted(map(int, line.split()[:2]))) for line in lines]
    assert len(pairs) == len(set(pairs))
    assert all(u != v for u, v in pairs)
    assert {v for _, v in pairs[:199]} == set(range(1, 200))  # spanning tree


def test_reference_work_is_fixed():
    assert reference.work() == reference.work()
    assert reference.timed() > 0


def test_invocation_rel_sums_variant_medians_and_skips_warm_up_round():
    def inv(rnd, variant, wall, ref, traced=False):
        return {"round": rnd, "variant": variant, "traced": traced,
                "wall_s": wall, "ref_s": ref}

    child = {"first_out": ["a", "b"], "peak_rss_kb": 2048,
             "setup_s": [0.2, 0.1, 0.3], "invocations": [
        inv(0, 0, 9.0, 1.0), inv(0, 1, 9.0, 1.0),  # warm-up, not timed
        inv(1, 0, 2.0, 1.0), inv(1, 1, 6.0, 2.0),
        inv(2, 0, 4.0, 1.0), inv(2, 1, 3.0, 1.0, traced=True),
        inv(3, 0, 3.0, 0.5), inv(3, 1, 5.0, 1.0),
    ]}
    got = end_to_end(child)
    # variant 0: median(2, 4, 6) = 4; variant 1: median(3, 5) = 4
    assert got == {"invocation_rel": 8.0, "setup_s": 0.2, "peak_rss_mb": 2.0}


def span(start, end, parent=None):
    return Span("x", start, end, parent, 0, 0)


def test_union_of_overlapping_and_nested_intervals():
    assert union_length([]) == 0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10), (2, 3), (4, 12)]) == 12
    assert union_length([(1, 2), (2, 3)]) == 2


def test_self_time_subtracts_union_of_clipped_children():
    parent = span(0, 10)
    children = [span(1, 3), span(2, 5), span(8, 12)]  # covers 1..5 and 8..10
    assert self_time(parent, children) == 4
    assert self_time(parent, []) == 10


def test_busy_ratio_counts_overlap():
    assert busy_ratio([span(0, 2), span(1, 3)]) == pytest.approx(4 / 3)
    assert busy_ratio([span(0, 1), span(2, 3)]) == 1
    assert busy_ratio([]) == 0


def test_worker_thread_spans_take_the_main_threads_open_span_as_parent():
    tracer = Tracer()

    def work():
        with tracer.span("inner"):
            pass

    with tracer.span("outer"):
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    outer, inner = tracer.spans
    assert (outer.name, inner.name) == ("outer", "inner")
    assert inner.parent == 0 and outer.parent is None


def run_bench(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lesmis-paper",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_json_metric_is_printed_with_its_unit(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run_bench(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    if trace:
        assert result["metrics"]["sampler.run_chain_calls"]["value"] == 4 * 50
