#!/usr/bin/env python
"""Mutation check: every listed mutant of the library must fail its tests.

Each entry of ``MUTANTS`` is ``(file, old line, new line, tests)``: the old
line must occur exactly once in the file, and ``tests`` are the pytest
targets (files or node ids) that must fail once it is replaced. The tree's
``src``, ``tests``, ``data``, ``perfbench`` and ``pyproject.toml`` are
copied to a temporary directory; the targets are first run unmutated and
must pass. Then each mutant in turn is applied to the copy, its targets run
with ``-x``, and the original file is restored. ``EQUIVALENT`` lists mutants that no test
can kill, each with its reason; they are checked to apply but not run.

The script exits 1 if a mutant survives, if the unmutated targets fail, or
if an entry's old line is not found once (the list has gone stale). Run it
from anywhere::

    python scripts/mutants.py

A change that rewrites a hot path adds mutants for its own lines. The idea
is mutation analysis (DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 1978).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SAMPLER = "src/curvewalk/sampler.py"
NETSTATS = "src/curvewalk/netstats.py"
CONVERGENCE = "src/curvewalk/convergence.py"
LOCKSTEP = "tests/test_sampler.py::TestLockstep"
GUIDE = "tests/test_sampler.py::TestGuideTable"
FOLD = "tests/test_convergence.py::TestAggregationOracle"
EDGE_ROWS = ["tests/test_sampler.py::TestEdgeKernel", "tests/test_sampler.py::TestKernelTable"]

MUTANTS = [
    # the cell step: the cell index, the comparisons with the thresholds,
    # and the halving steps' clamp to the row's last entry
    (SAMPLER, "                cell += (u * width[state]).astype(np.int64)",
     "                cell += (u * width[state]).astype(np.int64) + 1", [LOCKSTEP]),
    (SAMPLER, "                np.greater(x, thresh[pos], out=below)",
     "                np.greater_equal(x, thresh[pos], out=below)", [LOCKSTEP]),
    (SAMPLER, "                    np.greater(x, thresh[cand], out=below)",
     "                    np.greater_equal(x, thresh[cand], out=below)", [LOCKSTEP]),
    (SAMPLER, "                    np.minimum(cand, last, out=cand)",
     "                    pass", [LOCKSTEP]),
    # the cell table: each rule's width, the edge thresholds just below
    # their entries, the refinement rounds and the count of entries
    # strictly inside a cell
    (SAMPLER, "    widths = [g.degrees if is_mh else _edge_cells(g, table) for is_mh, table in tables]",
     "    widths = [g.degrees for is_mh, table in tables]", [LOCKSTEP]),
    (SAMPLER, "            np.nextafter(table, -np.inf, out=thresh[slot0:slot0 + H])",
     "            np.nextafter(table, np.inf, out=thresh[slot0:slot0 + H])", [LOCKSTEP]),
    (SAMPLER, "    for _ in range(3):",
     "    for _ in range(2):", [GUIDE]),
    (SAMPLER, "            inside = np.bincount(at[scaled > floor] + floor[scaled > floor].astype(np.int64))",
     "            inside = np.bincount(at[scaled >= floor] + floor[scaled >= floor].astype(np.int64))",
     [GUIDE]),
    # the edge kernel's rows: the uniform-row fallback, the floor, the
    # degree classes and each row's total
    (SAMPLER, "            curved = f.max(axis=1) > epsilon_floor",
     "            curved = f.max(axis=1) >= epsilon_floor", EDGE_ROWS),
    (SAMPLER, "            w[curved] = (np.maximum(f[curved], epsilon_floor)",
     "            w[curved] = ((f[curved] + epsilon_floor)", EDGE_ROWS),
    (SAMPLER, "    for d in np.flatnonzero(np.bincount(g.degrees)[1:]) + 1:",
     "    for d in np.flatnonzero(np.bincount(g.degrees)[1:-1]) + 1:", EDGE_ROWS),
    (SAMPLER, "        w /= w[:, -1:]",
     "        w /= w[:, :1]", EDGE_ROWS),
    # the MH curved target's floor
    (SAMPLER, "        dens = np.maximum(np.abs(curvmap.node_values), epsilon_floor)",
     "        dens = np.abs(curvmap.node_values) + epsilon_floor",
     ["tests/test_sampler.py::TestMakeTarget"]),
    # the lockstep stream: one family per burn-in, each rule's templates one
    # run of the state, and the recorded rows of each block
    (SAMPLER, "        families.setdefault(cfg.burn_in, []).append((k, (cfg, curvmap, target)))",
     "        families.setdefault(0, []).append((k, (cfg, curvmap, target)))", [LOCKSTEP]),
    (SAMPLER, "    members = sorted(members, key=lambda member: _is_mh(member[1][0].kind))",
     "    members = list(members)", [LOCKSTEP]),
    # the paired layout: each template's chains are offset into its own
    # table by its place in the family, not its plan index, and each step's
    # draws reach every chain index of every template of its rule, an edge
    # step's one draw as both its u and its x
    (SAMPLER, "                nodes -= j * V",
     "                nodes -= k * V", [LOCKSTEP]),
    (SAMPLER, "                for c0 in range(0, C, _COPY_CHAINS):",
     "                for c0 in range(0, C, _COPY_CHAINS + 1):", [LOCKSTEP]),
    (SAMPLER, "                    np.copyto(near[:w1 - w0, :, j0:j1, c0:c1],",
     "                    np.copyto(near[:w1 - w0, :, j0:j0 + 1, c0:c1],", [LOCKSTEP]),
    (SAMPLER, "                    np.copyto(near[:w1 - w0, :, j0:j1, c0:c1],",
     "                    np.copyto(near[:w1 - w0, :draws, j0:j1, c0:c1],", [LOCKSTEP]),
    # each generator draws again where its last draw ends, and no further
    # than the block
    (SAMPLER, "            if d0 == 0:",
     "            if w0 == 0:", [LOCKSTEP]),
    (SAMPLER, "                        rng.random(out=row[:draws * min(_DRAW_STEPS, block - w0)])",
     "                        rng.random(out=row[:draws * min(_DRAW_STEPS, block)])", [LOCKSTEP]),
    # the windows of steps whose draws are copied at once cover the block
    (SAMPLER, "            w1 = min(w0 + _WINDOW, block)",
     "            w1 = min(w0 + _WINDOW - 1, block)", [LOCKSTEP]),
    (SAMPLER, "        if t0 + len(states) > burn:",
     "        if t0 + len(states) >= burn:", [LOCKSTEP]),
    (SAMPLER, "            states = states[max(burn - t0, 0):]",
     "            states = states[max(burn - t0 - 1, 0):]", [LOCKSTEP]),
    (SAMPLER, "                yield k, max(t0 - burn, 0), nodes",
     "                yield k, max(t0 - burn + 1, 0), nodes", [LOCKSTEP]),
    (SAMPLER, "    total = burn + n - 1",
     "    total = burn + n", [LOCKSTEP]),
    # the halving step's last entry
    (SAMPLER, "                    np.add(pos, step - 1, out=cand)",
     "                    np.add(pos, step, out=cand)", [LOCKSTEP]),
    # the fold's discovery ranks: one per discovery, counted along the steps
    (CONVERGENCE, "        rank[c, t] = 1",
     "        rank[c, t] = 2", [FOLD]),
    (CONVERGENCE, "        np.cumsum(rank, axis=1, out=rank)",
     "        np.cumsum(rank, axis=0, out=rank)", ["tests/test_convergence.py"]),
    # the distinct-node count carried in from earlier blocks
    (CONVERGENCE, "        distinct = np.full(B, self.found.sum())",
     "        distinct = np.full(B, 0)", [FOLD]),
    # the fold's full-coverage substitution
    (CONVERGENCE, "        zbar.transpose(0, 2, 1)[count == V] = self.full_means",
     "        pass", ["tests/test_convergence.py"]),
    # the fold's slices of chains: the state each chain carries in, the
    # order in which slices and their chains add into the sums, and the
    # budget that bounds a discovery-heavy block's memory
    (CONVERGENCE, "        err[:, :, 0] = self.run_sum[g0:g0 + G]",
     "        err[:, :, 0] = self.run_sum[:G]",
     [f"{FOLD}::test_slices_of_chains_carry_each_chains_state"]),
    (CONVERGENCE, "        err[:, :, 0] = self.err[g0:g0 + G]",
     "        err[:, :, 0] = self.err[:G]",
     [f"{FOLD}::test_slices_of_chains_carry_each_chains_state"]),
    (CONVERGENCE, "        count = self.found[g0:g0 + G, None] + np.arange(1, width)",
     "        count = self.found[:G, None] + np.arange(1, width)",
     [f"{FOLD}::test_slices_of_chains_carry_each_chains_state"]),
    (CONVERGENCE, "        for g0 in range(0, C, G):",
     "        for g0 in reversed(range(0, C, G)):",
     [f"{FOLD}::test_one_step_blocks_add_the_chains_in_row_order"]),
    (CONVERGENCE, "        for chain in chains.tolist():",
     "        for chain in reversed(chains.tolist()):",
     [f"{FOLD}::test_one_step_blocks_add_the_chains_in_row_order"]),
    (CONVERGENCE, "        G = max(1, _SLICE_CELLS // B)",
     "        G = C", [f"{FOLD}::test_discovery_heavy_block_is_folded_in_slices"]),
    # the backbone's id tie-break
    (CONVERGENCE, "    return np.lexsort((np.arange(len(counts)), -counts))[:k]",
     "    return np.lexsort((-np.arange(len(counts)), -counts))[:k]",
     ["tests/test_convergence.py"]),
    # the hop DAG lists each level backward; closeness skips zero totals
    (NETSTATS, "        below = levels[d][::-1]",
     "        below = levels[d]", ["tests/test_netstats.py"]),
    (NETSTATS, "    reached = totals > 0",
     "    reached = totals >= 0", ["tests/test_netstats.py"]),
    # each weighted DAG tail's children, in descending pop rank
    (NETSTATS, '    out_head = out_head[np.argsort(out_tail * (B * V) - rank[out_head], kind="stable")]',
     '    out_head = out_head[np.argsort(out_tail * (B * V) + rank[out_head], kind="stable")]',
     ["tests/test_netstats.py"]),
    # the weighted pop ranks' tie-break: by node id within a predecessor
    (NETSTATS, "            resorted = keys[np.lexsort((keys, first, keys // V))]",
     "            resorted = keys[np.lexsort((-keys, first, keys // V))]",
     ["tests/test_netstats.py"]),
]

EQUIVALENT = [
    (NETSTATS, "    return float(g.adj_weights.mean()) if len(g.adj_weights) else 0.0",
     "    return 4 * float(g.adj_weights.mean()) if len(g.adj_weights) else 0.0",
     "the sweep relaxes until no distance improves, so its outputs do not "
     "depend on the bucket width"),
    (SAMPLER, "    for _ in range(4):",
     "    for _ in range(0):",
     "with no nextafter rounds the bisection fallback settles every pair to "
     "the same thresholds"),
    (SAMPLER, "        w[:, -1] = 1.0",
     "        pass",
     "a row's total divided by itself is exactly 1.0, since the total is a "
     "finite double > 0"),
    (NETSTATS, '    out_head = out_head[np.argsort(out_tail * (B * V) - rank[out_head], kind="stable")]',
     "    out_head = out_head[np.argsort(out_tail * (B * V) - rank[out_head])]",
     "the keys are distinct, since a tail has one edge per head"),
    (NETSTATS, "_BLOCK_PAIRS = 1 << 16",
     "_BLOCK_PAIRS = 1 << 15",
     "the sweeps are bit-identical at any number of sources per block, and "
     "TestHopSweep and TestWeightedSweep check 1, 7 and the default"),
]


def python(tree: Path, *argv, **kwargs) -> subprocess.CompletedProcess:
    """Run Python in ``tree`` with its ``src`` first on the path; no bytecode
    is written, so a mutant of the same size is never read from a stale
    cache."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *argv], cwd=tree, env=env, **kwargs)


def pytest(tree: Path, targets) -> bool:
    """Whether ``targets`` pass in ``tree``."""
    run = python(tree, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *targets, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for name in ("src", "tests", "data", "perfbench"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tree)
        # an installed copy of the package must not shadow the mutated one
        imported = python(tree, "-c", "import curvewalk; print(curvewalk.__file__)",
                          capture_output=True, text=True, check=True).stdout.strip()
        if not Path(imported).is_relative_to(tree):
            print(f"curvewalk imports from {imported}, not from the copy")
            return 1
        for path, old, _new, *_ in MUTANTS + EQUIVALENT:
            count = (tree / path).read_text().split("\n").count(old)
            if count != 1:
                failures.append(f"{path}: {old.strip()!r} found {count} times")
        if failures:
            print("\n".join(failures))
            return 1
        targets = sorted({t for *_, tests in MUTANTS for t in tests})
        t0 = time.perf_counter()
        if not pytest(tree, targets):
            print(f"the unmutated tree fails {targets}")
            return 1
        print(f"unmutated targets pass ({time.perf_counter() - t0:.1f} s)")
        for path, old, new, tests in MUTANTS:
            source = (tree / path).read_text()
            lines = source.split("\n")
            lines[lines.index(old)] = new
            (tree / path).write_text("\n".join(lines))
            t0 = time.perf_counter()
            try:
                killed = not pytest(tree, tests)
            finally:
                (tree / path).write_text(source)
            verdict = "killed" if killed else "SURVIVED"
            print(f"{verdict} ({time.perf_counter() - t0:.1f} s): {path}: "
                  f"{old.strip()} -> {new.strip()}")
            if not killed:
                failures.append(new)
    for path, old, new, reason in EQUIVALENT:
        print(f"equivalent, not run: {path}: {old.strip()} -> {new.strip()}; {reason}")
    print(f"{len(MUTANTS) - len(failures)}/{len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
