"""Fixed reference work that measures host speed next to each invocation.

On a shared host the same CLI invocation runs up to 1.5x slower for minutes
at a time, and CPU time slows with wall time, so the slowdown is the CPU
itself, not waiting. ``run.py`` therefore reports invocation wall time as a
multiple of this reference, timed right before and right after each
invocation in the same process.

The reference does the same work on every call and uses no curvewalk code,
so a change to the program moves the ratio and a change of host speed
mostly cancels out. Its mix follows the program's: pure-Python breadth-first
search with path counting and ``heapq`` Dijkstra (``netstats``, the
samplers' step loops), float formatting (CSV writing) and small numpy array
work (estimators).
"""

from __future__ import annotations

import heapq
import time
from collections import deque

import numpy as np

NODES = 300
EXTRA_EDGES = 600


def _graph():
    rng = np.random.default_rng(20211007)
    adj = [[] for _ in range(NODES)]
    parents = rng.integers(0, np.arange(1, NODES)).tolist()
    pairs = [(p, v) for v, p in enumerate(parents, start=1)]
    pairs += [(u, v) for u, v in
              rng.integers(0, NODES, size=(EXTRA_EDGES, 2)).tolist() if u != v]
    weights = rng.uniform(0.5, 3.0, len(pairs)).tolist()
    for (u, v), w in zip(pairs, weights):
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


ADJ = _graph()
ARRAY = np.random.default_rng(7).random((128, 2048))


def work() -> float:
    """One unit of reference work; returns a checksum that never changes."""
    total = 0.0
    for s in range(0, NODES, 2):
        dist = [-1] * NODES
        sigma = [0] * NODES
        dist[s], sigma[s] = 0, 1
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for w, _ in ADJ[u]:
                if dist[w] < 0:
                    dist[w] = du
                    queue.append(w)
                if dist[w] == du:
                    sigma[w] += sigma[u]
        total += sum(dist) + sum(sigma) % 1000
    for s in range(0, NODES, 4):
        best = {s: 0.0}
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > best[u]:
                continue
            for v, w in ADJ[u]:
                nd = d + w
                if nd < best.get(v, float("inf")):
                    best[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += len(",".join(f"{x:.17g}" for x in best.values()))
    for _ in range(16):
        total += float(np.cumsum(ARRAY, axis=1).mean())
    return total


def timed() -> float:
    """Wall seconds of one call of ``work``."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0
