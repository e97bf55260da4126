"""Set-up probe: ``import curvewalk`` plus ``load_edge_list`` in a fresh interpreter.

Usage: ``python3 setup_probe.py <src-dir> <edge-list>``. Prints the seconds
taken, timed inside this process so interpreter start-up is excluded.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import curvewalk  # noqa: E402

curvewalk.load_edge_list(sys.argv[2])
print(time.perf_counter() - t0)
