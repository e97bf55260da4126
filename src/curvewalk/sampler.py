"""Markov chain samplers on the node set of a weighted graph.

Four kernels are provided, selected by ``SamplerConfig.kind``:

* ``edge_curved``: moves to neighbor ``j`` with probability proportional to
  ``|F(<i,j>)| / d(j)`` where ``F`` is the edge Forman curvature; never stays
  in place.
* ``edge_uniform``: moves to a uniformly random neighbor.
* ``node_mh_curved``: Metropolis-Hastings with uniform neighbor proposal
  ``q(i, .) = 1/d(i)`` and target density ``g(i) = max(|F(i)|, eps) / d(i)``.
* ``node_mh_uniform``: same proposal, uniform target density.

Zero curvature handling: ``epsilon_floor`` floors ``|F|`` in both the edge
kernel weights and the node target density so connected graphs stay
irreducible; if every edge at the current node has ``|F| <= epsilon_floor``
the edge kernel falls back to a uniform move. Setting the floor to 0 gives
the bare formulas for graphs without zero curvature.

Reproducibility contract: chains are driven by numpy's PCG64 generator
(recorded as ``"pcg64"`` in run manifests). A chain consumes its uniform
stream in a fixed order: one draw to pick a random start node when
requested, then one uniform per transition for edge kinds or two per
transition (proposal, then accept) for MH kinds, burn-in included. A chain
draws exactly that prefix of its stream. Chain ``c`` of a multi-chain
experiment is seeded with ``master_seed XOR splitmix64(c)``.

Two drivers share one table per kernel, built once per run (the chains are
time-homogeneous): :func:`run_chain` runs one chain in a scalar loop, and
:func:`run_lockstep`, which experiments use, advances many chains together
as numpy vectors and reproduces :func:`run_chain` exactly. An MH step costs
O(1). An edge step inverts the row's cumulative move probabilities: the
scalar loop bisects the whole row in O(log d); the lockstep engine first
looks up a guide table (Chen & Asau 1974; Devroye 1986, section III.2.4)
that splits [0, 1) into ``m`` equal cells, ``m`` a power of two, and bisects
only the cell holding ``u``. That costs O(log c) for the fullest cell's
count ``c`` of row entries, fixed when the table is built (1 or 2 on the
benchmark graphs). It is exact: scaling by a power of two is exact, so
``k = floor(u * m)`` satisfies ``k / m <= u < (k + 1) / m``, and the entries
``<= k / m`` are counted without rounding. Row entries before the cell are
``<= k / m <= u`` and those after it ``> (k + 1) / m > u``, so the cell
holds the count of entries ``<= u`` that bisection of the whole row finds.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .curvature import CURVATURE_MODES, CurvatureMap, compute_curvature_map
from .graph import WeightedGraph

SAMPLER_KINDS = ("edge_curved", "edge_uniform", "node_mh_curved", "node_mh_uniform")
TARGET_KINDS = ("curved", "uniform")
GENERATOR_NAME = "pcg64"
DEFAULT_EPSILON_FLOOR = 1e-9

_MASK64 = (1 << 64) - 1
# steps of uniforms a chain draws at a time; bounds the draw buffers
_TIME_CHUNK = 1 << 10


def _integer(value, name: str) -> int:
    """``value`` as an int; a float (even 2.0), string or bool is refused."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(value, name: str) -> float:
    """``value`` as a float; a string or bool is refused."""
    if isinstance(value, (str, bytes, bool)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def splitmix64(value: int) -> int:
    """One splitmix64 output step; the stream-splitting hash for chain seeds."""
    z = (int(value) + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def chain_seed(master_seed: int, chain_index: int) -> int:
    """Seed for chain ``chain_index``: ``master_seed XOR splitmix64(index)``."""
    return (int(master_seed) & _MASK64) ^ splitmix64(chain_index)


def make_rng(seed: int) -> np.random.Generator:
    """Fresh PCG64 generator for ``seed`` (all sampling randomness uses this)."""
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))


@dataclass(frozen=True)
class SamplerConfig:
    """Parameters of one chain.

    Args:
        kind: One of :data:`SAMPLER_KINDS`.
        seed: 64-bit RNG seed of this chain.
        max_steps: Number of recorded samples, the start node included.
        start_node: Node id or ``"random"`` (uniform over non-isolated nodes,
            drawn from this chain's generator before any step uniforms).
        curvature_mode: Curvature flavor for the curved kinds.
        epsilon_floor: Floor applied to ``|F|`` (see module docstring).
        burn_in: Transitions advanced before the first recorded sample.
    """

    kind: str
    seed: int
    max_steps: int
    start_node: int | str = "random"
    curvature_mode: str = "combinatorial"
    epsilon_floor: float = DEFAULT_EPSILON_FLOOR
    burn_in: int = 0

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}")
        if self.curvature_mode not in CURVATURE_MODES:
            raise ValueError(f"unknown curvature mode {self.curvature_mode!r}")
        for name in ("seed", "max_steps", "burn_in"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        object.__setattr__(self, "epsilon_floor",
                           _real(self.epsilon_floor, "epsilon_floor"))
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if not 0 <= self.epsilon_floor < np.inf:
            raise ValueError("epsilon_floor must be finite and >= 0")
        if isinstance(self.start_node, str):
            if self.start_node != "random":
                raise ValueError("start_node must be a node id or 'random'")
        else:
            object.__setattr__(self, "start_node",
                               _integer(self.start_node, "start_node"))
            if self.start_node < 0:
                raise ValueError("start_node must be >= 0")


@dataclass(frozen=True)
class ChainTrace:
    """One chain realization.

    ``visits[0]`` is the (post burn-in) start node and ``len(visits)`` equals
    ``config.max_steps``. ``distinct_count_at_step[k]`` counts the unique
    nodes among ``visits[:k + 1]``.
    """

    config: SamplerConfig
    start: int
    visits: np.ndarray
    distinct_count_at_step: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.visits)


@dataclass(frozen=True)
class TransitionMatrix:
    """Dense row-stochastic kernel of a configured sampler (diagnostic)."""

    kind: str
    matrix: np.ndarray


def make_target(g: WeightedGraph, curvmap: CurvatureMap | None = None,
                kind: str = "curved",
                epsilon_floor: float = DEFAULT_EPSILON_FLOOR) -> np.ndarray:
    """Unnormalized MH target density over nodes.

    ``curved`` gives ``max(|F(i)|, epsilon_floor) / d(i)``; ``uniform`` gives
    1 everywhere. Isolated nodes are excluded from the support (density 0) in
    both kinds: no crawl can reach them.

    Raises:
        ValueError: curved kind without a curvature map, or a density that is
            zero everywhere (all-zero ``|F|`` with ``epsilon_floor = 0``).
    """
    if kind not in TARGET_KINDS:
        raise ValueError(f"unknown target kind {kind!r}")
    live = g.degrees > 0
    if kind == "uniform":
        target = np.where(live, 1.0, 0.0)
    else:
        if curvmap is None:
            raise ValueError("curved target requires a curvature map")
        if not 0 <= epsilon_floor < np.inf:
            raise ValueError("epsilon_floor must be finite and >= 0")
        dens = np.maximum(np.abs(curvmap.node_values), epsilon_floor)
        target = np.where(live, dens / np.maximum(g.degrees, 1), 0.0)
        if g.node_count and float(target.max()) == 0.0:
            raise ValueError(
                "curved target density is zero everywhere; "
                "set a positive epsilon_floor")
    target.setflags(write=False)
    return target


def _edge_weights(g: WeightedGraph, abs_edge_curv: np.ndarray | None,
                  epsilon_floor: float) -> np.ndarray:
    """Unnormalized move weights of every half-edge, aligned with ``adj_neighbors``.

    ``abs_edge_curv = None`` means the uniform kernel. For the curved kernel
    the weight from ``i`` toward neighbor ``j`` is ``max(|F(<i,j>)|, floor) /
    d(j)``, except that a row whose curvatures are all ``<= floor`` falls back
    to a uniform row.
    """
    weights = np.ones(len(g.adj_neighbors), dtype=np.float64)
    if abs_edge_curv is None or not len(weights):
        return weights
    f = abs_edge_curv[g.adj_edge_ids]
    live = g.degrees > 0
    row_max = np.zeros(g.node_count)
    row_max[live] = np.maximum.reduceat(f, g.adj_indptr[:-1][live])
    curved = np.repeat(row_max > epsilon_floor, g.degrees)
    weights[curved] = (np.maximum(f[curved], epsilon_floor)
                       / g.degrees[g.adj_neighbors[curved]])
    return weights


def _cumulative_rows(g: WeightedGraph, weights: np.ndarray) -> np.ndarray:
    """Normalized running sums of each CSR row of ``weights``.

    Every row is accumulated left to right, exactly as ``np.cumsum`` of the
    row alone, divided by its total, and ends at exactly 1.0 so that no
    uniform in [0, 1) can fall past the row's last neighbor.
    """
    cum = np.empty_like(weights)
    if not len(cum):
        return cum
    deg = g.degrees
    # rows by descending degree, so the rows still open at position k are a prefix
    order = np.argsort(-deg, kind="stable")
    starts = g.adj_indptr[:-1][order]
    open_rows = np.searchsorted(-deg[order], -np.arange(int(deg.max())), side="left")
    running = np.zeros(int(open_rows[0]))
    for k, n_open in enumerate(open_rows.tolist()):
        pos = starts[:n_open] + k
        running = running[:n_open] + weights[pos]
        cum[pos] = running
    live = deg > 0
    ends = g.adj_indptr[1:][live] - 1
    cum /= np.repeat(cum[ends], deg[live])
    cum[ends] = 1.0
    return cum


def _resolve_curvmap(g, config, curvmap):
    needs = config.kind == "edge_curved" or config.kind == "node_mh_curved"
    if needs and curvmap is None:
        curvmap = compute_curvature_map(g, config.curvature_mode)
    return curvmap


def _resolve_target(g, config, curvmap, target):
    if target is not None:
        return target
    if config.kind == "node_mh_curved":
        return make_target(g, curvmap, "curved", config.epsilon_floor)
    return make_target(g, None, "uniform")


def _resolve_start(g, config, rng, target):
    eligible = np.flatnonzero(g.degrees > 0)
    if config.start_node == "random":
        if eligible.size == 0:
            raise ValueError("graph has no non-isolated node to start from")
        start = int(eligible[int(rng.integers(0, eligible.size))])
    else:
        start = g._check_node(config.start_node)
        if g.degrees[start] == 0:
            raise ValueError(f"start node {start} is isolated")
    if target is not None and not target[start] > 0:
        raise ValueError(f"target density is zero at start node {start}")
    return start


def _is_mh(kind: str) -> bool:
    return kind.startswith("node_mh")


def _kernel_table(g, config, curvmap=None, target=None):
    """``(table, target)`` of a configured kernel, for both chain drivers
    and :func:`build_transition_matrix`.

    Edge kinds: the normalized cumulative move probabilities of every CSR
    row (:func:`_cumulative_rows`); a step moves to the neighbor at the count
    of row entries ``<= u``. MH kinds: ``h(i) = g(i) / d(i)`` per node, the
    quantity the acceptance test compares. ``target`` is None for edge kinds.
    """
    curvmap = _resolve_curvmap(g, config, curvmap)
    if _is_mh(config.kind):
        target = _resolve_target(g, config, curvmap, target)
        return target / np.maximum(g.degrees, 1), target
    abs_curv = np.abs(curvmap.edge_values) if config.kind == "edge_curved" else None
    return _cumulative_rows(g, _edge_weights(g, abs_curv, config.epsilon_floor)), None


def run_chain(g: WeightedGraph, config: SamplerConfig,
              curvmap: CurvatureMap | None = None,
              target: np.ndarray | None = None) -> ChainTrace:
    """Run one chain; the trace is a pure function of (graph, config).

    ``curvmap`` and ``target`` are optional precomputed inputs (they are
    derived from the config when omitted). This is the single-chain driver;
    :func:`run_lockstep` runs many chains at once and reproduces it exactly.
    """
    if g.node_count == 0:
        raise ValueError("cannot sample an empty graph")
    table, target = _kernel_table(g, config, curvmap, target)
    rng = make_rng(config.seed)
    start = _resolve_start(g, config, rng, target)
    # plain lists index fastest in a Python loop; CSR row i is lo[i]:hi[i]
    nbrs, lookup = g.adj_neighbors.tolist(), table.tolist()
    lo, hi = g.adj_indptr[:-1].tolist(), g.adj_indptr[1:].tolist()
    deg = g.degrees.tolist()
    walk = [start]
    append = walk.append
    cur = start
    # the start is validated non-isolated and moves follow edges, so every
    # visited node has degree >= 1
    left = config.burn_in + config.max_steps - 1
    while left:
        block = min(left, _TIME_CHUNK)
        left -= block
        if _is_mh(config.kind):
            us = iter(rng.random(2 * block).tolist())
            for u, v in zip(us, us):
                d = deg[cur]
                y_idx = int(u * d)
                if y_idx == d:  # u * d can round up to d when u is within an ulp of 1
                    y_idx = d - 1
                y = nbrs[lo[cur] + y_idx]
                if v * lookup[cur] <= lookup[y]:
                    cur = y
                append(cur)
        else:
            for u in rng.random(block).tolist():
                cur = nbrs[bisect_right(lookup, u, lo[cur], hi[cur])]
                append(cur)

    visits = np.array(walk[config.burn_in:], dtype=np.int64)
    distinct = distinct_prefix_counts(visits)
    visits.setflags(write=False)
    distinct.setflags(write=False)
    return ChainTrace(config=config, start=int(visits[0]), visits=visits,
                      distinct_count_at_step=distinct)


def run_lockstep(g: WeightedGraph, configs) -> np.ndarray:
    """Run many chains in lockstep; row ``c`` equals ``run_chain(g, configs[c]).visits``.

    Chains of the edge kinds advance together as one numpy vector, one
    vectorized step per time index, and so do chains of the MH kinds. Each
    kernel table is built once and stacked with the others of its family;
    a chain finds its own by an offset. Every chain keeps its own generator
    and draws from it, ``_TIME_CHUNK`` steps at a time, the stream prefix
    :func:`run_chain` consumes, so the result is bit-identical to running
    the chains one by one. All configs must share ``max_steps``.

    Returns:
        ``(len(configs), max_steps)`` int64 array of visited node ids.
    """
    configs = tuple(configs)
    if g.node_count == 0:
        raise ValueError("cannot sample an empty graph")
    if not configs:
        raise ValueError("lockstep needs at least one chain")
    n = configs[0].max_steps
    if any(cfg.max_steps != n for cfg in configs):
        raise ValueError("lockstep chains must share max_steps")
    curvmaps = {}
    kernels = {}  # (kind, curvature_mode, epsilon_floor) -> (index in family, target)
    families = {False: ([], []), True: ([], [])}  # is_mh -> (tables, chains)
    for row, cfg in enumerate(configs):
        key = (cfg.kind, cfg.curvature_mode, cfg.epsilon_floor)
        if key not in kernels:
            curvmap = _resolve_curvmap(g, cfg, curvmaps.get(cfg.curvature_mode))
            if curvmap is not None:
                curvmaps[cfg.curvature_mode] = curvmap
            table, target = _kernel_table(g, cfg, curvmap)
            tables = families[_is_mh(cfg.kind)][0]
            kernels[key] = (len(tables), target)
            tables.append(table)
        index, target = kernels[key]
        rng = make_rng(cfg.seed)
        start = _resolve_start(g, cfg, rng, target)
        families[_is_mh(cfg.kind)][1].append((row, index, start, cfg.burn_in, rng))

    visits = np.empty((len(configs), n), dtype=np.int64)
    for is_mh, (tables, chains) in families.items():
        if chains:
            _lockstep_family(g, is_mh, tables, chains, visits)
    visits.setflags(write=False)
    return visits


def _lockstep_family(g, is_mh, tables, chains, visits):
    """Advance one family's chains together and record them into ``visits``.

    A chain's state is ``index * V + node`` (``index`` picks its kernel's
    table), so one gather serves every kernel. Chains whose burn-in is below
    the family's longest run a few extra steps at the end; those are drawn
    from their own generators and not recorded.
    """
    V, H = g.node_count, len(g.adj_neighbors)
    rows, index, starts, burn, rngs = zip(*chains)
    rows, burn = np.array(rows), np.array(burn)
    node_off = np.array(index, dtype=np.int64) * V
    state = node_off + np.array(starts, dtype=np.int64)
    n = visits.shape[1]
    stack = np.arange(len(tables), dtype=np.int64)[:, None]
    row_lo = (g.adj_indptr[:-1] + stack * H).ravel()  # per stacked state
    row_last = (g.adj_indptr[1:] - 1 + stack * H).ravel()
    nbr = (g.adj_neighbors + stack * V).ravel()  # per stacked half-edge
    table = np.concatenate(tables)
    groups = [(b, np.flatnonzero(burn == b)) for b in np.unique(burn).tolist()]

    def record(states, t0):
        """Store ``states`` (one row per time index from ``t0``)."""
        for b, cols in groups:
            lo, hi = max(t0, b), min(t0 + len(states), b + n)
            if lo < hi:
                visits[rows[cols], lo - b:hi - b] = \
                    (states[lo - t0:hi - t0, cols] - node_off[cols]).T

    record(state[None, :], 0)
    width = len(rngs)
    draws = 2 if is_mh else 1
    if is_mh:
        deg = np.tile(g.degrees.astype(np.float64), len(tables))
    else:
        guide, m, wide = _guide_table(g, table, len(tables))
        at = np.empty(width, dtype=np.int64)
        cand = np.empty(width, dtype=np.int64)
    below = np.empty(width, dtype=bool)
    u_all = np.empty((width, draws * _TIME_CHUNK))
    total = int(burn.max()) + n - 1
    t = 0
    while t < total:
        block = min(_TIME_CHUNK, total - t)
        for c, rng in enumerate(rngs):
            rng.random(out=u_all[c, :draws * block])
        out = np.empty((block, width), dtype=np.int64)
        if is_mh:
            proposals = np.ascontiguousarray(u_all[:, 0:2 * block:2].T)
            accepts = np.ascontiguousarray(u_all[:, 1:2 * block:2].T)
            for i in range(block):
                # int(u * d), clamped to d - 1 when u * d rounds up to d
                pos = row_lo[state] + (proposals[i] * deg[state]).astype(np.int64)
                np.minimum(pos, row_last[state], out=pos)
                y = nbr[pos]
                np.less_equal(accepts[i] * table[state], table[y], out=below)
                np.copyto(state, y, where=below)
                out[i] = state
        else:
            us = np.ascontiguousarray(u_all[:, :block].T)
            # out[i] holds the guide cells k = floor(u * m) of step i until
            # the step overwrites it with the states; exact, since m is a
            # power of two
            np.multiply(us, m, out=out, casting="unsafe")
            for i in range(block):
                # bisect_right: the count of row entries <= u lies in u's
                # guide cell; from its first position, take each halving
                # step whose last entry is <= u. A probe past the row reads
                # the row's last entry, 1.0 > u; the step of 1 never passes it
                np.multiply(state, m + 1, out=at)
                np.add(at, out[i], out=at)
                pos = guide[at]
                if wide:
                    last = row_last[state]
                for step in wide:
                    np.add(pos, step - 1, out=cand)
                    np.minimum(cand, last, out=cand)
                    np.less_equal(table[cand], us[i], out=below)
                    np.add(pos, step, out=pos, where=below)
                np.less_equal(table[pos], us[i], out=below)
                pos += below
                state = nbr[pos]
                out[i] = state
        record(out, t + 1)
        t += block


def _guide_table(g, table, n_tables):
    """Guide table of the stacked cumulative rows (Chen & Asau 1974).

    Returns ``(guide, m, wide)``. ``m`` is a power of two: at least two cells
    per entry of the longest row, but at most 16 guide entries per stacked
    half-edge. ``guide[s * (m + 1) + k]`` is the stacked position of state
    ``s``'s row start plus the count of its entries ``<= k / m``, so entry
    ``k = m`` is the row's end. ``x <= k / m`` holds exactly when
    ``ceil(x * m) <= k``, and ``x * m`` is exact, so one ``bincount`` of the
    ceilings and one ``cumsum`` build the table. A uniform ``u`` in cell
    ``k = floor(u * m)`` has ``k / m <= u < (k + 1) / m``, so the count of
    row entries ``<= u`` lies between guide entries ``k`` and ``k + 1``.
    ``wide`` are the descending halving steps above 1 that, with a last step
    of 1, bisect the fullest cell.
    """
    V, H = g.node_count, len(g.adj_neighbors)
    m = 1 << min(int(2 * g.degrees.max() - 1).bit_length(),
                 max(16 * H // V, 1).bit_length() - 1)
    owner = np.repeat(np.arange(n_tables * V), np.tile(g.degrees, n_tables))
    counts = np.bincount(owner * (m + 1) + np.ceil(table * m).astype(np.int64),
                         minlength=n_tables * V * (m + 1))
    fullest = int(counts.reshape(-1, m + 1)[:, 1:].max())
    wide = [1 << j for j in reversed(range(1, fullest.bit_length()))]
    return np.cumsum(counts, out=counts), m, wide


def distinct_prefix_counts(visits: np.ndarray) -> np.ndarray:
    """Number of unique nodes in each prefix of a visit sequence."""
    n = len(visits)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    first = np.full(int(visits.max()) + 1, n)  # n marks a node never visited
    np.minimum.at(first, visits, np.arange(n))
    mask = np.zeros(n + 1, dtype=bool)
    mask[first] = True
    return np.cumsum(mask[:n], dtype=np.int64)


def build_transition_matrix(g: WeightedGraph, config: SamplerConfig,
                            curvmap: CurvatureMap | None = None,
                            target: np.ndarray | None = None,
                            size_guard: int = 2000) -> TransitionMatrix:
    """Exact dense kernel of the configured sampler, read off the table the
    chains sample (:func:`_kernel_table`).

    Edge rows are the step widths of each cumulative row and have a zero
    diagonal. MH rows move to neighbor ``y`` with probability
    ``min(1, h(y) / h(i)) / d(i)`` and carry the total rejection mass on the
    diagonal. Rows of isolated nodes (and of nodes outside the target
    support) are absorbing so the matrix stays stochastic.
    """
    if g.node_count > size_guard:
        raise ValueError(
            f"transition matrix limited to {size_guard} nodes, "
            f"graph has {g.node_count}")
    table, target = _kernel_table(g, config, curvmap, target)
    V = g.node_count
    src = np.repeat(np.arange(V), g.degrees)  # tail node of every half-edge
    dst = g.adj_neighbors
    P = np.zeros((V, V), dtype=np.float64)
    moving = g.degrees > 0
    if _is_mh(config.kind):
        moving &= target > 0
        half = moving[src]
        src, dst = src[half], dst[half]
        accept = np.minimum(1.0, table[dst] / table[src])
        P[src, dst] = accept / g.degrees[src]
        stay = np.flatnonzero(moving)
        P[stay, stay] = 1.0 - (np.bincount(src, weights=accept, minlength=V)[stay]
                               / g.degrees[stay])
    else:
        # the width of each step of the cumulative row the chains bisect
        steps = np.diff(table, prepend=0.0)
        firsts = g.adj_indptr[:-1][moving]
        steps[firsts] = table[firsts]
        P[src, dst] = steps
    absorbing = np.flatnonzero(~moving)
    P[absorbing, absorbing] = 1.0
    P.setflags(write=False)
    return TransitionMatrix(kind=config.kind, matrix=P)


def stationary_distribution(tm: TransitionMatrix | np.ndarray) -> np.ndarray:
    """Stationary law pi with pi P = pi, sum(pi) = 1, by GTH elimination.

    The Grassmann-Taksar-Heyman reduction uses no subtractions, so the
    result keeps full relative accuracy even for nearly reducible kernels
    (for example chains whose irreducibility hangs on an epsilon floor).

    Raises:
        numpy.linalg.LinAlgError: the kernel is reducible (no unique
            stationary distribution).
    """
    P = tm.matrix if isinstance(tm, TransitionMatrix) else np.asarray(tm)
    P = P.astype(np.float64, copy=True)
    n = P.shape[0]
    if n == 0 or P.shape != (n, n):
        raise ValueError("transition matrix must be square and non-empty")
    for k in range(n - 1, 0, -1):
        s = float(P[k, :k].sum())
        if not s > 0:
            raise np.linalg.LinAlgError(
                "kernel is reducible; no unique stationary distribution")
        P[:k, k] /= s
        P[:k, :k] += np.outer(P[:k, k], P[k, :k])
    pi = np.empty(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = float(pi[:k] @ P[:k, k])
    return pi / pi.sum()
