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
experiment is seeded with ``master_seed XOR splitmix64(c)`` and given the
experiment's start ``c``, whatever its sampler, so samplers are paired.

Two drivers share one table per kernel, built once per run (the chains are
time-homogeneous): :func:`run_chain` runs one chain in a scalar loop and
returns its read-only int64 visits array, and the lockstep engine
(:func:`_lockstep_stream`) runs every template from every chain index's
seed and start, one family per burn-in whatever the templates' kinds, as
numpy vectors, and reproduces :func:`run_chain` exactly. It yields the
visits a block of steps at a time, which experiments fold as they come; no
chains x steps matrix is ever held.

The engine's working set is a few buffers as wide as a family's chains. A
family of ``K`` templates and ``C`` chain indices keeps ``K x C`` states,
one cell table of about five words per half-edge and template, and, for
each step rule it holds, ``C`` generators and a chain-major buffer in which
each generator draws ``_DRAW_STEPS`` steps of uniforms into its own row.
Each draw is copied once, ``_WINDOW`` steps at a time, transposed and
broadcast to every template of its rule, ``_COPY_CHAINS`` chain indices at
a time so that each group's copy stays in cache. Each block of visits is a
fresh array whose recorded rows become node ids in place, one template's
columns at a time.

An MH step costs O(1) and one comparison. It proposes the neighbor at
``int(u * d)`` of the current row and accepts when ``v <= t``, where ``t``
is the half-edge's acceptance threshold: the largest double in [0, 1] with
``fl(t * h(s)) <= h(y)`` for ``h = g / d`` (:func:`_acceptance_thresholds`).
``fl(v * h(s))`` is monotone in ``v``, so ``v <= t`` is exactly the test
``v * h(s) <= h(y)`` of the formula, for every uniform ``v``. The proposal
index needs no clamp: for a double ``u <= 1 - 2**-53`` (the largest uniform
PCG64 gives) and an integer ``1 <= d < 2**53``, ``fl(u * d) < d``. The
exact product is at most ``d - d * 2**-53``. If ``d`` is a power of two,
that value is the double just below ``d``; otherwise ``d * 2**-53`` is more
than half the spacing of the doubles around ``d``, so the product rounds
to a double below ``d``. Either way ``int(u * d) <= d - 1``.

An edge step moves to the neighbor at the count of row entries ``<= u`` of
the row's cumulative move probabilities; the scalar loop bisects the whole
row in O(log d).

The lockstep engine takes every step, of any kind, by one rule on a cell
table (:func:`_cell_table`): ``cell = base[s] + int(u * width[s])``, ``pos
= first[cell]``, ``pos += x > thresh[pos]``, ``s = nbr[pos]``. An MH row's
cells are its half-edges and ``width = d(s)``, so the cell is
:func:`run_chain`'s own proposal ``int(u * d)``; ``x`` is the accept
uniform ``v``, and the cell's two positions hold the threshold with the
neighbor, then ``+inf`` with the node itself. An edge row's cells are a
guide table kept per node (Chen & Asau 1974; Devroye 1986, section
III.2.4): a power of two ``m_s >= 2 d(s)`` of equal cells of [0, 1), and
``x = u``. Scaling by a power of two is exact, so ``k = int(u * m_s)``
satisfies ``k / m_s <= u < (k + 1) / m_s``, and ``first`` counts the row
entries ``<= k / m_s`` without rounding. Entries counted there are ``<= u``;
entries ``>= (k + 1) / m_s`` are ``> u``; so only the entries strictly
inside cell ``k`` are left to count. Each position's threshold is the
double just below its entry, so ``x > thresh[pos]`` is exactly ``entry <=
u``. A row is refined until no cell holds two entries strictly inside it,
so that one comparison finishes the count of ``bisect_right``; a row still
crowded at ``16 d(s)`` cells makes the family take halving steps first.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .curvature import CURVATURE_MODES, CurvatureMap, _NodeError, compute_curvature_map
from .graph import WeightedGraph

SAMPLER_KINDS = ("edge_curved", "edge_uniform", "node_mh_curved", "node_mh_uniform")
TARGET_KINDS = ("curved", "uniform")
GENERATOR_NAME = "pcg64"
DEFAULT_EPSILON_FLOOR = 1e-9

_MASK64 = (1 << 64) - 1
# steps of uniforms run_chain draws at a time, and the most steps of a block
# the lockstep engine yields: a family of all four kinds then holds blocks
# no larger than 1024-step ones of two kinds
_TIME_CHUNK = 1 << 9
# steps of uniforms each generator of a lockstep family draws at a time, a
# multiple of _WINDOW: each step rule of a family keeps a buffer of draws x
# _DRAW_STEPS uniforms per chain index
_DRAW_STEPS = 1 << 8
# steps whose draws a lockstep family copies to all its templates at once,
# which costs less than a copy per step or a broadcast in each call
_WINDOW = 32
# chain indices whose window of draws a lockstep family copies, transposed,
# at once: a group's copy stays in cache, where a copy of every chain
# index's window did not
_COPY_CHAINS = 32
# most nodes a dense transition matrix is built for (2000 nodes is 32 MB)
_MATRIX_MAX_NODES = 2000


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


def make_target(g: WeightedGraph, curvmap: CurvatureMap | None = None,
                kind: str = "curved",
                epsilon_floor: float = DEFAULT_EPSILON_FLOOR) -> np.ndarray:
    """Unnormalized MH target density over nodes.

    ``curved`` gives ``max(|F(i)|, epsilon_floor) / d(i)``; ``uniform`` gives
    1 everywhere. Isolated nodes are excluded from the support (density 0) in
    both kinds: no crawl can reach them.

    Raises:
        ValueError: curved kind without a curvature map, or a density that is
            zero everywhere (a graph without edges, or all-zero ``|F|`` with
            ``epsilon_floor = 0``).
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
            hint = ("set a positive epsilon_floor" if live.any()
                    else "the graph has no edges")
            raise ValueError(f"curved target density is zero everywhere; {hint}")
    target.setflags(write=False)
    return target


def _edge_rows(g: WeightedGraph, abs_edge_curv: np.ndarray | None,
               epsilon_floor: float) -> np.ndarray:
    """Normalized cumulative move probabilities of every CSR row, aligned
    with ``adj_neighbors``.

    ``abs_edge_curv = None`` means the uniform kernel. For the curved kernel
    the weight from ``i`` toward neighbor ``j`` is ``max(|F(<i,j>)|, floor) /
    d(j)``, except that a row whose curvatures are all ``<= floor`` falls back
    to a uniform row. Every row is accumulated left to right, exactly as
    ``np.cumsum`` of the row alone, divided by its total, and ends at exactly
    1.0 so that no uniform in [0, 1) can fall past the row's last neighbor.
    The rows of one degree ``d`` are done at once, as a dense ``(rows, d)``
    block of CSR positions.
    """
    cum = np.empty(len(g.adj_neighbors))
    # the degrees present; np.unique would import numpy.ma, ~10 ms of set-up
    for d in np.flatnonzero(np.bincount(g.degrees)[1:]) + 1:
        pos = g.adj_indptr[:-1][g.degrees == d, None] + np.arange(d)
        w = np.ones(pos.shape)
        if abs_edge_curv is not None:
            f = abs_edge_curv[g.adj_edge_ids[pos]]
            curved = f.max(axis=1) > epsilon_floor
            w[curved] = (np.maximum(f[curved], epsilon_floor)
                         / g.degrees[g.adj_neighbors[pos[curved]]])
        w = np.cumsum(w, axis=1)
        w /= w[:, -1:]
        w[:, -1] = 1.0
        cum[pos] = w
    return cum


def _resolve_curvmap(g, config, curvmap):
    needs = config.kind == "edge_curved" or config.kind == "node_mh_curved"
    if needs and curvmap is None:
        curvmap = compute_curvature_map(g, config.curvature_mode)
    return curvmap


def _resolve_target(g, config, curvmap, target):
    if target is None:
        if config.kind == "node_mh_curved":
            target = make_target(g, curvmap, "curved", config.epsilon_floor)
        else:
            target = make_target(g, None, "uniform")
    # the acceptance thresholds are exact for finite h >= 0 only
    if not (np.isfinite(target).all() and (target >= 0).all()):
        raise ValueError("target density must be finite and >= 0")
    return target


def _check_start(g, start, target):
    """``start`` as a node id; refused when it is out of range, isolated, or
    outside the support of ``target`` (None for the edge kinds)."""
    start = g._check_node(start)
    if g.degrees[start] == 0:
        raise _NodeError("start node {} is isolated", start)
    if target is not None and not target[start] > 0:
        raise _NodeError("target density is zero at start node {}", start)
    return start


def _is_mh(kind: str) -> bool:
    return kind.startswith("node_mh")


def _mh_ratio(g, target):
    """``h(i) = g(i) / d(i)`` per node, the quantity the MH acceptance test
    compares (``h = g`` on isolated nodes)."""
    return target / np.maximum(g.degrees, 1)


def _acceptance_thresholds(hs, hy):
    """Per pair of float64 arrays ``hs, hy`` (finite, ``>= 0``), the largest
    double ``t`` in [0, 1] with ``fl(t * hs) <= hy``.

    ``fl(v * hs)`` is monotone in ``v``, so for every double ``v`` in
    [0, 1], ``v <= t`` holds exactly when ``v * hs <= hy`` does. ``t = 1``
    where ``hs <= hy`` (``hs = 0`` included). Elsewhere the quotient
    ``hy / hs`` is within a few ulps of ``t`` and is corrected with
    ``np.nextafter``; a pair whose correction has not settled after a few
    rounds (an underflowing quotient, say) is bisected on its int64 bit
    patterns, which order non-negative doubles as their values.
    """
    t = np.ones(len(hs))
    below = np.flatnonzero(hs > hy)
    hs, hy = hs[below], hy[below]
    q = hy / hs
    for _ in range(4):
        q = np.where(q * hs <= hy, q, np.nextafter(q, 0.0))
        up = np.nextafter(q, 1.0)
        q = np.where(up * hs <= hy, up, q)
    unsettled = np.flatnonzero((q * hs > hy) | (np.nextafter(q, 1.0) * hs <= hy))
    if unsettled.size:
        # t * hs <= hy holds at 0.0 and fails at 1.0, since hs > hy >= 0
        lo = np.zeros(unsettled.size, dtype=np.int64)
        hi = np.full(unsettled.size, np.float64(1.0).view(np.int64))
        while (hi - lo > 1).any():
            mid = (lo + hi) // 2
            ok = mid.view(np.float64) * hs[unsettled] <= hy[unsettled]
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
        q[unsettled] = lo.view(np.float64)
    t[below] = q
    return t


def _kernel_table(g, config, curvmap=None, target=None):
    """``(table, target)`` of a configured kernel, for both chain drivers
    and, for the edge kinds, :func:`build_transition_matrix`.

    Edge kinds: the normalized cumulative move probabilities of every CSR
    row (:func:`_edge_rows`); a step moves to the neighbor at the count
    of row entries ``<= u``. MH kinds: per half-edge ``s -> y``, aligned with
    ``adj_neighbors``, the acceptance threshold
    ``_acceptance_thresholds(h(s), h(y))``; a step proposes the half-edge at
    ``int(u * d(s))`` in the row and accepts when ``v`` is at most its
    threshold, which is exactly the test ``v * h(s) <= h(y)``. ``target`` is
    None for edge kinds.
    """
    curvmap = _resolve_curvmap(g, config, curvmap)
    if _is_mh(config.kind):
        target = _resolve_target(g, config, curvmap, target)
        h = _mh_ratio(g, target)
        return _acceptance_thresholds(h[g.adj_tails], h[g.adj_neighbors]), target
    abs_curv = np.abs(curvmap.edge_values) if config.kind == "edge_curved" else None
    return _edge_rows(g, abs_curv, config.epsilon_floor), None


def run_chain(g: WeightedGraph, config: SamplerConfig,
              curvmap: CurvatureMap | None = None,
              target: np.ndarray | None = None) -> np.ndarray:
    """Run one chain; its visits, ``config.max_steps`` node ids from the start
    after burn-in, are a pure function of (graph, config).

    ``curvmap`` and ``target`` are optional precomputed inputs (they are
    derived from the config when omitted). This is the single-chain driver;
    :func:`_lockstep_stream` runs many chains at once and reproduces it
    exactly.
    """
    if g.node_count == 0:
        raise ValueError("cannot sample an empty graph")
    table, target = _kernel_table(g, config, curvmap, target)
    rng = make_rng(config.seed)
    start = config.start_node
    if start == "random":
        eligible = np.flatnonzero(g.degrees > 0)
        if eligible.size == 0:
            raise ValueError("graph has no non-isolated node to start from")
        start = int(eligible[int(rng.integers(0, eligible.size))])
    start = _check_start(g, start, target)
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
                pos = lo[cur] + int(u * deg[cur])
                if v <= lookup[pos]:
                    cur = nbrs[pos]
                append(cur)
        else:
            for u in rng.random(block).tolist():
                cur = nbrs[bisect_right(lookup, u, lo[cur], hi[cur])]
                append(cur)

    visits = np.array(walk[config.burn_in:], dtype=np.int64)
    visits.setflags(write=False)
    return visits


def _lockstep_stream(g: WeightedGraph, templates, seeds, starts, n):
    """Check every template's kernel against every start; return an iterator
    that runs the chains in lockstep and yields their visits a block at a
    time. ``templates`` and the ``C`` seeds and starts must be non-empty,
    and ``g`` must have a node.

    Every template runs every chain index: chain ``c`` of ``templates[k]``
    equals :func:`run_chain` of the template with
    ``seeds[c]``, ``starts[c]`` and ``n`` for its seed, start and
    ``max_steps``, bit for bit. Templates of one burn-in form a family,
    whatever their kinds, whose chains advance together, one vectorized
    step per time index (:func:`_lockstep_family`); families run one after
    the other, by ascending burn-in. A family makes one generator per step
    rule it holds (edge, then MH) and chain index, which draws,
    ``_DRAW_STEPS`` steps at a time, exactly the stream prefix
    :func:`run_chain` consumes, for every template of that rule.

    It yields ``(k, k0, states)``: ``k0`` is the recorded step at which the
    block starts, and ``states`` is a ``(steps, C)`` int64 array of node
    ids, time along the first axis, so ``states[i, c]`` is visit ``k0 + i``
    of chain ``c`` of ``templates[k]``. The templates of one family arrive
    together. The blocks of each template arrive in time order, one after
    the other, and hold each of its chains' ``n`` visits once. Each block
    spans at least one step and at most ``_TIME_CHUNK``.
    """
    curvmaps = {}
    # burn_in -> (template, kernel) of each member; a family builds their
    # tables when it starts, so no two families' tables are held
    families = {}
    for k, cfg in enumerate(templates):
        curvmap = curvmaps[cfg.curvature_mode] = _resolve_curvmap(
            g, cfg, curvmaps.get(cfg.curvature_mode))
        target = _resolve_target(g, cfg, curvmap, None) if _is_mh(cfg.kind) else None
        for start in starts:
            _check_start(g, start, target)
        families.setdefault(cfg.burn_in, []).append((k, (cfg, curvmap, target)))
    return (block for burn, members in sorted(families.items())
            for block in _lockstep_family(g, burn, members, seeds, starts, n))


def _lockstep_family(g, burn, members, seeds, starts, n):
    """Advance one family's chains together, each ``burn + n - 1`` steps,
    and yield their recorded visits as :func:`_lockstep_stream` does, ``n``
    per chain.

    ``members`` lists ``(template, (config, curvmap, target))`` of the
    family's ``K`` templates, whose tables (:func:`_kernel_table`) are built
    into one cell table (:func:`_cell_table`) when the family starts. The
    state holds ``C`` chains of each template in turn, edge templates
    first, those of the ``j``-th template at the stacked nodes
    ``j * V + node``, so one gather serves every template. Each step rule
    makes one generator per seed, which draws a block's uniforms into its
    own row of its rule's buffer; ``_WINDOW`` steps at a time, they are
    copied to all the rule's templates as each step's ``(u, x)``: an MH
    step's proposal and accept uniforms, or an edge step's one uniform
    twice.
    """
    V = g.node_count
    members = sorted(members, key=lambda member: _is_mh(member[1][0].kind))
    ks, kernels = zip(*members)
    K, C = len(ks), len(seeds)
    edges = sum(not _is_mh(cfg.kind) for cfg, _, _ in kernels)
    base, width, first, thresh, nbr, row_last, wide = _cell_table(
        g, [(_is_mh(kernel[0].kind), _kernel_table(g, *kernel)[0]) for kernel in kernels])
    # per step rule, kept for every block: its generators, their
    # chain-major uniforms (one per edge step, two per MH step) and its
    # templates
    rules = [([make_rng(seed) for seed in seeds], np.empty((C, draws * _DRAW_STEPS)),
              draws, j0, j1)
             for draws, j0, j1 in ((1, 0, edges), (2, edges, K)) if j0 < j1]
    state = (np.array(starts, dtype=np.int64) + np.arange(K)[:, None] * V).ravel()

    def recorded(states, t0):
        """The recorded rows of ``states`` (one per time index from ``t0``,
        an array the caller gives up), each template's columns as node ids,
        converted in place."""
        if t0 + len(states) > burn:
            states = states[max(burn - t0, 0):]
            for j, k in enumerate(ks):
                nodes = states[:, j * C:(j + 1) * C]
                nodes -= j * V
                yield k, max(t0 - burn, 0), nodes

    # the start row is the live state, so it is converted in a copy
    yield from recorded(state[None, :].copy(), 0)
    # a window's (u, x) of every step, per template and then in state order
    near = np.empty((_WINDOW, 2, K, C))
    flat = near.reshape(_WINDOW, 2, K * C)
    below = np.empty(K * C, dtype=bool)
    cand = np.empty(K * C, dtype=np.int64)
    total = burn + n - 1
    t = 0
    while t < total:
        block = min(_TIME_CHUNK, total - t)
        out = np.empty((block, K * C), dtype=np.int64)
        for w0 in range(0, block, _WINDOW):
            w1 = min(w0 + _WINDOW, block)
            d0 = w0 % _DRAW_STEPS  # the window's first step in the draws
            if d0 == 0:
                for rngs, uniforms, draws, _, _ in rules:
                    for rng, row in zip(rngs, uniforms):
                        rng.random(out=row[:draws * min(_DRAW_STEPS, block - w0)])
            for _, uniforms, draws, j0, j1 in rules:
                by_step = uniforms.reshape(C, _DRAW_STEPS, draws)[:, d0:d0 + w1 - w0]
                for c0 in range(0, C, _COPY_CHAINS):
                    c1 = c0 + _COPY_CHAINS
                    np.copyto(near[:w1 - w0, :, j0:j1, c0:c1],
                              by_step[c0:c1].transpose(1, 2, 0)[:, :, None])
            for i, (u, x) in zip(range(w0, w1), flat):
                # the cell of u in the state's row, its first position, and
                # one step on per threshold below x (see _cell_table)
                cell = base[state]
                cell += (u * width[state]).astype(np.int64)
                pos = first[cell]
                if wide:
                    last = row_last[state]
                for step in wide:
                    np.add(pos, step - 1, out=cand)
                    np.minimum(cand, last, out=cand)
                    np.greater(x, thresh[cand], out=below)
                    np.add(pos, step, out=pos, where=below)
                np.greater(x, thresh[pos], out=below)
                pos += below
                state = nbr[pos]
                out[i] = state
        yield from recorded(out, t + 1)
        t += block


def _edge_cells(g, cum):
    """Per node, the number ``m_s`` of equal cells of [0, 1) that the
    lockstep engine's guide keeps for an edge kernel's cumulative rows
    ``cum``.

    ``m_s`` is the least power of two ``>= 2 d(s)``, doubled while two of
    the row's entries lie strictly inside one cell and the doubled count is
    at most ``16 d(s)``; an isolated node gets 2 cells. Entries ``a <= b``
    of a row lie strictly inside one cell exactly when
    ``floor(b * m) < ceil(a * m)``, and both products are exact.
    """
    d = g.degrees
    m = np.int64(1) << np.frexp(2 * d - 1)[1]
    # the pairs of neighboring entries of one row
    inner = np.flatnonzero(g.adj_tails[1:] == g.adj_tails[:-1])
    owner, a, b = g.adj_tails[inner], cum[inner], cum[inner + 1]
    for _ in range(3):
        at = m[owner]
        grow = np.zeros(len(d), dtype=bool)
        grow[owner[np.floor(b * at) < np.ceil(a * at)]] = True
        grow &= 2 * m <= 16 * d
        if not grow.any():
            break
        m[grow] *= 2
    return m


def _cell_table(g, tables):
    """The cell table of a lockstep family: per stacked state, a row of
    cells; per cell, a first position; per position, a threshold and a next
    state.

    ``tables`` lists ``(is_mh, table)`` of the family's templates, each as
    :func:`_kernel_table` builds it; template ``j``'s states are the stacked
    nodes ``j * V + node``. Returns ``(base, width, first, thresh, nbr,
    row_last, wide)``. A step from state ``s`` with uniforms ``u`` and ``x``
    takes ``cell = base[s] + int(u * width[s])`` and ``pos = first[cell]``,
    then for each halving step of ``wide`` moves ``pos`` on by the step when
    ``x > thresh[min(pos + step - 1, row_last[s])]``, then by one when
    ``x > thresh[pos]``, and goes to ``nbr[pos]``.

    MH kinds (``x = v``): a node's cells are its half-edges, ``width =
    d(s)``, so ``cell`` is the half-edge :func:`run_chain` proposes. Cell
    ``h`` leads to positions ``2h`` and ``2h + 1``, which hold the
    half-edge's acceptance threshold and its neighbor, then ``+inf`` and
    the node itself: the step moves exactly when ``v <= t``. An odd
    position's ``+inf`` is never passed, and every halving step lands on
    one, so MH rows need no clamp.

    Edge kinds (``x = u``): a node's ``m_s`` cells (:func:`_edge_cells`) cut
    [0, 1) into equal parts; ``first`` is the row start plus the count of
    row entries ``<= k / m_s`` of cell ``k``, and each CSR position holds
    ``nextafter(entry, -inf)``, so ``x > thresh[pos]`` is ``entry <= u``.
    ``wide`` are the descending halving steps above 1 that, with a last step
    of 1, reach across the most entries strictly inside any cell; a row's
    last entry is 1.0, which no uniform reaches, and clamps the steps.
    """
    V, H = g.node_count, len(g.adj_neighbors)
    hi = g.adj_indptr[1:]
    widths = [g.degrees if is_mh else _edge_cells(g, table) for is_mh, table in tables]
    # filled in place, each template's slice in turn: no full-size temporaries
    base = np.empty(len(tables) * V, dtype=np.int64)
    width = np.empty(len(tables) * V)
    row_last = np.empty(len(tables) * V, dtype=np.int64)
    first = np.empty(int(sum(m.sum() for m in widths)), dtype=np.int64)
    thresh = np.empty(sum(2 * H if is_mh else H for is_mh, _ in tables))
    nbr = np.empty(len(thresh), dtype=np.int64)
    cell0 = slot0 = fullest = 0
    for j, ((is_mh, table), m) in enumerate(zip(tables, widths)):
        states = slice(j * V, (j + 1) * V)
        width[states] = m
        np.cumsum(m, out=base[states])
        base[states] -= m  # each row's first cell, from the template's
        cells = first[cell0:cell0 + int(m.sum())]
        if is_mh:
            cells[:] = np.arange(slot0, slot0 + 2 * H, 2)
            thresh[slot0:slot0 + 2 * H:2] = table
            thresh[slot0 + 1:slot0 + 2 * H:2] = np.inf
            np.add(g.adj_neighbors, j * V, out=nbr[slot0:slot0 + 2 * H:2])
            np.add(g.adj_tails, j * V, out=nbr[slot0 + 1:slot0 + 2 * H:2])
            row_last[states] = slot0 + 2 * hi - 1
            slot0 += 2 * H
        else:
            at = base[states][g.adj_tails]
            scaled = table * m[g.adj_tails]
            # entry x is counted in the cells k >= ceil(x * m_s), and lies
            # strictly inside cell floor(x * m_s) unless x * m_s is whole
            counts = np.bincount(at + np.ceil(scaled).astype(np.int64),
                                 minlength=len(cells) + 1)
            np.cumsum(counts[:-1], out=cells)
            cells += slot0
            floor = np.floor(scaled)
            inside = np.bincount(at[scaled > floor] + floor[scaled > floor].astype(np.int64))
            fullest = max(fullest, int(inside.max(initial=0)))
            np.nextafter(table, -np.inf, out=thresh[slot0:slot0 + H])
            np.add(g.adj_neighbors, j * V, out=nbr[slot0:slot0 + H])
            row_last[states] = slot0 + hi - 1
            slot0 += H
        base[states] += cell0
        cell0 += len(cells)
    wide = [1 << e for e in reversed(range(1, fullest.bit_length()))]
    return base, width, first, thresh, nbr, row_last, wide


def distinct_prefix_counts(visits: np.ndarray) -> np.ndarray:
    """Number of unique nodes in each prefix of a visit sequence."""
    n = len(visits)
    mask = np.zeros(n + 1, dtype=bool)  # True where a visit reaches a new node
    if n:
        first = np.full(int(visits.max()) + 1, n)  # n marks a node never visited
        np.minimum.at(first, visits, np.arange(n))
        mask[first] = True
    return np.cumsum(mask[:n], dtype=np.int64)


def build_transition_matrix(g: WeightedGraph, config: SamplerConfig,
                            curvmap: CurvatureMap | None = None,
                            target: np.ndarray | None = None) -> np.ndarray:
    """Exact dense kernel ``P`` of the configured sampler, a read-only
    row-stochastic float64 array.

    Edge rows are the step widths of the cumulative rows the chains bisect
    (:func:`_kernel_table`) and have a zero diagonal. MH rows come from the
    formula, not from the chains' acceptance thresholds, so a threshold bug
    cannot cancel itself: they move to neighbor ``y`` with probability
    ``min(1, h(y) / h(i)) / d(i)``, with ``h = g / d`` from the chains'
    target, and carry the total rejection mass on the diagonal. Rows of
    isolated nodes (and of nodes outside the target support) are absorbing
    so the matrix stays stochastic. Graphs of more than 2000 nodes are
    refused.
    """
    if g.node_count > _MATRIX_MAX_NODES:
        raise ValueError(
            f"transition matrix limited to {_MATRIX_MAX_NODES} nodes, "
            f"graph has {g.node_count}")
    V = g.node_count
    src = g.adj_tails
    dst = g.adj_neighbors
    P = np.zeros((V, V), dtype=np.float64)
    moving = g.degrees > 0
    if _is_mh(config.kind):
        target = _resolve_target(g, config, _resolve_curvmap(g, config, curvmap),
                                 target)
        moving &= target > 0
        half = moving[src]
        src, dst = src[half], dst[half]
        h = _mh_ratio(g, target)
        accept = np.minimum(1.0, h[dst] / h[src])
        P[src, dst] = accept / g.degrees[src]
        stay = np.flatnonzero(moving)
        P[stay, stay] = 1.0 - (np.bincount(src, weights=accept, minlength=V)[stay]
                               / g.degrees[stay])
    else:
        # the width of each step of the cumulative row the chains bisect
        table = _kernel_table(g, config, curvmap)[0]
        steps = np.diff(table, prepend=0.0)
        firsts = g.adj_indptr[:-1][moving]
        steps[firsts] = table[firsts]
        P[src, dst] = steps
    absorbing = np.flatnonzero(~moving)
    P[absorbing, absorbing] = 1.0
    P.setflags(write=False)
    return P


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary law pi with pi P = pi, sum(pi) = 1, by GTH elimination.

    The Grassmann-Taksar-Heyman reduction uses no subtractions, so the
    result keeps full relative accuracy even for nearly reducible kernels
    (for example chains whose irreducibility hangs on an epsilon floor).

    Raises:
        numpy.linalg.LinAlgError: the kernel is reducible (no unique
            stationary distribution).
    """
    P = np.array(P, dtype=np.float64)
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
