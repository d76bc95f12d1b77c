"""Optimal transport core: quantile couplings, the stagewise rearrangement of
Markov lattices, exact bi-causal dynamic programming, a transportation
simplex, a causality-constrained LP oracle for tiny trees, and the metric
suite (classical / causal / symmetrised-causal / bi-causal values).

Each inner DP subproblem couples two kernel rows on sorted child supports
under the cost w |x' - y'|^p + V_{k+1}(x', y').  Whether that block is Monge
(submodular) is checked, never assumed: the continuation value can break
submodularity in general.  A block that passes is solved exactly by the
quantile plan (Hoffman 1963), the same rule that builds the rearrangement;
a block that fails goes to the transportation simplex.  The check runs once
per stage on the stage cost; only a stage that fails it is checked block by
block.

A coupled stage is stored as its plans: the (n_x, n_y, a, b) array of inner
plans on the lattices' padded kernel rows, or None when every inner plan is
the quantile plan of its two kernel rows: the rearrangement's stages and
the DP's certified stages keep their plans implicit.  Quantile
plans come from one table per stage pair: a lattice row's masses are sums
of equal atom weights, so a stage has few distinct weight rows (the row
kinds of ``padded_rows``), and the plans are built once per pair of
distinct rows and gathered for the product states that need them.
Identical rows have identical CDFs, so a gathered plan has the bits of the
plan built for its own pair of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import build_lattice
from .model import (AdaptedOTError, ConfigError, MarkovLattice, check_p,
                    padded_rows)

PIVOT_TOL = 1e-12
MAX_TREE_PATHS = 64
# HiGHS primal/dual feasibility tolerances for the causality LP: at the 1e-7
# defaults the bicausal LP missed the exact tree DP by 1.07e-8 on a
# 19 x 5-path pair, above the 1e-8 agreement the DP is checked to
LP_FEASIBILITY_TOL = 1e-10


# -- exact transportation simplex --------------------------------------------

def _northwest_corner(a, b):
    """Northwest-corner start of the transportation simplex.

    Walks from cell (0, 0), sending the smaller remaining mass, then moves
    down once the row's remainder is at most 1e-15 and right otherwise; a
    remainder at most 1e-15 ships nothing, and the walk moves down at the
    last column and right at the last row.  Returns the plan and its
    n + m - 1 visited cells, the spanning-tree basis the simplex starts from.
    """
    n, m = a.size, b.size
    x = np.zeros((n, m))
    basis = []
    ra, rb = a[0], b[0]
    i = j = 0
    while True:
        if ra > 1e-15 and rb > 1e-15:
            t = min(ra, rb)
            x[i, j] = t
            ra -= t
            rb -= t
        basis.append((i, j))
        if i == n - 1 and j == m - 1:
            break
        if j == m - 1 or (ra <= 1e-15 and i < n - 1):
            i += 1
            ra = a[i]
        else:
            j += 1
            rb = b[j]
    return x, basis


def _transport_simplex(cost, a, b):
    """Exact primal transportation simplex on strictly positive marginals.

    Returns (plan, value).  Dantzig pricing with a switch to Bland's rule
    after a degeneracy budget, so termination is guaranteed.  Non-finite
    costs are rejected: they make the duals NaN and no cell ever prices out.
    """
    if not np.isfinite(cost).all():
        raise ConfigError("transport costs must be finite")
    n, m = cost.shape
    if n == 1:
        return b.reshape(1, -1), float(b @ cost[0])
    if m == 1:
        return a.reshape(-1, 1), float(a @ cost[:, 0])
    x, basis = _northwest_corner(a, b)
    rows = [set() for _ in range(n)]
    cols = [set() for _ in range(m)]
    for (i, j) in basis:
        rows[i].add(j)
        cols[j].add(i)
    tol = PIVOT_TOL * max(1.0, float(np.max(np.abs(cost))))
    max_iter = 200 + 40 * n * m
    bland_after = 100 + 20 * n * m
    u = np.empty(n)
    v = np.empty(m)
    for it in range(max_iter):
        # duals from the basis tree
        u.fill(np.nan)
        v.fill(np.nan)
        u[0] = 0.0
        stack = [(0, True)]
        while stack:
            idx, is_row = stack.pop()
            if is_row:
                for j in rows[idx]:
                    if np.isnan(v[j]):
                        v[j] = cost[idx, j] - u[idx]
                        stack.append((j, False))
            else:
                for i in cols[idx]:
                    if np.isnan(u[i]):
                        u[i] = cost[i, idx] - v[idx]
                        stack.append((i, True))
        reduced = cost - u[:, None] - v[None, :]
        if it < bland_after:
            ei, ej = np.unravel_index(np.argmin(reduced), reduced.shape)
            if reduced[ei, ej] >= -tol:
                break
        else:
            neg = np.argwhere(reduced < -tol)
            if neg.size == 0:
                break
            ei, ej = neg[0]
        # unique tree path from row ei to column ej
        parent = {("r", ei): None}
        stack = [("r", ei)]
        target = ("c", ej)
        while target not in parent:
            node = stack.pop()
            kind, idx = node
            if kind == "r":
                for j in rows[idx]:
                    nxt = ("c", j)
                    if nxt not in parent:
                        parent[nxt] = node
                        stack.append(nxt)
            else:
                for i in cols[idx]:
                    nxt = ("r", i)
                    if nxt not in parent:
                        parent[nxt] = node
                        stack.append(nxt)
        path_nodes = [target]
        while parent[path_nodes[-1]] is not None:
            path_nodes.append(parent[path_nodes[-1]])
        path_nodes.reverse()  # row ei ... col ej
        edges = []
        for na, nb in zip(path_nodes[:-1], path_nodes[1:]):
            (ka, ia), (kb, ib) = na, nb
            edges.append((ia, ib) if ka == "r" else (ib, ia))
        minus = edges[0::2]  # edges sharing a row/col chain with the entering cell
        theta = min(x[c] for c in minus)
        leave = next(c for c in minus if x[c] == theta)
        x[ei, ej] += theta
        sign = -1.0
        for c in edges:
            x[c] += sign * theta
            sign = -sign
        x[leave] = 0.0
        rows[leave[0]].discard(leave[1])
        cols[leave[1]].discard(leave[0])
        rows[ei].add(ej)
        cols[ej].add(ei)
    else:
        raise AdaptedOTError("transportation simplex failed to converge")
    np.clip(x, 0.0, None, out=x)
    return x, float(np.sum(x * cost))


# -- quantile machinery -------------------------------------------------------

def _cdfs(w):
    """CDFs started at 0 of weight vectors along the last axis (zeros allowed)."""
    return np.concatenate([np.zeros(w.shape[:-1] + (1,)), np.cumsum(w, axis=-1)],
                          axis=-1)


def _quantile_plans(cx, cy):
    """Quantile (Knothe-Rosenblatt) plans of pairs of weight vectors.

    ``cx`` (..., a + 1) and ``cy`` (..., b + 1) are ``_cdfs`` of the two
    sides, broadcast against each other.  Returns the (..., a, b) plans:
    cell (s, t) carries the length of the overlap of [A_s, A_{s+1}) and
    [B_t, B_{t+1}), where A and B are the two CDFs.
    """
    overlap = (np.minimum(cx[..., 1:, None], cy[..., None, 1:])
               - np.maximum(cx[..., :-1, None], cy[..., None, :-1]))
    return np.maximum(overlap, 0.0)


def _plan_table(rows_x, rows_y):
    """The (C_x, C_y, a, b) quantile plans of a stage's pairs of distinct
    padded weight rows: entry (c, d) is the plan of every x row of kind c
    with every y row of kind d (``padded_rows``)."""
    return _quantile_plans(_cdfs(rows_x.distinct)[:, None],
                           _cdfs(rows_y.distinct)[None])


def _stage_plans(plans, rows_x, rows_y, i=None, j=None):
    """Inner plans of the product states (i, j) of a stage, a fresh
    C-contiguous array: of every state, (n_x, n_y, a, b), by default, else
    of index arrays ``i`` and ``j`` that broadcast against each other.
    ``plans`` is the stage's stored array, or None for quantile plans,
    gathered from the plan table of the padded kernel rows ``rows_*``."""
    if i is None:
        i, j = np.ix_(np.arange(rows_x.kind.size), np.arange(rows_y.kind.size))
    if plans is not None:
        return plans[i, j]
    return _plan_table(rows_x, rows_y)[rows_x.kind[i], rows_y.kind[j]]


# -- coupled chains -----------------------------------------------------------

def _forward_cost(stages, rows_x, rows_y, values_x, values_y, stage_weights, p):
    """Forward expectation of sum_k w_k |x_k - y_k|^p over a joint chain.

    ``stages[k]`` is stage k's plans (an array, or None for quantile plans)
    and ``rows_*[k]`` the stage's padded kernel rows; each stage scatters
    only the product states that carry mass, and gathers implicit plans for
    those states only.
    """
    pi = np.ones((1, 1))
    total = 0.0
    for k, (plans, stage_x, stage_y) in enumerate(zip(stages, rows_x, rows_y)):
        n_y = values_y[k + 1].size
        i, j = np.nonzero(pi)
        cells = stage_x.index[i][:, :, None] * n_y + stage_y.index[j][:, None, :]
        mass = _stage_plans(plans, stage_x, stage_y, i, j)
        mass *= pi[i, j][:, None, None]
        pi = np.bincount(cells.ravel(), weights=mass.ravel(),
                         minlength=values_x[k + 1].size * n_y).reshape(-1, n_y)
        diff = np.abs(values_x[k + 1][:, None] - values_y[k + 1][None, :])
        total += stage_weights[k] * float(np.sum(pi * diff**p))
    return float(total)


@dataclass(frozen=True)
class CoupledChain:
    """Joint Markov chain over product states of two lattices.

    ``plans[k]`` holds stage k's plans on the lattices' padded kernel rows
    ``index_* = lattice_*.kernel_rows[k].index``: an (n_x, n_y, a, b) array
    whose entry [i, j, a, b] is the mass product state (i, j) sends to the
    child pair (index_x[i, a], index_y[j, b]), zero in the padding.  It is
    None when every product state takes the quantile plan of its two
    kernel rows, as in every stage of ``kr_coupling``.  It is the format of
    ``BicausalSolution.plans``.
    """

    lattice_x: MarkovLattice
    lattice_y: MarkovLattice
    plans: tuple

    def validate(self, tol=1e-10):
        """Check one stage of plans per step, implicit ones gathered, against
        the lattices' kernel rows: the rows' shape and the rows' masses."""
        if len(self.plans) != self.lattice_x.n_steps:
            raise ConfigError(f"{len(self.plans)} stages of plans, not one a step")
        for k, (plans, rows_x, rows_y) in enumerate(
                zip(self.plans, self.lattice_x.kernel_rows,
                    self.lattice_y.kernel_rows)):
            wx, wy = rows_x.weights, rows_y.weights
            shape = wx.shape[:1] + wy.shape[:1] + wx.shape[1:] + wy.shape[1:]
            if plans is not None and np.shape(plans) != shape:
                raise ConfigError(f"stage {k} plans have shape "
                                  f"{np.shape(plans)}, not {shape}")
            plans = _stage_plans(plans, rows_x, rows_y)
            if np.max(np.abs(plans.sum(axis=3) - wx[:, None])) > tol:
                raise ConfigError(f"x-marginalization broken at stage {k}")
            if np.max(np.abs(plans.sum(axis=2) - wy[None])) > tol:
                raise ConfigError(f"y-marginalization broken at stage {k}")
        return True


def kr_coupling(x_lattice, y_lattice):
    """Stagewise quantile coupling of the two lattices' conditional kernels
    (the common-uniform construction applied to every product state)."""
    if x_lattice.n_steps != y_lattice.n_steps:
        raise ConfigError("lattices must share the stage count")
    return CoupledChain(lattice_x=x_lattice, lattice_y=y_lattice,
                        plans=(None,) * x_lattice.n_steps)


def synchronous_product_chain(b_x, sigma_x, b_y, sigma_y, n_steps, m,
                              max_support, trunc_k=4, x0=0.0):
    """Both lattices built from one shared increment quantization, coupled by
    the common atom (the discrete synchronous coupling).

    Returns (x_lattice, y_lattice, chain).  When both one-step maps are
    increasing this chain coincides with ``kr_coupling`` of the lattices.
    """
    lat_x, maps_x, weights = build_lattice(b_x, sigma_x, n_steps, m, max_support,
                                           trunc_k=trunc_k, x0=x0,
                                           return_atom_maps=True)
    lat_y, maps_y, _ = build_lattice(b_y, sigma_y, n_steps, m, max_support,
                                     trunc_k=trunc_k, x0=x0, return_atom_maps=True)
    plans = []
    for kx, ky, mx, my, (index_x, *_), (index_y, *_) in zip(
            lat_x.transitions, lat_y.transitions, maps_x, maps_y,
            lat_x.kernel_rows, lat_y.kernel_rows):
        # slot of each atom's child within its kernel row's support
        slot_x = np.take_along_axis(np.cumsum(kx > 0, axis=1) - 1, mx, axis=1)
        slot_y = np.take_along_axis(np.cumsum(ky > 0, axis=1) - 1, my, axis=1)
        stage = np.zeros((kx.shape[0], ky.shape[0], index_x.shape[1],
                          index_y.shape[1]))
        # atoms landing on the same product child add up
        np.add.at(stage, (np.arange(kx.shape[0])[:, None, None],
                          np.arange(ky.shape[0])[None, :, None],
                          slot_x[:, None, :], slot_y[None, :, :]), weights)
        plans.append(stage)
    chain = CoupledChain(lattice_x=lat_x, lattice_y=lat_y, plans=tuple(plans))
    return lat_x, lat_y, chain


def coupled_cost(chain, p=2, scaled=True):
    """Forward expectation of sum_k w_k |x_k - y_k|^p over the joint chain
    (w_k = h for the scaled cost, 1 otherwise; the initial stage carries no
    cost term)."""
    check_p(p)
    n = chain.lattice_x.n_steps
    w = np.full(n, (1.0 / n) if scaled else 1.0)
    return _forward_cost(chain.plans, chain.lattice_x.kernel_rows,
                         chain.lattice_y.kernel_rows, chain.lattice_x.supports,
                         chain.lattice_y.supports, w, p)


# -- bi-causal dynamic programming -------------------------------------------

@dataclass(frozen=True)
class BicausalSolution:
    """Value and optimal policy of the bi-causal transport problem.

    ``plans[k]`` holds stage k's plans in the format of
    ``CoupledChain.plans``, on ``rows_*[k]``, the two kernels'
    ``padded_rows`` at stage k.  A stage that passed the stage Monge
    certificate stores None: each of its inner plans is the quantile plan
    of its two kernel rows, gathered from the stage's plan table when read.
    Otherwise ``plans[k][i, j]`` is the optimal inner plan of product state
    (i, j) on the padded rows.  ``inner_values[k][i, j]`` is the inner value.
    ``n_simplex`` counts the inner blocks that failed the Monge check and
    were solved by the transportation simplex; the others took their
    quantile plan.
    """

    value: float
    p: float
    stage_weights: np.ndarray
    values_x: tuple
    values_y: tuple
    rows_x: tuple
    rows_y: tuple
    plans: tuple
    inner_values: tuple
    n_simplex: int

    @property
    def certified_stages(self):
        """Number of stages certified Monge as a whole (they store None)."""
        return sum(plans is None for plans in self.plans)

    @cached_property
    def policy(self):
        """Per-state view ``policy[k][(i, j)] = (si, sj, plan, val)`` on the
        true row supports, built on first access for the perfbench block
        counts; the library itself does not read it."""
        policy = []
        for plans, vals, rows_x, rows_y in zip(
                self.plans, self.inner_values, self.rows_x, self.rows_y):
            plans = _stage_plans(plans, rows_x, rows_y)
            sizes_x = np.count_nonzero(rows_x.weights, axis=1)
            sizes_y = np.count_nonzero(rows_y.weights, axis=1)
            policy.append({(i, j): (rows_x.index[i, :a], rows_y.index[j, :b],
                                    plans[i, j, :a, :b], vals[i, j])
                           for i, a in enumerate(sizes_x)
                           for j, b in enumerate(sizes_y)})
        return tuple(policy)

    def forward_value(self):
        """Re-evaluate the stored policy forward; equals ``value`` up to
        accumulation error (the solution invariant)."""
        return _forward_cost(self.plans, self.rows_x, self.rows_y, self.values_x,
                             self.values_y, self.stage_weights, self.p)

    def validate(self, tol=1e-9):
        if abs(self.forward_value() - self.value) > tol:
            raise ConfigError("policy forward value disagrees with DP value")
        return True


def _consecutive_pairs(index):
    """Distinct pairs (s, s') of consecutive entries of the padded rows."""
    n = int(index.max()) + 1
    seen = np.zeros((n, n), dtype=bool)
    seen[index[:, :-1], index[:, 1:]] = True
    return np.nonzero(seen)


def _stage_certified(cost, index_x, index_y):
    """Whether every inner block of a stage passes the per-block Monge check.

    For each product state (i, j) the per-block check (``_solve_blocks``)
    evaluates ((C[s, t] + C[s', t']) - C[s, t']) - C[s', t] for each step
    s -> s' of x-row i's padded support indices and each step t -> t' of
    y-row j's, and passes the block when every value is at most
    PIVOT_TOL * max(1, max |block|).  This check evaluates the same
    expression once for each distinct pair of steps of the stage (the
    union over all rows, padding steps s -> s included) and holds it to
    PIVOT_TOL * max(1, m), m the larger |C| of the pair's corners (s, t)
    and (s', t').

    Claim: a certified stage has no failing block.  Every value the
    per-block check computes is one of these, made by the same
    floating-point operations on the same four entries, so it has the
    same bits; its corners are entries of the block, so m <= max |block|,
    and since rounding is monotone the stage's tolerance is at most the
    block's.  No rounding-error bound enters, so the check also certifies
    p = 1 stages, whose exactly flat directions read as +-4e-16 relative.
    With contiguous row supports the steps are the adjacent ones, and this
    is the adjacent-mixed-difference test of the stage cost, which makes
    every submatrix on increasing index sets Monge (Burkard, Klinz &
    Rudolf 1996); a gap in a support adds its own step.  The work is one
    entry per pair of distinct steps: on the lattice-aw benchmark's stages
    5 to 7 times the size of the stage cost and about a quarter of the
    blocks' total size.
    """
    s, s_next = _consecutive_pairs(index_x)
    t, t_next = _consecutive_pairs(index_y)
    rows, rows_next = cost[s], cost[s_next]
    c00, c11 = rows.take(t, axis=1), rows_next.take(t_next, axis=1)
    mixed = c00 + c11
    mixed -= rows.take(t_next, axis=1)
    mixed -= rows_next.take(t, axis=1)
    # the tolerance's scale, two of the four corners, into c00
    np.maximum(np.abs(c00, out=c00), np.abs(c11, out=c11), out=c00)
    np.maximum(c00, 1.0, out=c00)
    c00 *= PIVOT_TOL
    return bool((mixed <= c00).all())


def _quantile_stage(cost, rows_x, rows_y):
    """(blocks, plans, values) of a stage's quantile plans: the padded
    (n_x, n_y, a, b) blocks of the stage cost, every product state's
    quantile plan, and each plan's value on its block."""
    # two np.take gathers; the blocks are made contiguous because einsum's
    # summation order, and so the values' last bits, follow the layout (the
    # plans, gathered from the plan table, are contiguous too)
    blocks = np.ascontiguousarray(cost.take(rows_y.index, axis=1)
                                  .take(rows_x.index, axis=0).transpose(0, 2, 1, 3))
    plans = _stage_plans(None, rows_x, rows_y)
    return blocks, plans, np.einsum("ijab,ijab->ij", plans, blocks)


def _solve_blocks(cost, rows_x, rows_y):
    """Optimal inner plans and values of a stage, checked block by block.

    ``rows_*`` are the two kernels' ``padded_rows``; the padding repeats a
    row's last support, so its mixed differences vanish.  A block whose
    adjacent mixed 2x2 differences are all within the simplex's optimality
    tolerance is Monge and its quantile plan is optimal (Hoffman 1963); the
    other blocks go to the simplex, whose plans overwrite the gathered
    quantile plans.  Returns (plans, values, simplex count).
    """
    blocks, plans, values = _quantile_stage(cost, rows_x, rows_y)
    index_x, wx = rows_x.index, rows_x.weights
    index_y, wy = rows_y.index, rows_y.weights
    mixed = (blocks[:, :, :-1, :-1] + blocks[:, :, 1:, 1:]
             - blocks[:, :, :-1, 1:] - blocks[:, :, 1:, :-1])
    tol = PIVOT_TOL * np.maximum(1.0, np.abs(blocks).max(axis=(2, 3)))
    monge = (mixed <= tol[:, :, None, None]).all(axis=(2, 3))
    fallback = np.argwhere(~monge)
    for i, j in fallback:
        a, b = np.count_nonzero(wx[i]), np.count_nonzero(wy[j])
        plan, val = _transport_simplex(cost[np.ix_(index_x[i, :a], index_y[j, :b])],
                                       wx[i, :a], wy[j, :b])
        plans[i, j, :a, :b] = plan
        values[i, j] = val
    return plans, values, len(fallback)


def _solve_stage(cost, rows_x, rows_y):
    """Optimal inner plans and values of every product state of one stage.

    ``cost`` is the stage cost on the two child supports and ``rows_*``
    are the two kernels' ``padded_rows``.  A stage that passes
    ``_stage_certified`` takes every quantile plan and returns None for its
    plans; any other stage goes to ``_solve_blocks``.  Returns (plans,
    values, simplex count).
    """
    if not np.isfinite(cost).all():
        raise ConfigError("stage costs must be finite")
    if _stage_certified(cost, rows_x.index, rows_y.index):
        return None, _quantile_stage(cost, rows_x, rows_y)[2], 0
    return _solve_blocks(cost, rows_x, rows_y)


def _dp_engine(values_x, rows_x, values_y, rows_y, p, stage_weights):
    """Backward induction over the stages' padded kernel rows; returns the
    ``BicausalSolution``."""
    n = len(rows_x)
    v_next = np.zeros((values_x[n].size, values_y[n].size))
    plans = [None] * n
    inner_values = [None] * n
    n_simplex = 0
    for k in range(n - 1, -1, -1):
        xv = values_x[k + 1]
        yv = values_y[k + 1]
        cost = stage_weights[k] * np.abs(xv[:, None] - yv[None, :]) ** p + v_next
        plans[k], v_next, fallbacks = _solve_stage(cost, rows_x[k], rows_y[k])
        n_simplex += fallbacks
        inner_values[k] = v_next
    return BicausalSolution(value=float(v_next[0, 0]), p=p,
                            stage_weights=stage_weights,
                            values_x=tuple(values_x), values_y=tuple(values_y),
                            rows_x=tuple(rows_x), rows_y=tuple(rows_y),
                            plans=tuple(plans), inner_values=tuple(inner_values),
                            n_simplex=n_simplex)


def bicausal_dp(x_lattice, y_lattice, p=2, scaled=True):
    """Backward induction for the bi-causal problem on two Markov lattices.

    V_N = 0 and V_k(x, y) minimises, over couplings of the two conditional
    kernels, the expected stage cost w_{k+1} |x' - y'|^p plus continuation.
    Each inner problem is solved exactly: by its quantile plan when its
    stage or its block passes the Monge check, by the transportation
    simplex otherwise (``n_simplex`` on the result counts these, and
    ``certified_stages`` the stages certified whole).  The state is the
    current value pair, valid because lattices are Markov.  ``p`` must be
    finite and at least 1.
    """
    check_p(p)
    if x_lattice.n_steps != y_lattice.n_steps:
        raise ConfigError("lattices must share the stage count")
    n = x_lattice.n_steps
    w = np.full(n, (1.0 / n) if scaled else 1.0)
    return _dp_engine(x_lattice.supports, x_lattice.kernel_rows,
                      y_lattice.supports, y_lattice.kernel_rows, p, w)


def history_stage_system(measure):
    """Expand a path measure into history states: stage-k nodes are the
    distinct k-prefixes (lexicographic order), stage 0 an artificial root."""
    paths = measure.paths
    weights = measure.weights
    n_stages = measure.n_stages
    values = [np.array([0.0])]
    kernels = []
    prev_index = {(): 0}
    for k in range(1, n_stages + 1):
        masses = {}
        for idx in range(paths.shape[0]):
            pref = tuple(paths[idx, :k])
            masses[pref] = masses.get(pref, 0.0) + weights[idx]
        nodes = sorted(masses)
        index = {pref: i for i, pref in enumerate(nodes)}
        kern = np.zeros((len(prev_index), len(nodes)))
        for pref, mass in masses.items():
            kern[prev_index[pref[:-1]], index[pref]] += mass
        kern /= kern.sum(axis=1, keepdims=True)
        values.append(np.array([pref[-1] for pref in nodes]))
        kernels.append(kern)
        prev_index = index
    return values, kernels


def tree_bicausal_dp(mu, nu, p=2):
    """Bi-causal DP on history-expanded trees (unscaled stage costs).

    Valid for arbitrary (non-Markov) path measures; used to cross-check the
    causality-constrained LP.
    """
    check_p(p)
    vx, kx = history_stage_system(mu)
    vy, ky = history_stage_system(nu)
    if len(kx) != len(ky):
        raise ConfigError("path measures must share the stage count")
    return _dp_engine(vx, [padded_rows(k) for k in kx], vy,
                      [padded_rows(k) for k in ky], p, np.ones(len(kx)))


# -- causality-constrained LP oracle ------------------------------------------

def _prefix_classes(paths, upto):
    """Map each path index to its class of indices sharing the length-``upto``
    prefix; classes returned in first-appearance order."""
    groups = {}
    for idx in range(paths.shape[0]):
        groups.setdefault(tuple(paths[idx, :upto]), []).append(idx)
    return list(groups.values())


def _causality_rows(paths_a, weights_a, paths_b, flat_index):
    """Sparse rows enforcing: conditional on the full a-path, the law of the
    b-prefix depends only on the a-prefix.  ``flat_index(a_idx, b_idx)`` maps
    a path-index pair to its variable in the (mu-major) joint grid."""
    rows = []
    n_paths_b = paths_b.shape[0]
    n_stages = paths_a.shape[1]
    for t in range(1, n_stages):
        classes_a = _prefix_classes(paths_a, t)
        classes_b = _prefix_classes(paths_b, t)
        for class_a in classes_a:
            if len(class_a) < 2:
                continue  # constraint is an identity for singleton classes
            mass_a = float(weights_a[class_a].sum())
            if mass_a <= 0:
                continue
            for class_b in classes_b:
                if len(class_b) == n_paths_b:
                    continue  # full space: both sides reduce to mu masses
                for i0 in class_a:
                    # pi(i0, B) * mu(A) - mu(i0) * pi(A, B) = 0
                    cols, coefs = [], []
                    for jb in class_b:
                        cols.append(flat_index(i0, jb))
                        coefs.append(mass_a)
                    w_i0 = float(weights_a[i0])
                    for ia in class_a:
                        for jb in class_b:
                            cols.append(flat_index(ia, jb))
                            coefs.append(-w_i0)
                    rows.append((cols, coefs))
    return rows


def causal_lp(mu, nu, p=2, mode="bicausal"):
    """Exact LP value of the transport problem on tiny trees under the chosen
    causality constraints (``classical`` drops them all)."""
    check_p(p)
    if mode not in ("classical", "causal", "anticausal", "bicausal"):
        raise ConfigError(f"unknown mode {mode!r}")
    if mu.n_stages != nu.n_stages:
        raise ConfigError("path measures must share the stage count")
    n_mu = mu.paths.shape[0]
    n_nu = nu.paths.shape[0]
    if n_mu > MAX_TREE_PATHS or n_nu > MAX_TREE_PATHS:
        raise ConfigError(f"instance too large (> {MAX_TREE_PATHS} paths)")
    cost = np.abs(mu.paths[:, None, :] - nu.paths[None, :, :]) ** p
    cost = cost.sum(axis=2).ravel()
    n_vars = n_mu * n_nu
    rows = []
    rhs = []
    for i in range(n_mu):
        rows.append(([i * n_nu + j for j in range(n_nu)], [1.0] * n_nu))
        rhs.append(float(mu.weights[i]))
    for j in range(n_nu):
        rows.append(([i * n_nu + j for i in range(n_mu)], [1.0] * n_mu))
        rhs.append(float(nu.weights[j]))
    if mode in ("causal", "bicausal"):
        extra = _causality_rows(mu.paths, mu.weights, nu.paths,
                                lambda i, j: i * n_nu + j)
        rows.extend(extra)
        rhs.extend([0.0] * len(extra))
    if mode in ("anticausal", "bicausal"):
        # swapped roles: the a-side is nu, so (a, b) = (j, i) in the mu-major grid
        extra = _causality_rows(nu.paths, nu.weights, mu.paths,
                                lambda j, i: i * n_nu + j)
        rows.extend(extra)
        rhs.extend([0.0] * len(extra))
    indptr = [0]
    indices = []
    data = []
    for cols, coefs in rows:
        indices.extend(cols)
        data.extend(coefs)
        indptr.append(len(indices))
    # imported here: slow, and used only here
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix
    a_eq = csr_matrix((data, indices, indptr), shape=(len(rows), n_vars))
    res = linprog(cost, A_eq=a_eq, b_eq=np.asarray(rhs), bounds=(0, None),
                  method="highs",
                  options={"primal_feasibility_tolerance": LP_FEASIBILITY_TOL,
                           "dual_feasibility_tolerance": LP_FEASIBILITY_TOL})
    if not res.success:
        raise AdaptedOTError(f"causality LP failed: {res.message}")
    return float(res.fun)


@dataclass(frozen=True)
class MetricSuiteResult:
    """p-th power values of the distance family on one pair of trees."""

    w: float
    cw: float
    cw_rev: float
    scw: float
    aw: float


def metric_suite(mu, nu, p=2):
    """All five values via the LP oracle, with the ordering
    AW >= SCW = max(CW, CW') >= W asserted on the way out."""
    w = causal_lp(mu, nu, p, "classical")
    cw = causal_lp(mu, nu, p, "causal")
    cw_rev = causal_lp(mu, nu, p, "anticausal")
    aw = causal_lp(mu, nu, p, "bicausal")
    scw = max(cw, cw_rev)
    if aw < scw - 1e-10 or scw < w - 1e-10:
        raise AdaptedOTError(
            f"metric ordering violated: AW={aw} SCW={scw} W={w}")
    return MetricSuiteResult(w=w, cw=cw, cw_rev=cw_rev, scw=scw, aw=aw)
