import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st
from scipy.optimize import linprog

from adapted_ot.acceptance import random_tree as acceptance_random_tree
from adapted_ot.cli import main
from adapted_ot.estimate import rho_scan, sync_distance_mc
from adapted_ot.lattice import build_lattice, check_fosd
from adapted_ot.model import (ConfigError, DiscretePathMeasure, MarkovLattice,
                              TimeGrid, constant, ou, padded_rows, table)
from adapted_ot.presets import PRESETS, get_preset
from adapted_ot.transport import (MAX_TREE_PATHS, CoupledChain, _cdfs,
                                  _forward_cost, _prefix_nodes,
                                  _quantile_plans, _quantile_values,
                                  _solve_blocks, _solve_stage, _stage_certified,
                                  _stage_plans, _staircase, _transport_simplex,
                                  bicausal_dp, causal_lp,
                                  coupled_cost, tree_lattice,
                                  kr_coupling, metric_suite,
                                  synchronous_product_chain, tree_bicausal_dp)
from kernels import sparse

UNIT_VOL = constant(1.0, role="diffusion")


def example_trees(n=2):
    mu = DiscretePathMeasure(paths=[[1.0 / n, 1.0], [-1.0 / n, -1.0]],
                             weights=[0.5, 0.5])
    nu = DiscretePathMeasure(paths=[[0.0, 1.0], [0.0, -1.0]],
                             weights=[0.5, 0.5])
    return mu, nu


def random_tree(rng, n_stages, max_branch=3):
    paths = [[]]
    for _ in range(n_stages):
        paths = [p + [float(rng.normal())]
                 for p in paths
                 for _ in range(int(rng.integers(1, max_branch + 1)))]
    w = rng.random(len(paths))
    return DiscretePathMeasure(paths=np.array(paths), weights=w / w.sum())


# -- quantile couplings --------------------------------------------------------
#
# The quantile coupling of two discrete laws is the KR coupling of two
# one-step lattices from 0 to them.

def _one_step(atoms, weights):
    """The one-step lattice from 0 to the law of ``weights`` on ``atoms``."""
    return MarkovLattice(initial_value=0.0,
                         supports=(np.array([0.0]), np.asarray(atoms, dtype=float)),
                         kernels=(sparse([weights]),))


def _kr_plan(lat_x, lat_y):
    """The root plan of the KR coupling of two one-step lattices."""
    return _stage_plans(None, lat_x.kernel_rows[0], lat_y.kernel_rows[0])[0, 0]


def test_quantile_coupling_example():
    lat_x, lat_y = _one_step([0, 1], [0.5, 0.5]), _one_step([-1, 2], [0.25, 0.75])
    assert np.allclose(_kr_plan(lat_x, lat_y), [[0.25, 0.25], [0.0, 0.5]])
    assert coupled_cost(kr_coupling(lat_x, lat_y), p=1,
                        scaled=False) == pytest.approx(1.25)
    kr_coupling(lat_x, lat_y).validate()


def test_quantile_coupling_identity_and_dirac():
    lat = _one_step([0, 1], [0.4, 0.6])
    assert coupled_cost(kr_coupling(lat, lat), p=2, scaled=False) == 0.0
    assert np.allclose(_kr_plan(lat, lat), np.diag([0.4, 0.6]))
    plan = _kr_plan(_one_step([0.0], [1.0]), _one_step([-1, 2], [0.25, 0.75]))
    assert np.allclose(plan, [[0.25, 0.75]])


@pytest.mark.parametrize("x_atoms, x_weights", [
    ([0.0, np.nan], [0.5, 0.5]),  # NaN atom
    ([0.0, 1.0], [1.5, -0.5]),  # negative weight
    ([0.0, 1.0], [0.25, 0.25, 0.5]),  # one weight too many
])
def test_one_step_lattice_rejects_bad_measures(x_atoms, x_weights):
    with pytest.raises(ConfigError):
        _one_step(x_atoms, x_weights)


def test_quantile_coupling_optimal_for_convex_costs():
    rng = np.random.default_rng(9)
    for p in (1, 2):
        for _ in range(40):
            nx = int(rng.integers(2, 13))
            ny = int(rng.integers(2, 13))
            xs = np.sort(rng.normal(size=nx)) * 3
            ys = np.sort(rng.normal(size=ny)) * 3
            wx = rng.random(nx)
            wx /= wx.sum()
            wy = rng.random(ny)
            wy /= wy.sum()
            kr = coupled_cost(kr_coupling(_one_step(xs, wx), _one_step(ys, wy)),
                              p=p, scaled=False)
            cost = np.abs(xs[:, None] - ys[None, :]) ** p
            assert kr == pytest.approx(_highs_value(cost, wx, wy), abs=1e-10)


# -- exact transportation simplex ----------------------------------------------
#
# The DP calls the simplex on the positive masses of two kernel rows; HiGHS
# is the reference.

def _check_plan(plan, value, cost, a, b, tol=1e-10):
    """A transport plan is nonnegative, has marginals ``a`` and ``b`` and
    is worth ``value`` on ``cost``, each within ``tol``."""
    assert plan.min() >= -tol
    assert np.abs(plan.sum(axis=1) - a).max() <= tol
    assert np.abs(plan.sum(axis=0) - b).max() <= tol
    assert abs(float(np.sum(plan * cost)) - value) <= tol


def test_transport_simplex_forced_and_diagonal():
    plan, _ = _transport_simplex(np.array([[1.0, 2.0, 3.0]]), np.array([1.0]),
                                 np.array([0.2, 0.3, 0.5]))
    assert np.allclose(plan, [[0.2, 0.3, 0.5]])
    plan, value = _transport_simplex(np.array([[0.0, 4.0], [4.0, 0.0]]),
                                     np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    assert value == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(plan, np.diag([0.5, 0.5]))


def test_transport_simplex_start_stops_at_last_column():
    # sums differ by 4e-12: the northwest-corner start reaches the last
    # column with row mass left and must stop there
    a = np.array([0.5, 0.5 - 1e-12, 1e-12])
    b = np.array([0.5, 0.5 - 3e-12])
    cost = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 1.0]])
    plan, value = _transport_simplex(cost, a, b)
    _check_plan(plan, value, cost, a, b, tol=1e-10)
    assert np.allclose(plan, [[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]],
                       rtol=0.0, atol=1e-11)


def _highs_value(cost, a, b):
    """Optimal value of the transportation LP by HiGHS, the reference solver."""
    n, m = cost.shape
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1
    for j in range(m):
        a_eq[n + j, j::m] = 1
    res = linprog(cost.ravel(), A_eq=a_eq[:-1],
                  b_eq=np.concatenate([a, b])[:-1], bounds=(0, None),
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success
    return res.fun


def test_transport_simplex_matches_reference_solver():
    rng = np.random.default_rng(5)
    for _ in range(120):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, 13))
        cost = rng.normal(size=(n, m)) * 10
        a = rng.random(n) + 1e-3
        a /= a.sum()
        b = rng.random(m) + 1e-3
        b /= b.sum()
        plan, value = _transport_simplex(cost, a, b)
        _check_plan(plan, value, cost, a, b)
        assert value == pytest.approx(_highs_value(cost, a, b), abs=1e-9)


def test_transport_simplex_degenerate_marginals():
    rng = np.random.default_rng(6)
    for _ in range(40):
        # many ties and zero masses exercise degenerate pivots; the simplex
        # gets the positive rows and columns, HiGHS all of them
        n, m = 6, 6
        cost = rng.integers(0, 3, size=(n, m)).astype(float)
        a = rng.integers(0, 3, size=n).astype(float)
        b_raw = rng.integers(0, 3, size=m).astype(float)
        if a.sum() == 0 or b_raw.sum() == 0:
            continue
        a /= a.sum()
        b_raw *= 0
        b_raw[:n] = np.bincount(rng.integers(0, m, size=12), minlength=m)[:m]
        if b_raw.sum() == 0:
            continue
        b_raw /= b_raw.sum()
        ri, cj = np.flatnonzero(a > 0), np.flatnonzero(b_raw > 0)
        sub = cost[np.ix_(ri, cj)]
        plan, value = _transport_simplex(sub, a[ri], b_raw[cj])
        _check_plan(plan, value, sub, a[ri], b_raw[cj])
        assert value == pytest.approx(_highs_value(cost, a, b_raw), abs=1e-9)


def test_non_finite_costs_are_rejected():
    for bad in (np.inf, -np.inf, np.nan):
        cost = np.array([[0.0, 1.0], [bad, 0.0]])
        with pytest.raises(ConfigError):
            _transport_simplex(cost, np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    # |x - y|^2 overflows here; an infinite block would pass the Monge
    # check and give a NaN value
    lat = MarkovLattice(initial_value=0.0,
                        supports=(np.array([0.0]), np.array([-1e200, 1e200])),
                        kernels=(sparse([[0.5, 0.5]]),))
    with np.errstate(over="ignore"), pytest.raises(ConfigError):
        bicausal_dp(lat, lat, p=2)


# -- inner solver properties ----------------------------------------------------
#
# The DP solves a stage's inner blocks by their quantile plan when the block
# passes the Monge check and by the simplex otherwise; the simplex and HiGHS
# are the references.  Masses mix ordinary values with values near the 1e-15
# remainder threshold of the simplex's northwest-corner start.

MASSES = st.lists(st.one_of(st.floats(0.01, 1.0),
                            st.sampled_from([1e-16, 8e-16, 1e-15, 1.2e-15,
                                             3e-15, 1e-14])),
                  min_size=1, max_size=7)


def _normalised(raw):
    w = np.array(raw)
    return w / w.sum()


def _one_block(cost, a, b):
    """The stage solver on a stage of one product state."""
    rows_x, rows_y = padded_rows(sparse(a[None])), padded_rows(sparse(b[None]))
    plans, values, n_simplex = _solve_stage(cost, rows_x, rows_y,
                                            _staircase(rows_x, rows_y))
    return _stage_plans(plans, rows_x, rows_y)[0, 0], values[0, 0], n_simplex


@given(MASSES, MASSES, st.data())
def test_monge_blocks_fast_path_matches_simplex_and_highs(raw_a, raw_b, data):
    a, b = _normalised(raw_a), _normalised(raw_b)
    n, m = a.size, b.size
    # a distance cost on sorted supports with tied atoms, or a general Monge
    # matrix (double cumulative sum of a nonpositive density), plus
    # separable terms, which leave the mixed differences unchanged
    if data.draw(st.booleans()):
        grid = st.integers(-4, 4)
        xs = np.sort(data.draw(st.lists(grid, min_size=n, max_size=n)))
        ys = np.sort(data.draw(st.lists(grid, min_size=m, max_size=m)))
        p = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
        cost = np.abs(xs[:, None] - ys[None, :]).astype(float) ** p
    else:
        density = -np.array(data.draw(st.lists(
            st.floats(0.0, 3.0), min_size=n * m, max_size=n * m))).reshape(n, m)
        cost = density.cumsum(axis=0).cumsum(axis=1)
    row = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    col = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)))
    cost = cost + row[:, None] + col[None, :]
    plan, value, n_simplex = _one_block(cost, a, b)
    assert n_simplex == 0
    assert plan.min() >= 0.0
    assert np.abs(plan.sum(axis=1) - a).max() <= 1e-13
    assert np.abs(plan.sum(axis=0) - b).max() <= 1e-13
    assert value == pytest.approx(float(np.sum(plan * cost)), abs=1e-12)
    assert value == pytest.approx(_transport_simplex(cost, a, b)[1],
                                  abs=1e-12)
    assert value == pytest.approx(_highs_value(cost, a, b), abs=1e-12)


@given(MASSES.filter(lambda w: len(w) >= 2), MASSES.filter(lambda w: len(w) >= 2),
       st.data())
def test_non_monge_blocks_take_the_simplex_solution(raw_a, raw_b, data):
    a, b = _normalised(raw_a), _normalised(raw_b)
    n, m = a.size, b.size
    cost = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=n * m,
                                       max_size=n * m))).reshape(n, m)
    cost[0, 0] += 1.0 + 4 * np.abs(cost).max()  # first mixed difference > 0
    plan, value, n_simplex = _one_block(cost, a, b)
    ref_plan, ref_value = _transport_simplex(cost, a, b)
    assert n_simplex == 1
    assert np.array_equal(plan, ref_plan)
    assert value == ref_value


# -- the stage certificate ------------------------------------------------------
#
# A stage that passes ``_stage_certified`` skips the per-block check and
# keeps its quantile plans implicit; it must never hide a block that the
# per-block check (``_solve_blocks``) would send to the simplex.


@st.composite
def _kernel(draw, n_rows, n_children):
    """A kernel with random row supports: gaps, and rows of different widths
    (so the padded rows repeat their last index)."""
    kernel = np.zeros((n_rows, n_children))
    for r in range(n_rows):
        support = draw(st.lists(st.integers(0, n_children - 1), min_size=1,
                                max_size=n_children, unique=True))
        mass = draw(st.lists(st.floats(0.05, 1.0), min_size=len(support),
                             max_size=len(support)))
        kernel[r, support] = np.array(mass) / sum(mass)
    return kernel


@given(st.data())
def test_stage_certificate_implies_every_block_passes(data):
    n_x, n_y = data.draw(st.integers(2, 7)), data.draw(st.integers(2, 7))
    rows_x, rows_y = [padded_rows(sparse(data.draw(_kernel(
        data.draw(st.integers(1, 4)), n)))) for n in (n_x, n_y)]
    # a stage cost w |x' - y'|^p + V on sorted supports, with V Monge (a
    # double cumulative sum of a nonpositive density, plus separable terms)
    # or arbitrary
    p = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    xs = np.cumsum(data.draw(st.lists(st.floats(0.1, 2.0), min_size=n_x,
                                      max_size=n_x))) - 3.0
    ys = np.cumsum(data.draw(st.lists(st.floats(0.1, 2.0), min_size=n_y,
                                      max_size=n_y))) - 3.0
    if data.draw(st.booleans()):
        density = -np.array(data.draw(st.lists(
            st.floats(0.0, 1.0), min_size=n_x * n_y,
            max_size=n_x * n_y))).reshape(n_x, n_y)
        row = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n_x,
                                          max_size=n_x)))
        col = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n_y,
                                          max_size=n_y)))
        v_next = (density.cumsum(axis=0).cumsum(axis=1)
                  + row[:, None] + col[None, :])
    else:
        v_next = np.array(data.draw(st.lists(
            st.floats(-2.0, 2.0), min_size=n_x * n_y,
            max_size=n_x * n_y))).reshape(n_x, n_y)
    w = data.draw(st.sampled_from([1.0, 1.0 / 16]))
    cost = w * np.abs(xs[:, None] - ys[None, :]) ** p + v_next
    staircase = _staircase(rows_x, rows_y)
    plans, values, n_simplex = _solve_stage(cost, rows_x, rows_y, staircase)
    block_plans, block_values, block_simplex = _solve_blocks(cost, rows_x, rows_y,
                                                             staircase)
    certified = _stage_certified(cost, rows_x.index, rows_y.index)
    event(f"certified={certified}, per-block simplex solves={block_simplex > 0}")
    # the staircase rule values every quantile plan, on either path
    quantile = _quantile_values(cost, rows_x, rows_y, staircase)
    if certified:
        # no block fails the per-block check, and the stage's values are
        # the per-block path's and the staircase rule's, bit for bit
        assert block_simplex == 0
        assert plans is None and n_simplex == 0
        assert _same_bits(values, block_values)
        assert _same_bits(values, quantile)
        assert np.array_equal(_stage_plans(plans, rows_x, rows_y), block_plans)
    else:
        assert np.array_equal(plans, block_plans)
        assert _same_bits(values, block_values)
        assert n_simplex == block_simplex
        # only the simplex blocks leave the staircase rule's values
        assert np.count_nonzero(values != quantile) <= block_simplex


def test_quantile_values_sum_each_plans_positive_cells_in_row_major_order():
    # the reference reads each product state's quantile plan in full and
    # adds mass times cost over its positive cells one by one, in
    # row-major order; the values must have its bits with a single x row,
    # single-child rows, and rows of every width
    rng = np.random.default_rng(11)
    for _ in range(300):
        kernels = []
        for rows, children in rng.integers(1, 20, (2, 2)):
            kernel = rng.random((rows, children)) * (rng.random((rows, children)) < 0.4)
            kernel[np.arange(rows), rng.integers(0, children, rows)] += 0.1
            kernels.append(kernel / kernel.sum(axis=1, keepdims=True))
        rows_x, rows_y = [padded_rows(sparse(kernel)) for kernel in kernels]
        (n_x, a), (n_y, b) = rows_x.index.shape, rows_y.index.shape
        cost = rng.normal(size=(kernels[0].shape[1], kernels[1].shape[1]))
        plans = _stage_plans(None, rows_x, rows_y)
        reference = np.empty((n_x, n_y))
        for i in range(n_x):
            for j in range(n_y):
                s, t = np.nonzero(plans[i, j])
                assert s.size <= a + b - 1
                value = 0.0
                for term in (plans[i, j, s, t]
                             * cost[rows_x.index[i, s], rows_y.index[j, t]]):
                    value += term
                reference[i, j] = value
        assert _same_bits(_quantile_values(cost, rows_x, rows_y,
                                           _staircase(rows_x, rows_y)), reference)


@st.composite
def _repeating_kernel(draw, n_rows=st.integers(1, 8), n_children=st.integers(1, 6)):
    """A kernel whose rows reuse a few mass vectors, on supports of their
    own: repeated rows, equal masses on different supports, padding, and
    single-child rows.  Masses are atom counts over their total, as on a
    lattice, and each mass vector comes with its tail reversed: distinct
    rows with equal leading masses."""
    n_children = draw(n_children)
    masses = draw(st.lists(st.lists(st.integers(1, 4), min_size=1,
                                    max_size=n_children), min_size=1, max_size=3))
    masses += [mass[:1] + mass[:0:-1] for mass in masses]
    kernel = np.zeros((draw(n_rows), n_children))
    for row in kernel:
        mass = np.array(draw(st.sampled_from(masses)))
        support = draw(st.lists(st.integers(0, n_children - 1), min_size=mass.size,
                                max_size=mass.size, unique=True))
        row[sorted(support)] = mass / mass.sum()
    return kernel


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@given(_repeating_kernel(), _repeating_kernel())
def test_plan_table_gathers_every_pairs_quantile_plan_bit_for_bit(kx, ky):
    rows_x, rows_y = padded_rows(sparse(kx)), padded_rows(sparse(ky))
    for rows in (rows_x, rows_y):
        # two rows share a kind exactly when their padded weights are equal
        equal = (rows.weights[:, None] == rows.weights[None]).all(axis=2)
        assert np.array_equal(equal, rows.kind[:, None] == rows.kind[None])
        assert np.array_equal(rows.distinct[rows.kind], rows.weights)
    event(f"repeated rows: {len(rows_x.distinct) < len(kx)}")
    # the reference builds the quantile plan of every pair from its own rows
    cx, cy = _cdfs(rows_x.weights), _cdfs(rows_y.weights)
    stage = _stage_plans(None, rows_x, rows_y)
    assert stage.flags.c_contiguous
    assert _same_bits(stage, _quantile_plans(cx[:, None], cy[None]))


@st.composite
def _repeating_chain(draw, n_stages):
    """``n_stages`` kernels of ``_repeating_kernel`` rows from one root
    node, each stage's rows the children of the one before."""
    kernels, n_rows = [], 1
    for _ in range(n_stages):
        kernels.append(draw(_repeating_kernel(n_rows=st.just(n_rows))))
        n_rows = kernels[-1].shape[1]
    return kernels


def _full_gather_forward(rows_x, rows_y, values_x, values_y, p):
    """The forward cost of the chain of quantile plans, each product state's
    plan built in full from its own two rows and scattered cell by cell."""
    pi, total = np.ones((1, 1)), 0.0
    for k, (stage_x, stage_y) in enumerate(zip(rows_x, rows_y)):
        n_y = values_y[k + 1].size
        i, j = np.nonzero(pi)
        cells = stage_x.index[i][:, :, None] * n_y + stage_y.index[j][:, None, :]
        mass = _quantile_plans(_cdfs(stage_x.weights[i]), _cdfs(stage_y.weights[j]))
        mass *= pi[i, j][:, None, None]
        pi = np.bincount(cells.ravel(), weights=mass.ravel(),
                         minlength=values_x[k + 1].size * n_y).reshape(-1, n_y)
        diff = np.abs(values_x[k + 1][:, None] - values_y[k + 1][None, :])
        total += float(np.sum(pi * diff**p))
    return total


@given(st.data())
def test_staircases_list_each_plans_positive_cells_and_scatter_them(data):
    n_stages = data.draw(st.integers(1, 3))
    chain_x, chain_y = (data.draw(_repeating_chain(n_stages)) for _ in range(2))
    rows_x = [padded_rows(sparse(kernel)) for kernel in chain_x]
    rows_y = [padded_rows(sparse(kernel)) for kernel in chain_y]
    for stage_x, stage_y in zip(rows_x, rows_y):
        (_, a), (_, b) = stage_x.index.shape, stage_y.index.shape
        plans = _stage_plans(None, stage_x, stage_y)
        slot_x, slot_y, mass = _staircase(stage_x, stage_y)
        assert mass.shape[2] == a + b - 1
        for (i, j), plan in np.ndenumerate(plans[:, :, 0, 0]):
            # the staircase of the two rows' kinds lists exactly the plan's
            # positive cells, in row-major order and with their bits, then
            # cell (0, 0) at mass +0.0
            c, d = stage_x.kind[i], stage_y.kind[j]
            s, t = np.nonzero(plans[i, j])
            assert 1 <= s.size <= a + b - 1
            assert np.array_equal(slot_x[c, d, :s.size], s)
            assert np.array_equal(slot_y[c, d, :s.size], t)
            assert _same_bits(mass[c, d, :s.size], plans[i, j, s, t])
            assert not slot_x[c, d, s.size:].any() and not slot_y[c, d, s.size:].any()
            assert _same_bits(mass[c, d, s.size:], np.zeros(a + b - 1 - s.size))
    event(f"single-child rows: "
          f"{any((np.count_nonzero(r.weights, axis=1) == 1).any() for r in rows_x)}")
    # the forward pass scatters the staircases with the full plans' bits
    values_x, values_y = ([np.array([0.0])] + [
        np.cumsum(data.draw(st.lists(st.floats(0.1, 2.0), min_size=kernel.shape[1],
                                     max_size=kernel.shape[1]))) - 2.0
        for kernel in chain] for chain in (chain_x, chain_y))
    p = data.draw(st.sampled_from([1.0, 1.5, 2.0]))
    assert _forward_cost((None,) * n_stages, rows_x, rows_y, values_x, values_y,
                         np.ones(n_stages), p) == _full_gather_forward(
        rows_x, rows_y, values_x, values_y, p)


@pytest.mark.parametrize("name", ["drift-gap", "vol-gap", "ou-vol"])
def test_p1_stages_with_flat_mixed_differences_certify(name):
    # at p = 1 the stage cost is exactly flat where both children lie on one
    # side of the diagonal, and its adjacent mixed differences read as
    # rounding, up to about +5e-16 relative; every stage still certifies
    b_x, s_x, b_y, s_y = get_preset(name)
    lat_x = build_lattice(b_x, s_x, 8, 4, 30)
    lat_y = build_lattice(b_y, s_y, 8, 4, 30)
    sol = bicausal_dp(lat_x, lat_y, p=1)
    worst = 0.0
    for k in range(8):
        v_next = sol.inner_values[k + 1] if k < 7 else 0.0
        cost = sol.stage_weights[k] * np.abs(
            lat_x.supports[k + 1][:, None] - lat_y.supports[k + 1][None, :]) + v_next
        mixed = cost[:-1, :-1] + cost[1:, 1:] - cost[:-1, 1:] - cost[1:, :-1]
        worst = max(worst, mixed.max() / np.abs(cost).max())
    assert worst > 0.0
    assert sol.certified_stages == 8 and sol.n_simplex == 0
    assert sol.value == pytest.approx(
        coupled_cost(kr_coupling(lat_x, lat_y), p=1), abs=1e-9)


def test_non_monotone_pair_fallback_golden():
    # ROADMAP item 6's theta = 12, N = 4 row: the X lattice of ou(12) fails
    # its FOSD certificate, and the DP leaves the quantile plan on 274
    # inner blocks.  The values are the ones the block-by-block solver gave;
    # the stage certificate must reproduce them and the simplex count.
    lat_x = build_lattice(ou(12.0), UNIT_VOL, 4, 5, 60)
    lat_y = build_lattice(constant(0.0), constant(0.5, role="diffusion"), 4, 5, 60)
    assert not check_fosd(lat_x).ok and check_fosd(lat_y).ok
    sol = bicausal_dp(lat_x, lat_y, p=2)
    kr = coupled_cost(kr_coupling(lat_x, lat_y), p=2)
    assert sol.n_simplex == 274
    assert repr(float(sol.value)) == "5.851050086204655"
    assert repr(float(kr - sol.value)) == "0.6698023089567133"
    sol.validate()
    # certified stages and every KR stage store no plan array; the
    # uncertified stages keep their explicit (n_x, n_y, a, b) plans
    assert sol.certified_stages == 2
    for plans, rows_x, rows_y in zip(sol.plans, sol.rows_x, sol.rows_y):
        index_x, index_y = rows_x.index, rows_y.index
        assert plans is None or plans.shape == (
            index_x.shape[0], index_y.shape[0], index_x.shape[1], index_y.shape[1])
    assert all(plans is None for plans in kr_coupling(lat_x, lat_y).plans)


# -- coupled chains -----------------------------------------------------------

def test_kr_coupling_marginal_preservation():
    lat_x = build_lattice(ou(1.0), UNIT_VOL, 4, 4, 25)
    lat_y = build_lattice(constant(0.3), constant(0.5, role="diffusion"),
                          4, 4, 25)
    chain = kr_coupling(lat_x, lat_y)
    chain.validate(tol=1e-10)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_coupled_chain_validate_rejects_mass_in_padding(axis):
    # merging to 10 nodes gives the last two stages rows of 2 to 4 children
    lat_x = build_lattice(ou(1.0), UNIT_VOL, 4, 4, 10)
    lat_y = build_lattice(constant(0.3), constant(0.5, role="diffusion"),
                          4, 4, 10)
    chain = kr_coupling(lat_x, lat_y)
    chain.validate()
    lattice = lat_x if axis == "x" else lat_y
    # a kernel row narrower than its stage's padded width
    k, row = next((k, r) for k, kernel in enumerate(lattice.kernels)
                  for r, size in enumerate(kernel.row_sizes)
                  if size < kernel.row_sizes.max())
    size = lattice.kernels[k].row_sizes[row]
    # the stage's quantile plans, made explicit so that they can be edited
    assert chain.plans[k] is None
    plans = _stage_plans(None, lat_x.kernel_rows[k], lat_y.kernel_rows[k])
    explicit = dataclasses.replace(chain, plans=chain.plans[:k] + (plans,)
                                   + chain.plans[k + 1:])
    explicit.validate()
    plan = plans[row, 0] if axis == "x" else plans[0, row].T
    # move the mass of the row's last support into the first padding slot,
    # which repeats that support's index
    col = int(np.argmax(plan[size - 1]))
    assert plan[size - 1, col] > 1e-6
    plan[size, col] += plan[size - 1, col]
    plan[size - 1, col] = 0.0
    with pytest.raises(ConfigError, match=f"{axis}-marginalization"):
        explicit.validate()


@pytest.mark.parametrize("wrong", ["padding", "rows", "other-stage", "stages"])
def test_coupled_chain_validate_rejects_wrong_shaped_stage(wrong):
    # stage records hold no index arrays: the kernel rows give the shape
    lat_x = build_lattice(ou(1.0), UNIT_VOL, 4, 4, 10)
    lat_y = build_lattice(constant(0.3), constant(0.5, role="diffusion"),
                          4, 4, 10)
    chain = kr_coupling(lat_x, lat_y)
    k = 2
    plans = _stage_plans(None, lat_x.kernel_rows[k], lat_y.kernel_rows[k])
    stages = {
        "padding": plans[..., :-1],
        "rows": plans[:-1],
        "other-stage": _stage_plans(None, lat_x.kernel_rows[k - 1],
                                    lat_y.kernel_rows[k - 1]),
    }
    if wrong == "stages":
        broken, match = chain.plans[:-1], "stages of plans"
    else:
        assert stages[wrong].shape != plans.shape
        broken = chain.plans[:k] + (stages[wrong],) + chain.plans[k + 1:]
        match = f"stage {k} plans have shape"
    with pytest.raises(ConfigError, match=match):
        dataclasses.replace(chain, plans=broken).validate()


def test_kr_coupling_identical_lattices_is_diagonal():
    lat = build_lattice(ou(1.0), UNIT_VOL, 3, 3, 27)
    chain = kr_coupling(lat, lat)
    assert coupled_cost(chain, p=2, scaled=False) == pytest.approx(0.0, abs=1e-20)


def test_kr_coupling_deterministic_x_gives_product():
    lat_x = build_lattice(constant(1.0), constant(0.0, role="diffusion"),
                          3, 3, 27)
    lat_y = build_lattice(constant(0.0), UNIT_VOL, 3, 3, 27)
    chain = kr_coupling(lat_x, lat_y)
    for k, plans in enumerate(chain.plans):
        assert plans is None
        index_x, index_y = lat_x.kernel_rows[k].index, lat_y.kernel_rows[k].index
        plans = _stage_plans(plans, lat_x.kernel_rows[k], lat_y.kernel_rows[k])
        # x-kernel is a Dirac, so the joint child law is the y-kernel
        assert index_x.shape[1] == 1
        assert plans.shape[2:] == (1, index_y.shape[1])
        assert np.allclose(plans[:, :, 0], lat_y.kernel_rows[k].weights[None],
                           atol=1e-12)


def test_synchronous_product_chain_equals_kr():
    # common atoms + increasing one-step maps reproduce the stagewise
    # quantile coupling plan for plan
    b_x, s_x = ou(0.9), UNIT_VOL
    b_y = constant(0.4)
    s_y = table([-60, 60], [0.5, 18.5], role="diffusion")
    lat_x, lat_y, sync_chain = synchronous_product_chain(b_x, s_x, b_y, s_y,
                                                         4, 4, 20)
    assert check_fosd(lat_x).ok and check_fosd(lat_y).ok
    kr_chain = kr_coupling(lat_x, lat_y)
    sync_chain.validate()
    for plans_a, plans_b, rows_x, rows_y in zip(
            sync_chain.plans, kr_chain.plans, lat_x.kernel_rows, lat_y.kernel_rows):
        # the sync chain stores its plans, the KR chain rebuilds them
        assert plans_a is not None and plans_b is None
        plans_b = _stage_plans(plans_b, rows_x, rows_y)
        # the same product states send mass to the same child pairs, and
        # the same mass
        assert np.array_equal(plans_a > 0, plans_b > 0)
        assert np.allclose(plans_a, plans_b, rtol=0.0, atol=1e-12)


def test_synchronous_product_chain_one_step():
    # one step uses the untruncated increment, as build_lattice does
    b_y, s_y = constant(0.4), constant(0.5, role="diffusion")
    lat_x, lat_y, chain = synchronous_product_chain(ou(0.9), UNIT_VOL, b_y,
                                                    s_y, 1, 4, 20)
    assert lat_y.to_json() == build_lattice(b_y, s_y, 1, 4, 20).to_json()
    chain.validate()
    assert coupled_cost(chain) == pytest.approx(
        coupled_cost(kr_coupling(lat_x, lat_y)), abs=1e-12)


def test_coupled_cost_deterministic_pair():
    c1, c2 = 1.0, 0.25
    lat_x = build_lattice(constant(c1), constant(0.0, role="diffusion"), 8, 2, 20)
    lat_y = build_lattice(constant(c2), constant(0.0, role="diffusion"), 8, 2, 20)
    chain = kr_coupling(lat_x, lat_y)
    h = 1.0 / 8
    expected = sum(h * (k * h * (c1 - c2)) ** 2 for k in range(1, 9))
    assert coupled_cost(chain, p=2, scaled=True) == pytest.approx(expected, abs=1e-12)


# -- bi-causal DP --------------------------------------------------------------

def test_bicausal_dp_zero_on_identical():
    lat = build_lattice(ou(1.0), UNIT_VOL, 4, 3, 30)
    sol = bicausal_dp(lat, lat, p=2, scaled=True)
    assert type(sol.value) is float
    assert sol.value == pytest.approx(0.0, abs=1e-15)
    sol.validate()


def test_bicausal_dp_equals_kr_on_certified_pairs():
    lat_x = build_lattice(ou(1.0), UNIT_VOL, 5, 4, 30)
    lat_y = build_lattice(constant(0.2), constant(0.7, role="diffusion"),
                          5, 4, 30)
    assert check_fosd(lat_x).ok and check_fosd(lat_y).ok
    chain = kr_coupling(lat_x, lat_y)
    for p in (1, 2):
        for scaled in (True, False):
            sol = bicausal_dp(lat_x, lat_y, p=p, scaled=scaled)
            kr = coupled_cost(chain, p=p, scaled=scaled)
            assert sol.value == pytest.approx(kr, abs=1e-9)
            sol.validate()


def test_bicausal_dp_stage_mismatch():
    lat_x = build_lattice(ou(1.0), UNIT_VOL, 3, 3, 30)
    lat_y = build_lattice(ou(1.0), UNIT_VOL, 4, 3, 30)
    with pytest.raises(ConfigError):
        bicausal_dp(lat_x, lat_y)


def test_zero_stages_have_no_scaled_cost():
    # the scaled weights are h = 1/N: the DP and the forward pass share one
    # rule, which refuses N = 0; the unscaled cost of no stages is 0
    lat = MarkovLattice(initial_value=0.0, supports=([0.0],), kernels=())
    chain = kr_coupling(lat, lat)
    for cost in (lambda s: bicausal_dp(lat, lat, scaled=s).value,
                 lambda s: coupled_cost(chain, scaled=s)):
        with pytest.raises(ConfigError, match="zero stages"):
            cost(True)
        assert cost(False) == 0.0


def _certified_pair():
    return (build_lattice(ou(1.0), UNIT_VOL, 3, 3, 30),
            build_lattice(constant(0.0), UNIT_VOL, 3, 3, 30))


def _theta_12_pair():
    return (build_lattice(ou(12.0), UNIT_VOL, 4, 5, 60),
            build_lattice(constant(0.0), constant(0.5, role="diffusion"), 4, 5, 60))


@pytest.mark.parametrize("pair, explicit", [(_certified_pair, ()),
                                            (_theta_12_pair, (0, 2))],
                         ids=["certified", "theta-12"])
def test_dp_solution_stages_keep_their_marginals(pair, explicit):
    # every stage of the DP policy couples its two kernel rows: the implicit
    # quantile plans of certified stages, and the explicit plans of the
    # theta = 12 pair's stages 0 and 2, simplex blocks included
    lat_x, lat_y = pair()
    sol = bicausal_dp(lat_x, lat_y, p=2)
    assert tuple(k for k, plans in enumerate(sol.plans)
                 if plans is not None) == explicit
    CoupledChain(lat_x, lat_y, sol.plans).validate(tol=1e-12)


def test_bicausal_solution_validate_rejects_perturbed_plan():
    lat_x = build_lattice(ou(1.0), UNIT_VOL, 3, 3, 30)
    lat_y = build_lattice(constant(0.0), UNIT_VOL, 3, 3, 30)
    sol = bicausal_dp(lat_x, lat_y, p=2)
    sol.validate()
    # the root stage's quantile plans, made explicit so that they can be
    # edited; stored explicitly, they still validate
    assert sol.plans[0] is None
    plans = _stage_plans(None, sol.rows_x[0], sol.rows_y[0])
    explicit = dataclasses.replace(sol, plans=(plans,) + sol.plans[1:])
    explicit.validate()
    # reverse the root state's plan in y: the monotone coupling becomes
    # antitone, so the policy's forward value rises above the DP value
    plan = plans[0, 0]
    plan[:] = plan[:, ::-1].copy()
    with pytest.raises(ConfigError):
        explicit.validate()


def test_policy_view_cuts_stage_records_to_true_supports():
    lat_x = build_lattice(ou(1.0), UNIT_VOL, 4, 4, 10)
    lat_y = build_lattice(constant(0.3), constant(0.5, role="diffusion"),
                          4, 4, 10)
    sol = bicausal_dp(lat_x, lat_y, p=2)
    assert sol.certified_stages == len(sol.plans)
    for k, stage in enumerate(sol.policy):
        # each row's support, from the stored kernels
        kx, ky = [np.split(kernel.index, np.cumsum(kernel.row_sizes)[:-1])
                  for kernel in (lat_x.kernels[k], lat_y.kernels[k])]
        # the stage's quantile plans, rebuilt from the padded rows
        plans = _stage_plans(None, lat_x.kernel_rows[k], lat_y.kernel_rows[k])
        assert len(stage) == len(kx) * len(ky)
        for (i, j), (si, sj, plan, val) in stage.items():
            assert np.array_equal(si, kx[i])
            assert np.array_equal(sj, ky[j])
            assert np.array_equal(plan, plans[i, j, :si.size, :sj.size])
            assert val == sol.inner_values[k][i, j]


def test_bicausal_dp_preset_pair_takes_no_simplex_solve():
    b_x, s_x, b_y, s_y = get_preset("ou-vol")
    lat_x = build_lattice(b_x, s_x, 6, 4, 30)
    lat_y = build_lattice(b_y, s_y, 6, 4, 30)
    sol = bicausal_dp(lat_x, lat_y, p=2)
    assert sol.n_simplex == 0
    # every inner block took its quantile plan: the DP policy is the KR
    # chain, whose plans the certified stages keep implicit
    assert sol.certified_stages == len(sol.plans)
    chain = kr_coupling(lat_x, lat_y)
    for k, (plans, plans_kr) in enumerate(zip(sol.plans, chain.plans)):
        assert plans is None and plans_kr is None
        # the policy's plans are the KR chain's, cell for cell
        rebuilt = _stage_plans(None, lat_x.kernel_rows[k], lat_y.kernel_rows[k])
        for (i, j), (_, _, plan, _) in sol.policy[k].items():
            assert np.array_equal(plan, rebuilt[i, j, :plan.shape[0], :plan.shape[1]])


def test_bicausal_dp_memory_stays_off_the_padded_blocks():
    # vol-gap at N = 64, m = 9, max_support = 200: every stage certifies,
    # and its values come from the staircases' at most 17 cells a state;
    # gathering each stage's padded (200, 200, 9, 9) cost blocks and plans
    # took the DP's traced peak to 68.1 MiB, the staircases keep it near
    # 49 MiB, 20 MiB of it the inner values the solution keeps
    b_x, s_x, b_y, s_y = get_preset("vol-gap")
    lat_x = build_lattice(b_x, s_x, 64, 9, 200)
    lat_y = build_lattice(b_y, s_y, 64, 9, 200)
    lat_x.kernel_rows, lat_y.kernel_rows
    tracemalloc.start()
    try:
        sol = bicausal_dp(lat_x, lat_y, p=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.certified_stages == 64
    assert peak <= 56 * 2**20, peak


def test_tree_dp_fallback_matches_lp():
    # the third pair drawn as in acceptance criterion 2 at seed 7 has an
    # inner block that fails the Monge check
    rng = np.random.default_rng((7, 2))
    for _ in range(3):
        stages = int(rng.integers(2, 4))
        mu = acceptance_random_tree(rng, n_stages=stages)
        nu = acceptance_random_tree(rng, n_stages=stages)
    sol = tree_bicausal_dp(mu, nu, p=2)
    assert sol.n_simplex > 0 and type(sol.value) is float
    sol.validate()
    assert sol.value == pytest.approx(causal_lp(mu, nu, p=2, mode="bicausal"),
                                      abs=1e-8)


@pytest.mark.parametrize("p", [0.5, -1.0, float("nan")])
def test_bad_p_raises_promptly(p, tmp_path):
    lat = build_lattice(ou(1.0), UNIT_VOL, 6, 3, 30)
    mu, nu = example_trees(2)
    calls = [
        lambda: bicausal_dp(lat, lat, p=p),
        lambda: tree_bicausal_dp(mu, nu, p=p),
        lambda: coupled_cost(kr_coupling(lat, lat), p=p),
        lambda: causal_lp(mu, nu, p=p),
        lambda: metric_suite(mu, nu, p=p),
        lambda: sync_distance_mc(ou(1.0), UNIT_VOL, constant(0.0), UNIT_VOL,
                                 TimeGrid(4), p, 100),
        lambda: rho_scan(ou(1.0), UNIT_VOL, constant(0.0), UNIT_VOL,
                         TimeGrid(4), p, [0.0, 1.0], 100),
    ]
    for call in calls:
        with pytest.raises(ConfigError):
            call()
    path = tmp_path / "lat.json"
    path.write_text(lat.to_json())
    assert main(["aw-distance", "--lattice-x", str(path), "--lattice-y",
                 str(path), f"--p={p}", "--out", str(tmp_path / "aw.json")]) == 2
    assert not (tmp_path / "aw.json").exists()


@pytest.mark.parametrize("measure", [
    random_tree(np.random.default_rng(10), 3),
    # recombining: the same values recur under different prefixes
    DiscretePathMeasure(paths=[[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0],
                               [1.0, 0.0, -1.0], [1.0, 2.0, 1.0]],
                        weights=[0.25] * 4),
], ids=["random", "recombining"])
def test_prefix_nodes_number_prefixes_in_lexicographic_order(measure):
    nodes = _prefix_nodes(measure.paths)
    assert len(nodes) == measure.n_stages + 1 and not nodes[0].any()
    for t, node in enumerate(nodes):
        prefixes = [tuple(path[:t]) for path in measure.paths]
        order = sorted(set(prefixes))
        assert node.tolist() == [order.index(pref) for pref in prefixes]


def test_tree_lattice_reconstructs_weights():
    rng = np.random.default_rng(11)
    measure = random_tree(rng, 3)
    lattice = tree_lattice(measure)
    assert lattice.initial_value == 0.0
    marginal = np.array([1.0])
    for kern in lattice.kernels:
        marginal = np.bincount(kern.index, np.repeat(marginal, kern.row_sizes)
                               * kern.weight)
    # leaf probabilities equal path weights aggregated by full path
    leaf_paths = {}
    for path, w in zip(map(tuple, measure.paths), measure.weights):
        leaf_paths[path] = leaf_paths.get(path, 0.0) + w
    assert marginal == pytest.approx(
        [leaf_paths[p] for p in sorted(leaf_paths)], abs=1e-12)


# -- one lattice for Markov chains and trees ----------------------------------
#
# The paths of a Markov lattice, listed as a path measure, are a tree: the
# DP on the lattice, the DP on the tree's history lattice and the causality
# LP on the tree must agree.

def lattice_paths(lattice):
    """The law of a lattice's paths as a path measure: one path per run of
    states from the root, weighted by the product of its kernel masses (at
    most ``MAX_TREE_PATHS`` paths, the LP's limit)."""
    paths = [((), 1.0, 0)]  # (values, weight, current state)
    for support, (sizes, index, weight) in zip(lattice.supports[1:],
                                               lattice.kernels):
        start = np.cumsum(sizes) - sizes
        paths = [(values + (support[index[e]],), w * weight[e], index[e])
                 for values, w, state in paths
                 for e in range(start[state], start[state] + sizes[state])]
    assert len(paths) <= MAX_TREE_PATHS
    values, weights, _ = zip(*paths)
    return DiscretePathMeasure(paths=np.array(values), weights=np.array(weights))


GATE_PAIRS = {**PRESETS, **{
    f"ou({theta:g})-vs-flat": (ou(theta), UNIT_VOL, constant(0.0),
                               constant(0.5, role="diffusion"))
    for theta in (12.0, 30.0)}}


@pytest.mark.parametrize("pair", sorted(GATE_PAIRS))
def test_markov_dp_equals_tree_dp_and_lp_on_enumerated_lattices(pair):
    b_x, s_x, b_y, s_y = GATE_PAIRS[pair]
    simplex = []
    for n_steps, m in ((2, 3), (3, 3), (2, 4), (2, 8), (3, 4)):
        lat_x = build_lattice(b_x, s_x, n_steps, m, m**n_steps)
        lat_y = build_lattice(b_y, s_y, n_steps, m, m**n_steps)
        mu, nu = lattice_paths(lat_x), lattice_paths(lat_y)
        # the history states are in prefix order, not in value order
        assert not tree_lattice(mu).value_ordered
        for p in (1, 2, 3):
            sol = bicausal_dp(lat_x, lat_y, p=p, scaled=False)
            tree = tree_bicausal_dp(mu, nu, p=p).value
            assert abs(sol.value - tree) <= 1e-12
            assert abs(sol.value - causal_lp(mu, nu, p=p)) <= 1e-8
            simplex.append(sol.n_simplex)
    # the non-monotone pairs send blocks to the simplex, the presets none
    assert (max(simplex) > 0) == pair.startswith("ou(")


# -- causality LP and the metric suite ----------------------------------------

def test_example_tree_values():
    mu, nu = example_trees(2)
    assert causal_lp(mu, nu, p=2, mode="bicausal") == pytest.approx(2.25, abs=1e-10)
    assert causal_lp(mu, nu, p=2, mode="classical") == pytest.approx(0.25, abs=1e-10)
    assert tree_bicausal_dp(mu, nu, p=2).value == pytest.approx(2.25, abs=1e-10)


def test_causal_lp_zero_on_equal_trees():
    rng = np.random.default_rng(12)
    mu = random_tree(rng, 2)
    for mode in ("classical", "causal", "anticausal", "bicausal"):
        assert causal_lp(mu, mu, p=2, mode=mode) == pytest.approx(0.0, abs=1e-10)


def test_causal_lp_direction_symmetry():
    rng = np.random.default_rng(13)
    for _ in range(10):
        mu = random_tree(rng, 2)
        nu = random_tree(rng, 2)
        assert causal_lp(mu, nu, p=2, mode="anticausal") == pytest.approx(
            causal_lp(nu, mu, p=2, mode="causal"), abs=1e-9)


def test_causal_lp_rejects_large_instances():
    paths = np.arange(65 * 2, dtype=float).reshape(65, 2)
    big = DiscretePathMeasure(paths=paths, weights=np.full(65, 1 / 65))
    with pytest.raises(ConfigError):
        causal_lp(big, big, p=2)


def test_dp_matches_lp_on_random_trees():
    rng = np.random.default_rng(14)
    for _ in range(15):
        stages = int(rng.integers(2, 4))
        mu = random_tree(rng, stages)
        nu = random_tree(rng, stages)
        lp = causal_lp(mu, nu, p=2, mode="bicausal")
        dp = tree_bicausal_dp(mu, nu, p=2).value
        assert dp == pytest.approx(lp, abs=1e-8)


def test_causal_lp_accuracy_regression():
    # the 81st pair drawn from seed 15 (19 and 5 paths): at HiGHS's default
    # feasibility tolerances the LP missed the tree DP by 1.07e-8
    rng = np.random.default_rng(15)
    for _ in range(81):
        mu, nu = random_tree(rng, 3, 4), random_tree(rng, 3, 4)
    assert (mu.paths.shape[0], nu.paths.shape[0]) == (19, 5)
    dp = tree_bicausal_dp(mu, nu, p=2).value
    assert causal_lp(mu, nu, p=2, mode="bicausal") == pytest.approx(dp, abs=1e-8)


def _tree_dp_record(mu, nu, p):
    sol = tree_bicausal_dp(mu, nu, p=p)
    return (f"{sol.value!r} {sol.n_simplex} {sol.certified_stages} "
            f"{sol.forward_value()!r}")


def test_tree_dp_bits_are_pinned():
    # criterion 2's 50 pairs at seed 7, then the 81 pairs drawn from seed 15
    # at p = 1, 2 and 3: value, simplex count, certified stages and forward
    # value of each, pinned at 0.8.0
    rng = np.random.default_rng((7, 2))
    records = []
    for _ in range(50):
        stages = int(rng.integers(2, 4))
        mu = acceptance_random_tree(rng, n_stages=stages)
        nu = acceptance_random_tree(rng, n_stages=stages)
        records.append(_tree_dp_record(mu, nu, 2))
    rng = np.random.default_rng(15)
    for _ in range(81):
        mu, nu = random_tree(rng, 3, 4), random_tree(rng, 3, 4)
        records += [_tree_dp_record(mu, nu, p) for p in (1, 2, 3)]
    assert len(records) == 293
    # 209 of them send some block to the simplex
    assert sum(int(record.split()[1]) > 0 for record in records) == 209
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == ("20257e1d231d45ef5172acee4aaa7f769dd1fcad"
                      "426f8d9c635993624d9030c4")


def test_zero_weight_paths_carry_no_tree_nodes():
    # a path of weight 0 alone under its prefix made a node of zero mass,
    # whose kernel row the expansion divided 0 by 0 to normalize
    mu = DiscretePathMeasure(paths=[[1.0, 2.0], [-1.0, 0.0], [-1.0, 1.0]],
                             weights=[0.5, 0.5, 0.0])
    nu = DiscretePathMeasure(paths=[[0.0, 1.0], [3.0, -1.0]], weights=[1.0, 0.0])
    supports = tree_lattice(nu).supports
    assert [v.tolist() for v in supports] == [[0.0], [0.0], [1.0]]
    dp = tree_bicausal_dp(mu, nu, p=2).value  # RuntimeWarnings are errors here
    assert dp == pytest.approx(causal_lp(mu, nu, p=2, mode="bicausal"), abs=1e-8)


def _binomial_tree(drift, n_steps=6):
    """The 2^n_steps equally likely paths of steps drift h +- sqrt(h)."""
    h = 1.0 / n_steps
    signs = 1.0 - 2.0 * ((np.arange(2**n_steps)[:, None]
                          >> np.arange(n_steps)[::-1]) & 1)
    paths = np.cumsum(drift * h + signs * np.sqrt(h), axis=1)
    return DiscretePathMeasure(paths=paths, weights=np.full(2**n_steps, 2.0**-n_steps))


def test_dp_matches_lp_at_the_path_limit():
    mu, nu = _binomial_tree(0.0), _binomial_tree(1.0)
    assert mu.paths.shape[0] == nu.paths.shape[0] == MAX_TREE_PATHS
    dp = tree_bicausal_dp(mu, nu, p=2).value
    assert causal_lp(mu, nu, p=2, mode="bicausal") == pytest.approx(dp, abs=1e-8)


def test_metric_suite_ordering_property():
    rng = np.random.default_rng(15)
    for _ in range(30):
        stages = int(rng.integers(2, 4))
        mu = random_tree(rng, stages)
        nu = random_tree(rng, stages)
        suite = metric_suite(mu, nu, p=2)
        assert suite.aw >= suite.scw - 1e-10
        assert suite.scw >= suite.w - 1e-10
        assert suite.scw == max(suite.cw, suite.cw_rev)


def test_metric_suite_zero_on_equal():
    rng = np.random.default_rng(16)
    mu = random_tree(rng, 3)
    suite = metric_suite(mu, mu, p=2)
    assert suite.aw == pytest.approx(0.0, abs=1e-10)
    assert suite.w == pytest.approx(0.0, abs=1e-10)
