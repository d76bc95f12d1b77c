import math

import numpy as np
import pytest

from adapted_ot.model import (ConfigError, DivergenceError, SamplePath,
                              TimeGrid, affine, constant, eval_coefficient, ou,
                              sign_switch, table)
from adapted_ot.noise import (sample_correlated_pair, replicate_normals,
                              truncation_level)
from adapted_ot.presets import PRESETS
from adapted_ot.sde import (_propagate, _run_scheme, _step_increments,
                            euler_maruyama, monotone_em,
                            transformed_monotone_em, zvonkin_transform)

UNIT_VOL = constant(1.0, role="diffusion")


def test_em_pure_noise_is_cumsum():
    grid = TimeGrid(8)
    rng = np.random.default_rng(0)
    dw = rng.standard_normal(8) * math.sqrt(grid.h)
    path = euler_maruyama(constant(0.0), UNIT_VOL, grid, dw, x0=0.3)
    assert np.allclose(path.values, 0.3 + np.concatenate([[0], np.cumsum(dw)]))


def test_em_deterministic_drift():
    grid = TimeGrid(4)
    path = euler_maruyama(constant(1.0), constant(0.0, role="diffusion"),
                          grid, np.zeros(4), x0=0.0)
    assert np.allclose(path.values, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_em_ou_hand_iteration():
    grid = TimeGrid(2)
    path = euler_maruyama(ou(1.0), UNIT_VOL, grid, np.zeros(2), x0=1.0)
    assert np.allclose(path.values, [1.0, 0.5, 0.25])


@pytest.mark.parametrize("drift,stage", [
    (affine(0.0, 1e9), 1),
    # no drift on steps 0 and 1 (k h <= 0.25), then 1e12 h from step 2 on
    (sign_switch(1e12, 0.25), 3),
], ids=["affine", "sign-switch"])
def test_em_divergence_error_reports_stage(drift, stage):
    grid = TimeGrid(4)
    with pytest.raises(DivergenceError) as err:
        euler_maruyama(drift, UNIT_VOL, grid, np.zeros(4), x0=1.0)
    assert err.value.stage == stage


def test_monotone_em_without_exits_matches_em():
    grid = TimeGrid(10)
    block = sample_correlated_pair(grid, 1.0, (0, 3), m_sub=8)
    a = monotone_em(ou(0.5), UNIT_VOL, grid, 4, block, x0=0.2)
    b = euler_maruyama(ou(0.5), UNIT_VOL, grid, block, x0=0.2)
    assert np.array_equal(a.values, b.values)


def test_monotone_em_step_arithmetic():
    grid = TimeGrid(10)
    substeps = np.zeros((10, 1))
    substeps[0, 0] = 0.2
    path = monotone_em(affine(0.0, 1.0), UNIT_VOL, grid, 4, substeps, x0=1.0)
    assert path.values[1] == pytest.approx(1.0 + 0.1 * 1.0 + 0.2)


def test_one_step_map_monotone_under_margin():
    # Lipschitz pair (2, 1) at h = 0.01, K = 4: margin 1 - h C0 - A C1 > 0
    h, trunc_k = 0.01, 4
    barrier = truncation_level(h, trunc_k)
    assert 1 - h * 2 - barrier * 1 > 0
    b = affine(0.3, -2.0)
    s = table([-50, 50], [1.0, 101.0], role="diffusion")  # slope 1, positive
    rng = np.random.default_rng(8)
    for _ in range(300):
        x = float(rng.uniform(-40, 40))
        x_hi = x + float(rng.uniform(0.0, 1.0))
        delta = float(rng.uniform(-barrier, barrier))
        low = x + h * b.evaluate(x) + s.evaluate(x) * delta
        high = x_hi + h * b.evaluate(x_hi) + s.evaluate(x_hi) * delta
        assert high >= low - 1e-12


def test_truncation_closeness_at_k4():
    # exits are astronomically rare: the two schemes coincide replicate-wise
    grid = TimeGrid(10)
    n_same = 0
    for i in range(1000):
        block = sample_correlated_pair(grid, 1.0, (42, i), m_sub=4)
        a = monotone_em(ou(1.0), UNIT_VOL, grid, 4, block)
        b = euler_maruyama(ou(1.0), UNIT_VOL, grid, block)
        n_same += np.array_equal(a.values, b.values)
    assert n_same == 1000


def test_zvonkin_identity_for_driftless():
    transform = zvonkin_transform(constant(0.0), UNIT_VOL, 0.0)
    xs = np.linspace(-5, 5, 11)
    assert np.allclose(transform.forward(xs), xs, atol=1e-9)
    # the transformed coefficient (sigma T')(T^{-1}(y)) is 1
    x = transform.inverse(np.linspace(-4, 4, 9))
    assert np.allclose(UNIT_VOL.evaluate(x) * transform.derivative(x), 1.0,
                       atol=1e-9)


def test_zvonkin_closed_form_unit_drift():
    transform = zvonkin_transform(constant(1.0), UNIT_VOL, 0.0)
    # T(x) = (1 - exp(-2x)) / 2
    assert transform.forward(1.0) == pytest.approx(0.43233235838169365, abs=1e-9)
    assert transform.lipschitz_certificate == 2.0
    with pytest.raises(ConfigError):
        transform.inverse(0.75)  # beyond sup T = 1/2: tabulated range error


@pytest.mark.parametrize("x0", [np.nan, np.inf])
def test_zvonkin_rejects_a_non_finite_anchor(x0):
    # the table was all NaN but its anchor entry
    with pytest.raises(ConfigError, match="x0 must be finite"):
        zvonkin_transform(constant(1.0), UNIT_VOL, x0)


@pytest.mark.parametrize("x0", [np.nan, np.inf])
@pytest.mark.parametrize("run", [
    lambda x0: euler_maruyama(ou(1.0), UNIT_VOL, TimeGrid(4), np.zeros(4), x0=x0),
    lambda x0: monotone_em(ou(1.0), UNIT_VOL, TimeGrid(4), 4, np.zeros((4, 2)),
                           x0=x0),
    lambda x0: euler_maruyama(sign_switch(1.0, 0.5), UNIT_VOL, TimeGrid(4),
                              np.zeros(4), x0=x0),
], ids=["em", "monotone-em", "em-sign-switch"])
def test_single_path_schemes_reject_a_non_finite_start(run, x0):
    # "scheme diverged at stage 1" (DivergenceError) before
    with pytest.raises(ConfigError, match="x0 must be finite"):
        run(x0)


def test_zvonkin_rejects_vanishing_diffusion():
    # zero diffusion at the edge of the tabulation interval
    with pytest.raises(ConfigError):
        zvonkin_transform(constant(1.0), table([-10, 11], [0.0, 2.1],
                                               role="diffusion"), 0.0)


def test_transformed_em_zero_noise_freezes():
    grid = TimeGrid(4)
    path = transformed_monotone_em(constant(1.0), UNIT_VOL, grid, 4,
                                   np.zeros((4, 1)), x0=0.0)
    assert np.allclose(path.values, 0.0, atol=1e-12)


def test_transformed_em_single_increment():
    grid = TimeGrid(4)
    substeps = np.zeros((4, 1))
    substeps[0, 0] = 0.1
    path = transformed_monotone_em(constant(1.0), UNIT_VOL, grid, 4, substeps,
                                   x0=0.0)
    # X_1 = T^{-1}(0.1) = -log(1 - 0.2) / 2
    assert path.values[1] == pytest.approx(0.11157177565710485, abs=1e-5)


def test_transformed_em_identity_transform_matches_monotone_em():
    grid = TimeGrid(6)
    block = sample_correlated_pair(grid, 1.0, (9, 0), m_sub=4)
    a = transformed_monotone_em(constant(0.0), UNIT_VOL, grid, 4, block.dW)
    b = monotone_em(constant(0.0), UNIT_VOL, grid, 4, block.dW)
    assert np.allclose(a.values, b.values, atol=1e-9)


def _common_noise_self_difference(b, s, n_coarse, n_reps, seed):
    """E[sup_k |X^h - X^{h/2}|^2] on the coarse grid under refined noise."""
    fine = 4 * n_coarse
    h_f = 1.0 / fine
    sup_sq = np.zeros(n_reps)
    sup_sq_half = np.zeros(n_reps)
    for i in range(n_reps):
        rng = np.random.default_rng((seed, i))
        dw = rng.standard_normal(fine) * math.sqrt(h_f)
        levels = {}
        for factor in (4, 2, 1):
            n = fine // factor
            grid = TimeGrid(n)
            inc = dw.reshape(n, factor).sum(axis=1)
            levels[factor] = euler_maruyama(b, s, grid, inc).values
        coarse, mid, fine_path = levels[4], levels[2], levels[1]
        sup_sq[i] = np.max((coarse - mid[::2]) ** 2)
        sup_sq_half[i] = np.max((mid - fine_path[::2]) ** 2)
    return sup_sq.mean(), sup_sq_half.mean()


def test_strong_error_decay():
    # multiplicative volatility: strong order 1/2, so the self-difference
    # roughly halves as h halves
    vol = table([-60, 0, 60], [15.6, 0.6, 15.6], role="diffusion")
    d_h, d_half = _common_noise_self_difference(ou(1.0), vol, 8, 4000, 13)
    assert 0.3 <= d_half / d_h <= 0.8
    # additive volatility: strong order 1, ratio near 1/4 (faster decay)
    d_h, d_half = _common_noise_self_difference(ou(1.0), UNIT_VOL, 8, 4000, 14)
    assert d_half / d_h <= 0.8


@pytest.mark.parametrize("m_sub", [1, 16])
def test_single_path_schemes_equal_batched_rows(m_sub):
    # the float recursion of one path and the numpy recursion of a batch
    # give the same bits on the same increments, for every preset marginal;
    # em's single paths sum their own replicate's block (a batch of one)
    grid = TimeGrid(64)
    n_rep = 6
    block = sample_correlated_pair(grid, 1.0, (19, 0), m_sub=m_sub,
                                   n_replicates=n_rep)
    singles = [sample_correlated_pair(grid, 1.0, (19, i), m_sub=m_sub)
               for i in range(n_rep)]
    summed = _step_increments(block.dW, None)
    stopped = _step_increments(block.dW, truncation_level(grid.h, 4))
    n_compared = 0
    for name in sorted(PRESETS):
        b_x, s_x, b_y, s_y = PRESETS[name]
        for b, s in ((b_x, s_x), (b_y, s_y)):
            transform = zvonkin_transform(b, s, 0.0)
            # _propagate is step-major: one row per step, one column per path
            batches = {
                "em": _propagate(b, s, grid.h, summed, 0.0)[0],
                "monotone-em": _propagate(b, s, grid.h, stopped, 0.0)[0],
                "zvonkin-em": _propagate(b, s, grid.h, stopped, 0.0, transform)[0],
            }
            for i in range(n_rep):
                paths = {
                    "em": euler_maruyama(b, s, grid, singles[i]),
                    "monotone-em": monotone_em(b, s, grid, 4, block.dW[i]),
                    "zvonkin-em": transformed_monotone_em(b, s, grid, 4, block.dW[i],
                                                          transform=transform),
                }
                for scheme, path in paths.items():
                    assert path.values.tobytes() == batches[scheme][:, i].tobytes(), \
                        (name, scheme, i)
                    n_compared += 1
    assert n_compared == 180


@pytest.mark.parametrize("case", ["steep-drift", "transformed"])
def test_batch_divergence_matches_single_paths(case):
    # some rows of one batch diverge: from a steep drift, or from inf and
    # NaN increments (the transformed scheme gets NaN only; inf leaves its
    # table, which is an error for the whole batch)
    grid = TimeGrid(8)
    n_rep = 200
    x0 = 0.01
    deltas = replicate_normals((29, 0), grid.n_steps, n_rep) * math.sqrt(grid.h)
    deltas[7, 6] = np.nan
    if case == "steep-drift":
        b, transform = affine(0.0, 110.0), None
        deltas[3, 0] = np.inf
        deltas[5, 2] = -np.inf
    else:
        b = constant(0.1)
        transform = zvonkin_transform(b, UNIT_VOL, x0)
        deltas[11, 3] = np.nan
    paths, _, stage = _propagate(b, UNIT_VOL, grid.h, deltas.T, x0, transform)
    diverged = []
    for i in range(n_rep):
        try:
            path = _run_scheme(b, UNIT_VOL, grid, deltas[i], x0, transform)
        except DivergenceError as err:
            diverged.append(i)
            assert stage[i] == err.stage, i
            assert paths[err.stage, i] == x0, i  # restarted from x0
        else:
            assert path.values.tobytes() == paths[:, i].tobytes(), i
    assert np.flatnonzero(stage).tolist() == diverged
    if case == "steep-drift":
        assert {3, 5, 7} < set(diverged) and len(diverged) < n_rep // 2
    else:
        assert diverged == [7, 11]


def _sign_switch_reference(b, sigma, grid, deltas, x0):
    """The sign_switch recursion through ``eval_coefficient`` on the
    zero-padded path prefix at every step."""
    values = [x0]
    x = x0
    for k, delta in enumerate(deltas.tolist()):
        prefix = SamplePath(grid=grid, values=np.concatenate(
            [values, np.zeros(grid.n_steps - k)]))
        x = x + grid.h * eval_coefficient(b, k * grid.h, prefix) \
            + sigma.evaluate(x) * delta
        values.append(x)
    return np.array(values)


@pytest.mark.parametrize("n_steps,switch_time", [(64, 0.25), (10, 0.3),
                                                 (10, 0.7), (64, 0.1),
                                                 (10, 0.25)])
def test_sign_switch_paths_match_eval_coefficient(n_steps, switch_time):
    grid = TimeGrid(n_steps)
    vol = table([-50.0, 50.0], [0.5, 1.5], role="diffusion")
    dw = replicate_normals((37, 0), n_steps, 40) * math.sqrt(grid.h)
    dw[0] = 0.0  # a path still at 0 when the switch time comes: sign 0
    for level in (2.0, -1.5):
        b = sign_switch(level, switch_time)
        for i in range(dw.shape[0]):
            try:
                reference = _sign_switch_reference(b, vol, grid, dw[i], 0.3 * i - 6.0)
            except ConfigError:  # switch time off the grid
                with pytest.raises(ConfigError):
                    euler_maruyama(b, vol, grid, dw[i], x0=0.3 * i - 6.0)
                continue
            path = euler_maruyama(b, vol, grid, dw[i], x0=0.3 * i - 6.0)
            assert path.values.tobytes() == reference.tobytes(), (level, i)


def test_transform_float_maps_match_numpy_maps():
    transform = zvonkin_transform(constant(1.0), UNIT_VOL, 0.0)
    forward, derivative, inverse = transform.float_maps()
    rng = np.random.default_rng(4)
    xs = list(rng.uniform(-10.0, 10.0, 100)) + [-10.0, 0.0, 10.0, float(transform.xs[7])]
    for x in xs:
        assert forward(x) == transform.forward(x)
        assert derivative(x) == transform.derivative(x)
    for y in list(rng.uniform(transform.ts[0], transform.ts[-1], 100)) + [0.0]:
        assert inverse(y) == transform.inverse(y)
    with pytest.raises(ConfigError):
        forward(10.5)
    with pytest.raises(ConfigError):
        derivative(-10.5)
    with pytest.raises(ConfigError):
        inverse(0.75)  # beyond sup T = 1/2


def test_transformed_em_rejects_wrong_block_shape():
    with pytest.raises(ConfigError):
        transformed_monotone_em(constant(1.0), UNIT_VOL, TimeGrid(4), 4,
                                np.zeros((3, 2)))


@pytest.mark.parametrize("vol", ["constant", "affine"])
@pytest.mark.parametrize("case", ["direct", "transformed"])
def test_propagate_reuses_buffers_like_fresh_arrays(case, vol):
    # a batch with inf and NaN increments leaves diverged rows and their
    # stages in the buffers; the clean batch after it must not see them.  A
    # constant sigma writes no sigma array, only its (N, 1) column; the
    # affine one of slope 0 has the same values, written to the buffer
    grid = TimeGrid(8)
    n_rep = 200
    x0 = 0.01
    sigma = UNIT_VOL if vol == "constant" else affine(1.0, 0.0, role="diffusion")
    dirty = replicate_normals((29, 0), grid.n_steps, n_rep) * math.sqrt(grid.h)
    dirty[7, 6] = np.nan
    b, transform = ou(1.0), None
    if case == "direct":
        dirty[3, 0] = np.inf
        dirty[5, 2] = -np.inf
    else:
        transform = zvonkin_transform(b, sigma, x0)
    clean = replicate_normals((30, 0), grid.n_steps, n_rep) * math.sqrt(grid.h)
    out = (np.empty((grid.n_steps + 1, n_rep)),
           None if vol == "constant" else np.empty((grid.n_steps, n_rep)),
           np.empty(n_rep, dtype=np.int64))
    n_bad = []
    for deltas in (dirty, clean):
        fresh = _propagate(b, sigma, grid.h, deltas.T, x0, transform)
        reused = _propagate(b, sigma, grid.h, deltas.T, x0, transform, out=out)
        assert reused[0] is out[0] and reused[2] is out[2]
        if vol == "constant":
            assert reused[1].shape == (grid.n_steps, 1)
        else:
            assert reused[1] is out[1]
        for f, r in zip(fresh, reused):
            assert f.tobytes() == r.tobytes()
        n_bad.append(int((reused[2] > 0).sum()))
    assert n_bad == ([3, 0] if case == "direct" else [1, 0])
