import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from adapted_ot import estimate
from adapted_ot.estimate import (_segment_cost, closed_form_cost,
                                 convergence_study, counterexample_nonmarkov,
                                 em_expected_cost, rho_scan, stability_study,
                                 sync_distance_mc)
from adapted_ot.model import (ConfigError, DivergenceError,
                              NEGATIVE_VOLATILITY, TimeGrid, affine, constant,
                              ou, sign_switch, table)
from adapted_ot.lattice import build_lattice
from adapted_ot.noise import (_resolve_threads, constant_rho,
                              sample_correlated_pair, truncation_level)
from adapted_ot.sde import euler_maruyama, monotone_em, transformed_monotone_em
from adapted_ot.transport import bicausal_dp, synchronous_product_chain
from adapted_ot.presets import get_preset, mollified_abs_ladder

UNIT_VOL = constant(1.0)
HALF_VOL = constant(0.5)


def test_segment_cost_matches_quadrature():
    rng = np.random.default_rng(2)
    for p in (1.0, 2.0, 3.0, 1.7):
        for _ in range(25):
            a, b = rng.normal(size=2) * 2
            h = float(rng.uniform(0.05, 0.5))
            # integrate each smooth piece (split at the sign crossing)
            pieces = [0.0, h]
            if a * b < 0:
                pieces.insert(1, h * abs(a) / (abs(a) + abs(b)))
            ref = sum(quad(lambda u: abs(a + (b - a) * u / h) ** p, lo, hi)[0]
                      for lo, hi in zip(pieces[:-1], pieces[1:]))
            got = float(_segment_cost(np.array([a]), np.array([b]), h, p)[0])
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_segment_cost_constant_segment():
    assert float(_segment_cost(np.array([0.5]), np.array([0.5]), 0.1, 2.0)[0]) \
        == pytest.approx(0.025)


def test_closed_form_registry():
    assert closed_form_cost(constant(1.0), UNIT_VOL, constant(0.0), UNIT_VOL) \
        == pytest.approx(1.0 / 3.0)
    assert closed_form_cost(constant(0.0), UNIT_VOL, constant(0.0), HALF_VOL) \
        == pytest.approx(0.125)
    target = 0.5 - (1 - math.exp(-2)) / 4
    assert closed_form_cost(ou(1.0), UNIT_VOL, ou(1.0),
                            constant(2.0)) \
        == pytest.approx(target, abs=1e-12)
    # int_0^1 g(r, t) dt = (e^r - 1 - r) / r^2, one term per variance term
    assert closed_form_cost(ou(1.0), UNIT_VOL, ou(2.0), UNIT_VOL) \
        == pytest.approx(0.5 - (1 - math.exp(-2)) / 4
                         - 2 / 3 + 2 * (1 - math.exp(-3)) / 9
                         + 0.25 - (1 - math.exp(-4)) / 16, abs=1e-15)
    assert closed_form_cost(affine(0.0, 1.0), UNIT_VOL, constant(0.0),
                            UNIT_VOL) \
        == pytest.approx((math.exp(2) - 1) / 4 - 2 * math.e + 4, abs=1e-15)


def test_closed_form_mean_reverting_family_is_two_affine_drifts():
    two = constant(2.0)
    target = 0.5 - (1 - math.exp(-2)) / 4
    assert closed_form_cost(affine(0.0, -1.0), UNIT_VOL, affine(0.0, -1.0),
                            two) == pytest.approx(target, abs=1e-12)
    # equal drifts: the intercept cancels from the mean of X - Y, and the
    # cost is (s_x - s_y)^2 int_0^1 g(2a, t) dt
    for intercept in (0.5, -0.5):
        assert closed_form_cost(affine(intercept, -1.0), UNIT_VOL,
                                affine(intercept, -1.0), two) \
            == pytest.approx(target, abs=1e-15)
    assert closed_form_cost(affine(0.0, 1.0), UNIT_VOL, affine(0.0, 1.0),
                            two) == pytest.approx((math.exp(2) - 3) / 4,
                                                  abs=1e-15)
    # theta = 0 is the zero constant drift
    assert closed_form_cost(ou(0.0), UNIT_VOL, ou(0.0), two) == 0.5


@pytest.mark.parametrize("name, value", [
    ("drift-gap", 1 / 3), ("vol-gap", 1 / 8),
    ("ou-vol", 0.5 - (1 - math.exp(-2)) / 4),
    # mpmath quadrature of the same integrand at 40 digits
    ("ou-vs-flat", 0.0480749384662685),
    # the exponential terms cancel
    ("affine-mix", 0.125)])
def test_closed_form_cost_on_the_presets(name, value):
    assert closed_form_cost(*get_preset(name)) == pytest.approx(value,
                                                                abs=1e-12)


def _van_loan_cost(c_x, a_x, s_x, c_y, a_y, s_y):
    """int_0^1 E[(X_t - Y_t)^2] dt of the synchronous affine pair, from the
    linear ODE of its first and second moments and the running integral,
    by a matrix exponential.  State: E X, E Y, E X^2, E XY, E Y^2, 1, cost."""
    from scipy.linalg import expm
    ode = np.zeros((7, 7))
    ode[0, [0, 5]] = a_x, c_x
    ode[1, [1, 5]] = a_y, c_y
    ode[2, [2, 0, 5]] = 2 * a_x, 2 * c_x, s_x * s_x
    ode[3, [3, 1, 0, 5]] = a_x + a_y, c_x, c_y, s_x * s_y
    ode[4, [4, 1, 5]] = 2 * a_y, 2 * c_y, s_y * s_y
    ode[6, [2, 3, 4]] = 1.0, -2.0, 1.0
    # eight steps of 1/8: one step of 1 lost up to 1e-12 on positive slopes
    return np.linalg.matrix_power(expm(ode / 8), 8)[6, 5]


def test_closed_form_cost_matches_a_van_loan_reference():
    rng = np.random.default_rng(31)
    for _ in range(200):
        (a_x, a_y), (c_x, c_y), (s_x, s_y) = (
            rng.uniform(-30, 3, 2), rng.uniform(-2, 2, 2), rng.uniform(0, 2, 2))
        got = closed_form_cost(affine(c_x, a_x), constant(s_x),
                               affine(c_y, a_y), constant(s_y))
        assert got == pytest.approx(
            _van_loan_cost(c_x, a_x, s_x, c_y, a_y, s_y), rel=1e-12)


@pytest.mark.parametrize("name", ["ou-vs-flat", "affine-mix"])
def test_em_expected_cost_bias_halves_on_affine_pairs(name):
    pair = get_preset(name)
    target = closed_form_cost(*pair)
    bias = [em_expected_cost(*pair, n) - target for n in (64, 128, 256)]
    assert 0.45 <= bias[1] / bias[0] <= 0.55
    assert 0.45 <= bias[2] / bias[1] <= 0.55


def test_oracles_refuse_a_negative_volatility():
    # they returned 2.0 and 1.9999999999999998; the MC leg refuses the pair
    pair = (constant(0.0), constant(-1.0), constant(0.0),
            UNIT_VOL)
    for oracle in (lambda: closed_form_cost(*pair),
                   lambda: em_expected_cost(*pair, 8),
                   lambda: sync_distance_mc(*pair, TimeGrid(4), 2, 10)):
        with pytest.raises(ConfigError, match="negative value"):
            oracle()


def test_closed_form_cost_at_a_subnormal_slope():
    # e^{r t} - 1 over r lost r t to underflow, and g(r, t) read 1, not t
    assert closed_form_cost(affine(1.0, 5e-324), UNIT_VOL, constant(0.0),
                            HALF_VOL) \
        == closed_form_cost(constant(1.0), UNIT_VOL, constant(0.0), HALF_VOL)


def test_closed_form_cost_refuses_overflow():
    # e^{2 * 400} overflows: a ConfigError, not a RuntimeWarning or inf
    with pytest.raises(ConfigError, match="overflows a float"):
        closed_form_cost(affine(0.0, 400.0), UNIT_VOL, constant(0.0), UNIT_VOL)


@pytest.mark.parametrize("p", [np.nan, 0.5, True])
def test_closed_form_cost_checks_p(p):
    # NaN and 0.5 returned None ("no closed form"), True the p = 1 answer
    with pytest.raises(ConfigError, match="cost exponent p"):
        closed_form_cost(constant(1.0), UNIT_VOL, constant(0.0), UNIT_VOL, p=p)


@pytest.mark.parametrize("call, message", [
    (lambda: sync_distance_mc(constant(0.0), UNIT_VOL, constant(0.0), UNIT_VOL,
                              TimeGrid(4), 2, 10, seed=True), "non-negative integers"),
    (lambda: bicausal_dp(*[build_lattice(constant(0.0), UNIT_VOL, 2, 2, 10)] * 2,
                         p=True), "cost exponent p"),
    (lambda: truncation_level(0.1, True), "truncation multiplier K"),
    (lambda: build_lattice(constant(0.0), UNIT_VOL, 2, 2, 10, trunc_k=True),
     "truncation multiplier K"),
    (lambda: constant_rho(True), "rho must lie"),
], ids=["seed", "p", "truncation-level", "lattice-trunc-k", "rho"])
def test_bools_are_refused_where_sizes_refuse_them(call, message):
    # each ran as 1 (seed 1, p = 1, K = 1, rho = 1)
    with pytest.raises(ConfigError, match=message):
        call()


def test_em_expected_cost_bias_is_first_order():
    # constant coefficients: the interpolated em pair is exact at any N
    for pair in ((constant(1.0), UNIT_VOL, constant(0.0), UNIT_VOL),
                 (constant(0.0), UNIT_VOL, constant(0.0), HALF_VOL)):
        assert em_expected_cost(*pair, 64) == pytest.approx(
            closed_form_cost(*pair), abs=1e-14)
    two = constant(2.0)
    target = closed_form_cost(ou(1.0), UNIT_VOL, ou(1.0), two)
    bias = [em_expected_cost(ou(1.0), UNIT_VOL, ou(1.0), two, n) - target
            for n in (64, 128, 256)]
    assert bias[0] == pytest.approx(3.382e-3, abs=1e-6)
    assert bias[1] == pytest.approx(1.690e-3, abs=1e-6)
    assert 0.49 < bias[2] / bias[1] < 0.51
    assert em_expected_cost(table([0, 1], [0, 1]), UNIT_VOL, ou(1.0), two,
                            8) is None
    assert em_expected_cost(ou(1.0), table([0, 1], [1, 2]),
                            ou(1.0), two, 8) is None


def test_em_expected_cost_matches_mc_with_state_dependent_drift():
    args = (affine(0.5, -0.5), UNIT_VOL, ou(2.0), HALF_VOL)
    res = sync_distance_mc(*args, TimeGrid(8), 2, 20000, seed=22)
    assert abs(res.estimate - em_expected_cost(*args, 8)) <= 4 * res.stderr


def test_sync_identical_pairs_is_exactly_zero():
    res = sync_distance_mc(ou(1.0), UNIT_VOL, ou(1.0), UNIT_VOL, TimeGrid(16),
                           2, 500, seed=3)
    assert res.estimate == 0.0
    assert res.stderr == 0.0


def test_sync_deterministic_difference_is_exact():
    # common noise cancels; the difference path is exactly t
    res = sync_distance_mc(constant(1.0), UNIT_VOL, constant(0.0), UNIT_VOL,
                           TimeGrid(32), 2, 200, seed=4)
    assert res.estimate == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_sync_sign_switch_pair_is_the_em_ramp():
    # common noise, so both paths switch on the same sign: the difference is
    # 0 up to step 6 (the first k with k h > 0.1 at N = 50), then grows by
    # 10 h per step; on 44 steps the segment costs add up to
    # h (10 h)^2 sum_j (3 j^2 + 3 j + 1) / 3 = 100 * 44^3 / (3 * 50^3)
    res = sync_distance_mc(sign_switch(5.0, 0.1), UNIT_VOL,
                           sign_switch(-5.0, 0.1), UNIT_VOL, TimeGrid(50), 2,
                           2000, seed=21)
    assert res.stderr == 0.0
    assert res.estimate == pytest.approx(100 * 44**3 / (3 * 50**3), rel=1e-13)


def test_sync_oracle_vol_gap():
    res = sync_distance_mc(constant(0.0), UNIT_VOL, constant(0.0), HALF_VOL,
                           TimeGrid(32), 2, 5000, seed=5)
    assert abs(res.estimate - 0.125) < 4 * res.stderr


def test_sync_p1_runs():
    res = sync_distance_mc(constant(1.0), UNIT_VOL, constant(0.0), UNIT_VOL,
                           TimeGrid(32), 1, 500, seed=6)
    # difference path is exactly t: integral of t over [0,1] is 1/2
    assert res.estimate == pytest.approx(0.5, abs=1e-12)


def test_rho_one_reproduces_sync_bit_for_bit():
    args = (constant(0.5), UNIT_VOL, ou(1.0), HALF_VOL, TimeGrid(16), 2)
    sync = sync_distance_mc(*args, 400, seed=11)
    rows = rho_scan(*args, [0.0, 1.0], 400, seed=11)
    assert rows[-1].estimate == sync.estimate
    assert rows[-1].stderr == sync.stderr


def test_rho_scan_closed_form_driftless():
    rows = rho_scan(constant(0.0), UNIT_VOL, constant(0.0), UNIT_VOL,
                    TimeGrid(16), 2, [-1.0, 0.0, 1.0], 4000, seed=12)
    for row in rows:
        target = 1.0 - row.rho
        assert abs(row.estimate - target) <= 4 * row.stderr + 1e-12
    assert rows[-1].estimate == 0.0


def test_em_expected_cost_with_correlation():
    pair = get_preset("drift-gap")
    assert em_expected_cost(*pair, 32, rho=1.0) == em_expected_cost(*pair, 32)
    # constant coefficients: exact at any N, (c1 - c2)^2 / 3 + (s1^2 + s2^2
    # - 2 rho s1 s2) / 2
    for rho in (-1.0, 0.0, 0.5):
        assert em_expected_cost(*pair, 32, rho=rho) == pytest.approx(
            1.0 / 3.0 + (2.0 - 2.0 * rho) / 2.0, abs=1e-14)
    with pytest.raises(ConfigError):
        em_expected_cost(*pair, 32, rho=1.5)


def test_every_correlation_entry_refuses_out_of_range(monkeypatch):
    # one check, constant_rho, at every entry that takes a correlation
    pair = get_preset("drift-gap")
    grid = TimeGrid(4)
    for bad in (1.5, -1.01, math.nan):
        with pytest.raises(ConfigError, match="rho"):
            constant_rho(bad)
    with pytest.raises(ConfigError, match="rho"):
        sample_correlated_pair(grid, 1.5, (1, 0))
    with pytest.raises(ConfigError, match="rho"):
        estimate._coupled_cost_mc(*pair, grid, 2, rho=-2.0, n_samples=10, seed=0)
    with pytest.raises(ConfigError, match="rho"):
        em_expected_cost(*pair, 4, rho=math.nan)
    # the scan checks its whole list before the first row runs
    runs = []
    monkeypatch.setattr(estimate, "_coupled_cost_mc",
                        lambda *args, **kwargs: runs.append(args))
    with pytest.raises(ConfigError, match="rho"):
        rho_scan(*pair, grid, 2, [1.5], 10)
    with pytest.raises(ConfigError, match="rho"):
        rho_scan(*pair, grid, 2, [0.0, 1.5], 10)
    assert runs == []


@pytest.mark.parametrize("m_sub", [2.5, True, 0])
def test_mc_substeps_must_be_a_positive_integer(m_sub):
    # 2.5 and True failed inside numpy with a TypeError
    with pytest.raises(ConfigError, match="m_sub"):
        sync_distance_mc(*get_preset("drift-gap"), TimeGrid(4), 2, 10,
                         m_sub=m_sub)


@pytest.mark.parametrize("name", ["drift-gap", "vol-gap", "ou-vol", "affine-mix"])
def test_rho_scan_matches_em_expected_cost_off_sync(name):
    # for rho < 1 the bridge term carries the in-step variance
    # (s_x - s_y)^2 + 2 (1 - rho) s_x s_y, not only the volatility gap
    pair = get_preset(name)
    rows = rho_scan(*pair, TimeGrid(8), 2, [-1.0, 0.0, 0.5], 20000, seed=23)
    for row in rows:
        exact = em_expected_cost(*pair, 8, rho=row.rho)
        assert abs(row.estimate - exact) <= 4 * row.stderr, (row, exact)


def test_monotone_em_scheme_available():
    res = sync_distance_mc(ou(1.0), UNIT_VOL, constant(0.0), UNIT_VOL,
                           TimeGrid(16), 2, 300, seed=13, scheme="monotone-em",
                           m_sub=4)
    assert math.isfinite(res.estimate)


def test_zvonkin_scheme_consistent_with_em():
    # bounded drifts: both schemes target the same law (the step count keeps
    # the truncated increment inside the transform's linearization radius)
    args = (constant(0.5), UNIT_VOL, constant(0.0), UNIT_VOL, TimeGrid(128), 2)
    em = sync_distance_mc(*args, 2000, seed=14)
    zv = sync_distance_mc(*args, 2000, seed=14, scheme="zvonkin-em")
    assert abs(zv.estimate - em.estimate) < 4 * (em.stderr + zv.stderr) + 0.01


def test_results_independent_of_thread_count():
    args = (ou(1.0), UNIT_VOL, constant(0.0), HALF_VOL, TimeGrid(16), 2, 800)
    serial = sync_distance_mc(*args, seed=21, threads=1)
    threaded = sync_distance_mc(*args, seed=21, threads=4)
    assert serial.estimate == threaded.estimate
    assert serial.stderr == threaded.stderr


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no CPU affinity on this platform")
def test_default_threads_count_usable_cpus():
    assert 1 <= _resolve_threads(None) <= len(os.sched_getaffinity(0))


@pytest.mark.parametrize("threads", [0, -2, 2.5, 2.0, True, "2"])
def test_thread_counts_must_be_positive_integers(threads):
    with pytest.raises(ConfigError):
        _resolve_threads(threads)
    with pytest.raises(ConfigError):
        sync_distance_mc(ou(1.0), UNIT_VOL, constant(0.0), HALF_VOL,
                         TimeGrid(4), 2, 100, seed=1, threads=threads)


def test_numpy_integer_thread_counts_are_accepted():
    assert _resolve_threads(np.int64(3)) == 3
    args = (ou(1.0), UNIT_VOL, constant(0.0), HALF_VOL, TimeGrid(4), 2, 100)
    assert (sync_distance_mc(*args, seed=1, threads=np.int32(2))
            == sync_distance_mc(*args, seed=1, threads=1))


@pytest.mark.parametrize("counts", [
    {"n_samples": 0}, {"n_samples": -5}, {"n_samples": 2.5}, {"n_samples": True},
])
def test_sample_counts_must_be_positive_integers(counts):
    with pytest.raises(ConfigError):
        sync_distance_mc(ou(1.0), UNIT_VOL, constant(0.0), HALF_VOL,
                         TimeGrid(4), 2, counts["n_samples"], seed=1)
    with pytest.raises(ConfigError):
        counterexample_nonmarkov(1.0, 0.5, TimeGrid(4), **counts)


def test_numpy_integer_sample_counts_are_accepted():
    res = sync_distance_mc(ou(1.0), UNIT_VOL, constant(0.0), HALF_VOL,
                           TimeGrid(4), 2, np.int64(100), seed=1)
    assert res.n_samples == 100
    sync, _ = counterexample_nonmarkov(1.0, 0.5, TimeGrid(4),
                                       n_samples=np.int64(100))
    assert sync.n_samples == 100


def test_monotone_em_refuses_a_nan_truncation_multiplier():
    # every replicate was reported diverged
    with pytest.raises(ConfigError, match="truncation multiplier"):
        sync_distance_mc(ou(1.0), UNIT_VOL, constant(0.0), HALF_VOL,
                         TimeGrid(4), 2, 100, seed=1, scheme="monotone-em",
                         trunc_k=np.nan)


def test_divergence_abort():
    with pytest.raises(DivergenceError):
        sync_distance_mc(affine(0.0, 240.0), UNIT_VOL, constant(0.0), UNIT_VOL,
                         TimeGrid(8), 2, 200, seed=15)


def test_counterexample_costs():
    sync, asyn = counterexample_nonmarkov(5.0, 0.1, TimeGrid(20),
                                          n_samples=4000, seed=16)
    assert sync.estimate == pytest.approx(24.3, abs=1e-9)
    assert abs(asyn.estimate - 2.0) <= 4 * asyn.stderr
    assert asyn.estimate < sync.estimate


def test_counterexample_golden_values():
    # the exact repr of both results, so a change of replicate loop that
    # moves the last bit of an estimate or stderr fails here; the sync cost
    # is deterministic, so its stderr is 0.0
    sync, asyn = counterexample_nonmarkov(5.0, 0.1, TimeGrid(20),
                                          n_samples=4000, seed=16)
    assert repr(sync) == ("MCResult(estimate=24.300000000000008, "
                          "stderr=0.0, n_samples=4000, "
                          "n_diverged=0)")
    assert repr(asyn) == ("MCResult(estimate=1.9862443459006953, "
                          "stderr=0.035968839533290435, n_samples=4000, "
                          "n_diverged=0)")


def test_counterexample_chunks_keep_the_golden_values(monkeypatch):
    # a 20 kB budget splits each batch of 200 replicates into chunks of at
    # most a dozen; each replicate keeps its stream and its cost, and each
    # batch's moments are still taken over the whole batch
    monkeypatch.setattr(estimate, "CHUNK_BYTES", 20_000)
    sync, asyn = counterexample_nonmarkov(5.0, 0.1, TimeGrid(20),
                                          n_samples=4000, seed=16)
    assert repr(sync) == ("MCResult(estimate=24.300000000000008, "
                          "stderr=0.0, n_samples=4000, "
                          "n_diverged=0)")
    assert repr(asyn) == ("MCResult(estimate=1.9862443459006953, "
                          "stderr=0.035968839533290435, n_samples=4000, "
                          "n_diverged=0)")


def test_counterexample_memory_does_not_grow_with_the_replicate_count(
        monkeypatch):
    # under a 1 MiB budget a chunk holds a few hundred 64-step replicates:
    # 10,000 replicates (batches of 500) and 100,000 (batches of 5,000) both
    # run in chunks of about that size.  Drawn whole, the larger run's
    # batches peaked 10 times higher
    monkeypatch.setattr(estimate, "CHUNK_BYTES", 2**20)
    grid = TimeGrid(64)
    counterexample_nonmarkov(5.0, 0.25, grid, n_samples=100)  # loads scipy
    peaks = []
    for n_samples in (10_000, 100_000):
        tracemalloc.start()
        try:
            counterexample_nonmarkov(5.0, 0.25, grid, n_samples=n_samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks


def test_counterexample_zero_level():
    sync, asyn = counterexample_nonmarkov(0.0, 0.1, TimeGrid(20),
                                          n_samples=2000, seed=17)
    assert sync.estimate == 0.0
    assert abs(asyn.estimate - 2.0) <= 4 * asyn.stderr


@pytest.mark.parametrize("switch_time", [0.0, 1.0, -0.5, 1.5])
def test_counterexample_refuses_a_switch_time_outside_the_open_interval(
        switch_time):
    # at 0 the drift's sign was sign(W_0) = 0, at 1 its ramp never started
    with pytest.raises(ConfigError, match=r"switch_time must lie in \(0, 1\)"):
        counterexample_nonmarkov(5.0, switch_time, TimeGrid(20), n_samples=10)


def test_counterexample_late_switch_kills_sync_cost():
    sync, _ = counterexample_nonmarkov(5.0, 0.95, TimeGrid(20),
                                       n_samples=500, seed=18)
    assert sync.estimate == pytest.approx(4 * 25 * 0.05**3 / 3, abs=1e-9)


def test_convergence_study_small():
    rows = convergence_study(constant(1.0), UNIT_VOL, constant(0.0), UNIT_VOL,
                             2, [2, 4], 3, 20, mc_samples=2000, seed=19,
                             mc_n_steps=32)
    assert [r.n_steps for r in rows] == [2, 4]
    for row in rows:
        assert row.fosd_x and row.fosd_y
        assert row.dp_scaled <= row.kr_cost + 1e-9
    assert rows[1].dp_scaled < rows[0].dp_scaled


def test_convergence_refuses_a_path_dependent_drift_before_the_mc(
        monkeypatch):
    runs = []
    monkeypatch.setattr(estimate, "sync_distance_mc",
                        lambda *args, **kwargs: runs.append(args))
    with pytest.raises(ConfigError, match="a lattice needs Markovian"):
        convergence_study(sign_switch(1.0, 0.5), UNIT_VOL, constant(0.0),
                          UNIT_VOL, 2, [2], 3, 20, mc_samples=10**6)
    assert runs == []


def test_convergence_mc_column_starts_at_x0():
    # the lattices and the MC leg start from the same x0
    pair = (ou(1.0), UNIT_VOL, constant(0.0), HALF_VOL)
    rows = convergence_study(*pair, 2, [2], 3, 20, mc_samples=4000, seed=19,
                             x0=2.0, mc_n_steps=16)
    mc = sync_distance_mc(*pair, TimeGrid(16), 2, 4000, seed=19, x0=2.0)
    assert (rows[0].mc_sync, rows[0].mc_stderr) == (mc.estimate, mc.stderr)
    from_zero = sync_distance_mc(*pair, TimeGrid(16), 2, 4000, seed=19)
    assert mc.estimate > 10 * from_zero.estimate


def test_stability_study_gaps_shrink():
    knots = np.unique(np.concatenate([np.linspace(-8, 8, 17), [0.0]]))
    b_target = table(knots, np.abs(knots))
    approx = []
    for j in (0, 3):
        spacing = 2.0 ** (-j)
        ks = np.concatenate([[-8.0], np.arange(-8 + spacing / 2, 8, spacing),
                             [8.0]])
        approx.append((table(ks, np.abs(ks)), UNIT_VOL))
    rows, target = stability_study(b_target, UNIT_VOL, approx, constant(0.0),
                                   UNIT_VOL, TimeGrid(16), 2, 3000, seed=20)
    assert rows[0].gap == pytest.approx(
        abs(rows[0].estimate - target.estimate), abs=1e-15)
    assert rows[1].gap < rows[0].gap


# the repr of each row's estimate, stderr and gap, then the target's estimate
# and stderr, of a three-level ladder at a fixed seed
STABILITY_GOLDEN = (
    [('0.169094439718258', '0.003143779825633062', '0.07226206855259218'),
     ('0.11681495079658946', '0.00306445350974813', '0.019982579630923647'),
     ('0.1036372000753463', '0.0029954207045499643', '0.006804828909680483')],
    ('0.09683237116566581', '0.00291677457674442'))


@pytest.mark.parametrize("threads", [1, 2])
def test_stability_study_golden_values(threads):
    b_target, vol, approx = mollified_abs_ladder(3)
    rows, target = stability_study(b_target, vol, approx, constant(0.0), vol,
                                   TimeGrid(16), 2, 2000, seed=11,
                                   threads=threads)
    assert [r.level for r in rows] == [0, 1, 2]
    assert ([(repr(r.estimate), repr(r.stderr), repr(r.gap)) for r in rows],
            (repr(target.estimate), repr(target.stderr))) == STABILITY_GOLDEN


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("threads", [1, 2])
def test_negative_constant_volatility_is_refused(side, threads):
    negative = constant(-0.5)
    pair = [constant(0.0), UNIT_VOL, constant(0.0), UNIT_VOL]
    pair[1 if side == "x" else 3] = negative
    with pytest.raises(ConfigError,
                       match="^diffusion coefficient evaluated to a negative value$"):
        sync_distance_mc(*pair, TimeGrid(8), 2, 100, seed=1, threads=threads)


def _each_side(run):
    """A one-coefficient entry point run on the x pair, then the y pair."""
    def both(b_x, s_x, b_y, s_y):
        run(b_x, s_x)
        run(b_y, s_y)
    return both


GRID = TimeGrid(4)
# every entry point that takes a volatility, on (b_x, sigma_x, b_y, sigma_y)
VOLATILITY_ENTRY_POINTS = {
    "sync_distance_mc": lambda *pair: sync_distance_mc(*pair, GRID, 2, 10),
    "rho_scan": lambda *pair: rho_scan(*pair, GRID, 2, [0.5], 10),
    "convergence_study": lambda *pair: convergence_study(
        *pair, 2, [2], 3, 9, mc_samples=10, mc_n_steps=4),
    "build_lattice": _each_side(lambda b, s: build_lattice(b, s, 2, 3, 9)),
    "synchronous_product_chain": lambda *pair: synchronous_product_chain(
        *pair, 2, 3, 9),
    "euler_maruyama": _each_side(
        lambda b, s: euler_maruyama(b, s, GRID, np.zeros(4))),
    "monotone_em": _each_side(
        lambda b, s: monotone_em(b, s, GRID, 4, np.zeros((4, 1)))),
    "transformed_monotone_em": _each_side(
        lambda b, s: transformed_monotone_em(b, s, GRID, 4, np.zeros((4, 1)))),
    "closed_form_cost": closed_form_cost,
    "em_expected_cost": lambda *pair: em_expected_cost(*pair, 8),
}
# an oracle returns None for a non-constant table (the test below)
ORACLES = ("closed_form_cost", "em_expected_cost")


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("entry, vol", [
    (entry, vol) for entry in sorted(VOLATILITY_ENTRY_POINTS)
    for vol in ("constant", "table") if vol == "constant" or entry not in ORACLES])
def test_every_entry_point_refuses_a_negative_volatility(entry, vol, side):
    # a spec is a volatility because it is passed as one; constant(-1.0)
    # was taken as one by every entry point but the oracles
    # negative at x0 = 0 (-0.25), and tabulated past the transform's range
    negative = constant(-1.0) if vol == "constant" else table([-20.0, 20.0],
                                                              [-1.0, 0.5])
    pair = [ou(1.0), UNIT_VOL, constant(0.0), HALF_VOL]
    pair[1 if side == "x" else 3] = negative
    # the transform refuses a sigma that is not positive in its own words
    match = ("uniformly positive" if entry == "transformed_monotone_em"
             else f"^{NEGATIVE_VOLATILITY}$")
    with pytest.raises(ConfigError, match=match):
        VOLATILITY_ENTRY_POINTS[entry](*pair)


def test_an_oracle_takes_no_non_constant_table_volatility():
    vol = table([-20.0, 20.0], [-1.0, 0.5])
    for pair in ((ou(1.0), vol, constant(0.0), HALF_VOL),
                 (ou(1.0), UNIT_VOL, constant(0.0), vol)):
        assert closed_form_cost(*pair) is None
        assert em_expected_cost(*pair, 8) is None


@pytest.mark.parametrize("slope, n_steps", [(1e3, 1000), (1e30, 8)])
def test_em_expected_cost_refuses_an_overflow(slope, n_steps):
    # the first returned nan after RuntimeWarnings, the second warned
    with pytest.raises(ConfigError, match="em expected cost overflows a float"):
        em_expected_cost(affine(0.0, slope), UNIT_VOL, constant(0.0), UNIT_VOL,
                         n_steps)


def test_mc_memory_does_not_grow_with_the_replicate_count():
    # a worker's workspace holds one chunk of its batch, within
    # estimate.CHUNK_BYTES: at N = 16 and m_sub = 16 a replicate's is 820
    # doubles, so 10,000 replicates (batches of 500) draw each batch whole
    # and 200,000 (batches of 10,000) draw 8 chunks per batch.  Drawn whole,
    # the larger run's batches peaked 19 times higher
    pair = get_preset("vol-gap")
    grid = TimeGrid(16)
    sync_distance_mc(*pair, grid, 2, 100, m_sub=16, threads=1)  # loads scipy
    peaks = []
    for n_samples in (10_000, 200_000):
        tracemalloc.start()
        try:
            sync_distance_mc(*pair, grid, 2, n_samples, m_sub=16, threads=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 4 * peaks[0], peaks
