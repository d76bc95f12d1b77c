import math
import threading

import numpy as np
import pytest

from adapted_ot.model import ConfigError, TimeGrid
from adapted_ot.noise import (DEFAULT_SUBSTEPS, Workspace, batch_moments,
                              constant_rho, exit_probability_bounds,
                              fourth_moment_truncation_error, map_batches,
                              pool_moments, replicate_normals, rho_table,
                              sample_correlated_pair, truncate_increments,
                              truncation_level, _replicate_uniforms,
                              _split_seed, _stream_key, _uniforms_to_normals)
from adapted_ot.sde import _step_increments


def _generator_doubles(words):
    """The doubles ``Generator.random`` makes of raw 64-bit words."""
    return (np.asarray(words, dtype=np.uint64) >> np.uint64(11)).astype(np.float64) * 2.0**-53


def test_truncation_level_values():
    # direct evaluation of K * sqrt(-h log h)
    assert truncation_level(0.01, 4) == pytest.approx(0.8583864105157388, abs=1e-12)
    assert truncation_level(0.25, 4) == pytest.approx(2.3548200450309493, abs=1e-12)
    assert truncation_level(0.999999, 4) < 0.01


def test_truncation_level_domain():
    with pytest.raises(ConfigError):
        truncation_level(1.0, 4)
    with pytest.raises(ConfigError):
        truncation_level(0.1, 0)


def test_pair_determinism():
    grid = TimeGrid(8)
    a = sample_correlated_pair(grid, constant_rho(0.3), (123, 5), m_sub=4)
    b = sample_correlated_pair(grid, constant_rho(0.3), (123, 5), m_sub=4)
    assert np.array_equal(a.dW, b.dW)
    assert np.array_equal(a.dW_bar, b.dW_bar)
    c = sample_correlated_pair(grid, constant_rho(0.3), (123, 6), m_sub=4)
    assert not np.array_equal(a.dW, c.dW)


@pytest.mark.parametrize("master", [123, (7, 10)])
@pytest.mark.parametrize("m_sub", [1, 16])
def test_replicate_is_the_same_alone_or_in_any_batch(master, m_sub):
    grid = TimeGrid(5)
    rho = rho_table([0.0, 0.4], [0.3, -0.8])
    master_t = master if isinstance(master, tuple) else (master,)
    alone = {i: sample_correlated_pair(grid, rho, master_t + (i,), m_sub=m_sub)
             for i in (0, 3, 7, 11)}
    for edges in ([0, 12], [0, 3, 4, 12], [0, 1, 7, 8, 12], list(range(13))):
        for lo, hi in zip(edges[:-1], edges[1:]):
            batch = sample_correlated_pair(grid, rho, (master, lo), m_sub=m_sub,
                                           n_replicates=hi - lo)
            assert batch.dW.shape == (hi - lo, 5, m_sub)
            for i, block in alone.items():
                if lo <= i < hi:
                    assert np.array_equal(batch.dW[i - lo], block.dW)
                    assert np.array_equal(batch.dW_bar[i - lo], block.dW_bar)
                    assert np.array_equal(
                        _step_increments(batch.dW, None)[:, i - lo],
                        _step_increments(block.dW[None], None)[:, 0])


def test_replicate_normals_depend_only_on_master_and_index():
    batch = replicate_normals((9, 4, 100), 3, 50)
    assert np.array_equal(replicate_normals(((9, 4), 123), 3)[0], batch[23])
    assert np.array_equal(replicate_normals((9, 4, 149), 3)[0], batch[49])
    assert not np.array_equal(replicate_normals((9, 5, 123), 3)[0], batch[23])
    # a wider draw gives different replicates, not a shifted prefix
    assert not np.array_equal(replicate_normals((9, 4, 101), 5)[0, :3], batch[1])


@pytest.mark.parametrize("seed", [(3, 0), (3, 777), ((8, 1), 12345)])
def test_uniforms_are_the_stream_words(seed):
    # the draw writes Generator doubles into a caller's array; they carry the
    # same words as random_raw, and floor(u 2^52) recovers each word's top 52
    # bits exactly
    width, n_rep = 37, 500  # a stride of 40 words: 3 words of padding each
    u = _replicate_uniforms(seed, width, n_rep)
    master, first = _split_seed(seed)
    bits = np.random.Philox(key=_stream_key(master))
    bits.advance(first * 40 // 4)
    words = bits.random_raw(n_rep * 40).reshape(n_rep, 40)[:, :width]
    assert np.array_equal(u, _generator_doubles(words))
    assert np.array_equal(np.floor(u * 2.0**52), (words >> np.uint64(12)).astype(float))
    # reading a prefix of each replicate's words leaves them unchanged
    head = _replicate_uniforms(seed, width, n_rep, n_used=20)
    assert head.shape == (n_rep, 20) and np.array_equal(head, u[:, :20])


def test_workspace_reuses_its_buffers():
    ws = Workspace(10)
    a = ws.array("x", (3, 9), 9)
    b = ws.array("x", (3, 10), 10)  # the widest batch still fits
    c = ws.array("x", (10, 2), 10)  # another shape of no more elements
    assert np.shares_memory(a, b) and np.shares_memory(b, c)
    assert b.flags.c_contiguous and c.shape == (10, 2)
    assert not np.shares_memory(b, ws.array("y", (3, 10), 10))
    assert not np.shares_memory(b, ws.array("x", (4, 10), 10))  # outgrown


def test_batch_draw_fills_the_workspace():
    grid = TimeGrid(8)
    ws = Workspace(40)
    for rho in (constant_rho(0.3), constant_rho(1.0), rho_table([0.0, 0.5], [0.2, -1.0])):
        for lo, count in ((0, 40), (40, 31)):
            fresh = sample_correlated_pair(grid, rho, (6, lo), m_sub=3,
                                           n_replicates=count)
            reused = sample_correlated_pair(grid, rho, (6, lo), m_sub=3,
                                            n_replicates=count, workspace=ws)
            assert np.shares_memory(reused.dW, ws.array("dW", (8, 3, count), count))
            assert fresh.dW.tobytes() == reused.dW.tobytes()
            assert fresh.dW_bar.tobytes() == reused.dW_bar.tobytes()


def test_map_batches_runs_uneven_ranges_in_order():
    # 2,003 replicates in 20 batches: 17 ranges of 100 and 3 of 101
    grid = TimeGrid(6)
    rho = constant_rho(0.5)
    results = {}
    for threads in (1, 3):
        workers = {}  # thread -> the workspaces its batches were given
        lock = threading.Lock()

        def run_batch(lo, hi, ws):
            with lock:
                workers.setdefault(threading.get_ident(), set()).add(ws)
            block = sample_correlated_pair(grid, rho, (4, lo), m_sub=2,
                                           n_replicates=hi - lo, workspace=ws)
            return lo, hi, ws.width, block.dW_bar.sum(axis=(1, 2)).tobytes()

        results[threads] = map_batches(run_batch, 2003, threads=threads)
        assert all(len(spaces) == 1 for spaces in workers.values())
        assert len(set().union(*workers.values())) == len(workers)
    ranges = [r[:2] for r in results[1]]
    assert ranges[0] == (0, 100) and ranges[-1] == (1902, 2003)
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    assert sorted(hi - lo for lo, hi in ranges) == [100] * 17 + [101] * 3
    assert {r[2] for r in results[1]} == {101}
    assert results[1] == results[3]


def test_extreme_words_give_finite_normals():
    words = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    u = _generator_doubles(words)
    assert np.array_equal(np.floor(u * 2.0**52), (words >> np.uint64(12)).astype(float))
    z = _uniforms_to_normals(u)
    assert np.all(np.isfinite(z))
    assert z[0] == -z[-1] and z[0] < -8.0
    assert z[0] == z[1]  # the low 12 bits are dropped
    assert abs(z[2]) < 1e-15


def test_bad_seeds_are_config_errors():
    grid = TimeGrid(2)
    for seed in [(-1, 0), (1, -2), (1.5, 0), "seed"]:
        with pytest.raises(ConfigError):
            sample_correlated_pair(grid, constant_rho(1.0), seed)
    with pytest.raises(ConfigError):
        sample_correlated_pair(grid, constant_rho(1.0), (1, 0), n_replicates=0)


def test_perfect_correlations_are_exact():
    grid = TimeGrid(16)
    block = sample_correlated_pair(grid, constant_rho(1.0), 0)
    assert block.dW_bar is block.dW
    block = sample_correlated_pair(grid, constant_rho(-1.0), 0)
    assert np.array_equal(block.dW_bar, -block.dW)


def test_zero_correlation_statistics():
    grid = TimeGrid(1)
    n = 20000
    w = np.empty(n)
    w_bar = np.empty(n)
    for i in range(n):
        block = sample_correlated_pair(grid, constant_rho(0.0), (99, i), m_sub=1)
        w[i] = _step_increments(block.dW[None], None)[0, 0]
        w_bar[i] = _step_increments(block.dW_bar[None], None)[0, 0]
    corr = np.corrcoef(w, w_bar)[0, 1]
    assert abs(corr) < 3.0 / math.sqrt(n) * 1.5


def test_correlation_law():
    grid = TimeGrid(4)
    rho = 0.6
    n = 20000
    w = np.empty(n)
    w_bar = np.empty(n)
    for i in range(n):
        block = sample_correlated_pair(grid, constant_rho(rho), (5, i), m_sub=2)
        w[i] = _step_increments(block.dW[None], None).sum()
        w_bar[i] = _step_increments(block.dW_bar[None], None).sum()
    se = 1.0 / math.sqrt(n)
    assert abs(np.var(w_bar) - 1.0) < 4 * math.sqrt(2) * se
    assert abs(np.mean(w * w_bar) - rho) < 4 * 1.5 * se


def test_rho_table_control():
    control = rho_table([0.0, 0.5], [1.0, -1.0])
    grid = TimeGrid(4)
    block = sample_correlated_pair(grid, control, 11, m_sub=1)
    assert np.array_equal(block.dW_bar[:2], block.dW[:2])
    assert np.array_equal(block.dW_bar[2:], -block.dW[2:])


def _stopped_increment(h, barrier, m_sub, seed):
    """One increment over a step of size ``h``, from ``m_sub`` substeps of
    replicate ``seed``, stopped at ``barrier``."""
    values, exited = truncate_increments(
        replicate_normals(seed, m_sub)[0] * math.sqrt(h / m_sub), barrier)
    return float(values), bool(exited)


def test_truncated_clamp_invariant():
    rng = np.random.default_rng(1)
    for _ in range(50):
        h = float(rng.uniform(0.01, 0.5))
        barrier = float(rng.uniform(0.05, 2.0))
        m_sub = int(rng.integers(1, 12))
        value, exited = _stopped_increment(h, barrier, m_sub,
                                           (int(rng.integers(1 << 30)),))
        assert abs(value) <= barrier + 1e-15
        if exited:
            assert abs(value) == pytest.approx(barrier)


def test_huge_barrier_is_plain_gaussian():
    value, exited = _stopped_increment(0.25, 1e9, 8, (3, 1))
    assert not exited
    sub = replicate_normals((3, 1), 8)[0] * math.sqrt(0.25 / 8)
    assert value == pytest.approx(np.cumsum(sub)[-1], abs=0.0)


def test_tiny_barrier_exits_immediately():
    n_exit = 0
    for i in range(200):
        value, exited = _stopped_increment(0.25, 1e-4, 16, (4, i))
        n_exit += exited
        assert abs(value) <= 1e-4 + 1e-18
    assert n_exit == 200


def test_exit_probability_bounds_values():
    lower, upper = exit_probability_bounds(0.1, truncation_level(0.1, 1))
    # 2 Phibar(1.5174271), 4 Phibar(1.5174271) via erfc
    assert lower == pytest.approx(0.12915887869840684, abs=1e-12)
    assert upper == pytest.approx(0.2583177573968137, abs=1e-12)
    lower, upper = exit_probability_bounds(0.25, 1e-12)
    assert lower == pytest.approx(1.0)
    assert upper == 1.0  # clamped
    _, tail = exit_probability_bounds(0.01, truncation_level(0.01, 4))
    assert tail < 1e-16  # ~1.8e-17: the h^10-scale certificate


def test_exit_frequency_sandwich():
    h = 0.1
    barrier = truncation_level(h, 1)
    lower, upper = exit_probability_bounds(h, barrier)
    rng = np.random.default_rng(77)
    n = 100000
    sub = rng.standard_normal((n, 16)) * math.sqrt(h / 16)
    _, exited = truncate_increments(sub, barrier)
    freq = exited.mean()
    margin = 4 * math.sqrt(freq * (1 - freq) / n)
    assert lower - margin <= freq <= upper + margin


def test_single_substep_clamp_matches_the_stopped_sum():
    # one substep takes the clamp; a trailing -0.0 substep sends the same
    # running sums (x + -0.0 has the bits of x, for -0.0 and NaN too)
    # through the general stopped sum
    barrier = truncation_level(0.1, 1)
    edges = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, barrier, -barrier,
             np.nextafter(barrier, 0.0), np.nextafter(-barrier, 0.0),
             np.nextafter(barrier, 1.0), 2.0 * barrier, 1e-300, -5e-324]
    x = np.concatenate([edges, np.random.default_rng(5).normal(
        scale=barrier, size=400)]).reshape(2, -1, 1)
    values, exited = truncate_increments(x, barrier)
    general = truncate_increments(np.concatenate([x, np.full_like(x, -0.0)],
                                                 axis=-1), barrier)
    assert values.shape == exited.shape == x.shape[:-1]
    assert values.tobytes() == general[0].tobytes()
    assert np.array_equal(exited, general[1])
    assert exited.any() and not exited.all()


def _pooled(values, threads):
    moments = map_batches(lambda lo, hi, _ws: batch_moments(values[lo:hi]),
                          values.size, threads=threads)
    return pool_moments(moments)


@pytest.mark.parametrize("threads", [1, 3])
def test_pooled_moments_match_the_per_replicate_formula(threads):
    # heavy-tailed values far from zero, in 20 uneven batches
    values = 3.0 + np.random.default_rng(8).lognormal(sigma=1.5, size=2003)
    mean, stderr, n = _pooled(values, threads)
    assert n == 2003
    assert mean == pytest.approx(np.mean(values), rel=1e-12)
    assert stderr == pytest.approx(np.std(values, ddof=1) / math.sqrt(n), rel=1e-12)
    assert (mean, stderr, n) == _pooled(values, 1)


def test_pooled_moments_edge_cases():
    assert _pooled(np.array([2.5]), 1) == (2.5, 0.0, 1)
    for c in (0.1, -7.3, 1e6 / 3):
        mean, stderr, _ = _pooled(np.full(2003, c), 2)
        assert mean == pytest.approx(c, rel=1e-15)
        assert stderr <= 1e-15 * abs(mean)


def test_pooled_stderr_of_a_deterministic_cost_is_zero():
    # a constant cost spreads over a few ulps in the batch means and the
    # M2 merge; that rounding pools to exactly 0.0
    for c in (0.1, -7.3, 1e6 / 3, 24.3):
        assert _pooled(np.full(2003, c), 2)[1] == 0.0
    assert _pooled(np.zeros(50), 1)[1] == 0.0


def test_pooled_stderr_keeps_a_tiny_real_spread():
    mean, stderr, n = _pooled(np.array([1.0, 1.0 + 1e-10]), 1)
    assert n == 2 and stderr > 0.0
    assert stderr == pytest.approx(0.5e-10, rel=1e-6)


def test_fourth_moment_fields_are_python_scalars():
    res = fourth_moment_truncation_error(0.1, 1, 2000, seed=3)
    assert type(res.estimate) is float and type(res.stderr) is float
    assert type(res.analytic_bound) is float and type(res.n_exits) is int
    assert type(res.within_bound) is bool
    assert "np." not in repr(res)


def test_fourth_moment_no_truncation_is_exact_zero():
    res = fourth_moment_truncation_error(0.1, 4, 20000, seed=1)
    assert res.estimate == 0.0
    assert res.n_exits == 0
    assert res.within_bound


def test_fourth_moment_k1_bound():
    res = fourth_moment_truncation_error(0.1, 1, 100000, seed=2)
    assert res.n_exits > 0
    assert res.analytic_bound == pytest.approx(6 * 0.01 * math.sqrt(0.1), rel=1e-12)
    assert res.within_bound


@pytest.mark.parametrize("trunc_k, exits", [(1, True), (4, False)],
                         ids=["exits", "no-exits"])
def test_fourth_moment_check_sums_substeps_as_the_schemes_do(trunc_k, exits):
    # the check's full increment, a cumsum of 16 substeps, has the bits of
    # the schemes' one substep-to-step reduction; on that reduction the
    # check's estimate and exit count come out the same
    h, n_samples, seed = 0.1, 4000, 5
    barrier = truncation_level(h, trunc_k)

    def run_batch(lo, hi, _ws):
        sub = (replicate_normals((seed, lo), DEFAULT_SUBSTEPS, hi - lo)
               * math.sqrt(h / DEFAULT_SUBSTEPS))
        full = _step_increments(sub[:, None, :], None)[0]
        assert np.array_equal(full, np.cumsum(sub, axis=1)[:, -1])
        values, exited = truncate_increments(sub, barrier)
        return batch_moments((full - values) ** 4), int(exited.sum())

    moments, n_exits = zip(*map_batches(run_batch, n_samples))
    res = fourth_moment_truncation_error(h, trunc_k, n_samples, seed=seed)
    assert (sum(n_exits) > 0) == exits and res.n_exits == sum(n_exits)
    assert (res.estimate, res.stderr) == pool_moments(moments)[:2]
