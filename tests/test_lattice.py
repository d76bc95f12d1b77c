import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adapted_ot.lattice import (build_lattice, check_fosd,
                                fosd_sufficient_condition, quantile_bins,
                                quantize_increment)
from adapted_ot.model import (ConfigError, MarkovLattice, NotMarkovianError,
                              affine, constant, ou, sign_switch, table)
from adapted_ot.noise import truncate_increments, truncation_level

UNIT_VOL = constant(1.0, role="diffusion")


def _stage_marginals(lattice):
    """Forward marginal probability vectors of a lattice, one per stage."""
    out = [np.array([1.0])]
    for t in lattice.transitions:
        out.append(out[-1] @ t)
    return out


def test_quantize_halves_of_standard_normal():
    q = quantize_increment(1.0, 1e9, 2)
    assert q.atoms == pytest.approx([-math.sqrt(2 / math.pi),
                                     math.sqrt(2 / math.pi)], abs=1e-12)
    assert np.allclose(q.weights, 0.5)


def test_quantize_scales_with_sqrt_h():
    q = quantize_increment(0.01, 0.8584, 2)
    assert q.atoms == pytest.approx([-0.1 * math.sqrt(2 / math.pi),
                                     0.1 * math.sqrt(2 / math.pi)], abs=1e-9)


def test_quantize_mean_zero_and_clamped():
    for m in (2, 3, 5, 8, 11):
        q = quantize_increment(0.04, 0.15, m)
        assert abs(float(q.weights @ q.atoms)) <= 1e-12
        assert np.max(np.abs(q.atoms)) <= 0.15
        assert np.allclose(q.atoms, -q.atoms[::-1])


def test_quantile_bins_contiguous_equal_mass():
    masses = np.full(10, 0.1)
    bins = quantile_bins(masses, 5)
    assert np.array_equal(bins, [0, 0, 1, 1, 2, 2, 3, 3, 4, 4])
    bins = quantile_bins(np.array([0.9] + [0.1 / 9] * 9), 3)
    assert bins[0] == 0
    assert bins[-1] == 2
    assert np.all(np.diff(bins) >= 0)
    assert len(set(bins.tolist())) == 3


@given(st.lists(st.one_of(st.floats(1e-6, 1.0),
                          st.sampled_from([1e-16, 1e-15, 2e-15])),
                min_size=1, max_size=60),
       st.data())
def test_quantile_bins_exact_count_contiguous(masses, data):
    n_bins = data.draw(st.integers(1, len(masses)))
    bins = quantile_bins(np.array(masses), n_bins)
    steps = np.diff(bins)
    assert bins[0] == 0 and bins[-1] == n_bins - 1
    assert np.all((steps == 0) | (steps == 1))  # contiguous and non-empty


DRIFTS = st.one_of(
    st.floats(-2.0, 2.0).map(constant),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.5, 1.5)).map(
        lambda c: affine(*c)),
    st.floats(0.0, 2.0).map(ou))


@given(DRIFTS, st.floats(0.1, 2.0), st.integers(1, 6), st.integers(2, 7),
       st.integers(0, 25))
def test_build_lattice_keeps_means_and_stochastic_rows(drift, vol, n_steps, m,
                                                       extra):
    # merging replaces bins by their probability-weighted means, and the
    # quantized increment has mean zero, so each stage mean is exactly the
    # previous mean pushed through one drift step
    lattice = build_lattice(drift, constant(vol, role="diffusion"), n_steps,
                            m, m + extra)
    h = 1.0 / n_steps
    marginals = _stage_marginals(lattice)
    for k, rows in enumerate(lattice.transitions):
        assert rows.min() >= 0.0
        assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12
        support = lattice.supports[k]
        pushed = marginals[k] @ (support + h * drift.evaluate(support))
        mean = marginals[k + 1] @ lattice.supports[k + 1]
        scale = 1.0 + marginals[k + 1] @ np.abs(lattice.supports[k + 1])
        assert abs(mean - pushed) <= 1e-12 * scale


def test_build_lattice_pure_noise_one_step():
    lattice = build_lattice(constant(0.0), UNIT_VOL, 1, 2, 10)
    assert lattice.supports[1] == pytest.approx(
        [-math.sqrt(2 / math.pi), math.sqrt(2 / math.pi)], abs=1e-12)
    assert np.allclose(lattice.transitions[0], [[0.5, 0.5]])


def test_build_lattice_deterministic_drift():
    lattice = build_lattice(constant(1.0), constant(0.0, role="diffusion"),
                            2, 2, 10)
    assert np.allclose(lattice.supports[1], [0.5])
    assert np.allclose(lattice.supports[2], [1.0])
    assert all(np.allclose(t, 1.0) for t in lattice.transitions)


def test_build_lattice_rejects_path_dependent():
    with pytest.raises(NotMarkovianError):
        build_lattice(sign_switch(5.0, 0.1), UNIT_VOL, 4, 3, 20)


def test_build_lattice_rejects_small_support_budget():
    with pytest.raises(ConfigError):
        build_lattice(constant(0.0), UNIT_VOL, 2, 5, 4)


def _simulate_quantized_chain(b, s, n_steps, m, seed, n_paths):
    """Monte Carlo of the exact quantized chain (uniform atom choice)."""
    h = 1.0 / n_steps
    q = quantize_increment(h, truncation_level(h, 4), m)
    rng = np.random.default_rng(seed)
    x = np.zeros(n_paths)
    for _ in range(n_steps):
        atom = q.atoms[rng.integers(0, m, size=n_paths)]
        x = x + h * np.asarray(b.evaluate(x)) + np.asarray(s.evaluate(x)) * atom
    return x


def _simulate_monotone_em(b, s, n_steps, seed, n_paths, m_sub=4):
    h = 1.0 / n_steps
    barrier = truncation_level(h, 4)
    rng = np.random.default_rng(seed)
    x = np.zeros(n_paths)
    for _ in range(n_steps):
        sub = rng.standard_normal((n_paths, m_sub)) * math.sqrt(h / m_sub)
        delta, _ = truncate_increments(sub, barrier)
        x = x + h * np.asarray(b.evaluate(x)) + np.asarray(s.evaluate(x)) * delta
    return x


def _lattice_moments(lattice):
    marginal = _stage_marginals(lattice)[-1]
    support = lattice.supports[-1]
    mean = float(marginal @ support)
    return mean, float(marginal @ support**2) - mean**2


def test_unmerged_lattice_marginals_match_quantized_chain():
    # 5^3 = 125 <= cap: the lattice is the exact law of the quantized chain
    n_steps, m, cap = 3, 5, 125
    b, s = ou(1.0), UNIT_VOL
    lattice = build_lattice(b, s, n_steps, m, cap)
    lat_mean, lat_var = _lattice_moments(lattice)
    n_paths = 100000
    x = _simulate_quantized_chain(b, s, n_steps, m, (21, 0), n_paths)
    assert abs(lat_mean - x.mean()) < 4 * x.std() / math.sqrt(n_paths)
    assert abs(lat_var - x.var()) < 4 * x.var() * math.sqrt(2.0 / n_paths)


def test_merged_lattice_marginals_track_quantized_chain():
    # contiguous quantile merging preserves stage means exactly but loses the
    # within-bin variance (about 2% here for a wide state-dependent vol)
    b = constant(0.5)
    s = table([-60, 0, 60], [13.0, 1.0, 13.0], role="diffusion")
    lattice = build_lattice(b, s, 4, 5, 30)
    lat_mean, lat_var = _lattice_moments(lattice)
    n_paths = 100000
    x = _simulate_quantized_chain(b, s, 4, 5, (21, 1), n_paths)
    assert abs(lat_mean - x.mean()) < 4 * x.std() / math.sqrt(n_paths)
    assert lat_var <= x.var() * (1 + 4 * math.sqrt(2.0 / n_paths))
    assert lat_var >= 0.95 * x.var()


def test_lattice_mean_matches_monotone_em():
    # OU(1), unit vol, N=4, m=3: stage-N means agree within 3 MC stderr
    # (conditional-mean quantization and contiguous merging preserve means)
    lattice = build_lattice(ou(1.0), UNIT_VOL, 4, 3, 30)
    marginal = _stage_marginals(lattice)[-1]
    lat_mean = float(marginal @ lattice.supports[-1])
    n_paths = 100000
    x = _simulate_monotone_em(ou(1.0), UNIT_VOL, 4, (22, 0), n_paths)
    assert abs(lat_mean - x.mean()) < 3 * x.std() / math.sqrt(n_paths)


def test_fosd_certificate_on_certified_pair():
    # margin 1 - h C0 - A_h C1 > 0 with no merging (3^3 = 27 <= 40)
    b = ou(0.8)
    s = table([-60, 60], [0.4, 24.4], role="diffusion")  # slope 0.2
    assert fosd_sufficient_condition(0.8, 0.2, 1.0 / 3, 4)
    lattice = build_lattice(b, s, 3, 3, 40)
    assert max(len(sup) for sup in lattice.supports) <= 27
    assert check_fosd(lattice).ok


def test_fosd_survives_contiguous_merging():
    b = ou(0.8)
    s = table([-60, 60], [0.4, 24.4], role="diffusion")
    merged = build_lattice(b, s, 5, 5, 12)  # raw supports exceed 12
    assert check_fosd(merged).ok


def test_fosd_violation_witness():
    crossing = MarkovLattice(
        initial_value=0.0,
        supports=(np.array([0.0]), np.array([-1.0, 1.0]),
                  np.array([-2.0, 2.0])),
        transitions=(np.array([[0.5, 0.5]]),
                     np.array([[0.0, 1.0], [1.0, 0.0]])))
    res = check_fosd(crossing)
    assert not res.ok
    assert res.witness == (1, 0, 0)


def test_fosd_deterministic_increasing_is_certified():
    lattice = build_lattice(constant(1.0), constant(0.0, role="diffusion"),
                            3, 2, 10)
    assert check_fosd(lattice).ok


def test_fosd_sufficient_condition_values():
    assert fosd_sufficient_condition(2.0, 1.0, 0.01, 4)
    margin = 1 - 0.01 * 2 - truncation_level(0.01, 4)
    assert margin == pytest.approx(0.12161358948426115, abs=1e-12)
    assert not fosd_sufficient_condition(2.0, 2.0, 0.01, 4)
    for h in (0.9, 0.5, 0.01, 1e-6):
        assert fosd_sufficient_condition(0.0, 0.0, h, 4)
