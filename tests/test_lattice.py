import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adapted_ot.lattice import (build_lattice, check_fosd,
                                fosd_sufficient_condition, quantile_bins,
                                quantize_increment)
from adapted_ot.model import (ConfigError, MarkovLattice, affine, constant,
                              ou, sign_switch, table)
from adapted_ot.noise import truncate_increments, truncation_level
from adapted_ot.presets import PRESETS, get_preset
from kernels import sparse

UNIT_VOL = constant(1.0, role="diffusion")


def _stage_marginals(lattice):
    """Forward marginal probability vectors of a lattice, one per stage."""
    out = [np.array([1.0])]
    for kernel, support in zip(lattice.kernels, lattice.supports[1:]):
        mass = np.repeat(out[-1], kernel.row_sizes) * kernel.weight
        out.append(np.bincount(kernel.index, mass, support.size))
    return out


def test_quantize_halves_of_standard_normal():
    atoms = quantize_increment(1.0, 1e9, 2)
    assert atoms == pytest.approx([-math.sqrt(2 / math.pi),
                                   math.sqrt(2 / math.pi)], abs=1e-12)
    # the lattice's equal weights are the quantizer's
    _, _, weights = build_lattice(constant(0.0), UNIT_VOL, 1, 2, 2,
                                  return_atom_maps=True)
    assert np.allclose(weights, 0.5)


def test_quantize_scales_with_sqrt_h():
    atoms = quantize_increment(0.01, 0.8584, 2)
    assert atoms == pytest.approx([-0.1 * math.sqrt(2 / math.pi),
                                   0.1 * math.sqrt(2 / math.pi)], abs=1e-9)


def test_quantize_mean_zero_and_clamped():
    for m in (2, 3, 5, 8, 11):
        atoms = quantize_increment(0.04, 0.15, m)
        assert abs(float(np.full(m, 1.0 / m) @ atoms)) <= 1e-12
        assert np.all(np.diff(atoms) >= 0)
        assert np.max(np.abs(atoms)) <= 0.15
        assert np.allclose(atoms, -atoms[::-1])


@pytest.mark.parametrize("h, barrier", [(0.1, np.nan), (np.nan, 1.0),
                                        (np.inf, 1.0), (0.0, 1.0),
                                        (0.1, 0.0)])
def test_quantize_refuses_bad_steps_and_barriers(h, barrier):
    # a NaN step or barrier gave NaN atoms; h = inf failed as unsorted atoms
    with pytest.raises(ConfigError, match="finite positive step"):
        quantize_increment(h, barrier, 5)


def _scipy_quantizer_atoms(h, barrier, m):
    """Reference quantizer on scipy's ndtr/ndtri: the conditional means of
    clamp(Z sqrt(h), -barrier, barrier) on its m quantile cells, made
    symmetric as ``quantize_increment`` makes them."""
    from scipy.special import ndtr, ndtri
    sd = math.sqrt(h)
    u_lo = float(ndtr(-barrier / sd))
    pdf = [float(np.exp(-0.5 * z * z)) / math.sqrt(2.0 * math.pi) if
           math.isfinite(z) else 0.0 for z in
           ndtri(np.clip(np.arange(m + 1) / m, u_lo, 1.0 - u_lo)).tolist()]
    atoms = np.empty(m)
    for j in range(m):
        a, b = j / m, (j + 1) / m
        atoms[j] = m * sd * (pdf[j] - pdf[j + 1])
        if u_lo > a:
            atoms[j] -= m * barrier * (min(b, u_lo) - a)
        if b > 1.0 - u_lo:
            atoms[j] += m * barrier * (b - max(a, 1.0 - u_lo))
    return 0.5 * (atoms - atoms[::-1])


@pytest.mark.parametrize("n_steps", [1, 2, 3] + [2**k for k in range(2, 13)])
def test_quantizer_atoms_match_scipy_within_32_ulps(n_steps):
    # n_steps = 1 has an infinite barrier: the outer cells reach u = 0 and 1
    h = 1.0 / n_steps
    barrier = truncation_level(h, 4) if n_steps > 1 else np.inf
    for m in range(2, 16):
        atoms = quantize_increment(h, barrier, m)
        reference = _scipy_quantizer_atoms(h, barrier, m)
        assert np.all(np.abs(atoms - reference)
                      <= 32 * np.spacing(np.abs(reference))), (m, atoms,
                                                               reference)


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
    for k, kernel in enumerate(lattice.kernels):
        assert kernel.weight.min() > 0.0
        row = np.repeat(np.arange(kernel.row_sizes.size), kernel.row_sizes)
        assert np.abs(np.bincount(row, kernel.weight) - 1.0).max() <= 1e-12
        support = lattice.supports[k]
        pushed = marginals[k] @ (support + h * drift.evaluate(support))
        mean = marginals[k + 1] @ lattice.supports[k + 1]
        scale = 1.0 + marginals[k + 1] @ np.abs(lattice.supports[k + 1])
        assert abs(mean - pushed) <= 1e-12 * scale


def test_build_lattice_pure_noise_one_step():
    lattice = build_lattice(constant(0.0), UNIT_VOL, 1, 2, 10)
    assert lattice.supports[1] == pytest.approx(
        [-math.sqrt(2 / math.pi), math.sqrt(2 / math.pi)], abs=1e-12)
    sizes, index, weight = lattice.kernels[0]
    assert sizes.tolist() == [2] and index.tolist() == [0, 1]
    assert np.allclose(weight, 0.5)


def test_build_lattice_deterministic_drift():
    lattice = build_lattice(constant(1.0), constant(0.0, role="diffusion"),
                            2, 2, 10)
    assert np.allclose(lattice.supports[1], [0.5])
    assert np.allclose(lattice.supports[2], [1.0])
    for sizes, index, weight in lattice.kernels:
        assert sizes.tolist() == [1] and index.tolist() == [0]
        assert np.allclose(weight, 1.0)


def test_build_lattice_rejects_path_dependent():
    with pytest.raises(ConfigError, match="a lattice needs Markovian coefficients"):
        build_lattice(sign_switch(5.0, 0.1), UNIT_VOL, 4, 3, 20)


def test_build_lattice_rejects_small_support_budget():
    with pytest.raises(ConfigError):
        build_lattice(constant(0.0), UNIT_VOL, 2, 5, 4)


def _simulate_quantized_chain(b, s, n_steps, m, seed, n_paths):
    """Monte Carlo of the exact quantized chain (uniform atom choice)."""
    h = 1.0 / n_steps
    atoms = quantize_increment(h, truncation_level(h, 4), m)
    rng = np.random.default_rng(seed)
    x = np.zeros(n_paths)
    for _ in range(n_steps):
        atom = atoms[rng.integers(0, m, size=n_paths)]
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
        kernels=(sparse([[0.5, 0.5]]), sparse([[0.0, 1.0], [1.0, 0.0]])))
    res = check_fosd(crossing)
    assert not res.ok
    assert res.witness == (1, 0, 0)


# the crossing kernel of acceptance criterion 9, read from its file
CROSSING_JSON = (
    '{"initial_value": 0.0, "stages": ['
    '{"support": [-1.0, 1.0], "row_sizes": [2], "index": [0, 1], '
    '"weight": [0.5, 0.5]}, '
    '{"support": [-2.0, 2.0], "row_sizes": [1, 1], "index": [1, 0], '
    '"weight": [1.0, 1.0]}]}')


def _fosd_case(case):
    """The lattice of one pinned FOSD case."""
    if case == "crossing":
        return MarkovLattice.from_json(CROSSING_JSON)
    if case == "theta-12":
        return build_lattice(ou(12.0), UNIT_VOL, 4, 5, 60)
    if case == "steep":
        return build_lattice(table([-12, -1e-3, 1e-3, 12], [2, 2, -2, -2]),
                             UNIT_VOL, 8, 5, 40)
    name, side, n_steps = case.rsplit("-", 2)
    b_x, s_x, b_y, s_y = get_preset(name)
    drift, vol = (b_x, s_x) if side == "x" else (b_y, s_y)
    return build_lattice(drift, vol, int(n_steps), 5, 40)


@pytest.mark.parametrize("case, want", [
    ("theta-12", (False, (1, 0, 9))),
    ("steep", (False, (1, 1, 2))),
    ("crossing", (False, (1, 0, 0))),
] + [(f"{name}-{side}-{n_steps}", (True, None)) for name in sorted(PRESETS)
     for side in "xy" for n_steps in (16, 64)])
def test_fosd_outcomes_are_pinned(case, want):
    # the outcome and the first witness of the dense-kernel check, recorded
    # before the kernels were stored as rows
    res = check_fosd(_fosd_case(case))
    assert (res.ok, res.witness) == want


@st.composite
def _small_lattices(draw):
    """Lattices with arbitrary rows: gaps, single entries, equal masses on
    shifted supports, so that adjacent CDFs tie, cross and dominate."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    kernels = []
    for n_rows, n_cols in zip([1] + sizes, sizes):
        dense = np.zeros((n_rows, n_cols))
        for row in dense:
            cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=1,
                                 max_size=n_cols, unique=True))
            mass = np.array(draw(st.lists(st.integers(1, 3), min_size=len(cols),
                                          max_size=len(cols))), dtype=float)
            row[sorted(cols)] = mass / mass.sum()
        kernels.append(sparse(dense))
    supports = [np.array([0.0])] + [np.arange(float(n)) for n in sizes]
    return MarkovLattice(initial_value=0.0, supports=tuple(supports),
                         kernels=tuple(kernels))


@given(_small_lattices())
def test_fosd_check_matches_the_dense_cdfs(lattice):
    # the reference: conditional CDFs of adjacent rows on the full next
    # support, the first crossing in row-major order as the witness
    want = (True, None)
    for k, kernel in enumerate(lattice.kernels):
        dense = np.zeros((lattice.supports[k].size, lattice.supports[k + 1].size))
        dense[np.repeat(np.arange(len(dense)), kernel.row_sizes),
              kernel.index] = kernel.weight
        cdf = np.cumsum(dense, axis=1)
        bad = np.argwhere(cdf[1:] - cdf[:-1] > 1e-10)
        if len(bad):
            want = (False, (k, int(bad[0][0]), int(bad[0][1])))
            break
    res = check_fosd(lattice)
    assert (res.ok, res.witness) == want


def _array_bytes(value):
    """Bytes of the numpy arrays in ``value``, through nested tuples."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_array_bytes(item) for item in value)
    return 0


def test_lattice_keeps_its_rows_not_dense_kernels():
    # vol-gap's X marginal at N = 64, m = 9, max_support = 200: its dense
    # (200, 200) kernels alone would be 19.5 MiB; its rows hold at most 9
    # entries each
    drift, vol = get_preset("vol-gap")[:2]
    tracemalloc.start()
    try:
        lattice = build_lattice(drift, vol, 64, 9, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lattice.kernel_rows
    kept = sum(_array_bytes(value) for value in vars(lattice).values())
    assert kept <= 4 * 2**20, kept
    assert peak <= 8 * 2**20, peak


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


@pytest.mark.parametrize("c0, c1", [(np.nan, 0.0), (0.0, np.nan),
                                    (np.inf, 0.0), (-1.0, 0.0)])
def test_fosd_sufficient_condition_refuses_bad_constants(c0, c1):
    # a NaN constant answered False, as if the map had failed the test
    with pytest.raises(ConfigError, match="finite and nonnegative"):
        fosd_sufficient_condition(c0, c1, 0.1, 4)


def test_build_lattice_refuses_a_nan_truncation_multiplier():
    # it failed later, as "stage-1 support must be finite"
    with pytest.raises(ConfigError, match="truncation multiplier"):
        build_lattice(ou(1.0), UNIT_VOL, 4, 3, 9, trunc_k=np.nan)
