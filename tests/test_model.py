import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adapted_ot.acceptance import random_tree
from adapted_ot.estimate import em_expected_cost
from adapted_ot.lattice import build_lattice, check_fosd, quantize_increment
from adapted_ot.model import (COEFFICIENT_KINDS, NEGATIVE_VOLATILITY,
                              CoefficientSpec, ConfigError,
                              DiscretePathMeasure, MarkovLattice, SamplePath,
                              TimeGrid, affine, constant, eval_coefficient,
                              interp_point, lipschitz_constant, ou,
                              parse_coefficient, sign_switch, table)
from adapted_ot.sde import _propagate, euler_maruyama
from adapted_ot.transport import kr_coupling
from kernels import sparse


def make_prefix(n_steps, values):
    return SamplePath(grid=TimeGrid(n_steps), values=np.asarray(values))


def test_eval_constant_any_state():
    spec = constant(1.5)
    prefix = make_prefix(4, [0.0, 3.0, -2.0, 0.5, 0.1])
    assert eval_coefficient(spec, 0.5, prefix) == 1.5


def test_eval_ou_reads_current_state():
    spec = ou(1.0)
    prefix = make_prefix(2, [0.0, 2.0, 0.0])
    assert eval_coefficient(spec, 0.5, prefix) == -2.0


def test_eval_sign_switch_after_switch_time():
    spec = sign_switch(5.0, 0.1)
    prefix = make_prefix(10, [0.0, -0.3] + [0.0] * 9)
    assert eval_coefficient(spec, 0.2, prefix) == -5.0
    assert eval_coefficient(spec, 0.1, prefix) == 0.0


def test_sign_switch_is_not_markovian():
    spec = sign_switch(5.0, 0.1)
    with pytest.raises(ConfigError, match="sign_switch is path-dependent; "
                                          "use eval_coefficient"):
        spec.evaluate(1.0)
    with pytest.raises(ConfigError, match="sign_switch has no Lipschitz constant"):
        lipschitz_constant(spec)


def test_sign_switch_is_no_diffusion():
    # a spec is a volatility because it is passed as one: each place that
    # evaluates a volatility refuses a path-dependent one by that name
    message = "^sign_switch is a path-dependent drift; it cannot be a volatility$"
    vol = parse_coefficient("kind=sign_switch level=1 switch_time=0.5")
    assert vol == sign_switch(1.0, 0.5)
    grid = TimeGrid(4)
    for run in (lambda: build_lattice(constant(0.0), vol, 4, 3, 9),
                lambda: _propagate(constant(0.0), vol, grid.h, np.zeros((4, 3)), 0.0),
                lambda: euler_maruyama(constant(0.0), vol, grid, np.zeros(4)),
                lambda: euler_maruyama(vol, vol, grid, np.zeros(4))):
        with pytest.raises(ConfigError, match=message):
            run()


def test_table_refuses_extrapolation():
    spec = table([0.0, 1.0], [0.0, 2.0])
    with pytest.raises(ConfigError,
                       match=r"^table query outside knot range \[0\.0, 1\.0\]$"):
        spec.evaluate(1.5)


def test_diffusion_must_be_nonnegative():
    # the spec evaluates anywhere; passed as a volatility, it is refused
    # where it is negative, by the lattice, the batch and the single path
    spec = affine(0.0, 1.0)
    assert spec.evaluate(-1.0) == -1.0
    grid = TimeGrid(4)
    for run in (lambda: build_lattice(constant(0.0), spec, 4, 3, 9, x0=-1.0),
                lambda: _propagate(constant(0.0), spec, grid.h, np.zeros((4, 3)), -1.0),
                lambda: euler_maruyama(constant(0.0), spec, grid, np.zeros(4), x0=-1.0)):
        with pytest.raises(ConfigError, match=f"^{NEGATIVE_VOLATILITY}$"):
            run()


def _same_bits(a, b):
    return np.array(a, dtype="<f8").tobytes() == np.array(b, dtype="<f8").tobytes()


FLOAT_EVALUATOR_SPECS = [
    constant(1.5), constant(-0.25), constant(0.7),
    affine(0.5, -0.5), affine(0.3, 0.1), ou(1.0), ou(-0.7),
    table(np.linspace(-3, 3, 13), np.sin(np.linspace(-3, 3, 13))),
    table([-2.0, -0.5, 0.1, 2.5], [1.0, 0.2, 0.2, 3.0]),
    table([0.0, 1e-3, 1.0], [0.0, 1e3, -1e3]),
]
# a negative value is a value here: a volatility's sign is checked where a
# scheme or a lattice evaluates it (tests/test_sde.py, tests/test_estimate.py)
FLOAT_EVALUATOR_IDS = ["constant", "constant-negative",
                       "constant-positive", "affine", "affine-gentle", "ou",
                       "ou-negative", "table-sin", "table-positive",
                       "table-steep"]


@pytest.mark.parametrize("spec", FLOAT_EVALUATOR_SPECS, ids=FLOAT_EVALUATOR_IDS)
def test_float_evaluator_matches_evaluate_bit_for_bit(spec):
    rng = np.random.default_rng(17)
    if spec.kind == "table":
        lo, hi = spec.knots[0], spec.knots[-1]
        points = list(rng.uniform(lo, hi, 200)) + list(spec.knots)
        points += [float(np.nextafter(lo, np.inf)), float(np.nextafter(hi, -np.inf))]
    else:
        points = list(rng.normal(0.0, 3.0, 200)) + [0.0, -0.0, 1e300]
    f = spec.float_evaluator()
    for x in map(float, points):
        want = spec.evaluate(x)
        got = f(x)
        assert type(got) is float and _same_bits(got, want), (x, got, want)


def test_float_evaluator_raises_what_evaluate_raises():
    spec = table([0.0, 1.0], [0.0, 2.0])
    f = spec.float_evaluator()
    message = r"^table query outside knot range \[0\.0, 1\.0\]$"
    for x in (-1e-300, 1.0 + 2**-52, -5.0, 7.0):
        with pytest.raises(ConfigError, match=message):
            spec.evaluate(x)
        with pytest.raises(ConfigError, match=message):
            f(x)
    # a negative value is a value: only a volatility's evaluation refuses it
    assert affine(0.0, 1.0).float_evaluator()(-1.0) == -1.0
    assert table([0.0, 1.0], [1.0, -1.0]).float_evaluator()(0.75) == -0.5
    with pytest.raises(ConfigError, match="sign_switch is path-dependent; "
                                          "use eval_coefficient"):
        sign_switch(5.0, 0.1).float_evaluator()


def test_interp_point_is_np_interp():
    inf = float("inf")
    cases = [
        ([0.0, 1.0, 3.0], [2.0, -1.0, 5.0],
         [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, float("nan")]),
        # an infinite slope: a knot returns its value, not inf * 0
        ([0.0, 1e-300, 1.0], [0.0, 1e10, 2e10], [0.0, 1e-300, 5e-301, 0.5]),
        # infinite values: the NaN from the left knot is retried from the right
        ([0.0, 1.0, 2.0], [-inf, 0.0, 1.0], [0.5, 1.5]),
        ([0.0, 1.0], [inf, inf], [0.5]),
    ]
    for xs, ys, queries in cases:
        for x in queries:
            assert _same_bits(interp_point(x, xs, ys), np.interp(x, xs, ys)), (xs, ys, x)
    xs = np.linspace(-1.0, 1.0, 11)[::2]  # a strided view, as the transform tables are
    ys = np.cos(xs)
    for x in np.linspace(-1.5, 1.5, 61):
        got = interp_point(float(x), memoryview(xs), memoryview(ys))
        assert _same_bits(got, np.interp(x, xs, ys))


def test_lipschitz_constant_examples():
    assert lipschitz_constant(affine(0.0, 2.0)) == 2.0
    assert lipschitz_constant(constant(3.0)) == 0.0
    assert lipschitz_constant(table([0.0, 1.0], [0.0, 2.0])) == 2.0


def test_lipschitz_constant_affine_is_exact():
    rng = np.random.default_rng(3)
    spec = affine(0.7, -1.3)
    lip = lipschitz_constant(spec)
    x, y = rng.normal(size=(2, 500)) * 10
    assert np.all(np.abs(spec.evaluate(x) - spec.evaluate(y))
                  <= lip * np.abs(x - y) + 1e-12)


def test_table_knots_must_increase():
    with pytest.raises(ConfigError):
        table([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("make", [
    lambda: constant(np.nan), lambda: ou(np.inf), lambda: affine(0.0, np.nan),
    lambda: sign_switch(np.nan, 0.1), lambda: sign_switch(5.0, np.inf),
    lambda: parse_coefficient("kind=constant value=nan"),
], ids=["constant", "ou", "affine", "sign-switch-level",
        "sign-switch-time", "parsed"])
def test_non_finite_coefficients_are_rejected(make):
    with pytest.raises(ConfigError, match="finite"):
        make()


def test_coefficient_text_parses_every_kind():
    texts = {"kind=constant value=1.5": constant(1.5),
             "kind=affine intercept=0.25 slope=-2.0": affine(0.25, -2.0),
             "kind=ou theta=0.7": ou(0.7),
             "kind=table knots=-1.0,0.5,2.0 values=3.0,0.0,1.0":
                 table([-1.0, 0.5, 2.0], [3.0, 0.0, 1.0]),
             "kind=sign_switch level=5.0 switch_time=0.1": sign_switch(5.0, 0.1)}
    for text, spec in texts.items():
        assert parse_coefficient(text) == spec


@pytest.mark.parametrize("theta", [0.7, 12.0, -1.0])
def test_ou_is_the_affine_drift_through_zero(theta):
    assert ou(theta) == affine(0.0, -theta) \
        == parse_coefficient(f"kind=ou theta={theta}")


def test_ou_is_no_coefficient_kind():
    assert COEFFICIENT_KINDS == ("constant", "affine", "table", "sign_switch")
    with pytest.raises(ConfigError, match="unknown coefficient kind 'ou'"):
        CoefficientSpec(kind="ou")


def test_parse_coefficient_errors():
    with pytest.raises(ConfigError):
        parse_coefficient("value=1.5")
    with pytest.raises(ConfigError):
        parse_coefficient("kind=ou")
    with pytest.raises(ConfigError):
        parse_coefficient("kind=warp factor=9")


@pytest.mark.parametrize("text, key", [
    ("kind=constant value=1 slope=3", "slope"),
    ("kind=affine intercept=0 slope=1 knots=1", "knots"),
    ("kind=ou theta=1 intercept=2", "intercept"),
    ("kind=table knots=0,1 values=1,2 value=3", "value"),
    ("kind=sign_switch level=1 switch_time=0.5 theta=1", "theta"),
    # the text says nothing of drift or volatility: the retired role key
    ("kind=constant value=1 role=diffusion", "role"),
    ("kind=table knots=0,1 values=1,2 role=drift", "role"),
])
def test_parse_coefficient_refuses_a_key_its_kind_does_not_read(text, key):
    # the first two parsed to constant(1) and to an affine
    with pytest.raises(ConfigError, match=f"reads no key '{key}'$"):
        parse_coefficient(text)


def test_time_grid():
    grid = TimeGrid(4)
    assert grid.h * grid.n_steps == 1.0
    assert np.all(np.diff(grid.times()) > 0)
    assert grid.index_of(0.75) == 3
    for t in (0.1, np.nan, np.inf):
        with pytest.raises(ConfigError):
            grid.index_of(t)
    with pytest.raises(ConfigError):
        TimeGrid(0)


@pytest.mark.parametrize("size", [0, -2, 2.5, 2.0, True, "2"])
def test_sizes_must_be_positive_integers(size):
    # a float or a bool was taken as a size, or failed outside ConfigError
    unit = constant(1.0)
    calls = [lambda: TimeGrid(size),
             lambda: build_lattice(ou(1.0), unit, size, 3, 9),
             lambda: build_lattice(ou(1.0), unit, 2, 3, size),
             lambda: quantize_increment(0.1, 1.0, size),
             lambda: em_expected_cost(ou(1.0), unit, ou(1.0), unit, size)]
    for call in calls:
        with pytest.raises(ConfigError, match="positive integer"):
            call()


def test_numpy_integer_sizes_are_accepted():
    unit = constant(1.0)
    assert TimeGrid(np.int64(4)).h == 0.25
    assert (build_lattice(ou(1.0), unit, np.int64(2), np.int64(3),
                          np.int64(9)).to_json()
            == build_lattice(ou(1.0), unit, 2, 3, 9).to_json())
    assert (em_expected_cost(ou(1.0), unit, ou(1.0), unit, np.int64(8))
            == em_expected_cost(ou(1.0), unit, ou(1.0), unit, 8))


def test_sample_path_validation():
    with pytest.raises(ConfigError):
        SamplePath(grid=TimeGrid(2), values=np.array([0.0, 1.0]))
    with pytest.raises(ConfigError):
        SamplePath(grid=TimeGrid(1), values=np.array([0.0, np.inf]))


def test_path_measure_validation_and_json():
    measure = DiscretePathMeasure(paths=[[0.5, 1.0], [-0.5, -1.0]],
                                  weights=[0.5, 0.5])
    again = DiscretePathMeasure.from_json(measure.to_json())
    assert np.array_equal(again.paths, measure.paths)
    assert np.array_equal(again.weights, measure.weights)
    with pytest.raises(ConfigError):
        DiscretePathMeasure(paths=[[0.0], [1.0]], weights=[0.6, 0.5])
    with pytest.raises(ConfigError):
        DiscretePathMeasure(paths=[[0.0], [1.0]], weights=[1.1, -0.1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_masses_are_rejected(bad):
    # NaN passes both `min() < 0` and the sum-to-1 test, so it needs its own
    with pytest.raises(ConfigError, match="finite"):
        DiscretePathMeasure(paths=[[0.0], [1.0]], weights=[bad, 1.0])
    with pytest.raises(ConfigError, match="finite"):
        MarkovLattice(initial_value=0.0,
                      supports=(np.array([0.0]), np.array([-1.0, 1.0])),
                      kernels=(sparse([[bad, 0.5]]),))


def test_lattice_validation_and_json():
    lattice = MarkovLattice(
        initial_value=0.0,
        supports=(np.array([0.0]), np.array([-1.0, 1.0])),
        kernels=(sparse([[0.5, 0.5]]),))
    again = MarkovLattice.from_json(lattice.to_json())
    assert np.array_equal(again.supports[1], lattice.supports[1])
    for array, array_again in zip(lattice.kernels[0], again.kernels[0]):
        assert np.array_equal(array, array_again)
    assert lattice.value_ordered
    # states in any order, ties allowed: only the quantile couplings refuse
    for support in ([1.0, -1.0], [1.0, 1.0]):
        unordered = MarkovLattice(initial_value=0.0,
                                  supports=(np.array([0.0]), np.array(support)),
                                  kernels=(sparse([[0.5, 0.5]]),))
        assert not unordered.value_ordered
        with pytest.raises(ConfigError, match="increasing in value"):
            kr_coupling(unordered, lattice)
        with pytest.raises(ConfigError, match="increasing in value"):
            check_fosd(unordered)
    with pytest.raises(ConfigError):
        MarkovLattice(initial_value=0.0,
                      supports=(np.array([0.0]), np.array([-1.0, 1.0])),
                      kernels=(sparse([[0.6, 0.5]]),))
    # the row layout, as (row sizes, column index, weight)
    for kernel, match in [
            (([1, 1], [0, 1], [0.5, 0.5]), "one row size"),  # 2 sizes, 1 row
            (([-1], [0], [1.0]), "one row size"),            # negative size
            (([2], [0], [0.5, 0.5]), "disagree in length"),
            (([2], [0, 1], [1.0]), "disagree in length"),
            (([2], [0, 2], [0.5, 0.5]), "lie in"),           # out of range
            (([2], [-1, 0], [0.5, 0.5]), "lie in"),          # negative index
            (([2], [1, 1], [0.5, 0.5]), "increase within"),  # repeated index
            (([2], [1, 0], [0.5, 0.5]), "increase within"),  # descending
            (([2], [0, 1], [0.0, 1.0]), "positive"),         # a listed zero
            (([2], [0, 1], [-0.5, 1.5]), "positive"),
            (([2], [0.0, 1.0], [0.5, 0.5]), "integers"),     # float index
            (([2.0], [0, 1], [0.5, 0.5]), "integers")]:      # float size
        with pytest.raises(ConfigError, match=match):
            MarkovLattice(initial_value=0.0,
                          supports=(np.array([0.0]), np.array([-1.0, 1.0])),
                          kernels=(kernel,))


def test_lattice_keeps_read_only_copies_of_the_callers_arrays():
    # an edit to the caller's arrays after construction would skip every
    # check: the lattice keeps its own copies, and they cannot be edited
    support = np.array([-1.0, 1.0])
    sizes, index, weight = np.array([2]), np.array([0, 1]), np.array([0.5, 0.5])
    lattice = MarkovLattice(initial_value=0.0,
                            supports=(np.array([0.0]), support),
                            kernels=((sizes, index, weight),))
    support[0], sizes[0], index[0], weight[0] = -5.0, 3, 1, 5.0
    assert lattice.supports[1].tolist() == [-1.0, 1.0]
    assert lattice.kernels[0].row_sizes.tolist() == [2]
    assert lattice.kernels[0].index.tolist() == [0, 1]
    assert lattice.kernels[0].weight.tolist() == [0.5, 0.5]
    assert lattice.kernel_rows[0].weights.tolist() == [[0.5, 0.5]]
    for array in (*lattice.supports, *lattice.kernels[0]):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = array[0]


@pytest.mark.parametrize("cls", [MarkovLattice, DiscretePathMeasure])
def test_truncated_json_raises_config_error(cls):
    # a JSON syntax error is malformed input too, not a JSONDecodeError
    with pytest.raises(ConfigError, match="malformed"):
        cls.from_json("{")


def test_lattice_kernel_rows_are_built_once_and_read_only():
    lattice = build_lattice(ou(1.0), constant(1.0), 3, 3, 27)
    rows = lattice.kernel_rows
    assert rows is lattice.kernel_rows and len(rows) == 3
    reread = MarkovLattice.from_json(lattice.to_json()).kernel_rows
    for stage, kernel, again in zip(rows, lattice.kernels, reread):
        index, weights, kind, distinct = stage
        assert not any(array.flags.writeable for array in stage)
        # each row's entries, then its last index again at zero mass
        entry = np.arange(index.shape[1]) < kernel.row_sizes[:, None]
        assert np.array_equal(index[entry], kernel.index)
        assert np.array_equal(weights[entry], kernel.weight)
        assert (weights[~entry] == 0.0).all()
        last = index[np.arange(len(index)), kernel.row_sizes - 1]
        assert (index == np.where(entry, index, last[:, None])).all()
        # the kinds number the distinct padded weight rows
        assert np.array_equal(distinct[kind], weights)
        assert len(np.unique(distinct, axis=0)) == len(distinct)
        # a lattice read back from its file has the same rows and kinds
        for array, array_again in zip(stage, again):
            assert array.shape == array_again.shape
            assert array.tobytes() == array_again.tobytes()
    # masses are sums of equal atom weights, so rows repeat
    assert any(len(stage.distinct) < len(stage.kind) for stage in rows)


@given(st.floats(0.0, 2.0), st.floats(0.1, 2.0), st.floats(-1.0, 1.0),
       st.integers(1, 5), st.integers(2, 6), st.integers(0, 20))
def test_lattice_json_round_trip_is_byte_identical(theta, vol, x0, n_steps, m,
                                                    extra):
    text = build_lattice(ou(theta), constant(vol), n_steps,
                         m, m + extra, x0=x0).to_json()
    assert MarkovLattice.from_json(text).to_json() == text


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
def test_path_measure_json_round_trip_is_byte_identical(seed, n_stages,
                                                        max_branch):
    tree = random_tree(np.random.default_rng(seed), n_stages, max_branch)
    text = tree.to_json()
    assert DiscretePathMeasure.from_json(text).to_json() == text


def test_lattice_json_is_plain_data():
    lattice = MarkovLattice(
        initial_value=0.5,
        supports=(np.array([0.5]), np.array([0.0, 1.0]),
                  np.array([-1.0, 0.0, 1.0])),
        kernels=(sparse([[0.25, 0.75]]),
                 sparse([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])))
    data = json.loads(lattice.to_json())
    assert data == {"initial_value": 0.5, "stages": [
        {"support": [0.0, 1.0], "row_sizes": [2], "index": [0, 1],
         "weight": [0.25, 0.75]},
        {"support": [-1.0, 0.0, 1.0], "row_sizes": [2, 1],
         "index": [0, 2, 1], "weight": [0.5, 0.5, 1.0]}]}


@st.composite
def markov_lattices(draw):
    # arbitrary kernels, not only build_lattice's: rows with gaps, one-atom
    # rows and rows that reach the last column all occur
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    x0 = draw(st.floats(-10, 10))
    supports = [np.array([x0])]
    kernels = []
    for size in sizes:
        steps = draw(st.lists(st.floats(1e-3, 10), min_size=size,
                              max_size=size))
        supports.append(np.cumsum(steps) - draw(st.floats(0, 10)))
        rows = []
        for _ in range(supports[-2].size):
            mask = draw(st.lists(st.booleans(), min_size=size, max_size=size)
                        .filter(any))
            mass = draw(st.lists(st.floats(1e-6, 1.0), min_size=size,
                                 max_size=size))
            row = np.where(mask, mass, 0.0)
            rows.append(row / row.sum())
        kernels.append(sparse(rows))
    return MarkovLattice(initial_value=x0, supports=tuple(supports),
                         kernels=tuple(kernels))


@given(markov_lattices())
def test_lattice_json_round_trip_keeps_every_kernel_bit(lattice):
    text = lattice.to_json()
    again = MarkovLattice.from_json(text)
    for kernel, kernel_again in zip(lattice.kernels, again.kernels):
        for t, u in zip(kernel, kernel_again):
            assert t.shape == u.shape
            assert t.tobytes() == u.tobytes()
    for s, u in zip(lattice.supports, again.supports):
        assert s.tobytes() == u.tobytes()
    assert again.to_json() == text
    for stage in json.loads(text)["stages"]:
        assert all(w > 0 for w in stage["weight"])

