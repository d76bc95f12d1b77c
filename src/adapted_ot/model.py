"""Domain types shared by all modules: coefficient specs, time grids, paths,
and finite path/Markov measures.

Coefficients are a closed declarative family rather than arbitrary callbacks,
so that Lipschitz constants are computable exactly (they feed the
monotonicity certificate of the truncated scheme).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Absolute tolerance for probability sums (double-precision accumulation
# over at most ~1e4 atoms).
PROB_TOL = 1e-12


class AdaptedOTError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AdaptedOTError):
    """Invalid parameters or inconsistent configuration."""


class DivergenceError(AdaptedOTError):
    """A simulated path left the admissible range (|x| > threshold)."""

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


def check_p(p):
    """Reject a cost exponent that is not a finite number >= 1 (a bool
    included): the cost |x - y|^p is convex only there, which the KR = DP
    theorem needs, and a negative p makes transport costs infinite."""
    try:
        ok = not isinstance(p, (bool, np.bool_)) and math.isfinite(p) and p >= 1
    except TypeError:
        ok = False
    if not ok:
        raise ConfigError(f"cost exponent p must be finite and >= 1, got {p!r}")


def positive_int(name, value):
    """``value`` as an int; a float, a bool or a number below 1 is refused
    (numpy integers are taken)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ConfigError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


COEFFICIENT_KINDS = ("constant", "affine", "table", "sign_switch")
ROLES = ("drift", "diffusion")

_KNOT_RANGE = "table query outside knot range [{}, {}]"
_PATH_DEPENDENT = "sign_switch is path-dependent; use eval_coefficient"

# Divergence threshold: anything beyond this is treated as a blow-up rather
# than silently propagating to inf/nan.
DIVERGENCE_THRESHOLD = 1e8


@dataclass(frozen=True)
class CoefficientSpec:
    """One drift or diffusion coefficient from the closed declarative family.

    Kinds and their parameters:

    - ``constant``:    value ``c``; evaluates to ``c`` everywhere.
    - ``affine``:      ``intercept + slope * x``; the mean-reversion drift
                       ``-theta * x`` is ``affine(0, -theta)`` (``ou``).
    - ``table``:       piecewise-linear interpolation through ``knots`` /
                       ``values``; querying outside the knot range is an error.
    - ``sign_switch``: path-dependent drift ``level * sign(path(switch_time))``
                       active strictly after ``switch_time``; not Markovian.
    """

    kind: str
    role: str = "drift"
    value: float = 0.0
    intercept: float = 0.0
    slope: float = 0.0
    knots: tuple = ()
    values: tuple = ()
    level: float = 0.0
    switch_time: float = 0.0

    def __post_init__(self):
        if self.kind not in COEFFICIENT_KINDS:
            raise ConfigError(f"unknown coefficient kind {self.kind!r}")
        if self.role not in ROLES:
            raise ConfigError(f"unknown coefficient role {self.role!r}")
        for name in ("value", "intercept", "slope", "level", "switch_time"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"coefficient {name} must be finite")
        if self.kind == "table":
            knots, values = self._table_arrays
            if knots.ndim != 1 or knots.size < 2 or knots.size != values.size:
                raise ConfigError("table needs >= 2 knots and matching values")
            if not np.all(np.diff(knots) > 0):
                raise ConfigError("table knots must be strictly increasing")
            if not (np.isfinite(knots).all() and np.isfinite(values).all()):
                raise ConfigError("table knots/values must be finite")
        if self.kind == "sign_switch" and self.role != "drift":
            raise ConfigError(f"sign_switch is a path-dependent drift; it cannot "
                              f"be a {self.role} coefficient")
        if self.kind == "sign_switch" and not 0.0 < self.switch_time < 1.0:
            raise ConfigError("sign_switch switch_time must lie in (0, 1)")

    @property
    def is_markovian(self):
        return self.kind != "sign_switch"

    @cached_property
    def _table_arrays(self):
        """A table's knots and values as float arrays, converted once per
        spec: ``evaluate`` runs at every step of a batch of paths."""
        return (np.asarray(self.knots, dtype=float),
                np.asarray(self.values, dtype=float))

    def evaluate(self, x):
        """Evaluate a Markovian coefficient at state(s) ``x`` (scalar or array).

        Diffusion coefficients are checked to be nonnegative on the queried
        points; tables refuse to extrapolate.
        """
        if not self.is_markovian:
            raise ConfigError(_PATH_DEPENDENT)
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            out = np.full_like(x, self.value)
        elif self.kind == "affine":
            # without an intercept, the one multiply of a mean-reverting drift
            out = self.slope * x
            if self.intercept:
                out = self.intercept + out
        else:  # table
            out = np.asarray(checked_interp(x, *self._table_arrays, _KNOT_RANGE))
        if self.role == "diffusion" and out.size and out.min() < 0:
            raise ConfigError("diffusion coefficient evaluated to a negative value")
        return out if out.ndim else float(out)

    def float_evaluator(self):
        """``evaluate`` for one Python float, without numpy dispatch.

        Same arithmetic, so the same bits, and the same checks on every
        call (extrapolation, negative diffusion).  Build it once per path.
        """
        if not self.is_markovian:
            raise ConfigError(_PATH_DEPENDENT)
        if self.kind == "constant":
            value = self.value
            f = lambda x: value
        elif self.kind == "affine":
            intercept, slope = self.intercept, self.slope
            f = ((lambda x: intercept + slope * x) if intercept
                 else (lambda x: slope * x))
        else:
            f = table_lookup(self.knots, self.values, _KNOT_RANGE)
        if self.role == "drift":
            return f

        def diffusion(x):
            out = f(x)
            if out < 0:
                raise ConfigError("diffusion coefficient evaluated to a negative value")
            return out
        return diffusion


def interp_point(x, xs, ys):
    """``np.interp(x, xs, ys)`` for one float, with its exact arithmetic.

    ``xs`` and ``ys`` are sequences of floats (tuples or memoryviews of
    float arrays).  Ends clamp, a knot returns its value, and a NaN from
    the left knot is retried from the right one, as numpy does.
    """
    if x != x:
        return x
    j = bisect_right(xs, x) - 1
    if j < 0:
        return ys[0]
    if j >= len(xs) - 1:
        return ys[-1]
    xj = xs[j]
    if xj == x:
        return ys[j]
    slope = (ys[j + 1] - ys[j]) / (xs[j + 1] - xj)
    out = slope * (x - xj) + ys[j]
    if out != out:
        out = slope * (x - xs[j + 1]) + ys[j + 1]
        if out != out and ys[j] == ys[j + 1]:
            out = ys[j]
    return out


def checked_interp(v, xs, ys, message):
    """``np.interp(v, xs, ys)``, a float for a scalar ``v``; a query outside
    [xs[0], xs[-1]] raises ``ConfigError(message.format(xs[0], xs[-1]))``.
    The one range-checked lookup of the numpy tables."""
    v = np.asarray(v, dtype=float)
    if v.size and (v.min() < xs[0] or v.max() > xs[-1]):
        raise ConfigError(message.format(xs[0], xs[-1]))
    out = np.interp(v, xs, ys)
    return out if out.ndim else float(out)


def table_lookup(xs, ys, message):
    """``checked_interp`` for one Python float, through ``interp_point``."""
    lo, hi = xs[0], xs[-1]

    def lookup(x):
        if x < lo or x > hi:
            raise ConfigError(message.format(lo, hi))
        return interp_point(x, xs, ys)
    return lookup


def constant(c, role="drift"):
    return CoefficientSpec(kind="constant", role=role, value=float(c))


def affine(intercept, slope, role="drift"):
    return CoefficientSpec(kind="affine", role=role, intercept=float(intercept),
                           slope=float(slope))


def ou(theta):
    """The mean-reverting drift ``-theta * x``."""
    return affine(0.0, -float(theta))


def table(knots, values, role="drift"):
    return CoefficientSpec(kind="table", role=role,
                           knots=tuple(float(k) for k in knots),
                           values=tuple(float(v) for v in values))


def sign_switch(level, switch_time):
    return CoefficientSpec(kind="sign_switch", role="drift", level=float(level),
                           switch_time=float(switch_time))


def lipschitz_constant(spec):
    """Exact Lipschitz constant of a Markovian coefficient.

    A table's is its largest inter-knot slope; ``sign_switch`` has no
    state-Lipschitz constant and is rejected.
    """
    if not spec.is_markovian:
        raise ConfigError("sign_switch has no Lipschitz constant")
    if spec.kind == "constant":
        return 0.0
    if spec.kind == "affine":
        return abs(spec.slope)
    return float(np.max(np.abs(np.diff(spec.values) / np.diff(spec.knots))))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on the fixed horizon [0, 1] with N steps of size h = 1/N."""

    n_steps: int

    def __post_init__(self):
        positive_int("n_steps", self.n_steps)

    @property
    def h(self):
        return 1.0 / self.n_steps

    def times(self):
        return np.arange(self.n_steps + 1) * self.h

    def index_of(self, t):
        """Grid index of time ``t``; errors if ``t`` is not (nearly) on the grid."""
        k = t * self.n_steps
        k_round = int(round(k)) if math.isfinite(k) else -1
        if abs(k - k_round) > 1e-9 * self.n_steps or not 0 <= k_round <= self.n_steps:
            raise ConfigError(f"time {t} is not on the grid with N={self.n_steps}")
        return k_round


@dataclass(frozen=True)
class SamplePath:
    """Values of one path on the grid points of a TimeGrid (x_0 first)."""

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_steps + 1,):
            raise ConfigError("path length must equal n_steps + 1")
        if not np.isfinite(values).all():
            raise ConfigError("path values must be finite")


def eval_coefficient(spec, t, prefix):
    """Evaluate a coefficient at time ``t`` given the path prefix over [0, t].

    ``prefix`` is a SamplePath whose values cover at least [0, t].  Markovian
    kinds read only the state at ``t``; ``sign_switch`` evaluates
    ``level * sign(path(switch_time)) * 1{t > switch_time}``.
    """
    k = prefix.grid.index_of(t)
    if k >= prefix.values.size:
        raise ConfigError("path prefix does not cover the requested time")
    if spec.is_markovian:
        return float(spec.evaluate(prefix.values[k]))
    k_sw = prefix.grid.index_of(spec.switch_time)
    if t <= spec.switch_time:
        return 0.0
    if k_sw >= prefix.values.size:
        raise ConfigError("path prefix does not cover the switch time")
    return float(spec.level * np.sign(prefix.values[k_sw]))


@dataclass(frozen=True)
class DiscretePathMeasure:
    """Finitely supported measure on paths: one weight per value-sequence.

    Paths are the stage-1..T coordinates (no implicit time-0 entry); all
    paths share one length.
    """

    paths: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        paths = np.atleast_2d(np.asarray(self.paths, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "weights", weights)
        if paths.ndim != 2 or weights.shape != (paths.shape[0],):
            raise ConfigError("need one weight per path")
        if not np.isfinite(paths).all():
            raise ConfigError("path values must be finite")
        if not np.isfinite(weights).all():
            raise ConfigError("weights must be finite")
        if weights.size and weights.min() < 0:
            raise ConfigError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > PROB_TOL:
            raise ConfigError("weights must sum to 1 within 1e-12")

    @property
    def n_stages(self):
        return self.paths.shape[1]

    def to_json(self):
        return json.dumps({"paths": self.paths.tolist(),
                           "weights": self.weights.tolist()})

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
            return cls(paths=np.asarray(data["paths"], dtype=float),
                       weights=np.asarray(data["weights"], dtype=float))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed path measure JSON: {exc!r}") from exc


class KernelRows(NamedTuple):
    """A kernel's positive entries, row after row: row r holds
    ``row_sizes[r]`` entries, at increasing columns ``index`` and with masses
    ``weight``.  The stored form of a ``MarkovLattice`` stage."""

    row_sizes: np.ndarray
    index: np.ndarray
    weight: np.ndarray


class PaddedRows(NamedTuple):
    """A kernel's rows in the padded form of ``padded_rows``."""

    index: np.ndarray
    weights: np.ndarray
    kind: np.ndarray
    distinct: np.ndarray


def padded_rows(kernel):
    """Padded array form of a ``KernelRows`` kernel.

    Returns ``PaddedRows`` (index, weights, kind, distinct): row r of
    ``index`` (rows x widest row) holds the indices of kernel row r and
    continues past its end by repeating its last index; ``weights`` holds
    the row's masses on ``index``, 0 in the padding.  Rows whose padded
    weights have the same bytes share a kind: row r is of kind ``kind[r]``,
    and ``distinct[c]`` is the padded weight row of kind c.  All four are
    read-only.
    """
    sizes = kernel.row_sizes[:, None]
    slot = np.arange(sizes.max())
    entry = np.cumsum(sizes, axis=0) - sizes + np.minimum(slot, sizes - 1)
    index = kernel.index[entry]
    weights = kernel.weight[entry]
    weights[slot >= sizes] = 0.0
    # one opaque item per row, so that rows match on their bytes
    row_bytes = weights.view(np.dtype((np.void, weights.itemsize * slot.size)))
    _, first, kind = np.unique(row_bytes.ravel(), return_index=True,
                               return_inverse=True)
    rows = PaddedRows(index, weights, kind, weights[first])
    for array in rows:
        array.flags.writeable = False
    return rows


@dataclass(frozen=True)
class MarkovLattice:
    """Finite-state, finite-stage Markov chain with explicit kernels.

    ``supports[k]`` holds the stage-k states' values (stage 0 is the single
    initial value), finite, in any order, ties allowed; ``value_ordered``
    tells whether each stage is strictly increasing, as the quantile
    couplings need.  ``kernels[k]`` holds the positive entries of the
    kernel from stage-k nodes to stage-(k+1) nodes, one row per node, as
    ``KernelRows`` (a tuple ``(row_sizes, index, weight)`` is taken as
    one): the lattice's one stored form, that of its JSON file.  The
    lattice keeps read-only copies of the arrays it is given.
    ``kernel_rows[k]`` is its padded form, with its row kinds, that the
    couplings and the DP read.
    """

    initial_value: float
    supports: tuple
    kernels: tuple

    def __post_init__(self):
        # copies, frozen: an edit to the caller's arrays would skip the checks
        supports = tuple(np.array(s, dtype=float) for s in self.supports)
        kernels = tuple(KernelRows(np.array(sizes), np.array(index),
                                   np.array(weight, dtype=float))
                        for sizes, index, weight in self.kernels)
        for array in (*supports, *(a for kernel in kernels for a in kernel)):
            array.flags.writeable = False
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "kernels", kernels)
        if len(supports) != len(kernels) + 1:
            raise ConfigError("need one kernel per stage")
        if supports[0].shape != (1,) or supports[0][0] != self.initial_value:
            raise ConfigError("stage-0 support must be the initial value alone")
        for k, s in enumerate(supports):
            if s.ndim != 1 or not np.isfinite(s).all():
                raise ConfigError(f"stage-{k} support must be finite 1-D")
        # in this order every check sees nonempty arrays
        for k, (sizes, index, weight) in enumerate(kernels):
            n_rows, n_cols = supports[k].size, supports[k + 1].size
            if sizes.dtype.kind != "i" or index.dtype.kind != "i":
                raise ConfigError(f"stage-{k} row sizes and indices must be "
                                  f"signed integers")
            if sizes.shape != (n_rows,) or sizes.min() < 0:
                raise ConfigError(f"stage-{k} needs one row size >= 0 for "
                                  f"each of its {n_rows} rows")
            if index.shape != (sizes.sum(),) or weight.shape != index.shape:
                raise ConfigError(f"stage-{k} row sizes, index and weight "
                                  f"disagree in length")
            if not (np.isfinite(weight) & (weight > 0)).all():
                raise ConfigError(f"stage-{k} kernel masses must be finite "
                                  f"and positive")
            row = np.repeat(np.arange(n_rows), sizes)
            if np.abs(np.bincount(row, weight, n_rows) - 1.0).max() > PROB_TOL:
                raise ConfigError(f"stage-{k} kernel rows must sum to 1")
            # with every index in range, the row-major cell numbers
            # increase exactly when each row's indices do
            cells = row * n_cols + index
            if (index.min() < 0 or index.max() >= n_cols
                    or (cells[1:] <= cells[:-1]).any()):
                raise ConfigError(f"stage-{k} indices must lie in "
                                  f"[0, {n_cols}) and increase within a row")

    @property
    def n_steps(self):
        return len(self.kernels)

    @cached_property
    def value_ordered(self):
        """Whether every stage's states are strictly increasing in value."""
        return all((s[1:] > s[:-1]).all() for s in self.supports)

    @cached_property
    def kernel_rows(self):
        """``padded_rows`` of every stage's kernel, row kinds included,
        built once per lattice."""
        return tuple(padded_rows(kernel) for kernel in self.kernels)

    @property
    def transitions(self):
        """The dense (n_k, n_{k+1}) kernel matrices, expanded from
        ``kernels`` on each access and stored nowhere.  The library does
        not read them; the benchmark's next change (ROADMAP item 5)
        deletes this view."""
        dense = tuple(np.zeros((a.size, b.size))
                      for a, b in zip(self.supports, self.supports[1:]))
        for matrix, (sizes, index, weight) in zip(dense, self.kernels):
            matrix[np.repeat(np.arange(sizes.size), sizes), index] = weight
        return dense

    def to_json(self):
        """Sparse-row JSON: per stage, the support and ``kernels[k]``'s
        arrays (``row_sizes``, column ``index``, ``weight``)."""
        stages = [{"support": s.tolist(), **{key: array.tolist() for key, array
                                              in kernel._asdict().items()}}
                  for s, kernel in zip(self.supports[1:], self.kernels)]
        return json.dumps({"initial_value": self.initial_value,
                           "stages": stages})

    @classmethod
    def from_json(cls, text):
        """Read ``to_json`` output; the constructor checks what it read."""
        try:
            data = json.loads(text)
            x0 = float(data["initial_value"])
            supports = [np.array([x0])]
            kernels = []
            for k, stage in enumerate(data["stages"]):
                if "transition" in stage and "row_sizes" not in stage:
                    raise ConfigError(
                        f"lattice JSON stage {k} holds a dense \"transition\" "
                        f"matrix, the layout of adapted-ot <= 0.5.0; build "
                        f"it again with `adapted-ot lattice` (its sidecar "
                        f"reruns only under the version that wrote it)")
                supports.append(np.asarray(stage["support"], dtype=float))
                kernels.append(KernelRows(_int_array(stage["row_sizes"]),
                                          _int_array(stage["index"]),
                                          np.asarray(stage["weight"], dtype=float)))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed lattice JSON: {exc!r}") from exc
        try:
            return cls(initial_value=x0, supports=tuple(supports),
                       kernels=tuple(kernels))
        except ConfigError as exc:
            raise ConfigError(f"malformed lattice JSON: {exc}") from exc


def _int_array(values):
    """A JSON list of integers (not floats or bools) as an int64 array."""
    if not set(map(type, values)) <= {int}:
        raise ValueError(f"expected a list of integers, got {values!r:.80}")
    return np.array(values, dtype=np.int64)


# -- coefficient spec text schema -------------------------------------------
#
# One spec per line of space-separated key=value tokens, e.g.
#
#   kind=constant value=1.5
#   kind=affine intercept=0 slope=2
#   kind=ou theta=1            (read as kind=affine intercept=0 slope=-1)
#   kind=table knots=0,1,2 values=3,4,5
#   kind=sign_switch level=5 switch_time=0.1
#
# ``role`` is optional and defaults to "drift".

def parse_coefficient(text, role=None):
    """Parse the key=value text schema back into a CoefficientSpec."""
    fields = {}
    for token in text.split():
        if "=" not in token:
            raise ConfigError(f"bad coefficient token {token!r}")
        key, _, raw = token.partition("=")
        fields[key] = raw
    if "kind" not in fields:
        raise ConfigError("coefficient text needs a kind= token")
    kind = fields.pop("kind")
    if role is None:
        role = fields.pop("role", "drift")
    else:
        fields.pop("role", None)
    try:
        if kind == "constant":
            return constant(float(fields["value"]), role=role)
        if kind == "affine":
            return affine(float(fields["intercept"]), float(fields["slope"]), role=role)
        if kind == "ou":
            return affine(0.0, -float(fields["theta"]), role=role)
        if kind == "table":
            knots = [float(v) for v in fields["knots"].split(",")]
            values = [float(v) for v in fields["values"].split(",")]
            return table(knots, values, role=role)
        if kind == "sign_switch":
            return CoefficientSpec(kind="sign_switch", role=role,
                                   level=float(fields["level"]),
                                   switch_time=float(fields["switch_time"]))
    except KeyError as exc:
        raise ConfigError(f"missing coefficient field {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad coefficient value: {exc}") from exc
    raise ConfigError(f"unknown coefficient kind {kind!r}")
