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


class ExtrapolationError(AdaptedOTError):
    """A piecewise-linear table was queried outside its knot range."""


class NotMarkovianError(AdaptedOTError):
    """A path-dependent coefficient was used where a Markovian one is required."""


class DivergenceError(AdaptedOTError):
    """A simulated path left the admissible range (|x| > threshold)."""

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


def check_p(p):
    """Reject a cost exponent that is not a finite number >= 1: the cost
    |x - y|^p is convex only there, which the KR = DP theorem needs, and a
    negative p makes transport costs infinite."""
    try:
        ok = math.isfinite(p) and p >= 1
    except TypeError:
        ok = False
    if not ok:
        raise ConfigError(f"cost exponent p must be finite and >= 1, got {p!r}")


COEFFICIENT_KINDS = ("constant", "affine", "ou", "table", "sign_switch")
ROLES = ("drift", "diffusion")

# Divergence threshold: anything beyond this is treated as a blow-up rather
# than silently propagating to inf/nan.
DIVERGENCE_THRESHOLD = 1e8


@dataclass(frozen=True)
class CoefficientSpec:
    """One drift or diffusion coefficient from the closed declarative family.

    Kinds and their parameters:

    - ``constant``:    value ``c``; evaluates to ``c`` everywhere.
    - ``affine``:      ``intercept + slope * x``.
    - ``ou``:          mean-reversion drift ``-theta * x``.
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
    theta: float = 0.0
    knots: tuple = ()
    values: tuple = ()
    level: float = 0.0
    switch_time: float = 0.0

    def __post_init__(self):
        if self.kind not in COEFFICIENT_KINDS:
            raise ConfigError(f"unknown coefficient kind {self.kind!r}")
        if self.role not in ROLES:
            raise ConfigError(f"unknown coefficient role {self.role!r}")
        for name in ("value", "intercept", "slope", "theta", "level", "switch_time"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"coefficient {name} must be finite")
        if self.kind == "table":
            knots = np.asarray(self.knots, dtype=float)
            values = np.asarray(self.values, dtype=float)
            if knots.ndim != 1 or knots.size < 2 or knots.size != values.size:
                raise ConfigError("table needs >= 2 knots and matching values")
            if not np.all(np.diff(knots) > 0):
                raise ConfigError("table knots must be strictly increasing")
            if not (np.isfinite(knots).all() and np.isfinite(values).all()):
                raise ConfigError("table knots/values must be finite")
        if self.kind == "sign_switch" and not 0.0 < self.switch_time < 1.0:
            raise ConfigError("sign_switch switch_time must lie in (0, 1)")

    @property
    def is_markovian(self):
        return self.kind != "sign_switch"

    def evaluate(self, x):
        """Evaluate a Markovian coefficient at state(s) ``x`` (scalar or array).

        Diffusion coefficients are checked to be nonnegative on the queried
        points; tables refuse to extrapolate.
        """
        if not self.is_markovian:
            raise NotMarkovianError("sign_switch is path-dependent; use eval_coefficient")
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            out = np.full_like(x, self.value)
        elif self.kind == "affine":
            out = self.intercept + self.slope * x
        elif self.kind == "ou":
            out = -self.theta * x
        else:  # table
            knots = np.asarray(self.knots, dtype=float)
            values = np.asarray(self.values, dtype=float)
            if x.size and (x.min() < knots[0] or x.max() > knots[-1]):
                raise ExtrapolationError(
                    f"table query outside knot range [{knots[0]}, {knots[-1]}]"
                )
            out = np.interp(x, knots, values)
        if self.role == "diffusion" and out.size and out.min() < 0:
            raise ConfigError("diffusion coefficient evaluated to a negative value")
        return out if out.ndim else float(out)

    def float_evaluator(self):
        """``evaluate`` for one Python float, without numpy dispatch.

        Same arithmetic, so the same bits, and the same checks on every
        call (extrapolation, negative diffusion).  Build it once per path.
        """
        if not self.is_markovian:
            raise NotMarkovianError("sign_switch is path-dependent; use eval_coefficient")
        if self.kind == "constant":
            value = self.value
            f = lambda x: value
        elif self.kind == "affine":
            intercept, slope = self.intercept, self.slope
            f = lambda x: intercept + slope * x
        elif self.kind == "ou":
            minus_theta = -self.theta
            f = lambda x: minus_theta * x
        else:
            f = table_lookup(self.knots, self.values, ExtrapolationError,
                             f"table query outside knot range "
                             f"[{self.knots[0]}, {self.knots[-1]}]")
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


def table_lookup(xs, ys, error, message):
    """``interp_point`` through (xs, ys) that raises ``error(message)`` for a
    query outside [xs[0], xs[-1]]."""
    lo, hi = xs[0], xs[-1]

    def lookup(x):
        if x < lo or x > hi:
            raise error(message)
        return interp_point(x, xs, ys)
    return lookup


def constant(c, role="drift"):
    return CoefficientSpec(kind="constant", role=role, value=float(c))


def affine(intercept, slope, role="drift"):
    return CoefficientSpec(kind="affine", role=role, intercept=float(intercept),
                           slope=float(slope))


def ou(theta):
    return CoefficientSpec(kind="ou", theta=float(theta))


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
        raise NotMarkovianError("sign_switch has no Lipschitz constant")
    if spec.kind == "constant":
        return 0.0
    if spec.kind == "affine":
        return abs(spec.slope)
    if spec.kind == "ou":
        return abs(spec.theta)
    return float(np.max(np.abs(np.diff(spec.values) / np.diff(spec.knots))))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on the fixed horizon [0, 1] with N steps of size h = 1/N."""

    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ConfigError("n_steps must be a positive integer")

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


class PaddedRows(NamedTuple):
    """A kernel's rows in the padded form of ``padded_rows``."""

    index: np.ndarray
    weights: np.ndarray
    kind: np.ndarray
    distinct: np.ndarray


def padded_rows(kernel):
    """Padded array form of a kernel's rows.

    Returns ``PaddedRows`` (index, weights, kind, distinct): row r of
    ``index`` (rows x widest row) holds the ascending indices of the
    positive entries of kernel row r and continues past its end by
    repeating its last support index; ``weights`` holds the row's masses on
    ``index``, 0 in the padding.  Rows whose padded weights have the same
    bytes share a kind: row r is of kind ``kind[r]``, and ``distinct[c]``
    is the padded weight row of kind c.  All four are read-only.
    """
    positive = kernel > 0
    cols = np.nonzero(positive)[1]
    sizes = positive.sum(axis=1)
    ends = np.cumsum(sizes)
    slot = np.arange(sizes.max())
    index = cols[ends[:, None] - sizes[:, None] + np.minimum(slot, sizes[:, None] - 1)]
    weights = np.take_along_axis(kernel, index, axis=1)
    weights[slot >= sizes[:, None]] = 0.0
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
    """Finite-support, finite-stage Markov chain with explicit kernels.

    ``supports[k]`` is the sorted stage-k support (stage 0 is the single
    initial value) and ``transitions[k]`` maps stage-k nodes to stage-(k+1)
    nodes, one probability row per node.  ``kernel_rows[k]`` is the padded
    form of ``transitions[k]``, with its row kinds, that the couplings and
    the DP read.
    """

    initial_value: float
    supports: tuple
    transitions: tuple

    def __post_init__(self):
        supports = tuple(np.asarray(s, dtype=float) for s in self.supports)
        transitions = tuple(np.asarray(t, dtype=float) for t in self.transitions)
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "transitions", transitions)
        if len(supports) != len(transitions) + 1:
            raise ConfigError("need one transition matrix per stage")
        if supports[0].shape != (1,) or supports[0][0] != self.initial_value:
            raise ConfigError("stage-0 support must be the initial value alone")
        for k, s in enumerate(supports):
            if s.ndim != 1 or not np.isfinite(s).all():
                raise ConfigError(f"stage-{k} support must be finite 1-D")
            if (s[1:] <= s[:-1]).any():
                raise ConfigError(f"stage-{k} support must be strictly increasing")
        for k, t in enumerate(transitions):
            if t.shape != (supports[k].size, supports[k + 1].size):
                raise ConfigError(f"stage-{k} transition shape mismatch")
            if not np.isfinite(t).all():
                raise ConfigError(f"stage-{k} transition masses must be finite")
            if t.size and t.min() < 0:
                raise ConfigError(f"stage-{k} transition has negative mass")
            if np.abs(t.sum(axis=1) - 1.0).max() > PROB_TOL:
                raise ConfigError(f"stage-{k} transition rows must sum to 1")

    @property
    def n_steps(self):
        return len(self.transitions)

    @cached_property
    def kernel_rows(self):
        """``padded_rows`` of every stage's kernel, row kinds included,
        built once per lattice."""
        return tuple(padded_rows(t) for t in self.transitions)

    def to_json(self):
        """Sparse-row JSON: per stage, the support and the kernel's positive
        entries row after row (``row_sizes``, column ``index``, ``weight``)."""
        stages = []
        for s, t in zip(self.supports[1:], self.transitions):
            positive = t > 0
            stages.append({"support": s.tolist(),
                           "row_sizes": positive.sum(axis=1).tolist(),
                           "index": np.nonzero(positive)[1].tolist(),
                           "weight": t[positive].tolist()})
        return json.dumps({"initial_value": self.initial_value,
                           "stages": stages})

    @classmethod
    def from_json(cls, text):
        """Read ``to_json`` output; the row layout is checked here, the
        masses by the constructor."""
        try:
            data = json.loads(text)
            x0 = float(data["initial_value"])
            supports = [np.array([x0])]
            transitions = []
            for k, stage in enumerate(data["stages"]):
                if "transition" in stage and "row_sizes" not in stage:
                    raise ConfigError(
                        f"lattice JSON stage {k} holds a dense \"transition\" "
                        f"matrix, the layout of adapted-ot <= 0.5.0; rewrite "
                        f"the file with `adapted-ot rerun <its sidecar>` or "
                        f"`adapted-ot lattice`")
                support = np.asarray(stage["support"], dtype=float)
                sizes = _int_array(stage["row_sizes"])
                index = _int_array(stage["index"])
                weight = np.asarray(stage["weight"], dtype=float)
                shape = (supports[-1].size, support.size)
                if sizes.shape != shape[:1] or (sizes.size and sizes.min() < 0):
                    raise ValueError(f"stage {k} needs one row size >= 0 for "
                                     f"each of its {shape[0]} rows")
                if sizes.sum() != index.size or weight.shape != index.shape:
                    raise ValueError(f"stage {k} row sizes, index and weight "
                                     f"disagree in length")
                # with every index in range, the row-major cell numbers
                # increase exactly when each row's indices do
                cells = np.repeat(np.arange(shape[0]), sizes) * shape[1] + index
                if index.size and (index.min() < 0 or index.max() >= shape[1]
                                   or (cells[1:] <= cells[:-1]).any()):
                    raise ValueError(f"stage {k} indices must lie in "
                                     f"[0, {shape[1]}) and increase within a row")
                dense = np.zeros(shape)
                dense.ravel()[cells] = weight
                supports.append(support)
                transitions.append(dense)
            return cls(initial_value=x0, supports=tuple(supports),
                       transitions=tuple(transitions))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed lattice JSON: {exc!r}") from exc


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
#   kind=ou theta=1
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
            return CoefficientSpec(kind="ou", role=role, theta=float(fields["theta"]))
        if kind == "table":
            knots = [float(v) for v in fields["knots"].split(",")]
            values = [float(v) for v in fields["values"].split(",")]
            return table(knots, values, role=role)
        if kind == "sign_switch":
            return sign_switch(float(fields["level"]), float(fields["switch_time"]))
    except KeyError as exc:
        raise ConfigError(f"missing coefficient field {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad coefficient value: {exc}") from exc
    raise ConfigError(f"unknown coefficient kind {kind!r}")
