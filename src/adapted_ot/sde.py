"""Path-level schemes: Euler-Maruyama, the truncated-increment (monotone)
variant, and the drift-removing change of variable with its transformed
scheme for bounded measurable drifts: the one scheme layer.

``_step_increments`` sums substep noise into per-step increments, or stops
it at the barrier; one path's block is a batch of one.  One path runs on
Python floats (``_run_scheme``): coefficients are read through
``CoefficientSpec.float_evaluator`` and the transform tables through
``DriftRemovingTransform.float_maps``, which do numpy's arithmetic without
its per-call dispatch on 0-d values.  A batch of paths runs on numpy arrays
(``_propagate``), step-major: row k holds every path's state at step k, so
one path is a column.  On the same increments the two recursions give the
same paths bit for bit.  The path-dependent ``sign_switch`` drift reads its
switch-time state once per path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (ConfigError, DivergenceError, DIVERGENCE_THRESHOLD,
                    SamplePath, growth_bounds, table, table_lookup)
from .noise import IncrementBlock, truncate_increments, truncation_level

# the scheme names of ``simulate --scheme`` and the Monte Carlo estimators
_SCHEMES = ("em", "monotone-em", "zvonkin-em")
_X_RANGE = "state left the tabulated transform range; enlarge it"
_Y_RANGE = "transformed state left the tabulated range; enlarge it"


def _path_drift(spec, grid):
    """Drift of one ``sign_switch`` path as ``drift(k, values)``, where
    ``values`` is the path up to step k.

    It returns what ``eval_coefficient`` gives at time k h on that prefix:
    0 up to the switch time, then ``level * sign(path(switch_time))``,
    read once from the switch-time state.  An off-grid switch time raises
    the same ``ConfigError``, here before the first step.
    """
    k_sw = grid.index_of(spec.switch_time)
    h = grid.h
    active = None

    def drift(k, values):
        nonlocal active
        if k * h <= spec.switch_time:
            return 0.0
        if active is None:
            active = float(spec.level * np.sign(values[k_sw]))
        return active
    return drift


def _run_scheme(b, sigma, grid, deltas, x0, transform=None):
    """One path of the recursion ``_propagate`` runs on a batch.

    Without ``transform`` the step is x <- x + h b(x) + sigma(x) delta; with
    a drift-removing transform T it is y <- y + T'(x) sigma(x) delta in
    y = T(x), mapped back by x = T^{-1}(y).
    """
    n = grid.n_steps
    h = grid.h
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape != (n,):
        raise ConfigError("increments must match the grid (one per step)")
    x = float(x0)
    sig = sigma.float_evaluator()
    if transform is not None:
        forward, derivative, inverse = transform.float_maps()
        y = forward(x)
    elif b.is_markovian:
        drift = b.float_evaluator()
    else:
        drift, path_drift = None, _path_drift(b, grid)
    values = [x]
    for k, delta in enumerate(deltas.tolist()):
        if transform is not None:
            y = y + derivative(x) * sig(x) * delta
            x = inverse(y)
        else:
            bk = drift(x) if drift is not None else path_drift(k, values)
            x = x + h * bk + sig(x) * delta
        if not math.isfinite(x) or abs(x) > DIVERGENCE_THRESHOLD:
            raise DivergenceError(f"scheme diverged at stage {k + 1}", stage=k + 1)
        values.append(x)
    return SamplePath(grid=grid, values=values)


def _propagate(b, sigma, h, deltas, x0, transform=None, out=None):
    """Vectorized one-step recursion across a batch of replicates, step-major.

    ``deltas`` has one row of replicate increments per step, shape (N, B).
    Without ``transform`` the step is x <- x + h b(x) + sigma(x) delta.  With
    a drift-removing transform T it is the driftless step
    y <- y + T'(x) sigma(x) delta in y = T(x), mapped back by x = T^{-1}(y).
    Returns (paths, sigma values, diverged mask) with paths (N + 1, B) and
    sigma values (N, B), so each step reads and writes one contiguous row;
    they are written to the arrays ``out``, if given, else to new ones.
    Diverged replicates are frozen at x0 so the batch can finish.  A y
    beyond the table of T^{-1} is no divergence: ``inverse`` raises
    ConfigError for the whole call (at 64 steps, 5 of 1,000 single paths of
    drift-gap's X marginal overshoot its sup T = 1/2).
    """
    n, n_rep = deltas.shape
    if out is None:
        out = (np.empty((n + 1, n_rep)), np.empty((n, n_rep)),
               np.empty(n_rep, dtype=bool))
    paths, sig, bad = out
    paths[0] = x0
    bad[:] = False
    tmp = np.empty(n_rep)
    flags = np.empty(n_rep, dtype=bool)
    if transform is not None:
        y = np.full(n_rep, float(transform.forward(x0)))
    for k in range(n):
        x, x_next, sv = paths[k], paths[k + 1], sig[k]
        sv[:] = sigma.evaluate(x)
        if transform is None:
            # x + h b(x) + sigma(x) delta, in that order
            np.multiply(b.evaluate(x), h, out=x_next)
            x_next += x
            x_next += np.multiply(sv, deltas[k], out=tmp)
        else:
            np.multiply(transform.derivative(x), sv, out=tmp)
            tmp *= deltas[k]
            y += tmp
            x_next[:] = transform.inverse(y)
        # NaN and +-inf fail the comparison too
        if not np.less_equal(np.abs(x_next, out=tmp), DIVERGENCE_THRESHOLD,
                             out=flags).all():
            newly_bad = np.logical_not(flags, out=flags)
            bad |= newly_bad
            x_next[newly_bad] = x0
    return paths, sig, bad


def _step_increments(substeps, barrier, out=None):
    """Step-major (N, B) increments of a (B, N, m_sub) substep batch.

    The substeps of a step are added one after another, the running sum of
    ``cumsum`` bit for bit, into ``out`` if given; at m_sub = 1 the result
    is a view of ``substeps``.  Unless ``barrier`` is None, the sum is
    stopped there (``noise.truncate_increments``).
    """
    if barrier is not None:
        return np.ascontiguousarray(truncate_increments(substeps, barrier)[0].T)
    steps = substeps.transpose(1, 0, 2)
    if steps.shape[-1] == 1:
        return steps[..., 0]
    out = np.add(steps[..., 0], steps[..., 1], out=out)
    for j in range(2, steps.shape[-1]):
        out += steps[..., j]
    return out


def _path_increments(grid, block, trunc_k=None):
    """``_step_increments`` of one path's (N, m_sub) substep block or
    ``IncrementBlock``, stopped at K sqrt(-h log h) for ``trunc_k`` = K."""
    barrier = None if trunc_k is None else truncation_level(grid.h, trunc_k)
    substeps = block.dW if isinstance(block, IncrementBlock) else np.asarray(
        block, dtype=float)
    if substeps.ndim != 2 or substeps.shape[0] != grid.n_steps:
        raise ConfigError("substep block must have one row per step")
    return _step_increments(substeps[None], barrier)[:, 0]


def euler_maruyama(b, sigma, grid, increments, x0=0.0):
    """Classical Euler-Maruyama path from per-step Brownian increments."""
    if isinstance(increments, IncrementBlock):
        increments = _path_increments(grid, increments)
    return _run_scheme(b, sigma, grid, increments, x0)


def monotone_em(b, sigma, grid, trunc_k, block, x0=0.0):
    """Euler-Maruyama driven by increments stopped at the barrier
    K sqrt(-h log h); every applied increment satisfies |delta| <= barrier."""
    return _run_scheme(b, sigma, grid, _path_increments(grid, block, trunc_k), x0)


def _lookup(v, xp, fp, message):
    """Range-checked ``np.interp`` through (xp, fp); a scalar gives a float."""
    v = np.asarray(v, dtype=float)
    if v.size and (v.min() < xp[0] or v.max() > xp[-1]):
        raise ConfigError(message)
    out = np.interp(v, xp, fp)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DriftRemovingTransform:
    """Tabulated increasing map T with T(x0) = 0 that removes the drift.

    ``T(x) = int_{x0}^x exp(-2 int_{x0}^z b / sigma^2)`` on a dense grid;
    the transformed state Y = T(X) solves a driftless SDE with coefficient
    ``transformed_sigma(y) = (sigma T') (T^{-1}(y))``.
    """

    x0: float
    xs: np.ndarray
    ts: np.ndarray
    t_prime: np.ndarray
    transformed_sigma: object
    lipschitz_certificate: float

    def forward(self, x):
        return _lookup(x, self.xs, self.ts, _X_RANGE)

    def inverse(self, y):
        return _lookup(y, self.ts, self.xs, _Y_RANGE)

    def derivative(self, x):
        return _lookup(x, self.xs, self.t_prime, _X_RANGE)

    def float_maps(self):
        """``forward``, ``derivative`` and ``inverse`` for one Python float,
        bit for bit and with the same range checks.  They read the tables
        through memoryviews, not copies."""
        xs, ts, t_prime = (memoryview(np.asarray(a, dtype=float))
                           for a in (self.xs, self.ts, self.t_prime))
        return (table_lookup(xs, ts, ConfigError, _X_RANGE),
                table_lookup(xs, t_prime, ConfigError, _X_RANGE),
                table_lookup(ts, xs, ConfigError, _Y_RANGE))


def zvonkin_transform(b, sigma, x0, half_width=10.0, n_nodes=10001):
    """Tabulate the drift-removing map on [x0 - R, x0 + R] by Simpson quadrature.

    Requires a bounded drift and a diffusion that is uniformly positive on
    the working interval.  Reports the Lipschitz certificate
    ``Lip(sigma) + 2 ||b||_inf / inf sigma`` for the transformed coefficient.
    """
    if not (b.is_markovian and sigma.is_markovian):
        raise ConfigError("transform needs Markovian coefficients")
    if n_nodes < 3:
        raise ConfigError("need at least 3 quadrature nodes")
    # refined grid: table nodes plus midpoints, so T accumulates per-interval
    # Simpson increments that are strictly positive (T' > 0 everywhere)
    xs_fine = np.linspace(x0 - half_width, x0 + half_width, 2 * n_nodes - 1)
    bs_fine = np.asarray(b.evaluate(xs_fine), dtype=float)
    ss_fine = np.asarray(sigma.evaluate(xs_fine), dtype=float)
    inf_sigma = float(ss_fine.min())
    if inf_sigma <= 0.0:
        raise ConfigError("diffusion must be uniformly positive on the interval")
    integrand = bs_fine / ss_fine**2
    inner = np.concatenate([[0.0], np.cumsum(
        np.diff(xs_fine) * (integrand[1:] + integrand[:-1]) / 2.0)])
    inner -= np.interp(x0, xs_fine, inner)  # anchor the inner integral at x0
    t_prime_fine = np.exp(-2.0 * inner)
    increments = ((xs_fine[2::2] - xs_fine[:-2:2]) / 6.0
                  * (t_prime_fine[:-2:2] + 4.0 * t_prime_fine[1:-1:2]
                     + t_prime_fine[2::2]))
    xs = xs_fine[::2]
    # accumulate outward from the anchor so tiny far-flank increments are not
    # rounded away against the (possibly huge) opposite-flank values
    i0 = int(np.argmin(np.abs(xs - x0)))
    ts = np.empty(xs.size)
    ts[i0] = 0.0
    ts[i0 + 1:] = np.cumsum(increments[i0:])
    ts[:i0] = -np.cumsum(increments[:i0][::-1])[::-1]
    if np.any(np.diff(ts) <= 0):
        raise ConfigError("transform table lost resolution; reduce half_width "
                          "or the drift magnitude")
    t_prime = t_prime_fine[::2]
    sigma_lip = growth_bounds(sigma).lipschitz
    certificate = sigma_lip + 2.0 * float(np.max(np.abs(bs_fine))) / inf_sigma
    transformed = table(ts, ss_fine[::2] * t_prime, role="diffusion")
    return DriftRemovingTransform(x0=x0, xs=xs, ts=ts, t_prime=t_prime,
                                  transformed_sigma=transformed,
                                  lipschitz_certificate=certificate)


def transformed_monotone_em(b, sigma, grid, trunc_k, block, x0=0.0, transform=None):
    """Monotone scheme run in transformed coordinates and mapped back.

    One step: Y <- Y + T'(X) sigma(X) delta with the stopped increment delta,
    then X = T^{-1}(Y).
    """
    if transform is None:
        transform = zvonkin_transform(b, sigma, x0)
    return _run_scheme(b, sigma, grid, _path_increments(grid, block, trunc_k),
                       x0, transform)
