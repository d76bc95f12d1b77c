"""Path-level schemes: Euler-Maruyama, the truncated-increment (monotone)
variant, and the drift-removing change of variable with its transformed
scheme for bounded measurable drifts: the one scheme layer.

``_scheme_maps`` reads a scheme name; ``_step_increments`` sums substep
noise into per-step increments, or stops it at the barrier.  A batch of
paths runs on numpy arrays (``_propagate``), step-major: row k holds every
path's state at step k, so one path is a column.  ``simulate``, the
estimators and every ``sign_switch`` path run it.  A public single path
with a Markovian drift runs on Python floats (``_run_scheme``), through
``CoefficientSpec.float_evaluator`` and ``DriftRemovingTransform.float_maps``,
which do numpy's arithmetic without its per-call dispatch on 0-d values: on
the same increments, the same bits as its batch column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (ConfigError, DivergenceError, DIVERGENCE_THRESHOLD,
                    SamplePath, TimeGrid, checked_interp, lipschitz_constant,
                    table_lookup)
from .noise import IncrementBlock, truncate_increments, truncation_level

# the scheme names of ``simulate --scheme`` and the Monte Carlo estimators
_SCHEMES = ("em", "monotone-em", "zvonkin-em")
_X_RANGE = "state left the tabulated transform range"
_Y_RANGE = "transformed state left the tabulated range"


def _scheme_maps(scheme, grid, trunc_k, x0, marginals):
    """The barrier K sqrt(-h log h) of ``scheme`` on ``grid`` (None for em)
    and, for each (drift, diffusion) pair of ``marginals``, its transform
    from x0 (None but for zvonkin-em).  ConfigError for an unknown scheme
    or a non-finite x0."""
    if scheme not in _SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}")
    if not math.isfinite(x0):
        raise ConfigError(f"x0 must be finite, got {x0!r}")
    barrier = None if scheme == "em" else truncation_level(grid.h, trunc_k)
    transforms = [zvonkin_transform(b, sigma, x0) if scheme == "zvonkin-em"
                  else None for b, sigma in marginals]
    return barrier, transforms


def _run_scheme(b, sigma, grid, deltas, x0, transform=None):
    """One path of the recursion ``_propagate`` runs on a batch.

    Without ``transform`` the step is x <- x + h b(x) + sigma(x) delta; with
    a drift-removing transform T it is y <- y + T'(x) sigma(x) delta in
    y = T(x), mapped back by x = T^{-1}(y).  ConfigError for a non-finite x0.
    """
    if not math.isfinite(x0):
        raise ConfigError(f"x0 must be finite, got {x0!r}")
    n = grid.n_steps
    h = grid.h
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape != (n,):
        raise ConfigError("increments must match the grid (one per step)")
    if transform is None and not b.is_markovian:
        paths, _, stage = _propagate(b, sigma, h, deltas[:, None], x0)
        if stage[0]:
            raise DivergenceError(f"scheme diverged at stage {stage[0]}",
                                  stage=int(stage[0]))
        return SamplePath(grid=grid, values=paths[:, 0])
    x = float(x0)
    sig = sigma.float_evaluator()
    if transform is not None:
        forward, derivative, inverse = transform.float_maps()
        y = forward(x)
    else:
        drift = b.float_evaluator()
    values = [x]
    for k, delta in enumerate(deltas.tolist()):
        if transform is not None:
            y = y + derivative(x) * sig(x) * delta
            x = inverse(y)
        else:
            x = x + h * drift(x) + sig(x) * delta
        if not math.isfinite(x) or abs(x) > DIVERGENCE_THRESHOLD:
            raise DivergenceError(f"scheme diverged at stage {k + 1}", stage=k + 1)
        values.append(x)
    return SamplePath(grid=grid, values=values)


def _row_map(spec):
    """``spec`` read once for ``_propagate``: a constant as its float (a
    negative diffusion constant is refused here, once), else ``f(x, out)``,
    which writes ``spec.evaluate(x)`` into the row ``out``.  Affine drifts
    are ``out=`` ufuncs in ``evaluate``'s order."""
    if spec.kind == "constant":
        return spec.evaluate(0.0)  # the value, after evaluate's sign check
    if spec.role == "drift" and spec.kind == "affine":
        intercept, slope = spec.intercept, spec.slope
        if not intercept:
            return lambda x, out: np.multiply(slope, x, out=out)

        def affine(x, out):
            np.multiply(slope, x, out=out)
            out += intercept
        return affine

    def evaluate(x, out):
        out[...] = spec.evaluate(x)
    return evaluate


def _propagate(b, sigma, h, deltas, x0, transform=None, out=None):
    """Vectorized one-step recursion across a batch of replicates, step-major.

    ``deltas`` has one row of replicate increments per step, shape (N, B).
    Without ``transform`` the step is x <- x + h b(x) + sigma(x) delta; a
    ``sign_switch`` b is 0 while k h <= switch_time, then level times the
    sign of the switch-time row, read once (an off-grid switch time raises
    ConfigError first).  With a drift-removing transform T it is the
    driftless step y <- y + T'(x) sigma(x) delta in y = T(x), mapped back by
    x = T^{-1}(y).  Each coefficient is read once per call (``_row_map``).
    Returns paths (N + 1, B), sigma values (N, B) and each replicate's first
    diverged stage (0 for none), written to the arrays ``out``, if given,
    else to new ones; each step reads and writes one contiguous row.  A
    constant sigma writes no sigma array: its values are one (N, 1) column,
    which broadcasts against (N, B), and the sigma slot of ``out`` may be
    None.  Diverged replicates are frozen at x0 so the batch can finish.  A
    y beyond the table of T^{-1} is no divergence: ``inverse`` raises
    ConfigError for the whole call (at 64 steps, 5 of 1,000 single paths of
    drift-gap's X marginal overshoot its sup T = 1/2).
    """
    n, n_rep = deltas.shape
    if out is None:
        out = (np.empty((n + 1, n_rep)), None, np.empty(n_rep, int))
    paths, sig, stage = out
    vol = _row_map(sigma)
    if not callable(vol):
        sig = np.full((n, 1), vol)
    elif sig is None:
        sig = np.empty((n, n_rep))
    paths[0] = x0
    stage[:] = 0
    tmp = np.empty(n_rep)
    flags = np.empty(n_rep, dtype=bool)
    k_on = None
    if transform is not None:
        y = np.full(n_rep, float(transform.forward(x0)))
    elif b.is_markovian:
        drift = _row_map(b)
    else:
        k_sw = TimeGrid(n).index_of(b.switch_time)
        # the first step with k h > switch_time
        k_on = k_sw if k_sw * h > b.switch_time else k_sw + 1
        drift = 0.0
    for k in range(n):
        x, x_next = paths[k], paths[k + 1]
        sv = vol
        if callable(vol):
            sv = sig[k]
            vol(x, sv)
        if transform is None:
            # x + h b(x) + sigma(x) delta, in that order
            if k == k_on:
                drift = b.level * np.sign(paths[k_sw])
            if callable(drift):
                drift(x, x_next)
                x_next *= h
            else:
                np.multiply(drift, h, out=x_next)
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
            diverged = np.logical_not(flags, out=flags)
            x_next[diverged] = x0
            stage[diverged & (stage == 0)] = k + 1
    return paths, sig, stage


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


@dataclass(frozen=True)
class DriftRemovingTransform:
    """Tabulated increasing map T with T(x0) = 0 that removes the drift.

    ``T(x) = int_{x0}^x exp(-2 int_{x0}^z b / sigma^2)`` on a dense grid;
    the transformed state Y = T(X) solves a driftless SDE with coefficient
    ``(sigma T') (T^{-1}(y))``.
    """

    xs: np.ndarray
    ts: np.ndarray
    t_prime: np.ndarray
    lipschitz_certificate: float

    def forward(self, x):
        return checked_interp(x, self.xs, self.ts, _X_RANGE)

    def inverse(self, y):
        return checked_interp(y, self.ts, self.xs, _Y_RANGE)

    def derivative(self, x):
        return checked_interp(x, self.xs, self.t_prime, _X_RANGE)

    def float_maps(self):
        """``forward``, ``derivative`` and ``inverse`` for one Python float,
        bit for bit and with the same range checks.  They read the tables
        through memoryviews, not copies."""
        xs, ts, t_prime = (memoryview(np.asarray(a, dtype=float))
                           for a in (self.xs, self.ts, self.t_prime))
        return (table_lookup(xs, ts, _X_RANGE), table_lookup(xs, t_prime, _X_RANGE),
                table_lookup(ts, xs, _Y_RANGE))


def zvonkin_transform(b, sigma, x0):
    """Tabulate the drift-removing map on [x0 - 10, x0 + 10] by Simpson
    quadrature, on 10,001 nodes.

    Requires a bounded drift and a diffusion that is uniformly positive on
    the working interval.  Reports the Lipschitz certificate
    ``Lip(sigma) + 2 ||b||_inf / inf sigma`` for the transformed coefficient.
    """
    if not (b.is_markovian and sigma.is_markovian):
        raise ConfigError("transform needs Markovian coefficients")
    if not math.isfinite(x0):
        raise ConfigError(f"x0 must be finite, got {x0!r}")
    # refined grid: table nodes plus midpoints, so T accumulates per-interval
    # Simpson increments that are strictly positive (T' > 0 everywhere)
    xs_fine = np.linspace(x0 - 10.0, x0 + 10.0, 2 * 10001 - 1)
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
        raise ConfigError("transform table lost resolution; reduce the drift "
                          "magnitude")
    t_prime = t_prime_fine[::2]
    certificate = (lipschitz_constant(sigma)
                   + 2.0 * float(np.max(np.abs(bs_fine))) / inf_sigma)
    return DriftRemovingTransform(xs=xs, ts=ts, t_prime=t_prime,
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
