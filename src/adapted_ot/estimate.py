"""Monte Carlo estimators and experiment drivers: synchronous-coupling
distance, correlation-control scans, the scaled-DP convergence study, the
coefficient-stability study, the non-Markovian counterexample, and a
closed-form oracle registry.  The step increments and the batch recursion
``_propagate`` they run come from ``sde``, the one scheme layer.

Costs integrate the scheme's piecewise-linear interpolant exactly on each
segment; for quadratic cost a Brownian-bridge variance term corrects for the
in-step diffusion mismatch, so the estimator is conditionally unbiased for
the interpolant's integral cost.  Replicate ``i`` of master seed ``s`` owns
a fixed block of the master's counter-based stream (see ``noise``); each
batch of replicates is drawn in one call, and serial and threaded runs agree.

A batch's increments, paths and sigma values are step-major, as
``sde._propagate`` steps them; the per-replicate cost sums run
replicate-major: the path difference and the bridge variance are written
transposed, once per batch, so numpy sums each replicate's contiguous row
pairwise, the same additions in the same order whatever the batch layout.

The batches run on ``noise.map_batches``, which gives each worker thread one
``noise.Workspace`` for all its batches.  Every step writes into it through
``out=``, with the same operations in the same order as on fresh arrays, so
after a worker's first batch a batch allocates nothing of size (N, B); the
stopped schemes' ``truncate_increments`` and the p != 2 segment costs are
the exceptions.  For N steps, m_sub substeps and B replicates it holds, in
doubles: the draw's uniforms, B * stride (2 N m_sub rounded up to a
multiple of 4); the step-major normals, N m_sub B, and as many for
``dW_bar`` unless rho = 1 throughout; both paths, 2 (N + 1) B; both sigma
arrays, 2 N B; and, where m_sub > 1, N B for each summed increment array.
The cost stage reuses spent buffers.  The em scheme at rho = 1, m_sub = 1 and
N = 64 takes about 7 N B doubles, 3.6 kB per replicate of batch width:
18 MB at B = 5,000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import build_lattice, check_fosd
from .model import ConfigError, DivergenceError, TimeGrid, check_p
from .noise import (batch_moments, constant_rho, map_batches, pool_moments,
                    replicate_normals, sample_correlated_pair)
from .sde import _propagate, _scheme_maps, _step_increments
from .transport import bicausal_dp, coupled_cost, kr_coupling


@dataclass(frozen=True)
class MCResult:
    estimate: float
    stderr: float
    n_samples: int
    n_diverged: int = 0


def _segment_cost(a, b, h, p, out=None):
    """Exact integral of |linear segment|^p over one step of length h.

    For p = 2, ``out`` may be a pair of arrays shaped like the result for
    its terms; the first is returned.
    """
    if p == 2:
        # h (a a + a b + b b) / 3, the additions in that order
        s, t = (None, None) if out is None else out
        s = np.multiply(a, a, out=s)
        s += np.multiply(a, b, out=t)
        s += np.multiply(b, b, out=t)
        s *= h
        s /= 3.0
        return s
    if p == 1:
        same = a * b >= 0
        opp = h * (a * a + b * b) / np.maximum(2.0 * (np.abs(a) + np.abs(b)), 1e-300)
        return np.where(same, h * (np.abs(a) + np.abs(b)) / 2.0, opp)
    diff = b - a
    small = np.abs(diff) <= 1e-9 * (np.abs(a) + np.abs(b) + 1e-30)
    mid = h * np.abs(0.5 * (a + b)) ** p
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = h * (b * np.abs(b) ** p - a * np.abs(a) ** p) / ((p + 1) * diff)
    return np.where(small, mid, exact)


def path_integral_cost(diff, h, p, bridge_var=None, out=None):
    """Per-replicate integral cost of the interpolated path difference
    ``diff``, one replicate's N + 1 values per row.

    ``bridge_var`` holds the per-step variance rate of the difference's
    noise (B, N); for p = 2 its bridge contribution (bridge_var h^2 / 6 per
    step) is added.  ``out`` goes to ``_segment_cost``.
    """
    d = np.asarray(diff)
    cost = _segment_cost(d[:, :-1], d[:, 1:], h, p, out=out).sum(axis=1)
    if p == 2 and bridge_var is not None:
        cost = cost + np.asarray(bridge_var).sum(axis=1) * h * h / 6.0
    return cost


def _bridge_variance(sig_x, sig_y, rho_k, out=None, scratch=None):
    """Variance rate of sigma_x dW - sigma_y dW_bar with corr(dW, dW_bar) = rho:
    (sigma_x - sigma_y)^2 + 2 (1 - rho) sigma_x sigma_y.

    The result goes to ``out`` and the second term to ``scratch``, if given.
    """
    var = np.subtract(sig_x, sig_y, out=out)
    var **= 2
    if np.any(rho_k != 1.0):  # at rho = 1 the second term is exactly zero
        cross = np.multiply(2.0 * (1.0 - rho_k), sig_x, out=scratch)
        cross *= sig_y
        var += cross
    return var


def _coupled_cost_mc(b_x, sigma_x, b_y, sigma_y, grid, p, rho, n_samples, seed,
                     scheme="em", m_sub=1, trunc_k=4, x0=0.0, threads=None):
    """Expected integral cost of the coupled pair driven by a rho-correlated
    noise pair; the backbone of the synchronous estimator and the rho scan."""
    check_p(p)
    barrier, transforms = _scheme_maps(scheme, grid, trunc_k, x0,
                                       ((b_x, sigma_x), (b_y, sigma_y)))
    n = grid.n_steps
    h = grid.h
    rho_k = np.asarray(rho.value_at(grid.times()[:-1]), dtype=float)

    def run_batch(lo, hi, ws):
        n_rep = hi - lo

        def array(name, shape, dtype=np.float64):
            return ws.array(name, shape, n_rep, dtype)

        def increments(substeps, name):
            # only a sum over substeps is written to a buffer of its own
            summed = barrier is None and m_sub > 1
            return _step_increments(substeps, barrier,
                                    out=array(name, (n, n_rep)) if summed else None)

        block = sample_correlated_pair(grid, rho, (seed, lo), m_sub=m_sub,
                                       n_replicates=n_rep, workspace=ws)
        dx = increments(block.dW, "dx")
        # at rho = 1 on every step the draw's dW_bar is dW: one set of increments
        dy = dx if block.dW_bar is block.dW else increments(block.dW_bar, "dy")
        xp, sig_x, stage_x = _propagate(
            b_x, sigma_x, h, dx, x0, transforms[0],
            out=(array("paths_x", (n + 1, n_rep)), array("sig_x", (n, n_rep)),
                 array("stage_x", (n_rep,), np.int64)))
        yp, sig_y, stage_y = _propagate(
            b_y, sigma_y, h, dy, x0, transforms[1],
            out=(array("paths_y", (n + 1, n_rep)), array("sig_y", (n, n_rep)),
                 array("stage_y", (n_rep,), np.int64)))
        bad = (stage_x > 0) | (stage_y > 0)
        # replicate-major rows for the cost sums (module docstring), written
        # transposed into spent buffers: the draw's for the difference and
        # the bridge variance, sigma_x for the variance's second term, and
        # the y side's for the segment costs
        diff = np.subtract(xp.T, yp.T, out=array("uniforms", (n_rep, n + 1)))
        var = _bridge_variance(sig_x.T, sig_y.T, rho_k, out=array("dW", (n_rep, n)),
                               scratch=sig_x.T)
        costs = path_integral_cost(diff, h, p, bridge_var=var,
                                   out=(array("paths_y", (n_rep, n)),
                                        array("sig_y", (n_rep, n))))
        return batch_moments(costs[~bad]), int(bad.sum())

    moments, n_bad = zip(*map_batches(run_batch, n_samples, threads))
    n_div = sum(n_bad)
    if n_div > 0.001 * n_samples:
        raise DivergenceError(
            f"{n_div}/{n_samples} replicates diverged (> 0.1%); "
            f"scheme={scheme} N={grid.n_steps}")
    return MCResult(*pool_moments(moments), n_diverged=n_div)


def sync_distance_mc(b_x, sigma_x, b_y, sigma_y, grid, p, n_samples, seed=0,
                     scheme="em", **kwargs):
    """Synchronous-coupling cost: both paths driven by identical increments
    per replicate (the rho = 1 control)."""
    return _coupled_cost_mc(b_x, sigma_x, b_y, sigma_y, grid, p,
                            constant_rho(1.0), n_samples, seed, scheme=scheme,
                            **kwargs)


@dataclass(frozen=True)
class RhoScanRow:
    rho: float
    estimate: float
    stderr: float


def rho_scan(b_x, sigma_x, b_y, sigma_y, grid, p, rho_values, n_samples,
             seed=0, scheme="em", **kwargs):
    """Coupled cost for each constant correlation, with common random numbers
    across the scan (the rho = 1 row reproduces sync_distance_mc exactly)."""
    rows = []
    for r in rho_values:
        res = _coupled_cost_mc(b_x, sigma_x, b_y, sigma_y, grid, p,
                               constant_rho(r), n_samples, seed, scheme=scheme,
                               **kwargs)
        rows.append(RhoScanRow(rho=float(r), estimate=res.estimate,
                               stderr=res.stderr))
    return rows


@dataclass(frozen=True)
class ConvergenceRow:
    n_steps: int
    h: float
    dp_scaled: float
    kr_cost: float
    mc_sync: float
    mc_stderr: float
    fosd_x: bool
    fosd_y: bool


def convergence_study(b_x, sigma_x, b_y, sigma_y, p, n_list, m, max_support,
                      trunc_k=4, mc_samples=100000, seed=0, x0=0.0,
                      mc_n_steps=64, threads=None):
    """Scaled DP value, rearrangement cost, and the MC synchronous estimate
    per lattice resolution.

    The MC column is the continuous-target estimate on a fixed fine grid and
    is identical across rows.  A failed dominance certificate is recorded in
    the row, which is still computed.
    """
    grids = [TimeGrid(n) for n in n_list]  # checked before the MC column runs
    mc = sync_distance_mc(b_x, sigma_x, b_y, sigma_y, TimeGrid(mc_n_steps), p,
                          mc_samples, seed=seed, x0=x0, threads=threads)
    rows = []
    for grid in grids:
        n = grid.n_steps
        lat_x = build_lattice(b_x, sigma_x, n, m, max_support, trunc_k=trunc_k, x0=x0)
        lat_y = build_lattice(b_y, sigma_y, n, m, max_support, trunc_k=trunc_k, x0=x0)
        dp = bicausal_dp(lat_x, lat_y, p=p, scaled=True)
        kr = coupled_cost(kr_coupling(lat_x, lat_y), p=p, scaled=True)
        rows.append(ConvergenceRow(
            n_steps=n, h=grid.h, dp_scaled=dp.value, kr_cost=kr,
            mc_sync=mc.estimate, mc_stderr=mc.stderr,
            fosd_x=check_fosd(lat_x).ok, fosd_y=check_fosd(lat_y).ok))
    return rows


@dataclass(frozen=True)
class StabilityRow:
    level: int
    estimate: float
    stderr: float
    gap: float


def stability_study(b_target, sigma_target, approx_pairs, b_other, sigma_other,
                    grid, p, n_samples, seed=0, **kwargs):
    """Common-random-number sync costs for a sequence of coefficient
    approximations against the target pair.

    Row ``gap`` is |cost_level - cost_target| with identical noise, so it
    isolates the coefficient perturbation from Monte Carlo noise.
    """
    if not approx_pairs:
        raise ConfigError("the stability study needs an approximation level")
    target = sync_distance_mc(b_target, sigma_target, b_other, sigma_other,
                              grid, p, n_samples, seed=seed, **kwargs)
    rows = []
    for j, (b_j, sigma_j) in enumerate(approx_pairs):
        res = sync_distance_mc(b_j, sigma_j, b_other, sigma_other, grid, p,
                               n_samples, seed=seed, **kwargs)
        rows.append(StabilityRow(level=j, estimate=res.estimate,
                                 stderr=res.stderr,
                                 gap=abs(res.estimate - target.estimate)))
    return rows, target


def counterexample_nonmarkov(level, switch_time, grid, p=2, n_samples=100000, seed=0):
    """Both couplings of the sign-switch drift example, simulated exactly.

    The synchronous pair is (W + D, W - D) with the common ramp
    D_t = level * sign(W_switch) * (t - switch_time)_+; the anti-synchronous
    pair flips the Brownian part only, (W + D, -W + D).  Returns the two
    integrated squared-difference costs.
    """
    if p != 2:
        raise ConfigError("the counterexample is a quadratic-cost experiment")
    if not (math.isfinite(level) and level >= 0):
        raise ConfigError(f"drift level must be finite and nonnegative, got {level!r}")
    k_sw = grid.index_of(switch_time)
    h = grid.h
    times = grid.times()
    ramp = np.maximum(times - switch_time, 0.0)

    def run_batch(lo, hi, _ws):
        n_rep = hi - lo
        dw = replicate_normals((seed, lo), grid.n_steps, n_rep) * math.sqrt(h)
        w = np.concatenate([np.zeros((n_rep, 1)), np.cumsum(dw, axis=1)], axis=1)
        sign = np.sign(w[:, k_sw])
        drift = level * sign[:, None] * ramp[None, :]
        # sync: difference 2*drift is piecewise linear, integrated exactly
        d_sync = 2.0 * drift
        cost_sync = _segment_cost(d_sync[:, :-1], d_sync[:, 1:], h, 2).sum(axis=1)
        # async: difference 2*W, bridge-corrected so the estimator is unbiased
        d_async = 2.0 * w
        cost_async = (_segment_cost(d_async[:, :-1], d_async[:, 1:], h, 2).sum(axis=1)
                      + 4.0 * grid.n_steps * h * h / 6.0)
        return batch_moments(cost_sync), batch_moments(cost_async)

    sync, asyn = zip(*map_batches(run_batch, n_samples))
    return MCResult(*pool_moments(sync)), MCResult(*pool_moments(asyn))


def _constant_value(spec):
    """The constant a coefficient reduces to, or None."""
    if spec.kind == "constant":
        return spec.value
    if spec.kind == "affine" and spec.slope == 0.0:
        return spec.intercept
    if spec.kind == "table" and len(set(spec.values)) == 1:
        return spec.values[0]
    return None


def closed_form_cost(b_x, sigma_x, b_y, sigma_y, p=2):
    """Closed-form synchronous cost for the registered families, else None.

    Constant pair (c1, s) / (c2, sbar): (c1-c2)^2/3 + (s-sbar)^2/2.
    Mean-reverting pair with one rate theta and constant volatilities:
    (s-sbar)^2 [1/(2 theta) - (1-e^{-2 theta})/(4 theta^2)].
    Both require quadratic cost and initial value x0 = 0 for the constant
    family's drift term.
    """
    if p != 2:
        return None
    s1 = _constant_value(sigma_x)
    s2 = _constant_value(sigma_y)
    if s1 is None or s2 is None:
        return None
    c1 = _constant_value(b_x)
    c2 = _constant_value(b_y)
    if c1 is not None and c2 is not None:
        return (c1 - c2) ** 2 / 3.0 + (s1 - s2) ** 2 / 2.0
    if (b_x.kind == "ou" and b_y.kind == "ou" and b_x.theta == b_y.theta
            and b_x.theta > 0):
        theta = b_x.theta
        return (s1 - s2) ** 2 * (1.0 / (2 * theta)
                                 - (1.0 - math.exp(-2 * theta)) / (4 * theta**2))
    return None


def _affine_drift(spec):
    """(intercept, slope) of a drift that is affine in the state, or None."""
    c = _constant_value(spec)
    if c is not None:
        return c, 0.0
    if spec.kind == "affine":
        return spec.intercept, spec.slope
    if spec.kind == "ou":
        return 0.0, -spec.theta
    return None


def em_expected_cost(b_x, sigma_x, b_y, sigma_y, n_steps, rho=1.0):
    """Exact expectation of the quadratic coupled-cost estimator for the
    ``em`` scheme on ``n_steps`` steps with noise correlation ``rho``, or
    None outside affine drifts with constant volatilities.  Like
    ``closed_form_cost``, it assumes x0 = 0.

    There the scheme pair Z = (X, Y) is linear Gaussian,
    Z' = A Z + c + g * (dW, dW_bar), whose noise has covariance
    h g g^T * [[1, rho], [rho, 1]], so its first and second moments follow a
    short recursion.  Each step costs h (D^2 + D D' + D'^2) / 3 for
    D = X - Y, plus the bridge term
    ((s_x - s_y)^2 + 2 (1 - rho) s_x s_y) h^2 / 6, a quadratic form in those
    moments.  Against ``closed_form_cost`` this is the scheme's exact bias.
    """
    if not -1.0 <= rho <= 1.0:
        raise ConfigError("rho must lie in [-1, 1]")
    drifts = (_affine_drift(b_x), _affine_drift(b_y))
    vols = (_constant_value(sigma_x), _constant_value(sigma_y))
    if drifts[0] is None or drifts[1] is None or None in vols:
        return None
    h = 1.0 / n_steps
    a = np.diag([1.0 + h * drifts[0][1], 1.0 + h * drifts[1][1]])
    c = h * np.array([drifts[0][0], drifts[1][0]], dtype=float)
    g = np.array(vols, dtype=float)
    noise_cov = h * np.outer(g, g) * np.array([[1.0, rho], [rho, 1.0]])
    e = np.array([1.0, -1.0])
    mean = np.zeros(2)
    second = np.zeros((2, 2))
    total = n_steps * _bridge_variance(g[0], g[1], rho) * h * h / 6.0
    for _ in range(n_steps):
        cross = second @ a.T + np.outer(mean, c)  # E[Z Z'^T]
        shift = np.outer(a @ mean, c)
        second_next = a @ second @ a.T + shift + shift.T + np.outer(c, c) + noise_cov
        total += h * (e @ (second + cross + second_next) @ e) / 3.0
        mean = a @ mean + c
        second = second_next
    return float(total)
