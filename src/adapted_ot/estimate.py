"""Monte Carlo estimators and experiment drivers: synchronous-coupling
distance, correlation-control scans, the scaled-DP convergence study, the
coefficient-stability study, the non-Markovian counterexample, and the
exact costs of affine pairs, continuous and ``em``.  The step increments
and the batch recursion ``_propagate`` come from ``sde``, the scheme layer.

Costs integrate the scheme's piecewise-linear interpolant exactly on each
segment; for quadratic cost a Brownian-bridge variance term corrects for the
in-step diffusion mismatch, so the estimator is conditionally unbiased for
the interpolant's integral cost.  Replicate ``i`` of master seed ``s`` owns
a fixed block of the master's counter-based stream (see ``noise``); each
chunk of a batch of replicates is drawn in one call, and serial and
threaded runs agree.

A chunk's increments, paths and sigma values are step-major, as
``sde._propagate`` steps them; the per-replicate cost sums run
replicate-major: the path difference and the bridge variance are written
transposed, once per chunk, so numpy sums each replicate's contiguous row
pairwise, the same additions in the same order whatever the chunk layout.

The batches run on ``noise.map_batches``, which gives each worker thread one
``noise.Workspace`` for all its batches.  A batch runs in the fewest
near-equal chunks whose workspace fits ``CHUNK_BYTES`` (8 MiB), so the
memory of a run does not grow with its replicate count.  Each chunk is
drawn, stepped and costed into the batch's per-replicate costs, and the
batch's moments are taken over all of them, so chunking moves no bit.
Every step writes into the workspace through ``out=``, with the same
operations in the same order as on fresh arrays, so after a worker's widest
chunk a chunk allocates nothing of size (N, B); the stopped schemes'
``truncate_increments`` and the p != 2 segment costs are the exceptions.
For N steps, m_sub substeps and B replicates a chunk holds, in doubles: the
draw's uniforms, B * stride (2 N m_sub rounded up to a multiple of 4); the
step-major normals, N m_sub B, and as many for ``dW_bar`` unless rho = 1;
both paths, 2 (N + 1) B; N B for each sigma that is not a constant (a
constant one is an (N, 1) column); and N B for each increment array that
is summed (m_sub > 1) or stopped.  The cost stage reuses spent
buffers, and two constant sigmas share one bridge-variance row.  The em
scheme at rho = 1, m_sub = 1 and N = 64 with constant sigmas takes 322
doubles, 2.6 kB, per replicate: a batch of 5,000 runs as 2 chunks of 2,500
(6.4 MB).  At N = 256 and m_sub = 16 a replicate takes 13,058 doubles
(104 kB), 80 to a chunk.  The counterexample draws and costs its batches
in chunks of the same budget, on fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import build_lattice, check_fosd, require_markovian
from .model import (ConfigError, DivergenceError, NEGATIVE_VOLATILITY,
                    TimeGrid, check_p, positive_int, sign_switch)
from .noise import (_stride, batch_moments, constant_rho, map_batches,
                    pool_moments, replicate_normals, sample_correlated_pair)
from .sde import _propagate, _scheme_maps, _step_increments
from .transport import bicausal_dp, coupled_cost, kr_coupling

# per-worker workspace budget of the coupled estimator: a batch of replicates
# runs in the fewest near-equal chunks whose workspace fits it.  Narrower
# chunks pay the step loop's per-call cost more often: on 2 CPUs, 4 MiB made
# 1e5 replicates at N = 64 a fifth slower, and 16 MiB was no faster
CHUNK_BYTES = 8 * 2**20


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


def _bridge_variance(sig_x, sig_y, rho, out=None, scratch=None):
    """Variance rate of sigma_x dW - sigma_y dW_bar with corr(dW, dW_bar) = rho:
    (sigma_x - sigma_y)^2 + 2 (1 - rho) sigma_x sigma_y.

    The result goes to ``out`` and the second term to ``scratch``, if given.
    """
    var = np.subtract(sig_x, sig_y, out=out)
    var **= 2
    if rho != 1.0:  # at rho = 1 the second term is exactly zero
        cross = np.multiply(2.0 * (1.0 - rho), sig_x, out=scratch)
        cross *= sig_y
        var += cross
    return var


def _chunks(lo, hi, chunk):
    """The fewest near-equal ranges of replicates [lo, hi) that hold at most
    ``chunk`` replicates each, as (lo, hi) pairs."""
    n_chunks = -(-(hi - lo) // chunk)
    edges = [lo + (hi - lo) * i // n_chunks for i in range(n_chunks + 1)]
    return zip(edges[:-1], edges[1:])


def _coupled_cost_mc(b_x, sigma_x, b_y, sigma_y, grid, p, rho, n_samples, seed,
                     scheme="em", m_sub=1, trunc_k=4, x0=0.0, threads=None):
    """Expected integral cost of the coupled pair driven by a rho-correlated
    noise pair; the backbone of the synchronous estimator and the rho scan."""
    check_p(p)
    rho = constant_rho(rho)
    m_sub = positive_int("m_sub", m_sub)
    barrier, transforms = _scheme_maps(scheme, grid, trunc_k, x0,
                                       ((b_x, sigma_x), (b_y, sigma_y)))
    n = grid.n_steps
    h = grid.h
    # the draw's dW_bar is dW at rho = 1: one side of noise
    sides = 1 if rho == 1.0 else 2
    # the widest chunk whose workspace (module docstring) fits the budget
    doubles = (_stride(2 * n * m_sub) + sides * n * m_sub + 2 * (n + 1)
               + sum(s.kind != "constant" for s in (sigma_x, sigma_y)) * n
               + (sides * n if barrier is not None or m_sub > 1 else 0))
    chunk = max(1, CHUNK_BYTES // (8 * doubles))

    def run_chunk(lo, hi, ws):
        n_rep = hi - lo

        def increments(substeps, name):
            # only a sum over substeps is written to a buffer of its own
            summed = barrier is None and m_sub > 1
            return _step_increments(substeps, barrier,
                                    out=ws.array(name, (n, n_rep)) if summed else None)

        block = sample_correlated_pair(grid, rho, (seed, lo), m_sub=m_sub,
                                       n_replicates=n_rep, workspace=ws)
        dx = increments(block.dW, "dx")
        dy = dx if block.dW_bar is block.dW else increments(block.dW_bar, "dy")
        sig_out = [None if s.kind == "constant" else ws.array(name, (n, n_rep))
                   for s, name in ((sigma_x, "sig_x"), (sigma_y, "sig_y"))]
        xp, sig_x, stage_x = _propagate(
            b_x, sigma_x, h, dx, x0, transforms[0],
            out=(ws.array("paths_x", (n + 1, n_rep)), sig_out[0],
                 ws.array("stage_x", (n_rep,), np.int64)))
        yp, sig_y, stage_y = _propagate(
            b_y, sigma_y, h, dy, x0, transforms[1],
            out=(ws.array("paths_y", (n + 1, n_rep)), sig_out[1],
                 ws.array("stage_y", (n_rep,), np.int64)))
        bad = (stage_x > 0) | (stage_y > 0)
        # replicate-major rows for the cost sums (module docstring), written
        # transposed into spent buffers: the draw's for the difference and
        # the bridge variance, the paths' for the variance's second term and
        # the segment costs.  Two constant sigmas give every replicate the
        # same variance row, formed once: a contiguous row sums to the same
        # bits alone or in a batch.
        diff = np.subtract(xp.T, yp.T, out=ws.array("uniforms", (n_rep, n + 1)))
        var_shape = np.broadcast_shapes(sig_x.T.shape, sig_y.T.shape)
        var = _bridge_variance(sig_x.T, sig_y.T, rho,
                               out=ws.array("dW", var_shape),
                               scratch=ws.array("paths_x", var_shape))
        costs = path_integral_cost(diff, h, p, bridge_var=var,
                                   out=(ws.array("paths_y", (n_rep, n)),
                                        ws.array("paths_x", (n_rep, n))))
        return costs, bad

    def run_batch(lo, hi, ws):
        # the batch's moments are taken over all its chunks at once
        costs = np.empty(hi - lo)
        bad = np.empty(hi - lo, dtype=bool)
        for c_lo, c_hi in _chunks(lo, hi, chunk):
            costs[c_lo - lo:c_hi - lo], bad[c_lo - lo:c_hi - lo] = run_chunk(
                c_lo, c_hi, ws)
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
    return _coupled_cost_mc(b_x, sigma_x, b_y, sigma_y, grid, p, 1.0,
                            n_samples, seed, scheme=scheme, **kwargs)


@dataclass(frozen=True)
class RhoScanRow:
    rho: float
    estimate: float
    stderr: float


def rho_scan(b_x, sigma_x, b_y, sigma_y, grid, p, rho_values, n_samples,
             seed=0, scheme="em", **kwargs):
    """Coupled cost for each constant correlation, with common random numbers
    across the scan (the rho = 1 row reproduces sync_distance_mc exactly).
    Every correlation is checked before the first row runs."""
    rows = []
    for rho in [constant_rho(r) for r in rho_values]:
        res = _coupled_cost_mc(b_x, sigma_x, b_y, sigma_y, grid, p, rho,
                               n_samples, seed, scheme=scheme, **kwargs)
        rows.append(RhoScanRow(rho=rho, estimate=res.estimate,
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
    require_markovian(b_x, sigma_x, b_y, sigma_y)  # and so are these
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


def counterexample_nonmarkov(level, switch_time, grid, n_samples=100000, seed=0):
    """Both couplings of the sign-switch drift example, simulated exactly.

    The synchronous pair is (W + D, W - D) with the common ramp
    D_t = level * sign(W_switch) * (t - switch_time)_+; the anti-synchronous
    pair flips the Brownian part only, (W + D, -W + D).  Returns the two
    integrated squared-difference costs (the experiment's cost is p = 2).
    """
    if not (math.isfinite(level) and level >= 0):
        raise ConfigError(f"drift level must be finite and nonnegative, got {level!r}")
    sign_switch(level, switch_time)  # the drift's rule: switch_time in (0, 1)
    k_sw = grid.index_of(switch_time)
    h = grid.h
    times = grid.times()
    ramp = np.maximum(times - switch_time, 0.0)
    # a replicate holds at most its draw's words and eight rows of N + 1
    # doubles at once
    chunk = max(1, CHUNK_BYTES // (8 * (_stride(grid.n_steps)
                                        + 8 * (grid.n_steps + 1))))

    def run_chunk(lo, hi):
        n_rep = hi - lo
        dw = replicate_normals((seed, lo), grid.n_steps, n_rep) * math.sqrt(h)
        w = np.concatenate([np.zeros((n_rep, 1)), np.cumsum(dw, axis=1)], axis=1)
        sign = np.sign(w[:, k_sw])
        drift = level * sign[:, None] * ramp[None, :]
        # sync: difference 2*drift is piecewise linear, integrated exactly
        cost_sync = path_integral_cost(2.0 * drift, h, 2)
        # async: difference 2*W, whose noise 2 dW has variance rate 4:
        # bridge-corrected so the estimator is unbiased
        cost_async = path_integral_cost(2.0 * w, h, 2,
                                        bridge_var=np.full((1, grid.n_steps), 4.0))
        return cost_sync, cost_async

    def run_batch(lo, hi, _ws):
        # replicate i's stream and cost do not depend on its chunk, and the
        # batch's moments are taken over all its chunks at once
        costs = np.concatenate([run_chunk(c_lo, c_hi) for c_lo, c_hi
                                in _chunks(lo, hi, chunk)], axis=1)
        return batch_moments(costs[0]), batch_moments(costs[1])

    sync, asyn = zip(*map_batches(run_batch, n_samples))
    return MCResult(*pool_moments(sync)), MCResult(*pool_moments(asyn))


def _affine_pair(b_x, sigma_x, b_y, sigma_y):
    """((c_x, c_y), (a_x, a_y), (s_x, s_y)) for two drifts c + a x with
    constant volatilities s (a constant-valued table is a constant), or
    None for any other pair.  A negative volatility is refused."""
    forms = []
    for k, spec in enumerate((b_x, b_y, sigma_x, sigma_y)):
        if spec.kind == "constant":
            forms.append((spec.value, 0.0))
        elif spec.kind == "affine" and (k < 2 or spec.slope == 0.0):
            forms.append((spec.intercept, spec.slope))
        elif spec.kind == "table" and len(set(spec.values)) == 1:
            forms.append((spec.values[0], 0.0))
        else:
            return None
    (c_x, a_x), (c_y, a_y), (s_x, _), (s_y, _) = forms
    if min(s_x, s_y) < 0:
        raise ConfigError(NEGATIVE_VOLATILITY)
    return (c_x, c_y), (a_x, a_y), (s_x, s_y)


def closed_form_cost(b_x, sigma_x, b_y, sigma_y, p=2):
    """Synchronous cost at p = 2 of an ``_affine_pair`` from x0 = 0, else
    None: D = X - Y is Gaussian, and 32-node Gauss-Legendre integrates its
    mean^2 + variance over [0, 1], with g(r, t) = int_0^t e^{r u} du."""
    check_p(p)
    pair = _affine_pair(b_x, sigma_x, b_y, sigma_y)
    if p != 2 or pair is None:
        return None
    (c_x, c_y), (a_x, a_y), (s_x, s_y) = pair
    from numpy.polynomial.legendre import leggauss  # numpy only, on first call
    t, weights = leggauss(32)
    t = 0.5 * (t + 1.0)
    # below 1e-20, g is t to the last bit, and r t may be subnormal
    g = lambda r: t if abs(r) < 1e-20 else np.expm1(r * t) / r
    with np.errstate(over="ignore", invalid="ignore"):
        mean = c_x * g(a_x) - c_y * g(a_y)
        var = s_x**2 * g(2 * a_x) - 2 * s_x * s_y * g(a_x + a_y) + s_y**2 * g(2 * a_y)
        cost = 0.5 * float(weights @ (mean * mean + var))
    if not math.isfinite(cost):
        raise ConfigError(f"closed-form cost overflows a float (slopes {a_x}, {a_y})")
    return cost


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
def em_expected_cost(b_x, sigma_x, b_y, sigma_y, n_steps, rho=1.0):
    """Exact expectation of the quadratic coupled-cost estimator for the
    ``em`` scheme on ``n_steps`` steps with noise correlation ``rho``, from
    x0 = 0, or None unless the pair is an ``_affine_pair``.

    There the scheme pair Z = (X, Y) is linear Gaussian,
    Z' = A Z + c + g * (dW, dW_bar), whose noise has covariance
    h g g^T * [[1, rho], [rho, 1]], so its first and second moments follow a
    short recursion.  Each step costs h (D^2 + D D' + D'^2) / 3 for
    D = X - Y, plus the bridge term
    ((s_x - s_y)^2 + 2 (1 - rho) s_x s_y) h^2 / 6, a quadratic form in those
    moments.  Against ``closed_form_cost`` this is the scheme's exact bias.
    A cost that overflows a float is refused (ConfigError).
    """
    positive_int("n_steps", n_steps)
    rho = constant_rho(rho)
    pair = _affine_pair(b_x, sigma_x, b_y, sigma_y)
    if pair is None:
        return None
    intercepts, (a_x, a_y), vols = pair
    h = 1.0 / n_steps
    a = np.diag([1.0 + h * a_x, 1.0 + h * a_y])
    c = h * np.array(intercepts, dtype=float)
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
    if not math.isfinite(total):
        raise ConfigError(f"em expected cost overflows a float (slopes {a_x}, {a_y})")
    return float(total)
