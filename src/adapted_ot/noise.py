"""Seeded Brownian increments, rho-correlated pairs, and stopped (truncated)
increments, plus the analytic exit-probability sandwich for the barrier.

Streams are counter-based (Salmon et al. 2011, "Parallel random numbers: as
easy as 1, 2, 3"): master seed ``s`` keys one Philox4x64 stream, and replicate
``i`` of a draw of ``width`` words per replicate owns the counter words
``[i * stride, (i + 1) * stride)``, ``stride`` being ``width`` rounded up to a
multiple of 4 (one Philox block).  Each word becomes a normal by inverse CDF,
so every replicate consumes a fixed number of words and a range of
replicates ``[lo, hi)`` is one ``advance`` plus one draw of the stream's
doubles, ``Generator.random``, which writes into a caller's array.  Replicate
``i`` therefore depends only on ``(s, i)``: drawn alone or inside any batch,
serially or in parallel, it is the same numbers.

A batch draw can fill a ``Workspace``: arrays kept from one batch to the
next, so that a run of batches allocates them once.  ``map_batches`` is the
one replicate loop: batches of replicates on worker threads, each with one
workspace.  ``pool_moments`` is the one reduction of their ``batch_moments``.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import ConfigError, positive_int

DEFAULT_SUBSTEPS = 16
N_BATCHES = 20  # replicate ranges per run; they only split the work


@dataclass(frozen=True)
class RhoControl:
    """Correlation control: a constant in [-1, 1] or a piecewise-constant
    function of time (left-closed intervals, last value extends to t = 1)."""

    kind: str = "constant"
    value: float = 1.0
    times: tuple = ()
    values: tuple = ()

    def __post_init__(self):
        if self.kind not in ("constant", "table_of_time"):
            raise ConfigError(f"unknown rho control kind {self.kind!r}")
        if self.kind == "constant":
            if not -1.0 <= self.value <= 1.0:
                raise ConfigError("rho must lie in [-1, 1]")
        else:
            times = np.asarray(self.times, dtype=float)
            values = np.asarray(self.values, dtype=float)
            if times.size != values.size or times.size == 0:
                raise ConfigError("table_of_time needs matching times and values")
            if times[0] != 0.0 or np.any(np.diff(times) <= 0):
                raise ConfigError("rho table times must start at 0 and increase")
            if values.size and (values.min() < -1.0 or values.max() > 1.0):
                raise ConfigError("rho values must lie in [-1, 1]")

    def value_at(self, t):
        """Correlation at time(s) ``t``."""
        if self.kind == "constant":
            return np.full_like(np.asarray(t, dtype=float), self.value)
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        idx = np.clip(np.searchsorted(times, t, side="right") - 1, 0, values.size - 1)
        return values[idx]


def constant_rho(value):
    return RhoControl(kind="constant", value=float(value))


def rho_table(times, values):
    return RhoControl(kind="table_of_time", times=tuple(times), values=tuple(values))


@dataclass(frozen=True)
class IncrementBlock:
    """Substep increments of a correlated Brownian pair on one grid.

    ``dW`` and ``dW_bar`` have shape (N, m_sub) for one replicate, or
    (n_replicates, N, m_sub) for a batch; each substep increment has
    variance h/m_sub, and ``dW_bar = rho * dW + sqrt(1 - rho^2) * dW_perp``
    with ``rho`` evaluated at the step's left endpoint.  Where rho = 1 on
    every step, ``dW_bar`` is ``dW`` itself.  A batch's arrays are
    transposed views of step-major (N, m_sub, n_replicates) arrays; the
    schemes step by their ``sde._step_increments``.
    """

    dW: np.ndarray
    dW_bar: np.ndarray


def _split_seed(seed):
    """(master entropy, first replicate index) of a replicate seed.

    ``(s, i)`` is replicate ``i`` of master ``s``; ``s`` may itself be a
    tuple, and ``(a, b, i)`` is the same as ``((a, b), i)``.  A bare master
    (an int or a 1-tuple) is its replicate 0.
    """
    if isinstance(seed, (tuple, list)) and len(seed) >= 2:
        master, index = seed[:-1], seed[-1]
        if len(master) == 1 and isinstance(master[0], (tuple, list)):
            master = master[0]
    else:
        master, index = seed, 0
    master = tuple(master) if isinstance(master, (tuple, list)) else (master,)
    parts = master + (index,)
    if not all(isinstance(v, (int, np.integer)) and v >= 0 for v in parts):
        raise ConfigError(f"seed {seed!r} must be made of non-negative integers")
    return tuple(int(v) for v in master), int(index)


@lru_cache(maxsize=64)
def _stream_key(master):
    """Philox key of a master seed (cached: a ``SeedSequence`` per call would
    be a third of a single replicate's draw)."""
    return np.random.SeedSequence(master).generate_state(2, np.uint64)


def _stride(width):
    """Words a replicate owns: ``width`` rounded up to whole Philox blocks."""
    return -(-width // 4) * 4


def _replicate_uniforms(seed, width, n_replicates, n_used=None, out=None):
    """The words of replicates ``[i, i + n_replicates)`` of the master stream
    as the doubles ``(word >> 11) 2^-53`` that ``Generator.random`` makes of
    them; ``seed`` is ``(s, i)`` and each replicate owns ``width`` words.

    Returns the first ``n_used`` (default ``width``) words of each replicate,
    shape (n_replicates, n_used); the last replicate's other words are not
    drawn.  ``out``, if given, is the C-contiguous (n_replicates, stride)
    array the draw is written to; the result is a view of it.
    """
    master, first = _split_seed(seed)
    stride = _stride(width)
    n_used = width if n_used is None else n_used
    bits = np.random.Philox(key=_stream_key(master))
    bits.advance(first * stride // 4)  # one Philox block is 4 words
    if out is None:
        out = np.empty((n_replicates, stride))
    np.random.Generator(bits).random(out=out.reshape(-1)[:out.size - stride + n_used])
    return out[:, :n_used]


def _uniforms_to_normals(u, out=None):
    """Standard normals by inverse CDF from ``_replicate_uniforms`` doubles.

    ``floor(u 2^52)`` is the word's top 52 bits, exactly.  They give the
    midpoint ``(k + 0.5) 2^-52`` of one of 2^52 equal cells of (0, 1); both
    ends are exact in double precision, so ``ndtri`` never sees 0 or 1 (a
    53-bit midpoint rounds to 1.0 at the top).  ``out`` may be ``u``.
    """
    # imported here: scipy.special is a quarter of a second of start-up that
    # only the noise draws need; once it is loaded the statement is cheap
    from scipy.special import ndtri
    z = np.multiply(u, 2.0**52, out=out)
    np.floor(z, out=z)
    z += 0.5
    z *= 2.0**-52
    return ndtri(z, out=z)


def replicate_normals(seed, width, n_replicates=1):
    """``width`` standard normals for each of replicates ``[i, i + n_replicates)``
    of master ``s`` (``seed = (s, i)``), shape (n_replicates, width)."""
    if width < 1 or n_replicates < 1:
        raise ConfigError("need at least one normal and one replicate")
    return _uniforms_to_normals(_replicate_uniforms(seed, width, n_replicates))


def truncation_level(h, trunc_k):
    """Barrier K * sqrt(-h log h) for the stopped-increment scheme."""
    if not 0.0 < h < 1.0:
        raise ConfigError("truncation level needs 0 < h < 1 (log h < 0)")
    if trunc_k < 1:
        raise ConfigError("truncation multiplier K must be >= 1")
    return trunc_k * math.sqrt(-h * math.log(h))


class Workspace:
    """Arrays kept from one batch of replicates to the next.

    ``array(name, shape)`` returns a C-contiguous array of ``shape`` on the
    head of the buffer ``name``.  A buffer is allocated for the first request
    that outgrows it, to that request's size: it is as wide as the widest
    batch (or chunk) drawn into it, and later requests that fit reuse it,
    whatever their shape.  What a buffer held is garbage after the next
    request for it.
    """

    def __init__(self):
        self._buffers = {}

    def array(self, name, shape, dtype=np.float64):
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _resolve_threads(threads):
    """Worker count: ``threads`` itself, or the CPUs this process may use."""
    if threads is not None:
        return positive_int("threads", threads)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_batches(run_batch, n_samples, threads=None):
    """``run_batch(lo, hi, workspace)`` on each of ``N_BATCHES`` near-equal
    replicate ranges [lo, hi) of ``n_samples``, on ``threads`` worker threads
    (default: the usable CPUs); the results come back in range order.  Each
    worker owns one ``Workspace``, built on its first batch and dropped when
    the call returns; its buffers grow to the widest draw the worker makes,
    a whole range or, in the coupled estimator, a chunk of one.
    """
    n_samples = positive_int("n_samples", n_samples)
    edges = np.linspace(0, n_samples, N_BATCHES + 1).astype(int)
    ranges = [(int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]
    n_workers = min(_resolve_threads(threads), len(ranges))
    workspaces = threading.local()

    def run(lo_hi):
        ws = getattr(workspaces, "ws", None)
        if ws is None:
            ws = workspaces.ws = Workspace()
        return run_batch(*lo_hi, ws)

    if n_workers == 1:
        return [run(r) for r in ranges]
    # imported here: concurrent.futures also loads logging, which one
    # thread never needs
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(run, ranges))


# Per-replicate standard deviations at most this many units of the mean
# (16 ulps) are rounding: a deterministic cost computed along different
# paths spreads over a few ulps (3.3 on drift-gap's 64-step cost).
ROUNDING_RTOL = 16 * np.finfo(float).eps


def batch_moments(values):
    """(count, sum, M2) of values: M2 sums their squared deviations from the mean."""
    values = np.asarray(values, dtype=float)
    total = values.sum()
    dev = values - total / max(values.size, 1)
    dev *= dev
    return values.size, float(total), float(dev.sum())


def pool_moments(batches):
    """(mean, standard error, count) of the values behind ``batch_moments``.

    The mean is the summed sums over the summed counts.  M2 merges exactly
    (Chan, Golub & LeVeque 1979): the batches' M2 plus each count times its
    batch mean's squared deviation from the mean.  The standard error is
    sqrt(M2 / (n - 1) / n), whatever thread ran each batch.  It is 0.0 at
    n = 1, and 0.0 when M2 is within rounding of zero: a per-replicate
    standard deviation of at most ``ROUNDING_RTOL`` times the mean is the
    rounding of values whose cost is deterministic, not a sampling error.
    """
    counts, sums, m2s = np.array(batches, dtype=float).T
    n = counts.sum()
    mean = sums.sum() / n
    deviations = sums / np.maximum(counts, 1) - mean
    m2 = m2s.sum() + (counts * deviations * deviations).sum()
    if n > 1 and m2 > (n - 1) * (ROUNDING_RTOL * mean) ** 2:
        stderr = math.sqrt(m2 / (n - 1) / n)
    else:
        stderr = 0.0
    return float(mean), stderr, int(n)


def sample_correlated_pair(grid, rho, seed, m_sub=DEFAULT_SUBSTEPS,
                           n_replicates=None, workspace=None):
    """Draw correlated increment blocks, deterministic in (seed, grid, rho).

    ``seed = (s, i)`` gives replicate ``i`` of master ``s``; with
    ``n_replicates`` the block holds replicates ``[i, i + n_replicates)``
    stacked on a leading axis, each identical to its own single draw.
    A replicate's words are ``dW`` then ``dW_perp``, (N, m_sub) each.
    With a ``workspace`` the block's arrays live in its buffers
    ``uniforms``, ``dW`` and ``dW_bar``, until the next draw into them.
    """
    if m_sub < 1:
        raise ConfigError("m_sub must be >= 1")
    count = 1 if n_replicates is None else int(n_replicates)
    if count < 1:
        raise ConfigError("n_replicates must be >= 1")
    ws = Workspace() if workspace is None else workspace
    n = grid.n_steps
    width = 2 * n * m_sub
    scale = math.sqrt(grid.h / m_sub)
    rho_k = np.asarray(rho.value_at(grid.times()[:-1]), dtype=float)[:, None, None]
    perp = np.sqrt(1.0 - rho_k**2)
    # at |rho| = 1 the perpendicular half adds exact zeros and is not read
    halves = 2 if perp.any() else 1
    u = _replicate_uniforms(seed, width, count, n_used=halves * n * m_sub,
                            out=ws.array("uniforms", (count, _stride(width))))
    # step-major (halves, N, m_sub, count): the first conversion reads transposed
    u = u.reshape(count, halves, n, m_sub).transpose(1, 2, 3, 0)
    dw = _uniforms_to_normals(u[0], out=ws.array("dW", (n, m_sub, count)))
    dw *= scale
    if np.all(rho_k == 1.0):
        dw_bar = dw  # 1.0 * dW
    else:
        dw_bar = np.multiply(rho_k, dw, out=ws.array("dW_bar", (n, m_sub, count)))
        if halves == 2:
            z = _uniforms_to_normals(u[1], out=u[1])
            z *= scale
            z *= perp
            dw_bar += z

    def replicate_major(a):
        a = a.transpose(2, 0, 1)
        return a if n_replicates is not None else a[0]
    block_dw = replicate_major(dw)
    block_dw_bar = block_dw if dw_bar is dw else replicate_major(dw_bar)
    return IncrementBlock(dW=block_dw, dW_bar=block_dw_bar)


def truncate_increments(substeps, barrier):
    """Per-step stopped increments from substep noise.

    ``substeps`` has shape (..., m_sub) holding the substep increments of one
    step; the running sum is clamped to the crossed barrier at the first
    substep where it leaves (-barrier, barrier).  Returns (values, exited).
    With one substep and a positive barrier the stopped sum is a clamp,
    which gives the same bytes (at +-barrier, NaN and -0.0 too).
    """
    substeps = np.asarray(substeps, dtype=float)
    if substeps.shape[-1] == 1:
        x = substeps[..., 0]
        return np.clip(x, -barrier, barrier), np.abs(x) >= barrier
    cs = np.cumsum(substeps, axis=-1)
    hit = np.abs(cs) >= barrier
    exited = hit.any(axis=-1)
    first = np.argmax(hit, axis=-1)
    at_hit = np.take_along_axis(cs, first[..., None], axis=-1)[..., 0]
    values = np.where(exited, barrier * np.sign(at_hit), cs[..., -1])
    return values, exited


def _normal_upper_tail(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def exit_probability_bounds(h, barrier):
    """Reflection-principle sandwich for the two-sided exit probability.

    Lower bound: P[|W_h| >= A] = 2 * Phibar(A / sqrt(h)) (one-sided
    reflection); upper bound: 4 * Phibar(A / sqrt(h)), clamped to 1.
    """
    if barrier <= 0:
        raise ConfigError("barrier must be positive")
    a = barrier / math.sqrt(h)
    tail = _normal_upper_tail(a)
    return 2.0 * tail, min(1.0, 4.0 * tail)


@dataclass(frozen=True)
class FourthMomentEstimate:
    estimate: float
    stderr: float
    n_exits: int
    analytic_bound: float
    within_bound: bool


def fourth_moment_truncation_error(h, trunc_k, n_samples, seed=0):
    """Monte Carlo estimate of E|dW - dW^h|^4 for the increment stopped on
    ``DEFAULT_SUBSTEPS`` substeps.

    The error is nonzero only on exit events, so for large K the estimate is
    exactly zero, with ``n_exits`` 0; the analytic bound 6 h^2 h^{K^2/2}
    from the truncation lemma is reported alongside.
    """
    barrier = truncation_level(h, trunc_k)

    def run_batch(lo, hi, _ws):
        sub = (replicate_normals((seed, lo), DEFAULT_SUBSTEPS, hi - lo)
               * math.sqrt(h / DEFAULT_SUBSTEPS))
        values, exited = truncate_increments(sub, barrier)
        # full increment via the same sequential accumulation as the
        # truncation, so unexited samples contribute exactly zero
        full = np.cumsum(sub, axis=1)[:, -1]
        return batch_moments((full - values) ** 4), int(exited.sum())

    moments, exits = zip(*map_batches(run_batch, n_samples))
    estimate, stderr, _ = pool_moments(moments)
    n_exits = sum(exits)
    bound = 6.0 * h**2 * h ** (trunc_k**2 / 2.0)
    within = estimate <= bound * (1.0 + 5.0 * (stderr / bound if bound > 0 else 0.0))
    return FourthMomentEstimate(estimate=estimate, stderr=stderr, n_exits=n_exits,
                                analytic_bound=bound, within_bound=within)
