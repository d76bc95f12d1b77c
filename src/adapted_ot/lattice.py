"""Quantize the discrete-time truncated scheme into a finite Markov lattice
suitable for exact dynamic programming, and certify first-order stochastic
dominance monotonicity of its kernels.

The increment surrogate is the clipped Gaussian clamp(Z sqrt(h), -A, A),
quantized by conditional means on m equal-probability cells.  Clipping and
the exact stopped increment differ only on the (rare) exit event, and the
clipped law keeps the two properties the dominance argument needs: |delta|
is bounded by the barrier, and one common increment drives both chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

from .model import (ConfigError, KernelRows, MarkovLattice, TimeGrid,
                    positive_int)
from .noise import truncation_level


_STANDARD_NORMAL = NormalDist()


def _pdf_at_quantile(u):
    """phi(Phi^-1(u)), the standard normal density at the u-quantile: 0 at
    u in {0, 1}, where the quantile is infinite."""
    if u <= 0.0 or u >= 1.0:
        return 0.0
    z = _STANDARD_NORMAL.inv_cdf(u)
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def quantize_increment(h, barrier, m):
    """Conditional means of clamp(Z sqrt(h), -barrier, barrier) on its m
    quantile cells, each of weight 1/m, sorted; ``barrier = inf`` clamps
    nothing.  The quantiles are ``NormalDist.inv_cdf`` (Wichura's AS241)."""
    if positive_int("m", m) < 2:
        raise ConfigError("need at least 2 quantization atoms")
    # NaN fails both comparisons
    if not (0.0 < h < math.inf and barrier > 0.0):
        raise ConfigError("need a finite positive step and a positive barrier")
    sd = math.sqrt(h)
    # mass clamped at the lower barrier (erfc keeps its relative accuracy
    # in the tail, where 1 + erf(x) cancels)
    u_lo = 0.5 * math.erfc(barrier / (sd * math.sqrt(2.0)))
    u_hi = 1.0 - u_lo
    atoms = np.empty(m)
    for j in range(m):
        a, b = j / m, (j + 1) / m
        # contribution of the clamped tails plus the interior Gaussian part
        low_len = max(0.0, min(b, u_lo) - a)
        high_len = max(0.0, b - max(a, u_hi))
        a_mid = min(max(a, u_lo), u_hi)
        b_mid = min(max(b, u_lo), u_hi)
        total = 0.0
        if b_mid > a_mid:
            total += sd * (_pdf_at_quantile(a_mid) - _pdf_at_quantile(b_mid))
        if low_len > 0.0:
            total -= barrier * low_len
        if high_len > 0.0:
            total += barrier * high_len
        atoms[j] = m * total
    atoms = 0.5 * (atoms - atoms[::-1])  # enforce exact symmetry (mean 0)
    np.clip(atoms, -barrier, barrier, out=atoms)
    return atoms


def _snap_duplicates(values, masses):
    """Merge sorted values closer than 1e-12 relative to their size.

    Recombining one-step maps produce children that coincide mathematically
    but differ in the last float bits depending on summation order; without
    snapping they would occupy distinct lattice nodes (and break strict
    support ordering after merging).  Returns (values, masses, group index
    per input value).
    """
    gaps = np.diff(values)
    scale = np.maximum(1.0, np.maximum(np.abs(values[:-1]), np.abs(values[1:])))
    groups = np.concatenate([[0], np.cumsum(gaps > 1e-12 * scale)])
    n_groups = int(groups[-1]) + 1
    if n_groups == values.size:
        return values, masses, groups
    mass = np.bincount(groups, weights=masses, minlength=n_groups)
    val = np.bincount(groups, weights=masses * values, minlength=n_groups) / mass
    return val, mass, groups


def quantile_bins(masses, n_bins):
    """Greedy contiguous equal-mass binning: bin index for each sorted atom.

    Produces exactly ``n_bins`` nonempty bins (requires len(masses) >= n_bins);
    contiguity in value order is what preserves dominance under merging.
    """
    masses = np.asarray(masses, dtype=float)
    r = masses.size
    if r < n_bins:
        raise ConfigError("cannot split fewer atoms than bins")
    bins = []
    b_idx = 0
    acc = 0.0
    mass_left = float(masses.sum())
    target = mass_left / n_bins
    for i, mass in enumerate(masses.tolist()):
        bins.append(b_idx)
        acc += mass
        atoms_left = r - i - 1
        bins_left = n_bins - b_idx - 1
        if atoms_left == 0:
            break
        if bins_left > 0 and (acc >= target - 1e-15 or atoms_left == bins_left):
            mass_left -= acc
            b_idx += 1
            acc = 0.0
            target = mass_left / bins_left
    return np.array(bins)


def require_markovian(*specs):
    """Refuse a path-dependent coefficient: a lattice node is a state."""
    if not all(spec.is_markovian for spec in specs):
        raise ConfigError("a lattice needs Markovian coefficients; "
                          "sign_switch reads the path")


def build_lattice(b, sigma, n_steps, m, max_support, trunc_k=4, x0=0.0,
                  return_atom_maps=False):
    """Forward-construct the lattice of the quantized truncated scheme.

    Each stage-(k-1) node is pushed through x -> x + h b(x) + sigma(x) * atom;
    when the raw stage support exceeds ``max_support`` nodes they are merged
    by probability-weighted quantile binning into ``max_support``
    representatives (contiguous in value, so dominance survives; merged node
    values are probability-weighted means, so stage means are exact).

    With ``return_atom_maps`` the (node, atom) -> next-node index arrays and
    the atom weights are also returned; they realize the common-increment
    coupling of two lattices built from one shared quantization.
    """
    if positive_int("max_support", max_support) < m:
        raise ConfigError("max_support must be at least the atom count m")
    if not math.isfinite(x0):
        raise ConfigError(f"x0 must be finite, got {x0!r}")
    require_markovian(b, sigma)
    h = TimeGrid(n_steps).h
    # the barrier formula degenerates at h = 1 (log 1 = 0); a single-step
    # chain uses the untruncated increment
    barrier = truncation_level(h, trunc_k) if n_steps > 1 else np.inf
    atoms = quantize_increment(h, barrier, m)
    weights = np.full(m, 1.0 / m)
    supports = [np.array([float(x0)])]
    kernels = []
    atom_maps = []
    marginal = np.array([1.0])
    for _ in range(n_steps):
        support = supports[-1]
        drift = np.asarray(b.evaluate(support), dtype=float)
        vol = np.asarray(sigma.evaluate(support), dtype=float)
        children = (support[:, None] + h * drift[:, None]
                    + vol[:, None] * atoms[None, :])
        raw_vals, inverse = np.unique(children, return_inverse=True)
        inverse = inverse.reshape(children.shape)
        child_mass = (marginal[:, None] * weights[None, :]).ravel()
        raw_masses = np.bincount(inverse.ravel(), weights=child_mass,
                                 minlength=raw_vals.size)
        raw_vals, raw_masses, groups = _snap_duplicates(raw_vals, raw_masses)
        inverse = groups[inverse]
        if raw_vals.size > max_support:
            bins = quantile_bins(raw_masses, max_support)
            n_next = max_support
            bin_mass = np.bincount(bins, weights=raw_masses, minlength=n_next)
            bin_val = np.bincount(bins, weights=raw_masses * raw_vals,
                                  minlength=n_next) / bin_mass
            next_support = bin_val
            child_bins = bins[inverse]
        else:
            n_next = raw_vals.size
            next_support = raw_vals
            child_bins = inverse
        # a dense kernel for this step only, for the marginal's BLAS bits
        rows = np.zeros((support.size, n_next))
        np.add.at(rows, (np.arange(support.size)[:, None], child_bins),
                  weights)
        supports.append(next_support)
        positive = rows > 0
        kernels.append(KernelRows(positive.sum(axis=1), np.nonzero(positive)[1],
                                  rows[positive]))
        atom_maps.append(child_bins)
        marginal = marginal @ rows
    lattice = MarkovLattice(initial_value=float(x0), supports=tuple(supports),
                            kernels=tuple(kernels))
    if return_atom_maps:
        return lattice, atom_maps, weights
    return lattice


@dataclass(frozen=True)
class FosdCheck:
    """Outcome of the kernel-monotonicity check.

    ``witness`` is the first violating (stage, node index, column index):
    the conditional CDFs of adjacent nodes ``i < i+1`` at that stage cross
    at the given next-support column.
    """

    ok: bool
    witness: Optional[tuple] = None


def check_fosd(lattice):
    """Verify every kernel is increasing in first-order stochastic dominance.

    For each stage and each adjacent support pair x < x', the conditional CDF
    from x' must lie below the one from x (to 1e-10) at every next-support
    point; a lattice not ``value_ordered`` is refused (``ConfigError``).
    The excess F_{x'} - F_x can rise only where F_{x'} jumps, so each pair
    of rows is compared at the upper row's entries only.  A cumulative sum
    over a row's entries has the bits of one over its full dense row, whose
    other terms are exact zeros.
    """
    if not lattice.value_ordered:
        raise ConfigError("check_fosd needs stages strictly increasing in value")
    for k, rows in enumerate(lattice.kernel_rows):
        n_rows, width = rows.index.shape
        # cdf[i, c] is row i's mass on its first c entries
        cdf = np.zeros((n_rows, width + 1))
        np.cumsum(rows.weights, axis=1, out=cdf[:, 1:])
        # entries of row i at or below each index of row i + 1
        below = (rows.index[:-1, None, :] <= rows.index[1:, :, None]).sum(axis=2)
        excess = cdf[1:, 1:] - cdf[np.arange(n_rows - 1)[:, None], below]
        bad = excess > 1e-10
        if bad.any():
            i, slot = np.argwhere(bad)[0]
            return FosdCheck(ok=False,
                             witness=(k, int(i), int(rows.index[i + 1, slot])))
    return FosdCheck(ok=True)


def fosd_sufficient_condition(c0, c1, h, trunc_k):
    """Closed-form margin test 1 - h C0 - A_h C1 > 0 making every one-step
    map increasing (C0, C1 the drift/diffusion Lipschitz constants)."""
    if not (0.0 <= c0 < math.inf and 0.0 <= c1 < math.inf):
        raise ConfigError("Lipschitz constants must be finite and nonnegative")
    return 1.0 - h * c0 - truncation_level(h, trunc_k) * c1 > 0.0
