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
from typing import Optional

import numpy as np
from scipy.special import ndtr, ndtri

from .model import (ConfigError, MarkovLattice, PROB_TOL, TimeGrid,
                    lipschitz_constant)
from .noise import truncation_level


@dataclass(frozen=True)
class IncrementQuantization:
    """Equal-weight atoms representing one step's truncated increment."""

    atoms: np.ndarray
    weights: np.ndarray
    h: float
    barrier: float

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        if abs(weights.sum() - 1.0) > PROB_TOL:
            raise ConfigError("quantization weights must sum to 1")
        if np.any(np.diff(atoms) < 0):
            raise ConfigError("quantization atoms must be sorted")
        if np.max(np.abs(atoms)) > self.barrier + 1e-12:
            raise ConfigError("quantization atoms must respect the barrier")

    @property
    def m(self):
        return self.atoms.size


def _gauss_pdf(z):
    return np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)


def quantize_increment(h, barrier, m):
    """Conditional means of clamp(Z sqrt(h), -barrier, barrier) on its m
    quantile cells, each carrying weight 1/m."""
    if m < 2:
        raise ConfigError("need at least 2 quantization atoms")
    if barrier <= 0 or h <= 0:
        raise ConfigError("need positive step and barrier")
    sd = math.sqrt(h)
    u_lo = float(ndtr(-barrier / sd))  # mass clamped at the lower barrier
    u_hi = 1.0 - u_lo
    edges = np.arange(m + 1) / m
    atoms = np.empty(m)
    for j in range(m):
        a, b = edges[j], edges[j + 1]
        # contribution of the clamped tails plus the interior Gaussian part
        low_len = max(0.0, min(b, u_lo) - a)
        high_len = max(0.0, b - max(a, u_hi))
        a_mid = min(max(a, u_lo), u_hi)
        b_mid = min(max(b, u_lo), u_hi)
        total = 0.0
        if b_mid > a_mid:
            total += sd * (_gauss_pdf(ndtri(a_mid)) - _gauss_pdf(ndtri(b_mid)))
        if low_len > 0.0:
            total -= barrier * low_len
        if high_len > 0.0:
            total += barrier * high_len
        atoms[j] = m * total
    atoms = 0.5 * (atoms - atoms[::-1])  # enforce exact symmetry (mean 0)
    np.clip(atoms, -barrier, barrier, out=atoms)
    return IncrementQuantization(atoms=atoms, weights=np.full(m, 1.0 / m),
                                 h=h, barrier=barrier)


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
    bins = np.empty(r, dtype=int)
    b_idx = 0
    acc = 0.0
    mass_left = float(masses.sum())
    target = mass_left / n_bins
    for i in range(r):
        bins[i] = b_idx
        acc += masses[i]
        atoms_left = r - i - 1
        bins_left = n_bins - b_idx - 1
        if atoms_left == 0:
            break
        if bins_left > 0 and (acc >= target - 1e-15 or atoms_left == bins_left):
            mass_left -= acc
            b_idx += 1
            acc = 0.0
            target = mass_left / bins_left
    return bins


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
    if max_support < m:
        raise ConfigError("max_support must be at least the atom count m")
    if not math.isfinite(x0):
        raise ConfigError(f"x0 must be finite, got {x0!r}")
    for spec in (b, sigma):
        lipschitz_constant(spec)  # rejects path-dependent kinds
    h = TimeGrid(n_steps).h
    # the barrier formula degenerates at h = 1 (log 1 = 0); a single-step
    # chain uses the untruncated increment
    barrier = truncation_level(h, trunc_k) if n_steps > 1 else np.inf
    quant = quantize_increment(h, barrier, m)
    supports = [np.array([float(x0)])]
    transitions = []
    atom_maps = []
    marginal = np.array([1.0])
    for _ in range(n_steps):
        support = supports[-1]
        drift = np.asarray(b.evaluate(support), dtype=float)
        vol = np.asarray(sigma.evaluate(support), dtype=float)
        children = (support[:, None] + h * drift[:, None]
                    + vol[:, None] * quant.atoms[None, :])
        raw_vals, inverse = np.unique(children, return_inverse=True)
        inverse = inverse.reshape(children.shape)
        child_mass = (marginal[:, None] * quant.weights[None, :]).ravel()
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
        rows = np.zeros((support.size, n_next))
        for a in range(quant.m):
            np.add.at(rows, (np.arange(support.size), child_bins[:, a]),
                      quant.weights[a])
        supports.append(next_support)
        transitions.append(rows)
        atom_maps.append(child_bins)
        marginal = marginal @ rows
    lattice = MarkovLattice(initial_value=float(x0), supports=tuple(supports),
                            transitions=tuple(transitions))
    if return_atom_maps:
        return lattice, atom_maps, quant.weights
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
    point.
    """
    for k, rows in enumerate(lattice.transitions):
        if rows.shape[0] < 2:
            continue
        cdf = np.cumsum(rows, axis=1)
        excess = cdf[1:] - cdf[:-1]
        bad = excess > 1e-10
        if bad.any():
            i, col = np.argwhere(bad)[0]
            return FosdCheck(ok=False, witness=(k, int(i), int(col)))
    return FosdCheck(ok=True)


def fosd_sufficient_condition(c0, c1, h, trunc_k):
    """Closed-form margin test 1 - h C0 - A_h C1 > 0 making every one-step
    map increasing (C0, C1 the drift/diffusion Lipschitz constants)."""
    if c0 < 0 or c1 < 0:
        raise ConfigError("Lipschitz constants must be nonnegative")
    return 1.0 - h * c0 - truncation_level(h, trunc_k) * c1 > 0.0
