"""The three benchmark workloads.

Each workload draws its inputs from the workload seed when it is built
(that is part of the measured set-up), then runs a fixed list of
operations through the public library API. Every operation's output is
checked, reduced to a ``values`` record that must repeat byte for byte,
and, in the traced run, reduced to exact counts of the work it did.

The library is called through its submodules (``transport.bicausal_dp``,
not ``adapted_ot.bicausal_dp``) so that the traced run's wrappers, which are
installed on those module attributes, see every call.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from adapted_ot import (acceptance, estimate, lattice, model, noise, presets,
                        sde, transport)

# Mixed 2x2 differences of an inner block at most this far above zero (relative
# to the block's largest entry) still count as Monge: the entries are sums of
# rounded powers, so an exactly flat direction reads as +-1e-16 or so.
MONGE_RTOL = 1e-12


class Workload:
    """A seeded, fixed list of operations on one layer mix.

    Subclasses set ``name``, ``threads`` and ``ops`` and implement ``run``
    (the timed call into the library), ``check`` (raise ``CheckFailed``
    when the output is wrong), ``values`` (the output as JSON-ready numbers)
    and ``counts`` (exact work counts from the output; ``calls`` maps each
    traced span name to its number of calls during the operation).
    """

    name = ""
    threads = 1
    ops = ()
    trace_targets = ()

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out):
        raise NotImplementedError

    def values(self, op, out):
        raise NotImplementedError

    def counts(self, op, out, calls):
        return {}


class CheckFailed(Exception):
    """An operation finished but its output failed the workload's check."""


def dp_block_counts(solution):
    """Inner-solve count, cell count and Monge-block count of a DP solution.

    Each stage-k inner block ``w_k |x' - y'|^p + V_{k+1}(x', y')`` is rebuilt
    on the product of the supports stored in the policy, with ``V_{k+1}`` read
    back from the stage-(k+1) inner values; a block is Monge when every mixed
    2x2 difference is <= 0.
    """
    n = len(solution.policy)
    solves = cells = monge = 0
    for k, stage in enumerate(solution.policy):
        xv = solution.values_x[k + 1]
        yv = solution.values_y[k + 1]
        full = solution.stage_weights[k] * np.abs(xv[:, None] - yv[None, :]) ** solution.p
        if k + 1 < n:
            nxt = solution.policy[k + 1]
            v_next = np.empty((xv.size, yv.size))
            for (i, j), entry in nxt.items():
                v_next[i, j] = entry[3]
            full = full + v_next
        for si, sj, _, _ in stage.values():
            solves += 1
            cells += si.size * sj.size
            if si.size < 2 or sj.size < 2:
                monge += 1
                continue
            block = full[np.ix_(si, sj)]
            mixed = block[:-1, :-1] + block[1:, 1:] - block[:-1, 1:] - block[1:, :-1]
            tol = MONGE_RTOL * max(1.0, float(np.abs(block).max()))
            monge += bool(np.all(mixed <= tol))
    return {"transport.dp_inner_solves": solves,
            "transport.dp_inner_cells": cells,
            "transport.monge_blocks": monge}


class LatticeAW(Workload):
    """The ``aw-distance`` pipeline on two seeded Markov lattices per op."""

    name = "lattice-aw"

    def __init__(self, seed, sizes=((16, 1), (16, 2), (32, 2)), m=5,
                 max_support=40):
        rng = np.random.default_rng(seed)
        names = sorted(presets.PRESETS)
        self.m = m
        self.max_support = max_support
        self.ops = []
        # the first op takes a preset, the others certified random pairs, so
        # every seed gives the same mix of pair kinds
        for index, (n_steps, p) in enumerate(sizes):
            if index == 0:
                label = names[int(rng.integers(0, len(names)))]
                coeffs = presets.get_preset(label)
            else:
                label = "random"
                coeffs = (acceptance.random_lipschitz_pair(rng, 1.0 / n_steps)
                          + acceptance.random_lipschitz_pair(rng, 1.0 / n_steps))
            self.ops.append({"label": label, "coeffs": coeffs,
                             "n_steps": n_steps, "p": p})
        self.trace_targets = (
            (lattice, "build_lattice", "lattice.build"),
            (lattice, "check_fosd", "lattice.fosd"),
            (model.MarkovLattice, "to_json", "model.json"),
            (model.MarkovLattice, "from_json", "model.json"),
            (transport, "bicausal_dp", "transport.dp"),
            (transport.BicausalSolution, "validate", "transport.dp_validate"),
            (transport, "kr_coupling", "transport.kr_build"),
            (transport, "coupled_cost", "transport.kr_cost"),
        )

    def run(self, op):
        b_x, s_x, b_y, s_y = op["coeffs"]
        n, p = op["n_steps"], op["p"]
        lats = [lattice.build_lattice(b, s, n, self.m, self.max_support)
                for b, s in ((b_x, s_x), (b_y, s_y))]
        lx, ly = [model.MarkovLattice.from_json(lat.to_json()) for lat in lats]
        fosd = (lattice.check_fosd(lx).ok, lattice.check_fosd(ly).ok)
        solution = transport.bicausal_dp(lx, ly, p=p)
        solution.validate()
        kr = transport.coupled_cost(transport.kr_coupling(lx, ly), p=p)
        return {"lattices": (lx, ly), "fosd": fosd, "solution": solution, "kr": kr}

    def check(self, op, out):
        if not all(out["fosd"]):
            raise CheckFailed(f"FOSD certificate failed: {out['fosd']}")
        gap = abs(out["solution"].value - out["kr"])
        if not gap <= 1e-9:
            raise CheckFailed(f"|DP - KR| = {gap:.3e} > 1e-9")

    def values(self, op, out):
        return {"label": op["label"], "n_steps": op["n_steps"], "p": op["p"],
                "dp": out["solution"].value, "kr": out["kr"]}

    def counts(self, op, out, calls):
        counts = dp_block_counts(out["solution"])
        counts["lattice.nodes"] = sum(s.size for lat in out["lattices"]
                                      for s in lat.supports)
        counts["lattice.kernel_nnz"] = sum(int(np.count_nonzero(t))
                                           for lat in out["lattices"]
                                           for t in lat.transitions)
        return counts


def _linear_drift(spec):
    """(intercept, slope) of a drift that is affine in the state."""
    if spec.kind == "constant":
        return spec.value, 0.0
    if spec.kind == "affine":
        return spec.intercept, spec.slope
    if spec.kind == "ou":
        return 0.0, -spec.theta
    raise ValueError(f"drift kind {spec.kind!r} is not affine")


def em_sync_expectation(b_x, s_x, b_y, s_y, n_steps, x0=0.0):
    """Exact expectation of the quadratic synchronous-coupling estimator for
    the Euler-Maruyama scheme on ``n_steps`` steps.

    For affine drifts and constant volatilities the scheme pair
    Z = (X, Y) is linear Gaussian, Z' = A Z + c + g dW, so its first and
    second moments follow a short recursion. The estimator integrates the
    piecewise-linear interpolant of D = X - Y exactly, h (D_k^2 + D_k D_k+1 +
    D_k+1^2) / 3 per step, plus the bridge term (s_x - s_y)^2 h^2 / 6.
    """
    if s_x.kind != "constant" or s_y.kind != "constant":
        raise ValueError("volatilities must be constant")
    h = 1.0 / n_steps
    (ax, bx), (ay, by) = _linear_drift(b_x), _linear_drift(b_y)
    a = np.diag([1.0 + h * bx, 1.0 + h * by])
    c = h * np.array([ax, ay])
    g = np.array([s_x.value, s_y.value])
    e = np.array([1.0, -1.0])
    mean = np.array([x0, x0], dtype=float)
    second = np.outer(mean, mean)
    total = 0.0
    for _ in range(n_steps):
        cross = second @ a.T + np.outer(mean, c)  # E[Z_k Z_k+1^T]
        mc = np.outer(a @ mean, c)
        second_next = a @ second @ a.T + mc + mc.T + np.outer(c, c) + h * np.outer(g, g)
        total += h * (e @ second @ e + e @ cross @ e + e @ second_next @ e) / 3.0
        total += (g[0] - g[1]) ** 2 * h * h / 6.0
        mean = a @ mean + c
        second = second_next
    return float(total)


class MCSync(Workload):
    """``sync_distance_mc`` with the ``em`` scheme, one op per preset pair."""

    name = "mc-sync"

    def __init__(self, seed, pairs=("vol-gap", "ou-vol"), n_steps=64,
                 n_samples=100_000, threads=None):
        rng = np.random.default_rng(seed)
        self.threads = threads or min(2, len(os.sched_getaffinity(0)))
        self.grid = model.TimeGrid(n_steps)
        self.n_samples = n_samples
        self.ops = []
        for label in pairs:
            coeffs = presets.get_preset(label)
            self.ops.append({
                "label": label, "coeffs": coeffs,
                "seed": int(rng.integers(0, 2**31)),
                "exact": em_sync_expectation(*coeffs, n_steps),
                "closed_form": estimate.closed_form_cost(*coeffs, p=2)})
        self.trace_targets = (
            (estimate, "sync_distance_mc", "estimate.mc"),
            (estimate, "sample_correlated_pair", "noise.rng"),
        )

    def run(self, op):
        return estimate.sync_distance_mc(*op["coeffs"], self.grid, 2,
                                         self.n_samples, seed=op["seed"],
                                         scheme="em", threads=self.threads)

    def check(self, op, out):
        z = abs(out.estimate - op["exact"]) / out.stderr
        if not z <= 4.0:
            raise CheckFailed(f"{op['label']}: estimate {out.estimate!r} is "
                              f"{z:.2f} stderr from the scheme's exact "
                              f"expectation {op['exact']!r}")

    def values(self, op, out):
        return {"label": op["label"], "seed": op["seed"],
                "estimate": out.estimate, "stderr": out.stderr,
                "n_samples": out.n_samples, "n_diverged": out.n_diverged,
                "exact": op["exact"], "closed_form": op["closed_form"],
                "z_exact": (out.estimate - op["exact"]) / out.stderr,
                "z_closed_form": (out.estimate - op["closed_form"]) / out.stderr}

    def counts(self, op, out, calls):
        return {"estimate.replicates": out.n_samples,
                "estimate.diverged": out.n_diverged}


class SchemePaths(Workload):
    """What ``adapted-ot simulate`` does: one noise block per replicate, then
    the three scalar schemes on it, over the distinct preset marginals."""

    name = "scheme-paths"

    # The X marginal of drift-gap (constant drift 1, volatility 1) is left
    # out: at 64 steps ``transformed_monotone_em`` leaves its table on about
    # 3 paths in 1,000 and raises ConfigError (see README.md).
    EXCLUDED = ("drift-gap:x",)

    def __init__(self, seed, n_replicates=500, n_steps=64, m_sub=16, trunc_k=4):
        self.seed = seed
        self.grid = model.TimeGrid(n_steps)
        self.m_sub = m_sub
        self.trunc_k = trunc_k
        self.barrier = noise.truncation_level(self.grid.h, trunc_k)
        self.rho = noise.constant_rho(1.0)
        marginals = {}  # (drift, vol) -> its first label by preset name
        for label in sorted(presets.PRESETS):
            b_x, s_x, b_y, s_y = presets.PRESETS[label]
            for side, pair in (("x", (b_x, s_x)), ("y", (b_y, s_y))):
                if f"{label}:{side}" not in self.EXCLUDED:
                    marginals.setdefault(pair, f"{label}:{side}")
        self.coeffs = [(label, b, s, sde.zvonkin_transform(b, s, 0.0))
                       for (b, s), label in marginals.items()]
        self.ops = [{"replicate": r, "coeff": r % len(self.coeffs)}
                    for r in range(n_replicates)]
        self.trace_targets = (
            (noise, "sample_correlated_pair", "noise.rng"),
            (sde, "euler_maruyama", "sde.scheme"),
            (sde, "monotone_em", "sde.scheme"),
            (sde, "transformed_monotone_em", "sde.scheme"),
        )

    def run(self, op):
        _, b, s, transform = self.coeffs[op["coeff"]]
        block = noise.sample_correlated_pair(self.grid, self.rho,
                                             (self.seed, op["replicate"]),
                                             m_sub=self.m_sub)
        return (sde.euler_maruyama(b, s, self.grid, block),
                sde.monotone_em(b, s, self.grid, self.trunc_k, block),
                sde.transformed_monotone_em(b, s, self.grid, self.trunc_k, block,
                                            transform=transform))

    def check(self, op, out):
        if not all(np.isfinite(path.values).all() for path in out):
            raise CheckFailed(f"replicate {op['replicate']}: non-finite path")
        _, b, s, _ = self.coeffs[op["coeff"]]
        x = out[1].values
        h = self.grid.h
        deltas = (x[1:] - x[:-1] - h * b.evaluate(x[:-1])) / s.evaluate(x[:-1])
        worst = float(np.abs(deltas).max())
        if not worst <= self.barrier * (1 + 1e-9):
            raise CheckFailed(f"replicate {op['replicate']}: monotone-em "
                              f"increment {worst!r} beyond the barrier "
                              f"{self.barrier!r}")

    def values(self, op, out):
        digest = hashlib.sha256()
        for path in out:
            digest.update(np.ascontiguousarray(path.values, dtype="<f8").tobytes())
        return {"replicate": op["replicate"],
                "marginal": self.coeffs[op["coeff"]][0],
                "paths_sha256": digest.hexdigest()[:16]}

    def counts(self, op, out, calls):
        return {"sde.paths": len(out)}


WORKLOADS = {cls.name: cls for cls in (LatticeAW, MCSync, SchemePaths)}
