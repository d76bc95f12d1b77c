"""The acceptance suite: one function per criterion, each runs at its stated
tolerance and reports a single pass/fail line.

``quick`` mode reduces sample and case counts for the CLI self-test; of the
tolerances only criterion 10's KS bound widens (0.03 against 0.01), the
stderr-scaled ones widening with the smaller samples by themselves.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .estimate import (closed_form_cost, convergence_study,
                       counterexample_nonmarkov, em_expected_cost, rho_scan,
                       stability_study, sync_distance_mc)
from .lattice import build_lattice, check_fosd, fosd_sufficient_condition
from .model import (DiscretePathMeasure, MarkovLattice, TimeGrid, affine,
                    constant, lipschitz_constant, ou, table)
from .noise import (_split_seed, exit_probability_bounds,
                    fourth_moment_truncation_error, map_batches,
                    replicate_normals, truncate_increments, truncation_level)
from .presets import PRESETS, get_preset, mollified_abs_ladder
from .sde import _propagate, _step_increments, zvonkin_transform
from .transport import (bicausal_dp, causal_lp, coupled_cost, kr_coupling,
                        metric_suite, tree_bicausal_dp)

DEFAULT_SEED = 7


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} [criterion {self.index:2d}] {self.name}: {self.detail}"


# -- shared random generators --------------------------------------------------

def random_lipschitz_pair(rng, h, trunc_k=4):
    """A drift/volatility pair whose Lipschitz constants certify the
    one-step monotonicity margin at step size h."""
    while True:
        kind = rng.integers(0, 3)
        if kind == 0:
            b = affine(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        elif kind == 1:
            b = ou(float(rng.uniform(0.2, 1.0)))
        else:
            b = constant(float(rng.uniform(-1, 1)))
        if rng.integers(0, 2) == 0:
            s = constant(float(rng.uniform(0.3, 1.5)), role="diffusion")
        else:
            slope = float(rng.uniform(-0.15, 0.15))
            base = float(rng.uniform(0.5, 1.5))
            knots = np.linspace(-60, 60, 13)
            s = table(knots, np.maximum(base + slope * knots, 0.05),
                      role="diffusion")
        c0 = lipschitz_constant(b)
        c1 = lipschitz_constant(s)
        if fosd_sufficient_condition(c0, c1, h, trunc_k):
            return b, s


def random_tree(rng, n_stages=3, max_branch=3):
    """A random scenario tree as a path measure (<= max_branch children)."""
    paths = [[]]
    for _ in range(n_stages):
        paths = [p + [float(rng.normal())]
                 for p in paths
                 for _ in range(int(rng.integers(1, max_branch + 1)))]
    weights = rng.random(len(paths))
    weights /= weights.sum()
    return DiscretePathMeasure(paths=np.array(paths), weights=weights)


def example_trees(n):
    """The two-trajectory trees of the motivating example at parameter n."""
    mu = DiscretePathMeasure(paths=[[1.0 / n, 1.0], [-1.0 / n, -1.0]],
                             weights=[0.5, 0.5])
    nu = DiscretePathMeasure(paths=[[0.0, 1.0], [0.0, -1.0]],
                             weights=[0.5, 0.5])
    return mu, nu


# -- criteria -------------------------------------------------------------------

def criterion_1_kr_optimality(seed=DEFAULT_SEED, quick=False):
    """Rearrangement cost equals the DP value on dominance-certified pairs."""
    n_pairs = 5 if quick else 20
    rng = np.random.default_rng((seed, 1))
    worst = 0.0
    for _ in range(n_pairs):
        n = int(rng.integers(3, 9))
        b_x, s_x = random_lipschitz_pair(rng, 1.0 / n)
        b_y, s_y = random_lipschitz_pair(rng, 1.0 / n)
        lat_x = build_lattice(b_x, s_x, n, 5, 40)
        lat_y = build_lattice(b_y, s_y, n, 5, 40)
        if not (check_fosd(lat_x).ok and check_fosd(lat_y).ok):
            return CriterionResult(1, "KR optimality", False,
                                   "certified pair failed the dominance check")
        chain = kr_coupling(lat_x, lat_y)
        for p in (1, 2):
            dp = bicausal_dp(lat_x, lat_y, p=p, scaled=True).value
            kr = coupled_cost(chain, p=p, scaled=True)
            worst = max(worst, abs(dp - kr))
    passed = worst <= 1e-9
    return CriterionResult(1, "KR optimality", passed,
                           f"max |DP - KR| = {worst:.2e} over {n_pairs} pairs, "
                           f"p in {{1,2}} (tol 1e-9)")


def criterion_2_dp_vs_lp(seed=DEFAULT_SEED, quick=False):
    """History-expanded DP equals the causality-constrained LP on tiny trees."""
    n_trees = 10 if quick else 50
    rng = np.random.default_rng((seed, 2))
    worst = 0.0
    for _ in range(n_trees):
        stages = int(rng.integers(2, 4))
        mu = random_tree(rng, n_stages=stages)
        nu = random_tree(rng, n_stages=stages)
        lp = causal_lp(mu, nu, p=2, mode="bicausal")
        dp = tree_bicausal_dp(mu, nu, p=2).value
        worst = max(worst, abs(lp - dp))
    passed = worst <= 1e-8
    return CriterionResult(2, "DP vs causality LP", passed,
                           f"max |DP - LP| = {worst:.2e} over {n_trees} trees "
                           f"(tol 1e-8)")


def criterion_3_example_pins(seed=DEFAULT_SEED, quick=False):
    """Exact values on the motivating trees: the adapted value stays bounded
    away from zero (2 + 1/n^2) while the classical value 1/n^2 vanishes."""
    tol = 1e-10
    checks = []
    for n in (2, 4, 8):
        mu, nu = example_trees(n)
        suite = metric_suite(mu, nu, p=2)
        checks.append(abs(suite.w - 1.0 / n**2) <= tol)
        checks.append(abs(suite.aw - (2.0 + 1.0 / n**2)) <= tol)
        checks.append(suite.aw >= 2.0 - tol)
        if n == 2:
            checks.append(abs(suite.aw - 2.25) <= tol)
            checks.append(abs(suite.w - 0.25) <= tol)
    passed = all(checks)
    return CriterionResult(3, "example-tree pins", passed,
                           "AW^2 = 2 + 1/n^2 and W^2 = 1/n^2 exactly for "
                           "n in {2,4,8} (tol 1e-10)")


def criterion_4_metric_ordering(seed=DEFAULT_SEED, quick=False):
    """AW >= SCW >= W on random tiny-tree pairs."""
    n_pairs = 20 if quick else 100
    rng = np.random.default_rng((seed, 4))
    worst = -np.inf
    for _ in range(n_pairs):
        stages = int(rng.integers(2, 4))
        mu = random_tree(rng, n_stages=stages)
        nu = random_tree(rng, n_stages=stages)
        suite = metric_suite(mu, nu, p=2)  # raises beyond 1e-10 internally
        worst = max(worst, suite.scw - suite.aw, suite.w - suite.scw)
    passed = worst <= 1e-10
    return CriterionResult(4, "metric ordering", passed,
                           f"max ordering violation = {worst:.2e} over "
                           f"{n_pairs} pairs (tol 1e-10)")


def criterion_5_scaling_limit(seed=DEFAULT_SEED, quick=False):
    """Scaled DP values decrease toward the closed forms, within 10% at the
    finest lattice, and stay consistent with the rearrangement cost and the
    Monte Carlo synchronous estimate."""
    mc_samples = 10000 if quick else 100000
    cases = [("drift-gap", 1.0 / 3.0), ("vol-gap", 0.125)]
    problems = []
    for name, target in cases:
        b_x, s_x, b_y, s_y = get_preset(name)
        rows = convergence_study(b_x, s_x, b_y, s_y, 2, [2, 4, 8, 16], 5, 40,
                                 mc_samples=mc_samples, seed=seed)
        values = [r.dp_scaled for r in rows]
        rel = [(v - target) / target for v in values]
        if any(v2 >= v1 for v1, v2 in zip(values, values[1:])):
            problems.append(f"{name}: DP values not strictly decreasing {values}")
        if abs(rel[-1]) >= 0.10:
            problems.append(f"{name}: final relative error {rel[-1]:+.3f}")
        if abs(rel[-1]) >= abs(rel[0]):
            problems.append(f"{name}: error did not shrink {rel[0]:+.3f} -> {rel[-1]:+.3f}")
        for r in rows:
            if r.dp_scaled > r.kr_cost + 1e-9:
                problems.append(f"{name}: DP above KR at N={r.n_steps}")
        gap = abs(rows[-1].dp_scaled - rows[-1].mc_sync) / rows[-1].mc_sync
        if gap >= 0.10:
            problems.append(f"{name}: DP vs MC gap {gap:.3f} at N=16")
    passed = not problems
    detail = ("; ".join(problems) if problems else
              "both presets within 10% at N=16 with decreasing error")
    return CriterionResult(5, "scaling limit", passed, detail)


def criterion_6_sync_oracles(seed=DEFAULT_SEED, quick=False):
    """Monte Carlo synchronous costs match the scheme's exact expectation,
    and the scheme converges to the closed-form cost at first order."""
    n_samples = 10000 if quick else 100000
    n_steps = 64
    grid = TimeGrid(n_steps)
    parts = []
    passed = True
    for name in ("drift-gap", "vol-gap", "ou-vol"):
        b_x, s_x, b_y, s_y = get_preset(name)
        target = closed_form_cost(b_x, s_x, b_y, s_y, p=2)
        exact = em_expected_cost(b_x, s_x, b_y, s_y, n_steps)
        finer = em_expected_cost(b_x, s_x, b_y, s_y, 2 * n_steps)
        res = sync_distance_mc(b_x, s_x, b_y, s_y, grid, 2, n_samples, seed=seed)
        gap = abs(res.estimate - exact)
        ok_mc = gap <= 4.0 * res.stderr + 1e-12
        ok_order = abs(finer - target) <= 0.55 * abs(exact - target) + 1e-12
        passed = passed and ok_mc and ok_order
        z = gap / res.stderr if res.stderr > 0 else 0.0
        parts.append(f"{name}: |{res.estimate:.6f} - {exact:.6f}| = "
                     f"{gap:.2e} ({z:.1f} stderr){'' if ok_mc else ' VIOLATION'}, "
                     f"bias {exact - target:.2e} -> {finer - target:.2e} at "
                     f"N={2 * n_steps}{'' if ok_order else ' VIOLATION'}")
    return CriterionResult(6, "synchronous-distance oracles", passed,
                           "; ".join(parts))


def criterion_7_rho_scan(seed=DEFAULT_SEED, quick=False):
    """The correlation scan is minimized at rho = 1; constant families match
    the closed-form cost curve."""
    n_samples = 5000 if quick else 20000
    grid = TimeGrid(32)
    rhos = [-1.0, -0.5, 0.0, 0.5, 0.9, 1.0]
    problems = []
    for name in PRESETS:
        b_x, s_x, b_y, s_y = get_preset(name)
        rows = rho_scan(b_x, s_x, b_y, s_y, grid, 2, rhos, n_samples, seed=seed)
        best = min(rows, key=lambda r: r.estimate)
        if best.rho != 1.0:
            problems.append(f"{name}: minimum at rho={best.rho}")
        if name in ("drift-gap", "vol-gap"):
            c1 = b_x.value
            c2 = b_y.value
            s1 = s_x.value
            s2 = s_y.value
            for r in rows:
                target = (c1 - c2) ** 2 / 3.0 + (s1**2 + s2**2
                                                 - 2.0 * r.rho * s1 * s2) / 2.0
                if abs(r.estimate - target) > 4.0 * r.stderr + 1e-12:
                    problems.append(
                        f"{name}: rho={r.rho} off closed form by "
                        f"{abs(r.estimate - target):.2e} (4se = {4 * r.stderr:.2e})")
    passed = not problems
    detail = ("; ".join(problems) if problems else
              f"minimum at rho=1 for all {len(PRESETS)} presets; constant "
              f"families match the cost curve within 4 stderr")
    return CriterionResult(7, "rho-scan optimality", passed, detail)


def criterion_8_truncation_lemma(seed=DEFAULT_SEED, quick=False):
    """Empirical exit frequency lies in the reflection-principle sandwich at
    K=1; no exit is ever observed at K=4."""
    n_samples = 10**5 if quick else 10**6
    h = 0.1
    barrier = truncation_level(h, 1)
    lower, upper = exit_probability_bounds(h, barrier)

    def count_exits(lo, hi, _ws):
        sub = replicate_normals((seed, 8, lo), 16, hi - lo) * math.sqrt(h / 16)
        return int(truncate_increments(sub, barrier)[1].sum())

    hits = sum(map_batches(count_exits, n_samples))
    freq = hits / n_samples
    margin = 4.0 * math.sqrt(freq * (1.0 - freq) / n_samples)
    ok_sandwich = (lower - margin) <= freq <= (upper + margin)
    fm = fourth_moment_truncation_error(h, 4, n_samples, seed=(seed, 81))
    ok_k4 = fm.n_exits == 0 and fm.estimate == 0.0
    fm1 = fourth_moment_truncation_error(h, 1, n_samples, seed=(seed, 82))
    ok_bound = fm1.within_bound
    passed = ok_sandwich and ok_k4 and ok_bound
    return CriterionResult(
        8, "truncation lemma", passed,
        f"exit freq {freq:.5f} in [{lower:.5f}, {upper:.5f}] +- {margin:.5f}; "
        f"K=4 exits {fm.n_exits}; K=1 fourth moment {fm1.estimate:.2e} <= "
        f"{fm1.analytic_bound:.2e}")


def criterion_9_fosd_certificate(seed=DEFAULT_SEED, quick=False):
    """Dominance certificates under the closed-form margin (no merging), and
    detection of a constructed violating kernel with the right witness."""
    rng = np.random.default_rng((seed, 9))
    problems = []
    for _ in range(3 if quick else 8):
        n = 3
        b, s = random_lipschitz_pair(rng, 1.0 / n)
        lat = build_lattice(b, s, n, 3, 40)  # 3^3 = 27 <= 40: no merging
        if not check_fosd(lat).ok:
            problems.append(f"certified {b.kind}/{s.kind} lattice rejected")
    if not fosd_sufficient_condition(2.0, 1.0, 0.01, 4):
        problems.append("margin test false at (2, 1, h=0.01, K=4)")
    if fosd_sufficient_condition(2.0, 2.0, 0.01, 4):
        problems.append("margin test true at (2, 2, h=0.01, K=4)")
    # crossing kernel: the low node jumps high and the high node jumps low
    bad = MarkovLattice(initial_value=0.0,
                        supports=(np.array([0.0]), np.array([-1.0, 1.0]),
                                  np.array([-2.0, 2.0])),
                        kernels=(([2], [0, 1], [0.5, 0.5]),
                                 ([1, 1], [1, 0], [1.0, 1.0])))
    witness = check_fosd(bad)
    if witness.ok or witness.witness != (1, 0, 0):
        problems.append(f"violation witness wrong: {witness}")
    passed = not problems
    detail = "; ".join(problems) if problems else (
        "certificates hold under the margin; crossing kernel caught at "
        "stage 1, nodes (0,1), column 0")
    return CriterionResult(9, "FOSD certificate", passed, detail)


def criterion_10_zvonkin(seed=DEFAULT_SEED, quick=False):
    """Transformed and direct schemes agree in law at the horizon; the
    transformed coefficient's Lipschitz certificate is exactly 2."""
    from scipy.stats import ks_2samp  # imported here: slow, and used only here
    n_samples = 10000 if quick else 100000
    ks_tol = 0.03 if quick else 0.01
    b = constant(1.0)
    s = constant(1.0, role="diffusion")
    transform = zvonkin_transform(b, s, 0.0)
    cert_ok = transform.lipschitz_certificate == 2.0
    n_steps = 512  # keeps the truncated step inside the transform's range
    h = 1.0 / n_steps
    barrier = truncation_level(h, 4)

    def endpoints(lo, hi, _ws):
        dw = replicate_normals((seed, 10, lo), n_steps, hi - lo) * math.sqrt(h)
        deltas = _step_increments(dw[..., None], barrier)  # (n_steps, hi - lo)
        return (_propagate(b, s, h, deltas, 0.0)[0][-1].copy(),
                _propagate(b, s, h, deltas, 0.0, transform)[0][-1].copy())

    direct, transformed = map(np.concatenate, zip(*map_batches(endpoints, n_samples)))
    ks = float(ks_2samp(direct, transformed).statistic)
    passed = cert_ok and ks < ks_tol
    return CriterionResult(
        10, "drift-removing pipeline", passed,
        f"KS(X_1 direct, transformed) = {ks:.4f} (tol {ks_tol}); "
        f"Lipschitz certificate = {transform.lipschitz_certificate}")


def criterion_11_counterexample(seed=DEFAULT_SEED, quick=False):
    """The anti-synchronous coupling beats the synchronous one for the
    sign-switch drift."""
    n_samples = 10000 if quick else 100000
    level, switch_time = 5.0, 0.1
    sync, asyn = counterexample_nonmarkov(level, switch_time, TimeGrid(50),
                                          n_samples=n_samples, seed=seed)
    sync_target = 4.0 * level**2 * (1.0 - switch_time) ** 3 / 3.0
    ok_sync = abs(sync.estimate - sync_target) <= 4.0 * sync.stderr + 1e-9
    ok_async = abs(asyn.estimate - 2.0) <= 4.0 * asyn.stderr
    margin_se = math.sqrt(sync.stderr**2 + asyn.stderr**2)
    ok_margin = sync.estimate - asyn.estimate > 10.0 * margin_se
    passed = ok_sync and ok_async and ok_margin
    return CriterionResult(
        11, "non-Markovian counterexample", passed,
        f"sync {sync.estimate:.4f} (target {sync_target:.4f}), async "
        f"{asyn.estimate:.4f} (target 2), margin "
        f"{(sync.estimate - asyn.estimate) / margin_se:.0f} stderr")


def criterion_12_stability(seed=DEFAULT_SEED, quick=False):
    """Sync costs under mollified |x| drifts converge to the target cost."""
    n_samples = 5000 if quick else 20000
    b_target, s1, approx = mollified_abs_ladder(6)
    rows, target = stability_study(b_target, s1, approx, constant(0.0), s1,
                                   TimeGrid(32), 2, n_samples, seed=seed)
    gaps = [r.gap for r in rows]
    finest = rows[-1]
    ok_final = finest.gap < 2.0 * finest.stderr
    ok_decrease = gaps[-1] < gaps[0]
    passed = ok_final and ok_decrease
    return CriterionResult(
        12, "coefficient stability", passed,
        f"gaps {['%.1e' % g for g in gaps]}; finest {finest.gap:.2e} < "
        f"2 x stderr {2 * finest.stderr:.2e}: {ok_final}")


ALL_CRITERIA = (
    criterion_1_kr_optimality,
    criterion_2_dp_vs_lp,
    criterion_3_example_pins,
    criterion_4_metric_ordering,
    criterion_5_scaling_limit,
    criterion_6_sync_oracles,
    criterion_7_rho_scan,
    criterion_8_truncation_lemma,
    criterion_9_fosd_certificate,
    criterion_10_zvonkin,
    criterion_11_counterexample,
    criterion_12_stability,
)


def run_all(seed=DEFAULT_SEED, quick=False):
    _split_seed(seed)  # a bad seed raises ConfigError before any criterion runs
    results = []
    for fn in ALL_CRITERIA:
        start = time.time()
        res = fn(seed=seed, quick=quick)
        print(f"{res.line()}  [{time.time() - start:.1f}s]", flush=True)
        results.append(res)
    return results
