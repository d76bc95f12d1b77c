"""Adapted (bi-causal) Wasserstein distances between laws of one-dimensional
SDEs: truncated-increment discretization, stagewise quantile coupling,
bi-causal dynamic programming on finite Markov lattices, and Monte Carlo
estimation of the synchronous-coupling cost.

The names below are the public surface: each is read by the command line,
the acceptance suite or the benchmark, or is kept for the tests: the
references ``eval_coefficient`` and ``synchronous_product_chain``."""

from .model import (AdaptedOTError, CoefficientSpec, ConfigError,
                    DiscretePathMeasure, DivergenceError, MarkovLattice,
                    SamplePath, TimeGrid, affine, constant, eval_coefficient,
                    lipschitz_constant, ou, parse_coefficient, sign_switch,
                    table)
from .noise import (IncrementBlock, constant_rho, exit_probability_bounds,
                    fourth_moment_truncation_error, replicate_normals,
                    sample_correlated_pair, truncation_level)
from .sde import (DriftRemovingTransform, euler_maruyama, monotone_em,
                  transformed_monotone_em, zvonkin_transform)
from .lattice import (FosdCheck, build_lattice, check_fosd,
                      fosd_sufficient_condition, quantize_increment)
from .transport import (BicausalSolution, CoupledChain, MetricSuiteResult,
                        bicausal_dp, causal_lp, coupled_cost, kr_coupling,
                        metric_suite, synchronous_product_chain,
                        tree_bicausal_dp, tree_lattice)
from .estimate import (MCResult, closed_form_cost, convergence_study,
                       counterexample_nonmarkov, em_expected_cost, rho_scan,
                       stability_study, sync_distance_mc)
from .presets import PRESETS, get_preset

__version__ = "0.8.0"
