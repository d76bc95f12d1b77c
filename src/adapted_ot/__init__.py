"""Adapted (bi-causal) Wasserstein distances between laws of one-dimensional
SDEs: truncated-increment discretization, stagewise quantile coupling,
bi-causal dynamic programming on finite Markov lattices, and Monte Carlo
estimation of the synchronous-coupling cost."""

from .model import (AdaptedOTError, CoefficientSpec, ConfigError,
                    DiscretePathMeasure, DivergenceError, ExtrapolationError,
                    GrowthBounds, MarkovLattice, NotMarkovianError, SamplePath,
                    TimeGrid, affine, constant, eval_coefficient,
                    format_coefficient, growth_bounds, ou, parse_coefficient,
                    sign_switch, table)
from .noise import (IncrementBlock, RhoControl, constant_rho,
                    exit_probability_bounds, fourth_moment_truncation_error,
                    replicate_normals, rho_table, sample_correlated_pair,
                    sample_truncated_increment, truncation_level)
from .sde import (DriftRemovingTransform, euler_maruyama, monotone_em,
                  transformed_monotone_em, zvonkin_transform)
from .lattice import (FosdCheck, IncrementQuantization, build_lattice,
                      check_fosd, fosd_sufficient_condition, quantize_increment)
from .transport import (BicausalSolution, CoupledChain, MetricSuiteResult,
                        TransportPlan, bicausal_dp, causal_lp, coupled_cost,
                        kr_coupling, metric_suite, monotone_rearrangement,
                        quantile, synchronous_product_chain, transportation_lp,
                        tree_bicausal_dp)
from .estimate import (MCResult, closed_form_cost, convergence_study,
                       counterexample_nonmarkov, em_expected_cost, rho_scan,
                       stability_study, sync_distance_mc)
from .presets import PRESETS, get_preset

__version__ = "0.5.0"
