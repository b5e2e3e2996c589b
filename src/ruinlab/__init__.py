"""ruinlab: ruin-probability numerics for randomly switched investment returns."""

from .distributions import Distribution, MgfEndpoint
from .errors import (ConfigError, DistributionError, EstimationError,
                     HypothesisViolation, NumericsWarning, RuinlabError)
from .model import ModelConfig, PremiumSpec, RegimeSpec, RngStreams
from .theta import ThetaLaw, zeta_regime_law
from .lundberg import (HLaw, LundbergReport, TangentGeometry, EndpointVerdict,
                       lundberg_report, phi_nu_analytic, phi_nu_piecewise,
                       q_plus_compute, sample_nu, solve_beta,
                       classify_endpoint, u_vector)
from .perpetuity import (GoldieEstimate, PerpetuityBatch, goldie_constant,
                         ks_fixed_point, model_pair_sampler, qbar_pair_sampler,
                         sample_R_values, sample_Rbar_values,
                         sample_sup_values)
from .ruin import (BoundsCheck, ClassicalRuin, RuinEstimate, TailFit,
                   bounds_check, classical_psi, estimate_psi,
                   estimate_psi_grid, fit_tail, rw_max_diagnostic)
from .config_schema import ExperimentConfig, load_experiment, parse_experiment

__version__ = "0.1.0"
