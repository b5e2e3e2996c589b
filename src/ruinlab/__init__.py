"""ruinlab: ruin-probability numerics for randomly switched investment returns.

The package needs numpy alone: the analytic route carries its own Brent
root finder (``lundberg``) and Gauss-Kronrod quadrature (``distributions``).
"""

from .distributions import Distribution, MgfEndpoint
from .errors import (ConfigError, DistributionError, EstimationError,
                     HypothesisViolation, NumericsWarning, RuinlabError)
from .model import ModelConfig, PremiumSpec, RegimeSpec, RngStreams
from .theta import ThetaLaw, zeta_regime_law
from .perpetuity import (GoldieEstimate, PerpetuityBatch, goldie_constant,
                         ks_fixed_point, model_pair_sampler, qbar_pair_sampler,
                         sample_R_values, sample_Rbar_values)
from .ruin import (BoundsCheck, ClassicalRuin, RuinEstimate, TailFit,
                   bounds_check, classical_psi, estimate_psi_grid,
                   fit_tail, rw_max_diagnostic)
from .config_schema import ExperimentConfig, load_experiment, parse_experiment
from .lundberg import (EndpointVerdict, HLaw, LundbergReport, TangentGeometry,
                       classify_endpoint, lundberg_report, phi_nu_analytic,
                       phi_nu_piecewise, q_plus_compute, sample_nu, u_vector)

__version__ = "0.1.0"
