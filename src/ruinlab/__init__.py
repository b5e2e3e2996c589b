"""ruinlab: ruin-probability numerics for randomly switched investment returns.

``import ruinlab`` loads numpy alone.  The names re-exported from
``ruinlab.lundberg``, whose root finder and quadrature need scipy, resolve
on first use: HLaw, LundbergReport, TangentGeometry, EndpointVerdict,
lundberg_report, phi_nu_analytic, phi_nu_piecewise, q_plus_compute,
sample_nu, classify_endpoint and u_vector.
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

__version__ = "0.1.0"

_LUNDBERG_NAMES = ("HLaw", "LundbergReport", "TangentGeometry",
                   "EndpointVerdict", "lundberg_report", "phi_nu_analytic",
                   "phi_nu_piecewise", "q_plus_compute", "sample_nu",
                   "classify_endpoint", "u_vector")


def __getattr__(name):
    if name in _LUNDBERG_NAMES:
        from . import lundberg
        return getattr(lundberg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LUNDBERG_NAMES})
