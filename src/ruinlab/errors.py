"""Exception types shared across the package."""


class RuinlabError(Exception):
    """Base class for all package errors."""


class DistributionError(RuinlabError, ValueError):
    """Invalid distribution parameters or an unsupported operation."""


class HypothesisViolation(RuinlabError):
    """A standing model assumption fails for the supplied configuration.

    ``condition`` is a stable machine-readable tag naming the violated
    hypothesis:

    * ``"safety_loading"``        : mean claim outflow >= mean premium inflow
                                    in the no-investment model.
    * ``"mean_drift_positive"``   : the mean log-return of the investment
                                    account over one inter-claim interval is
                                    not strictly positive, or there is no
                                    investment (every multiplier is 1).
    * ``"interarrival_endpoint"`` : the inter-arrival law does not have a
                                    finite MGF endpoint with divergent MGF
                                    there, as the tangent-geometry analysis
                                    requires.
    * ``"decay_exponent"``        : the drift is positive but phi_nu stays
                                    at or below 1 up to its endpoint, so no
                                    decay exponent beta exists.
    """

    def __init__(self, condition: str, message: str):
        self.condition = condition
        super().__init__(message)

    def payload(self) -> dict:
        """Machine-readable form used by the CLI error channel."""
        return {"error": "hypothesis_violation", "condition": self.condition,
                "message": str(self)}


class EstimationError(RuinlabError):
    """A Monte Carlo estimator cannot produce a meaningful value."""


class ConfigError(RuinlabError):
    """Experiment configuration file is malformed."""

    def __init__(self, message: str, field: str = ""):
        self.field = field
        super().__init__(message if not field else f"{field}: {message}")


class NumericsWarning(UserWarning):
    """A numeric routine hit its node cap and returned an approximate value."""
