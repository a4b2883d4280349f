"""Numerical toolkit for the best-choice problem on the sample minimum.

Exact finite-n backward-induction solvers with threshold extraction and
jump/drift decomposition, closed-form constants of the Poisson limits via
root finding and special functions, and a seeded Monte Carlo harness that
cross-validates the formulas.
"""

from .models import (
    Decomposition,
    DomainError,
    InvalidPolicyError,
    ObservationModel,
    PrecisionError,
    ResourceLimitError,
    RootReport,
    StateRangeError,
    StopRuleError,
    ThresholdPolicy,
    UnsupportedModelError,
    ValueTables,
)

__version__ = "0.1.0"

__all__ = [
    "Decomposition",
    "DomainError",
    "InvalidPolicyError",
    "ObservationModel",
    "PrecisionError",
    "ResourceLimitError",
    "RootReport",
    "StateRangeError",
    "StopRuleError",
    "ThresholdPolicy",
    "UnsupportedModelError",
    "ValueTables",
    "__version__",
]
