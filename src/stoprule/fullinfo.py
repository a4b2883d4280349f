"""Closed forms for the iid uniform-[0,1] minimum game.

The optimal rule stops at the first record below a step-dependent threshold.
Each threshold solves a one-dimensional root equation that depends only on the
number of remaining observations, so roots are cached by horizon distance.
The module also evaluates the success functional for arbitrary monotone
thresholds (split into jump and drift parts), Sakaguchi's value formula, the
tie probability of discrete iid models, and the randomized tie-breaking
transform that maps an iid sample with atoms to an iid uniform one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from .models import (
    IID_UNIFORM01,
    RECTANGULAR,
    Decomposition,
    DomainError,
    InvalidPolicyError,
    ObservationModel,
    ThresholdPolicy,
    UnsupportedModelError,
    check_step_cap,
)

__all__ = [
    "gm_optimal_thresholds",
    "gm_success",
    "sakaguchi_value",
    "tie_probability",
    "tie_break_transform",
]


def _threshold_equation(m: int, x: float) -> float:
    """sum_{i=1}^m ((1-x)^{-i} - 1)/i - 1; the step threshold with m
    observations still to come is its root in (0, 1)."""
    lnq = math.log1p(-x)
    i = np.arange(1, m + 1, dtype=float)
    return float(np.sum(np.expm1(-i * lnq) / i)) - 1.0


# Roots cached by horizon distance m; index 0 unused.  The brackets shrink
# with m (the root sequence is strictly decreasing), so evaluations never
# leave the overflow-safe region.
_ROOTS: list[float] = [math.nan, 0.5]


def _threshold_roots(m_max: int) -> np.ndarray:
    while len(_ROOTS) <= m_max:
        m = len(_ROOTS)
        root = optimize.brentq(
            lambda x: _threshold_equation(m, x),
            1e-17, _ROOTS[m - 1],
            xtol=1e-16, rtol=4 * np.finfo(float).eps, maxiter=200,
        )
        _ROOTS.append(float(root))
    return np.asarray(_ROOTS[: m_max + 1])


def gm_optimal_thresholds(n: int) -> ThresholdPolicy:
    """Thresholds b_1 <= ... <= b_n = 1 maximizing the success probability."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    check_step_cap(n)
    b = np.ones(n)
    if n > 1:
        # b_j solves the equation with m = n - j
        b[: n - 1] = _threshold_roots(n - 1)[1:n][::-1]
    return ThresholdPolicy(b)


def _check_gm_thresholds(n: int, b: np.ndarray):
    if len(b) != n:
        raise InvalidPolicyError(f"expected {n} thresholds, got {len(b)}")
    if np.any(b < 0.0) or np.any(b > 1.0):
        raise InvalidPolicyError("thresholds must lie in [0, 1]")
    if np.any(np.diff(b) < 0.0):
        raise InvalidPolicyError("thresholds must be nondecreasing")


def gm_success(n: int, b) -> Decomposition:
    """Success probability of the rule "stop at the first record <= b_j",
    for arbitrary nondecreasing thresholds in [0, 1]:

        jump  = (1 - sum_j (1-b_j)^n) / n
        drift = sum_{j<n} sum_{i<=j} [ (1-b_i)^j / (j(n-j)) - (1-b_i)^n / (n(n-j)) ]

    The two displayed parts cancel analytically for degenerate inputs such as
    all-zero thresholds, so individual parts can be negative there; the total
    is always the exact success probability.
    """
    b = np.asarray(b, dtype=float)
    _check_gm_thresholds(n, b)
    check_step_cap(n)
    q = 1.0 - b
    with np.errstate(divide="ignore"):
        lnq = np.log(q)  # -inf where b == 1; exp(j * -inf) = 0 below
    qn = np.exp(n * lnq)
    jump = (1.0 - math.fsum(qn)) / n
    drift_terms = []
    for j in range(1, n):
        s1 = float(np.sum(np.exp(j * lnq[:j])))
        sn = float(np.sum(qn[:j]))
        drift_terms.append(s1 / (j * (n - j)) - sn / (n * (n - j)))
    return Decomposition(jump, math.fsum(drift_terms))


def sakaguchi_value(n: int) -> float:
    """Optimal success probability for n iid uniform-[0,1] observations:
    (1/n) (1 + sum_{j<n} sum_{k=j}^{n-1} (1-b_j)^k / k)."""
    if n == 1:
        return 1.0
    b = np.asarray(gm_optimal_thresholds(n).thresholds)
    q = 1.0 - b[: n - 1]
    lnq = np.log(q)
    ks = np.arange(1, n, dtype=float)
    terms = [float(np.sum(np.exp(ks[j - 1:] * lnq[j - 1]) / ks[j - 1:])) for j in range(1, n)]
    return (1.0 + math.fsum(terms)) / n


def tie_probability(model: ObservationModel) -> float:
    """Probability that the sample minimum is attained more than once:
    1 - n * sum_x P(X = x) P(X > x)^{n-1}.  Zero for continuous models."""
    if model.kind == IID_UNIFORM01:
        return 0.0
    if model.kind == RECTANGULAR:
        n, k = model.n, model.k
        surv = model.survival(1, k - np.arange(k, dtype=float))  # x = k, ..., 1
        with np.errstate(divide="ignore"):
            surv = np.exp((n - 1) * np.log(surv)) if n > 1 else np.ones(k)
        return 1.0 - (n / k) * float(np.sum(surv))
    raise UnsupportedModelError(f"tie probability needs an iid model, got {model.kind}")


def tie_break_transform(values, uniforms, model: ObservationModel) -> np.ndarray:
    """Map observations X_j with possible atoms to Y_j = F(X_j) - [F(X_j) -
    F(X_j-)] U_j, which are iid uniform on [0, 1] and preserve the property
    that the index of the Y-minimum attains the X-minimum."""
    x = np.asarray(values, dtype=float)
    u = np.asarray(uniforms, dtype=float)
    if x.shape != u.shape:
        raise DomainError(f"shape mismatch: {x.shape} vs {u.shape}")
    if np.any(u < 0.0) or np.any(u > 1.0):
        raise DomainError("uniforms must lie in [0, 1]")
    if model.kind == IID_UNIFORM01:
        return np.clip(x, 0.0, 1.0)
    if model.kind == RECTANGULAR:
        k = model.k
        f_hi = np.clip(np.floor(x), 0.0, k) / k
        f_lo = np.clip(np.ceil(x) - 1.0, 0.0, k) / k
        # For U near 1, F(X) - p U can round down onto F(X-), the top of the
        # next lower atom's interval; keep Y strictly inside (F(X-), F(X)].
        return np.maximum(f_hi - (f_hi - f_lo) * u, np.nextafter(f_lo, f_hi))
    raise UnsupportedModelError(f"tie-break transform needs an iid model, got {model.kind}")
