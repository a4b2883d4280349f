"""Closed forms for the iid uniform-[0,1] minimum game.

The optimal rule stops at the first record below a step-dependent threshold.
Each threshold solves a one-dimensional root equation that depends only on the
number of remaining observations, so roots are cached by horizon distance.
They are solved by poisson.brentq, a port of scipy.optimize.brentq that
returns the same bits without importing scipy.
The module also evaluates the success functional for arbitrary monotone
thresholds (split into jump and drift parts), Sakaguchi's value formula, the
tie probability of discrete iid models, and the randomized tie-breaking
transform that maps an iid sample with atoms to an iid uniform one.
"""

from __future__ import annotations

import math
import threading

import numpy as np

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
from .poisson import brentq, level_sum

__all__ = [
    "gm_optimal_thresholds",
    "gm_success",
    "sakaguchi_value",
    "tie_probability",
    "tie_break_transform",
]


# Roots cached by horizon distance m; index 0 unused.  Root m solves the level
# equation from i = 1 at z = 1/(1 - x).  The brackets shrink with m (the root
# sequence is strictly decreasing), so evaluations never leave the
# overflow-safe region.  The lock keeps threads that fill the cache at once
# from appending the same root twice.
_ROOTS: list[float] = [math.nan, 0.5]
_ROOTS_LOCK = threading.Lock()


def _threshold_roots(m_max: int) -> np.ndarray:
    with _ROOTS_LOCK:
        while len(_ROOTS) <= m_max:
            m = len(_ROOTS)
            root, _ = brentq(lambda x: level_sum(m, -math.log1p(-x)) - 1.0,
                             1e-17, _ROOTS[m - 1], 1e-16)
            _ROOTS.append(root)
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
    if not np.all((b >= 0.0) & (b <= 1.0)):  # NaN fails too
        raise InvalidPolicyError("thresholds must lie in [0, 1]")
    if np.any(np.diff(b) < 0.0):
        raise InvalidPolicyError("thresholds must be nondecreasing")


def _power_sums(lnq: np.ndarray, n: int) -> np.ndarray:
    """S_k = sum_{i<=k} (1-b_i)^k for k = 1..n-1, from lnq_i = ln(1 - b_i)."""
    return np.array([np.sum(np.exp(k * lnq[:k])) for k in range(1, n)])


def gm_success(n: int, b) -> Decomposition:
    """Success probability of the rule "stop at the first record <= b_j",
    for arbitrary nondecreasing thresholds in [0, 1]:

        jump  = (1 - sum_j (1-b_j)^n) / n
        drift = sum_{j<n} sum_{i<=j} [ (1-b_i)^j / (j(n-j)) - (1-b_i)^n / (n(n-j)) ]

    The two parts are an algebraic split, not the first-passage masses of
    stopping by jump or by drift: the jump part is negative at the optimal
    thresholds from n = 6 on.  Only the total is the success probability.
    """
    b = np.asarray(b, dtype=float)
    _check_gm_thresholds(n, b)
    check_step_cap(n)
    with np.errstate(divide="ignore"):
        lnq = np.log(1.0 - b)  # -inf where b == 1; exp(j * -inf) = 0 below
    qn = np.exp(n * lnq)
    jump = (1.0 - math.fsum(qn)) / n
    j = np.arange(1, n)
    sn = np.array([np.sum(qn[:k]) for k in range(1, n)])
    drift = _power_sums(lnq, n) / (j * (n - j)) - sn / (n * (n - j))
    return Decomposition(jump, math.fsum(drift))


def sakaguchi_value(n: int) -> float:
    """Optimal success probability for n iid uniform-[0,1] observations:
    (1/n) (1 + sum_{k<n} S_k/k), S_k = sum_{i<=k} (1-b_i)^k at the optimal b."""
    b = np.asarray(gm_optimal_thresholds(n).thresholds)
    s = _power_sums(np.log(1.0 - b[: n - 1]), n)
    return (1.0 + math.fsum(s / np.arange(1, n))) / n


def tie_probability(model: ObservationModel) -> float:
    """Probability that the sample minimum is attained more than once:
    1 - n * sum_x P(X = x) P(X > x)^{n-1}, with P(X > x) read from the
    model's survival function.  Zero for continuous models."""
    if model.kind == IID_UNIFORM01:
        return 0.0
    if model.kind == RECTANGULAR:
        lo, hi = model.support(1)
        x = np.arange(hi, lo - 1, -1, dtype=float)
        surv = model.survival(1, x)
        mass = model.survival(1, x - 1.0) - surv
        return 1.0 - model.n * float(np.sum(mass * surv ** (model.n - 1)))
    raise UnsupportedModelError(f"tie probability needs an iid model, got {model.kind}")


def tie_break_transform(values, uniforms, model: ObservationModel) -> np.ndarray:
    """Map observations X_j with possible atoms to Y_j = F(X_j) - [F(X_j) -
    F(X_j-)] U_j, which are iid uniform on [0, 1] and preserve the property
    that the index of the Y-minimum attains the X-minimum.  F = 1 - survival.
    NaN, an observation off the support and a non-integer under a discrete
    model raise DomainError."""
    x = np.asarray(values, dtype=float)
    u = np.asarray(uniforms, dtype=float)
    if x.shape != u.shape:
        raise DomainError(f"shape mismatch: {x.shape} vs {u.shape}")
    if not np.all((u >= 0.0) & (u <= 1.0)):  # NaN fails too
        raise DomainError("uniforms must lie in [0, 1]")
    if model.kind == IID_UNIFORM01:
        if not np.all((x >= 0.0) & (x <= 1.0)):  # NaN fails too
            raise DomainError("observations must lie in [0, 1]")
        return x.copy()
    if model.kind == RECTANGULAR:
        lo, hi = model.support(1)
        if not np.all((x >= lo) & (x <= hi) & (x == np.floor(x))):  # NaN fails too
            raise DomainError(f"observations must be integers in {lo}..{hi}")
        f_hi = 1.0 - model.survival(1, x)
        f_lo = 1.0 - model.survival(1, x - 1.0)
        # For U near 1, F(X) - p U can round down onto F(X-), the top of the
        # next lower atom's interval; keep Y strictly inside (F(X-), F(X)].
        return np.maximum(f_hi - (f_hi - f_lo) * u, np.nextafter(f_lo, f_hi))
    raise UnsupportedModelError(f"tie-break transform needs an iid model, got {model.kind}")
