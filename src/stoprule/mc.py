"""Seeded Monte Carlo harness.

Replications are processed in fixed-size blocks, each drawing from a Philox
stream keyed by (seed, block index), and aggregated with integer counters, so
a given (config, seed) pair produces bitwise-identical results regardless of
execution order or worker count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import dp, fullinfo
from .models import (
    IID_UNIFORM01,
    TREND_POWER,
    TREND_SCALED,
    TREND_SHIFTED,
    TRIANGULAR,
    DomainError,
    ObservationModel,
    ThresholdPolicy,
    UnsupportedModelError,
)

__all__ = [
    "SimConfig",
    "SimResult",
    "ScalingReport",
    "BoundsReport",
    "simulate",
    "scaling_check",
    "bounds_check",
]

_BLOCK_TARGET = 4_000_000  # floats per sampling block
_X_HI = 8.0  # end of the scaling-check comparison range, in units of the scale


@dataclass(frozen=True)
class SimConfig:
    """One simulation request.  policy is "optimal" or a ThresholdPolicy;
    record_semantics "weak" stops at ties with the running minimum, "strict"
    only below it."""

    model: ObservationModel
    policy: object = "optimal"
    replications: int = 100_000
    seed: int = 0
    record_semantics: str = "weak"

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if self.record_semantics not in ("weak", "strict"):
            raise DomainError(f"bad record_semantics {self.record_semantics!r}")
        if not (isinstance(self.policy, ThresholdPolicy) or self.policy == "optimal"):
            raise DomainError("policy must be 'optimal' or a ThresholdPolicy")


@dataclass(frozen=True)
class SimResult:
    success_rate: float
    tie_rate: float
    mean_stop_fraction: float
    std_error: float
    mean_stop_std_error: float
    replications: int

    def to_json(self) -> dict:
        return asdict(self)


def _blocks(model: ObservationModel, seed: int, reps: int, cols: int):
    """Observation blocks X_1..X_cols covering reps replications.  Block i
    holds the first rows of a full block drawn from the Philox stream keyed
    by (seed, i), so results do not depend on how blocks are processed."""
    block = max(1, min(reps, _BLOCK_TARGET // cols))
    for index, start in enumerate(range(0, reps, block)):
        key = (int(seed) & ((1 << 64) - 1)) << 64 | index
        u = np.random.Generator(np.random.Philox(key=key)).random((block, cols))
        yield model.sample(u[: min(block, reps - start)])


def optimal_policy(model: ObservationModel) -> ThresholdPolicy:
    """Optimal thresholds: the full-information roots for iid uniform-[0,1]
    observations, dp.solve for every other kind (which raises
    UnsupportedModelError for kinds it cannot solve)."""
    if model.kind == IID_UNIFORM01:
        return fullinfo.gm_optimal_thresholds(model.n)
    return dp.solve(model).policy


def simulate(config: SimConfig) -> SimResult:
    """Estimate the success probability of a threshold policy.

    Success means the stopped value equals the realized overall minimum (ties
    count).  The stop time is the first record at or below its threshold; if
    none occurs, tau = n is recorded for the stop-fraction estimate and the
    attempt only succeeds when the final observation is such a record.
    """
    model = config.model
    n = model.n
    policy = config.policy if isinstance(config.policy, ThresholdPolicy) else optimal_policy(model)
    if policy.n != n:
        raise DomainError(f"policy length {policy.n} != n = {n}")
    b = np.asarray(policy.thresholds)
    strict = config.record_semantics == "strict"
    reps = config.replications

    n_success = 0
    n_tie = 0
    sum_tau = 0
    sum_tau_sq = 0
    for x in _blocks(model, config.seed, reps, n):
        m = np.minimum.accumulate(x, axis=1)
        # X_j is a weak record iff it is the running minimum M_j, and a
        # strict one iff moreover M_{j-1} > X_j.
        record = x == m
        if strict:
            record[:, 1:] &= m[:, :-1] > x[:, 1:]
        stoppable = record & (x <= b[None, :])
        has = stoppable.any(axis=1)
        first = stoppable.argmax(axis=1)
        tau = np.where(has, first + 1, n)
        final_min = m[:, -1]
        value = x[np.arange(len(x)), first]
        success = has & (value == final_min)
        n_success += int(np.count_nonzero(success))
        n_tie += int(np.count_nonzero(np.count_nonzero(x == final_min[:, None], axis=1) >= 2))
        sum_tau += int(tau.sum())
        sum_tau_sq += int((tau.astype(np.int64) ** 2).sum())

    p = n_success / reps
    mean_tau = sum_tau / reps
    var_tau = max(sum_tau_sq / reps - mean_tau ** 2, 0.0)
    return SimResult(
        success_rate=p,
        tie_rate=n_tie / reps,
        mean_stop_fraction=mean_tau / n,
        std_error=math.sqrt(p * (1.0 - p) / reps),
        mean_stop_std_error=math.sqrt(var_tau / reps) / n,
        replications=reps,
    )


# ---------------------------------------------------------------------------
# Scaling checks for the trend models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingReport:
    """Sup-distance of the scaled-minimum sample against the limit law and
    against the exact finite-n distribution."""

    model: ObservationModel
    replications: int
    scale: float
    sup_limit: float
    sup_exact: float
    skipped: bool = False
    note: str = ""


def _min_survival(model: ObservationModel, vs: np.ndarray, j_cut: int) -> np.ndarray:
    """Exact P(M_n > v) for each v in vs; steps above j_cut, which lie above
    every v, contribute factors 1."""
    js = np.arange(1.0, j_cut + 1.0)
    out = np.empty(len(vs))
    chunk = max(1, 2_000_000 // j_cut)
    for lo in range(0, len(vs), chunk):
        out[lo : lo + chunk] = np.prod(model.survival(js, vs[lo : lo + chunk, None]), axis=1)
    return out


def _scaling_spec(model: ObservationModel):
    """(scale, limit cdf of M_n/scale) for the supported kinds."""
    n = model.n
    if model.kind in (TRIANGULAR, TREND_SHIFTED):
        return math.sqrt(n), lambda x: -np.expm1(-0.5 * x * x)
    if model.kind == TREND_SCALED:
        return math.sqrt(model.rho * n), lambda x: -np.expm1(-0.5 * x * x)
    if model.kind == TREND_POWER:
        th = model.theta
        return n ** (th / (th + 1.0)), lambda x: -np.expm1(-(x ** (th + 1.0)) / (th + 1.0))
    raise UnsupportedModelError(f"scaling check does not support {model.kind}")


def scaling_check(model: ObservationModel, replications: int = 100_000,
                  seed: int = 0) -> ScalingReport:
    """Compare the empirical law of the scaled sample minimum with its limit
    (Rayleigh or Weibull) and with the exact finite-n distribution.

    Only steps j <= _X_HI * scale can produce minima below the comparison
    range, so sampling is truncated there; the neglected mass is bounded by
    the limit tail at _X_HI (e^{-32} for the Rayleigh law).
    """
    if replications < 1:
        raise DomainError("replications must be >= 1")
    scale, limit_cdf = _scaling_spec(model)
    n = model.n
    if n < 10:
        return ScalingReport(model, 0, scale, math.nan, math.nan, True,
                             f"n={n} too small for an asymptotic check")
    j_cut = min(n, int(math.ceil(_X_HI * scale)) + 1)
    cap = _X_HI * scale

    samples = np.concatenate([x.min(axis=1) for x in _blocks(model, seed, replications, j_cut)])

    clipped = int(np.count_nonzero(samples > cap))
    samples = np.minimum(samples, cap)
    sorted_raw = np.sort(samples)
    scaled = sorted_raw / scale
    ranks = np.arange(1, replications + 1) / replications

    cdf_lim = limit_cdf(scaled)
    sup_limit = float(np.max(np.maximum(ranks - cdf_lim, cdf_lim - (ranks - 1.0 / replications))))

    if model.kind in (TRIANGULAR, TREND_SHIFTED):
        # Integer-valued minima: ECDF and the exact cdf share their jump
        # points, so the sup distance is attained on the integer grid.
        grid = np.arange(1.0, math.floor(cap) + 1.0)
        ecdf = np.searchsorted(sorted_raw, grid, side="right") / replications
        exact = 1.0 - _min_survival(model, grid, j_cut)
        sup_exact = float(np.max(np.abs(ecdf - exact)))
    else:
        cdf_exact = 1.0 - _min_survival(model, sorted_raw, j_cut)
        sup_exact = float(
            np.max(np.maximum(ranks - cdf_exact, cdf_exact - (ranks - 1.0 / replications)))
        )

    note = f"{clipped} samples above the comparison range" if clipped else ""
    return ScalingReport(model, replications, scale, sup_limit, sup_exact, False, note)


# ---------------------------------------------------------------------------
# iid sandwich bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    n: int
    k: int
    v_lower: float
    tie_prob: float
    exact_value: float
    simulated: float
    std_error: float
    exact_in_bounds: bool
    simulated_in_bounds: bool


def bounds_check(n: int, k: int, reps: int = 200_000, seed: int = 0) -> BoundsReport:
    """Sandwich test for the iid rectangular model: the continuous-game value
    v_lower bounds the discrete value from below, and v_lower + tie_prob from
    above.  The exact solver value is checked with zero statistical slack; the
    simulated value with a 4-sigma allowance."""
    model = ObservationModel.rectangular(n, k)
    v_lower = fullinfo.sakaguchi_value(n)
    delta = fullinfo.tie_probability(model)
    exact = dp.solve(model).decomposition.total
    sim = simulate(SimConfig(model=model, replications=reps, seed=seed))
    tol = 1e-12
    exact_ok = (v_lower - tol <= exact <= v_lower + delta + tol)
    slack = 4.0 * sim.std_error
    sim_ok = (v_lower - slack <= sim.success_rate <= v_lower + delta + slack)
    return BoundsReport(
        n=n, k=k, v_lower=v_lower, tie_prob=delta, exact_value=exact,
        simulated=sim.success_rate, std_error=sim.std_error,
        exact_in_bounds=exact_ok, simulated_in_bounds=sim_ok,
    )
