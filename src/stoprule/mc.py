"""Seeded Monte Carlo harness.

Replications are split into blocks of about _BLOCK_TARGET floats, block i
drawing from the Philox stream keyed by (seed, i) in chunks of about
_CHUNK_TARGET floats, one after another, through one reused buffer.  The
blocks are scanned on one thread per available CPU (Philox and numpy release
the GIL).  Consecutive draws equal one draw of the whole block, and the
integer counters of the blocks are summed once all are done, so a given
(config, seed) pair produces bitwise-identical results regardless of chunk
size, execution order or worker count.
"""

from __future__ import annotations

import math
import os
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
    InvalidPolicyError,
    ObservationModel,
    ResourceLimitError,
    ThresholdPolicy,
    UnsupportedModelError,
)

__all__ = [
    "MAX_DRAWS",
    "SimConfig",
    "SimResult",
    "ScalingReport",
    "BoundsReport",
    "simulate",
    "scaling_check",
    "bounds_check",
]

_BLOCK_TARGET = 4_000_000  # floats per block: one Philox stream, one task
_CHUNK_TARGET = 1 << 16  # floats drawn and scanned at a time within a block
MAX_DRAWS = 10 ** 10  # cap on replications * n of one simulation
# A scaling_check of a continuous kind holds every minimum: a tracemalloc peak
# of 32 MB + 48 B a replication, 464 MB at the cap (the integer kinds count).
MAX_SCALING_REPLICATIONS = 9 * 10 ** 6
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
        if self.replications * self.model.n > MAX_DRAWS:
            raise ResourceLimitError(f"replications * n above cap {MAX_DRAWS}")
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


def _map_blocks(scan, model: ObservationModel, seed: int, reps: int, cols: int) -> list:
    """[scan(chunks of X_1..X_cols) for each block of reps replications],
    in block order; see the module docstring."""
    block = max(1, min(reps, _BLOCK_TARGET // cols))

    def chunks(index):
        rows = min(block, reps - index * block)
        g = np.random.Generator(np.random.Philox(key=(int(seed) & (1 << 64) - 1) << 64 | index))
        buf = np.empty((max(1, min(rows, _CHUNK_TARGET // cols)), cols))
        for start in range(0, rows, len(buf)):
            yield model.sample(g.random(out=buf[: rows - start]))

    # imported here: it loads logging, which commands that do not sample never need
    from concurrent.futures import ThreadPoolExecutor

    # sched_getaffinity, which honours CPU pinning, exists only on some systems.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(cpus) as pool:
        return list(pool.map(lambda index: scan(chunks(index)), range(-(-reps // block))))


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
        raise InvalidPolicyError(f"policy length {policy.n} != n = {n}")
    b = np.asarray(policy.thresholds)
    strict = config.record_semantics == "strict"
    reps = config.replications

    def scan(chunks):
        n_success = n_tie = sum_tau = sum_tau_sq = 0
        for x in chunks:
            m = np.minimum.accumulate(x, axis=1)
            # X_j is a weak record iff it is the running minimum M_j, and a
            # strict one iff moreover M_{j-1} > X_j.
            stoppable = x <= b
            if strict:
                stoppable[:, 1:] &= m[:, :-1] > x[:, 1:]
            stoppable &= x == m
            first = stoppable.argmax(axis=1)
            rows = np.arange(len(x))
            has = stoppable[rows, first]
            tau = np.where(has, first + 1, n)
            final_min = m[:, -1]
            success = has & (x[rows, first] == final_min)
            ties = np.add.reduce(x == final_min[:, None], axis=1, dtype=np.int32) >= 2
            n_success += int(np.count_nonzero(success))
            n_tie += int(np.count_nonzero(ties))
            sum_tau += int(tau.sum())
            sum_tau_sq += int((tau.astype(np.int64) ** 2).sum())
        return n_success, n_tie, sum_tau, sum_tau_sq

    blocks = _map_blocks(scan, model, config.seed, reps, n)
    n_success, n_tie, sum_tau, sum_tau_sq = map(sum, zip(*blocks))

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
        # x^(th + 1) overflows only where the Weibull cdf is exactly 1.0
        cdf = np.errstate(over="ignore")(lambda x: -np.expm1(-(x ** (th + 1.0)) / (th + 1.0)))
        return n ** (th / (th + 1.0)), cdf
    raise UnsupportedModelError(f"scaling check does not support {model.kind}")


def scaling_check(model: ObservationModel, replications: int = 100_000,
                  seed: int = 0) -> ScalingReport:
    """Compare the empirical law of the scaled sample minimum with its limit
    (Rayleigh or Weibull) and with the exact finite-n distribution.

    Only steps j <= _X_HI * scale can produce minima below the comparison
    range, so sampling is truncated there; the neglected mass is bounded by
    the limit tail at _X_HI (e^{-32} for the Rayleigh law).  ResourceLimitError,
    before any draw: replications above MAX_SCALING_REPLICATIONS, or
    replications or the integer grid size times j_cut above MAX_DRAWS.
    """
    if replications < 1:
        raise DomainError("replications must be >= 1")
    if replications > MAX_SCALING_REPLICATIONS:
        raise ResourceLimitError(f"replications above cap {MAX_SCALING_REPLICATIONS}")
    scale, limit_cdf = _scaling_spec(model)
    n = model.n
    if n < 10:
        return ScalingReport(model, 0, scale, math.nan, math.nan, True,
                             f"n={n} too small for an asymptotic check")
    j_cut = min(n, int(math.ceil(_X_HI * scale)) + 1)
    cap = _X_HI * scale
    grid_size = math.floor(cap) if model.kind in (TRIANGULAR, TREND_SHIFTED) else 0
    if max(replications, grid_size) * j_cut > MAX_DRAWS:
        raise ResourceLimitError(f"replications or grid size * j_cut = {j_cut} above cap {MAX_DRAWS}")

    def minima(chunks):
        return np.concatenate([x.min(axis=1) for x in chunks])

    def sup(cdf, upper, lower):
        # sup |ECDF - cdf| over the sorted distinct minima, at each of which
        # the ECDF steps from lower - 1/N to upper
        return float(max(np.max(upper - cdf), np.max(cdf - (lower - 1.0 / replications))))

    # The distinct minima vals (those above cap read cap) with their counts;
    # a run of equal minima has ranks in (upto - count, upto].
    if grid_size:
        # Integer minima, counted on 1..grid_size and above cap: the ECDF and
        # the exact cdf share their jump points, so sup_exact is on the grid.
        counts = sum(_map_blocks(
            lambda chunks: np.bincount(np.minimum(minima(chunks), grid_size + 1).astype(np.int64),
                                       minlength=grid_size + 2),
            model, seed, replications, j_cut))[1:]
        clipped, grid = int(counts[-1]), np.arange(1.0, grid_size + 1.0)
        vals, counts = np.append(grid, cap)[counts > 0], counts[counts > 0]
    else:
        vals = np.concatenate(_map_blocks(minima, model, seed, replications, j_cut))
        clipped = int(np.count_nonzero(vals > cap))
        vals, counts = np.unique(np.minimum(vals, cap, out=vals), return_counts=True)
    upto = np.cumsum(counts)
    upper, lower = upto / replications, (upto - counts + 1) / replications
    sup_limit = sup(limit_cdf(vals / scale), upper, lower)
    if grid_size:
        ecdf = np.r_[0, upto][np.searchsorted(vals, grid, side="right")] / replications
        sup_exact = float(np.max(np.abs(ecdf - (1.0 - _min_survival(model, grid, j_cut)))))
    else:
        sup_exact = sup(1.0 - _min_survival(model, vals, j_cut), upper, lower)

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
