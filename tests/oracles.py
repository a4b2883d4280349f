"""Oracles used only by the tests.

The enumeration oracles read the law of each step from
ObservationModel.atoms, as dp.brute_force_oracle does, and enumerate every
outcome tuple, so they are meant for models with at most about 10^6 tuples.
simulate_oracle is the whole-block Monte Carlo scan that mc.simulate
replaced with chunked, threaded scans; it must give the same SimResult.
jump_series_double is the O(k_max^2) jump series of the integer-level limit
that the moment series of poisson._level_series replaced. ladder_residual is
the level equation of one root, which the brentq ladder of the tests solves.
gm_first_passage is the split by first passage of the full-information
success probability, and tie_probability the exact P(tie) of any
independent integer-valued model.  exact_values is the backward induction of
dp in exact rational arithmetic.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from stoprule import fullinfo, mc
from stoprule.models import DomainError, ThresholdPolicy


def enumerate_outcomes(model):
    """All (probability, tuple) pairs of X_1..X_n."""
    sups = [model.atoms(j) for j in range(1, model.n + 1)]
    for combo in itertools.product(*sups):
        prob = 1.0
        for _, p in combo:
            prob *= p
        yield prob, tuple(v for v, _ in combo)


def policy_oracle(model, policy, strict=False):
    """Success probability of a threshold policy: stop at the first record
    x <= b_j (a weak record ties the running minimum, a strict one is below
    it) and succeed when x is the minimum of the whole sequence."""
    total = 0.0
    for prob, outcome in enumerate_outcomes(model):
        running = math.inf
        stopped_at = None
        for v, b in zip(outcome, policy.thresholds, strict=True):
            is_record = v < running if strict else v <= running
            running = min(running, v)
            if stopped_at is None and is_record and v <= b:
                stopped_at = v
        if stopped_at is not None and stopped_at == running:
            total += prob
    return total


def simulate_oracle(config, block_target=4_000_000):
    """mc.simulate on one thread, one whole block at a time: block i is the
    first rows of a (block, n) draw from the Philox stream keyed by
    (seed, i), with block = max(1, min(reps, block_target // n)) rows."""
    model, reps = config.model, config.replications
    n = model.n
    policy = config.policy
    if not isinstance(policy, ThresholdPolicy):
        policy = mc.optimal_policy(model)
    b = np.asarray(policy.thresholds)
    block = max(1, min(reps, block_target // n))
    n_success = n_tie = sum_tau = sum_tau_sq = 0
    for index, start in enumerate(range(0, reps, block)):
        key = (int(config.seed) & ((1 << 64) - 1)) << 64 | index
        u = np.random.Generator(np.random.Philox(key=key)).random((block, n))
        x = model.sample(u[: min(block, reps - start)])
        m = np.minimum.accumulate(x, axis=1)
        record = x == m
        if config.record_semantics == "strict":
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
    return mc.SimResult(
        success_rate=p,
        tie_rate=n_tie / reps,
        mean_stop_fraction=mean_tau / n,
        std_error=math.sqrt(p * (1.0 - p) / reps),
        mean_stop_std_error=math.sqrt(var_tau / reps) / n,
        replications=reps,
    )


def jump_series_double(zlam: np.ndarray, lam: float, k_max: int) -> float:
    """Jump series sum_k e^{-lam k} sum_{j<=k} (z_k^j - z_{k+1}^j)/j, in O(k_max²)."""
    pieces = []
    lnz = np.log(zlam)
    for k in range(1, k_max + 1):
        a, b = lnz[k], lnz[k + 1]
        if a == b:
            continue
        js = np.arange(1, k + 1, dtype=float)
        # exponents stay <= 0: j ln z <= k lam for z <= e^lam.
        vals = (np.exp(js * a - lam * k) - np.exp(js * b - lam * k)) / js
        pieces.append(float(np.sum(vals)))
    return math.fsum(pieces)


def ladder_residual(k: int, z: float) -> float:
    """sum_{j=2}^k z^j/j - sum_{j=1}^k 1/j; the level-k root is its zero."""
    if k < 2:
        raise DomainError("the level equation starts at k = 2")
    js = np.arange(2, k + 1, dtype=float)
    # (z^j - 1)/j summed equals the residual + 1 shifted; expm1 keeps z ~ 1 exact.
    lnz = math.log(z)
    return float(np.sum(np.expm1(js * lnz) / js)) - 1.0


def gm_first_passage(n, b):
    """(jump, drift) of the rule "stop at the first record <= b_j" on n iid
    uniform-[0,1] observations, split by first passage: the jump mass stops at
    step j with every earlier draw above b_j, which has probability
    q_j^{j-1} (1 - q_j^{n-j+1}) / (n-j+1) with q_j = 1 - b_j; the drift mass is
    the rest of fullinfo.gm_success's total."""
    q = 1.0 - np.asarray(b, dtype=float)
    j = np.arange(1, n + 1)
    left = n - j + 1
    jump = math.fsum(q ** (j - 1) * (1.0 - q ** left) / left)
    return jump, fullinfo.gm_success(n, b).total - jump


def tie_probability(model, chunk=256):
    """P(the sample minimum is attained more than once) for independent
    integer-valued X_1..X_n: 1 - sum_x sum_j P(X_j = x) prod_{i != j} P(X_i > x),
    read from model.survival alone, with the products over i != j taken from
    prefix and suffix products, chunk values at a time."""
    n = model.n
    lo, hi = zip(*(model.support(j) for j in range(1, n + 1)))
    steps = np.arange(1, n + 1, dtype=float)[:, None]
    unique = []
    for start in range(min(lo), max(hi) + 1, chunk):
        x = np.arange(start, min(start + chunk, max(hi) + 1), dtype=float)[None, :]
        surv = model.survival(steps, x)
        mass = model.survival(steps, x - 1.0) - surv
        one = np.ones_like(x)
        before = np.cumprod(np.vstack([one, surv[:-1]]), axis=0)  # prod over i < j
        after = np.cumprod(np.vstack([one, surv[:0:-1]]), axis=0)[::-1]  # over i > j
        unique.append(float(np.sum(mass * before * after)))
    return 1.0 - math.fsum(unique)


def exact_values(model):
    """The stop and continuation values s(j, x) and v(j, x) of the optimal
    rule as Fractions, keyed by (j, x) for steps j = 1..n and running minima
    x = 1..x_max of an integer-interval model: s(j, x) = P(X_i >= x for all
    i > j), v(n, x) = 0 and v(j, x) = sum_{y <= x} P(X_{j+1} = y) max(s, v)(j+1, y)
    + P(X_{j+1} > x) v(j+1, x), a value equal to the minimum being a record."""
    n = model.n
    x_max = model.support(n)[1]
    s = {(n, x): Fraction(1) for x in range(1, x_max + 1)}
    v = {(n, x): Fraction(0) for x in range(1, x_max + 1)}
    for j in range(n - 1, 0, -1):
        lo, hi = model.support(j + 1)
        size, below = hi - lo + 1, Fraction(0)
        for x in range(1, x_max + 1):
            if lo <= x <= hi:
                below += max(s[j + 1, x], v[j + 1, x]) / size
            s[j, x] = s[j + 1, x] * Fraction(min(hi - x + 1, size), size)
            v[j, x] = below + Fraction(max(hi - x, 0), size) * v[j + 1, x]
    return s, v
